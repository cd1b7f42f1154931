"""Hostile input at the serve boundary: the bad request fails, alone.

Swept twice — through ``ClusterServer.submit`` and through the CLI's
newline-JSON protocol — and each time followed by a good ingest that
must get the *next contiguous* partition index: a refused request
leaves no hole in the journal and does not wedge the ingest lane.
"""

from __future__ import annotations

import io
import json

import numpy as np
import pytest

from repro.cli import main
from repro.serve.registry import ModelRegistry, ServeError, UnknownCellError
from repro.serve.server import ClusterServer
from repro.stream.checkpoint import read_journal

K = 3
NAN = float("nan")
GOOD = [[0.1 * i, 1.0 - 0.1 * i] for i in range(12)]

#: ``(case, op, cell, payload, error type, fragment of the message)``.
BAD_REQUESTS = [
    ("assign-nan", "assign", "a", {"points": [[NAN, 1.0]]}, ValueError, "finite"),
    ("assign-inf", "assign", "a", {"points": [[np.inf, 1.0]]}, ValueError, "finite"),
    ("assign-ragged", "assign", "a", {"points": [[1.0, 2.0], [3.0]]}, ValueError, "inhomogeneous"),
    ("assign-wrong-dim", "assign", "a", {"points": [[1.0, 2.0, 3.0]]}, ServeError, "dimension 3"),
    ("assign-empty", "assign", "a", {"points": []}, ValueError, "at least one row"),
    ("assign-no-points", "assign", "a", {}, ValueError, "assign needs 'points'"),
    ("assign-text", "assign", "a", {"points": "abc"}, ValueError, "convert"),
    ("assign-ghost", "assign", "ghost", {"points": GOOD}, UnknownCellError, "ghost"),
    ("window-no-last-n", "window", "a", {}, ValueError, "window needs 'last_n'"),
    ("ingest-nan", "ingest", "a", {"points": GOOD[:-1] + [[NAN, 0.0]]}, ValueError, "finite"),
    ("ingest-inf", "ingest", "a", {"points": GOOD[:-1] + [[-np.inf, 0.0]]}, ValueError, "finite"),
    ("ingest-ragged", "ingest", "a", {"points": GOOD + [[1.0]]}, ValueError, "inhomogeneous"),
    ("ingest-wrong-dim", "ingest", "a", {"points": [row + [0.5] for row in GOOD]}, ServeError, "dimension 3"),
    ("ingest-empty", "ingest", "a", {"points": []}, ValueError, "at least one row"),
    ("ingest-no-points", "ingest", "a", {}, ValueError, "ingest needs 'points'"),
    ("ingest-fewer-than-k", "ingest", "a", {"points": GOOD[: K - 1]}, ServeError, "fewer than k=3"),
]
#: Refused by ``submit`` itself, before anything is queued.
BAD_SUBMITS = [
    ("unknown-op", "drop-tables", "a", "unknown endpoint 'drop-tables'"),
    ("missing-op", None, "a", "unknown endpoint None"),
    ("missing-cell", "summary", None, "summary needs a cell id"),
    ("ingest-missing-cell", "ingest", None, "ingest needs a cell id"),
    ("cell-not-a-string", "assign", 7, "assign needs a cell id"),
]


def journaled_partitions(run_dir, cell="a") -> list[int]:
    return sorted(read_journal(run_dir / "journal.rjl").partitions[cell])


class TestSubmitBoundary:
    @pytest.fixture(params=[2, 0], ids=["pooled", "inline"])
    def server(self, request, tmp_path, rng):
        registry = ModelRegistry(tmp_path / "run", k=K, seed=1, fsync=False)
        with ClusterServer(registry, query_workers=request.param) as srv:
            srv.ingest("a", rng.normal(size=(60, 2)))
            yield srv

    def test_each_bad_request_fails_alone(self, server, rng):
        for case, op, cell, payload, error, fragment in BAD_REQUESTS:
            with pytest.raises(error, match=fragment):
                server.submit(op, cell, **payload).result(timeout=20)
            # The server is still answering, from an untouched model.
            assert server.summary("a").partitions == 1, case
        for case, op, cell, fragment in BAD_SUBMITS:
            with pytest.raises(ValueError, match=fragment):
                server.submit(op, cell, points=GOOD)
        failed = len(BAD_REQUESTS)
        snapshot = server.stats()["serving"]["endpoints"]
        assert sum(stats["errors"] for stats in snapshot.values()) == failed

        receipt = server.ingest("a", rng.normal(size=(40, 2)))
        assert (receipt.partition, receipt.model_version) == (1, 2)
        run_dir = server.registry.run_dir
        server.close()
        assert journaled_partitions(run_dir) == [0, 1]
        assert "ghost" not in read_journal(run_dir / "journal.rjl").partitions

    def test_bad_members_do_not_poison_a_pooled_group(self, server, rng):
        """Submitted back to back, so that (pooled mode) they may share a
        group with good requests: only the bad ones fail."""
        good = rng.normal(size=(4, 2))
        futures = [
            server.submit("assign", "a", points=good),
            server.submit("assign", "a"),
            server.submit("assign", "a", points=[[NAN, 0.0]]),
            server.submit("assign", "a", points=rng.normal(size=(4, 5))),
            server.submit("assign", "a", points=good),
        ]
        for index in (0, 4):
            assert futures[index].result(timeout=20).assignments.shape == (4,)
        for index in (1, 2, 3):
            with pytest.raises((ValueError, ServeError)):
                futures[index].result(timeout=20)


class TestCliProtocol:
    def test_malformed_lines_are_answered_and_serving_goes_on(
        self, tmp_path, monkeypatch, capsys
    ):
        run_dir = tmp_path / "run"
        lines = [
            json.dumps({"id": 1, "op": "ingest", "cell": "a", "points": GOOD}),
            '{"id": 2, "op": "assign", "cell": "a", "points": [[0.1, 0.2',
            json.dumps([1, 2, 3]),
            json.dumps("assign"),
            "not json at all",
            json.dumps({"id": 6}),
            json.dumps({"id": 7, "op": "summary"}),
        ]
        lines += [
            # json.dumps writes NaN / Infinity literals, which the
            # server's json.loads accepts — as_points must refuse them.
            json.dumps({"id": case, "op": op, "cell": cell, **payload})
            for case, op, cell, payload, _, _ in BAD_REQUESTS
        ]
        lines += [
            json.dumps({"id": "after", "op": "ingest", "cell": "a", "points": GOOD}),
            json.dumps({"id": "stats", "op": "stats"}),
            json.dumps({"op": "shutdown"}),
        ]
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
        code = main(
            ["serve", str(run_dir), "--k", str(K), "--no-fsync", "--query-workers", "2"]
        )
        assert code == 0
        ready, *responses, bye = [
            json.loads(line) for line in capsys.readouterr().out.splitlines()
        ]
        assert ready["ready"] and bye == {"ok": True, "bye": True}
        assert len(responses) == len(lines) - 1

        first, *refused, after, stats = responses
        assert first["ok"] and first["result"]["partition"] == 0
        assert [r["ok"] for r in refused] == [False] * len(refused)
        by_position = dict(zip(range(2, 8), refused))
        for position in (2, 3, 4, 5):  # unparseable or not an object
            assert by_position[position]["id"] is None
        assert "JSON object" in by_position[3]["error"]
        assert "unknown endpoint None" in by_position[6]["error"]
        assert "summary needs a cell id" in by_position[7]["error"]
        swept = refused[6:]
        for (case, *_, fragment), response in zip(BAD_REQUESTS, swept):
            assert response["id"] == case
            assert fragment in response["error"], response
        # The lane is not wedged and the journal has no hole.
        assert after["ok"] and after["result"]["partition"] == 1
        assert after["result"]["model_version"] == 2
        assert journaled_partitions(run_dir) == [0, 1]
        queues = stats["result"]["serving"]["queues"]
        assert queues == {
            "query_depth": 0,
            "ingest_backlog": 0,
            "in_flight_groups": 1,
        }
