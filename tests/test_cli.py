"""Tests for the command-line interface."""

from __future__ import annotations

import re

import pytest

from repro.cli import build_parser, main
from repro.data.generator import generate_cell_points
from repro.data.gridcell import GridCell, GridCellId
from repro.data.gridio import write_bucket_dir


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_table2_defaults(self):
        args = build_parser().parse_args(["table2"])
        assert args.config == "quick"
        assert args.workers == 1

    def test_unknown_config_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table2", "--config", "huge"])

    def test_speedup_clone_list(self):
        args = build_parser().parse_args(
            ["speedup", "--clones", "1", "2", "8"]
        )
        assert args.clones == [1, 2, 8]


class TestCommands:
    def test_generate_and_cluster(self, tmp_path, capsys):
        out = tmp_path / "buckets"
        assert (
            main(
                [
                    "generate",
                    "--out",
                    str(out),
                    "--cells",
                    "1",
                    "--points",
                    "300",
                    "--seed",
                    "3",
                ]
            )
            == 0
        )
        listed = capsys.readouterr().out.strip().splitlines()
        assert len(listed) == 1
        bucket_path = listed[0]

        assert (
            main(
                [
                    "cluster",
                    bucket_path,
                    "--k",
                    "6",
                    "--chunks",
                    "3",
                    "--restarts",
                    "2",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "serial" in output
        assert "partial/merge" in output

    def test_speedup_command(self, capsys):
        assert (
            main(
                [
                    "speedup",
                    "--points",
                    "300",
                    "--k",
                    "4",
                    "--chunks",
                    "2",
                    "--clones",
                    "1",
                ]
            )
            == 0
        )
        assert "Speed-up" in capsys.readouterr().out

    def test_table2_smoke_config(self, capsys):
        assert main(["table2", "--config", "smoke"]) == 0
        assert "Table 2" in capsys.readouterr().out

    def test_figures_smoke_config(self, capsys):
        assert main(["figures", "--config", "smoke"]) == 0
        output = capsys.readouterr().out
        assert "Figure 6" in output
        assert "Figure 7" in output
        assert "Figure 8" in output


class TestNewCommands:
    def test_swath_and_compress_roundtrip(self, tmp_path, capsys):
        granules = tmp_path / "granules"
        buckets = tmp_path / "buckets"
        mvh = tmp_path / "mvh"
        assert (
            main(
                [
                    "swath",
                    "--granules", str(granules),
                    "--buckets", str(buckets),
                    "--orbits", "2",
                    "--footprints", "300",
                    "--samples", "60",
                    "--min-points", "120",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "granules" in out and "buckets" in out

        assert (
            main(
                [
                    "compress",
                    str(buckets),
                    "--out", str(mvh),
                    "--k", "8",
                    "--chunks", "3",
                    "--restarts", "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "compression ratio" in out
        assert list(mvh.glob("*.mvh"))

    def test_compress_empty_dir_fails(self, tmp_path, capsys):
        empty = tmp_path / "none"
        empty.mkdir()
        assert (
            main(["compress", str(empty), "--out", str(tmp_path / "o")]) == 1
        )

    def test_convergence_command(self, capsys):
        assert (
            main(
                [
                    "convergence",
                    "--sizes", "200", "400",
                    "--k", "8",
                    "--restarts", "2",
                    "--chunks", "4",
                ]
            )
            == 0
        )
        assert "Convergence study" in capsys.readouterr().out

    def test_query_command(self, tmp_path, capsys):
        main(
            [
                "generate",
                "--out", str(tmp_path / "b"),
                "--cells", "1",
                "--points", "400",
            ]
        )
        capsys.readouterr()
        assert (
            main(
                [
                    "query",
                    str(tmp_path / "b"),
                    "--k", "6",
                    "--chunks", "2",
                    "--restarts", "2",
                    "--seed", "0",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "logical plan" in out
        assert "physical plan" in out
        assert "partitions=2" in out

    def test_query_explain_only(self, tmp_path, capsys):
        main(
            [
                "generate",
                "--out", str(tmp_path / "b"),
                "--cells", "1",
                "--points", "200",
            ]
        )
        capsys.readouterr()
        assert (
            main(
                ["query", str(tmp_path / "b"), "--k", "4", "--explain-only"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "logical plan" in out
        assert "partitions=" not in out

    def test_report_command(self, tmp_path, capsys):
        out = tmp_path / "report.md"
        assert (
            main(
                [
                    "report",
                    "--config", "smoke",
                    "--out", str(out),
                    "--no-speedup",
                    "--no-convergence",
                ]
            )
            == 0
        )
        text = out.read_text()
        assert "Reproduction report" in text
        assert "Table 2" in text
        assert "Figure 7b" in text

    def test_ksens_command(self, capsys):
        assert (
            main(
                [
                    "ksens",
                    "--ks", "4", "8",
                    "--points", "400",
                    "--restarts", "1",
                    "--chunks", "3",
                ]
            )
            == 0
        )
        assert "k-sensitivity" in capsys.readouterr().out

    def test_noise_command(self, capsys):
        assert (
            main(
                [
                    "noise",
                    "--epsilons", "0.0", "0.02",
                    "--points", "500",
                    "--k", "6",
                    "--restarts", "1",
                ]
            )
            == 0
        )
        assert "Noise study" in capsys.readouterr().out


class TestErrorHandling:
    def test_corrupt_bucket_exits_2_with_one_line_error(
        self, tmp_path, capsys
    ):
        bad = tmp_path / "bad.gbk"
        bad.write_bytes(b"this is not a bucket file at all")
        assert main(["cluster", str(bad), "--k", "4"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert len(captured.err.strip().splitlines()) == 1
        assert "Traceback" not in captured.err

    def test_missing_bucket_exits_2(self, tmp_path, capsys):
        assert main(["cluster", str(tmp_path / "nope.gbk")]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_query_over_corrupt_dir_exits_2(self, tmp_path, capsys):
        (tmp_path / "bad.gbk").write_bytes(b"garbage")
        assert (
            main(["query", str(tmp_path), "--k", "4", "--chunks", "2"]) == 2
        )
        assert capsys.readouterr().err.startswith("error:")


class TestCheckpointCli:
    def _generate(self, tmp_path, capsys):
        out = tmp_path / "buckets"
        main(
            [
                "generate",
                "--out", str(out),
                "--cells", "2",
                "--points", "300",
            ]
        )
        capsys.readouterr()
        return out

    def test_query_checkpoint_and_resume(self, tmp_path, capsys):
        buckets = self._generate(tmp_path, capsys)
        run_dir = tmp_path / "run"
        base = [
            "query", str(buckets),
            "--k", "4", "--chunks", "2", "--restarts", "1",
            "--seed", "0", "--checkpoint-dir", str(run_dir),
        ]
        assert main(base) == 0
        out = capsys.readouterr().out
        assert "checkpoint:" in out
        assert (run_dir / "journal.rjl").exists()

        # Re-running without --resume refuses the existing journal.
        assert main(base) == 2
        assert "already exists" in capsys.readouterr().err

        assert main(base + ["--resume"]) == 0
        assert "checkpoint:" in capsys.readouterr().out

    def test_cluster_checkpoint_flag(self, tmp_path, capsys):
        buckets = self._generate(tmp_path, capsys)
        bucket = sorted(buckets.glob("*.gbk"))[0]
        run_dir = tmp_path / "run"
        assert (
            main(
                [
                    "cluster", str(bucket),
                    "--k", "4", "--chunks", "2", "--restarts", "1",
                    "--checkpoint-dir", str(run_dir),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "journal:" in out
        assert (run_dir / "journal.rjl").exists()

    @pytest.mark.parametrize("command", ["query", "cluster", "serve"])
    def test_retired_kernel_flags_are_argparse_errors(
        self, command, tmp_path, capsys
    ):
        for extra, complaint in (
            (["--no-exact"], "unrecognized arguments: --no-exact"),
            (["--kernel", "hamerly"], "invalid choice: 'hamerly'"),
            (["--kernel", "tiled"], "invalid choice: 'tiled'"),
            (["--kernel", "blas"], "invalid choice: 'blas'"),
        ):
            with pytest.raises(SystemExit) as excinfo:
                main([command, str(tmp_path), *extra])
            assert excinfo.value.code == 2
            error_lines = [
                line
                for line in capsys.readouterr().err.splitlines()
                if "error:" in line
            ]
            assert len(error_lines) == 1 and complaint in error_lines[0]

    def test_retired_blas_kernel_names_the_two_kernels(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["cluster", str(tmp_path / "cell.gbk"), "--kernel", "blas"])
        assert excinfo.value.code == 2
        error = capsys.readouterr().err
        assert "invalid choice: 'blas'" in error
        # Newer Pythons print argparse's choices without quotes.
        assert re.search(r"choose from '?dense'?, '?elkan'?\)", error), error

    def test_query_quarantine_flag(self, tmp_path, capsys):
        buckets = self._generate(tmp_path, capsys)
        (buckets / "bad.gbk").write_bytes(b"garbage")
        assert (
            main(
                [
                    "query", str(buckets),
                    "--k", "4", "--chunks", "2", "--restarts", "1",
                    "--seed", "0", "--on-corrupt", "quarantine",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "quarantined: 1 file(s)" in out
        assert (buckets / "quarantine" / "bad.gbk").exists()


class TestKernelFlag:
    """``--kernel`` unset means the size rule; a named kernel is forced.

    The flag defaults to ``None`` so that ``lloyd`` can pick by size, and
    every command hands an explicit name — ``dense`` included — to the
    layer that runs k-means unchanged.
    """

    class Reached(Exception):
        """Raised by a stand-in once it has recorded its ``kernel``."""

    @pytest.mark.parametrize("command", ["query", "cluster", "serve"])
    def test_default_is_none_and_names_parse_verbatim(self, command):
        parser = build_parser()
        assert parser.parse_args([command, "somewhere"]).kernel is None
        for name in ("dense", "elkan"):
            args = parser.parse_args([command, "somewhere", "--kernel", name])
            assert args.kernel == name

    def _stand_in(self, seen):
        def record(*args, kernel="missing", **kwargs):
            seen.append(kernel)
            raise self.Reached

        return record

    @pytest.mark.parametrize(
        "flag, want", [([], None), (["--kernel", "dense"], "dense")]
    )
    @pytest.mark.parametrize("command", ["query", "cluster", "serve"])
    def test_each_command_passes_the_kernel_through(
        self, command, flag, want, tmp_path, monkeypatch
    ):
        import repro.cli as cli
        import repro.serve as serve
        from repro.stream.query import Query

        seen: list = []
        stand_in = self._stand_in(seen)
        if command == "query":
            monkeypatch.setattr(
                Query, "with_kernel", lambda self, kernel: stand_in(kernel=kernel)
            )
            argv = ["query", str(tmp_path), "--k", "4", "--chunks", "2"]
        elif command == "cluster":
            bucket = write_bucket_dir(
                tmp_path,
                [GridCell(GridCellId(1, 2), generate_cell_points(200, seed=1))],
            )[0]
            monkeypatch.setattr(cli, "SerialKMeans", stand_in)
            argv = ["cluster", str(bucket), "--k", "4"]
        else:
            monkeypatch.setattr(serve, "ModelRegistry", stand_in)
            argv = ["serve", str(tmp_path), "--k", "4"]
        with pytest.raises(self.Reached):
            main(argv + flag)
        assert seen == [want]
