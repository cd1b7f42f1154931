"""Benchmark: the Lloyd kernels (dense / elkan / blas) across (n, k, d).

One fixed-seed Lloyd run per kernel per configuration, from identical
seeds, on the same synthetic MISR-style mixture the paper's experiments
use.  Walls are the min over a few runs per kernel (single-CPU containers
jitter ~10%; the min damps it without hiding a real regression).  These
things are checked and recorded into ``BENCH_kernel.json``:

* **bit identity** — ``elkan``'s centroids/assignments/SSE/iterations
  must match the dense reference exactly (the determinism contract the
  engine's resume and cross-backend guarantees rest on);
* **tolerance** — ``blas`` must land within
  :func:`repro.core.kernels.blas_mse_tolerance` of the dense MSE on
  every row;
* **counter-verified work reduction** — on the flagship n=50k, k=40 row
  ``elkan`` must *compute strictly fewer distance evaluations* than
  dense with exact ``computed + skipped == dense`` accounting (wall time
  can lie, counters cannot);
* **work-reduction speed-up** — at the flagship config ``elkan`` must be
  >= 3x and ``blas`` >= 5x the *serial* dense reference (``dense`` with
  a helper budget of 0): those gates measure skipped work, not cores;
* **parallel dense** — at the flagship config ``dense`` on every usable
  CPU must be >= 1.25x serial dense, gated only where there are >= 2
  CPUs to use.

The rows at k=40, d=6, ``max_iter=25`` are the shapes the pipeline's
partitions actually issue (250 to 25 000 points per ``lloyd`` call), with
2 000 and 8 000 / 12 000 / 16 000 to pin the crossover; the 75 000 ×
``max_iter=40`` row is the end-to-end benchmark's serial oracle.  Every
row records a ``fastest_exact`` (parallel ``dense`` vs ``elkan``, as the
pipeline runs them) and the ``default_pick``: the kernel ``lloyd`` runs
there when none is named (``elkan`` from ``_BOUNDS_MIN_PAIRS`` n·k pairs
up, read off the k=40 rows).  **Default gate** (when ``meaningful``): on
every k=40 row the default's wall is at most 1.1x the fastest exact
wall.  The 5 000 × 8 × 4 row is recorded but not gated: it has the
pairs of the 1 000 × 40 row, where ``dense`` wins by 1.6x, yet ``elkan``
measured 1.01-1.15x faster on it, which no rule on n·k alone can follow.

Every kernel on every row also records ``peak_traced_mib``: the
``tracemalloc`` peak of one further, untimed ``lloyd`` call (allocations
made during the call; the points themselves are not counted).

The ledger also records ``host_cpus``, the NumPy version and the
detected BLAS implementation, plus the honest ``meaningful`` flag the
other BENCH ledgers carry (speed ratios measured on a loaded or
single-CPU host are reported either way, but flagged).
"""

from __future__ import annotations

import json
import time
import tracemalloc
from pathlib import Path

import numpy as np

from repro.core.kernels import (
    assign_helper_budget,
    blas_mse_tolerance,
    resolve_kernel,
    set_assign_helper_budget,
)
from repro.core.kmeans import lloyd
from repro.data.generator import generate_cell_points

_REPO_ROOT = Path(__file__).resolve().parent.parent

_MAX_ITER = 120
#: Pipeline-shaped rows: the benchmark's iteration cap, and more rounds
#: because millisecond walls jitter more.
_PIPELINE_MAX_ITER = 25
_PIPELINE_ROUNDS = 5
#: Wall measurements per kernel on the big rows; the recorded wall is the
#: min.
_ROUNDS = 2
#: The end-to-end benchmark's serial oracle: a whole 75 000-point cell
#: capped at 40 iterations.
_ORACLE_ROW = (75_000, 40, 6, 40, _ROUNDS)
#: (n, k, d, max_iter, rounds) grid; the last row is the flagship workload
#: the acceptance thresholds apply to (n >= 50k, k >= 40).
_GRID = [
    *(
        (n, 40, 6, _PIPELINE_MAX_ITER, _PIPELINE_ROUNDS)
        for n in (250, 1_000, 2_000, 4_000, 8_000, 12_000, 16_000, 25_000)
    ),
    _ORACLE_ROW,
    (5_000, 8, 4, _MAX_ITER, _ROUNDS),
    (20_000, 40, 6, _MAX_ITER, _ROUNDS),
    (50_000, 40, 6, _MAX_ITER, _ROUNDS),
]
_FLAGSHIP = _GRID[-1]
#: ``dense_serial`` is ``dense`` with the helper budget at 0: the
#: reference every ``speedup_vs_dense`` is taken against.
_KERNELS = ("dense_serial", "dense", "elkan", "blas")
_EXACT_KERNELS = ("dense", "elkan")
_REFERENCE = "dense_serial"
#: On the k of the rows the rule is read from, the default may cost at
#: most this much over the fastest exact kernel.
_DEFAULT_SLACK = 1.1
_RULE_K = 40


def _blas_backend() -> str:
    """Best-effort detection of the BLAS implementation NumPy links."""
    try:  # threadpoolctl gives the authoritative answer when present
        from threadpoolctl import threadpool_info

        names = {
            info.get("internal_api", "")
            for info in threadpool_info()
            if info.get("user_api") == "blas"
        }
        if names:
            return ",".join(sorted(names))
    except ImportError:
        pass
    try:
        config = np.show_config(mode="dicts")
        blas = config.get("Build Dependencies", {}).get("blas", {})
        name = blas.get("name", "")
        if name:
            return str(name)
    except (TypeError, AttributeError):  # older numpy: mode kwarg missing
        pass
    return "unknown"


def _run_one(points, seeds, kernel, max_iter, rounds):
    """Best wall of ``rounds`` runs, then one untimed run's traced peak."""
    budget = assign_helper_budget()
    if kernel == _REFERENCE:
        kernel = "dense"
        set_assign_helper_budget(0)
    best_wall = float("inf")
    result = None
    try:
        for _ in range(rounds):
            started = time.perf_counter()
            result = lloyd(points, seeds, max_iter=max_iter, kernel=kernel)
            best_wall = min(best_wall, time.perf_counter() - started)
        tracemalloc.start()
        try:
            lloyd(points, seeds, max_iter=max_iter, kernel=kernel)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    finally:
        set_assign_helper_budget(budget)
    return result, best_wall, peak / 2**20


def test_bench_kernel(benchmark):
    """Compare kernels across the grid; write BENCH_kernel.json."""
    rows = []
    flagship_row = None
    for config in _GRID:
        n, k, d, max_iter, rounds = config
        points = generate_cell_points(n, seed=29, dim=d)
        seed_rng = np.random.default_rng(41)
        seeds = points[seed_rng.choice(n, size=k, replace=False)]

        results = {}
        walls = {}
        peaks = {}
        for kernel in _KERNELS:
            if kernel == "elkan" and config == _FLAGSHIP:
                # The flagship exact-tier run is the benchmarked measurement.
                result, wall, peak = benchmark.pedantic(
                    lambda: _run_one(points, seeds, "elkan", max_iter, rounds),
                    rounds=1,
                    iterations=1,
                )
            else:
                result, wall, peak = _run_one(
                    points, seeds, kernel, max_iter, rounds
                )
            results[kernel] = result
            walls[kernel] = wall
            peaks[kernel] = peak

        dense = results[_REFERENCE]
        for exact in _EXACT_KERNELS:
            alt = results[exact]
            assert alt.assignments.tobytes() == dense.assignments.tobytes(), config
            assert alt.centroids.tobytes() == dense.centroids.tobytes(), config
            assert alt.sse == dense.sse, config
            assert alt.iterations == dense.iterations, config

        # The blas tier waives bit-identity; its MSE must stay within the
        # documented tolerance of the dense reference.
        blas = results["blas"]
        blas_tol = blas_mse_tolerance(points, dense.mse)
        blas_mse_error = abs(blas.mse - dense.mse)
        assert blas_mse_error <= blas_tol, (n, k, d, blas.mse, dense.mse)

        fastest = min(_EXACT_KERNELS, key=walls.__getitem__)
        default_pick = resolve_kernel(None, pairs=n * k).name

        row = {
            "n": n,
            "k": k,
            "d": d,
            "max_iter": max_iter,
            "rounds_per_wall": rounds,
            "iterations": dense.iterations,
            "converged": dense.converged,
            "exact_bit_identical": True,
            "blas_mse_error": blas_mse_error,
            "blas_mse_tolerance": blas_tol,
            "fastest_exact": fastest,
            "default_pick": default_pick,
            "default_over_fastest": walls[default_pick] / walls[fastest],
            "kernels": {
                kernel: {
                    "exact": kernel != "blas",
                    "wall_seconds": walls[kernel],
                    "speedup_vs_dense": (
                        walls[_REFERENCE] / walls[kernel]
                        if walls[kernel] > 0
                        else float("inf")
                    ),
                    "peak_traced_mib": peaks[kernel],
                    "counters": results[kernel].counters.as_dict(),
                }
                for kernel in _KERNELS
            },
        }
        rows.append(row)
        if config == _FLAGSHIP:
            flagship_row = row

        print()
        print(
            f"(n={n}, k={k}, d={d}, max_iter={max_iter}, "
            f"iters={dense.iterations}): "
            + "  ".join(
                f"{kernel} {walls[kernel]:.3f}s"
                f" ({walls[_REFERENCE] / max(walls[kernel], 1e-12):.2f}x)"
                for kernel in _KERNELS
            )
            + f"  default={default_pick}"
        )

    assert flagship_row is not None
    kernels = flagship_row["kernels"]
    dense = kernels[_REFERENCE]
    # The CPUs this process may use (its affinity mask), which is what the
    # dense kernel's helper budget is derived from.
    host_cpus = assign_helper_budget() + 1
    meaningful = host_cpus >= 2
    payload = {
        "host_cpus": host_cpus,
        "numpy_version": np.__version__,
        "blas_backend": _blas_backend(),
        # Ratio gates survive a slow host (both sides slow down together),
        # but a multi-tenant or hyper-threaded-only host can still skew
        # them; flag single-core hosts honestly like the other ledgers.
        "meaningful": meaningful,
        "speedup_reference": "dense_serial: dense with a helper budget of 0",
        "flagship": {"n": _FLAGSHIP[0], "k": _FLAGSHIP[1], "d": _FLAGSHIP[2]},
        "flagship_elkan_speedup": kernels["elkan"]["speedup_vs_dense"],
        "flagship_blas_speedup": kernels["blas"]["speedup_vs_dense"],
        "dense_parallel_speedup": kernels["dense"]["speedup_vs_dense"],
        "rows": rows,
    }
    (_REPO_ROOT / "BENCH_kernel.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    # Counter-verified, not just wall time: elkan must do strictly less
    # distance work than the dense reference, with exact
    # computed + skipped == dense accounting.
    counters = kernels["elkan"]["counters"]
    assert (
        counters["distance_evals_computed"]
        < dense["counters"]["distance_evals_computed"]
    )
    assert counters["distance_evals_skipped"] > 0
    assert (
        counters["distance_evals_computed"]
        + counters["distance_evals_skipped"]
        == dense["counters"]["distance_evals_computed"]
    )
    # The elkan group bounds and the blas GEMM counters must be live.
    assert counters["bound_groups"] > 0
    assert kernels["blas"]["counters"]["gemm_calls"] > 0
    # The acceptance gates (flagship row only): elkan >= 3x and blas >= 5x
    # serial dense; dense on every usable CPU >= 1.25x serial dense.
    assert kernels["elkan"]["speedup_vs_dense"] >= 3.0
    assert kernels["blas"]["speedup_vs_dense"] >= 5.0
    if meaningful:
        assert kernels["dense"]["speedup_vs_dense"] >= 1.25
        # The size rule: whichever exact kernel the default picks is
        # within the slack of the faster one, on every k=40 row.
        slow = [
            (row["n"], row["default_pick"], row["default_over_fastest"])
            for row in rows
            if row["k"] == _RULE_K
            and row["default_over_fastest"] > _DEFAULT_SLACK
        ]
        assert not slow, slow
