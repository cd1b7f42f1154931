"""Compare two sets of benchmark runs, metric by metric.

    python3 benchmarks/e2e/compare.py A.jsonl B.jsonl

A set is a file of JSON lines as ``run.py --json FILE`` appends them,
one per run.  For every workload x end-to-end metric this prints both
medians, the ratio B/A with its base, each set's quartile spread as a
share of its median, the bound from ``BENCHMARK.json`` and a verdict:

* ``worse``      B's median is worse than A's by more than the bound;
* ``unresolved`` a set's spread is wider than the bound, so "no worse"
  cannot be told from noise (unless every B run beats every A run);
* ``ok``         otherwise.

Exit status is 1 when any row is ``worse``.  A is the base: compare the
parent commit (A) with a change (B), or two sets of one commit to test
the benchmark's own repeatability.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parents[2]


def load_runs(path: Path) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> values, from the untraced runs of one set."""
    runs: dict[str, dict[str, list[float]]] = {}
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        run = json.loads(line)
        if run.get("trace"):
            continue
        metrics = runs.setdefault(run["workload"], {})
        for name, value in run["metrics"].items():
            metrics.setdefault(name, []).append(float(value))
    return runs


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    first, _, third = quantiles(values, n=4)
    return (third - first) / abs(median(values))


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    base, other = median(a), median(b)
    if better == "lower":
        worse = other > base * (1.0 + bound)
        all_better = max(b) < min(a)
    else:
        worse = other < base * (1.0 - bound)
        all_better = min(b) > max(a)
    if worse:
        return "worse"
    if max(spread(a), spread(b)) > bound and not all_better:
        return "unresolved"
    return "ok"


def compare(a_path: Path, b_path: Path, spec: dict) -> int:
    a_runs, b_runs = load_runs(a_path), load_runs(b_path)
    status = 0
    print(
        f"{'workload':<12} {'metric':<18} {'A median':>12} {'B median':>12} "
        f"{'B/A':>7} {'A spread':>9} {'B spread':>9} {'bound':>6}  verdict"
    )
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = a_runs.get(workload, {}).get(name)
            b = b_runs.get(workload, {}).get(name)
            if not a or not b:
                print(f"{workload:<12} {name:<18} missing from a set")
                status = 1
                continue
            result = verdict(a, b, metric["better"], metric["bound"])
            if result == "worse":
                status = 1
            print(
                f"{workload:<12} {name:<18} {median(a):>12.5g} {median(b):>12.5g} "
                f"{median(b) / median(a):>7.3f} {spread(a):>9.1%} {spread(b):>9.1%} "
                f"{metric['bound']:>6.0%}  {result}  (n={len(a)}/{len(b)}, "
                f"base A={median(a):.5g} {metric['unit']})"
            )
    return status


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return compare(Path(argv[0]), Path(argv[1]), spec)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
