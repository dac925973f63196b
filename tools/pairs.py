"""Alternating benchmark pairs of this checkout against another, with a summary per metric.

    python tools/pairs.py BASE --workload W [--pairs N] [--seed S]
    (or: make pairs BASE=<checkout> W=<workload> N=10 SEED=<s>)

Pair ``i`` runs ``perfbench/run.py --workload W --seed S+i --trace 0``,
for the ``run_seconds`` of ``BENCHMARK.json``, once in this checkout and
once in BASE, each with its own ``perfbench/`` and ``src``, one after the
other and never at once; the side that runs first alternates, this
checkout first in even pairs.  Each
pair is printed as it ends.  Then, for every end-to-end metric that
``BENCHMARK.json`` of this checkout declares, the summary gives each
side's median with its quartiles ``[q1, q3]``, the median of the paired
differences, the per-pair ratios here / BASE, and the number of pairs in
which this checkout is better, by the metric's ``better`` direction (ties
are counted apart), and a verdict by the gain rule for measuring in a small sandbox:

* ``gain``: here is better in at least 9 of 10 pairs, ties counting for
  neither, and both the median of the paired differences and the
  difference of the medians lie on the better side by more than the base
  IQR;
* ``worse``: here's median is worse than base's by more than the metric's
  relative ``bound`` in ``BENCHMARK.json``;
* ``unresolved``: the base IQR is wider than that bound, relative to the
  base median, unless every run here beats every base run;
* ``same``: otherwise.

A run whose result is not ``correct`` is reported and kept.  Nothing under
``perfbench/`` is changed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent


def run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result object (the last line of stdout) of one benchmark run in ``checkout``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{' '.join(cmd)} failed in {checkout} (exit {done.returncode}):\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``, by inclusive ``statistics.quantiles``; one value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(h: list[float], b: list[float], lower: bool, bound: float) -> str:
    """``gain``, ``worse``, ``unresolved`` or ``same`` for paired values ``h`` (here) and ``b`` (base); see above."""
    def better_by(x: float, y: float) -> float:
        return y - x if lower else x - y

    (b1, bm, b3), hm = quartiles(b), statistics.median(h)
    iqr = b3 - b1
    wins = sum(better_by(x, y) > 0 for x, y in zip(h, b))
    if 10 * wins >= 9 * len(h) and min(statistics.median(map(better_by, h, b)), better_by(hm, bm)) > iqr:
        return "gain"
    if better_by(hm, bm) < -bound * abs(bm):
        return "worse"
    if iqr > bound * abs(bm) and not all(better_by(x, y) > 0 for x in h for y in b):
        return "unresolved"
    return "same"


def summary(metrics: list[dict], here: list[dict], base: list[dict]) -> list[str]:
    """One line per end-to-end metric over the paired results."""
    lines = []
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        h = [r["metrics"][name]["value"] for r in here]
        b = [r["metrics"][name]["value"] for r in base]
        hq, bq = quartiles(h), quartiles(b)
        better = sum((x < y) if lower else (x > y) for x, y in zip(h, b))
        ties = sum(x == y for x, y in zip(h, b))
        ratios = " ".join(f"{x / y:.3f}" if y else "-" for x, y in zip(h, b))
        gap = statistics.median(x - y for x, y in zip(h, b))
        lines.append(
            f"{name} ({metric['unit']}, {metric['better']} is better): "
            f"base {bq[1]:.4g} [{bq[0]:.4g}, {bq[2]:.4g}] -> here {hq[1]:.4g} [{hq[0]:.4g}, {hq[2]:.4g}]; "
            f"median gap {gap:+.4g}, base IQR {bq[2] - bq[0]:.4g}; "
            f"here better in {better}/{len(h)} pairs, {ties} tied; ratios {ratios}; "
            f"verdict {verdict(h, b, lower, metric['bound'])}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="the other checkout, with its own perfbench/ and src/")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=101, help="seed of the first pair; pair i uses seed + i")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    base = args.base.resolve()
    if not (base / "perfbench" / "run.py").is_file():
        parser.error(f"{base} has no perfbench/run.py")
    benchmark = json.loads((HERE / "BENCHMARK.json").read_text())
    metrics, seconds = benchmark["end_to_end"], benchmark["run_seconds"]

    here_runs, base_runs = [], []
    for i in range(args.pairs):
        seed = args.seed + i
        sides = [("here", HERE), ("base", base)]
        if i % 2:
            sides.reverse()
        results = {side: run(checkout, args.workload, seed, seconds) for side, checkout in sides}
        here_runs.append(results["here"])
        base_runs.append(results["base"])
        cells = []
        for side, _ in sides:
            r = results[side]
            values = " ".join(f"{m['name']}={r['metrics'][m['name']]['value']:.4g}" for m in metrics)
            flag = "" if r["correct"] else " INCORRECT"
            cells.append(f"{side}: {values} failed={r['failed']}/{r['attempted']}{flag}")
        print(f"pair {i + 1} seed {seed} ({sides[0][0]} first) | " + " | ".join(cells), flush=True)

    print(f"{args.workload}, {args.pairs} pairs, seeds {args.seed}-{args.seed + args.pairs - 1}, "
          f"{seconds:g} s runs; here = {HERE}, base = {base}")
    for line in summary(metrics, here_runs, base_runs):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
