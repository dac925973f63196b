"""Print one sorted line per item of the benchmark's pools, for comparing two checkouts.

    python tools/pools.py CHECKOUT          (run on two checkouts by: make pools BASE=<checkout>)

It loads ``perfbench/run.py`` of CHECKOUT, whose ``Program`` imports
``evoalg`` from CHECKOUT's ``src``.  For every workload and every seed in
101–140 it builds the warm-up items and the pool with that file's workload
builder, and processes each item once as the timed loop does
(``Workload.run``, then ``finish`` and ``judge``).  Each line names the
workload, the seed, the item's place (warm-up or pool, and its index) and
its kind, then the outcome, the refutation kind, whether the certificate
was accepted (``None`` where the workload checks none), and the judgement:
``ok``, ``failure: ...`` (it lowers ``ok_ratio``) or ``incorrect: ...``
(it fails the benchmark's correctness check).  Lines contain no timing, so
the output of two checkouts compares with a plain diff.  Nothing under
``perfbench/`` is changed.  Takes about a minute per checkout.
"""

from __future__ import annotations

import importlib.util
import os
import sys
import tempfile
from pathlib import Path

for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

SEEDS = range(101, 141)


def load_benchmark(checkout: Path):
    """The module ``perfbench/run.py`` of ``checkout``."""
    spec = importlib.util.spec_from_file_location("perfbench_run", checkout / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def judgement(r) -> str:
    if r.incorrect is not None:
        return f"incorrect: {r.incorrect}"
    return "ok" if r.failure is None else f"failure: {r.failure}"


def main(argv: list[str]) -> None:
    if len(argv) != 1:
        raise SystemExit("usage: python tools/pools.py CHECKOUT")
    bench = load_benchmark(Path(argv[0]).resolve())
    prog = bench.Program()
    lines = []
    for name, workload in bench.WORKLOADS.items():
        for seed in SEEDS:
            with tempfile.TemporaryDirectory() as workdir:
                warmup, pool = workload.build(prog, seed, Path(workdir))
                for place, items in (("warmup", warmup), ("pool", pool)):
                    for i, item in enumerate(items):
                        r = workload.run(prog, item)
                        workload.finish(prog, r)
                        bench.judge(r)
                        lines.append(f"{name} | seed={seed} | {place} {i:02d} {item.kind} | {r.outcome} | "
                                     f"{r.refutation} | certificate_ok={r.certificate_ok} | {judgement(r)}")
    print("\n".join(sorted(lines)))


if __name__ == "__main__":
    main(sys.argv[1:])
