"""Outside-in benchmark for evoalg.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (one closed-loop caller in one process; inputs come from the seed
and are all generated before timing starts):

* ``planted-n32``: planted evolution algebras at n = 32; each item is
  ``decision.is_evolution_algebra`` followed by ``decision.check_certificate``
  on the returned certificate.
* ``refute-n24``: scrambled adversarial instances at n = 24, kinds
  defective : noncommuting : ann_mismatch in the ratio 3 : 3 : 4; decided only.
* ``cli-small``: algebra files with n = 2..8 (the acceptance fixtures plus
  planted and adversarial instances), each item one in-process
  ``cli.run(["check", "--json", FILE])``.

With ``--trace 0`` the run cycles through the pool of instances for
``--seconds`` and prints the end-to-end metrics.  Each instance runs several
times; its cost is the median of its runs, and the percentiles are taken
over instances.  Timings are scaled to a fixed machine speed with the
reference computation of :class:`Gauge`, timed between items (see there);
the unscaled figures are in the detail line.  With ``--trace 1`` it runs a fixed number of
items twice, untraced and then traced (so that counts repeat exactly for a
seed), and prints the per-layer metrics.  Every output is checked against
the ground truth of its instance.  The last line of stdout is the result
object; the line before it holds details such as sample counts.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import itertools
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Optional

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
OUT = REPO / ".perfbench_out"
FIXTURES = REPO / "tests" / "data" / "acceptance_cases.json"

sys.path.insert(0, str(HERE))
from tracer import ROOT, Tracer  # noqa: E402

LAYERS = ("cli", "fileformat", "decision", "algebra", "pencil", "sds", "sdc", "numkernel")
LAPACK = ("svd", "eigvals", "eig", "inv", "qr")
SETUP_REPEATS = 3
GAUGE_INTERVAL_S = 0.2
# wall time of one Gauge reference on the quiet machine the benchmark was
# built on (2 vCPU Intel Xeon at 2.0 GHz, Python 3.11, OpenBLAS at 1 thread)
REFERENCE_S = 0.007

EVOLUTION = "evolution"
NOT_EVOLUTION = "not_evolution"
# refutation kinds in the naming of the JSON report
ADVERSARIAL_REFUTATION = {
    "defective": "non_diagonalisable",
    "noncommuting": "non_commuting",
    "ann_mismatch": "kernel_dimension_mismatch",
}
REFUTATION_CLASS = {
    "NonDiagonalisable": "non_diagonalisable",
    "NonCommuting": "non_commuting",
    "KernelDimensionMismatch": "kernel_dimension_mismatch",
    "NoFullRankPencil": "no_full_rank_pencil",
}
EXIT_CODE = {EVOLUTION: 0, NOT_EVOLUTION: 1, "undetermined": 2, "complex_only_undetermined": 2}


@dataclass
class Item:
    kind: str  # planted, defective, noncommuting, ann_mismatch or fixture
    spec: object
    expected: str  # ground-truth verdict
    refutation: Optional[str] = None  # expected refutation kind; None accepts any
    path: Optional[str] = None  # algebra file, for the CLI workload


@dataclass
class Result:
    item: Item
    item_s: float = 0.0  # wall time of the whole timed region of the item
    decide_s: Optional[float] = None  # None when the call raised
    verify_s: Optional[float] = None
    outcome: Optional[str] = None
    refutation: Optional[str] = None
    certificate_ok: Optional[bool] = None
    trials_used: Optional[int] = None
    error: Optional[str] = None
    failure: Optional[str] = None  # failed operation: counts in the failure ratio
    incorrect: Optional[str] = None  # wrong output: fails the correctness check
    raw: object = None  # CLI stdout and exit code, judged after timing
    scale: float = 1.0  # machine-speed factor from the Gauge for the decision
    verify_scale: float = 1.0  # the same for the certificate check
    gauge_before: int = 0  # Gauge samples taken just before the decision and the check
    gauge_between: int = 0


def _seeds(workload: str, seed: int, count: int) -> list[int]:
    rng = random.Random(f"{workload}:{seed}")
    return [rng.randrange(2**31) for _ in range(count)]


class Program:
    """The modules under test, imported from ``src`` of this checkout."""

    def __init__(self):
        # never fall back to an installed copy: the checkout's sources are measured
        if not (REPO / "src" / "evoalg" / "__init__.py").is_file():
            raise SystemExit(f"error: no evoalg sources under {REPO / 'src'}")
        sys.path.insert(0, str(REPO / "src"))
        self.numpy = importlib.import_module("numpy")
        self.load()

    def load(self) -> None:
        """Import ``evoalg`` afresh, so that every set-up pays for the import."""
        for name in [name for name in sys.modules if name == "evoalg" or name.startswith("evoalg.")]:
            del sys.modules[name]
        self.package = importlib.import_module("evoalg")
        self.modules = {name: importlib.import_module(f"evoalg.{name}") for name in LAYERS}
        self.corpus = importlib.import_module("evoalg.corpus")
        self.algebra = self.modules["algebra"]
        self.decision = self.modules["decision"]
        self.cli = self.modules["cli"]
        self.fileformat = self.modules["fileformat"]

    def verdict_fields(self, verdict):
        kind = None if verdict.refutation is None else REFUTATION_CLASS.get(type(verdict.refutation).__name__, "unknown")
        trials = None if verdict.diagnostics is None else verdict.diagnostics.trials_used
        return verdict.outcome, kind, trials


class Workload:
    name = ""
    verifies = False
    trace_items = 1  # items per traced run, cycling through the pool

    def build(self, prog: Program, seed: int, workdir: Path) -> tuple[list[Item], list[Item]]:
        """Return ``(warmup, pool)``; the timed loop cycles through the pool."""
        raise NotImplementedError

    def run(self, prog: Program, item: Item, span=contextlib.nullcontext, pause=None) -> Result:
        """Process one item inside ``span``, timing only calls into the program.

        ``pause()``, if given, runs between the decision and the certificate
        check, outside both timed calls; it returns a Gauge sample index.
        """
        decision = prog.decision
        r = Result(item)
        with span():
            t0 = perf_counter()
            try:
                verdict = decision.is_evolution_algebra(item.spec)
                r.decide_s = perf_counter() - t0
                if self.verifies and verdict.certificate is not None:
                    paused = 0.0
                    if pause is not None:
                        t1 = perf_counter()
                        r.gauge_between = pause()
                        paused = perf_counter() - t1
                    t1 = perf_counter()
                    check = decision.check_certificate(item.spec, verdict.certificate.p)
                    r.verify_s = perf_counter() - t1
                    t0 += paused
                    r.certificate_ok = bool(check.ok)
            except Exception as exc:  # a crash is a failed operation, reported below
                r.error = f"{type(exc).__name__}: {exc}"
                verdict = None
            r.item_s = perf_counter() - t0
        if verdict is not None:
            r.outcome, r.refutation, r.trials_used = prog.verdict_fields(verdict)
        return r

    def finish(self, prog: Program, r: Result) -> None:
        """Work left out of the timed region: decoding outputs."""


class PlantedN32(Workload):
    name = "planted-n32"
    verifies = True
    trace_items = 2
    pool_size = 6  # an item takes 3 to 6 s, so each instance runs once or twice in 35 s

    def build(self, prog, seed, workdir):
        planted = prog.corpus.planted_evolution_algebra
        seeds = _seeds(self.name, seed, self.pool_size + 1)
        warmup = [Item("planted", planted(8, seed=seeds[0])[0], EVOLUTION)]
        pool = [Item("planted", planted(32, seed=s)[0], EVOLUTION) for s in seeds[1:]]
        return warmup, pool


class RefuteN24(Workload):
    name = "refute-n24"
    trace_items = 40
    # 3 : 3 : 4, so that no sum of kind shares lies near the 50 % or 90 % mark
    pattern = ("defective", "noncommuting", "ann_mismatch") * 3 + ("ann_mismatch",)
    blocks = 4  # 40 instances, so that each runs 3 to 6 times in 35 s

    def build(self, prog, seed, workdir):
        adversarial = prog.corpus.adversarial_instance
        kinds = self.pattern * self.blocks
        pool = [
            Item(kind, adversarial(kind, 24, seed=s), NOT_EVOLUTION, ADVERSARIAL_REFUTATION[kind])
            for kind, s in zip(kinds, _seeds(self.name, seed, len(kinds)))
        ]
        return pool[:3], pool


class CliSmall(Workload):
    name = "cli-small"
    trace_items = 204  # four passes over the 51 files
    # files per source, fixture : adversarial : planted = 15 : 18 : 18, so that
    # no sum of source shares lies within 0.1 of the 50 % or 90 % mark
    planted_per_dim = 3
    dims = range(3, 9)

    def build(self, prog, seed, workdir):
        corpus = prog.corpus
        items = []
        for case in json.loads(FIXTURES.read_text(encoding="utf-8"))["cases"]:
            fixture = case["fixture"]
            if fixture["name"] is None:
                spec = prog.algebra.validate(prog.algebra.AlgebraSpec(fixture["dim"], "real", {}))
            else:
                spec = corpus.example_algebra(fixture["name"], fixture.get("epsilon"))
            expected_refutation = case.get("expected_refutation", {}).get("kind")
            items.append(Item("fixture", spec, case["expected_verdict"], expected_refutation))
        seeds = iter(_seeds(self.name, seed, len(self.dims) * (self.planted_per_dim + len(ADVERSARIAL_REFUTATION))))
        for n in self.dims:
            for _ in range(self.planted_per_dim):
                items.append(Item("planted", corpus.planted_evolution_algebra(n, seed=next(seeds))[0], EVOLUTION))
            for kind, refutation in ADVERSARIAL_REFUTATION.items():
                items.append(Item(kind, corpus.adversarial_instance(kind, n, seed=next(seeds)), NOT_EVOLUTION, refutation))
        for i, item in enumerate(items):
            item.path = str(workdir / f"item{i:03d}.alg")
            with open(item.path, "w", encoding="utf-8") as fh:
                fh.write(prog.fileformat.serialise(item.spec))
        return items[:5], items

    def run(self, prog, item, span=contextlib.nullcontext, pause=None):
        r = Result(item)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span():
            t0 = perf_counter()
            try:
                code = prog.cli.run(["check", "--json", item.path])
                r.decide_s = perf_counter() - t0
            except Exception as exc:  # a crash is a failed operation, reported below
                r.error = f"{type(exc).__name__}: {exc}"
                code = None
            r.item_s = perf_counter() - t0
        r.raw = (code, out.getvalue(), err.getvalue())
        return r

    def __init__(self):
        self.checked = {}  # (file, certificate bytes) -> check_certificate result

    def finish(self, prog, r):
        if r.error is not None:
            return
        code, stdout, stderr = r.raw
        r.raw = None
        try:
            report = json.loads(stdout)
        except ValueError:
            r.error = f"exit code {code}, no JSON report: {stderr.strip()[:200]}"
            return
        r.outcome = report["verdict"]
        r.refutation = None if report["refutation"] is None else report["refutation"]["kind"]
        r.trials_used = report["diagnostics"]["trials_used"]
        if code != EXIT_CODE.get(r.outcome):
            r.error = f"exit code {code} for verdict {r.outcome}"
            return
        if report["certificate"] is not None:
            np = prog.numpy
            pairs = np.asarray(report["certificate"]["p"], dtype=float)
            p = pairs[..., 0] + 1j * pairs[..., 1]
            if not np.any(p.imag):
                p = p.real
            # a repeated call returns the same certificate; check each distinct one once
            key = (r.item.path, p.tobytes())
            if key not in self.checked:
                self.checked[key] = bool(prog.decision.check_certificate(r.item.spec, p).ok)
            r.certificate_ok = self.checked[key]


WORKLOADS = {w.name: w for w in (PlantedN32(), RefuteN24(), CliSmall())}


class Gauge:
    """Gauges the speed of the machine with a fixed reference computation.

    The shared machine this benchmark was built on runs all code up to twice
    as slow for stretches of seconds to minutes, often for a whole run.  The
    reference mixes interpreted Python on a dict of index triples with small
    SVDs, as the program does.  Timed between items, at most every
    ``GAUGE_INTERVAL_S``, it gives each item the factor ``REFERENCE_S`` over
    the mean of the reference times just before and just after the item:
    scaled by it, times read as milliseconds at the quiet machine's speed.
    The reference does not call ``evoalg``, so a change to the program moves
    the scaled times exactly as it moves the wall times.
    """

    def __init__(self, np):
        rng = np.random.default_rng(0)
        self.svd = np.linalg.svd
        self.mats = [rng.standard_normal((24, 24)) for _ in range(24)]
        self.samples: list[float] = []  # reference wall times, in order
        self.last = 0.0
        self._reference()  # warm up

    def _reference(self) -> float:
        table = {}
        for i in range(24):
            for j in range(24):
                for k in range(24):
                    table[(i, j, k)] = (i * j - k) * 0.5
        total = 0.0
        for key, value in table.items():
            if key[0] != key[1]:
                total += value
        for m in self.mats:
            self.svd(m)
        return total

    def measure(self) -> int:
        """Time the reference once; return the index of the sample."""
        t0 = perf_counter()
        self._reference()
        self.last = perf_counter()
        self.samples.append(self.last - t0)
        return len(self.samples) - 1

    def tick(self) -> int:
        """Measure if the last sample is older than the interval; index of the latest sample."""
        if perf_counter() - self.last >= GAUGE_INTERVAL_S:
            return self.measure()
        return len(self.samples) - 1

    def factor(self, before: int) -> float:
        """Scale factor for work done between sample ``before`` and the next one."""
        pair = self.samples[before:before + 2]
        return REFERENCE_S / statistics.fmean(pair)


def judge(r: Result) -> None:
    """Classify a result as correct, a failed operation, or an incorrect output.

    A definite verdict against the ground truth, or a rejected certificate
    for an ``evolution`` verdict, is incorrect.  An undetermined verdict, a
    crash, or a refutation of another kind than the instance was built with
    is a failed operation.
    """
    item = r.item
    if r.outcome in (EVOLUTION, NOT_EVOLUTION) and r.outcome != item.expected:
        r.incorrect = f"verdict {r.outcome}, expected {item.expected}"
    elif r.outcome == EVOLUTION and r.certificate_ok is not True:
        r.incorrect = "certificate of an evolution verdict was rejected"
    elif r.error is not None:
        r.failure = r.error
    elif r.outcome != item.expected:
        r.failure = f"verdict {r.outcome}"
    elif item.refutation is not None and r.refutation != item.refutation:
        r.failure = f"refutation {r.refutation}, expected {item.refutation}"


def _process(prog, workload, items, span=contextlib.nullcontext) -> list[Result]:
    return [workload.run(prog, item, span) for item in items]


def _settle(prog, workload, results) -> None:
    for r in results:
        workload.finish(prog, r)
        judge(r)


def _scaled(r: Result, field: str) -> float:
    """A time of ``r`` scaled by the Gauge factors of the calls it covers."""
    if field == "verify_s":
        return r.verify_s * r.verify_scale
    if field == "item_s" and r.verify_s is not None:
        return (r.item_s - r.verify_s) * r.scale + r.verify_s * r.verify_scale
    return getattr(r, field) * r.scale


def _typical(runs: list[Result], field: str, scaled: bool = True) -> Optional[float]:
    """Median over the runs of one instance of a time, scaled by the Gauge or not."""
    values = [_scaled(r, field) if scaled else getattr(r, field) for r in runs if getattr(r, field) is not None]
    return statistics.median(values) if values else None


def _ms_quantiles(samples: list[float]) -> tuple[float, float]:
    ms = [s * 1000.0 for s in samples]
    if len(ms) == 1:
        return ms[0], ms[0]
    return statistics.median(ms), statistics.quantiles(ms, n=10, method="inclusive")[8]


def _failed(runs: list[Result]) -> bool:
    return any(r.failure is not None for r in runs)


def _by_kind(runs: list[list[Result]]) -> dict:
    out = {}
    for kind in sorted({rs[0].item.kind for rs in runs}):
        group = [rs for rs in runs if rs[0].item.kind == kind]
        decided = [d * 1000.0 for d in (_typical(rs, "decide_s") for rs in group) if d is not None]
        out[kind] = {
            "instances": len(group),
            "failed": sum(_failed(rs) for rs in group),
            "decide_ms_p50": statistics.median(decided) if decided else None,
        }
    return out


def end_to_end(runs: list[list[Result]], setup_s: float) -> tuple[dict, dict]:
    """Metrics over instances; ``runs[i]`` holds every run of pool instance ``i``.

    The cost of an instance is the median of its runs, scaled by the Gauge.
    Percentiles are taken over instances, and ``items_per_s`` is the number
    of instances over the sum of their costs.  An instance failed if any of
    its runs did.
    """
    decided = [d for d in (_typical(rs, "decide_s") for rs in runs) if d is not None]
    verified = [v * 1000.0 for v in (_typical(rs, "verify_s") for rs in runs) if v is not None]
    failed = sum(_failed(rs) for rs in runs)
    p50, p90 = _ms_quantiles(decided)
    raw_p50, raw_p90 = _ms_quantiles([d for d in (_typical(rs, "decide_s", False) for rs in runs) if d is not None])
    metrics = {
        "decide_ms_p50": (p50, "ms"),
        "decide_ms_p90": (p90, "ms"),
        "items_per_s": (len(runs) / sum(_typical(rs, "item_s") for rs in runs), "1/s"),
        "ok_ratio": ((len(runs) - failed) / len(runs), "1"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    repeats = [len(rs) for rs in runs]
    detail = {
        "instances": len(runs),
        "decide_samples": sum(r.decide_s is not None for rs in runs for r in rs),
        "runs_per_instance": [min(repeats), max(repeats)],
        "verify_instances": len(verified),
        "verify_ms_p50": statistics.median(verified) if verified else None,
        "fail_ratio": failed / len(runs),
        "unscaled": {
            "decide_ms_p50": raw_p50,
            "decide_ms_p90": raw_p90,
            "items_per_s": len(runs) / sum(_typical(rs, "item_s", False) for rs in runs),
        },
        "kinds": _by_kind(runs),
    }
    return metrics, detail


class Escalation:
    """Counts ``eigen_structure`` calls that escalated past the first rung."""

    def __init__(self, prog: Program):
        self.prog = prog
        self.count = 0

    def __call__(self, args, kwargs, result):
        np = self.prog.numpy
        tol = args[1] if len(args) > 1 else kwargs.get("tol", self.prog.modules["numkernel"].DEFAULT_TOL)
        first_rung = tol.eig_cluster_atol * max(1.0, float(np.linalg.norm(np.asarray(args[0]))))
        if result.cluster_radius > 1.5 * first_rung:
            self.count += 1


def per_layer(tracer: Tracer, traced: list[Result], untraced_s: float, escalation: Escalation) -> dict:
    k = len(traced)
    stats = tracer.stats

    def calls(qual):
        return stats[qual].calls / k if qual in stats else 0.0

    def inclusive_ms(qual):
        return stats[qual].inclusive_ns / 1e6 / k if qual in stats else 0.0

    def self_ms(qual):
        return stats[qual].self_ns / 1e6 / k if qual in stats else 0.0

    layer_self = tracer.layer_self_ns()
    wall_ns = stats[ROOT].inclusive_ns
    if sum(layer_self.values()) != wall_ns:
        raise RuntimeError("self times do not add up to the traced wall time")
    metrics = {f"{layer}.self_ms": (layer_self.get(layer, 0) / 1e6 / k, "ms") for layer in LAYERS + ("lapack",)}
    eigen = stats.get("numkernel.eigen_structure")
    eigen_calls = eigen.calls if eigen else 0
    escalated = (escalation.count + eigen.raised) / eigen_calls if eigen_calls else 0.0
    metrics.update({
        "algebra.validate.calls": (calls("algebra.validate"), "count"),
        "algebra.validate.self_ms": (self_ms("algebra.validate"), "ms"),
        "algebra.m_structure_matrices.calls": (calls("algebra.m_structure_matrices"), "count"),
        "algebra.m_structure_matrices.self_ms": (self_ms("algebra.m_structure_matrices"), "ms"),
        "algebra.change_basis.ms": (inclusive_ms("algebra.change_basis"), "ms"),
        "algebra.annihilator_basis.calls": (calls("algebra.annihilator_basis"), "count"),
        "algebra.multiply.calls": (calls("algebra.multiply"), "count"),
        "decision.check_certificate.ms": (inclusive_ms("decision.check_certificate"), "ms"),
        "decision.is_evolution_algebra.ms": (inclusive_ms("decision.is_evolution_algebra"), "ms"),
        "sds.are_sds.ms": (inclusive_ms("sds.are_sds"), "ms"),
        "sds.common_eigenbasis.ms": (inclusive_ms("sds.common_eigenbasis"), "ms"),
        "numkernel.eigen_structure.calls": (calls("numkernel.eigen_structure"), "count"),
        "numkernel.eigen_structure.escalated_ratio": (escalated, "1"),
        "numkernel.kernel_basis.calls": (calls("numkernel.kernel_basis"), "count"),
        "numkernel.rank.calls": (calls("numkernel.rank"), "count"),
        "lapack.svd.calls": (calls("lapack.svd"), "count"),
        "lapack.eig.calls": (calls("lapack.eig") + calls("lapack.eigvals"), "count"),
        "lapack.inv.calls": (calls("lapack.inv"), "count"),
        "lapack.qr.calls": (calls("lapack.qr"), "count"),
        "pencil.max_pencil_rank.ms": (inclusive_ms("pencil.max_pencil_rank"), "ms"),
        "pencil.trials_used": (sum(r.trials_used or 0 for r in traced) / k, "count"),
        "sdc.gram_factor.ms": (inclusive_ms("sdc.gram_factor"), "ms"),
        "sdc.verify_congruence.ms": (inclusive_ms("sdc.verify_congruence"), "ms"),
        "cli.report_json.ms": (inclusive_ms("cli.report_json"), "ms"),
        "fileformat.parse.ms": (inclusive_ms("fileformat.parse"), "ms"),
        "trace.wall_ms": (wall_ns / 1e6 / k, "ms"),
        "trace.unattributed_ms": (layer_self.get("bench", 0) / 1e6 / k, "ms"),
        "trace.overhead_ratio": (sum(r.item_s for r in traced) / untraced_s, "1"),
    })
    return metrics


def setup(prog: Program, workload: Workload, seed: int, workdir: Path,
          gauge: Gauge) -> tuple[list[Item], list[Item], float]:
    """Import ``evoalg`` and build the inputs several times.

    Returns the last build and the median scaled time of one import and build.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        warmup = pool = None  # free the previous build, so peak memory holds one
        before = gauge.measure()
        t0 = perf_counter()
        prog.load()
        warmup, pool = workload.build(prog, seed, workdir)
        elapsed = perf_counter() - t0
        gauge.measure()
        times.append(elapsed * gauge.factor(before))
    return warmup, pool, statistics.median(times)


def timed_run(prog, workload, pool, seconds, setup_s, gauge):
    """Closed loop over the pool for ``seconds``; end-to-end metrics.

    Every instance runs at least once.  After the first pass an item is not
    started if the time its last run took would carry the loop past
    ``seconds``.  Each output is judged when its call returns, outside the
    timed region, so memory does not grow with the number of passes.
    Attempted and failed operations count instances, which makes them
    independent of how many passes fit into the run.
    """
    runs = [[] for _ in pool]
    start = perf_counter()
    gauge.measure()
    for i in itertools.count():
        k = i % len(pool)
        if i >= len(pool) and perf_counter() - start + runs[k][-1].item_s > seconds:
            break
        before = gauge.tick()
        r = workload.run(prog, pool[k], pause=gauge.measure)
        r.gauge_before = before
        _settle(prog, workload, [r])
        runs[k].append(r)
    gauge.measure()
    for r in (r for rs in runs for r in rs):
        r.scale = gauge.factor(r.gauge_before)
        if r.verify_s is not None:
            r.verify_scale = gauge.factor(r.gauge_between)
    metrics, detail = end_to_end(runs, setup_s)
    detail["gauge"] = {"samples": len(gauge.samples), "median_ms": statistics.median(gauge.samples) * 1000.0}
    return [r for rs in runs for r in rs], len(runs), sum(_failed(rs) for rs in runs), metrics, detail


def traced_run(prog, workload, pool, seed):
    """The same fixed items untraced, then traced; per-layer metrics."""
    items = [pool[i % len(pool)] for i in range(workload.trace_items)]
    untraced = _process(prog, workload, items)
    tracer = Tracer()
    escalation = Escalation(prog)
    tracer.instrument(
        {layer: prog.modules[layer] for layer in LAYERS},
        namespaces=(prog.package,),
        extra=[("lapack", prog.numpy.linalg, name) for name in LAPACK],
        hooks={"numkernel.eigen_structure": escalation},
    )
    try:
        traced = _process(prog, workload, items, tracer.root)
    finally:
        tracer.uninstrument()
    _settle(prog, workload, untraced + traced)
    metrics = per_layer(tracer, traced, sum(r.item_s for r in untraced), escalation)
    tracer.write(OUT / f"trace-{workload.name}-seed{seed}.json")
    failed = sum(r.failure is not None for r in traced)
    return untraced + traced, len(traced), failed, metrics, {"traced_items": len(traced), "spans": len(tracer.spans)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # one BLAS thread: timings and verdicts must not depend on the thread count
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    prog = Program()
    gauge = Gauge(prog.numpy)

    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="inputs-", dir=OUT))
    try:
        warmup, pool, setup_s = setup(prog, workload, args.seed, workdir, gauge)
        warm = _process(prog, workload, warmup)
        _settle(prog, workload, warm)
        if args.trace:
            checked, attempted, failed, metrics, detail = traced_run(prog, workload, pool, args.seed)
        else:
            checked, attempted, failed, metrics, detail = timed_run(
                prog, workload, pool, args.seconds, setup_s, gauge)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    incorrect = [r for r in warm + checked if r.incorrect is not None]
    failures = [r for r in checked if r.failure is not None]
    for r in incorrect:
        print(f"incorrect output ({r.item.kind}): {r.incorrect}", file=sys.stderr)
    detail.update({
        "workload": workload.name,
        "seed": args.seed,
        "pool": len(pool),
        "warmup": len(warm),
        "incorrect": len(incorrect),
        "failures": sorted({f"{r.item.kind}: {r.failure}" for r in failures})[:10],
    })
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": not incorrect,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
