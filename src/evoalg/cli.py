"""Command-line surface and machine-readable reports.

Subcommands:

* ``check FILE...``  decide each algebra; exit 0 = evolution, 1 = not,
  2 = undetermined, 3 = usage or input error
* ``basis FILE``     print the transform P, a ``verify --p`` file, or the refutation
* ``ann FILE``       print an annihilator basis
* ``example NAME``   emit a built-in example as an algebra file
* ``random``         emit a planted or adversarial random instance
* ``verify FILE --p MATRIXFILE``  check a candidate natural-basis transform

Wherever a file is expected, ``example://NAME`` denotes a built-in example
(deformed by ``--epsilon``).  ``--json`` switches stdout to a stable report
object; with a fixed ``--seed`` the report is byte-identical across runs
except for the ``runtime_ms`` field.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
import time
from typing import Optional

import numpy as np

from . import algebra, corpus, decision, fileformat
from .decision import COMPLEX_ONLY_UNDETERMINED, EVOLUTION, NOT_EVOLUTION, UNDETERMINED
from .numkernel import DEFAULT_TOL, ToleranceContext
from .pencil import DEFAULT_TRIALS

EXIT_EVOLUTION = 0
EXIT_NOT_EVOLUTION = 1
EXIT_UNDETERMINED = 2
EXIT_USAGE = 3

_OUTCOME_EXIT = {
    EVOLUTION: EXIT_EVOLUTION,
    NOT_EVOLUTION: EXIT_NOT_EVOLUTION,
    COMPLEX_ONLY_UNDETERMINED: EXIT_UNDETERMINED,
    UNDETERMINED: EXIT_UNDETERMINED,
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep exit codes under our control
        raise UsageError(message)


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than ``low``."""

    def parse(raw: str) -> int:
        value = int(raw)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in its "invalid int value" message
    return parse


def _pairs(a) -> list:
    """A number, vector or matrix as nested lists with ``[real, imag]`` in place of each entry."""
    return np.stack([np.real(a), np.imag(a)], axis=-1).tolist()


def _json(value):
    """A report value: arrays and complex numbers as ``[re, im]`` pairs, tuples as lists, dataclasses as their fields."""
    if isinstance(value, (np.ndarray, complex)):
        return _pairs(value)
    if isinstance(value, tuple):
        return list(value)
    return {name: _json(v) for name, v in vars(value).items()} if dataclasses.is_dataclass(value) else value


def report_json(verdict: decision.Verdict, runtime_ms: float) -> dict:
    """Stable report object for a verdict; see the README for the schema."""
    c, d, r = verdict.certificate, verdict.diagnostics, verdict.refutation
    return {
        "verdict": verdict.outcome,
        "branch": d.branch,
        "certificate": None if c is None else {
            "natural_basis": _pairs(c.p.T), **{name: _pairs(v) for name, v in vars(c).items()}},
        "refutation": None if r is None else {
            "kind": r.kind, **{r.json_names.get(name, name): _json(v) for name, v in vars(r).items()}},
        "diagnostics": {**{name: _json(v) for name, v in vars(d).items() if name != "branch"}, "runtime_ms": runtime_ms},
    }


def _read_text(path: str) -> str:
    """The text of a UTF-8 file; a file that does not decode is an input error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: not UTF-8 text ({exc})") from None


def _load_spec(source: str, epsilon: Optional[float]) -> algebra.AlgebraSpec:
    if source.startswith("example://"):
        return corpus.example_algebra(source[len("example://"):], epsilon)
    return fileformat.parse(_read_text(source))


def _tolerances(values: Optional[list[str]]) -> ToleranceContext:
    if not values:
        return DEFAULT_TOL
    fields = {f.name for f in dataclasses.fields(ToleranceContext)}
    overrides = {}
    try:  # a value that is no float, or one the context rejects, is a usage error
        for item in values:
            if "=" in item:
                name, _, raw = item.partition("=")
                if name not in fields:
                    raise UsageError(f"unknown tolerance {name!r}; choose from {', '.join(sorted(fields))}")
                overrides[name] = float(raw)
            else:
                value = float(item)
                overrides = {name: value for name in fields}
        return dataclasses.replace(DEFAULT_TOL, **overrides)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _common_flags(p: argparse.ArgumentParser):
    p.add_argument("--tol", action="append", metavar="VALUE|NAME=VALUE",
                   help="override tolerances: a bare value sets all four, name=value sets one; repeatable")
    p.add_argument("--json", action="store_true", help="emit a JSON report on stdout")
    p.add_argument("--epsilon", type=float, default=None, help="deformation parameter for example:// sources")


def _decision_flags(p: argparse.ArgumentParser):
    """The common flags and those of the pencil search, for the commands that decide."""
    _common_flags(p)
    p.add_argument("--trials", type=_int_at_least(1), default=DEFAULT_TRIALS,
                   help="random pencil trials (default %(default)s)")
    p.add_argument("--seed", type=_int_at_least(0), default=0, help="seed of the pencil search (default %(default)s)")


@functools.cache  # a parser is reusable: each parse starts from fresh defaults
def _build_parser() -> _Parser:
    parser = _Parser(prog="evoalg", description="Decide whether a commutative algebra is an evolution algebra.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="decide one or more algebras")
    p_check.add_argument("files", nargs="+", metavar="FILE")
    _decision_flags(p_check)

    p_basis = sub.add_parser("basis", help="print a natural basis or the refutation")
    p_basis.add_argument("file", metavar="FILE")
    _decision_flags(p_basis)

    p_ann = sub.add_parser("ann", help="print an annihilator basis")
    p_ann.add_argument("file", metavar="FILE")
    _common_flags(p_ann)

    p_example = sub.add_parser("example", help="emit a built-in example as an algebra file")
    p_example.add_argument("name", choices=corpus.EXAMPLE_NAMES)
    p_example.add_argument("--epsilon", type=float, default=None)

    p_random = sub.add_parser("random", help="emit a random instance as an algebra file")
    p_random.add_argument("--dim", type=_int_at_least(1), required=True)
    p_random.add_argument("--seed", type=_int_at_least(0), default=0)
    p_random.add_argument("--density", type=float, default=0.7)
    p_random.add_argument("--adversarial", choices=corpus.ADVERSARIAL_KINDS, default=None)

    p_verify = sub.add_parser("verify", help="check a candidate natural-basis transform")
    p_verify.add_argument("file", metavar="FILE")
    p_verify.add_argument("--p", required=True, metavar="MATRIXFILE", dest="p_file")
    _common_flags(p_verify)

    return parser


def _decide(source: str, args) -> decision.Verdict:
    """Decide one source; with ``--json``, its report is printed here."""
    spec = _load_spec(source, args.epsilon)
    tol = _tolerances(args.tol)
    t0 = time.perf_counter()
    verdict = decision.is_evolution_algebra(spec, tol, args.trials, args.seed)
    if args.json:
        print(json.dumps(report_json(verdict, (time.perf_counter() - t0) * 1000.0), sort_keys=True))
    return verdict


def _cmd_check(args) -> int:
    code = EXIT_EVOLUTION
    for source in args.files:
        verdict = _decide(source, args)
        if not args.json:
            if len(args.files) > 1:
                print(f"== {source}")
            print(decision.explain(verdict))
        code = max(code, _OUTCOME_EXIT[verdict.outcome])
    return code


def _cmd_basis(args) -> int:
    verdict = _decide(args.file, args)
    if not args.json:
        if verdict.certificate is not None:
            sys.stdout.write(fileformat.format_matrix(verdict.certificate.p))  # the rows of P, as verify --p reads them
        else:
            print(decision.explain(verdict))
    return _OUTCOME_EXIT[verdict.outcome]


def _cmd_ann(args) -> int:
    spec = _load_spec(args.file, args.epsilon)
    tol = _tolerances(args.tol)
    basis = algebra.annihilator_basis(spec, tol)
    if args.json:
        print(json.dumps({"ann_dim": basis.shape[1], "basis": _pairs(basis.T)}, sort_keys=True))
    else:
        if basis.shape[1] == 0:
            print("annihilator is zero")
        for i in range(basis.shape[1]):
            print(" ".join(fileformat.format_scalar(x) for x in basis[:, i]))
    return 0


def _cmd_example(args) -> int:
    spec = corpus.example_algebra(args.name, args.epsilon)
    sys.stdout.write(fileformat.serialise(spec))
    return 0


def _cmd_random(args) -> int:
    try:
        if args.adversarial is not None:
            spec = corpus.adversarial_instance(args.adversarial, args.dim, args.seed)
        else:
            spec, _ = corpus.planted_evolution_algebra(args.dim, args.density, args.seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    sys.stdout.write(fileformat.serialise(spec))
    return 0


def _cmd_verify(args) -> int:
    spec = _load_spec(args.file, args.epsilon)
    tol = _tolerances(args.tol)
    p = fileformat.parse_matrix(_read_text(args.p_file))
    t0 = time.perf_counter()
    check = decision.check_certificate(spec, p, tol)
    ms = (time.perf_counter() - t0) * 1000.0
    if args.json:
        print(json.dumps({**dataclasses.asdict(check), "runtime_ms": ms}, sort_keys=True))
    elif check.ok:
        print(f"certificate accepted (worst off-diagonal product residual {check.residual:.3e})")
    elif check.reason is not None:
        print(f"certificate rejected: {check.reason}")
    else:
        i, j = check.offending_pair
        print(f"certificate rejected: product of basis vectors {i} and {j} has residual {check.residual:.3e}")
    return EXIT_EVOLUTION if check.ok else EXIT_NOT_EVOLUTION


_COMMANDS = {
    "check": _cmd_check,
    "basis": _cmd_basis,
    "ann": _cmd_ann,
    "example": _cmd_example,
    "random": _cmd_random,
    "verify": _cmd_verify,
}


def run(argv=None) -> int:
    """Dispatch a command line; returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (UsageError, fileformat.ParseError, algebra.MalformedSpec, corpus.OutOfRangeEpsilon, KeyError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(run())
