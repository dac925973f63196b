"""Count how the lines of two ``make reports probe`` outputs differ, by kind of change.

    python tools/same_counts.py BASE_OUTPUT HERE_OUTPUT          (run by: make same)

Each output holds the six JSON reports of ``make reports``, then the lines
of ``tools/probe.py``.  Reports are paired by position, probe lines by their
instance label and tolerance set.  For every pair that differs the script
takes the corpus (the label's words before its first ``key=value``, or
``report``), the tolerance set, the ``kappa=`` of a scrambled instance, and
the outcome with the refutation kind on each side, then prints one count
per distinct combination, largest first:

    9  adversarial noncommuting | tol eig_cluster_atol=1e-5 | undetermined -> not_evolution/NonCommuting

Where the outcome is the same on both sides, the fields that changed follow
it: for a probe line the refutation, diagnostics, notes and
``lambda0``/``cert`` fields, for a report its top-level JSON keys.

    2  planted | tol eig_cluster_atol=1e-5 | undetermined -> undetermined | diagnostics, notes, lambda0/cert

A line present on one side only counts with ``absent`` on the other.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from typing import Optional


def probe_fields(line: str) -> tuple[str, str, Optional[str], str]:
    """``(key, group, kappa, outcome)`` of a probe line: ``group`` is its corpus and tolerance set, ``outcome``
    joins the verdict and the refutation's class."""
    label, tol, verdict, refutation = (field.strip() for field in line.split(" | ")[:4])
    words = label.split()
    corpus = " ".join(words[: next((i for i, w in enumerate(words) if "=" in w), len(words))])
    kappa = next((w for w in words if w.startswith("kappa=")), None)
    kind = refutation.split("(")[0]
    outcome = verdict if kind == "None" else f"{verdict}/{kind}"
    return f"{label} | {tol}", f"{corpus} | {tol}", kappa, outcome


# the fields of a probe line, in order, as tools/probe.py joins them with " | "
PROBE_FIELDS = ("label", "tol", "verdict", "refutation", "diagnostics", "notes", "lambda0/cert")


def changed_fields(old: str, new: str) -> str:
    """The names of the fields in which two lines of one key differ: a report's top-level JSON keys, else probe fields."""
    if old.startswith("{"):
        before, after = json.loads(old), json.loads(new)
        return ", ".join(key for key in sorted(before.keys() | after.keys()) if before.get(key) != after.get(key))
    return ", ".join(name for name, x, y in zip(PROBE_FIELDS, old.split(" | "), new.split(" | ")) if x != y)


def report_outcome(line: str) -> str:
    report = json.loads(line)
    refutation = report["refutation"]
    return report["verdict"] if refutation is None else f"{report['verdict']}/{refutation['kind']}"


def outcomes(path: str) -> dict[str, tuple[str, Optional[str], str, str]]:
    """Every line of one output by key: ``(group, kappa, outcome, text)``."""
    lines = {}
    reports = 0
    with open(path, encoding="utf-8") as fh:
        for text in fh.read().splitlines():
            if text.startswith("{"):
                reports += 1
                lines[f"report {reports}"] = ("report | tol default", None, report_outcome(text), text)
            else:
                key, group, kappa, outcome = probe_fields(text)
                lines[key] = (group, kappa, outcome, text)
    return lines


def main(base_path: str, here_path: str) -> None:
    base, here = outcomes(base_path), outcomes(here_path)
    counts: Counter = Counter()
    for key in base.keys() | here.keys():
        old, new = base.get(key), here.get(key)
        if old is not None and new is not None and old[3] == new[3]:
            continue
        group, kappa = (old or new)[:2]
        before = "absent" if old is None else old[2]
        after = "absent" if new is None else new[2]
        moved = changed_fields(old[3], new[3]) if before == after else None
        counts[" | ".join(filter(None, (group, kappa, f"{before} -> {after}", moved)))] += 1
    print(f"changed lines: {sum(counts.values())}")
    for change, count in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
        print(f"{count:5d}  {change}")


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: python tools/same_counts.py BASE_OUTPUT HERE_OUTPUT")
    main(sys.argv[1], sys.argv[2])
