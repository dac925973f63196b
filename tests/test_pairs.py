import pytest

from pairs import summary, verdict

BASE = [3.90, 4.10, 4.00, 3.95, 4.05, 4.20, 3.85, 4.00, 4.10, 3.90]  # median 4.0, quartiles 3.9125 and 4.0875


@pytest.mark.parametrize(
    "here, lower, bound, expected",
    [
        ([x - 0.4 for x in BASE], True, 0.25, "gain"),  # 10 of 10 pairs, gap 0.4 > IQR
        ([x - 0.4 for x in BASE[:9]] + [BASE[9] + 0.1], True, 0.25, "gain"),  # 9 of 10 still is
        ([x - 0.4 for x in BASE[:8]] + [BASE[8], BASE[9] + 0.1], True, 0.25, "same"),  # 8 of 10 and a tie is not
        ([x - 0.1 for x in BASE], True, 0.25, "same"),  # every pair better, but the gap is inside the IQR
        ([x + 0.4 for x in BASE], False, 0.25, "gain"),  # higher is better
        ([x + 1.2 for x in BASE], True, 0.25, "worse"),  # median 5.2 > 4.0 * 1.25
        ([x + 0.9 for x in BASE], True, 0.25, "same"),  # slower, within the bound
        ([x - 1.2 for x in BASE], False, 0.25, "worse"),
        ([x + 0.02 for x in BASE], True, 0.01, "unresolved"),  # base IQR 0.175 > 0.01 * 4.0
        ([x + 0.05 for x in BASE], True, 0.01, "worse"),  # median 4.05 > 4.0 * 1.01
        ([x - 0.5 for x in BASE], True, 0.01, "gain"),
        ([3.0] * 10, True, 0.01, "gain"),
    ],
)
def test_the_gain_rule(here, lower, bound, expected):
    assert verdict(here, BASE, lower, bound) == expected


def test_a_wide_base_is_resolved_when_every_run_beats_every_base_run():
    assert verdict([x - 0.01 for x in BASE], BASE, True, 0.01) == "unresolved"
    # every run below min(BASE), by a median gap of 0.16, inside the IQR of 0.175: not a gain, but resolved
    assert verdict([min(BASE) - 0.01] * 10, BASE, True, 0.01) == "same"


def test_the_summary_ends_each_line_with_its_verdict():
    metrics = [{"name": "decide_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25},
               {"name": "items_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}]
    result = lambda ms, rate: {"metrics": {"decide_ms_p50": {"value": ms}, "items_per_s": {"value": rate}}}
    here = [result(x - 0.4, 100.0) for x in BASE]
    base = [result(x, 100.0) for x in BASE]
    lines = summary(metrics, here, base)
    assert lines[0].startswith("decide_ms_p50 (ms, lower is better): base 4 [3.912, 4.087] -> here 3.6")
    assert lines[0].endswith("; verdict gain")
    assert "here better in 0/10 pairs, 10 tied" in lines[1] and lines[1].endswith("; verdict same")
