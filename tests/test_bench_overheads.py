"""``benchmarks/overheads.py``'s verdict has teeth — shown without timing
anything: synthetic ``(plain_s, armed_s)`` repeats stand in for the clock."""

from benchmarks.overheads import BUDGETS, REPEATS, verdict


def test_verdict_is_the_median_paired_ratio_against_the_budget():
    steady = [(1.00, 1.01), (1.30, 1.31)] * (REPEATS // 2)  # drifts together
    slower = [(1.0, 1.2)] * REPEATS
    stalled = [(1.0, 1.0)] * (REPEATS - 1) + [(1.0, 3.0)]  # one 3x repeat
    for name, budget in BUDGETS.items():
        pct, ok = verdict(name, steady)
        assert ok and 0.0 < pct < 1.1
        pct, ok = verdict(name, slower)
        assert not ok and round(pct, 6) == 20.0
        assert verdict(name, stalled) == (0.0, True)
        # The budget is a strict bound.
        assert not verdict(name, [(1.0, 1.0 + budget / 100)] * REPEATS)[1]
