"""Figure 18: mean FCT of port load-balancing Policies 1-3 vs load.

Per-packet forwarding decisions from local queue state: random (P1), least
queued (P2), DRILL (P3).  Paper at 80% load: DRILL is ~1.7x better than P1
and ~1.4x better than P2; the paper also observes that d=4, m=4 worked best
in its environment (vs DRILL's suggested d=2, m=1) — the d/m sweep below
reproduces that kind of sensitivity study.
"""

from benchmarks.report import emit, format_table
from repro.experiments import PortLBExperimentConfig, run_portlb_experiment

LOADS = (0.5, 0.8)
DURATION_S = 0.03
SEED = 3


def _sweep():
    results = {}
    for load in LOADS:
        for policy in ("policy1", "policy2", "policy3"):
            results[(load, policy)] = run_portlb_experiment(
                PortLBExperimentConfig(
                    policy=policy, load=load, duration_s=DURATION_S, seed=SEED,
                    d=2, m=1,
                )
            )
    return results


def _dm_sweep(results):
    """The d/m rows; (2, 1) at 80% load is the point ``_sweep`` already ran."""
    return {
        (2, 1): results[(0.8, "policy3")],
        (4, 4): run_portlb_experiment(
            PortLBExperimentConfig(
                policy="policy3", load=0.8, duration_s=DURATION_S, seed=SEED,
                d=4, m=4,
            )
        ),
    }


def test_fig18_portlb_policies(benchmark):
    results = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    dm = _dm_sweep(results)

    rows = []
    for load in LOADS:
        base = results[(load, "policy1")].mean_fct
        rows.append([
            f"{load:.0%}", "1.00",
            f"{results[(load, 'policy2')].mean_fct / base:.2f}",
            f"{results[(load, 'policy3')].mean_fct / base:.2f}",
            f"{base * 1e3:.2f} ms",
        ])
    table = format_table(
        "Figure 18 - mean FCT normalised to Policy 1 (lower is better)\n"
        "(paper at 80% load: DRILL ~1.7x better than P1, ~1.4x than P2)",
        ["load", "Policy1 (random)", "Policy2 (least-queue)",
         "Policy3 (DRILL d=2,m=1)", "Policy1 mean FCT"],
        rows,
    )
    dm_rows = [
        [f"d={d}, m={m}", f"{res.mean_fct * 1e3:.2f} ms"]
        for (d, m), res in dm.items()
    ]
    dm_table = format_table(
        "DRILL d/m sensitivity at 80% load (paper found d=4, m=4 best in "
        "its environment)",
        ["configuration", "mean FCT"],
        dm_rows,
    )
    emit("fig18_portlb", table + "\n\n" + dm_table)

    p1 = results[(0.8, "policy1")].mean_fct
    p2 = results[(0.8, "policy2")].mean_fct
    p3 = results[(0.8, "policy3")].mean_fct
    assert p3 < p2 and p3 < p1
    assert p1 / p3 > 1.2   # paper: ~1.7x
    assert p2 / p3 > 1.2   # paper: ~1.4x
