"""One workload, one process: the ``BENCHMARK.json`` command.

    python3 benchmarks/e2e/run.py --workload W --seed S --seconds T --trace 0|1

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the traced slice and reports the per-layer metrics.
Every metric is printed by name and unit, the full result (provenance,
ungated extras, and for a traced run the spans) is written under
``benchmarks/e2e/results/``, and the last line of standard output is the
contract's JSON object.  The exit code is non-zero when any output
mismatched its reference.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import pathlib
import platform
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
# Run as a script from any checkout: the program lives in src/, this
# package in benchmarks/e2e/.
sys.path[:0] = [str(REPO_ROOT / "src"), str(REPO_ROOT)]

from benchmarks.e2e import spec, workloads  # noqa: E402
from repro.engine import _np  # noqa: E402


def git_sha() -> str:
    """HEAD of this checkout (``+dirty`` with uncommitted changes), or
    ``unknown`` outside a git repository — never a parent directory's."""
    if not (REPO_ROOT / ".git").exists():
        return "unknown"

    def git(*args: str) -> str:
        return subprocess.run(
            ["git", *args], cwd=REPO_ROOT, text=True, capture_output=True,
            check=True, timeout=30,
        ).stdout.strip()

    try:
        dirty = "+dirty" if git("status", "--porcelain") else ""
        return git("rev-parse", "HEAD") + dirty
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def provenance() -> dict:
    return {
        "git_sha": git_sha(),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        # Numbers from different engine lanes are never compared.
        "engine_lane": "numpy" if _np.HAVE_NUMPY else "pure-python",
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=spec.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float,
                        default=spec.CONTRACT["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny work counts (seconds, not a measurement)")
    parser.add_argument("--out", type=pathlib.Path,
                        help="where to write the full result JSON")
    args = parser.parse_args(argv)

    spec.RESULTS_DIR.mkdir(exist_ok=True)
    run = workloads.run_traced if args.trace else workloads.run_end_to_end
    result = run(args.workload, args.seed, args.seconds, args.smoke)

    measured = result["metrics"]
    if args.trace:
        # A layer a workload never enters reports 0.
        contract_metrics = {
            name: {"value": measured.get(name, 0), "unit": m["unit"]}
            for name, m in spec.PER_LAYER.items()
        }
    else:
        contract_metrics = {
            name: {"value": measured[name], "unit": m["unit"]}
            for name, m in spec.END_TO_END.items()
        }
    for name, value in result["metrics"].items():
        print(f"{args.workload:14s} {name:45s} {value:>18.6f} {spec.unit_of(name)}")

    tracer = result.pop("tracer", None)
    stem = f"{args.workload}.trace{args.trace}"
    if tracer is not None:
        tracer.dump(spec.RESULTS_DIR / f"{stem}.spans.json")
    full = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
        "provenance": provenance(), **result,
    }
    out = args.out or spec.RESULTS_DIR / f"{stem}.json"
    with open(out, "w") as fh:
        json.dump(full, fh, indent=1)

    correct = result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": contract_metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
