"""``python -m benchmarks.e2e``: record, compare and pair run sets.

    python -m benchmarks.e2e [run] --seed S [--repeat K] [--record]
    python -m benchmarks.e2e compare A.json B.json
    python -m benchmarks.e2e pair ROOT_A ROOT_B [--pairs 10]

``run`` executes every workload in a fresh interpreter each (``run.py``),
K end-to-end runs plus one traced pass, prints every metric by name and
unit, and writes the run set under ``benchmarks/e2e/results/``.  ``pair``
alternates which checkout runs first, pair by pair, then compares.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import time

from . import spec
from .compare import compare, summarize, trajectory_point

RUN_PY = pathlib.Path("benchmarks") / "e2e" / "run.py"


def run_once(root: pathlib.Path, workload: str, seed: int, seconds: float,
             trace: int, smoke: bool) -> dict:
    """One workload in a fresh interpreter of checkout ``root``."""
    spec.RESULTS_DIR.mkdir(exist_ok=True)
    fd, out = tempfile.mkstemp(suffix=".json", dir=spec.RESULTS_DIR)
    os.close(fd)
    command = [sys.executable, str(root / RUN_PY), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace), "--out", out]
    if smoke:
        command.append("--smoke")
    try:
        done = subprocess.run(command, cwd=root, text=True,
                              capture_output=True, timeout=900)
        if not os.path.getsize(out):
            raise SystemExit(f"{' '.join(command)} exited {done.returncode} "
                             f"without a result:\n{done.stderr}")
        with open(out) as fh:
            return json.load(fh)
    finally:
        os.unlink(out)


def new_run_set(args) -> dict:
    return {"seed": args.seed, "seconds": args.seconds, "smoke": args.smoke,
            "provenance": None, "runs": {w: [] for w in spec.WORKLOADS},
            "traced": {}}


def add_runs(run_set: dict, root: pathlib.Path, args) -> None:
    """One more end-to-end run of every workload."""
    for workload in spec.WORKLOADS:
        result = run_once(root, workload, args.seed, args.seconds, 0,
                          args.smoke)
        run_set["provenance"] = run_set["provenance"] or result["provenance"]
        run_set["runs"][workload].append(result)
        print(f"  {workload:14s} seed {args.seed} "
              f"throughput_per_s {result['metrics']['throughput_per_s']:.1f} "
              f"failed {result['failed']}", flush=True)


def add_traced(run_set: dict, root: pathlib.Path, args) -> None:
    for workload in spec.WORKLOADS:
        run_set["traced"][workload] = run_once(
            root, workload, args.seed, args.seconds, 1, args.smoke)


def write_run_set(run_set: dict, path: pathlib.Path | None,
                  label: str = "runset") -> pathlib.Path:
    path = path or spec.RESULTS_DIR / (
        f"{label}-{time.strftime('%Y%m%dT%H%M%S')}.json")
    with open(path, "w") as fh:
        json.dump(run_set, fh, indent=1)
    return path


def passed(run_set: dict) -> bool:
    results = [r for runs in run_set["runs"].values() for r in runs]
    results += run_set["traced"].values()
    return all(r["failed"] == 0 for r in results)


def cmd_run(args) -> int:
    run_set = new_run_set(args)
    for repeat in range(args.repeat):
        print(f"end-to-end run {repeat + 1}/{args.repeat}", flush=True)
        add_runs(run_set, spec.REPO_ROOT, args)
    print("traced pass", flush=True)
    add_traced(run_set, spec.REPO_ROOT, args)
    print("\n".join(summarize(run_set)))
    path = write_run_set(run_set, args.out)
    print(f"\nrun set written to {path}")
    if args.record:
        with open(spec.RESULTS_DIR / "trajectory.jsonl", "a") as fh:
            fh.write(json.dumps(trajectory_point(run_set)) + "\n")
    return 0 if passed(run_set) else 1


def cmd_compare(args) -> int:
    with open(args.a) as fa, open(args.b) as fb:
        lines, ok = compare(json.load(fa), json.load(fb))
    print("\n".join(lines))
    return 0 if ok else 1


def cmd_pair(args) -> int:
    roots = {"A": args.root_a.resolve(), "B": args.root_b.resolve()}
    sets = {side: new_run_set(args) for side in roots}
    for pair in range(args.pairs):
        order = "AB" if pair % 2 == 0 else "BA"
        print(f"pair {pair + 1}/{args.pairs}, {order[0]} first", flush=True)
        for side in order:
            add_runs(sets[side], roots[side], args)
    for side in roots:
        add_traced(sets[side], roots[side], args)
        print(f"{side}: {write_run_set(sets[side], None, f'pair-{side}')}")
    lines, ok = compare(sets["A"], sets["B"])
    print("\n".join(lines))
    return 0 if ok and all(passed(s) for s in sets.values()) else 1


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0].startswith("-"):
        argv.insert(0, "run")
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def sizing(p) -> None:
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--seconds", type=float,
                       default=spec.CONTRACT["run_seconds"])
        p.add_argument("--smoke", action="store_true",
                       help="tiny work counts (seconds, not a measurement)")

    run = sub.add_parser("run", help="record one run set")
    sizing(run)
    run.add_argument("--repeat", type=int, default=3,
                     help="end-to-end runs per workload (default 3)")
    run.add_argument("--out", type=pathlib.Path)
    run.add_argument("--record", action="store_true",
                     help="append the medians to results/trajectory.jsonl")
    run.set_defaults(func=cmd_run)

    cmp_ = sub.add_parser("compare", help="compare run set B against A")
    cmp_.add_argument("a", type=pathlib.Path)
    cmp_.add_argument("b", type=pathlib.Path)
    cmp_.set_defaults(func=cmd_compare)

    pair = sub.add_parser("pair", help="alternating paired runs of two "
                                       "checkouts, then compare")
    pair.add_argument("root_a", type=pathlib.Path)
    pair.add_argument("root_b", type=pathlib.Path)
    pair.add_argument("--pairs", type=int, default=10)
    sizing(pair)
    pair.set_defaults(func=cmd_pair)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
