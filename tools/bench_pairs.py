"""Benchmark a change against its parent in alternating pairs of runs.

    tools/bench_pairs.py PARENT CHANGE --workload study --pairs 10 --seeds 1 2 3 --tag 13

PARENT and CHANGE are git checkouts of the two commits. Pair i runs
`perfbench/run.py --workload W --seed S --trace 0` once from each checkout,
S being the i-th of --seeds (cycled), the parent first in even pairs and the
change first in odd ones, so that drift of the machine lands on both sides
alike. Each run's end-to-end metrics come from its last line of stdout, and
its raw repeat wall times and environment from the result file it writes
under perfbench/results/ of its checkout.

The pairs and their summary go to BENCH_<tag>_<sha>.json at the root of
this repository, <sha> being the change's short commit id, with "-dirty"
appended when a tracked file of that checkout differs from it; runs of other
workloads are merged into the same file. A workload run again for the same
tag and change adds its pairs to those already there, and the summary is
taken over all of them; runs of another --seconds are refused before any
run starts. Per metric the summary gives the
parent's and the change's quartiles and median, the change's median
relative to the parent's, and in how many pairs the change was better, by
the direction BENCHMARK.json gives. `raw_wall_s` is summarised the same
way from each run's median raw repeat wall, which no speed scaling touches.
Exits 1 if a run fails or its result line says "correct": false, naming
the checkout, workload and seed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def short_sha(checkout: str) -> str:
    """The checkout's short commit id, with "-dirty" appended when a tracked
    file differs from that commit, so an uncommitted tree is never labelled
    as the commit it started from."""
    def git(*args: str) -> str:
        out = subprocess.run(["git", "-C", checkout, *args], capture_output=True, text=True, check=True)
        return out.stdout.strip()

    dirty = git("status", "--porcelain", "--untracked-files=no")
    return git("rev-parse", "--short", "HEAD") + ("-dirty" if dirty else "")


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run from `checkout`: its metrics, raw repeat walls and
    environment."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload]
    cmd += ["--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{checkout}: {' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f'{checkout}: workload {workload} seed {seed}: the result line says "correct": false')
    path = os.path.join(checkout, "perfbench", "results", f"{workload}_seed{seed}_trace0.json")
    with open(path, encoding="utf-8") as fh:
        record = json.load(fh)
    walls = record["repeat_wall_s_raw"]
    return {
        "correct": result["correct"],
        "metrics": {k: m["value"] for k, m in result["metrics"].items()},
        "raw_wall_s": statistics.median(walls),
        "repeat_wall_s_raw": walls,
        "environment": record["environment"],
    }


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": med, "q3": q3}


def summarise(pairs: list[dict], better: dict[str, str]) -> dict:
    """Quartiles of each side, the change's median relative to the parent's,
    and the pairs the change won, per metric."""
    out = {}
    for name, direction in better.items():
        values = {side: [p[side][name] for p in pairs] for side in SIDES}
        parent, change = quartiles(values["parent"]), quartiles(values["change"])
        sign = 1 if direction == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
        out[name] = {
            "better": direction,
            "parent": parent,
            "change": change,
            "change_vs_parent": change["median"] / parent["median"] - 1 if parent["median"] else None,
            "change_wins": wins,
            "pairs": len(pairs),
        }
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", help="checkout of the parent commit")
    p.add_argument("change", help="checkout of the change")
    p.add_argument("--workload", required=True, choices=("study", "pipeline", "score"))
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--tag", required=True, help="the change's label in the file name")
    args = p.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    checkouts = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    sha = short_sha(checkouts["change"])
    path = os.path.join(ROOT, f"BENCH_{args.tag}_{sha}.json")
    doc = {"change": sha, "parent": short_sha(checkouts["parent"]), "workloads": {}}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    earlier = doc["workloads"].get(args.workload, {"seconds": args.seconds, "seeds": [], "pairs": []})
    if earlier["seconds"] != args.seconds:
        sys.exit(f"{path}: {args.workload} was run with --seconds {earlier['seconds']}, not {args.seconds}")
    pairs = []
    environment = {}
    for i in range(args.pairs):
        seed = args.seeds[i % len(args.seeds)]
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            run = run_once(checkouts[side], args.workload, seed, args.seconds)
            environment[side] = run.pop("environment")
            pair[side] = {**run.pop("metrics"), **run}
        pairs.append(pair)
        walls = {side: round(pair[side]["wall_s"], 3) for side in SIDES}
        print(f"pair {i + 1}/{args.pairs} seed {seed}: wall_s {walls}", file=sys.stderr)

    pairs = earlier["pairs"] + pairs
    doc["workloads"][args.workload] = {
        "seconds": args.seconds,
        "seeds": list(dict.fromkeys(earlier["seeds"] + args.seeds)),
        "environment": environment,
        "summary": summarise(pairs, {**better, "raw_wall_s": "lower"}),
        "pairs": pairs,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
