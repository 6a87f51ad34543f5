"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload study --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; kdsm is imported from its src/ directory.
The workload is set up several times (set-up time is the median), then its
operation repeats until --seconds have passed, with at least three repeats.
With --trace 0 every end-to-end metric is printed; with --trace 1 untraced
and traced repeats alternate, and every per-layer metric, derived from the
traced repeats' spans, is printed together with the tracing overhead.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the metrics, and their units, are those
BENCHMARK.json lists. The same result, with the environment it was measured
in, goes to perfbench/results/; a traced run also writes its spans there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(BENCH_DIR, "results")
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

def src_lines() -> int:
    total = 0
    for dirpath, _, names in os.walk(SRC):
        for name in names:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "src_lines": src_lines(),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("study", "pipeline", "score"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seed < 1:
        print("error: --seed must be >= 1", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(SRC, "kdsm", "__init__.py")):
        print(f"error: no kdsm sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import speed
    import tracer
    import workloads

    os.makedirs(RESULTS, exist_ok=True)
    work_root = os.path.join(BENCH_DIR, ".work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=work_root)
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}" + ("_tiny" if args.tiny else "")
    untraced: list[dict] = []
    traced: list[dict] = []
    layers: list[dict] = []
    setup_samples = []
    try:
        with speed.SpeedSampler() as sampler:
            wl = workloads.WORKLOADS[args.workload](args.seed, args.tiny, workdir)
            for _ in range(2 if args.tiny else wl.setup_repeats):
                import_s = workloads.fresh_import_s(SRC)
                t0 = time.perf_counter()
                wl.setup()
                setup_samples.append((import_s, (t0, time.perf_counter())))
            start = time.perf_counter()
            if args.trace:
                with open(os.path.join(RESULTS, f"{tag}_spans.jsonl"), "w", encoding="utf-8") as fh:
                    fh.write(json.dumps(tracer.SPAN_FIELDS) + "\n")
                    while not traced or time.perf_counter() - start < args.seconds:
                        t = tracer.Tracer()
                        order = [workloads.Timer(), workloads.Timer(t)]
                        if len(traced) % 2:  # alternate: a run's first repeat is slower
                            order.reverse()
                        for timer in order:
                            (untraced if timer.tracer is None else traced).append(wl.run_once(timer))
                        layers.append(tracer.layer_metrics(t.spans))
                        t.write(fh, len(traced) - 1)
            else:
                min_repeats = 2 if args.tiny else 3
                while len(untraced) < min_repeats or time.perf_counter() - start < args.seconds:
                    untraced.append(wl.run_once(workloads.Timer()))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    def scaled_s(span):
        return (span[1] - span[0]) * sampler.factor(*span)

    repeats = untraced + traced
    attempted = sum(r["attempted"] for r in repeats)
    failed = sum(r["failed"] for r in repeats)
    if args.trace:
        scaled = [tracer.scale(d, sampler.factor(*r["span"])) for d, r in zip(layers, traced)]
        values = {k: statistics.median(d[k] for d in scaled) for k in scaled[0]}
        values["trace_overhead_s"] = statistics.median(scaled_s(r["span"]) for r in traced) - statistics.median(
            scaled_s(r["span"]) for r in untraced
        )
        section = "per_layer"
    else:
        values = workloads.end_to_end(untraced, sampler)
        values["setup_s"] = statistics.median(import_s + scaled_s(span) for import_s, span in setup_samples)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values["ok_frac"] = (attempted - failed) / attempted
        section = "end_to_end"
        print(f"# score latency percentiles over {values['latency_samples']} single-row calls")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)[section]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "environment": environment(),
        "setup_import_s": [import_s for import_s, _ in setup_samples],
        "setup_rest_s_raw": [b - a for _, (a, b) in setup_samples],
        "repeat_wall_s_raw": [r["span"][1] - r["span"][0] for r in untraced],
        "traced_repeat_wall_s_raw": [r["span"][1] - r["span"][0] for r in traced],
        "repeat_speed_factor": [sampler.factor(*r["span"]) for r in repeats],
        "latency_samples": values.get("latency_samples"),
        **result,
    }
    with open(os.path.join(RESULTS, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")

    print(f"# {args.workload} seed={args.seed}: {len(untraced)} untraced, {len(traced)} traced repeats")
    print("# environment " + json.dumps(record["environment"]))
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
