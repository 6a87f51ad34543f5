"""The benchmark workloads: study, pipeline and score.

Each workload is a closed loop: one client in one process issues the next
call only after the previous one has returned. A workload builds its inputs
from the seed alone. `setup()` prepares what the timed operation needs;
`run_once(timer)` runs the operation once inside `timer`, checks its outputs
and returns one repeat record, which `end_to_end` reduces with the records
of the other repeats. README.md gives the reason for each workload.

Every trainer runs a fixed number of epochs (early stopping cannot trigger
before the cap), so the work done by a repeat does not depend on the seed.
With the default early stopping, the epochs run by the study varied from 150
to 194 over eight seeds, which alone spread its wall time by 12 %.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import replace

import numpy as np

from kdsm import cli, data, distill, metrics, student, tree
from kdsm.seeds import derive_seed

EPOCHS = {"train.max_epochs": "15", "train.early_stop_patience": "15"}
TINY_EPOCHS = {"train.max_epochs": "2", "train.early_stop_patience": "2"}

# Rows of the hold-out sample that measures model quality. The test split's
# Qini is too noisy to guard quality: over ten seeds it spread by 41 % for one
# model, against 9 % on 200,000 fresh rows.
HOLDOUT_ROWS = 200_000
# Single-row scoring calls that study and pipeline make after each untraced
# repeat on the students they trained, shared among those students.
PROBE_CALLS = 10_000
# Latency percentiles are medians over chunks of this many calls, so a burst
# of contention on the machine moves one chunk and not the result.
LATENCY_CHUNK = 2_000
MATCH_TOL = 1e-12


# Imports the CLI, then prints when the import ended and the speed factor of
# the CPU it ran on (speed.py).
IMPORT_CHILD = "import time, kdsm.cli; t = time.perf_counter(); import speed; print(t, speed.factor_now())"


def fresh_import_s(src: str) -> float:
    """Seconds, at nominal machine speed, from starting a new interpreter to
    its having imported the CLI: what every `kdsm` command pays before it
    does any work. The child measures the speed factor itself, because it
    may run on another CPU than this thread."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.path.dirname(os.path.abspath(__file__))]))
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, "-c", IMPORT_CHILD], env=env, check=True, capture_output=True, text=True)
    done, factor = map(float, out.stdout.split())
    return (done - t0) * factor


def _holdout(cfg: cli.RunConfig, seed: int, n: int) -> data.Dataset:
    """Fresh rows from the generator that made the training data."""
    rows, _ = data.gen_synthetic(replace(cfg.synthetic_config(derive_seed(seed, "bench-holdout")), n=n))
    return rows


def _time_single_rows(model, X: np.ndarray, n: int, tracer=None) -> tuple[np.ndarray, dict]:
    """n back-to-back single-row calls; returns the predictions and a
    latency sample (each call's start and duration, in perf_counter ns)."""
    out = np.empty(n)
    start_ns = np.empty(n, dtype=np.int64)
    lat_ns = np.empty(n, dtype=np.int64)
    clock = time.perf_counter_ns
    for i in range(n):
        if tracer is not None:
            tracer.request = i + 1
        t0 = clock()
        out[i] = student.predict_uplift_student(model, X[i])
        lat_ns[i] = clock() - t0
        start_ns[i] = t0
    if tracer is not None:
        tracer.request = 0
    return out, {"start_ns": start_ns, "lat_ns": lat_ns}


def _mismatches(single: np.ndarray, batch: np.ndarray) -> int:
    return int(np.count_nonzero(~(np.abs(single - batch[: single.size]) <= MATCH_TOL)))


class ScoringProbe:
    """Scores a student that study or pipeline trained, after the timed
    operation: one batch call on the hold-out rows, then single-row calls on
    the first of them, checked against the batch predictions."""

    def __init__(self, model_path: str, rows: data.Dataset, tie_seed: int, calls: int):
        self.model = student.load_student(model_path)
        self.rows = rows
        self.tie_seed = tie_seed
        self.calls = calls

    def run(self) -> tuple[dict, int]:
        """Returns a scoring sample and the number of mismatched rows."""
        t0 = time.perf_counter()
        batch = student.predict_uplift_batch(self.model, self.rows.features)
        batch_span = (t0, time.perf_counter())
        single, sample = _time_single_rows(self.model, self.rows.features, self.calls)
        ev = metrics.rank_eval(batch, self.rows.treatment, self.rows.outcome, self.tie_seed)
        sample.update(rows=self.rows.n, batch_span=batch_span, qini=metrics.qini_coefficient(ev))
        return sample, _mismatches(single, batch)


def _run_probes(probes: list[ScoringProbe], record: dict) -> dict:
    record["scoring"] = []
    for probe in probes:
        sample, mismatches = probe.run()
        record["scoring"].append(sample)
        record["attempted"] += probe.calls
        record["failed"] += mismatches
    return record


def end_to_end(repeats: list[dict], speed) -> dict:
    """Medians over the untraced repeats of a run, with every time scaled to
    nominal machine speed over the interval it was measured in (single-row
    latencies by `speed.call_factor`, the rest by `speed.factor`). Latency
    percentiles are medians over LATENCY_CHUNK-call chunks of all scoring
    samples, without the calls during which the sampler ran (under 1 %)."""

    def scaled_s(t0, t1):
        return (t1 - t0) * speed.factor(t0, t1)

    scoring = [s for r in repeats for s in r["scoring"]]
    sampled_ns = np.asarray(speed.times) * 1e9
    chunks = []
    for s in scoring:
        n = max(1, s["lat_ns"].size // LATENCY_CHUNK)
        for lat, start in zip(np.array_split(s["lat_ns"], n), np.array_split(s["start_ns"], n)):
            # leave out the calls the speed sampler interrupted
            i = np.minimum(np.searchsorted(sampled_ns, start), sampled_ns.size - 1)
            clean = ~((sampled_ns[i] >= start) & (sampled_ns[i] <= start + lat))
            factor = speed.call_factor(start[0] * 1e-9, (start[-1] + lat[-1]) * 1e-9)
            chunks.append(lat[clean] * factor)
    p50, p99 = np.median([np.percentile(c, [50, 99]) for c in chunks], axis=0) / 1e3
    return {
        "wall_s": statistics.median(scaled_s(*r["span"]) for r in repeats),
        "train_rows_per_s": statistics.median(
            rows / scaled_s(t0, t1) for r in repeats for rows, t0, t1 in r["training"]
        ),
        "score_p50_us": float(p50),
        "score_p99_us": float(p99),
        "score_rows_per_s": statistics.median(s["rows"] / scaled_s(*s["batch_span"]) for s in scoring),
        "holdout_qini": statistics.median(s["qini"] for s in scoring),
        "latency_samples": sum(c.size for c in chunks),
    }


class Timer:
    """Context for the timed part of a repeat; installs `tracer` if given."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.span = (0.0, 0.0)

    def __enter__(self):
        if self.tracer is not None:
            self.tracer.install()
        self.span = (time.perf_counter(), 0.0)
        return self

    def __exit__(self, *exc):
        self.span = (self.span[0], time.perf_counter())
        if self.tracer is not None:
            self.tracer.uninstall()
        return False


class Study:
    """`kdsm compare` in process: 5 methods x 2 seeds at synth.n = 20,000."""

    setup_repeats = 7

    def __init__(self, seed: int, tiny: bool, workdir: str):
        self.seeds = [2 * seed - 1, 2 * seed]
        self.cfg = cli.RunConfig(
            {
                "synth.n": "2000" if tiny else "20000",
                "compare.seeds": ",".join(map(str, self.seeds)),
                **(TINY_EPOCHS if tiny else EPOCHS),
            }
        )
        self.workdir = workdir
        self.holdout_n = 5_000 if tiny else HOLDOUT_ROWS
        self.probe_calls = (200 if tiny else PROBE_CALLS) // len(self.seeds)
        # training rows per seed, as run_comparison splits them
        self.train_rows = {
            s: data.split_dataset(
                data.gen_synthetic(self.cfg.synthetic_config(derive_seed(s, "synth")))[0],
                self.cfg.split_ratios(),
                derive_seed(s, "split"),
            ).train.n
            for s in self.seeds
        }
        self.reference: bytes | None = None
        self.probes: list[ScoringProbe] = []

    def setup(self) -> None:
        """Nothing to prepare beyond the fresh import of the CLI."""

    def run_once(self, timer: Timer) -> dict:
        out = tempfile.mkdtemp(dir=self.workdir)
        with timer:
            report = cli.run_comparison(self.cfg, out_dir=out)
        with open(os.path.join(out, "comparison.txt"), "rb") as fh:
            text = fh.read()
        failed = sum(r.failed for r in report.rows)
        trained = sum(
            self.train_rows[r.seed]
            * _epochs_run(os.path.join(out, "cells", f"{r.method}_seed{r.seed}", "train_report.txt"))
            for r in report.rows
            if not r.failed
        )
        if self.reference is None:
            self.reference = text
            self.probes = [
                ScoringProbe(
                    os.path.join(out, "cells", f"kdsm_seed{s}", "model.json"),
                    _holdout(self.cfg, s, self.holdout_n),
                    self.cfg.tie_seed(s),
                    self.probe_calls,
                )
                for s in self.seeds
            ]
        elif text != self.reference:
            failed = len(report.rows)
        shutil.rmtree(out)
        record = {
            "span": timer.span,
            "attempted": len(report.rows),
            "failed": failed,
            "training": [(trained, *timer.span)],
        }
        return _run_probes(self.probes if timer.tracer is None else [], record)


class Pipeline:
    """The CLI chain synth -> split -> fit-tree -> train --method kdsm ->
    evaluate through kdsm.cli.main at synth.n = 50,000."""

    setup_repeats = 7

    def __init__(self, seed: int, tiny: bool, workdir: str):
        self.seed = seed
        self.values = {"seed": str(seed), "synth.n": "2000" if tiny else "50000", **(TINY_EPOCHS if tiny else EPOCHS)}
        self.cfg = cli.RunConfig(self.values)
        self.workdir = workdir
        self.holdout_n = 5_000 if tiny else HOLDOUT_ROWS
        self.probe_calls = 200 if tiny else PROBE_CALLS
        self.probes: list[ScoringProbe] = []

    def setup(self) -> None:
        """Nothing to prepare beyond the fresh import of the CLI."""

    def run_once(self, timer: Timer) -> dict:
        out = tempfile.mkdtemp(dir=self.workdir)
        cfg_path = os.path.join(out, "run.cfg")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            fh.writelines(f"{k} = {v}\n" for k, v in {**self.values, "out.dir": out}.items())
        model = os.path.join(out, "model_kdsm.json")
        commands = [["synth"], ["split"], ["fit-tree"], ["train", "--method", "kdsm"], ["evaluate", model]]
        codes = {}
        with contextlib.redirect_stdout(io.StringIO()), timer:
            for cmd in commands:
                codes[cmd[0]] = cli.main([cmd[0], "--config", cfg_path, *cmd[1:]])
        failed = sum(c != 0 for c in codes.values())
        if codes["evaluate"] == 0 and not self._summary_matches(out, model):
            failed += 1
        trained = 0
        if codes["train"] == 0:
            trained = _train_rows(out) * _epochs_run(os.path.join(out, "train_report_kdsm.txt"))
            if not self.probes:
                holdout = _holdout(self.cfg, self.seed, self.holdout_n)
                self.probes = [ScoringProbe(model, holdout, self.cfg.tie_seed(self.seed), self.probe_calls)]
        shutil.rmtree(out)
        record = {
            "span": timer.span,
            "attempted": len(commands),
            "failed": failed,
            "training": [(trained, *timer.span)],
        }
        return _run_probes(self.probes if timer.tracer is None else [], record)

    def _summary_matches(self, out: str, model: str) -> bool:
        """summary.json equals evaluate_predictions recomputed from the saved
        model on test.csv."""
        test = data.load_csv(os.path.join(out, "test.csv"), _schema(out))
        _, predict, _ = cli.load_predictor(model)
        expected = metrics.evaluate_predictions(
            predict(test.features), test.treatment, test.outcome, self.cfg.tie_seed(self.seed)
        )
        with open(os.path.join(out, "eval_model_kdsm", "summary.json"), encoding="utf-8") as fh:
            return json.load(fh) == expected


MODEL_SEED = 1


class Score:
    """Single-row and batch scoring with a kdsm student and its tree, both
    trained at a fixed seed in set-up, saved and reloaded."""

    setup_repeats = 3

    def __init__(self, seed: int, tiny: bool, workdir: str):
        self.cfg = cli.RunConfig({"synth.n": "2000" if tiny else "20000", **(TINY_EPOCHS if tiny else EPOCHS)})
        self.workdir = workdir
        self.rows = _holdout(self.cfg, seed, 2_000 if tiny else HOLDOUT_ROWS)
        self.n_single = 200 if tiny else 20_000
        self.tie_seed = self.cfg.tie_seed(seed)
        self.training: list[tuple[int, float, float]] = []

    def setup(self) -> None:
        cfg, s = self.cfg, MODEL_SEED
        ds, _ = data.gen_synthetic(cfg.synthetic_config(derive_seed(s, "synth")))
        split = data.split_dataset(ds, cfg.split_ratios(), derive_seed(s, "split"))
        teacher = tree.fit_tree(split.train, cfg.tree_params(), derive_seed(s, "tree"))
        t0 = time.perf_counter()
        model, report = distill.train_kdsm(
            split.train,
            split.valid,
            teacher,
            cfg.student_config(derive_seed(s, "student-init")),
            cfg.hyper(derive_seed(s, "train")),
        )
        self.training.append((split.train.n * len(report.records), t0, time.perf_counter()))
        model_path = os.path.join(self.workdir, "model_kdsm.json")
        tree_path = os.path.join(self.workdir, "tree.json")
        student.save_student(model, model_path)
        tree.save_tree(teacher, tree_path)
        self.model = student.load_student(model_path)
        self.tree = tree.load_tree(tree_path)

    def run_once(self, timer: Timer) -> dict:
        X, T, Y = self.rows.features, self.rows.treatment, self.rows.outcome
        with timer:
            single, sample = _time_single_rows(self.model, X, self.n_single, timer.tracer)
            t0 = time.perf_counter()
            batch = student.predict_uplift_batch(self.model, X)
            tree_pred = tree.predict_uplift_tree_batch(self.tree, X)
            batch_span = (t0, time.perf_counter())
            ev = metrics.rank_eval(batch, T, Y, self.tie_seed)
            qini = metrics.qini_coefficient(ev)
            metrics.auuc(ev)
            tree_ev = metrics.rank_eval(tree_pred, T, Y, self.tie_seed)
            metrics.qini_coefficient(tree_ev)
            metrics.auuc(tree_ev)
        failed = _mismatches(single, batch)
        failed += int(not np.isfinite(batch).all()) + int(not np.isfinite(tree_pred).all())
        sample.update(rows=X.shape[0], batch_span=batch_span, qini=qini)
        return {
            "span": timer.span,
            "attempted": self.n_single + 2,
            "failed": failed,
            "training": self.training,
            "scoring": [sample],
        }


def _epochs_run(report_path: str) -> int:
    with open(report_path, encoding="utf-8") as fh:
        return int(re.search(r"^epochs_run=(\d+)$", fh.read(), re.M).group(1))


def _train_rows(out: str) -> int:
    with open(os.path.join(out, "split_indices.txt"), encoding="utf-8") as fh:
        line = next(ln for ln in fh if ln.startswith("train:"))
    return len(line.split()) - 1


def _schema(out: str) -> data.FeatureSchema:
    with open(os.path.join(out, "schema.json"), encoding="utf-8") as fh:
        return data.FeatureSchema.from_jsonable(json.load(fh))


WORKLOADS = {"study": Study, "pipeline": Pipeline, "score": Score}
