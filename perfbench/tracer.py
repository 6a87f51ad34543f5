"""In-memory span tracer wrapped around kdsm's module boundaries.

`install` replaces each public function listed in TARGETS with a wrapper
that records a span (name, start, end, parent, request, count) and calls the
original. The wrapper is bound under every name in every loaded kdsm module
that refers to the original function, because modules such as kdsm.distill
import functions by name (`from .student import backward`) and would
otherwise bypass a wrapper set only on the defining module. `uninstall`
restores every binding. Nothing under src/ is modified.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time


def _rows_in(args, result):
    return result.n


def _rows_out(args, result):
    return args[0].n


def _result_len(args, result):
    return len(result)


def _batch_passes(args, result):
    return args[1].X.shape[0]


def _mse_passes(args, result):
    return args[1].shape[0]


def _epochs_run(args, result):
    return len(result[1].records)


# (span name, module, function, count taken from (args, result) or None)
TARGETS = [
    ("data.load_csv", "kdsm.data", "load_csv", _rows_in),
    ("data.save_csv", "kdsm.data", "save_csv", _rows_out),
    ("data.gen_synthetic", "kdsm.data", "gen_synthetic", None),
    ("data.split_dataset", "kdsm.data", "split_dataset", None),
    ("tree.fit_tree", "kdsm.tree", "fit_tree", None),
    ("tree.leaf_of_batch", "kdsm.tree", "leaf_of_batch", _result_len),
    ("tree.predict_uplift_tree_batch", "kdsm.tree", "predict_uplift_tree_batch", _result_len),
    ("tree.save_tree", "kdsm.tree", "save_tree", None),
    ("tree.load_tree", "kdsm.tree", "load_tree", None),
    ("tree.tree_from_jsonable", "kdsm.tree", "tree_from_jsonable", None),
    ("distill.train_kdsm", "kdsm.distill", "train_kdsm", _epochs_run),
    ("distill.train_kdss", "kdsm.distill", "train_kdss", _epochs_run),
    ("distill.train_plain", "kdsm.distill", "train_plain", _epochs_run),
    ("distill.train_two_model", "kdsm.distill", "train_two_model", _epochs_run),
    ("distill.train_mom", "kdsm.distill", "train_mom", _epochs_run),
    ("distill.match_pairs", "kdsm.distill", "match_pairs", None),
    ("student.backward", "kdsm.student", "backward", _batch_passes),
    ("student.backward_mse", "kdsm.student", "backward_mse", _mse_passes),
    ("student.apply_update", "kdsm.student", "apply_update", None),
    ("student.predict_uplift_student", "kdsm.student", "predict_uplift_student", None),
    ("student.predict_uplift_batch", "kdsm.student", "predict_uplift_batch", None),
    ("student.forward_batch", "kdsm.student", "forward_batch", None),
    ("student.raw_output_batch", "kdsm.student", "raw_output_batch", None),
    ("student.clone_params", "kdsm.student", "clone_params", None),
    ("student.save_student", "kdsm.student", "save_student", None),
    ("student.load_student", "kdsm.student", "load_student", None),
    ("student.student_to_jsonable", "kdsm.student", "student_to_jsonable", None),
    ("student.student_from_jsonable", "kdsm.student", "student_from_jsonable", None),
    ("metrics.rank_eval", "kdsm.metrics", "rank_eval", None),
    ("metrics.auuc", "kdsm.metrics", "auuc", None),
    ("metrics.qini_coefficient", "kdsm.metrics", "qini_coefficient", None),
    ("metrics.uplift_curve", "kdsm.metrics", "uplift_curve", None),
    ("metrics.qini_curve", "kdsm.metrics", "qini_curve", None),
    ("metrics.write_curve_csv", "kdsm.metrics", "write_curve_csv", None),
    ("metrics.evaluate_predictions", "kdsm.metrics", "evaluate_predictions", None),
    ("cli.run_comparison", "kdsm.cli", "run_comparison", None),
]

# kdsm.cli.main dispatches through this table, not through module attributes.
CLI_COMMANDS = {
    "synth": "cli.synth",
    "split": "cli.split",
    "fit-tree": "cli.fit_tree",
    "train": "cli.train",
    "evaluate": "cli.evaluate",
}

NAME, START, END, PARENT, REQUEST, COUNT = range(6)
# a span as written out: its repeat, its index within the repeat (which
# `parent` refers to, -1 for none), then the fields above; times are
# perf_counter nanoseconds
SPAN_FIELDS = ("repeat", "id", "name", "start_ns", "end_ns", "parent", "request", "count")

TRAINERS = ("kdsm", "kdss", "plain", "two_model", "mom")


class Tracer:
    """Collects spans in memory; `request` tags the spans of one request."""

    def __init__(self):
        self.spans: list[list] = []
        self.request = 0
        self._stack: list[int] = []
        self._undo: list = []

    def wrap(self, name, fn, count=None):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.request, 0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if count is not None:
                span[COUNT] = count(args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items()) if n == "kdsm" or n.startswith("kdsm.")]
        for name, module, attr, count in TARGETS:
            original = getattr(importlib.import_module(module), attr)
            wrapper = self.wrap(name, original, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        vars(mod)[key] = wrapper
                        self._undo.append((vars(mod), key, original))
        commands = importlib.import_module("kdsm.cli").COMMANDS
        for key, name in CLI_COMMANDS.items():
            original = commands[key]
            commands[key] = self.wrap(name, original)
            self._undo.append((commands, key, original))

    def uninstall(self) -> None:
        for table, key, original in reversed(self._undo):
            table[key] = original
        self._undo.clear()

    def write(self, fh, repeat: int) -> None:
        """Append one JSON array per span, fields in SPAN_FIELDS order."""
        for i, s in enumerate(self.spans):
            fh.write(json.dumps([repeat, i, *s]) + "\n")


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of the spans one Tracer recorded.

    A span's self time is its duration minus the durations of its direct
    children; a layer's `self_s` is the sum of the self times of its spans.
    """
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    self_s: dict[str, float] = {}
    child_s = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_s[s[PARENT]] += (s[END] - s[START]) * 1e-9
    for i, s in enumerate(spans):
        name = s[NAME]
        dur = (s[END] - s[START]) * 1e-9
        total[name] = total.get(name, 0.0) + dur
        calls[name] = calls.get(name, 0) + 1
        counts[name] = counts.get(name, 0) + s[COUNT]
        self_s[name] = self_s.get(name, 0.0) + dur - child_s[i]

    def t(name):
        return total.get(name, 0.0)

    def rate(name):
        return counts.get(name, 0) / t(name) if t(name) > 0 else 0.0

    def layer_self(layer):
        return sum((v for k, v in self_s.items() if k.startswith(layer + ".")), 0.0)

    # save_student calls student_to_jsonable, so count only the outermost span
    serial = {
        "student.save_student",
        "student.load_student",
        "student.student_to_jsonable",
        "student.student_from_jsonable",
    }
    save_load = sum(
        (s[END] - s[START]) * 1e-9
        for s in spans
        if s[NAME] in serial and not (s[PARENT] >= 0 and spans[s[PARENT]][NAME] in serial)
    )
    out = {
        "data.load_csv_s": t("data.load_csv"),
        "data.load_csv_rows_per_s": rate("data.load_csv"),
        "data.save_csv_s": t("data.save_csv"),
        "data.save_csv_rows_per_s": rate("data.save_csv"),
        "data.gen_synthetic_s": t("data.gen_synthetic"),
        "data.split_dataset_s": t("data.split_dataset"),
        "data.self_s": layer_self("data"),
        "tree.fit_tree_s": t("tree.fit_tree"),
        "tree.leaf_of_batch_s": t("tree.leaf_of_batch"),
        "tree.leaf_of_batch_calls": calls.get("tree.leaf_of_batch", 0),
        "tree.predict_batch_rows_per_s": rate("tree.predict_uplift_tree_batch"),
        "tree.self_s": layer_self("tree"),
        "distill.match_pairs_s": t("distill.match_pairs"),
        "distill.match_pairs_calls": calls.get("distill.match_pairs", 0),
        "distill.self_s": layer_self("distill"),
        "distill.epochs_run": sum(counts.get(f"distill.train_{m}", 0) for m in TRAINERS),
        "student.backward_s": t("student.backward"),
        "student.backward_calls": calls.get("student.backward", 0),
        "student.backward_passes_per_s": rate("student.backward"),
        "student.backward_mse_s": t("student.backward_mse"),
        "student.apply_update_s": t("student.apply_update"),
        "student.apply_update_calls": calls.get("student.apply_update", 0),
        "student.predict_uplift_batch_s": t("student.predict_uplift_batch"),
        "student.forward_batch_s": t("student.forward_batch"),
        "student.raw_output_batch_s": t("student.raw_output_batch"),
        "student.clone_params_s": t("student.clone_params"),
        "student.save_load_s": save_load,
        "student.self_s": layer_self("student"),
        "metrics.rank_eval_s": t("metrics.rank_eval"),
        "metrics.rank_eval_calls": calls.get("metrics.rank_eval", 0),
        "metrics.write_curve_csv_s": t("metrics.write_curve_csv"),
        "metrics.self_s": layer_self("metrics"),
        "cli.synth_s": t("cli.synth"),
        "cli.split_s": t("cli.split"),
        "cli.fit_tree_s": t("cli.fit_tree"),
        "cli.train_s": t("cli.train"),
        "cli.evaluate_s": t("cli.evaluate"),
        "cli.run_comparison_self_s": self_s.get("cli.run_comparison", 0.0),
        "cli.self_s": layer_self("cli"),
    }
    for m in TRAINERS:
        out[f"distill.train_{m}_s"] = t(f"distill.train_{m}")
    return out



def scale(values: dict[str, float], factor: float) -> dict[str, float]:
    """Layer metrics at nominal machine speed: times multiplied by the speed
    factor, rates divided by it, counts unchanged."""
    out = {}
    for name, v in values.items():
        if name.endswith("_per_s"):
            out[name] = v / factor
        elif name.endswith("_s"):
            out[name] = v * factor
        else:
            out[name] = v
    return out
