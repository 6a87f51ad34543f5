"""Command-line pipeline: synth, split, fit-tree, train, evaluate, compare.

Configuration is a flat key=value file with dotted namespaces
(e.g. tree.max_depth=5); every key has a default and a handful of flags
override their config counterparts. A single --seed fans out deterministically
to data generation, splitting, model init, training, and tie-breaking, so a
rerun with the same config and seed writes byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pickle
import statistics
import sys
from contextlib import ExitStack, contextmanager, suppress
from dataclasses import dataclass, field, fields

from . import data as data_mod
from . import distill, metrics, student, tree as tree_mod
from .errors import ConfigError, FitError, KdsmError, MetricError, TrainingError, document_errors
from .seeds import derive_seed

TWO_MODEL_FORMAT = "two-model/v1"

DEFAULTS: dict[str, str] = {
    "seed": "1",
    "out.dir": "out",
    "data.dir": "",
    "synth.n": "50000",
    "synth.d_numeric": "6",
    "synth.d_categorical": "2",
    "synth.base_rate": "0.03",
    "synth.effect_function": "piecewise-on-two-features",
    "synth.effect_scale": "1.0",
    "synth.treatment_fraction": "0.5",
    "synth.noise_features": "2",
    "split.train": "0.6",
    "split.valid": "0.2",
    "split.test": "0.2",
    "split.subsample_per_arm": "0",
    "tree.criterion": "ed",
    "tree.max_depth": "5",
    "tree.min_samples_per_arm": "100",
    "tree.min_gain": "0.0",
    "tree.numeric_split_candidates": "32",
    "student.hidden_sizes": "64,32",
    "student.embedding_dim": "8",
    "student.activation": "relu",
    "student.optimizer": "adam",
    "student.momentum": "0.0",
    "student.beta1": "0.9",
    "student.beta2": "0.999",
    "student.eps": "1e-8",
    "student.learning_rate": "0.01",
    "student.lr_decay_factor": "0.5",
    "student.lr_decay_patience": "6",
    "train.lambda": "0.5",
    "train.batch_size": "512",
    "train.max_epochs": "40",
    "train.early_stop_patience": "12",
    "train.drop_leftovers": "false",
    "eval.tie_seed": "",
    "compare.methods": "plain,kdss,kdsm,tm,mom",
    "compare.seeds": "1,2,3,4,5",
}

METHODS = ("kdsm", "kdss", "plain", "tm", "mom")


def parse_config_file(path: str) -> dict[str, str]:
    """Flat key=value lines; blank lines and #-comments ignored."""
    out: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            key = key.strip()
            if key not in DEFAULTS:
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
            out[key] = value.strip()
    return out


_BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}

# per declared field type: how a config value is parsed, and what it must be
_PARSERS = {
    "int": (int, "an integer"),
    "float": (float, "a number"),
    "str": (str, "a string"),
    "bool": (lambda v: _BOOLS[v.lower()], "a boolean"),
    "tuple[int, ...]": (
        lambda v: tuple(int(h) for h in v.split(",") if h.strip()),
        "a comma list of integers",
    ),
}


@dataclass
class RunConfig:
    """Typed view over the merged (defaults, file, flags) key space."""

    values: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        merged = dict(DEFAULTS)
        merged.update(self.values)
        self.values = merged

    def _get(self, key: str, kind: str = "str"):
        """The value of `key`, parsed as a field of type `kind`."""
        parse, what = _PARSERS[kind]
        raw = self.values[key]
        try:
            return parse(raw)
        except (KeyError, ValueError):
            raise ConfigError(f"config key {key}={raw!r} is not {what}") from None

    def _section(self, cls, prefix: str, *unkeyed):
        """`cls` built from the keys `<prefix>.<field>`, each parsed by its
        field's declared type; the fields with no key take `unkeyed`, in
        field order."""
        unkeyed = iter(unkeyed)
        values = {}
        for f in fields(cls):
            key = f"{prefix}.{f.name}"
            values[f.name] = self._get(key, f.type) if key in DEFAULTS else next(unkeyed)
        return cls(**values)

    @property
    def seed(self) -> int:
        return self._get("seed", "int")

    @property
    def out_dir(self) -> str:
        return self._get("out.dir")

    @property
    def data_dir(self) -> str:
        return self._get("data.dir") or self.out_dir

    def synthetic_config(self, seed: int) -> data_mod.SyntheticConfig:
        return self._section(data_mod.SyntheticConfig, "synth", seed)

    def split_ratios(self) -> data_mod.SplitRatios:
        return self._section(data_mod.SplitRatios, "split")

    def tree_params(self) -> tree_mod.TreeParams:
        return self._section(tree_mod.TreeParams, "tree")

    def student_config(self, init_seed: int) -> student.StudentConfig:
        return self._section(student.StudentConfig, "student", init_seed)

    def hyper(self, master_seed: int) -> distill.KdsmHyper:
        kd_weight = self._get("train.lambda", "float")
        return self._section(distill.KdsmHyper, "train", kd_weight, master_seed)

    def tie_seed(self, master_seed: int) -> int:
        if self._get("eval.tie_seed") == "":
            return derive_seed(master_seed, "eval-ties")
        return self._get("eval.tie_seed", "int")

    def compare_methods(self) -> list[str]:
        methods = [m.strip() for m in self._get("compare.methods").split(",") if m.strip()]
        for m in methods:
            if m not in METHODS:
                raise ConfigError(f"unknown method {m!r} in compare.methods")
        return _distinct("compare.methods", methods)

    def compare_seeds(self) -> list[int]:
        return _distinct("compare.seeds", list(self._get("compare.seeds", "tuple[int, ...]")))


def _distinct(key: str, entries: list) -> list:
    """`entries`, the list config key `key` holds, unless it is empty or repeats one."""
    if not entries:
        raise ConfigError(f"config key {key} lists nothing")
    for i, entry in enumerate(entries):
        if entry in entries[:i]:
            raise ConfigError(f"config key {key} repeats {entry!r}")
    return entries


def _load_run_config(args) -> RunConfig:
    """The config file's values, overridden by every flag given: a flag's
    dest is the key it overrides, and an empty --out is ignored."""
    values: dict[str, str] = {}
    if getattr(args, "config", None):
        values.update(parse_config_file(args.config))
    for key, value in vars(args).items():
        if key in DEFAULTS and value not in (None, ""):
            values[key] = str(value)
    return RunConfig(values)


def _write_text(path: str, text: str) -> None:
    with data_mod.atomic_write(path) as fh:
        fh.write(text)


def _dataset_paths(directory: str) -> dict[str, str]:
    """The path of each pipeline file under `directory`, by its stem."""
    files = (
        "dataset.csv", "true_cate.csv", "schema.json", "train.csv", "valid.csv", "test.csv",
        "split_indices.txt", "tree.json",
    )
    return {os.path.splitext(f)[0]: os.path.join(directory, f) for f in files}


def _load_schema(path: str) -> data_mod.FeatureSchema:
    if not os.path.exists(path):
        raise ConfigError(f"schema file {path} not found; run `kdsm synth` or place one there")
    return data_mod.load_document(path, data_mod.FeatureSchema.from_jsonable)


def _load_split(cfg: RunConfig, names: tuple[str, ...]) -> tuple[data_mod.Dataset, ...]:
    """The named split files ("train", "valid", "test"), read under the
    data directory's schema; only those files need to exist."""
    paths = _dataset_paths(cfg.data_dir)
    schema = _load_schema(paths["schema"])
    for name in names:
        if not os.path.exists(paths[name]):
            raise ConfigError(f"{paths[name]} not found; run `kdsm split` first")
    return tuple(data_mod.load_csv(paths[name], schema) for name in names)


def cmd_synth(args) -> int:
    cfg = _load_run_config(args)
    synth_cfg = cfg.synthetic_config(derive_seed(cfg.seed, "synth"))
    ds, tau = data_mod.gen_synthetic(synth_cfg)
    os.makedirs(cfg.out_dir, exist_ok=True)
    out = _dataset_paths(cfg.out_dir)
    data_mod.save_csv(ds, out["dataset"])
    _write_text(out["true_cate"], "\n".join(["true_cate", *map(repr, tau.tolist())]) + "\n")
    _write_text(out["schema"], json.dumps(ds.schema.to_jsonable(), indent=1) + "\n")
    print(f"wrote {out['dataset']} ({ds.n} rows), {out['true_cate']}, {out['schema']}")
    return 0


def cmd_split(args) -> int:
    cfg = _load_run_config(args)
    paths = _dataset_paths(cfg.data_dir)
    schema = _load_schema(paths["schema"])
    if not os.path.exists(paths["dataset"]):
        raise ConfigError(f"{paths['dataset']} not found; run `kdsm synth` or place a dataset there")
    ds = data_mod.load_csv(paths["dataset"], schema)
    n_sub = cfg._get("split.subsample_per_arm", "int")
    if n_sub > 0:
        ds = data_mod.subsample_per_arm(ds, n_sub, derive_seed(cfg.seed, "subsample"))
    split = data_mod.split_dataset(ds, cfg.split_ratios(), derive_seed(cfg.seed, "split"))
    for w in split.warnings:
        print(f"warning: {w}", file=sys.stderr)
    os.makedirs(cfg.out_dir, exist_ok=True)
    out = _dataset_paths(cfg.out_dir)
    lines = ["# split indices v1"]
    for name in ("train", "valid", "test"):
        data_mod.save_csv(getattr(split, name), out[name])
        lines.append(f"{name}: " + " ".join(map(str, split.indices[name].tolist())))
    _write_text(out["split_indices"], "\n".join(lines) + "\n")
    # re-emit the schema with any first-appearance dictionaries pinned, so
    # every later stage codes the three files identically
    _write_text(out["schema"], json.dumps(ds.schema.to_jsonable(), indent=1) + "\n")
    print(
        f"wrote {out['train']} ({split.train.n}), {out['valid']} ({split.valid.n}), "
        f"{out['test']} ({split.test.n})"
    )
    return 0


def cmd_fit_tree(args) -> int:
    cfg = _load_run_config(args)
    (train,) = _load_split(cfg, ("train",))
    fitted = tree_mod.fit_tree(train, cfg.tree_params(), derive_seed(cfg.seed, "tree"))
    os.makedirs(cfg.out_dir, exist_ok=True)
    tree_path = os.path.join(cfg.out_dir, "tree.json")
    tree_mod.save_tree(fitted, tree_path)
    _write_text(os.path.join(cfg.out_dir, "leaf_summary.txt"), tree_mod.leaf_summary(fitted))
    print(f"wrote {tree_path} ({fitted.n_leaves} leaves)")
    return 0


def _save_predictor(obj, path: str) -> None:
    if isinstance(obj, distill.TwoModelResult):
        doc = {
            "format": TWO_MODEL_FORMAT,
            "treated": student.student_to_jsonable(obj.treated_model),
            "control": student.student_to_jsonable(obj.control_model),
        }
        with data_mod.atomic_write(path) as fh:
            json.dump(doc, fh)
            fh.write("\n")
    else:
        student.save_student(obj, path)


def load_predictor(path: str):
    """Load any predictor artifact (tree, student model, or two-model pair);
    returns (kind, its predict_uplift, schema)."""
    return data_mod.load_document(path, _predictor_from_jsonable)


# a student's kind in evaluate's output, by its head
STUDENT_KINDS = {"binary": "student", "regression": "mom"}


@document_errors("predictor document")
def _predictor_from_jsonable(obj: dict):
    fmt = obj.get("format")
    if fmt == tree_mod.TREE_FORMAT:
        kind, predictor = "tree", tree_mod.tree_from_jsonable(obj)
    elif fmt == student.MODEL_FORMAT:
        predictor = student.student_from_jsonable(obj)
        kind = STUDENT_KINDS[predictor.head]
    elif fmt == TWO_MODEL_FORMAT:
        kind = "two-model"
        predictor = distill.TwoModelResult(
            student.student_from_jsonable(obj["treated"]),
            student.student_from_jsonable(obj["control"]),
        )
    else:
        raise ConfigError(f"unknown predictor format {fmt!r}")
    return kind, predictor.predict_uplift, predictor.schema


def _train_one(cfg, seed, method, train, valid, tree, pair_stream=False):
    """Train `method` with the student and training settings of `cfg`, their
    seeds derived from the master seed `seed`."""
    student_cfg = cfg.student_config(derive_seed(seed, "student-init"))
    hyper = cfg.hyper(derive_seed(seed, "train"))
    drop = cfg._get("train.drop_leftovers", "bool")
    if method == "kdsm":
        return distill.train_kdsm(train, valid, tree, student_cfg, hyper, drop)
    if method == "kdss":
        return distill.train_kdss(train, valid, tree, student_cfg, hyper)
    if method == "plain":
        pair_tree = tree if pair_stream else None
        return distill.train_plain(train, valid, student_cfg, hyper, pair_tree, drop)
    if method == "tm":
        return distill.train_two_model(train, valid, student_cfg, hyper)
    if method == "mom":
        return distill.train_mom(train, valid, student_cfg, hyper)
    raise ConfigError(f"unknown method {method!r}")


def cmd_train(args) -> int:
    cfg = _load_run_config(args)
    method = args.method
    train, valid = _load_split(cfg, ("train", "valid"))
    teacher = None
    if method in ("kdsm", "kdss") or (method == "plain" and args.pair_stream):
        tree_path = _dataset_paths(cfg.data_dir)["tree"]
        if not os.path.exists(tree_path):
            raise ConfigError(
                f"--method {method} needs a fitted tree at {tree_path}; run `kdsm fit-tree` first"
            )
        teacher = tree_mod.load_tree(tree_path)
        if teacher.schema != train.schema:
            raise ConfigError("tree schema does not match the training data schema")
    model, report = _train_one(cfg, cfg.seed, method, train, valid, teacher, args.pair_stream)
    os.makedirs(cfg.out_dir, exist_ok=True)
    model_path = os.path.join(cfg.out_dir, f"model_{method}.json")
    _save_predictor(model, model_path)
    distill.write_train_report(report, os.path.join(cfg.out_dir, f"train_report_{method}.txt"))
    best = "undefined" if report.best_val_auuc is None else f"{report.best_val_auuc:.4f}"
    print(f"wrote {model_path} (best epoch {report.best_epoch}, val AUUC {best})")
    return 0


def cmd_evaluate(args) -> int:
    cfg = _load_run_config(args)
    (test,) = _load_split(cfg, ("test",))
    tie_seed = cfg.tie_seed(cfg.seed)
    os.makedirs(cfg.out_dir, exist_ok=True)
    for path in args.models:
        kind, predict, schema = load_predictor(path)
        if schema != test.schema:
            raise ConfigError(f"{path}: predictor schema does not match the test data schema")
        ev = metrics.rank_eval(predict(test.features), test.treatment, test.outcome, tie_seed)
        summary = metrics.summary(ev)
        stem = os.path.splitext(os.path.basename(path))[0]
        eval_dir = os.path.join(cfg.out_dir, f"eval_{stem}")
        os.makedirs(eval_dir, exist_ok=True)
        metrics.write_curve_csv(metrics.uplift_curve(ev), os.path.join(eval_dir, "uplift_curve.csv"))
        metrics.write_curve_csv(metrics.qini_curve(ev), os.path.join(eval_dir, "qini_curve.csv"))
        _write_text(os.path.join(eval_dir, "summary.json"), json.dumps(summary, indent=1) + "\n")
        print(
            f"{path} ({kind}): auuc={summary['auuc']:.4f} qini={summary['qini']:.6f} "
            f"-> {eval_dir}"
        )
    return 0


@dataclass
class CellResult:
    """One (method, seed) cell of a comparison: the summary record of its
    test split, or None and the error when training or scoring failed."""

    method: str
    seed: int
    summary: dict | None = None
    error: str = ""

    @property
    def failed(self) -> bool:
        return self.summary is None


@dataclass
class ComparisonReport:
    rows: list[CellResult]


def _run_cell(cfg, seed, method, split, teacher, out_dir) -> CellResult:
    """Train `method` on the seed's split and score its test split, writing the
    cell's artifacts under `out_dir`/cells unless it is None. Training or
    scoring that fails on the data gives a failed cell; a bad setting raises."""
    try:
        model, report = _train_one(cfg, seed, method, split.train, split.valid, teacher)
        test = split.test
        summary = metrics.evaluate_predictions(
            model.predict_uplift(test.features), test.treatment, test.outcome, cfg.tie_seed(seed)
        )
    except (FitError, TrainingError, MetricError) as e:
        return CellResult(method, seed, error=str(e))
    if out_dir is not None:
        cell_dir = os.path.join(out_dir, "cells", f"{method}_seed{seed}")
        os.makedirs(cell_dir, exist_ok=True)
        _save_predictor(model, os.path.join(cell_dir, "model.json"))
        distill.write_train_report(report, os.path.join(cell_dir, "train_report.txt"))
        _write_text(os.path.join(cell_dir, "summary.json"), json.dumps(summary, indent=1) + "\n")
    return CellResult(method, seed, summary)


def run_comparison(
    cfg: RunConfig,
    out_dir: str | None = None,
    methods: list[str] | None = None,
    seeds: list[int] | None = None,
    *,
    workers: int | None = None,
) -> ComparisonReport:
    """Train and evaluate every (method, seed) cell on fresh synthetic data.

    Per seed: one dataset, one split, and one teacher are shared by all
    methods; test rankings share one tie seed so curves are comparable. A
    failing cell is marked failed and the rest proceed. The cells run in
    `workers` processes, by default the fewer of the usable CPUs and the
    cells, or in this one if 1; the artifacts are the same at any count.
    """
    methods = methods if methods is not None else cfg.compare_methods()
    seeds = seeds if seeds is not None else cfg.compare_seeds()
    if workers is None:
        workers = min(len(os.sched_getaffinity(0)), len(methods) * len(seeds))
    # the workers start first, so that their imports overlap the teachers' fits
    with _cell_runner(cfg, workers) as run_cells:
        cells = []
        for seed in seeds:
            ds, _ = data_mod.gen_synthetic(cfg.synthetic_config(derive_seed(seed, "synth")))
            split = data_mod.split_dataset(ds, cfg.split_ratios(), derive_seed(seed, "split"))
            teacher = tree_mod.fit_tree(split.train, cfg.tree_params(), derive_seed(seed, "tree"))
            cells += [(seed, method, split, teacher, out_dir) for method in methods]
        report = ComparisonReport(run_cells(cells))
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        _write_text(os.path.join(out_dir, "comparison.txt"), format_comparison_report(report))
    return report


WORKER_CODE = "from kdsm.cli import _serve_cells; _serve_cells()"


@contextmanager
def _cell_runner(cfg: RunConfig, workers: int):
    """A function from cells to their results in cell order, which runs each
    in the next free of `workers` WORKER_CODE interpreters (killed and reaped
    on exit) and raises the first error, a cell's or a dead worker's."""
    if workers <= 1:
        yield lambda cells: [_run_cell(cfg, *cell) for cell in cells]
        return
    import queue
    import subprocess
    from concurrent.futures import ThreadPoolExecutor

    def run(cell):
        proc = free.get()
        try:
            pickle.dump((cfg.values, cell), proc.stdin, pickle.HIGHEST_PROTOCOL)
            proc.stdin.flush()
            reply = pickle.load(proc.stdout)
        except (OSError, EOFError, pickle.UnpicklingError):
            proc.kill()
            with suppress(OSError):  # a half-sent cell would fail the close on exit
                proc.stdin.close()
            raise KdsmError(f"a compare worker stopped with exit code {proc.wait()}") from None
        finally:
            free.put(proc)
        if isinstance(reply, Exception):
            raise reply
        return CellResult(**reply)

    # one BLAS thread each: two workers with two threads each ran 5x slower on 2 CPUs
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    src = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))  # where this kdsm lives
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    free = queue.SimpleQueue()
    cmd = [sys.executable, "-c", WORKER_CODE]
    options = {"stdin": subprocess.PIPE, "stdout": subprocess.PIPE, "env": env}
    with ExitStack() as stack:
        # unwound in reverse: the workers are killed, the threads end, the pipes close
        procs = [stack.enter_context(subprocess.Popen(cmd, **options)) for _ in range(workers)]
        threads = stack.enter_context(ThreadPoolExecutor(workers))
        for proc in procs:
            stack.callback(proc.kill)
            free.put(proc)
        yield lambda cells: list(threads.map(run, cells))


def _serve_cells() -> None:
    """A compare worker: answer each pickled (values, cell) on stdin with its result or error."""
    replies, sys.stdout = sys.stdout.buffer, sys.stderr  # prints go to stderr
    with suppress(EOFError):
        while True:
            values, cell = pickle.load(sys.stdin.buffer)
            try:
                reply = vars(_run_cell(RunConfig(values), *cell))
            except (KdsmError, OSError) as e:
                reply = e
            pickle.dump(reply, replies)
            replies.flush()


def _metric_cells(summary: dict | None) -> list[str]:
    """The auuc and qini columns of a report row: their exact reprs, or "-"."""
    return ["-", "-"] if summary is None else [repr(float(summary[k])) for k in ("auuc", "qini")]


def format_comparison_report(report: ComparisonReport) -> str:
    """Per-seed rows plus a median block sorted by median Qini, descending.
    A method's medians are taken over its ok cells; ties keep method order,
    and a method with no ok cell comes last."""
    lines = ["# comparison report v1", "method\tseed\tauuc\tqini\tstatus"]
    ok: dict[str, list[dict]] = {r.method: [] for r in report.rows}
    for r in report.rows:
        status = f"failed: {r.error}" if r.failed else "ok"
        lines.append("\t".join([r.method, str(r.seed), *_metric_cells(r.summary), status]))
        if not r.failed:
            ok[r.method].append(r.summary)
    medians = {
        m: {k: statistics.median(s[k] for s in cells) for k in ("auuc", "qini")} if cells else None
        for m, cells in ok.items()
    }
    lines.append("# medians (sorted by qini, descending)")
    lines.append("method\tauuc_median\tqini_median\tn_ok")
    for m in sorted(medians, key=lambda m: -medians[m]["qini"] if medians[m] else math.inf):
        lines.append("\t".join([m, *_metric_cells(medians[m]), str(len(ok[m]))]))
    return "\n".join(lines) + "\n"


def cmd_compare(args) -> int:
    cfg = _load_run_config(args)
    report = run_comparison(cfg, out_dir=cfg.out_dir)
    print(format_comparison_report(report), end="")
    failed = [r for r in report.rows if r.failed]
    if failed:
        print(f"warning: {len(failed)} cell(s) failed", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kdsm",
        description="Uplift modeling: tree teacher, distilled student, baselines, evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # the flags some commands read; each one's dest is the config key it overrides
    flags = {
        "--seed": dict(dest="seed", type=int, help="master seed (overrides config)"),
        "--lambda": dict(dest="train.lambda", type=float, help="soft-term weight"),
        "--criterion": dict(
            dest="tree.criterion", choices=("ed", "kl"), help="tree split criterion"
        ),
        "--drop-leftovers": dict(
            dest="train.drop_leftovers", action="store_const", const="true",
            help="train on matched pairs only, dropping unpaired rows",
        ),
        "--tie-seed": dict(dest="eval.tie_seed", type=int, help="ranking tie-break seed"),
    }

    def command(name, summary, *names):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--out", dest="out.dir", help="output directory")
        for flag in names:
            p.add_argument(flag, **flags[flag])
        return p

    command("synth", "generate a synthetic trial dataset", "--seed")
    command("split", "stratified train/valid/test split", "--seed")
    command("fit-tree", "fit the uplift tree teacher", "--seed", "--criterion")
    train = command(
        "train", "train a student or baseline", "--seed", "--lambda", "--drop-leftovers"
    )
    train.add_argument("--method", required=True, choices=METHODS)
    train.add_argument(
        "--pair-stream",
        action="store_true",
        help="plain only: consume the tree's pair-grouped stream",
    )
    evaluate = command(
        "evaluate", "rank the test split and report metrics", "--seed", "--tie-seed"
    )
    evaluate.add_argument("models", nargs="+", help="predictor file(s) to evaluate")
    command(
        "compare",
        "full method-by-seed comparison table",
        "--lambda",
        "--criterion",
        "--drop-leftovers",
        "--tie-seed",
    )
    return parser


COMMANDS = {
    "synth": cmd_synth,
    "split": cmd_split,
    "fit-tree": cmd_fit_tree,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "compare": cmd_compare,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (KdsmError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
