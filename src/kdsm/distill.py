"""Distilling an uplift tree into the response model.

Every epoch, treated and control rows are re-matched at random within each
teacher leaf; each matched pair trains the student with its two factual BCE
terms plus a soft term pulling the predicted uplift of the pair toward the
leaf's effect estimate. Unpaired surplus rows ("leftovers") train as plain
BCE singletons unless dropped. Re-matching changes partners every epoch
while keeping the total amount of data fixed.

Also provides the ablation that trains on single samples with two forward
passes each (factual BCE plus the same soft term on the sample's own
counterfactual gap), a plain BCE trainer, and two classic baselines: one
response model per arm, and squared-loss regression on the
propensity-transformed outcome.

All trainers share one loop: per-epoch unit streams, mini-batch gradient
steps, per-epoch validation ranking, early stopping with best-epoch
parameter restore, and learning-rate decay on validation stagnation. A soft
weight of exactly 0 short-circuits every distillation code path, so such
runs are bit-identical to plain BCE training on the same stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .data import Dataset, atomic_write, checked_features
from .errors import DomainError, FitError, MetricError, SchemaError, UndefinedMetricError
from .metrics import auuc, rank_eval
from .seeds import derive_seed
from .student import (
    LossBatch,
    OptimizerState,
    StepBuffers,
    StudentConfig,
    StudentModel,
    apply_update,
    backward,
    backward_mse,
    clone_params,
    forward_batch,
    init_optimizer,
    init_student,
)
from .tree import UpliftTree, leaf_of_batch


@dataclass
class EpochPlan:
    """One epoch's matching: parallel arrays over pairs, plus leftovers.

    Within a leaf, pairs appear in shuffle order; leaves appear in leaf_id
    order. `leftovers` holds the surplus rows of the larger arm of every
    leaf (and all rows of leaves missing an arm).
    """

    treated: np.ndarray
    control: np.ndarray
    leaf_ids: np.ndarray
    teacher_uplift: np.ndarray
    leftovers: np.ndarray

    @property
    def n_pairs(self) -> int:
        return self.treated.shape[0]


@dataclass(frozen=True)
class KdsmHyper:
    """Training hyperparameters shared by all trainers in this module;
    `drop_leftovers` is read only by the pair streams of kdsm and plain."""

    kd_weight: float = 0.5
    batch_size: int = 512
    max_epochs: int = 40
    early_stop_patience: int = 12
    master_seed: int = 0
    drop_leftovers: bool = False

    def __post_init__(self):
        if not (0.0 <= self.kd_weight < np.inf):
            raise DomainError(f"kd_weight={self.kd_weight} must be finite and >= 0")
        if self.batch_size < 1:
            raise DomainError(f"batch_size={self.batch_size} must be >= 1")
        if self.max_epochs < 1:
            raise DomainError(f"max_epochs={self.max_epochs} must be >= 1")
        if self.early_stop_patience < 1:
            raise DomainError(f"early_stop_patience={self.early_stop_patience} must be >= 1")


@dataclass
class EpochRecord:
    epoch: int
    hard_loss: float
    soft_loss: float
    val_auuc: float | None
    lr: float


@dataclass
class TrainReport:
    """Per-epoch loss decomposition and validation scores, plus which epoch's
    parameters the returned model carries."""

    method: str
    kd_weight: float
    records: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = -1
    best_val_auuc: float | None = None
    warnings: list[str] = field(default_factory=list)


def match_pairs(train: Dataset, tree: UpliftTree, epoch_seed: int) -> EpochPlan:
    """Randomly match treated to control rows within every teacher leaf.

    Both arms of a leaf are shuffled with a stream seeded by
    (epoch_seed, leaf_id) and zipped up to the smaller arm's size; surplus
    rows become leftovers. Every training row lands in exactly one pair or
    in the leftovers. Deterministic given (train, tree, epoch_seed).
    """
    return _matched(_leaf_arms(train, tree), tree.leaf_tau(), epoch_seed)


def _leaf_arms(train: Dataset, tree: UpliftTree) -> list[tuple[np.ndarray, np.ndarray]]:
    """The treated and the control rows of every teacher leaf, in leaf_id
    order, each in row order."""
    if tree.schema != train.schema:
        raise SchemaError("tree and training data have different schemas")
    leaf_ids = leaf_of_batch(tree, train.features)
    arms = []
    for leaf in range(tree.n_leaves):
        rows = np.flatnonzero(leaf_ids == leaf)
        arms.append((rows[train.treatment[rows] == 1], rows[train.treatment[rows] == 0]))
    return arms


def _matched(arms: list, leaf_tau: np.ndarray, epoch_seed: int) -> EpochPlan:
    """`match_pairs` on the `_leaf_arms` of a training set and the leaves'
    effect estimates."""
    pairs, leftovers = [], []
    for leaf, (tr, co) in enumerate(arms):
        rng = np.random.default_rng(derive_seed(epoch_seed, "leaf", leaf))
        tr, co = rng.permutation(tr), rng.permutation(co)
        k = min(tr.size, co.size)
        pairs.append((tr[:k], co[:k], np.full(k, leaf, dtype=np.int64)))
        leftovers += [tr[k:], co[k:]]
    treated, control, leafs = map(np.concatenate, zip(*pairs))
    return EpochPlan(treated, control, leafs, leaf_tau[leafs], np.concatenate(leftovers))


@dataclass
class _Units:
    """One epoch's stream of training units in parallel arrays.

    A unit with b >= 0 is a pair: a treated pass on row a, a control pass on
    row b, and u, the target of its soft term. A single-sample distillation
    unit is a pair with a == b. A unit with b == -1 is a singleton: one pass
    on the row's own arm, with no soft term.
    """

    a: np.ndarray
    b: np.ndarray
    u: np.ndarray

    def __len__(self) -> int:
        return self.a.shape[0]

    def shuffled(self, seed: int) -> _Units:
        perm = np.random.default_rng(seed).permutation(len(self))
        return _Units(self.a[perm], self.b[perm], self.u[perm])


def _pair_stream(train: Dataset, tree: UpliftTree, drop_leftovers: bool):
    """Epoch seed -> that epoch's pairs matched in the tree's leaves, with
    the leaves' effect estimates as targets, plus the leftovers as
    singletons unless dropped, shuffled together. Routes the rows through
    the tree once; an epoch only permutes each leaf's arms."""
    arms = _leaf_arms(train, tree)
    leaf_tau = tree.leaf_tau()

    def build(epoch_seed: int) -> _Units:
        plan = _matched(arms, leaf_tau, epoch_seed)
        rest = plan.leftovers[:0] if drop_leftovers else plan.leftovers
        units = _Units(
            np.concatenate([plan.treated, rest]),
            np.concatenate([plan.control, np.full(rest.size, -1, np.int64)]),
            np.concatenate([plan.teacher_uplift, np.full(rest.size, np.nan)]),
        )
        return units.shuffled(derive_seed(epoch_seed, "stream"))

    return build


def _row_stream(n: int, teacher_uplift: np.ndarray | None = None, tags: tuple[str, ...] = ()):
    """Epoch seed -> every one of n rows as one unit, shuffled by a stream
    seeded from (epoch_seed, "stream", *tags). A row is a singleton, or,
    given the teacher's uplift per row, a pair of the row with itself."""
    rows = np.arange(n, dtype=np.int64)
    if teacher_uplift is None:
        units = _Units(rows, np.full(n, -1, np.int64), np.full(n, np.nan))
    else:
        units = _Units(rows, rows, teacher_uplift)
    return lambda epoch_seed: units.shuffled(derive_seed(epoch_seed, "stream", *tags))


def _assemble_batch(ds: Dataset, units: _Units, start: int, stop: int, kd_weight: float) -> LossBatch:
    """Stack the forward passes of units[start:stop] into one LossBatch.

    Pass layout: the treated pass of every pair, the control pass of every
    pair, then every singleton on its own arm. A pass trains BCE only where
    its treatment input is the row's own arm, so the counterfactual pass of
    a single-sample unit feeds the soft term alone. The soft term is
    materialized only when kd_weight > 0.
    """
    a = units.a[start:stop]
    b = units.b[start:stop]
    pair = b >= 0
    k = int(np.count_nonzero(pair))
    single = a[~pair]
    rows = np.concatenate([a[pair], b[pair], single])
    T = np.concatenate([np.ones(k), np.zeros(k), ds.treatment[single].astype(np.float64)])
    if kd_weight > 0.0 and k:
        kd_pairs = np.stack([np.arange(k), k + np.arange(k)], axis=1)
        targets = units.u[start:stop][pair]
    else:
        kd_pairs = np.zeros((0, 2), dtype=np.int64)
        targets = np.zeros(0)
    return LossBatch(
        X=ds.features[rows],
        T=T,
        y=ds.outcome[rows].astype(np.float64),
        bce_weight=(ds.treatment[rows] == T).astype(np.float64),
        kd_pairs=kd_pairs,
        kd_targets=targets,
        lam=kd_weight,
        n_units=stop - start,
    )


@dataclass
class _Track:
    """One (model, optimizer, stream, loss step) trained inside the shared
    loop: `build_units(epoch_seed)` gives an epoch's _Units, and
    `step(units, start, stop)` the (grads, LossParts) of units[start:stop]."""

    model: StudentModel
    opt: OptimizerState
    build_units: object
    step: object


def _bce_track(model: StudentModel, ds: Dataset, stream, kd_weight: float) -> _Track:
    """A track of `model` on `ds` with the BCE and soft terms of `_assemble_batch`."""
    checked_features(ds.schema, ds.features)  # so an error names its row of ds, not of a batch
    bufs = StepBuffers(model)

    def step(units, start, stop):  # `backward` by module name, which a tracer rebinds
        return backward(model, _assemble_batch(ds, units, start, stop, kd_weight), bufs)

    return _Track(model, init_optimizer(model), stream, step)


def _run_epoch(track: _Track, epoch_seed: int, batch_size: int) -> tuple[float, float, int]:
    units = track.build_units(epoch_seed)
    hard_sum = soft_sum = 0.0
    n_units = len(units)
    for start in range(0, n_units, batch_size):
        stop = min(start + batch_size, n_units)
        grads, parts = track.step(units, start, stop)
        apply_update(track.model, grads, track.opt)
        hard_sum += parts.hard * (stop - start)
        soft_sum += parts.soft * (stop - start)
    return hard_sum, soft_sum, n_units


def _train_loop(
    tracks: list[_Track],
    valid: Dataset,
    hyper: KdsmHyper,
    predictor,
    report: TrainReport,
) -> TrainReport:
    """Shared training loop: epochs over every track, validation ranking of
    `predictor.predict_uplift`, early stopping with best-epoch restore, lr
    decay on stagnation. Fills in and returns `report`."""
    tie_seed = derive_seed(hyper.master_seed, "valid-ties")
    best_snapshots = None
    since_improve = 0
    since_decay = 0
    for epoch in range(hyper.max_epochs):
        epoch_seed = derive_seed(hyper.master_seed, "epoch", epoch)
        hard_sum = soft_sum = 0.0
        total_units = 0
        for track in tracks:
            h, s, nu = _run_epoch(track, epoch_seed, hyper.batch_size)
            hard_sum += h
            soft_sum += s
            total_units += nu
        val = None
        try:
            preds = predictor.predict_uplift(valid.features)
            val = auuc(rank_eval(preds, valid.treatment, valid.outcome, tie_seed))
        except UndefinedMetricError:
            report.warnings.append(f"epoch {epoch}: validation AUUC undefined")
        except MetricError as e:
            report.warnings.append(f"epoch {epoch}: validation ranking failed: {e}")
        lr_now = tracks[0].opt.lr
        report.records.append(
            EpochRecord(
                epoch=epoch,
                hard_loss=hard_sum / max(total_units, 1),
                soft_loss=soft_sum / max(total_units, 1),
                val_auuc=val,
                lr=lr_now,
            )
        )
        improved = val is not None and (
            report.best_val_auuc is None or val > report.best_val_auuc
        )
        if improved:
            report.best_val_auuc = val
            report.best_epoch = epoch
            best_snapshots = [clone_params(t.model) for t in tracks]
            since_improve = 0
            since_decay = 0
        else:
            since_improve += 1
            since_decay += 1
            if since_decay >= tracks[0].model.config.lr_decay_patience:
                for t in tracks:
                    t.opt.lr *= t.model.config.lr_decay_factor
                since_decay = 0
        if since_improve >= hyper.early_stop_patience:
            break
    if best_snapshots is not None:
        for t, snap in zip(tracks, best_snapshots):
            t.model.params[...] = snap
    else:
        report.warnings.append("no epoch produced a defined validation AUUC; keeping final parameters")
    return report


def _check_two_arms(ds: Dataset, what: str) -> None:
    if not (ds.treatment == 1).any() or not (ds.treatment == 0).any():
        raise FitError(f"{what} needs both treatment arms present")


def _train_student(
    method: str,
    train: Dataset,
    valid: Dataset,
    student_cfg: StudentConfig,
    hyper: KdsmHyper,
    stream,
    kd_weight: float = 0.0,
) -> tuple[StudentModel, TrainReport]:
    """Train one student on `stream` (epoch seed -> _Units) in the shared
    loop, with soft weight `kd_weight`."""
    model = init_student(student_cfg, train)
    track = _bce_track(model, train, stream, kd_weight)
    report = _train_loop([track], valid, hyper, model, TrainReport(method, kd_weight))
    return model, report


def train_kdsm(
    train: Dataset,
    valid: Dataset,
    tree: UpliftTree,
    student_cfg: StudentConfig,
    hyper: KdsmHyper,
) -> tuple[StudentModel, TrainReport]:
    """Distill the tree into a student on freshly matched pairs each epoch.

    Pairs contribute two factual BCE terms plus the weighted squared gap
    between the leaf estimate and the pair's predicted uplift; leftovers
    contribute plain BCE unless `hyper.drop_leftovers`. kd_weight == 0
    degenerates to plain training on the identical stream, bit for bit.
    """
    _check_two_arms(train, "distillation training")
    stream = _pair_stream(train, tree, hyper.drop_leftovers)
    return _train_student("kdsm", train, valid, student_cfg, hyper, stream, hyper.kd_weight)


def train_kdss(
    train: Dataset,
    valid: Dataset,
    tree: UpliftTree,
    student_cfg: StudentConfig,
    hyper: KdsmHyper,
) -> tuple[StudentModel, TrainReport]:
    """Single-sample ablation: every row trains with its factual BCE term
    plus the soft term on its own counterfactual gap, using the row's leaf
    estimate as the target. kd_weight == 0 is bit-identical to plain
    training on the same stream."""
    _check_two_arms(train, "distillation training")
    if tree.schema != train.schema:
        raise SchemaError("tree and training data have different schemas")
    teacher = tree.predict_uplift(train.features) if hyper.kd_weight > 0.0 else None
    stream = _row_stream(train.n, teacher)
    return _train_student("kdss", train, valid, student_cfg, hyper, stream, hyper.kd_weight)


def train_plain(
    train: Dataset,
    valid: Dataset,
    student_cfg: StudentConfig,
    hyper: KdsmHyper,
    pair_stream_tree: UpliftTree | None = None,
) -> tuple[StudentModel, TrainReport]:
    """Plain BCE training of the response model, no teacher.

    By default every epoch shuffles all rows as singletons. Passing
    `pair_stream_tree` makes the trainer consume the exact pair-grouped unit
    stream distillation would build from that tree (targets ignored), so
    runs are comparable sample for sample.
    """
    _check_two_arms(train, "uplift training")
    if pair_stream_tree is None:
        stream = _row_stream(train.n)
    else:
        stream = _pair_stream(train, pair_stream_tree, hyper.drop_leftovers)
    return _train_student("plain", train, valid, student_cfg, hyper, stream)


@dataclass
class TwoModelResult:
    """Separate response models for the treated and control arms; the uplift
    prediction is their probability difference."""

    treated_model: StudentModel
    control_model: StudentModel

    def __post_init__(self):
        if self.treated_model.schema != self.control_model.schema:
            raise SchemaError("the treated and control models have different schemas")

    @property
    def schema(self):
        return self.treated_model.schema

    def predict_uplift(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        # X.shape[:1] is () for a scalar X, which forward_batch then rejects
        return forward_batch(self.treated_model, X, np.ones(X.shape[:1])) - forward_batch(
            self.control_model, X, np.zeros(X.shape[:1])
        )


def train_two_model(
    train: Dataset,
    valid: Dataset,
    student_cfg: StudentConfig,
    hyper: KdsmHyper,
) -> tuple[TwoModelResult, TrainReport]:
    """Classic two-model baseline: one response model per arm, trained in
    lockstep epochs with early stopping on the joint validation ranking.
    The two models draw independent init seeds from student_cfg.init_seed."""
    _check_two_arms(train, "two-model training")
    checked_features(train.schema, train.features)  # so an error names its row of train
    tracks = []
    for arm, tag in ((1, "treated"), (0, "control")):
        ds = train.subset(np.flatnonzero(train.treatment == arm))
        cfg = replace(student_cfg, init_seed=derive_seed(student_cfg.init_seed, tag))
        model = init_student(cfg, ds)
        stream = _row_stream(ds.n, tags=(tag,))
        tracks.append(_bce_track(model, ds, stream, 0.0))
    result = TwoModelResult(tracks[0].model, tracks[1].model)
    report = _train_loop(tracks, valid, hyper, result, TrainReport("tm", kd_weight=0.0))
    return result, report


def transformed_outcome(ds: Dataset) -> np.ndarray:
    """Propensity-transformed outcome Y*: y*t/p - y*(1-t)/(1-p) with p the
    empirical treated fraction; E[Y*|x] equals the treatment effect under
    randomized assignment."""
    _check_two_arms(ds, "transformed outcome")
    p = float(ds.treatment.mean())
    y = ds.outcome.astype(np.float64)
    t = ds.treatment.astype(np.float64)
    return y * t / p - y * (1.0 - t) / (1.0 - p)


def train_mom(
    train: Dataset,
    valid: Dataset,
    student_cfg: StudentConfig,
    hyper: KdsmHyper,
) -> tuple[StudentModel, TrainReport]:
    """Transformed-outcome baseline: fit the network as a squared-loss
    regressor of Y*; its raw output is the uplift prediction. The final bias
    starts at the mean transformed outcome (the pooled effect estimate)."""
    targets = transformed_outcome(train)
    checked_features(train.schema, train.features)  # so an error names its row of train
    model = init_student(student_cfg, train, head="regression", final_bias=float(targets.mean()))
    bufs = StepBuffers(model)

    def step(units, start, stop):  # `backward_mse` by module name, which a tracer rebinds
        rows = units.a[start:stop]
        return backward_mse(model, train.features[rows], targets[rows], stop - start, bufs)

    track = _Track(model, init_optimizer(model), _row_stream(train.n), step)
    report = _train_loop([track], valid, hyper, model, TrainReport("mom", kd_weight=0.0))
    return model, report


def format_train_report(report: TrainReport) -> str:
    """Structured text: one epoch per line plus a summary block."""
    lines = ["# train report v1", f"method={report.method}", f"kd_weight={repr(float(report.kd_weight))}"]
    for r in report.records:
        val = "undefined" if r.val_auuc is None else repr(float(r.val_auuc))
        lines.append(
            f"epoch={r.epoch} hard={repr(float(r.hard_loss))} soft={repr(float(r.soft_loss))} "
            f"val_auuc={val} lr={repr(float(r.lr))}"
        )
    lines.append("# summary")
    lines.append(f"epochs_run={len(report.records)}")
    lines.append(f"best_epoch={report.best_epoch}")
    best = "undefined" if report.best_val_auuc is None else repr(float(report.best_val_auuc))
    lines.append(f"best_val_auuc={best}")
    for w in report.warnings:
        lines.append(f"warning={w}")
    return "\n".join(lines) + "\n"


def write_train_report(report: TrainReport, path: str) -> None:
    with atomic_write(path) as fh:
        fh.write(format_train_report(report))
