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

from .data import Dataset, atomic_write
from .errors import DomainError, FitError, MetricError, SchemaError, UndefinedMetricError
from .metrics import auuc, rank_eval
from .seeds import derive_seed
from .student import (
    LossBatch,
    OptimizerState,
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

PAIR, SINGLE, KD_SINGLE = 0, 1, 2


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
    epoch_seed: int

    @property
    def n_pairs(self) -> int:
        return self.treated.shape[0]


@dataclass(frozen=True)
class KdsmHyper:
    """Training hyperparameters shared by all trainers in this module."""

    kd_weight: float = 0.5
    batch_size: int = 512
    max_epochs: int = 50
    early_stop_patience: int = 20
    master_seed: int = 0

    def validate(self) -> None:
        if self.kd_weight < 0:
            raise DomainError(f"kd_weight={self.kd_weight} must be >= 0")
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
    if tree.schema != train.schema:
        raise SchemaError("tree and training data have different schemas")
    leaf_ids = leaf_of_batch(tree, train.features)
    taus = tree.leaf_tau()
    treated_parts: list[np.ndarray] = []
    control_parts: list[np.ndarray] = []
    leaf_parts: list[np.ndarray] = []
    leftover_parts: list[np.ndarray] = []
    for leaf in range(tree.n_leaves):
        rows = np.flatnonzero(leaf_ids == leaf)
        tr = rows[train.treatment[rows] == 1]
        co = rows[train.treatment[rows] == 0]
        rng = np.random.default_rng(derive_seed(epoch_seed, "leaf", leaf))
        tr = rng.permutation(tr)
        co = rng.permutation(co)
        k = min(tr.size, co.size)
        treated_parts.append(tr[:k])
        control_parts.append(co[:k])
        leaf_parts.append(np.full(k, leaf, dtype=np.int64))
        leftover_parts.append(tr[k:])
        leftover_parts.append(co[k:])
    treated = np.concatenate(treated_parts) if treated_parts else np.array([], dtype=np.int64)
    control = np.concatenate(control_parts) if control_parts else np.array([], dtype=np.int64)
    leafs = np.concatenate(leaf_parts) if leaf_parts else np.array([], dtype=np.int64)
    leftovers = (
        np.concatenate(leftover_parts) if leftover_parts else np.array([], dtype=np.int64)
    )
    return EpochPlan(
        treated=treated,
        control=control,
        leaf_ids=leafs,
        teacher_uplift=taus[leafs] if leafs.size else np.array([], dtype=np.float64),
        leftovers=leftovers,
        epoch_seed=epoch_seed,
    )


@dataclass
class _Units:
    """One epoch's shuffled unit stream in parallel arrays.

    kind: PAIR (a=treated row, b=control row), SINGLE (a only), or KD_SINGLE
    (a with its own counterfactual pass). u is the soft-term target, NaN
    where a unit has none.
    """

    kind: np.ndarray
    a: np.ndarray
    b: np.ndarray
    u: np.ndarray

    def __len__(self) -> int:
        return self.kind.shape[0]


def _shuffled(units: _Units, rng: np.random.Generator) -> _Units:
    perm = rng.permutation(len(units))
    return _Units(units.kind[perm], units.a[perm], units.b[perm], units.u[perm])


def _units_from_plan(plan: EpochPlan, drop_leftovers: bool, with_teacher: bool) -> _Units:
    n_p = plan.n_pairs
    leftovers = plan.leftovers[:0] if drop_leftovers else plan.leftovers
    n_l = leftovers.shape[0]
    kind = np.concatenate([np.full(n_p, PAIR, np.int8), np.full(n_l, SINGLE, np.int8)])
    a = np.concatenate([plan.treated, leftovers])
    b = np.concatenate([plan.control, np.full(n_l, -1, np.int64)])
    if with_teacher:
        u = np.concatenate([plan.teacher_uplift, np.full(n_l, np.nan)])
    else:
        u = np.full(n_p + n_l, np.nan)
    return _Units(kind, a, b, u)


def _pair_stream_builder(train, tree, drop_leftovers, with_teacher):
    def build(epoch_seed: int) -> _Units:
        plan = match_pairs(train, tree, epoch_seed)
        units = _units_from_plan(plan, drop_leftovers, with_teacher)
        return _shuffled(units, np.random.default_rng(derive_seed(epoch_seed, "stream")))

    return build


def _single_stream_builder(train, teacher_uplift_per_row=None, tags: tuple[str, ...] = ()):
    """Every row of `train` as one unit, reshuffled each epoch by a stream
    seeded from (epoch_seed, "stream", *tags)."""
    n = train.n

    def build(epoch_seed: int) -> _Units:
        if teacher_uplift_per_row is None:
            kind = np.full(n, SINGLE, np.int8)
            u = np.full(n, np.nan)
        else:
            kind = np.full(n, KD_SINGLE, np.int8)
            u = teacher_uplift_per_row
        units = _Units(kind, np.arange(n, dtype=np.int64), np.full(n, -1, np.int64), u)
        return _shuffled(units, np.random.default_rng(derive_seed(epoch_seed, "stream", *tags)))

    return build


def _assemble_batch(ds: Dataset, units: _Units, start: int, stop: int, kd_weight: float) -> LossBatch:
    """Stack the forward passes of units[start:stop] into one LossBatch.

    Pass layout: pair-treated block, pair-control block, singleton block,
    then the two passes (treated, control) of every KD singleton. The soft
    term is materialized only when kd_weight > 0.
    """
    kind = units.kind[start:stop]
    a = units.a[start:stop]
    b = units.b[start:stop]
    u = units.u[start:stop]
    is_pair = kind == PAIR
    is_single = kind == SINGLE
    is_kds = kind == KD_SINGLE
    pa = a[is_pair]
    pb = b[is_pair]
    sa = a[is_single]
    ka = a[is_kds]

    rows = np.concatenate([pa, pb, sa, ka, ka])
    T = np.concatenate(
        [
            np.ones(pa.size),
            np.zeros(pb.size),
            ds.treatment[sa].astype(np.float64),
            np.ones(ka.size),
            np.zeros(ka.size),
        ]
    )
    y = ds.outcome[rows].astype(np.float64)
    t_ka = ds.treatment[ka]
    w = np.concatenate(
        [
            np.ones(pa.size + pb.size + sa.size),
            (t_ka == 1).astype(np.float64),
            (t_ka == 0).astype(np.float64),
        ]
    )
    if kd_weight > 0.0 and (pa.size or ka.size):
        off_pb = pa.size
        off_ka1 = pa.size + pb.size + sa.size
        off_ka0 = off_ka1 + ka.size
        idx_pairs = np.concatenate(
            [
                np.stack([np.arange(pa.size), off_pb + np.arange(pb.size)], axis=1),
                np.stack(
                    [off_ka1 + np.arange(ka.size), off_ka0 + np.arange(ka.size)], axis=1
                ),
            ]
        ).astype(np.int64)
        targets = np.concatenate([u[is_pair], u[is_kds]])
    else:
        idx_pairs = np.zeros((0, 2), dtype=np.int64)
        targets = np.zeros(0)
    return LossBatch(
        X=ds.features[rows],
        T=T,
        y=y,
        bce_weight=w,
        kd_pairs=idx_pairs,
        kd_targets=targets,
        lam=kd_weight,
        n_units=stop - start,
    )


@dataclass
class _Track:
    """One (model, optimizer, data, stream) trained inside the shared loop."""

    model: StudentModel
    opt: OptimizerState
    ds: Dataset
    build_units: object  # epoch_seed -> _Units
    kd_weight: float
    mse_targets: np.ndarray | None = None


def _run_epoch(track: _Track, epoch_seed: int, batch_size: int) -> tuple[float, float, int]:
    units = track.build_units(epoch_seed)
    hard_sum = 0.0
    soft_sum = 0.0
    n_units = len(units)
    for start in range(0, n_units, batch_size):
        stop = min(start + batch_size, n_units)
        if track.mse_targets is not None:
            rows = units.a[start:stop]
            grads, parts = backward_mse(
                track.model,
                track.ds.features[rows],
                track.mse_targets[rows],
                n_units=stop - start,
                return_loss=True,
            )
        else:
            batch = _assemble_batch(track.ds, units, start, stop, track.kd_weight)
            grads, parts = backward(track.model, batch, return_loss=True)
        apply_update(track.model, grads, track.opt)
        hard_sum += parts.hard * (stop - start)
        soft_sum += parts.soft * (stop - start)
    return hard_sum, soft_sum, n_units


def _train_loop(
    tracks: list[_Track],
    valid: Dataset,
    hyper: KdsmHyper,
    predictor,
    method: str,
    kd_weight: float,
) -> TrainReport:
    """Shared training loop: epochs over every track, validation ranking of
    `predictor.predict_uplift`, early stopping with best-epoch restore, lr
    decay on stagnation."""
    report = TrainReport(method=method, kd_weight=kd_weight)
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


def train_kdsm(
    train: Dataset,
    valid: Dataset,
    tree: UpliftTree,
    student_cfg: StudentConfig,
    hyper: KdsmHyper,
    drop_leftovers: bool = False,
) -> tuple[StudentModel, TrainReport]:
    """Distill the tree into a student on freshly matched pairs each epoch.

    Pairs contribute two factual BCE terms plus the weighted squared gap
    between the leaf estimate and the pair's predicted uplift; leftovers
    contribute plain BCE unless dropped. kd_weight == 0 degenerates to
    plain training on the identical stream, bit for bit.
    """
    hyper.validate()
    _check_two_arms(train, "distillation training")
    if tree.schema != train.schema:
        raise SchemaError("tree and training data have different schemas")
    model = init_student(student_cfg, train)
    track = _Track(
        model=model,
        opt=init_optimizer(student_cfg, model),
        ds=train,
        build_units=_pair_stream_builder(train, tree, drop_leftovers, with_teacher=True),
        kd_weight=hyper.kd_weight,
    )
    report = _train_loop(
        [track],
        valid,
        hyper,
        predictor=model,
        method="kdsm",
        kd_weight=hyper.kd_weight,
    )
    return model, report


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
    hyper.validate()
    _check_two_arms(train, "distillation training")
    if tree.schema != train.schema:
        raise SchemaError("tree and training data have different schemas")
    model = init_student(student_cfg, train)
    per_row = tree.leaf_tau()[leaf_of_batch(tree, train.features)]
    builder = _single_stream_builder(train, per_row if hyper.kd_weight > 0.0 else None)
    track = _Track(
        model=model,
        opt=init_optimizer(student_cfg, model),
        ds=train,
        build_units=builder,
        kd_weight=hyper.kd_weight,
    )
    report = _train_loop(
        [track],
        valid,
        hyper,
        predictor=model,
        method="kdss",
        kd_weight=hyper.kd_weight,
    )
    return model, report


def train_plain(
    train: Dataset,
    valid: Dataset,
    student_cfg: StudentConfig,
    hyper: KdsmHyper,
    pair_stream_tree: UpliftTree | None = None,
    drop_leftovers: bool = False,
) -> tuple[StudentModel, TrainReport]:
    """Plain BCE training of the response model, no teacher.

    By default every epoch shuffles all rows as singletons. Passing
    `pair_stream_tree` makes the trainer consume the exact pair-grouped unit
    stream distillation would build from that tree (targets ignored), so
    runs are comparable sample for sample.
    """
    hyper.validate()
    _check_two_arms(train, "uplift training")
    model = init_student(student_cfg, train)
    if pair_stream_tree is not None:
        builder = _pair_stream_builder(train, pair_stream_tree, drop_leftovers, with_teacher=False)
    else:
        builder = _single_stream_builder(train, None)
    track = _Track(
        model=model,
        opt=init_optimizer(student_cfg, model),
        ds=train,
        build_units=builder,
        kd_weight=0.0,
    )
    report = _train_loop(
        [track],
        valid,
        hyper,
        predictor=model,
        method="plain",
        kd_weight=0.0,
    )
    return model, report


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
        return forward_batch(self.treated_model, X, np.ones(X.shape[0])) - forward_batch(
            self.control_model, X, np.zeros(X.shape[0])
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
    hyper.validate()
    _check_two_arms(train, "two-model training")
    tr_t = train.subset(np.flatnonzero(train.treatment == 1))
    tr_c = train.subset(np.flatnonzero(train.treatment == 0))
    cfg_t = replace(student_cfg, init_seed=derive_seed(student_cfg.init_seed, "treated"))
    cfg_c = replace(student_cfg, init_seed=derive_seed(student_cfg.init_seed, "control"))
    m_t = init_student(cfg_t, tr_t)
    m_c = init_student(cfg_c, tr_c)
    tracks = [
        _Track(m_t, init_optimizer(cfg_t, m_t), tr_t, _single_stream_builder(tr_t, tags=("treated",)), 0.0),
        _Track(m_c, init_optimizer(cfg_c, m_c), tr_c, _single_stream_builder(tr_c, tags=("control",)), 0.0),
    ]
    result = TwoModelResult(m_t, m_c)
    report = _train_loop(
        tracks,
        valid,
        hyper,
        predictor=result,
        method="tm",
        kd_weight=0.0,
    )
    return result, report


def transformed_outcome(ds: Dataset) -> np.ndarray:
    """Propensity-transformed outcome Y*: y*t/p - y*(1-t)/(1-p) with p the
    empirical treated fraction; E[Y*|x] equals the treatment effect under
    randomized assignment."""
    p = float(ds.treatment.mean())
    if not (0.0 < p < 1.0):
        raise FitError("transformed outcome needs both treatment arms present")
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
    hyper.validate()
    targets = transformed_outcome(train)
    model = init_student(
        student_cfg, train, head="regression", final_bias=float(targets.mean())
    )
    track = _Track(
        model=model,
        opt=init_optimizer(student_cfg, model),
        ds=train,
        build_units=_single_stream_builder(train, None),
        kd_weight=0.0,
        mse_targets=targets,
    )
    report = _train_loop(
        [track],
        valid,
        hyper,
        predictor=model,
        method="mom",
        kd_weight=0.0,
    )
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
