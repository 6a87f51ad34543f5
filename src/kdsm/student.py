"""Feed-forward response model over [covariates, treatment].

The input layer concatenates standardized numeric features, learned
embeddings of the categorical codes, and the raw treatment bit. Hidden
layers use relu or tanh; the single output unit is a logit, clamped to
[-30, 30] before the sigmoid so probabilities stay strictly inside (0, 1).
The predicted uplift of a subject is forward(x, 1) - forward(x, 0).

`backward` returns exact analytic gradients of a batch loss made of
per-pass binary cross-entropy terms plus an optional pairwise soft term
lam * (target - (p_treated - p_control))^2, mean-reduced over loss units,
together with that loss's `LossParts`.
A `lam` of exactly 0 skips the soft term entirely (no 0-weighted
arithmetic), which training relies on for bit-exact reductions.

Models with a "regression" head reuse the same stack with a raw linear
output and squared-error loss (see `backward_mse`); used by the transformed
outcome baseline.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .data import (
    Dataset, FeatureSchema, atomic_write, checked_features, config_from_jsonable, is_number,
    load_document,
)
from .errors import DomainError, ParseError, SchemaError, TrainingError, document_errors

MODEL_FORMAT = "student-model/v1"
LOGIT_CLAMP = 30.0
PROB_EPS = 1e-7
#: Rows per block of the inference routine; keeps a block's layer arrays in
#: L2 cache and fixes its working memory whatever the number of rows scored.
SCORE_BLOCK_ROWS = 1024
#: Rows per chunk of a weight gradient's batch sum, whose BLAS bits vary with its thread count.
GRAD_CHUNK_ROWS = 128


@dataclass(frozen=True)
class StudentConfig:
    """Architecture and optimization settings for the response model."""

    hidden_sizes: tuple[int, ...] = (64, 32)
    embedding_dim: int = 8
    activation: str = "relu"
    optimizer: str = "adam"
    momentum: float = 0.0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    learning_rate: float = 1e-2
    lr_decay_factor: float = 0.5
    lr_decay_patience: int = 6
    init_seed: int = 0

    def __post_init__(self):
        if any(h < 1 for h in self.hidden_sizes):
            raise DomainError(f"hidden sizes must be positive, got {self.hidden_sizes}")
        if self.embedding_dim < 1:
            raise DomainError(f"embedding_dim={self.embedding_dim} must be >= 1")
        if self.activation not in ("relu", "tanh"):
            raise DomainError(f"activation must be 'relu' or 'tanh', got {self.activation!r}")
        if self.optimizer not in ("sgd", "adam"):
            raise DomainError(f"optimizer must be 'sgd' or 'adam', got {self.optimizer!r}")
        for name in ("momentum", "beta1", "beta2"):
            if not (0.0 <= getattr(self, name) < 1.0):
                raise DomainError(f"{name}={getattr(self, name)} must lie in [0, 1)")
        for name in ("eps", "learning_rate"):
            if not (0.0 < getattr(self, name) < math.inf):
                raise DomainError(f"{name}={getattr(self, name)} must be finite and > 0")
        if not (0.0 < self.lr_decay_factor < 1.0):
            raise DomainError(f"lr_decay_factor={self.lr_decay_factor} must lie in (0, 1)")
        if self.lr_decay_patience < 1:
            raise DomainError(f"lr_decay_patience={self.lr_decay_patience} must be >= 1")


def _param_shapes(cfg: StudentConfig, schema: FeatureSchema):
    """Shapes of the parameter arrays in storage order, as three lists: one
    embedding table per categorical column, the layer weights, the layer
    biases."""
    dims = [
        schema.numeric_indices.size + schema.categorical_indices.size * cfg.embedding_dim + 1,
        *cfg.hidden_sizes,
        1,
    ]
    embeddings = [(card, cfg.embedding_dim) for card in schema.cardinalities.tolist()]
    return embeddings, list(zip(dims[:-1], dims[1:])), [(d,) for d in dims[1:]]


def param_views(cfg: StudentConfig, schema: FeatureSchema, vec: np.ndarray):
    """(embeddings, weights, biases): lists of views into the flat vector
    `vec`, laid out as `_param_shapes` gives them. Serves the parameters and
    their gradients alike."""
    groups = []
    off = 0
    for shapes in _param_shapes(cfg, schema):
        views = []
        for shape in shapes:
            views.append(vec[off : off + math.prod(shape)].reshape(shape))
            off += math.prod(shape)
        groups.append(views)
    return tuple(groups)


def _n_params(cfg: StudentConfig, schema: FeatureSchema) -> int:
    return sum(math.prod(shape) for shapes in _param_shapes(cfg, schema) for shape in shapes)


@dataclass
class StudentModel:
    """Parameters plus the data statistics baked in at init time.

    All parameters live in one contiguous float64 vector, `params`;
    `embeddings`, `weights` and `biases` are views into it, built once, so
    writing either side changes both.
    """

    config: StudentConfig
    schema: FeatureSchema
    head: str  # "binary" | "regression"
    num_mean: np.ndarray
    num_std: np.ndarray
    params: np.ndarray
    embeddings: list[np.ndarray] = field(init=False, repr=False)
    weights: list[np.ndarray] = field(init=False, repr=False)
    biases: list[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        self.embeddings, self.weights, self.biases = param_views(self.config, self.schema, self.params)

    # not a field, so no document holds it; views, so it follows in-place writes to `params`
    @cached_property
    def _row_pass(self):
        """What the one-row pass reads of the model: the schema's width, each categorical
        (column, cardinality), and the first layer's covariate weights, treatment weights and biases."""
        s = self.schema
        cells = list(zip(s.categorical_indices.tolist(), s.cardinalities.tolist()))
        return len(s.columns), cells, self.weights[0][:-1], self.weights[0][-1], self.biases[0]

    def predict_uplift(self, X: np.ndarray) -> np.ndarray:
        """Uplift per row: p(x, 1) - p(x, 0) for a binary head, the raw
        output for a regression head (trained on the transformed outcome)."""
        if self.head == "regression":
            return raw_output_batch(self, X)
        return predict_uplift_batch(self, X)


class LossParts(NamedTuple):
    """(total, hard, soft) losses of one batch, mean-reduced over units."""

    total: float
    hard: float
    soft: float


@dataclass
class LossBatch:
    """One gradient step's worth of forward passes and loss terms.

    Each of the P passes is a (row, treatment-bit) pair with an outcome and
    a BCE weight (0 for counterfactual passes that only feed a soft term).
    `kd_pairs` holds (treated-pass, control-pass) index pairs whose predicted
    difference is pulled toward `kd_targets` with weight `lam`; no pass
    appears in two pairs, and it must be empty when lam == 0. `n_units` is
    the mean-reduction denominator.
    """

    X: np.ndarray
    T: np.ndarray
    y: np.ndarray
    bce_weight: np.ndarray
    kd_pairs: np.ndarray
    kd_targets: np.ndarray
    lam: float
    n_units: int


def init_student(
    cfg: StudentConfig,
    train: Dataset,
    head: str = "binary",
    final_bias: float | None = None,
) -> StudentModel:
    """Initialize a model against a training set.

    Numeric standardization statistics come from the training split
    (zero-variance columns standardize to 0). Dense layers draw from
    U(-sqrt(6/(fan_in+fan_out)), +...), embeddings from U(-0.05, 0.05), in a
    fixed order given init_seed. The final bias defaults to the logit of the
    training positive rate for binary heads and must be supplied for
    regression heads by the caller that knows the target scale.
    """
    if head not in ("binary", "regression"):
        raise DomainError(f"head must be 'binary' or 'regression', got {head!r}")
    schema = train.schema
    num_idx = schema.numeric_indices
    if num_idx.size:
        num_mean = train.features[:, num_idx].mean(axis=0)
        num_std = train.features[:, num_idx].std(axis=0)
        num_std = np.where(num_std == 0.0, 1.0, num_std)
    else:
        num_mean = np.zeros(0)
        num_std = np.ones(0)

    model = StudentModel(
        config=cfg,
        schema=schema,
        head=head,
        num_mean=num_mean,
        num_std=num_std,
        params=np.zeros(_n_params(cfg, schema)),
    )
    rng = np.random.default_rng(cfg.init_seed)
    for e in model.embeddings:
        e[...] = rng.uniform(-0.05, 0.05, size=e.shape)
    for w in model.weights:
        lim = np.sqrt(6.0 / (w.shape[0] + w.shape[1]))
        w[...] = rng.uniform(-lim, lim, size=w.shape)
    if final_bias is None:
        if head == "binary":
            pos = float(np.clip(train.outcome.mean(), 1e-6, 1.0 - 1e-6))
            final_bias = float(np.log(pos / (1.0 - pos)))
        else:
            final_bias = 0.0
    model.biases[-1][0] = final_bias
    return model


def _assemble_input(model: StudentModel, X: np.ndarray, codes: np.ndarray, T: np.ndarray | None = None, out=None):
    """Build the input layer of a matrix X from it and its categorical
    codes: standardized numerics, one embedding block per categorical
    column, then the treatment bit unless T is None."""
    num_idx = model.schema.numeric_indices
    num_n = num_idx.size
    emb_dim = model.config.embedding_dim
    d_cov = num_n + codes.shape[1] * emb_dim
    h0 = np.empty((X.shape[0], d_cov + (T is not None))) if out is None else out
    h0[:, :num_n] = (X[:, num_idx] - model.num_mean) / model.num_std
    for j, e in enumerate(model.embeddings):
        off = num_n + j * emb_dim
        h0[:, off : off + emb_dim] = e.take(codes[:, j], 0)
    if T is not None:
        h0[:, d_cov] = T
    return h0


class StepBuffers:
    """What one track's training steps write into: the flat gradient with its
    `param_views`; every layer's input, the output and every hidden layer's
    input gradient, in arrays that grow to the largest step, not the batch size."""

    def __init__(self, model: StudentModel):
        self.grads = np.empty_like(model.params)
        self.grad_views = param_views(model.config, model.schema, self.grads)
        dims = [w.shape[0] for w in model.weights]
        self.widths = [*dims, 1, *dims[1:]]
        self.arrays = [np.empty((0, d)) for d in self.widths]

    def rows(self, n: int):
        """The leading n rows of each array: layer inputs, output, input gradients."""
        if self.arrays[0].shape[0] < n:
            self.arrays = [np.empty((n, d)) for d in self.widths]
        return [a[:n] for a in self.arrays]


def _forward_cached(model: StudentModel, X: np.ndarray, T: np.ndarray, bufs: StepBuffers):
    """Raw output logits plus the input of each layer, which backprop needs
    (the training path; scoring goes through `_score_logits` or the one-row
    pass), and the categorical codes; every layer is written into `bufs`."""
    X, codes = checked_features(model.schema, X)
    hs = bufs.rows(X.shape[0])[: len(model.weights) + 1]
    _assemble_input(model, X, codes, np.asarray(T, dtype=np.float64).ravel(), out=hs[0])
    h = np.matmul(hs[0], model.weights[0], out=hs[1])
    h += model.biases[0]
    z_raw = _remaining_layers(model, h, hs[2:]).ravel()
    # the activations ran in place, so each array but the output holds its layer's input
    return z_raw, hs[:-1], codes


def _score_logits(model: StudentModel, X: np.ndarray, codes: np.ndarray, arms: tuple) -> np.ndarray:
    """Raw output logits of every row of a checked X, with its categorical
    codes, under each treatment input in `arms` (a scalar, or one value per
    row); shape (len(arms), n).

    Rows go through in blocks of SCORE_BLOCK_ROWS, rounded up to a multiple
    of 4; a 1-row tail joins the block before it. Each layer writes into one
    buffer per call, so memory stays bounded whatever n is. Per block the
    treatment-free part of the first layer is computed once and shared by
    all arms, which are then stacked and run through the remaining layers
    in one pass.
    """
    n = X.shape[0]
    out = np.empty((len(arms), n))
    w_cov = model.weights[0][:-1]
    w_t = model.weights[0][-1]
    # BLAS takes a matrix-vector product four rows at a time and the rows
    # past the last four another way, and a 1-row product another way again:
    # so every row gets the same bits whatever the block size
    block = -(-SCORE_BLOCK_ROWS // 4) * 4
    rows = min(n, block + 1)
    bufs = [np.empty((len(arms) * rows, w.shape[1])) for w in model.weights]
    lo = 0
    while lo < n:
        hi = n if n - lo <= block + 1 else lo + block
        m = hi - lo
        h = bufs[0][: len(arms) * m]
        # the last arm's rows take the shared product, which the others add to first
        base = np.matmul(_assemble_input(model, X[lo:hi], codes[lo:hi]), w_cov, out=h[-m:])
        for a, t in reversed(list(enumerate(arms))):
            t = t if np.ndim(t) == 0 else t[lo:hi, None]
            np.add(base, t * w_t, out=h[a * m : (a + 1) * m])
        h += model.biases[0]
        out[:, lo:hi] = _remaining_layers(model, h, bufs[1:]).reshape(len(arms), m)
        lo = hi
    return out


def _remaining_layers(model: StudentModel, h: np.ndarray, bufs: list | None = None) -> np.ndarray:
    """Output logits, shape (rows, 1), of first-layer pre-activations h,
    which the first activation overwrites. Given `bufs`, one array per
    later layer with at least as many rows as h, each layer writes into the
    leading rows of its own."""
    relu = model.config.activation == "relu"
    for i, (w, b) in enumerate(zip(model.weights[1:], model.biases[1:])):
        if relu:
            np.maximum(h, 0.0, out=h)
        else:
            np.tanh(h, out=h)
        h = h @ w if bufs is None else np.matmul(h, w, out=bufs[i][: len(h)])
        h += b
    return h


def _require_binary(model: StudentModel, fn: str) -> None:
    if model.head != "binary":
        raise DomainError(f"{fn} needs a binary-head model")


def _probability(z_raw: np.ndarray) -> np.ndarray:
    # the same clamp as np.clip, NaN included, at half its call cost on the
    # few-element arrays of single-row scoring
    return 1.0 / (1.0 + np.exp(-np.minimum(np.maximum(z_raw, -LOGIT_CLAMP), LOGIT_CLAMP)))


def forward_batch(model: StudentModel, X: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Predicted outcome probability per row (binary head)."""
    _require_binary(model, "forward_batch")
    X, codes = checked_features(model.schema, X)
    T = np.asarray(T, dtype=np.float64).ravel()
    if T.size != X.shape[0]:
        raise SchemaError(f"{T.size} treatment values for {X.shape[0]} feature rows")
    return _probability(_score_logits(model, X, codes, (T,))[0])


def raw_output_batch(model: StudentModel, X: np.ndarray) -> np.ndarray:
    """Unclamped linear output per row (regression head; treatment input 0)."""
    return _score_logits(model, *checked_features(model.schema, X), (0.0,))[0]


def predict_uplift_batch(model: StudentModel, X: np.ndarray) -> np.ndarray:
    """forward(x, 1) - forward(x, 0) per row, both arms in one pass."""
    _require_binary(model, "predict_uplift_batch")
    p = _probability(_score_logits(model, *checked_features(model.schema, X), (1.0, 0.0)))
    return p[0] - p[1]


def predict_uplift_student(model: StudentModel, x: np.ndarray) -> float:
    """forward(x, 1) - forward(x, 0) of one row, shape (d,) or (1, d): the
    block pass of `_score_logits` for a single row, without its block
    bookkeeping, so it equals `predict_uplift_batch(model, x[None])[0]` bit for bit.
    The row is checked as Python floats; a row that fails that check goes
    through `checked_features`, which raises the batch's error."""
    _require_binary(model, "predict_uplift_student")
    x = np.asarray(x, dtype=np.float64).ravel()
    row = x.tolist()
    width, cells, w_cov, w_t, b0 = model._row_pass
    if not (len(row) == width and all(map(math.isfinite, row)) and all(
        row[i].is_integer() and 0 <= row[i] < card for i, card in cells
    )):
        checked_features(model.schema, x[None])  # makes the same three checks, and raises
    num = (x[model.schema.numeric_indices] - model.num_mean) / model.num_std
    h0 = np.concatenate([num, *(e[int(row[i])] for e, (i, _) in zip(model.embeddings, cells))])
    base = h0 @ w_cov
    h = np.empty((2, base.size))
    np.add(base, w_t, out=h[0])
    h[1] = base
    h += b0
    p = _probability(_remaining_layers(model, h))
    return float(p[0, 0] - p[1, 0])


def _bce_vec(y: np.ndarray, p: np.ndarray) -> np.ndarray:
    p = np.clip(p, PROB_EPS, 1.0 - PROB_EPS)
    return -(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))


def backward(model: StudentModel, batch: LossBatch, bufs: StepBuffers | None = None) -> tuple[np.ndarray, LossParts]:
    """Exact analytic gradient of the batch loss, one entry per entry of
    `model.params`, and the batch's losses.

    The gradient respects the forward path's clamps: passes whose logit sits
    outside [-30, 30], or whose probability is pinned by the BCE clamp,
    contribute zero through the clamped term. Raises TrainingError naming
    the parameter if any gradient is non-finite. Runs through `bufs` (fresh ones
    when None, same bits) and returns `bufs.grads`, which the next step overwrites.
    """
    bufs = StepBuffers(model) if bufs is None else bufs
    z_raw, hs, codes = _forward_cached(model, batch.X, batch.T, bufs)
    p = _probability(z_raw)

    in_band = (p > PROB_EPS) & (p < 1.0 - PROB_EPS)
    dz = batch.bce_weight * (p - batch.y) * in_band
    hard = float(np.sum(batch.bce_weight * _bce_vec(batch.y, p)))
    soft = 0.0
    total = hard
    if batch.lam != 0.0 and batch.kd_pairs.shape[0]:
        it = batch.kd_pairs[:, 0]
        ic = batch.kd_pairs[:, 1]
        diff = p[it] - p[ic]
        gaps = batch.kd_targets - diff
        soft = float(np.sum(gaps**2))
        total = hard + batch.lam * soft
        g = 2.0 * batch.lam * (diff - batch.kd_targets)
        sig_grad = p * (1.0 - p)
        # a pass sits in at most one pair, so plain fancy-index adds suffice
        dz[it] += g * sig_grad[it]
        dz[ic] += -g * sig_grad[ic]
    dz = dz * (np.abs(z_raw) < LOGIT_CLAMP)
    dz /= batch.n_units

    grads = _backprop(model, hs, codes, dz, bufs)
    n = batch.n_units
    return grads, LossParts(total / n, hard / n, soft / n)


def backward_mse(
    model: StudentModel,
    X: np.ndarray,
    targets: np.ndarray,
    n_units: int,
    bufs: StepBuffers | None = None,
) -> tuple[np.ndarray, LossParts]:
    """Gradient of mean squared error of the raw output against `targets`
    (regression head), and that loss; reduction divides by n_units; `bufs` as in `backward`."""
    bufs = StepBuffers(model) if bufs is None else bufs
    z_raw, hs, codes = _forward_cached(model, X, np.zeros(X.shape[0]), bufs)
    resid = z_raw - targets
    dz = 2.0 * resid / n_units
    grads = _backprop(model, hs, codes, dz, bufs)
    loss = float(np.sum(resid**2)) / n_units
    return grads, LossParts(loss, loss, 0.0)


def _backprop(model: StudentModel, hs, codes, dz: np.ndarray, bufs: StepBuffers) -> np.ndarray:
    """Propagate per-pass output gradients dz through the stack into
    `bufs.grads`, laid out like `model.params`, overwriting each input in
    `hs` once read by its activation mask, or at layer 0 by its gradient.
    Raises TrainingError naming the parameter if any entry is non-finite."""
    g_emb, g_w, g_b = bufs.grad_views
    backs = bufs.rows(dz.shape[0])[len(model.weights) + 1 :]
    g = dz[:, None]
    for l in range(len(model.weights) - 1, -1, -1):
        np.matmul(hs[l][:GRAD_CHUNK_ROWS].T, g[:GRAD_CHUNK_ROWS], out=g_w[l])
        for lo in range(GRAD_CHUNK_ROWS, g.shape[0], GRAD_CHUNK_ROWS):
            g_w[l] += hs[l][lo : lo + GRAD_CHUNK_ROWS].T @ g[lo : lo + GRAD_CHUNK_ROWS]
        g_b[l][...] = g.sum(axis=0)
        if l > 0:
            g = np.matmul(g, model.weights[l].T, out=backs[l - 1])
            if model.config.activation == "relu":
                np.greater(hs[l], 0.0, out=hs[l])
            else:
                np.subtract(1.0, np.square(hs[l], out=hs[l]), out=hs[l])
            g *= hs[l]
        elif model.embeddings:
            # all columns, though only the embeddings' are read: OpenBLAS picks its
            # kernel by shape, so fewer columns round otherwise at some batch sizes
            g = np.matmul(g, model.weights[0].T, out=hs[0])
    # g now holds the gradient at the input layer; route embedding blocks.
    # bincount sums each cell's contributions in row order from 0, exactly
    # as an unbuffered scatter-add would.
    num_n = model.schema.numeric_indices.size
    emb_dim = model.config.embedding_dim
    cols = np.arange(emb_dim)
    for j, emb in enumerate(model.embeddings):
        block = g[:, num_n + j * emb_dim : num_n + (j + 1) * emb_dim]
        cells = (codes[:, j, None] * emb_dim + cols).ravel()
        g_emb[j][...] = np.bincount(cells, weights=block.ravel(), minlength=emb.size).reshape(emb.shape)
    if not np.isfinite(bufs.grads).all():
        for name, views in (("embedding", g_emb), ("weights", g_w), ("biases", g_b)):
            for i, view in enumerate(views):
                if not np.isfinite(view).all():
                    raise TrainingError(f"non-finite gradient in {name}[{i}]")
    return bufs.grads


@dataclass
class OptimizerState:
    """Slot vectors laid out like `StudentModel.params` (SGD velocity in
    `m`; Adam moments in `m` and `v`), two rows of scratch the update writes
    through, and the current learning rate."""

    lr: float
    step: int
    m: np.ndarray
    scratch: np.ndarray
    v: np.ndarray | None = None


def init_optimizer(model: StudentModel) -> OptimizerState:
    """A fresh state for the optimizer of `model.config`."""
    cfg = model.config
    return OptimizerState(
        lr=cfg.learning_rate,
        step=0,
        m=np.zeros_like(model.params),
        scratch=np.empty((2, model.params.size)),
        v=np.zeros_like(model.params) if cfg.optimizer == "adam" else None,
    )


def apply_update(model: StudentModel, grads: np.ndarray, state: OptimizerState) -> None:
    """One optimizer step over the whole parameter vector, in place.
    Deterministic given (params, grads, state); mutates both the model
    parameters and the state."""
    cfg = model.config
    m = state.m
    s, t = state.scratch
    # `params -= lr * m` (sgd) or `lr * (m / bc1) / (sqrt(v / bc2) + eps)` (adam), in that order
    if cfg.optimizer == "sgd":
        m *= cfg.momentum
        m += grads
        model.params -= np.multiply(state.lr, m, out=s)
    else:
        state.step += 1
        bc1 = 1.0 - cfg.beta1**state.step
        bc2 = 1.0 - cfg.beta2**state.step
        v = state.v
        m *= cfg.beta1
        m += np.multiply(1.0 - cfg.beta1, grads, out=s)
        v *= cfg.beta2
        np.multiply(1.0 - cfg.beta2, grads, out=s)
        v += np.multiply(s, grads, out=s)
        np.multiply(state.lr, np.divide(m, bc1, out=s), out=s)
        np.sqrt(np.divide(v, bc2, out=t), out=t)
        t += cfg.eps
        model.params -= np.divide(s, t, out=s)


def clone_params(model: StudentModel) -> np.ndarray:
    return model.params.copy()


def student_to_jsonable(model: StudentModel) -> dict:
    return {
        "format": MODEL_FORMAT,
        "head": model.head,
        "config": asdict(model.config),
        "schema": model.schema.to_jsonable(),
        "num_mean": model.num_mean.tolist(),
        "num_std": model.num_std.tolist(),
        "embeddings": [e.tolist() for e in model.embeddings],
        "weights": [w.tolist() for w in model.weights],
        "biases": [b.tolist() for b in model.biases],
    }


@document_errors("student model document")
def student_from_jsonable(obj: dict) -> StudentModel:
    if obj.get("format") != MODEL_FORMAT:
        raise ParseError(f"not a student model document (format {obj.get('format')!r})")
    cfg = config_from_jsonable(StudentConfig, obj["config"])
    schema = FeatureSchema.from_jsonable(obj["schema"])
    if obj["head"] not in ("binary", "regression"):
        raise ParseError(f"head must be 'binary' or 'regression', got {obj['head']!r}")
    n_num = (schema.numeric_indices.size,)
    model = StudentModel(
        config=cfg,
        schema=schema,
        head=obj["head"],
        num_mean=_shaped("num_mean", obj["num_mean"], n_num),
        num_std=_shaped("num_std", obj["num_std"], n_num),
        params=np.zeros(_n_params(cfg, schema)),
    )
    if not (model.num_std > 0).all():
        raise ParseError("num_std holds a value that is not > 0")
    for key, views in (
        ("embeddings", model.embeddings),
        ("weights", model.weights),
        ("biases", model.biases),
    ):
        if len(obj[key]) != len(views):
            raise ParseError(f"{key} holds {len(obj[key])} arrays, expected {len(views)}")
        for i, (value, view) in enumerate(zip(obj[key], views)):
            view[...] = _shaped(f"{key}[{i}]", value, view.shape)
    return model


def _shaped(name: str, value, shape: tuple[int, ...]) -> np.ndarray:
    """`value` as a float64 array, which must have the shape the config and
    schema give it and hold only finite JSON numbers, none converted."""
    a = np.array(value, dtype=object)
    if a.shape != shape:
        raise ParseError(f"{name} has shape {a.shape}, expected {shape}")
    if not all(map(is_number, a.flat)):
        raise ParseError(f"{name} holds a value that is not a number")
    with document_errors(name):  # an integer too large for a float
        a = a.astype(np.float64)
    if not np.isfinite(a).all():
        raise ParseError(f"{name} holds a non-finite value")
    return a


def save_student(model: StudentModel, path: str) -> None:
    """Serialize to versioned JSON; reloads to bit-identical predictions."""
    with atomic_write(path) as fh:
        json.dump(student_to_jsonable(model), fh)
        fh.write("\n")


def load_student(path: str) -> StudentModel:
    return load_document(path, student_from_jsonable)
