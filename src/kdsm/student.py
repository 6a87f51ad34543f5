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
from typing import NamedTuple

import numpy as np

from .data import (
    Dataset, FeatureSchema, atomic_write, categorical_codes, config_from_jsonable, load_document
)
from .errors import DomainError, ParseError, SchemaError, TrainingError, document_errors

MODEL_FORMAT = "student-model/v1"
LOGIT_CLAMP = 30.0
PROB_EPS = 1e-7
#: Rows per block of the inference routine; fixes its working memory at a
#: few MB whatever the number of rows scored.
SCORE_BLOCK_ROWS = 8192
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
    lr_decay_factor: float = 0.1
    lr_decay_patience: int = 3
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
        if not (0.0 <= self.momentum < 1.0):
            raise DomainError(f"momentum={self.momentum} must lie in [0, 1)")
        if not (self.learning_rate > 0):
            raise DomainError(f"learning_rate={self.learning_rate} must be > 0")
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


def _checked_features(model: StudentModel, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != len(model.schema.columns):
        raise SchemaError(
            f"feature matrix has shape {X.shape}, schema expects "
            f"(*, {len(model.schema.columns)})"
        )
    return X


def _assemble_input(model: StudentModel, X: np.ndarray, codes: np.ndarray, T: np.ndarray | None = None):
    """Build the input layer from X and its `categorical_codes`:
    standardized numerics, one embedding block per categorical column, then
    the treatment bit unless T is None."""
    num_idx = model.schema.numeric_indices
    num_n = num_idx.size
    emb_dim = model.config.embedding_dim
    d_cov = num_n + codes.shape[1] * emb_dim
    h0 = np.empty((X.shape[0], d_cov + (T is not None)))
    h0[:, :num_n] = (X[:, num_idx] - model.num_mean) / model.num_std
    for j in range(codes.shape[1]):
        off = num_n + j * emb_dim
        h0[:, off : off + emb_dim] = model.embeddings[j][codes[:, j]]
    if T is not None:
        h0[:, d_cov] = T
    return h0


def _forward_cached(model: StudentModel, X: np.ndarray, T: np.ndarray):
    """Raw output logits plus the activations needed by backprop (the
    training path; inference goes through `_score_logits`)."""
    X = _checked_features(model, X)
    codes = categorical_codes(model.schema, X)
    h0 = _assemble_input(model, X, codes, np.asarray(T, dtype=np.float64).ravel())
    hs = [h0]
    ss = []
    h = h0
    n_layers = len(model.weights)
    for l in range(n_layers - 1):
        s = h @ model.weights[l] + model.biases[l]
        h = np.maximum(s, 0.0) if model.config.activation == "relu" else np.tanh(s)
        ss.append(s)
        hs.append(h)
    z_raw = (h @ model.weights[-1]).ravel() + model.biases[-1][0]
    return z_raw, hs, ss, codes


def _score_logits(model: StudentModel, X: np.ndarray, codes: np.ndarray, arms: tuple) -> np.ndarray:
    """Raw output logits of every row of a checked X, with its categorical
    codes, under each treatment input in `arms` (a scalar, or one value per
    row); shape (len(arms), n).

    Rows go through in blocks of SCORE_BLOCK_ROWS, so memory stays bounded
    whatever n is; a 1-row tail joins the block before it. Per block the
    treatment-free part of the first layer is computed once and shared by
    all arms, which are then stacked and run through the remaining layers
    in one pass.
    """
    n = X.shape[0]
    out = np.empty((len(arms), n))
    w_cov = model.weights[0][:-1]
    w_t = model.weights[0][-1]
    relu = model.config.activation == "relu"
    lo = 0
    while lo < n:
        hi = n if n - lo <= SCORE_BLOCK_ROWS + 1 else lo + SCORE_BLOCK_ROWS
        m = hi - lo
        base = _assemble_input(model, X[lo:hi], codes[lo:hi]) @ w_cov
        h = np.empty((len(arms) * m, base.shape[1]))
        for a, t in enumerate(arms):
            t = t if np.ndim(t) == 0 else t[lo:hi, None]
            np.add(base, t * w_t, out=h[a * m : (a + 1) * m])
        h += model.biases[0]
        for w, b in zip(model.weights[1:], model.biases[1:]):
            if relu:
                np.maximum(h, 0.0, out=h)
            else:
                np.tanh(h, out=h)
            h = h @ w
            h += b
        out[:, lo:hi] = h.reshape(len(arms), m)
        lo = hi
    return out


def _checked_inputs(model: StudentModel, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """X as float64 plus its categorical codes, after checking its shape,
    finiteness and codes."""
    X = _checked_features(model, X)
    if not np.isfinite(X).all():
        raise DomainError("non-finite feature value")
    return X, categorical_codes(model.schema, X)


def _require_binary(model: StudentModel, fn: str) -> None:
    if model.head != "binary":
        raise DomainError(f"{fn} needs a binary-head model")


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-z))


def _probability(z_raw: np.ndarray) -> np.ndarray:
    # the same clamp as np.clip, at half its call cost on the few-element
    # arrays of single-row scoring
    return _sigmoid(np.minimum(np.maximum(z_raw, -LOGIT_CLAMP), LOGIT_CLAMP))


def forward_batch(model: StudentModel, X: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Predicted outcome probability per row (binary head)."""
    _require_binary(model, "forward_batch")
    X, codes = _checked_inputs(model, X)
    T = np.asarray(T, dtype=np.float64).ravel()
    if T.size != X.shape[0]:
        raise SchemaError(f"{T.size} treatment values for {X.shape[0]} feature rows")
    return _probability(_score_logits(model, X, codes, (T,))[0])


def raw_output_batch(model: StudentModel, X: np.ndarray) -> np.ndarray:
    """Unclamped linear output per row (regression head; treatment input 0)."""
    return _score_logits(model, *_checked_inputs(model, X), (0.0,))[0]


def predict_uplift_batch(model: StudentModel, X: np.ndarray) -> np.ndarray:
    """forward(x, 1) - forward(x, 0) per row, both arms in one pass."""
    _require_binary(model, "predict_uplift_batch")
    p = _probability(_score_logits(model, *_checked_inputs(model, X), (1.0, 0.0)))
    return p[0] - p[1]


def predict_uplift_student(model: StudentModel, x: np.ndarray) -> float:
    return float(predict_uplift_batch(model, np.asarray(x, dtype=np.float64).reshape(1, -1))[0])


def _bce_vec(y: np.ndarray, p: np.ndarray) -> np.ndarray:
    p = np.clip(p, PROB_EPS, 1.0 - PROB_EPS)
    return -(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))


def backward(model: StudentModel, batch: LossBatch) -> tuple[np.ndarray, LossParts]:
    """Exact analytic gradient of the batch loss, one entry per entry of
    `model.params`, and the batch's losses.

    The gradient respects the forward path's clamps: passes whose logit sits
    outside [-30, 30], or whose probability is pinned by the BCE clamp,
    contribute zero through the clamped term. Raises TrainingError naming
    the parameter if any gradient is non-finite.
    """
    z_raw, hs, ss, codes = _forward_cached(model, batch.X, batch.T)
    z = np.clip(z_raw, -LOGIT_CLAMP, LOGIT_CLAMP)
    p = _sigmoid(z)

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

    grads = _backprop(model, hs, ss, codes, dz)
    n = batch.n_units
    return grads, LossParts(total / n, hard / n, soft / n)


def backward_mse(
    model: StudentModel,
    X: np.ndarray,
    targets: np.ndarray,
    n_units: int,
) -> tuple[np.ndarray, LossParts]:
    """Gradient of mean squared error of the raw output against `targets`
    (regression head), and that loss; reduction divides by n_units."""
    z_raw, hs, ss, codes = _forward_cached(model, X, np.zeros(X.shape[0]))
    resid = z_raw - targets
    dz = 2.0 * resid / n_units
    grads = _backprop(model, hs, ss, codes, dz)
    loss = float(np.sum(resid**2)) / n_units
    return grads, LossParts(loss, loss, 0.0)


def _backprop(model: StudentModel, hs, ss, codes, dz: np.ndarray) -> np.ndarray:
    """Propagate per-pass output gradients dz through the stack into one
    flat gradient laid out like `model.params`. Raises TrainingError naming
    the parameter if any entry is non-finite."""
    grads = np.empty_like(model.params)
    g_emb, g_w, g_b = param_views(model.config, model.schema, grads)
    g = dz[:, None]
    for l in range(len(model.weights) - 1, -1, -1):
        g_w[l][...] = hs[l][:GRAD_CHUNK_ROWS].T @ g[:GRAD_CHUNK_ROWS]
        for lo in range(GRAD_CHUNK_ROWS, g.shape[0], GRAD_CHUNK_ROWS):
            g_w[l] += hs[l][lo : lo + GRAD_CHUNK_ROWS].T @ g[lo : lo + GRAD_CHUNK_ROWS]
        g_b[l][...] = g.sum(axis=0)
        g = g @ model.weights[l].T
        if l > 0:
            if model.config.activation == "relu":
                g = g * (ss[l - 1] > 0.0)
            else:
                g = g * (1.0 - hs[l] ** 2)
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
    if not np.isfinite(grads).all():
        for name, views in (("embedding", g_emb), ("weights", g_w), ("biases", g_b)):
            for i, view in enumerate(views):
                if not np.isfinite(view).all():
                    raise TrainingError(f"non-finite gradient in {name}[{i}]")
    return grads


@dataclass
class OptimizerState:
    """Slot vectors laid out like `StudentModel.params` (SGD velocity in
    `m`; Adam moments in `m` and `v`) plus the current learning rate."""

    kind: str
    lr: float
    step: int
    m: np.ndarray
    v: np.ndarray | None = None


def init_optimizer(cfg: StudentConfig, model: StudentModel) -> OptimizerState:
    return OptimizerState(
        kind=cfg.optimizer,
        lr=cfg.learning_rate,
        step=0,
        m=np.zeros_like(model.params),
        v=np.zeros_like(model.params) if cfg.optimizer == "adam" else None,
    )


def apply_update(model: StudentModel, grads: np.ndarray, state: OptimizerState) -> None:
    """One optimizer step over the whole parameter vector, in place.
    Deterministic given (params, grads, state); mutates both the model
    parameters and the state."""
    cfg = model.config
    m = state.m
    if state.kind == "sgd":
        m *= cfg.momentum
        m += grads
        model.params -= state.lr * m
    else:
        state.step += 1
        bc1 = 1.0 - cfg.beta1**state.step
        bc2 = 1.0 - cfg.beta2**state.step
        v = state.v
        m *= cfg.beta1
        m += (1.0 - cfg.beta1) * grads
        v *= cfg.beta2
        v += (1.0 - cfg.beta2) * grads * grads
        model.params -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + cfg.eps)


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
    schema give it."""
    a = np.array(value, dtype=np.float64)
    if a.shape != shape:
        raise ParseError(f"{name} has shape {a.shape}, expected {shape}")
    return a


def save_student(model: StudentModel, path: str) -> None:
    """Serialize to versioned JSON; reloads to bit-identical predictions."""
    with atomic_write(path) as fh:
        json.dump(student_to_jsonable(model), fh)
        fh.write("\n")


def load_student(path: str) -> StudentModel:
    return load_document(path, student_from_jsonable)
