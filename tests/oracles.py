"""Reference implementations the tests check the library against.

Each one computes a quantity the simple, slow or single-row way: scalar
losses and forward passes, the quadratic curve recount, criterion values of
one candidate split, the per-node tree fit, single-row routing, a curve file
reader, and CSV reading and writing one row and one cell at a time.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from kdsm.data import CATEGORICAL, NUMERIC, Column, Dataset, FeatureSchema
from kdsm.errors import DomainError, MetricError, ParseError, SchemaError
from kdsm.metrics import _check_eval_inputs
from kdsm.student import (
    PROB_EPS,
    LossBatch,
    LossParts,
    OptimizerState,
    StepBuffers,
    StudentModel,
    _bce_vec,
    _forward_cached,
    _probability,
    forward_batch,
)
from kdsm.tree import (
    NodeStats,
    SplitRule,
    TreeNode,
    TreeParams,
    UpliftTree,
    _candidate_scores,
    _ed,
    _kl_gain,
    _link_preorder,
    leaf_of_batch,
    predict_uplift_tree_batch,
)

# --- student ---


def forward(model: StudentModel, x: np.ndarray, t: int) -> float:
    """Predicted outcome probability for one subject under treatment t."""
    return float(forward_batch(model, np.asarray(x, dtype=np.float64).reshape(1, -1), np.array([t]))[0])


def bce(y: float, y_hat: float) -> float:
    """Binary cross-entropy with the prediction clamped to
    [1e-7, 1 - 1e-7]."""
    p = min(max(float(y_hat), PROB_EPS), 1.0 - PROB_EPS)
    y = float(y)
    return -(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))


def batch_loss(model: StudentModel, batch: LossBatch) -> LossParts:
    """Loss of a batch without gradients; same reduction as `backward`."""
    z_raw, _, _ = _forward_cached(model, batch.X, batch.T, StepBuffers(model))
    p = _probability(z_raw)
    hard = float(np.sum(batch.bce_weight * _bce_vec(batch.y, p)))
    if batch.lam != 0.0 and batch.kd_pairs.shape[0]:
        gaps = batch.kd_targets - (p[batch.kd_pairs[:, 0]] - p[batch.kd_pairs[:, 1]])
        soft = float(np.sum(gaps**2))
        total = (hard + batch.lam * soft) / batch.n_units
    else:
        soft = 0.0
        total = hard / batch.n_units
    return LossParts(total, hard / batch.n_units, soft / batch.n_units)


def apply_update(model: StudentModel, grads: np.ndarray, state: OptimizerState) -> None:
    """`student.apply_update` written as out-of-place array expressions."""
    cfg = model.config
    if cfg.optimizer == "sgd":
        state.m *= cfg.momentum
        state.m += grads
        model.params -= state.lr * state.m
    else:
        state.step += 1
        bc1 = 1.0 - cfg.beta1**state.step
        bc2 = 1.0 - cfg.beta2**state.step
        state.m *= cfg.beta1
        state.m += (1.0 - cfg.beta1) * grads
        state.v *= cfg.beta2
        state.v += (1.0 - cfg.beta2) * grads * grads
        model.params -= state.lr * (state.m / bc1) / (np.sqrt(state.v / bc2) + cfg.eps)


# --- distillation ---


@dataclass(frozen=True)
class SamplePair:
    """A within-leaf match: row indices into the training set, the leaf both
    rows fell in, and that leaf's effect estimate."""

    treated_row: int
    control_row: int
    leaf_id: int
    teacher_uplift: float


def pair_loss(model: StudentModel, ds: Dataset, pair: SamplePair, kd_weight: float) -> LossParts:
    """Loss of one matched pair: hard = both factual BCE terms, soft = the
    squared gap between the teacher estimate and the predicted uplift.
    total = hard + kd_weight * soft, with the soft term skipped entirely
    (not multiplied by zero) when kd_weight == 0."""
    x_t = ds.features[pair.treated_row]
    x_c = ds.features[pair.control_row]
    p_t = forward(model, x_t, 1)
    p_c = forward(model, x_c, 0)
    hard = bce(ds.outcome[pair.treated_row], p_t) + bce(ds.outcome[pair.control_row], p_c)
    soft = (pair.teacher_uplift - (p_t - p_c)) ** 2
    total = hard if kd_weight == 0.0 else hard + kd_weight * soft
    return LossParts(total, hard, soft)


# --- tree ---


def stats_from_counts(n_t: int, n_c: int, pos_t: int, pos_c: int) -> NodeStats:
    tau = pos_t / n_t - pos_c / n_c if n_t > 0 and n_c > 0 else float("nan")
    return NodeStats(n=n_t + n_c, n_t=n_t, n_c=n_c, pos_t=pos_t, pos_c=pos_c, tau_hat=tau)


def ed_value(left: NodeStats, right: NodeStats) -> float | None:
    """Squared-effect criterion value of a candidate split; None when either
    child is missing an arm (invalid candidate, not an error)."""
    if min(left.n_t, left.n_c, right.n_t, right.n_c) == 0:
        return None
    return float(_ed(left.n, left.tau_hat, right.n, right.tau_hat))


def kl_value(left: NodeStats, right: NodeStats, parent: NodeStats) -> float | None:
    """KL criterion gain of a candidate split; None when either child is
    missing an arm."""
    if min(left.n_t, left.n_c, right.n_t, right.n_c) == 0:
        return None
    return float(
        _kl_gain(
            left.n_t, left.n_c, left.pos_t, left.pos_c,
            right.n_t, right.n_c, right.pos_t, right.pos_c,
            parent,
        )
    )


def numeric_thresholds(values: np.ndarray, q: int) -> np.ndarray:
    """Up to `q` candidate thresholds of a node's values in any order:
    midpoints of q+1 equally spaced `np.quantile`s, deduplicated ascending.
    Adding 0.0 turns a -0.0 into 0.0, whose sign `np.quantile` takes from the
    order of the rows where they hold both zeros; it routes the same way."""
    qs = np.quantile(values, np.linspace(0.0, 1.0, q + 1))
    return np.unique((qs[:-1] + qs[1:]) / 2.0) + 0.0


def best_split(X, t, y, rows, stats: NodeStats, params: TreeParams, schema: FeatureSchema):
    """`tree._best_split` the per-node way: every numeric column's node
    values go through `np.quantile`, and every row is binned against the
    thresholds."""
    tyc = t[rows] * 2 + y[rows]
    best_score = -np.inf
    best_rule = None
    for f, col in enumerate(schema.columns):
        vals = X[rows, f]
        if col.kind == NUMERIC:
            candidates = numeric_thresholds(vals, params.numeric_split_candidates)
            bins = np.searchsorted(candidates, vals, side="left")
            counts = np.bincount(bins * 4 + tyc, minlength=(candidates.size + 1) * 4).reshape(-1, 4)
            left = np.cumsum(counts, axis=0)[: candidates.size]  # rows with bins <= j
        else:
            counts = np.bincount(vals.astype(np.int64) * 4 + tyc, minlength=col.cardinality * 4).reshape(-1, 4)
            candidates = np.flatnonzero(counts.sum(axis=1) > 0)
            if candidates.size < 2:
                continue
            left = counts[candidates]
        scores = _candidate_scores(params, left, stats)
        j = int(np.argmax(scores))
        if np.isfinite(scores[j]) and scores[j] > best_score:
            best_score = scores[j]
            value = {"threshold": float(candidates[j])} if col.kind == NUMERIC else {"code": int(candidates[j])}
            best_rule = SplitRule(feature=f, kind=col.kind, **value)
    gain = best_score - stats.tau_hat**2 if params.criterion == "ed" else best_score
    return best_rule if best_rule is not None and gain > params.min_gain else None


def fit_tree(ds: Dataset, params: TreeParams) -> UpliftTree:
    """`tree.fit_tree` the per-node way, through `best_split`."""
    tree = UpliftTree(schema=ds.schema, params=params)

    def build(rows: np.ndarray, depth: int) -> None:
        node = TreeNode(NodeStats.from_arrays(ds.treatment[rows], ds.outcome[rows]))
        tree.nodes.append(node)
        if depth < params.max_depth:
            node.rule = best_split(ds.features, ds.treatment, ds.outcome, rows, node.stats, params, ds.schema)
            if node.rule is not None:
                go_left = node.rule.goes_left(ds.features[rows, node.rule.feature])
                build(rows[go_left], depth + 1)
                build(rows[~go_left], depth + 1)

    build(np.arange(ds.n, dtype=np.int64), 0)
    _link_preorder(tree.nodes)
    return tree


def leaf_of(tree: UpliftTree, x: np.ndarray) -> int:
    """Leaf id for a single feature row."""
    return int(leaf_of_batch(tree, np.asarray(x, dtype=np.float64).reshape(1, -1))[0])


def predict_uplift_tree(tree: UpliftTree, x: np.ndarray) -> float:
    return float(predict_uplift_tree_batch(tree, np.asarray(x, dtype=np.float64).reshape(1, -1))[0])


# --- metrics ---


def brute_force_curves(predictions, treatment, outcome, tie_seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Recompute both curves' values at every k, at index k-1, by re-scanning
    the full prefix from scratch (O(n^2)). Same tie-break rule and seed as `rank_eval`; used to
    cross-check the streaming path."""
    predictions, treatment, outcome = _check_eval_inputs(predictions, treatment, outcome)
    perm = np.random.default_rng(tie_seed).permutation(predictions.shape[0])
    order = perm[np.argsort(-predictions[perm], kind="stable")]
    n = order.shape[0]
    uplift_vals = np.zeros(n, dtype=np.float64)
    qini_vals = np.zeros(n, dtype=np.float64)
    for k in range(1, n + 1):
        prefix = order[:k]
        t_p = treatment[prefix]
        y_p = outcome[prefix]
        n_t = int(np.sum(t_p))
        n_c = k - n_t
        r_t = int(np.sum(y_p[t_p == 1]))
        r_c = int(np.sum(y_p[t_p == 0]))
        if n_t > 0 and n_c > 0:
            uplift_vals[k - 1] = (r_t / n_t - r_c / n_c) * (n_t + n_c)
        else:
            uplift_vals[k - 1] = 0.0
        if n_c > 0:
            qini_vals[k - 1] = r_t - r_c * (n_t / n_c)
        else:
            qini_vals[k - 1] = float(r_t)
    return uplift_vals, qini_vals


def read_curve_csv(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Read a `k,value` curve file written by `write_curve_csv` as its
    (k, values) columns."""
    ks: list[int] = []
    vals: list[float] = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "k,value":
            raise MetricError(f"{path}: not a curve file (header {header!r})")
        for line in fh:
            k_str, v_str = line.strip().split(",")
            ks.append(int(k_str))
            vals.append(float(v_str))
    return np.array(ks, dtype=np.int64), np.array(vals, dtype=np.float64)


# --- data ---


def load_csv(
    path: str,
    schema: FeatureSchema,
    treatment_col: str = "treatment",
    outcome_col: str = "outcome",
) -> Dataset:
    """Read a CSV file into a Dataset under the given schema.

    Categorical values may be arbitrary strings. A column with pinned
    `categories` maps each label to its fixed code and rejects unknown
    labels; otherwise labels are coded by first appearance (0, 1, ... in
    the order distinct values are first seen) and the discovered dictionary
    is pinned into the returned dataset's schema. Numeric cells must parse
    as finite floats; treatment/outcome cells must be the literal integers
    0 or 1. Errors name the row and column.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ParseError(f"{path}: empty file")
        required = schema.names + [treatment_col, outcome_col]
        dupes = sorted({c for c in header if header.count(c) > 1})
        if dupes:
            raise SchemaError(f"{path}: column {dupes[0]!r} appears more than once in the header")
        for c in (treatment_col, outcome_col):
            if required.count(c) > 1:
                raise SchemaError(f"{path}: column {c!r} cannot be both a feature and the treatment or outcome")
        missing = [c for c in required if c not in header]
        if missing:
            raise SchemaError(f"{path}: missing column(s) {missing}")
        pos = {name: header.index(name) for name in required}

        code_maps: dict[str, dict[str, int]] = {
            c.name: {label: i for i, label in enumerate(c.categories)}
            for c in schema.columns
            if c.kind == CATEGORICAL
        }
        pinned = {c.name for c in schema.columns if c.categories}
        feat_rows: list[list[float]] = []
        t_list: list[int] = []
        y_list: list[int] = []
        for i, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ParseError(f"{path}: line {i} has {len(row)} cells, expected {len(header)}")
            vals: list[float] = []
            for col in schema.columns:
                cell = row[pos[col.name]]
                if cell == "":
                    raise ParseError(
                        f"{path}: line {i}, column {col.name!r}: missing values are not supported"
                    )
                if col.kind == NUMERIC:
                    try:
                        v = float(cell)
                    except ValueError:
                        raise ParseError(
                            f"{path}: line {i}, column {col.name!r}: cannot parse {cell!r} as a number"
                        ) from None
                    if not np.isfinite(v):
                        raise DomainError(
                            f"{path}: line {i}, column {col.name!r}: non-finite value {cell!r}"
                        )
                    vals.append(v)
                else:
                    codes = code_maps[col.name]
                    code = codes.get(cell)
                    if code is None:
                        if col.name in pinned:
                            raise DomainError(
                                f"{path}: line {i}, column {col.name!r}: value {cell!r} is not "
                                f"one of the declared categories"
                            )
                        code = len(codes)
                        if code >= col.cardinality:
                            raise DomainError(
                                f"{path}: line {i}, column {col.name!r}: value {cell!r} exceeds "
                                f"declared cardinality {col.cardinality}"
                            )
                        codes[cell] = code
                    vals.append(float(code))
            for col_name, sink in ((treatment_col, t_list), (outcome_col, y_list)):
                cell = row[pos[col_name]]
                try:
                    v = int(cell)
                except ValueError:
                    raise ParseError(
                        f"{path}: line {i}, column {col_name!r}: cannot parse {cell!r} as an integer"
                    ) from None
                if v not in (0, 1):
                    raise DomainError(
                        f"{path}: line {i}, column {col_name!r}: value {cell!r} is not 0/1"
                    )
                sink.append(v)
            feat_rows.append(vals)

    n = len(feat_rows)
    features = (
        np.array(feat_rows, dtype=np.float64)
        if n
        else np.zeros((0, len(schema.columns)))
    )
    # pin discovered dictionaries so a re-save keeps labels and codes stable
    out_cols = tuple(
        c
        if c.kind == NUMERIC or c.name in pinned or not code_maps[c.name]
        else Column(
            c.name,
            c.kind,
            c.cardinality,
            tuple(sorted(code_maps[c.name], key=code_maps[c.name].get)),
        )
        for c in schema.columns
    )
    ds = Dataset(
        schema=FeatureSchema(out_cols),
        features=features,
        treatment=np.array(t_list, dtype=np.int64),
        outcome=np.array(y_list, dtype=np.int64),
    )
    ds.validate()
    return ds


def save_csv(
    ds: Dataset,
    path: str,
    treatment_col: str = "treatment",
    outcome_col: str = "outcome",
) -> None:
    """Write a dataset as CSV (features, then treatment and outcome columns).

    Numeric cells use shortest exact float representation, so a written file
    re-reads to bit-identical values; reruns produce byte-identical files.
    Categorical cells hold the pinned label of the code when the column has
    one, else the literal code.
    """
    labels = {
        j: ds.schema.columns[j].categories
        for j in map(int, ds.schema.categorical_indices)
    }
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(ds.schema.names + [treatment_col, outcome_col])
        for i in range(ds.n):
            row = []
            for j, v in enumerate(ds.features[i]):
                if j in labels:
                    cats = labels[j]
                    row.append(cats[int(v)] if cats else str(int(v)))
                else:
                    row.append(repr(float(v)))
            row.append(str(int(ds.treatment[i])))
            row.append(str(int(ds.outcome[i])))
            writer.writerow(row)
