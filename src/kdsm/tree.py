"""Greedy binary uplift decision tree.

Each node keeps per-arm counts and the within-node effect estimate
tau_hat = pos_t/n_t - pos_c/n_c. Splits maximize one of two criteria over
candidate rules (numeric thresholds from quantile midpoints, one equality
rule per observed categorical code):

- "ed": the weighted sum of squared child effects,
  (n_L/n) tau_L^2 + (n_R/n) tau_R^2, ranked by raw value with the minimum
  gain applied to its improvement over the parent's tau^2;
- "kl": the gain in weighted KL divergence between the arms' smoothed
  positive rates, relative to the parent.

Fitting is fully deterministic: ties are broken by lowest (feature index,
candidate index), and the `seed` argument is reserved for future stochastic
variants.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, astuple, dataclass, field, fields

import numpy as np

from .data import (
    CATEGORICAL, NUMERIC, Dataset, FeatureSchema, atomic_write, config_from_jsonable, load_document
)
from .errors import DomainError, FitError, ParseError, SchemaError, document_errors

TREE_FORMAT = "uplift-tree/v1"


@dataclass(frozen=True)
class NodeStats:
    """Per-arm counts and the effect estimate for one node's rows."""

    n: int
    n_t: int
    n_c: int
    pos_t: int
    pos_c: int
    tau_hat: float

    @classmethod
    def from_arrays(cls, treatment: np.ndarray, outcome: np.ndarray) -> "NodeStats":
        n = int(treatment.shape[0])
        n_t = int(np.sum(treatment))
        n_c = n - n_t
        pos_t = int(np.sum(outcome[treatment == 1]))
        pos_c = int(np.sum(outcome[treatment == 0]))
        tau = pos_t / n_t - pos_c / n_c if n_t > 0 and n_c > 0 else float("nan")
        return cls(n=n, n_t=n_t, n_c=n_c, pos_t=pos_t, pos_c=pos_c, tau_hat=tau)


@dataclass(frozen=True)
class SplitRule:
    """Routing rule of an internal node. Numeric: value <= threshold goes
    left. Categorical: value == code goes left."""

    feature: int
    kind: str
    threshold: float | None = None
    code: int | None = None

    def goes_left(self, values: np.ndarray) -> np.ndarray:
        if self.kind == NUMERIC:
            return values <= self.threshold
        return values == float(self.code)


@dataclass
class TreeNode:
    stats: NodeStats
    rule: SplitRule | None = None
    left: int | None = None
    right: int | None = None
    leaf_id: int | None = None


@dataclass(frozen=True)
class TreeParams:
    """Fitting parameters. `max_depth` counts edges from the root and must
    be >= 1: max_depth=1 allows one split."""

    criterion: str = "ed"
    max_depth: int = 5
    min_samples_per_arm: int = 100
    min_gain: float = 0.0
    numeric_split_candidates: int = 32

    def __post_init__(self):
        if self.criterion not in ("ed", "kl"):
            raise DomainError(f"criterion must be 'ed' or 'kl', got {self.criterion!r}")
        if self.max_depth < 1:
            raise DomainError(f"max_depth={self.max_depth} must be >= 1")
        if self.min_samples_per_arm < 1:
            raise DomainError(f"min_samples_per_arm={self.min_samples_per_arm} must be >= 1")
        if self.min_gain < 0:
            raise DomainError(f"min_gain={self.min_gain} must be >= 0")
        if self.numeric_split_candidates < 2:
            raise DomainError(
                f"numeric_split_candidates={self.numeric_split_candidates} must be >= 2"
            )


@dataclass
class UpliftTree:
    """Fitted tree: nodes in preorder (children after their parent), leaves
    numbered densely 0..n_leaves-1 in node order."""

    schema: FeatureSchema
    params: TreeParams
    nodes: list[TreeNode] = field(default_factory=list)

    @property
    def n_leaves(self) -> int:
        return sum(1 for nd in self.nodes if nd.rule is None)

    def leaf_nodes(self) -> list[TreeNode]:
        return [nd for nd in self.nodes if nd.rule is None]

    def leaf_tau(self) -> np.ndarray:
        """tau_hat per leaf, indexed by leaf_id."""
        out = np.empty(self.n_leaves, dtype=np.float64)
        for nd in self.nodes:
            if nd.rule is None:
                out[nd.leaf_id] = nd.stats.tau_hat
        return out

    def predict_uplift(self, X: np.ndarray) -> np.ndarray:
        """tau_hat of the leaf each row of X lands in."""
        return predict_uplift_tree_batch(self, X)


def _ed(n_l, tau_l, n_r, tau_r):
    """Weighted sum of squared child effects; vectorizes over candidates."""
    n = n_l + n_r
    return (n_l / n) * tau_l**2 + (n_r / n) * tau_r**2


def _smoothed_rate(pos, n):
    """Additive smoothing keeps rates strictly inside (0, 1)."""
    return (pos + 1.0) / (n + 2.0)


def _kl_bernoulli(a, b):
    return a * np.log(a / b) + (1.0 - a) * np.log((1.0 - a) / (1.0 - b))


def _kl_gain(nt_l, nc_l, pt_l, pc_l, nt_r, nc_r, pt_r, pc_r, parent: NodeStats):
    """Gain in weighted between-arm KL divergence over the parent's, with
    smoothed rates; vectorizes over candidates."""
    n = parent.n
    n_l = nt_l + nc_l
    n_r = nt_r + nc_r
    kl_l = _kl_bernoulli(_smoothed_rate(pt_l, nt_l), _smoothed_rate(pc_l, nc_l))
    kl_r = _kl_bernoulli(_smoothed_rate(pt_r, nt_r), _smoothed_rate(pc_r, nc_r))
    kl_p = _kl_bernoulli(
        _smoothed_rate(parent.pos_t, parent.n_t), _smoothed_rate(parent.pos_c, parent.n_c)
    )
    return (n_l / n) * kl_l + (n_r / n) * kl_r - kl_p


def _numeric_thresholds(values: np.ndarray, q: int) -> np.ndarray:
    """Up to `q` candidate thresholds: midpoints of q+1 equally spaced
    quantiles of the node's values, deduplicated ascending."""
    qs = np.quantile(values, np.linspace(0.0, 1.0, q + 1))
    return np.unique((qs[:-1] + qs[1:]) / 2.0)


def _candidate_scores(criterion, counts_left, parent: NodeStats):
    """Scores for candidate splits given per-candidate left counts
    (columns: n_c, pos_c, n_t, pos_t). Invalid candidates get -inf."""
    nc_l = counts_left[:, 0].astype(np.float64)
    pc_l = counts_left[:, 1].astype(np.float64)
    nt_l = counts_left[:, 2].astype(np.float64)
    pt_l = counts_left[:, 3].astype(np.float64)
    nc_r = parent.n_c - nc_l
    pc_r = parent.pos_c - pc_l
    nt_r = parent.n_t - nt_l
    pt_r = parent.pos_t - pt_l
    scores = np.full(counts_left.shape[0], -np.inf)
    v = (nt_l > 0) & (nc_l > 0) & (nt_r > 0) & (nc_r > 0)
    if not v.any():
        return scores
    if criterion == "ed":
        tau_l = pt_l[v] / nt_l[v] - pc_l[v] / nc_l[v]
        tau_r = pt_r[v] / nt_r[v] - pc_r[v] / nc_r[v]
        scores[v] = _ed(nt_l[v] + nc_l[v], tau_l, nt_r[v] + nc_r[v], tau_r)
    else:
        scores[v] = _kl_gain(
            nt_l[v], nc_l[v], pt_l[v], pc_l[v], nt_r[v], nc_r[v], pt_r[v], pc_r[v], parent
        )
    return scores


def _best_split(X, t, y, rows, stats: NodeStats, params: TreeParams, schema: FeatureSchema):
    """Best candidate rule at a node, or None. Ties go to the lowest
    (feature index, candidate index)."""
    m = params.min_samples_per_arm
    t_rows = t[rows]
    y_rows = y[rows]
    tyc = t_rows * 2 + y_rows  # 0: control/neg, 1: control/pos, 2: treated/neg, 3: treated/pos
    best_score = -np.inf
    best_rule: SplitRule | None = None
    for f, col in enumerate(schema.columns):
        vals = X[rows, f]
        if col.kind == NUMERIC:
            thresholds = _numeric_thresholds(vals, params.numeric_split_candidates)
            if thresholds.size == 0:
                continue
            bins = np.searchsorted(thresholds, vals, side="left")
            combo = bins * 4 + tyc
            counts = np.bincount(combo, minlength=(thresholds.size + 1) * 4).reshape(-1, 4)
            # left counts for threshold j are rows with bins <= j
            left = np.cumsum(counts, axis=0)[: thresholds.size]
            cand_rules = [
                SplitRule(feature=f, kind=NUMERIC, threshold=float(thr)) for thr in thresholds
            ]
        else:
            codes = vals.astype(np.int64)
            combo = codes * 4 + tyc
            counts = np.bincount(combo, minlength=col.cardinality * 4).reshape(-1, 4)
            observed = np.flatnonzero(counts.sum(axis=1) > 0)
            if observed.size < 2:
                continue
            left = counts[observed]
            cand_rules = [
                SplitRule(feature=f, kind=CATEGORICAL, code=int(c)) for c in observed
            ]
        # columns of `left` follow the tyc encoding above
        counts_left = np.stack(
            [left[:, 0] + left[:, 1], left[:, 1], left[:, 2] + left[:, 3], left[:, 3]], axis=1
        )
        scores = _candidate_scores(params.criterion, counts_left, stats)
        size_ok = (
            (counts_left[:, 0] >= m)
            & (counts_left[:, 2] >= m)
            & (stats.n_c - counts_left[:, 0] >= m)
            & (stats.n_t - counts_left[:, 2] >= m)
        )
        scores[~size_ok] = -np.inf
        if not np.isfinite(scores).any():
            continue
        j = int(np.argmax(scores))  # first maximum = lowest candidate index
        if scores[j] > best_score:
            best_score = scores[j]
            best_rule = cand_rules[j]
    if best_rule is None:
        return None
    gain = best_score - stats.tau_hat**2 if params.criterion == "ed" else best_score
    if not gain > params.min_gain:
        return None
    return best_rule


def fit_tree(ds: Dataset, params: TreeParams, seed: int = 0) -> UpliftTree:
    """Fit a tree by greedy recursive splitting.

    Recursion stops at max_depth, when no candidate leaves at least
    min_samples_per_arm rows of each arm in both children, or when the best
    gain does not exceed min_gain. Deterministic given (ds, params); `seed`
    is accepted for interface stability and currently unused.
    """
    ds.validate()
    X, t, y = ds.features, ds.treatment, ds.outcome
    root_stats = NodeStats.from_arrays(t, y)
    if root_stats.n_t == 0 or root_stats.n_c == 0:
        raise FitError(
            f"cannot fit: root has {root_stats.n_t} treated and {root_stats.n_c} control rows"
        )
    tree = UpliftTree(schema=ds.schema, params=params)
    nodes = tree.nodes

    def build(rows: np.ndarray, depth: int) -> int:
        stats = NodeStats.from_arrays(t[rows], y[rows])
        node_id = len(nodes)
        nodes.append(TreeNode(stats=stats))
        if depth < params.max_depth:
            rule = _best_split(X, t, y, rows, stats, params, ds.schema)
            if rule is not None:
                go_left = rule.goes_left(X[rows, rule.feature])
                nodes[node_id].rule = rule
                nodes[node_id].left = build(rows[go_left], depth + 1)
                nodes[node_id].right = build(rows[~go_left], depth + 1)
        return node_id

    build(np.arange(ds.n, dtype=np.int64), 0)
    leaf_id = 0
    for nd in nodes:
        if nd.rule is None:
            nd.leaf_id = leaf_id
            leaf_id += 1
    return tree


def leaf_of_batch(tree: UpliftTree, X: np.ndarray) -> np.ndarray:
    """Leaf id reached by each row of X."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != len(tree.schema.columns):
        raise SchemaError(
            f"feature matrix has {X.shape[1] if X.ndim == 2 else '?'} columns, "
            f"schema expects {len(tree.schema.columns)}"
        )
    out = np.empty(X.shape[0], dtype=np.int64)
    stack = [(0, np.arange(X.shape[0], dtype=np.int64))]
    while stack:
        node_id, idx = stack.pop()
        nd = tree.nodes[node_id]
        if nd.rule is None:
            out[idx] = nd.leaf_id
        elif idx.size:
            go_left = nd.rule.goes_left(X[idx, nd.rule.feature])
            stack.append((nd.left, idx[go_left]))
            stack.append((nd.right, idx[~go_left]))
    return out


def predict_uplift_tree_batch(tree: UpliftTree, X: np.ndarray) -> np.ndarray:
    """tau_hat of the leaf each row lands in."""
    return tree.leaf_tau()[leaf_of_batch(tree, X)]


def schema_hash(schema: FeatureSchema) -> str:
    """Stable hash of a feature schema, used to detect mismatches between
    serialized models and the data they are applied to."""
    canon = json.dumps(schema.to_jsonable(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def tree_to_jsonable(tree: UpliftTree) -> dict:
    nodes = []
    for i, nd in enumerate(tree.nodes):
        # a node is written as its fields with its stats inlined, and its rule
        # as the rule's fields that are not None
        doc = asdict(nd)
        stats = doc.pop("stats")
        if nd.rule is not None:
            doc["rule"] = {k: v for k, v in doc["rule"].items() if v is not None}
        nodes.append({"id": i, **stats, **doc})
    return {
        "format": TREE_FORMAT,
        **asdict(tree.params),
        "schema_hash": schema_hash(tree.schema),
        "schema": tree.schema.to_jsonable(),
        "nodes": nodes,
    }


@document_errors("tree document")
def tree_from_jsonable(obj: dict) -> UpliftTree:
    """Rebuild a tree, rejecting any document whose params are out of range
    or whose nodes do not form the preorder tree `fit_tree` writes (see
    `_check_topology`)."""
    if obj.get("format") != TREE_FORMAT:
        raise ParseError(f"not a tree document (format {obj.get('format')!r})")
    schema = FeatureSchema.from_jsonable(obj["schema"])
    if schema_hash(schema) != obj["schema_hash"]:
        raise SchemaError("tree document schema hash does not match its schema")
    params = config_from_jsonable(TreeParams, obj)
    nodes = [
        TreeNode(
            config_from_jsonable(NodeStats, nd),
            None if nd["rule"] is None else config_from_jsonable(SplitRule, nd["rule"]),
            nd["left"], nd["right"], nd["leaf_id"],
        )
        for nd in obj["nodes"]
    ]
    _check_topology(nodes, schema)
    return UpliftTree(schema=schema, params=params, nodes=nodes)


def _check_topology(nodes: list[TreeNode], schema: FeatureSchema) -> None:
    """Raise a ParseError naming the node unless every child id lies after
    its parent's, every node but the root has exactly one parent, leaf ids
    are 0..n_leaves-1, and every rule tests an existing column of its kind
    and holds the value its kind compares with (numeric thresholds finite).
    Children after parents rule out cycles, which would make routing loop
    forever."""
    if not nodes:
        raise ParseError("tree document has no nodes")
    parents = [0] * len(nodes)
    leaf_ids = []
    for i, nd in enumerate(nodes):
        if nd.rule is None:
            if not _is_int(nd.leaf_id):
                raise ParseError(f"tree node {i}: leaf without an integer leaf_id")
            leaf_ids.append(nd.leaf_id)
            continue
        for side, child in (("left", nd.left), ("right", nd.right)):
            if not (_is_int(child) and i < child < len(nodes)):
                raise ParseError(
                    f"tree node {i}: {side} child {child!r} is not a node id in ({i}, {len(nodes)})"
                )
            parents[child] += 1
        f = nd.rule.feature
        if not 0 <= f < len(schema.columns) or schema.columns[f].kind != nd.rule.kind:
            raise ParseError(f"tree node {i}: rule feature {f} is not a {nd.rule.kind} column")
        key = "threshold" if nd.rule.kind == NUMERIC else "code"
        if getattr(nd.rule, key) is None:
            raise ParseError(f"tree node {i}: {nd.rule.kind} rule is missing key {key!r}")
        if nd.rule.kind == NUMERIC and not math.isfinite(nd.rule.threshold):
            raise ParseError(f"tree node {i}: threshold {nd.rule.threshold} is not finite")
    for i in range(1, len(nodes)):
        if parents[i] != 1:
            raise ParseError(f"tree node {i} is referenced by {parents[i]} parents, expected 1")
    if sorted(leaf_ids) != list(range(len(leaf_ids))):
        raise ParseError(f"tree leaf ids {sorted(leaf_ids)} are not 0..{len(leaf_ids) - 1}")


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def save_tree(tree: UpliftTree, path: str) -> None:
    """Serialize to a versioned JSON document; round-trips bit-exactly."""
    with atomic_write(path) as fh:
        json.dump(tree_to_jsonable(tree), fh, indent=1)
        fh.write("\n")


def load_tree(path: str) -> UpliftTree:
    return load_document(path, tree_from_jsonable)


def leaf_summary(tree: UpliftTree) -> str:
    """Human-readable per-leaf table: counts, positives, and tau_hat."""
    lines = ["\t".join(["leaf_id", *(f.name for f in fields(NodeStats))])]
    for nd in tree.leaf_nodes():
        lines.append("\t".join(map(repr, [nd.leaf_id, *astuple(nd.stats)])))
    return "\n".join(lines) + "\n"
