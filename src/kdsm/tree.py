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
    CATEGORICAL, NUMERIC, Dataset, FeatureSchema, atomic_write, checked_features,
    config_from_jsonable, load_document,
)
from .errors import DomainError, FitError, ParseError, SchemaError, document_errors

TREE_FORMAT = "uplift-tree/v2"


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
    """A node's stats and, unless it is a leaf, its rule; `_link_preorder`
    derives its children and leaf id from the order of the nodes."""

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
        if not (0.0 <= self.min_gain < math.inf):
            raise DomainError(f"min_gain={self.min_gain} must be finite and >= 0")
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
        return np.array([nd.stats.tau_hat for nd in self.leaf_nodes()], dtype=np.float64)

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


def _thresholds(values: np.ndarray, q: int) -> np.ndarray:
    """Up to `q` candidate thresholds of ascending `values`: midpoints of the
    q+1 equally spaced quantiles, each `np.quantile`'s linear one to the bit,
    deduplicated ascending, a zero always +0.0 whatever the order of tied zeros."""
    at = (values.size - 1) * np.linspace(0.0, 1.0, q + 1)
    # as numpy does: the maximum at index -1, its weight counted from there
    lo = np.where(at >= values.size - 1, -1, np.floor(at)).astype(np.intp)
    w = at - lo
    a, b = values[lo], values[np.where(lo < 0, lo, lo + 1)]
    qs = np.where(w >= 0.5, b - (b - a) * (1 - w), a + (b - a) * w)
    return np.unique((qs[:-1] + qs[1:]) / 2.0) + 0.0


def _candidate_scores(params: TreeParams, left, parent: NodeStats):
    """Scores for candidate splits given per-candidate left counts, columns
    in tyc order (control/neg, control/pos, treated/neg, treated/pos).
    Candidates that leave a child with fewer than min_samples_per_arm rows
    of either arm get -inf."""
    nc_l = (left[:, 0] + left[:, 1]).astype(np.float64)
    pc_l = left[:, 1].astype(np.float64)
    nt_l = (left[:, 2] + left[:, 3]).astype(np.float64)
    pt_l = left[:, 3].astype(np.float64)
    nc_r = parent.n_c - nc_l
    pc_r = parent.pos_c - pc_l
    nt_r = parent.n_t - nt_l
    pt_r = parent.pos_t - pt_l
    scores = np.full(left.shape[0], -np.inf)
    m = params.min_samples_per_arm
    v = (nt_l >= m) & (nc_l >= m) & (nt_r >= m) & (nc_r >= m)
    if not v.any():
        return scores
    if params.criterion == "ed":
        tau_l = pt_l[v] / nt_l[v] - pc_l[v] / nc_l[v]
        tau_r = pt_r[v] / nt_r[v] - pc_r[v] / nc_r[v]
        scores[v] = _ed(nt_l[v] + nc_l[v], tau_l, nt_r[v] + nc_r[v], tau_r)
    else:
        scores[v] = _kl_gain(
            nt_l[v], nc_l[v], pt_l[v], pc_l[v], nt_r[v], nc_r[v], pt_r[v], pc_r[v], parent
        )
    return scores


def _best_split(X, tyc, rows, orders, stats: NodeStats, params: TreeParams, schema: FeatureSchema):
    """Best candidate rule at a node, or None: `orders[f]` holds its `rows` in
    ascending order of X[:, f]. Ties go to the lowest (feature index, candidate index)."""
    best_score = -np.inf
    best_rule: SplitRule | None = None
    for f, col in enumerate(schema.columns):
        if col.kind == NUMERIC:
            order = orders[f]
            vals = X[order, f]
            thresholds = _thresholds(vals, params.numeric_split_candidates)
            # the rows at sorted positions below ends[j] are those <= thresholds[j]
            ends = np.searchsorted(vals, thresholds, side="right")
            bins = np.repeat(np.arange(ends.size + 1), np.diff(ends, prepend=0, append=vals.size))
            counts = np.bincount(bins * 4 + tyc[order], minlength=(thresholds.size + 1) * 4)
            left = np.cumsum(counts.reshape(-1, 4), axis=0)[: thresholds.size]
            candidates = thresholds
        else:
            combo = X[rows, f].astype(np.int64) * 4 + tyc[rows]
            counts = np.bincount(combo, minlength=col.cardinality * 4).reshape(-1, 4)
            observed = np.flatnonzero(counts.sum(axis=1) > 0)
            if observed.size < 2:
                continue
            left = counts[observed]
            candidates = observed
        scores = _candidate_scores(params, left, stats)
        if not np.isfinite(scores).any():
            continue
        j = int(np.argmax(scores))  # first maximum = lowest candidate index
        if scores[j] > best_score:
            best_score = scores[j]
            # a rule for this feature's winner only, not one per candidate
            if col.kind == NUMERIC:
                best_rule = SplitRule(feature=f, kind=NUMERIC, threshold=float(candidates[j]))
            else:
                best_rule = SplitRule(feature=f, kind=CATEGORICAL, code=int(candidates[j]))
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
    gain does not exceed min_gain. Each numeric column is sorted once, and
    every child keeps its parent's order of it. Deterministic given (ds,
    params); `seed` is accepted for interface stability and currently unused.
    """
    ds.validate()
    X, t, y = ds.features, ds.treatment, ds.outcome
    root_stats = NodeStats.from_arrays(t, y)
    if root_stats.n_t == 0 or root_stats.n_c == 0:
        raise FitError(
            f"cannot fit: root has {root_stats.n_t} treated and {root_stats.n_c} control rows"
        )
    tree = UpliftTree(schema=ds.schema, params=params)
    tyc = t * 2 + y  # 0: control/neg, 1: control/pos, 2: treated/neg, 3: treated/pos

    def build(rows: np.ndarray, orders: dict, depth: int) -> None:
        stats = NodeStats.from_arrays(t[rows], y[rows])
        node = TreeNode(stats=stats)
        tree.nodes.append(node)
        if depth < params.max_depth:
            node.rule = _best_split(X, tyc, rows, orders, stats, params, ds.schema)
            if node.rule is not None:
                left = node.rule.goes_left(X[:, node.rule.feature])
                # a child's orders are filtered from its parent's just before it is built
                for side in (left, ~left):
                    build(rows[side[rows]], {f: r[side[r]] for f, r in orders.items()}, depth + 1)

    # equal values share a side of every threshold, so any order of ties will
    # do; the narrowest index type keeps the orders small
    narrow = np.min_scalar_type(ds.n)
    orders = {f: np.argsort(X[:, f]).astype(narrow) for f in ds.schema.numeric_indices}
    build(np.arange(ds.n, dtype=np.int64), orders, 0)
    _link_preorder(tree.nodes)
    return tree


def _link_preorder(nodes: list[TreeNode]) -> None:
    """Set each node's `left`, `right` and `leaf_id` from the preorder of
    `nodes`: a left child right after its parent, a right child after its
    sibling's subtree, leaves numbered in node order. Raises a ParseError
    unless the nodes form exactly one tree."""
    if not nodes:
        raise ParseError("tree document has no nodes")
    open_slots = []  # (parent, side) of each child still to come, the next one last
    n_leaves = 0
    for i, nd in enumerate(nodes):
        if i > 0:
            if not open_slots:
                raise ParseError(f"tree node {i} lies after a whole tree")
            parent, side = open_slots.pop()
            setattr(nodes[parent], side, i)
        if nd.rule is None:
            nd.leaf_id, n_leaves = n_leaves, n_leaves + 1
        else:
            open_slots += [(i, "right"), (i, "left")]
    if open_slots:
        parent, side = open_slots[-1]
        raise ParseError(f"tree node {parent} has no {side} child: the nodes end inside it")


def leaf_of_batch(tree: UpliftTree, X: np.ndarray) -> np.ndarray:
    """Leaf id reached by each row of X, which `checked_features` checks."""
    X, _ = checked_features(tree.schema, X)
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
    for nd in tree.nodes:
        # a node is written as its stats' fields and its rule's fields that are not None
        rule = nd.rule and {k: v for k, v in asdict(nd.rule).items() if v is not None}
        nodes.append({**asdict(nd.stats), "rule": rule})
    return {
        "format": TREE_FORMAT,
        **asdict(tree.params),
        "schema_hash": schema_hash(tree.schema),
        "schema": tree.schema.to_jsonable(),
        "nodes": nodes,
    }


@document_errors("tree document")
def tree_from_jsonable(obj: dict) -> UpliftTree:
    """Rebuild a tree, rejecting any document whose params are out of range,
    whose nodes do not form one tree in preorder (see `_link_preorder`),
    whose rules do not fit the schema (see `_rule_from_jsonable`) or whose
    tau_hat is not finite."""
    if obj.get("format") != TREE_FORMAT:
        raise ParseError(f"not a tree document (format {obj.get('format')!r})")
    schema = FeatureSchema.from_jsonable(obj["schema"])
    if schema_hash(schema) != obj["schema_hash"]:
        raise SchemaError("tree document schema hash does not match its schema")
    params = config_from_jsonable(TreeParams, obj)
    nodes = []
    for i, nd in enumerate(obj["nodes"]):
        rule = None if nd["rule"] is None else _rule_from_jsonable(i, nd["rule"], schema)
        stats = config_from_jsonable(NodeStats, nd)
        if not math.isfinite(stats.tau_hat):
            raise ParseError(f"tree node {i}: tau_hat {stats.tau_hat} is not finite")
        nodes.append(TreeNode(stats, rule))
    _link_preorder(nodes)
    return UpliftTree(schema=schema, params=params, nodes=nodes)


def _rule_from_jsonable(i: int, doc: dict, schema: FeatureSchema) -> SplitRule:
    """The rule of node `i`; a ParseError naming the node unless it tests an
    existing column of its kind and holds the value its kind compares with
    (a finite threshold, a code below the cardinality)."""
    rule = config_from_jsonable(SplitRule, doc)
    f = rule.feature
    if not 0 <= f < len(schema.columns) or schema.columns[f].kind != rule.kind:
        raise ParseError(f"tree node {i}: rule feature {f} is not a {rule.kind} column")
    key = "threshold" if rule.kind == NUMERIC else "code"
    if getattr(rule, key) is None:
        raise ParseError(f"tree node {i}: {rule.kind} rule is missing key {key!r}")
    if rule.kind == NUMERIC and not math.isfinite(rule.threshold):
        raise ParseError(f"tree node {i}: threshold {rule.threshold} is not finite")
    if rule.kind == CATEGORICAL and not 0 <= rule.code < schema.columns[f].cardinality:
        raise ParseError(f"tree node {i}: code {rule.code} is not a code of column {f}")
    return rule


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
