import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdsm.data import Column, Dataset, FeatureSchema, SyntheticConfig, gen_synthetic
from kdsm.errors import DomainError, FitError, KdsmError, ParseError, SchemaError
from kdsm.tree import (
    TreeParams,
    fit_tree,
    leaf_of_batch,
    leaf_summary,
    load_tree,
    predict_uplift_tree_batch,
    save_tree,
    tree_from_jsonable,
    tree_to_jsonable,
)
from oracles import ed_value, kl_value, leaf_of, predict_uplift_tree, stats_from_counts


def numeric_schema(d):
    return FeatureSchema(tuple(Column(f"f{i}", "numeric") for i in range(d)))


def dataset_from(features, treatment, outcome, schema=None):
    features = np.asarray(features, dtype=np.float64)
    if schema is None:
        schema = numeric_schema(features.shape[1])
    return Dataset(
        schema=schema,
        features=features,
        treatment=np.asarray(treatment, dtype=np.int64),
        outcome=np.asarray(outcome, dtype=np.int64),
    )


# --- criterion values ---


def test_ed_value_hand_checks():
    # equal halves, effects 0.2 and 0.0
    left = stats_from_counts(n_t=25, n_c=25, pos_t=10, pos_c=5)
    right = stats_from_counts(n_t=25, n_c=25, pos_t=5, pos_c=5)
    assert left.tau_hat == pytest.approx(0.2)
    assert right.tau_hat == pytest.approx(0.0)
    assert ed_value(left, right) == pytest.approx(0.02)


def test_ed_value_sign_squared_away():
    # 25 rows at -0.4 and 75 rows at +0.1
    left = stats_from_counts(n_t=10, n_c=15, pos_t=2, pos_c=9)
    right = stats_from_counts(n_t=40, n_c=35, pos_t=20, pos_c=14)
    assert left.tau_hat == pytest.approx(-0.4)
    assert right.tau_hat == pytest.approx(0.1)
    assert ed_value(left, right) == pytest.approx(0.0475)


def test_ed_value_zero_when_no_effect():
    left = stats_from_counts(n_t=10, n_c=10, pos_t=3, pos_c=3)
    right = stats_from_counts(n_t=20, n_c=20, pos_t=8, pos_c=8)
    assert ed_value(left, right) == pytest.approx(0.0)


def test_ed_value_rejects_empty_arm():
    left = stats_from_counts(n_t=0, n_c=10, pos_t=0, pos_c=3)
    right = stats_from_counts(n_t=20, n_c=20, pos_t=8, pos_c=8)
    assert ed_value(left, right) is None


def test_ed_value_symmetric_in_children():
    left = stats_from_counts(n_t=12, n_c=9, pos_t=5, pos_c=2)
    right = stats_from_counts(n_t=30, n_c=28, pos_t=9, pos_c=11)
    assert ed_value(left, right) == ed_value(right, left)


def smoothed_kl(a_pos, a_n, b_pos, b_n):
    a = (a_pos + 1) / (a_n + 2)
    b = (b_pos + 1) / (b_n + 2)
    return a * math.log(a / b) + (1 - a) * math.log((1 - a) / (1 - b))


def test_kl_value_zero_when_rates_unchanged():
    parent = stats_from_counts(n_t=20, n_c=20, pos_t=10, pos_c=10)
    left = stats_from_counts(n_t=10, n_c=10, pos_t=5, pos_c=5)
    right = stats_from_counts(n_t=10, n_c=10, pos_t=5, pos_c=5)
    assert kl_value(left, right, parent) == pytest.approx(0.0, abs=1e-12)


def test_kl_value_positive_gain_hand_eval():
    # parent arms identical (smoothed 0.5 each); children separate them to
    # smoothed 0.9 vs 0.1 and 0.1 vs 0.9
    left = stats_from_counts(n_t=8, n_c=8, pos_t=8, pos_c=0)
    right = stats_from_counts(n_t=8, n_c=8, pos_t=0, pos_c=8)
    parent = stats_from_counts(n_t=16, n_c=16, pos_t=8, pos_c=8)
    expected = (
        0.5 * smoothed_kl(8, 8, 0, 8)
        + 0.5 * smoothed_kl(0, 8, 8, 8)
        - smoothed_kl(8, 16, 8, 16)
    )
    got = kl_value(left, right, parent)
    assert got == pytest.approx(expected)
    assert got > 0


def test_kl_value_symmetric_in_children():
    parent = stats_from_counts(n_t=30, n_c=25, pos_t=12, pos_c=4)
    left = stats_from_counts(n_t=14, n_c=10, pos_t=9, pos_c=1)
    right = stats_from_counts(n_t=16, n_c=15, pos_t=3, pos_c=3)
    assert kl_value(left, right, parent) == pytest.approx(kl_value(right, left, parent))


# --- fitting ---


def planted_dataset(n=40_000, seed=3):
    cfg = SyntheticConfig(
        n=n, d_numeric=2, base_rate=0.1, effect_function="piecewise-on-two-features", seed=seed
    )
    ds, tau = gen_synthetic(cfg)
    return ds, tau


def test_fit_recovers_planted_split():
    ds, _ = planted_dataset()
    tree = fit_tree(ds, TreeParams(criterion="ed", max_depth=3, min_samples_per_arm=100))
    root = tree.nodes[0]
    assert root.rule is not None
    assert root.rule.feature == 0
    assert abs(root.rule.threshold - 0.5) < 0.05


def test_fit_kl_also_recovers_planted_split():
    ds, _ = planted_dataset(n=30_000, seed=8)
    tree = fit_tree(ds, TreeParams(criterion="kl", max_depth=2, min_samples_per_arm=100))
    root = tree.nodes[0]
    assert root.rule is not None
    assert root.rule.feature == 0
    assert abs(root.rule.threshold - 0.5) < 0.05


def test_planted_leaf_prediction_near_truth():
    ds, _ = planted_dataset(n=100_000, seed=5)
    tree = fit_tree(ds, TreeParams(criterion="ed", max_depth=3, min_samples_per_arm=200))
    x = np.array([0.9, 0.9])
    assert abs(predict_uplift_tree(tree, x) - 0.1) < 0.02


def test_single_leaf_when_no_gain():
    rng = np.random.default_rng(0)
    n = 400
    t = np.array([1, 0] * (n // 2))
    y = np.zeros(n, dtype=np.int64)
    y[(t == 1)] = 0
    y[np.flatnonzero(t == 1)[:30]] = 1  # treated rate 0.15
    y[np.flatnonzero(t == 0)[:10]] = 1  # control rate 0.05
    ds = dataset_from(rng.random((n, 2)), t, y)
    tree = fit_tree(ds, TreeParams(criterion="ed", max_depth=4, min_samples_per_arm=5, min_gain=1.0))
    assert tree.n_leaves == 1
    assert predict_uplift_tree(tree, np.array([0.5, 0.5])) == pytest.approx(0.1)


def test_max_depth_one_gives_at_most_two_leaves():
    ds, _ = planted_dataset(n=5_000, seed=2)
    tree = fit_tree(ds, TreeParams(criterion="ed", max_depth=1, min_samples_per_arm=50))
    assert tree.n_leaves <= 2


def test_min_samples_per_arm_respected():
    ds, _ = planted_dataset(n=5_000, seed=4)
    tree = fit_tree(ds, TreeParams(criterion="ed", max_depth=4, min_samples_per_arm=100))
    for nd in tree.leaf_nodes():
        assert nd.stats.n_t >= 100
        assert nd.stats.n_c >= 100


def test_fit_rejects_single_arm_root():
    rng = np.random.default_rng(1)
    ds = dataset_from(rng.random((50, 2)), np.ones(50), rng.integers(0, 2, 50))
    with pytest.raises(FitError):
        fit_tree(ds, TreeParams())


def test_categorical_split_recovered():
    # effect exists only for code 2 of a categorical feature
    rng = np.random.default_rng(6)
    n = 20_000
    codes = rng.integers(0, 4, n)
    t = rng.integers(0, 2, n)
    p = 0.1 + 0.12 * ((codes == 2) & (t == 1))
    y = (rng.random(n) < p).astype(np.int64)
    schema = FeatureSchema(
        (Column("c0", "categorical", 4, ("0", "1", "2", "3")), Column("f0", "numeric"))
    )
    ds = dataset_from(
        np.column_stack([codes.astype(float), rng.random(n)]), t, y, schema
    )
    tree = fit_tree(ds, TreeParams(criterion="ed", max_depth=1, min_samples_per_arm=100))
    root = tree.nodes[0]
    assert root.rule is not None
    assert root.rule.feature == 0
    assert root.rule.kind == "categorical"
    assert root.rule.code == 2


def test_fit_deterministic():
    ds, _ = planted_dataset(n=3_000, seed=9)
    params = TreeParams(criterion="ed", max_depth=3, min_samples_per_arm=30)
    a = fit_tree(ds, params, seed=1)
    b = fit_tree(ds, params, seed=1)
    assert tree_to_jsonable(a) == tree_to_jsonable(b)


# --- structural invariants ---


def fitted_example(n=4_000, depth=3, seed=7):
    ds, _ = planted_dataset(n=n, seed=seed)
    return ds, fit_tree(ds, TreeParams(criterion="ed", max_depth=depth, min_samples_per_arm=50))


def test_leaf_stats_partition_training_set():
    ds, tree = fitted_example()
    root = tree.nodes[0].stats
    leaves = tree.leaf_nodes()
    assert sum(nd.stats.n for nd in leaves) == root.n
    assert sum(nd.stats.n_t for nd in leaves) == root.n_t
    assert sum(nd.stats.n_c for nd in leaves) == root.n_c
    assert sum(nd.stats.pos_t for nd in leaves) == root.pos_t
    assert sum(nd.stats.pos_c for nd in leaves) == root.pos_c


def test_predictions_equal_recomputed_leaf_means():
    ds, tree = fitted_example()
    leaf_ids = leaf_of_batch(tree, ds.features)
    preds = predict_uplift_tree_batch(tree, ds.features)
    for leaf in range(tree.n_leaves):
        rows = leaf_ids == leaf
        t = ds.treatment[rows]
        y = ds.outcome[rows]
        recomputed = y[t == 1].mean() - y[t == 0].mean()
        assert np.all(preds[rows] == recomputed)


def test_leaf_ids_dense_and_exclusive():
    _, tree = fitted_example()
    leaf_ids = sorted(nd.leaf_id for nd in tree.leaf_nodes())
    assert leaf_ids == list(range(tree.n_leaves))
    for nd in tree.nodes:
        if nd.rule is None:
            assert nd.left is None and nd.right is None
        else:
            assert nd.leaf_id is None
            assert nd.left is not None and nd.right is not None


def test_monotone_depth_objective():
    ds, _ = planted_dataset(n=8_000, seed=11)

    def ed_objective(tree):
        root_n = tree.nodes[0].stats.n
        return sum(
            (nd.stats.n / root_n) * nd.stats.tau_hat**2 for nd in tree.leaf_nodes()
        )

    values = []
    for depth in (1, 2, 3, 4):
        tree = fit_tree(ds, TreeParams(criterion="ed", max_depth=depth, min_samples_per_arm=50))
        values.append(ed_objective(tree))
    assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))


def test_leaf_of_consistent_with_predict():
    ds, tree = fitted_example()
    taus = tree.leaf_tau()
    rng = np.random.default_rng(13)
    rows = rng.integers(0, ds.n, 1000)
    for i in rows:
        x = ds.features[i]
        assert taus[leaf_of(tree, x)] == predict_uplift_tree(tree, x)


def test_leaf_of_batch_matches_scalar():
    ds, tree = fitted_example(n=2_000)
    batch = leaf_of_batch(tree, ds.features[:200])
    scalar = np.array([leaf_of(tree, ds.features[i]) for i in range(200)])
    assert np.array_equal(batch, scalar)


def test_depth_one_routes_to_distinct_leaves():
    ds, _ = planted_dataset(n=5_000, seed=2)
    tree = fit_tree(ds, TreeParams(criterion="ed", max_depth=1, min_samples_per_arm=50))
    rule = tree.nodes[0].rule
    x_left = np.array([rule.threshold - 0.01, 0.5])
    x_right = np.array([rule.threshold + 0.01, 0.5])
    assert leaf_of(tree, x_left) != leaf_of(tree, x_right)


# --- serialization ---


def test_tree_round_trip_bit_exact(tmp_path):
    ds, tree = fitted_example()
    path = tmp_path / "tree.json"
    save_tree(tree, str(path))
    back = load_tree(str(path))
    assert tree_to_jsonable(back) == tree_to_jsonable(tree)
    rng = np.random.default_rng(3)
    X = rng.random((500, 2))
    assert np.array_equal(
        predict_uplift_tree_batch(back, X), predict_uplift_tree_batch(tree, X)
    )


def test_tree_load_rejects_wrong_format():
    _, tree = fitted_example(n=2_000)
    obj = tree_to_jsonable(tree)
    obj["format"] = "something-else"
    with pytest.raises(ParseError):
        tree_from_jsonable(obj)


def test_tree_load_rejects_schema_tamper():
    _, tree = fitted_example(n=2_000)
    obj = tree_to_jsonable(tree)
    obj["schema"][0]["name"] = "renamed"
    with pytest.raises(SchemaError):
        tree_from_jsonable(obj)


def _set(path, value):
    """Edit of a tree document: nodes[i][key] (or nodes[i]["rule"][key])."""

    def edit(obj):
        target = obj["nodes"][path[0]]
        for key in path[1:-1]:
            target = target[key]
        target[path[-1]] = value

    return edit


@pytest.mark.parametrize(
    "edit, named",
    [
        pytest.param(_set((0, "left"), 0), "node 0", id="root-is-own-child"),
        pytest.param(_set((1, "right"), 0), "node 1", id="child-before-parent"),
        pytest.param(_set((0, "right"), 99), "node 0", id="child-out-of-range"),
        pytest.param(_set((0, "right"), 1), "node 1", id="two-parents"),
        pytest.param(_set((1, "right"), 6), "node 5", id="orphan"),
        pytest.param(_set((3, "leaf_id"), 1), "leaf ids", id="leaf-ids-not-dense"),
        pytest.param(_set((0, "rule", "feature"), 2), "node 0", id="no-such-column"),
        pytest.param(_set((0, "rule", "threshold"), float("nan")), "node 0", id="nan-threshold"),
        pytest.param(
            _set((0, "rule"), {"feature": 0, "kind": "numeric"}), "'threshold'", id="missing-key"
        ),
        pytest.param(_set((2, "id"), 3), "node 2 has id 3", id="id-not-position"),
        pytest.param(_set((2, "id"), True), "node 2 has id True", id="id-not-an-integer"),
        pytest.param(_set((3, "left"), 4), "node 3: a leaf", id="leaf-with-child"),
        pytest.param(_set((0, "leaf_id"), 0), "node 0: an internal node", id="internal-leaf-id"),
    ],
)
def test_tree_load_rejects_malformed_topology(edit, named):
    _, tree = fitted_example(n=2_000)
    assert [nd.left for nd in tree.nodes[:2]] == [1, 2]  # the layout the edits assume
    assert tree.nodes[1].right == 5 and tree.nodes[3].leaf_id == 0
    obj = tree_to_jsonable(tree)
    edit(obj)
    with pytest.raises(ParseError, match=named):
        tree_from_jsonable(obj)


def test_tree_load_rejects_a_categorical_code_outside_its_column():
    rng = np.random.default_rng(5)
    n = 4_000
    code = rng.integers(0, 4, n).astype(np.float64)
    t = rng.permutation(np.arange(n) % 2)
    y = (rng.random(n) < 0.1 + 0.5 * t * (code == 2)).astype(np.int64)
    schema = FeatureSchema((Column("x0", "numeric"), Column("c0", "categorical", 4)))
    X = np.column_stack([rng.random(n), code])
    tree = fit_tree(dataset_from(X, t, y, schema), TreeParams(max_depth=1, min_samples_per_arm=20))
    obj = tree_to_jsonable(tree)
    assert obj["nodes"][0]["rule"] == {"feature": 1, "kind": "categorical", "code": 2}
    obj["nodes"][0]["rule"]["code"] = 99
    with pytest.raises(ParseError, match=r"^tree node 0: code 99 is not a code of column 1$"):
        tree_from_jsonable(obj)


@pytest.mark.parametrize("key, value", [("max_depth", 0), ("criterion", "nope")])
def test_load_tree_rejects_invalid_params(tmp_path, key, value):
    _, tree = fitted_example(n=2_000)
    obj = tree_to_jsonable(tree)
    obj[key] = value
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    with pytest.raises(DomainError, match=f"^{re.escape(str(path))}: .*{key}"):
        load_tree(str(path))


# deterministic examples, and no example database written to the working tree
PROPERTY = settings(max_examples=15, deadline=None, derandomize=True, database=None)


@st.composite
def fitted_trees(draw):
    """A tree fitted with drawn params on a small random trial with one or
    two numeric columns and maybe a categorical one; returns it and the
    trial's features."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(60, 800))
    cols = [Column(f"x{j}", "numeric") for j in range(draw(st.integers(1, 2)))]
    feats = [rng.random(n) for _ in cols]
    if draw(st.booleans()):
        card = draw(st.integers(2, 4))
        cols.append(Column("c0", "categorical", card))
        feats.append(rng.integers(0, card, n).astype(np.float64))
    X = np.column_stack(feats)
    t = rng.permutation(np.arange(n) % 2)  # both arms at the root
    y = (rng.random(n) < 0.2 + 0.4 * t * (X[:, 0] > 0.5)).astype(np.int64)
    params = TreeParams(
        criterion=draw(st.sampled_from(["ed", "kl"])),
        max_depth=draw(st.integers(1, 4)),
        min_samples_per_arm=draw(st.integers(1, 40)),
        min_gain=draw(st.sampled_from([0.0, 1e-4])),
        numeric_split_candidates=draw(st.integers(2, 16)),
    )
    return fit_tree(dataset_from(X, t, y, FeatureSchema(tuple(cols))), params), X


@PROPERTY
@given(fitted_trees())
def test_tree_document_round_trips_byte_for_byte(tmp_path_factory, case):
    tree, X = case
    d = tmp_path_factory.mktemp("tree")
    first, second = str(d / "first.json"), str(d / "second.json")
    save_tree(tree, first)
    back = load_tree(first)
    save_tree(back, second)
    with open(first, "rb") as a, open(second, "rb") as b:
        assert a.read() == b.read()
    assert back.predict_uplift(X).tobytes() == tree.predict_uplift(X).tobytes()


DELETE = object()


@PROPERTY
@given(fitted_trees(), st.data())
def test_tree_document_with_a_bad_node_value_is_rejected(tmp_path_factory, case, data):
    tree, _ = case
    doc = tree_to_jsonable(tree)
    i = data.draw(st.integers(0, len(doc["nodes"]) - 1), label="node")
    node = doc["nodes"][i]
    key = data.draw(st.sampled_from(sorted(node)), label="key")
    edit = data.draw(st.sampled_from([DELETE, "x", "", None, [], [0]]), label="edit")
    # every key of a node is checked, the ones its kind does not use included
    if edit is DELETE:
        must_fail = True
        del node[key]
    else:
        must_fail = node[key] != edit
        node[key] = edit
    path = tmp_path_factory.mktemp("tree") / "tree.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    try:
        load_tree(str(path))
    except KdsmError as e:
        assert str(e).startswith(f"{path}: ")
    else:
        assert not must_fail


def test_leaf_summary_lists_every_leaf():
    _, tree = fitted_example()
    text = leaf_summary(tree)
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("leaf")]
    assert len(lines) == tree.n_leaves


def test_tree_params_validation():
    with pytest.raises(DomainError):
        TreeParams(criterion="gini")
    with pytest.raises(DomainError):
        TreeParams(max_depth=0)
    with pytest.raises(DomainError):
        TreeParams(min_gain=-0.1)
    with pytest.raises(DomainError):
        TreeParams(numeric_split_candidates=1)
