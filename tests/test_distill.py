import dataclasses
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdsm import distill
from kdsm.data import (
    Column,
    Dataset,
    FeatureSchema,
    SplitRatios,
    SyntheticConfig,
    gen_synthetic,
    split_dataset,
)
from kdsm.distill import (
    KdsmHyper,
    _assemble_batch,
    _pair_stream,
    _Units,
    TwoModelResult,
    format_train_report,
    match_pairs,
    train_kdsm,
    train_kdss,
    train_mom,
    train_plain,
    train_two_model,
    transformed_outcome,
)
from kdsm.errors import DomainError, FitError, SchemaError
from kdsm.metrics import auuc, rank_eval
from kdsm.seeds import derive_seed
from kdsm.student import (
    StepBuffers,
    StudentConfig,
    forward_batch,
    init_student,
    predict_uplift_batch,
    raw_output_batch,
)
from kdsm.tree import TreeParams, fit_tree, leaf_of_batch
from oracles import SamplePair, pair_loss


def numeric_schema(d):
    return FeatureSchema(tuple(Column(f"f{i}", "numeric") for i in range(d)))


def dataset_from(features, treatment, outcome):
    features = np.asarray(features, dtype=np.float64)
    return Dataset(
        schema=numeric_schema(features.shape[1]),
        features=features,
        treatment=np.asarray(treatment, dtype=np.int64),
        outcome=np.asarray(outcome, dtype=np.int64),
    )


def synthetic(n, seed, effect="piecewise-on-two-features", base_rate=0.3):
    cfg = SyntheticConfig(
        n=n,
        d_numeric=2,
        d_categorical=0,
        base_rate=base_rate,
        effect_function=effect,
        noise_features=0,
        seed=seed,
    )
    ds, _ = gen_synthetic(cfg)
    return ds


def single_leaf_tree(ds):
    return fit_tree(ds, TreeParams(criterion="ed", max_depth=3, min_samples_per_arm=1, min_gain=1e9))


def shallow_tree(ds, depth=2, min_arm=20):
    return fit_tree(ds, TreeParams(criterion="ed", max_depth=depth, min_samples_per_arm=min_arm))


FAST = StudentConfig(hidden_sizes=(8,), optimizer="adam", learning_rate=0.01, init_seed=0)


# --- matching ---


def test_match_pairs_exact_partition_and_arms():
    ds = synthetic(600, seed=0)
    tree = shallow_tree(ds)
    plan = match_pairs(ds, tree, epoch_seed=42)
    used = np.concatenate([plan.treated, plan.control, plan.leftovers])
    assert np.array_equal(np.sort(used), np.arange(ds.n))
    assert np.all(ds.treatment[plan.treated] == 1)
    assert np.all(ds.treatment[plan.control] == 0)


def test_match_pairs_within_leaf_and_counts():
    ds = synthetic(600, seed=1)
    tree = shallow_tree(ds)
    plan = match_pairs(ds, tree, epoch_seed=7)
    leaves = leaf_of_batch(tree, ds.features)
    assert np.array_equal(leaves[plan.treated], plan.leaf_ids)
    assert np.array_equal(leaves[plan.control], plan.leaf_ids)
    taus = tree.leaf_tau()
    assert np.array_equal(plan.teacher_uplift, taus[plan.leaf_ids])
    for leaf in range(tree.n_leaves):
        rows = np.flatnonzero(leaves == leaf)
        n_t = int((ds.treatment[rows] == 1).sum())
        n_c = rows.size - n_t
        assert int((plan.leaf_ids == leaf).sum()) == min(n_t, n_c)


def test_match_pairs_balanced_single_leaf():
    # 3 treated and 3 control in one leaf: 3 pairs, nothing left over
    ds = dataset_from(
        [[0.1], [0.2], [0.3], [0.4], [0.5], [0.6]],
        [1, 1, 1, 0, 0, 0],
        [1, 0, 1, 0, 0, 1],
    )
    plan = match_pairs(ds, single_leaf_tree(ds), epoch_seed=0)
    assert plan.n_pairs == 3
    assert plan.leftovers.size == 0


def test_match_pairs_surplus_becomes_leftovers():
    # 5 treated vs 2 control: 2 pairs, 3 treated leftovers
    ds = dataset_from(
        [[0.1], [0.2], [0.3], [0.4], [0.5], [0.6], [0.7]],
        [1, 1, 1, 1, 1, 0, 0],
        [1, 0, 1, 0, 1, 0, 1],
    )
    plan = match_pairs(ds, single_leaf_tree(ds), epoch_seed=0)
    assert plan.n_pairs == 2
    assert plan.leftovers.size == 3
    assert np.all(ds.treatment[plan.leftovers] == 1)


def test_match_pairs_deterministic_and_seed_sensitive():
    ds = synthetic(500, seed=2)
    tree = shallow_tree(ds)
    a = match_pairs(ds, tree, epoch_seed=11)
    b = match_pairs(ds, tree, epoch_seed=11)
    assert np.array_equal(a.treated, b.treated)
    assert np.array_equal(a.control, b.control)
    assert np.array_equal(a.leftovers, b.leftovers)

    differing = 0
    for s in range(20):
        p = match_pairs(ds, tree, epoch_seed=s)
        q = match_pairs(ds, tree, epoch_seed=1000 + s)
        if not (
            np.array_equal(p.treated, q.treated) and np.array_equal(p.control, q.control)
        ):
            differing += 1
    assert differing >= 18


def test_match_pairs_schema_mismatch():
    ds = synthetic(200, seed=3)
    tree = shallow_tree(ds)
    other = dataset_from(np.random.default_rng(0).random((50, 3)), [1, 0] * 25, [0, 1] * 25)
    with pytest.raises(SchemaError):
        match_pairs(other, tree, epoch_seed=0)


def test_pair_stream_routes_the_rows_once_and_builds_each_epochs_plan(monkeypatch):
    ds = synthetic(600, seed=4)
    tree = shallow_tree(ds)
    seeds = (0, 5, 11)
    plans = {s: match_pairs(ds, tree, s) for s in seeds}
    routed = []
    monkeypatch.setattr(distill, "leaf_of_batch", lambda *a: routed.append(1) or leaf_of_batch(*a))
    for drop in (False, True):
        stream = _pair_stream(ds, tree, drop)
        for s in seeds:
            plan = plans[s]
            rest = plan.leftovers[:0] if drop else plan.leftovers
            want = _Units(
                np.concatenate([plan.treated, rest]),
                np.concatenate([plan.control, np.full(rest.size, -1)]),
                np.concatenate([plan.teacher_uplift, np.full(rest.size, np.nan)]),
            ).shuffled(derive_seed(s, "stream"))
            got = stream(s)
            assert np.array_equal(got.a, want.a) and np.array_equal(got.b, want.b)
            assert np.array_equal(got.u, want.u, equal_nan=True)
    assert len(routed) == 2  # once per stream, not once per epoch


# --- batch assembly ---

# rows 0-2 treated, 3-5 control; feature 0 is the row index
BATCH_DS = dataset_from(np.arange(6.0)[:, None], [1, 1, 1, 0, 0, 0], [1, 0, 0, 1, 1, 0])


def units(a, b, u):
    return _Units(np.array(a, np.int64), np.array(b, np.int64), np.array(u, np.float64))


@pytest.mark.parametrize(
    "stream, rows, T, weight, kd_pairs, targets",
    [
        # matched pairs (0, 3) and (1, 4), leftovers 5 (control) and 2
        # (treated): both treated passes, both control passes, then each
        # leftover on its own arm, all trained by BCE
        (
            units([0, 5, 1, 2], [3, -1, 4, -1], [0.1, np.nan, 0.2, np.nan]),
            [0, 1, 3, 4, 5, 2],
            [1, 1, 0, 0, 0, 1],
            [1, 1, 1, 1, 1, 1],
            [[0, 2], [1, 3]],
            [0.1, 0.2],
        ),
        # single-sample units pair a row with itself: BCE only on the pass
        # of the row's own arm, the soft term on both
        (
            units([2, 4, 0], [2, 4, 0], [0.3, -0.1, 0.2]),
            [2, 4, 0, 2, 4, 0],
            [1, 1, 1, 0, 0, 0],
            [1, 0, 1, 0, 1, 0],
            [[0, 3], [1, 4], [2, 5]],
            [0.3, -0.1, 0.2],
        ),
        # singletons: one pass each on the row's own arm, no soft term
        (
            units([4, 1, 3], [-1, -1, -1], [np.nan] * 3),
            [4, 1, 3],
            [0, 1, 0],
            [1, 1, 1],
            np.zeros((0, 2)),
            [],
        ),
    ],
    ids=["pairs-with-leftovers", "single-sample", "singletons"],
)
def test_assemble_batch_pass_layout_and_bce_weights(stream, rows, T, weight, kd_pairs, targets):
    batch = _assemble_batch(BATCH_DS, stream, 0, len(stream), 0.5)
    assert np.array_equal(batch.X, BATCH_DS.features[rows])
    assert np.array_equal(batch.T, np.array(T, np.float64))
    assert np.array_equal(batch.y, BATCH_DS.outcome[rows].astype(np.float64))
    assert np.array_equal(batch.bce_weight, np.array(weight, np.float64))
    assert np.array_equal(batch.kd_pairs, np.array(kd_pairs, np.int64).reshape(-1, 2))
    assert np.array_equal(batch.kd_targets, np.array(targets, np.float64))
    assert (batch.lam, batch.n_units) == (0.5, len(stream))


# --- pair loss ---


def constant_prob_model(ds, p_control, p_treated):
    """No-hidden-layer model whose output depends only on the treatment bit."""
    model = init_student(StudentConfig(hidden_sizes=(), init_seed=0), ds)
    model.num_mean[:] = 0.0
    model.num_std[:] = 1.0
    b = math.log(p_control / (1 - p_control))
    w = math.log(p_treated / (1 - p_treated)) - b
    model.weights[0][:] = 0.0
    model.weights[0][-1, 0] = w
    model.biases[0][:] = b
    return model


def test_pair_loss_hand_computed():
    ds = dataset_from([[0.4], [0.9]], [1, 0], [1, 0])
    model = constant_prob_model(ds, p_control=0.55, p_treated=0.6)
    pair = SamplePair(treated_row=0, control_row=1, leaf_id=0, teacher_uplift=0.1)
    parts = pair_loss(model, ds, pair, kd_weight=0.5)
    hard = -math.log(0.6) - math.log(1 - 0.55)
    soft = (0.1 - (0.6 - 0.55)) ** 2  # 0.0025
    assert parts.soft == pytest.approx(soft, abs=1e-12)
    assert parts.hard == pytest.approx(hard, abs=1e-12)
    assert parts.total == pytest.approx(hard + 0.5 * soft, abs=1e-12)


def test_pair_loss_zero_weight_is_bitwise_hard():
    rng = np.random.default_rng(4)
    ds = synthetic(50, seed=5)
    t_rows = np.flatnonzero(ds.treatment == 1)
    c_rows = np.flatnonzero(ds.treatment == 0)
    for trial in range(200):
        model = init_student(StudentConfig(hidden_sizes=(3,), init_seed=trial), ds)
        pair = SamplePair(
            int(rng.choice(t_rows)), int(rng.choice(c_rows)), 0, float(rng.normal())
        )
        parts = pair_loss(model, ds, pair, kd_weight=0.0)
        assert parts.total == parts.hard  # exact, no arithmetic on the soft term


# --- trainer equivalences ---


def split_for_training(n, seed, effect="piecewise-on-two-features"):
    ds = synthetic(n, seed=seed, effect=effect)
    sp = split_dataset(ds, SplitRatios(0.6, 0.2, 0.2), seed=seed)
    return sp.train, sp.valid


def params_equal(a, b):
    return np.array_equal(a.params, b.params)


def test_kdss_zero_weight_matches_plain_bitwise():
    train, valid = split_for_training(500, seed=6)
    tree = shallow_tree(train)
    hyper = KdsmHyper(kd_weight=0.0, batch_size=64, max_epochs=3, early_stop_patience=5, master_seed=9)
    m_kdss, _ = train_kdss(train, valid, tree, FAST, hyper)
    m_plain, _ = train_plain(train, valid, FAST, hyper)
    assert params_equal(m_kdss, m_plain)


def test_kdsm_zero_weight_matches_plain_on_pair_stream_bitwise():
    train, valid = split_for_training(500, seed=7)
    tree = shallow_tree(train)
    hyper = KdsmHyper(kd_weight=0.0, batch_size=64, max_epochs=3, early_stop_patience=5, master_seed=10)
    m_kdsm, _ = train_kdsm(train, valid, tree, FAST, hyper)
    m_plain, _ = train_plain(train, valid, FAST, hyper, pair_stream_tree=tree)
    assert params_equal(m_kdsm, m_plain)


def test_kdsm_positive_weight_differs_from_plain():
    train, valid = split_for_training(500, seed=8)
    tree = shallow_tree(train)
    hyper = KdsmHyper(kd_weight=0.5, batch_size=64, max_epochs=2, early_stop_patience=5, master_seed=11)
    m_kdsm, _ = train_kdsm(train, valid, tree, FAST, hyper)
    m_plain, _ = train_plain(train, valid, FAST, hyper, pair_stream_tree=tree)
    assert not params_equal(m_kdsm, m_plain)


def test_kdsm_drop_leftovers_changes_training():
    # arms are imbalanced, so leftovers exist and dropping them matters
    cfg = SyntheticConfig(
        n=600, d_numeric=2, d_categorical=0, base_rate=0.3, treatment_fraction=0.7, noise_features=0, seed=12
    )
    ds, _ = gen_synthetic(cfg)
    sp = split_dataset(ds, SplitRatios(0.6, 0.2, 0.2), seed=12)
    tree = shallow_tree(sp.train)
    hyper = KdsmHyper(kd_weight=0.5, batch_size=64, max_epochs=2, early_stop_patience=5, master_seed=13)
    m_keep, _ = train_kdsm(sp.train, sp.valid, tree, FAST, hyper)
    drop = dataclasses.replace(hyper, drop_leftovers=True)
    m_drop, _ = train_kdsm(sp.train, sp.valid, tree, FAST, drop)
    assert not params_equal(m_keep, m_drop)


def test_train_deterministic():
    train, valid = split_for_training(400, seed=14)
    tree = shallow_tree(train)
    hyper = KdsmHyper(kd_weight=0.5, batch_size=64, max_epochs=2, early_stop_patience=5, master_seed=15)
    a, _ = train_kdsm(train, valid, tree, FAST, hyper)
    b, _ = train_kdsm(train, valid, tree, FAST, hyper)
    assert params_equal(a, b)


@pytest.mark.parametrize("kd_weight", [0.0, 0.5])
@pytest.mark.parametrize("method", ["kdsm", "kdss", "plain"])
def test_trainers_reject_a_tree_of_another_schema(method, kd_weight):
    train, valid = split_for_training(300, seed=26)
    rng = np.random.default_rng(26)
    X = rng.random((200, train.features.shape[1] + 1))
    tree = shallow_tree(dataset_from(X, [1, 0] * 100, rng.integers(0, 2, 200)))
    hyper = KdsmHyper(kd_weight=kd_weight, batch_size=64, max_epochs=1, master_seed=26)
    trainers = {
        "kdsm": lambda: train_kdsm(train, valid, tree, FAST, hyper),
        "kdss": lambda: train_kdss(train, valid, tree, FAST, hyper),
        "plain": lambda: train_plain(train, valid, FAST, hyper, pair_stream_tree=tree),
    }
    with pytest.raises(SchemaError, match="^tree and training data have different schemas$"):
        trainers[method]()


def test_train_rejects_single_arm():
    ds = dataset_from(np.random.default_rng(0).random((40, 2)), [1] * 40, [0, 1] * 20)
    valid = synthetic(100, seed=16)
    with pytest.raises(FitError):
        train_plain(ds, valid, FAST, KdsmHyper())


# --- early stopping / report ---


def test_returned_model_carries_best_epoch():
    train, valid = split_for_training(800, seed=17)
    tree = shallow_tree(train)
    hyper = KdsmHyper(kd_weight=0.5, batch_size=64, max_epochs=8, early_stop_patience=8, master_seed=18)
    model, report = train_kdsm(train, valid, tree, FAST, hyper)
    recorded = [r.val_auuc for r in report.records if r.val_auuc is not None]
    assert recorded, "expected at least one defined validation score"
    assert report.best_val_auuc == max(recorded)
    assert report.records[report.best_epoch].val_auuc == report.best_val_auuc
    # the returned parameters really are the best epoch's parameters
    tie_seed = derive_seed(hyper.master_seed, "valid-ties")
    val = auuc(rank_eval(predict_uplift_batch(model, valid.features), valid.treatment, valid.outcome, tie_seed))
    assert val == report.best_val_auuc


def test_report_format_lines():
    train, valid = split_for_training(300, seed=19)
    hyper = KdsmHyper(batch_size=64, max_epochs=3, early_stop_patience=5, master_seed=20)
    _, report = train_plain(train, valid, FAST, hyper)
    text = format_train_report(report)
    lines = text.splitlines()
    assert lines[0] == "# train report v1"
    assert lines[1] == "method=plain"
    assert sum(1 for l in lines if l.startswith("epoch=")) == len(report.records)
    assert any(l.startswith("best_epoch=") for l in lines)


def test_hyper_validation():
    with pytest.raises(DomainError):
        KdsmHyper(kd_weight=-0.1)
    with pytest.raises(DomainError):
        KdsmHyper(batch_size=0)
    with pytest.raises(DomainError):
        KdsmHyper(max_epochs=0)
    for weight in (math.nan, math.inf):
        with pytest.raises(DomainError, match=r"^kd_weight=.* must be finite and >= 0$"):
            KdsmHyper(kd_weight=weight)


# --- two-model baseline ---


def test_two_model_wiring_is_probability_difference():
    ds = synthetic(200, seed=21)
    m_t = init_student(StudentConfig(hidden_sizes=(4,), init_seed=1), ds)
    m_c = init_student(StudentConfig(hidden_sizes=(4,), init_seed=2), ds)
    result = TwoModelResult(m_t, m_c)
    X = ds.features[:20]
    expected = forward_batch(m_t, X, np.ones(20)) - forward_batch(m_c, X, np.zeros(20))
    assert np.array_equal(result.predict_uplift(X), expected)


def test_two_model_rejects_arms_with_different_schemas():
    m_t = init_student(StudentConfig(hidden_sizes=(4,), init_seed=1), synthetic(100, seed=21))
    other = dataset_from(np.random.default_rng(0).random((40, 2)), [1, 0] * 20, [0, 1] * 20)
    with pytest.raises(SchemaError):
        TwoModelResult(m_t, init_student(StudentConfig(hidden_sizes=(4,), init_seed=2), other))


def test_two_model_constant_arms_zero_uplift():
    ds = synthetic(100, seed=22)
    model = init_student(StudentConfig(hidden_sizes=(), init_seed=0), ds)
    model.weights[0][:] = 0.0
    model.biases[0][:] = 0.3
    result = TwoModelResult(model, model)
    assert np.all(result.predict_uplift(ds.features[:30]) == 0.0)


def test_two_model_trains_and_predicts():
    train, valid = split_for_training(600, seed=23)
    hyper = KdsmHyper(batch_size=64, max_epochs=3, early_stop_patience=5, master_seed=24)
    result, report = train_two_model(train, valid, FAST, hyper)
    u = result.predict_uplift(valid.features)
    assert u.shape == (valid.n,)
    assert np.all(np.isfinite(u))
    assert report.method == "tm"


# --- transformed outcome baseline ---


def test_transformed_outcome_balanced_values():
    ds = dataset_from(
        [[0.1], [0.2], [0.3], [0.4]], [1, 1, 0, 0], [1, 0, 1, 0]
    )
    ystar = transformed_outcome(ds)
    assert np.array_equal(ystar, np.array([2.0, 0.0, -2.0, 0.0]))


def test_transformed_outcome_unbalanced_values():
    ds = dataset_from(
        [[0.1], [0.2], [0.3], [0.4], [0.5]], [1, 0, 0, 0, 0], [1, 1, 0, 0, 0]
    )
    ystar = transformed_outcome(ds)
    assert ystar[0] == pytest.approx(5.0)  # p = 0.2
    assert ystar[1] == pytest.approx(-1.25)  # 1 / (1 - 0.2)
    assert np.all(ystar[2:] == 0.0)


def test_transformed_outcome_single_arm_rejected():
    ds = dataset_from([[0.1], [0.2]], [1, 1], [0, 1])
    with pytest.raises(FitError):
        transformed_outcome(ds)


def test_mom_zero_effect_centers_near_zero():
    # no effect anywhere, so the regression head should stay centered at the
    # pooled estimate ~0 (plain sgd; adaptive steps wander on the noisy
    # +-1/p targets)
    ds = synthetic(20000, seed=25, effect="zero")
    sp = split_dataset(ds, SplitRatios(0.6, 0.2, 0.2), seed=25)
    scfg = StudentConfig(hidden_sizes=(8,), optimizer="sgd", learning_rate=0.05, init_seed=0)
    hyper = KdsmHyper(batch_size=512, max_epochs=4, early_stop_patience=5, master_seed=25)
    model, report = train_mom(sp.train, sp.valid, scfg, hyper)
    preds = raw_output_batch(model, sp.valid.features)
    assert abs(float(preds.mean())) < 0.03
    assert report.method == "mom"


# --- training steps through per-track buffers ---


@st.composite
def step_cases(draw):
    """A small trial with 0-2 categorical columns, and a student and batch
    size drawn from the shapes and settings whose steps take different code."""
    synth = SyntheticConfig(
        n=150,
        d_numeric=2,
        d_categorical=draw(st.integers(0, 2)),
        base_rate=0.3,
        noise_features=0,
        seed=draw(st.integers(0, 2**16)),
    )
    cfg = StudentConfig(
        hidden_sizes=draw(st.sampled_from([(), (4,), (12, 6)])),
        embedding_dim=draw(st.integers(1, 3)),
        activation=draw(st.sampled_from(["relu", "tanh"])),
        optimizer=draw(st.sampled_from(["sgd", "adam"])),
        momentum=0.5,
        init_seed=draw(st.integers(0, 2**16)),
    )
    return synth, cfg, draw(st.sampled_from([1, 7, 64, 2**40]))


@settings(max_examples=24, deadline=None, derandomize=True, database=None)
@given(step_cases())
def test_every_training_step_through_the_tracks_buffers_equals_a_fresh_step(case):
    synth, cfg, batch_size = case
    split = split_dataset(gen_synthetic(synth)[0], SplitRatios(0.6, 0.2, 0.2), seed=synth.seed)
    tree = shallow_tree(split.train, min_arm=5)
    hyper = KdsmHyper(kd_weight=0.5, batch_size=batch_size, max_epochs=2, master_seed=synth.seed)
    real_backward, real_backward_mse = distill.backward, distill.backward_mse
    passes = {}  # id of each track's buffers -> (buffers, passes of every step)

    def checked(got, want, bufs, n_passes):
        # the track's buffers hold the previous step's arrays, the fresh ones nothing
        assert isinstance(bufs, StepBuffers)
        assert np.array_equal(got[0], want[0]) and got[1] == want[1]
        passes.setdefault(id(bufs), (bufs, []))[1].append(n_passes)
        return got

    def backward(model, batch, bufs):
        got = real_backward(model, batch, bufs)
        return checked((got[0].copy(), got[1]), real_backward(model, batch), bufs, batch.X.shape[0])

    def backward_mse(model, X, targets, n_units, bufs):
        got = real_backward_mse(model, X, targets, n_units, bufs)
        want = real_backward_mse(model, X, targets, n_units)
        return checked((got[0].copy(), got[1]), want, bufs, X.shape[0])

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(distill, "backward", backward)
        mp.setattr(distill, "backward_mse", backward_mse)
        train_kdsm(split.train, split.valid, tree, cfg, hyper)
        train_kdss(split.train, split.valid, tree, cfg, hyper)
        train_plain(split.train, split.valid, cfg, hyper)
        train_two_model(split.train, split.valid, cfg, hyper)
        train_mom(split.train, split.valid, cfg, hyper)
    # one set of buffers per track (tm has two), each as deep as its largest step
    assert len(passes) == 6
    for bufs, steps in passes.values():
        assert all(a.shape[0] == max(steps) for a in bufs.arrays)


# --- a bad training row ---


@pytest.fixture(scope="module")
def prepared_cases():
    """A split with categorical columns and its teacher, by d_categorical."""
    ds, _ = gen_synthetic(SyntheticConfig(n=1500, d_categorical=2, base_rate=0.3, noise_features=1, seed=8))
    split = split_dataset(ds, SplitRatios(0.6, 0.2, 0.2), seed=8)
    return {2: (split, shallow_tree(split.train, depth=3, min_arm=10))}


TRAINERS = {
    "kdsm": lambda split, tree, cfg, hyper: train_kdsm(split.train, split.valid, tree, cfg, hyper),
    "kdss": lambda split, tree, cfg, hyper: train_kdss(split.train, split.valid, tree, cfg, hyper),
    "plain": lambda split, tree, cfg, hyper: train_plain(split.train, split.valid, cfg, hyper),
    "tm": lambda split, tree, cfg, hyper: train_two_model(split.train, split.valid, cfg, hyper),
    "mom": lambda split, tree, cfg, hyper: train_mom(split.train, split.valid, cfg, hyper),
}


def spoiled(split, row, col, value):
    X = split.train.features.copy()
    X[row, col] = value
    return Dataset(split.train.schema, X, split.train.treatment, split.train.outcome)


@pytest.mark.parametrize("method", ["kdsm", "kdss", "plain", "tm", "mom"])
@pytest.mark.parametrize(
    "col, value, message",
    [(0, np.nan, "non-finite value in column 'num_0' at row 611"), (6, 4.0, "code 4.0 in categorical column 'cat_0' at row 611")],
    ids=["nan", "code"],
)
def test_a_bad_training_row_is_named_by_its_dataset_row_before_the_first_step(
    prepared_cases, monkeypatch, method, col, value, message
):
    split, tree = prepared_cases[2]
    train = spoiled(split, 611, col, value)
    for name in ("backward", "backward_mse"):
        monkeypatch.setattr(distill, name, mock.Mock(side_effect=AssertionError("a step ran")))
    with pytest.raises(DomainError, match=re.escape(message)):
        TRAINERS[method](dataclasses.replace(split, train=train), tree, FAST, KdsmHyper(max_epochs=1))
