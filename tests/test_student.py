import functools
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kdsm

from kdsm.data import SplitRatios, SyntheticConfig, gen_synthetic, split_dataset
from kdsm.distill import KdsmHyper, TwoModelResult, train_kdsm
from kdsm.errors import DomainError, KdsmError, ParseError, SchemaError, TrainingError
from kdsm.student import (
    SCORE_BLOCK_ROWS,
    LossBatch,
    StudentConfig,
    apply_update,
    backward,
    backward_mse,
    forward_batch,
    init_optimizer,
    init_student,
    load_student,
    param_views,
    predict_uplift_batch,
    predict_uplift_student,
    raw_output_batch,
    save_student,
    student_from_jsonable,
    student_to_jsonable,
)
from kdsm.student import StepBuffers, _forward_cached
from kdsm.tree import TreeParams, fit_tree
import oracles
from oracles import batch_loss, bce, forward


def tiny_dataset(n=40, d_numeric=2, d_categorical=0, seed=0):
    cfg = SyntheticConfig(
        n=n, d_numeric=d_numeric, d_categorical=d_categorical, base_rate=0.3, noise_features=0, seed=seed
    )
    ds, _ = gen_synthetic(cfg)
    return ds


def singles_batch(ds, rows=None, n_units=None):
    rows = np.arange(ds.n) if rows is None else np.asarray(rows)
    k = rows.shape[0]
    return LossBatch(
        X=ds.features[rows],
        T=ds.treatment[rows].astype(np.float64),
        y=ds.outcome[rows].astype(np.float64),
        bce_weight=np.ones(k),
        kd_pairs=np.zeros((0, 2), dtype=np.int64),
        kd_targets=np.zeros(0),
        lam=0.0,
        n_units=k if n_units is None else n_units,
    )


def pair_batch(ds, treated_row, control_row, u_tea, lam):
    # one matched pair: two passes, one loss unit
    return LossBatch(
        X=ds.features[[treated_row, control_row]],
        T=np.array([1.0, 0.0]),
        y=ds.outcome[[treated_row, control_row]].astype(np.float64),
        bce_weight=np.ones(2),
        kd_pairs=np.array([[0, 1]], dtype=np.int64),
        kd_targets=np.array([u_tea]),
        lam=lam,
        n_units=1,
    )


# --- forward ---


def test_forward_hand_computed():
    ds = tiny_dataset()
    cfg = StudentConfig(hidden_sizes=(2,), activation="relu", init_seed=0)
    model = init_student(cfg, ds)
    # overwrite everything with hand-picked numbers; identity standardization
    model.num_mean[:] = 0.0
    model.num_std[:] = 1.0
    model.weights[0][:] = np.array([[0.5, -1.0], [1.0, 0.5], [-0.25, 0.75]])
    model.biases[0][:] = np.array([0.1, -0.2])
    model.weights[1][:] = np.array([[2.0], [-1.2]])
    model.biases[1][:] = np.array([0.3])

    x = np.array([0.2, -0.4])
    # input layer is [0.2, -0.4, t]; with t=1:
    s1 = 0.2 * 0.5 + (-0.4) * 1.0 + 1.0 * (-0.25) + 0.1  # -0.45 -> relu 0
    s2 = 0.2 * (-1.0) + (-0.4) * 0.5 + 1.0 * 0.75 + (-0.2)  # 0.15
    z = max(s1, 0.0) * 2.0 + max(s2, 0.0) * (-1.2) + 0.3  # 0.12
    expected = 1.0 / (1.0 + math.exp(-z))
    assert forward(model, x, 1) == pytest.approx(expected, abs=1e-15)

    # and with t=0 both pre-activations go negative, so z is just the bias
    expected0 = 1.0 / (1.0 + math.exp(-0.3))
    assert forward(model, x, 0) == pytest.approx(expected0, abs=1e-15)


def test_forward_zero_final_layer_is_half():
    ds = tiny_dataset()
    model = init_student(StudentConfig(hidden_sizes=(8,), init_seed=1), ds)
    model.weights[-1][:] = 0.0
    model.biases[-1][:] = 0.0
    rng = np.random.default_rng(0)
    X = rng.random((20, 2))
    assert np.all(forward_batch(model, X, np.ones(20)) == 0.5)
    assert np.all(predict_uplift_batch(model, X) == 0.0)


def test_forward_deterministic():
    ds = tiny_dataset()
    model = init_student(StudentConfig(init_seed=2), ds)
    x = ds.features[3]
    assert forward(model, x, 1) == forward(model, x, 1)


def test_forward_rejects_nonfinite():
    ds = tiny_dataset()
    model = init_student(StudentConfig(init_seed=2), ds)
    bad = ds.features[:2].copy()
    bad[0, 0] = np.inf
    with pytest.raises(DomainError):
        forward_batch(model, bad, np.ones(2))


def test_treatment_bit_only_model_positive_uplift():
    ds = tiny_dataset()
    model = init_student(StudentConfig(hidden_sizes=(), init_seed=0), ds)
    model.weights[0][:] = 0.0
    model.weights[0][-1, 0] = 2.0  # treatment bit is the last input
    model.biases[0][:] = 0.0
    x = ds.features[0]
    expected = 1.0 / (1.0 + math.exp(-2.0)) - 0.5
    assert predict_uplift_student(model, x) == pytest.approx(expected, abs=1e-15)


def test_uplift_bounded():
    rng = np.random.default_rng(5)
    for seed in range(20):
        ds = tiny_dataset(seed=seed)
        model = init_student(StudentConfig(hidden_sizes=(4,), init_seed=seed), ds)
        for w in model.weights:
            w *= 50.0  # exaggerate to push logits around
        u = predict_uplift_batch(model, rng.random((50, 2)))
        assert np.all(u > -1.0) and np.all(u < 1.0)


def test_init_uses_train_positive_rate_for_final_bias():
    ds = tiny_dataset(n=200, seed=3)
    model = init_student(StudentConfig(init_seed=0), ds)
    rate = ds.outcome.mean()
    assert model.biases[-1][0] == pytest.approx(math.log(rate / (1 - rate)))


def test_init_deterministic():
    ds = tiny_dataset()
    a = init_student(StudentConfig(init_seed=9), ds)
    b = init_student(StudentConfig(init_seed=9), ds)
    assert np.array_equal(a.params, b.params)


# --- bce ---


def test_bce_analytic_values():
    assert bce(0, 0.5) == pytest.approx(math.log(2))
    assert bce(1, 0.1) == pytest.approx(-math.log(0.1))
    assert bce(1, 1 - 1e-7) == pytest.approx(1e-7, rel=1e-3)
    assert bce(1, 1.0) == pytest.approx(bce(1, 1 - 1e-7))  # clamped


# --- gradients ---


def flatten_params(model):
    return model.params.copy()


def set_params(model, flat):
    model.params[...] = flat


def fd_check(model, loss_fn, grads, n_probe, rng, eps=1e-5):
    flat = flatten_params(model)
    grad_flat = grads
    idxs = rng.choice(flat.size, size=min(n_probe, flat.size), replace=False)
    for i in idxs:
        bumped = flat.copy()
        bumped[i] += eps
        set_params(model, bumped)
        up = loss_fn()
        bumped[i] -= 2 * eps
        set_params(model, bumped)
        down = loss_fn()
        set_params(model, flat)
        fd = (up - down) / (2 * eps)
        if abs(grad_flat[i]) < 1e-8:
            assert abs(fd) < 1e-8 + 1e-6
        else:
            assert abs(fd - grad_flat[i]) / abs(grad_flat[i]) < 1e-4


def test_gradient_matches_finite_differences_bce_only():
    ds = tiny_dataset(n=30, d_categorical=1, seed=4)
    model = init_student(
        StudentConfig(hidden_sizes=(5,), embedding_dim=2, init_seed=7), ds
    )
    batch = singles_batch(ds)
    grads, _ = backward(model, batch)
    rng = np.random.default_rng(0)
    fd_check(model, lambda: batch_loss(model, batch).total, grads, 30, rng)


def test_gradient_matches_finite_differences_kd_pair():
    ds = tiny_dataset(n=20, seed=6)
    for shape, act in (((4,), "relu"), ((3, 3), "tanh")):
        model = init_student(
            StudentConfig(hidden_sizes=shape, activation=act, init_seed=11), ds
        )
        t_row = int(np.flatnonzero(ds.treatment == 1)[0])
        c_row = int(np.flatnonzero(ds.treatment == 0)[0])
        batch = pair_batch(ds, t_row, c_row, u_tea=0.07, lam=0.5)
        grads, _ = backward(model, batch)
        rng = np.random.default_rng(1)
        fd_check(model, lambda: batch_loss(model, batch).total, grads, 25, rng)


def test_gradient_kd_term_vanishes_at_teacher_match():
    # if the student pair difference already equals the teacher value, the
    # soft term adds nothing to the gradient
    ds = tiny_dataset(n=20, seed=2)
    model = init_student(StudentConfig(hidden_sizes=(4,), init_seed=3), ds)
    t_row = int(np.flatnonzero(ds.treatment == 1)[0])
    c_row = int(np.flatnonzero(ds.treatment == 0)[0])
    p_t = forward(model, ds.features[t_row], 1)
    p_c = forward(model, ds.features[c_row], 0)
    with_kd, _ = backward(model, pair_batch(ds, t_row, c_row, u_tea=p_t - p_c, lam=0.5))
    without, _ = backward(model, pair_batch(ds, t_row, c_row, u_tea=0.0, lam=0.0))
    assert np.allclose(with_kd, without, atol=1e-12)


def test_gradient_mse_matches_finite_differences():
    ds = tiny_dataset(n=25, seed=8)
    model = init_student(
        StudentConfig(hidden_sizes=(4,), init_seed=5), ds, head="regression", final_bias=0.0
    )
    targets = np.random.default_rng(2).normal(size=25)
    grads, _ = backward_mse(model, ds.features, targets, n_units=25)

    def loss():
        from kdsm.student import raw_output_batch

        z = raw_output_batch(model, ds.features)
        return float(np.sum((z - targets) ** 2)) / 25

    fd_check(model, loss, grads, 25, np.random.default_rng(3))


def test_nonfinite_gradient_names_the_parameter():
    ds = tiny_dataset(n=10, seed=3)
    model = init_student(StudentConfig(hidden_sizes=(4,), init_seed=2), ds, head="regression", final_bias=0.0)
    with np.errstate(all="ignore"), pytest.raises(TrainingError, match=r"non-finite gradient in weights\[0\]"):
        backward_mse(model, ds.features, np.full(10, np.inf), n_units=10)


def test_backward_deterministic():
    ds = tiny_dataset(n=30, seed=1)
    model = init_student(StudentConfig(hidden_sizes=(6,), init_seed=4), ds)
    batch = singles_batch(ds)
    a, _ = backward(model, batch)
    b, _ = backward(model, batch)
    assert np.array_equal(a, b)


@pytest.mark.parametrize(
    "col, value, message",
    [(0, np.nan, "non-finite value in column 'num_0' at row 5"), (2, 4.0, "code 4.0 in categorical column 'cat_0' at row 5")],
    ids=["nan", "code"],
)
def test_a_bad_row_passed_to_a_training_step_names_its_column(col, value, message):
    ds = tiny_dataset(n=12, d_categorical=1, seed=4)
    X = ds.features.copy()
    X[5, col] = value
    cfg = StudentConfig(hidden_sizes=(4,), init_seed=2)
    batch = singles_batch(ds)
    batch.X = X
    with pytest.raises(DomainError, match=re.escape(message)):
        backward(init_student(cfg, ds), batch)
    with pytest.raises(DomainError, match=re.escape(message)):
        backward_mse(init_student(cfg, ds, head="regression", final_bias=0.0), X, np.zeros(12), n_units=12)


# --- optimizer ---


def test_sgd_zero_gradient_no_change():
    ds = tiny_dataset()
    model = init_student(StudentConfig(optimizer="sgd", momentum=0.0, init_seed=0), ds)
    before = model.params.copy()
    state = init_optimizer(model)
    apply_update(model, np.zeros_like(model.params), state)
    assert np.array_equal(model.params, before)


def test_sgd_single_step_formula():
    ds = tiny_dataset()
    cfg = StudentConfig(optimizer="sgd", momentum=0.0, learning_rate=0.1, init_seed=0)
    model = init_student(cfg, ds)
    p_before = model.weights[0][0, 0]
    grads = np.zeros_like(model.params)
    param_views(model.config, model.schema, grads)[1][0][0, 0] = 0.37
    apply_update(model, grads, init_optimizer(model))
    assert model.weights[0][0, 0] == pytest.approx(p_before - 0.1 * 0.37, abs=1e-15)


def test_adam_first_step_magnitude():
    ds = tiny_dataset()
    cfg = StudentConfig(optimizer="adam", learning_rate=0.01, init_seed=0)
    model = init_student(cfg, ds)
    p_before = model.weights[0][0, 0]
    grads = np.zeros_like(model.params)
    param_views(model.config, model.schema, grads)[1][0][0, 0] = -0.37
    apply_update(model, grads, init_optimizer(model))
    delta = model.weights[0][0, 0] - p_before
    assert 0.9 * cfg.learning_rate <= abs(delta) <= 1.0 * cfg.learning_rate
    assert delta > 0  # steps against the gradient sign


@pytest.mark.parametrize("optimizer", ["sgd", "adam"])
def test_update_through_the_scratch_equals_the_out_of_place_update(optimizer):
    ds = tiny_dataset(d_categorical=1)
    cfg = StudentConfig(optimizer=optimizer, momentum=0.9, learning_rate=0.05, init_seed=0)
    model, reference = init_student(cfg, ds), init_student(cfg, ds)
    state, ref_state = init_optimizer(model), init_optimizer(reference)
    rng = np.random.default_rng(3)
    for _ in range(5):
        grads = rng.standard_normal(model.params.size)
        apply_update(model, grads, state)
        oracles.apply_update(reference, grads, ref_state)
        assert np.array_equal(model.params, reference.params)
        assert np.array_equal(state.m, ref_state.m) and state.step == ref_state.step
        if optimizer == "adam":
            assert np.array_equal(state.v, ref_state.v)


def test_loss_descends_under_full_batch_sgd():
    cfg = SyntheticConfig(n=64, d_numeric=3, d_categorical=0, base_rate=0.3, noise_features=0, seed=10)
    ds, _ = gen_synthetic(cfg)
    scfg = StudentConfig(
        hidden_sizes=(8,), optimizer="sgd", momentum=0.0, learning_rate=0.5, init_seed=6
    )
    model = init_student(scfg, ds)
    state = init_optimizer(model)
    batch = singles_batch(ds)
    descents = 0
    prev = batch_loss(model, batch).total
    for _ in range(50):
        grads, _ = backward(model, batch)
        apply_update(model, grads, state)
        cur = batch_loss(model, batch).total
        if cur < prev:
            descents += 1
        prev = cur
    assert descents >= 48


# --- blocked scoring ---

# Scoring sums the first layer in another order than the training forward
# (the treatment bit is added after the covariate product), so the two agree
# to rounding, not bitwise.
SCORE_TOL = 1e-15
B = SCORE_BLOCK_ROWS


def oracle_logits(model, X, T):
    """Unblocked logits: the training forward over the whole input."""
    return _forward_cached(model, X, T, StepBuffers(model))[0]


def oracle_prob(model, X, T):
    return 1.0 / (1.0 + np.exp(-np.clip(oracle_logits(model, X, T), -30.0, 30.0)))


@pytest.fixture(scope="module")
def scoring_rows():
    return tiny_dataset(n=2 * B + 3, d_categorical=2, seed=21)


@pytest.mark.parametrize("hidden", [(64, 32), ()])
@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_blocked_scoring_matches_unblocked_oracle(scoring_rows, activation, hidden):
    ds = scoring_rows
    cfg = StudentConfig(hidden_sizes=hidden, embedding_dim=3, activation=activation, init_seed=22)
    model = init_student(cfg, ds)
    reg = init_student(cfg, ds, head="regression", final_bias=0.0)
    T = np.random.default_rng(23).integers(0, 2, ds.n).astype(np.float64)
    for n in (1, 2, B - 1, B, B + 1, 2 * B + 3):
        X = ds.features[:n]
        ones, zeros = np.ones(n), np.zeros(n)
        want = oracle_prob(model, X, ones) - oracle_prob(model, X, zeros)
        assert np.max(np.abs(predict_uplift_batch(model, X) - want)) <= SCORE_TOL, n
        got = forward_batch(model, X, T[:n])
        assert np.max(np.abs(got - oracle_prob(model, X, T[:n]))) <= SCORE_TOL, n
        got = raw_output_batch(reg, X)
        assert np.max(np.abs(got - oracle_logits(reg, X, zeros))) <= SCORE_TOL, n


# Hashes every score of the three batch entry points, for relu and tanh
# students with hidden (64, 32) and (), at each block size given on the
# command line; the row counts cross the block boundaries of 1,024 and 8,192.
BLOCKED_SCORES = """
import hashlib, sys
import numpy as np
import pytest
from kdsm import student
from kdsm.data import SyntheticConfig, gen_synthetic

cfg = SyntheticConfig(n=16387, d_numeric=2, d_categorical=2, base_rate=0.3, noise_features=0, seed=21)
ds, _ = gen_synthetic(cfg)
T = np.random.default_rng(23).integers(0, 2, ds.n).astype(np.float64)
for block in map(int, sys.argv[1:]):
    digest = hashlib.sha256()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(student, "SCORE_BLOCK_ROWS", block)
        for activation in ("relu", "tanh"):
            for hidden in ((64, 32), ()):
                model_cfg = student.StudentConfig(hidden_sizes=hidden, embedding_dim=3, activation=activation)
                model = student.init_student(model_cfg, ds)
                model.params[...] = np.random.default_rng(25).normal(0.0, 0.5, model.params.size)
                reg = student.init_student(model_cfg, ds, head="regression", final_bias=0.0)
                reg.params[...] = model.params
                for n in (1, 2, 3, 5, 1025, 2051, 8193, 16387):
                    X = ds.features[:n]
                    digest.update(student.predict_uplift_batch(model, X).tobytes())
                    digest.update(student.forward_batch(model, X, T[:n]).tobytes())
                    digest.update(student.raw_output_batch(reg, X).tobytes())
    print(block, digest.hexdigest())
"""


def test_blocked_scoring_is_bit_identical_across_block_sizes_and_blas_threads():
    src = os.path.dirname(os.path.dirname(kdsm.__file__))
    blocks = {"1": ["1", "2", "3", "7", "1024", "8192"], "2": ["1", "2", "3", "7", "1024"]}
    procs = {}
    for threads, sizes in blocks.items():
        blas = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), threads)
        procs[threads] = subprocess.Popen(
            [sys.executable, "-c", BLOCKED_SCORES, *sizes],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=dict(os.environ, PYTHONPATH=src, **blas),
        )
    digests = {}
    try:
        for threads, proc in procs.items():
            stdout, stderr = proc.communicate(timeout=300)
            assert proc.returncode == 0, stderr
            for line in stdout.splitlines():
                block, digest = line.split()
                digests[threads, block] = digest
    finally:
        for proc in procs.values():
            proc.kill()
    # at two threads OpenBLAS splits the output layer's matrix-vector
    # product of an 8,192-row block between the threads, which changes a few
    # rows' bits at some batch sizes, so that block size runs at one thread only
    assert len(digests) == 11 and len(set(digests.values())) == 1, digests


def test_batch_scoring_memory_is_bounded_by_the_block():
    ds = tiny_dataset(n=50_000, d_categorical=2, seed=27)
    model = init_student(StudentConfig(), ds)
    predict_uplift_batch(model, ds.features[:10])
    tracemalloc.start()
    try:
        predict_uplift_batch(model, ds.features)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # per row: both arms' logits and probabilities, the uplift and the codes
    per_row = 8 * (2 + 2 + 1 + ds.schema.categorical_indices.size)
    # per block row: the input layer, and both arms' outputs of every layer
    per_block_row = 8 * (model.weights[0].shape[0] + 2 * sum(w.shape[1] for w in model.weights))
    assert peak - per_row * ds.n <= 2 * per_block_row * (SCORE_BLOCK_ROWS + 1)


def test_single_row_score_equals_batch_row(scoring_rows):
    ds = scoring_rows
    model = init_student(StudentConfig(hidden_sizes=(16, 8), embedding_dim=3, init_seed=24), ds)
    batch = predict_uplift_batch(model, ds.features[: B + 1])
    for i in (0, 1, B - 1, B):
        assert abs(predict_uplift_student(model, ds.features[i]) - batch[i]) <= SCORE_TOL


@pytest.mark.parametrize("embedding_dim", [1, 3])
@pytest.mark.parametrize("hidden", [(64, 32), (16, 8), ()])
@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_single_row_pass_equals_the_batch_row_bit_for_bit(scoring_rows, activation, hidden, embedding_dim):
    ds = scoring_rows
    cfg = StudentConfig(hidden_sizes=hidden, embedding_dim=embedding_dim, activation=activation)
    model = init_student(cfg, ds)
    # wide weights, so that the relu stacks push some logits past the clamp
    model.params[...] = np.random.default_rng(25).normal(0.0, 1.5, model.params.size)
    X = ds.features[:40].copy()
    X[0, ds.schema.categorical_indices] = 0
    X[1, ds.schema.categorical_indices] = ds.schema.cardinalities - 1
    for x in X:
        want = predict_uplift_batch(model, x[None])[0]
        for row in (x, x[None]):
            got = predict_uplift_student(model, row)
            assert type(got) is float and got == want


def test_single_row_pass_raises_what_the_batch_raises(scoring_rows):
    ds = scoring_rows
    cfg = StudentConfig(hidden_sizes=(4,), init_seed=26)
    model = init_student(cfg, ds)
    j = int(ds.schema.categorical_indices[0])
    assert ds.schema.columns[j].cardinality == 4
    rows = [ds.features[0, :-1]]
    for col, value in ((0, math.nan), (1, math.inf), (j, -1.0), (j, 4.0), (j, 1.5)):
        rows.append(ds.features[0].copy())
        rows[-1][col] = value
    for x in rows:
        with pytest.raises(KdsmError) as from_batch:
            predict_uplift_batch(model, x[None])
        with pytest.raises(type(from_batch.value), match=f"^{re.escape(str(from_batch.value))}$"):
            predict_uplift_student(model, x)
    regression = init_student(cfg, ds, head="regression", final_bias=0.0)
    with pytest.raises(DomainError, match="^predict_uplift_student needs a binary-head model$"):
        predict_uplift_student(regression, ds.features[0])


def test_scoring_rejects_misshaped_input():
    ds = tiny_dataset()
    model = init_student(StudentConfig(init_seed=2), ds)
    with pytest.raises(SchemaError):
        predict_uplift_batch(model, ds.features[:, :1])
    with pytest.raises(SchemaError):
        forward_batch(model, ds.features[:3], np.ones(2))
    # categorical codes must be integers in [0, cardinality)
    cat = tiny_dataset(d_categorical=1)
    cfg = StudentConfig(hidden_sizes=(4,), init_seed=3)
    binary = init_student(cfg, cat)
    regression = init_student(cfg, cat, head="regression", final_bias=0.0)
    pair = TwoModelResult(binary, init_student(cfg, cat))
    j = int(cat.schema.categorical_indices[0])
    for code in (-1, 2.5, cat.schema.columns[j].cardinality):
        X = cat.features[:3].copy()
        X[1, j] = code
        for score in (
            lambda: predict_uplift_batch(binary, X),
            lambda: forward_batch(binary, X, np.ones(3)),
            lambda: raw_output_batch(regression, X),
            lambda: pair.predict_uplift(X),
        ):
            with pytest.raises(DomainError, match="cat_0"):
                score()


# --- serialization ---


def test_student_round_trip_bit_exact(tmp_path):
    ds = tiny_dataset(n=50, d_categorical=1, seed=12)
    model = init_student(
        StudentConfig(hidden_sizes=(6, 3), embedding_dim=4, init_seed=13), ds
    )
    path = tmp_path / "model.json"
    save_student(model, str(path))
    back = load_student(str(path))
    assert np.array_equal(model.params, back.params)
    rng = np.random.default_rng(4)
    X = ds.features[rng.integers(0, ds.n, 30)]
    assert np.array_equal(predict_uplift_batch(model, X), predict_uplift_batch(back, X))
    assert student_to_jsonable(model) == student_to_jsonable(back)


def _trained_student():
    split = split_dataset(tiny_dataset(n=1000, d_categorical=1, seed=14), SplitRatios(0.6, 0.2, 0.2), 14)
    tree = fit_tree(split.train, TreeParams(max_depth=2, min_samples_per_arm=10))
    hyper = KdsmHyper(batch_size=64, max_epochs=5, early_stop_patience=5, master_seed=15)
    cfg = StudentConfig(hidden_sizes=(6,), init_seed=16)
    model, report = train_kdsm(split.train, split.valid, tree, cfg, hyper)
    # a later epoch was worse, so the loop restored the best epoch's parameters
    assert 0 <= report.best_epoch < len(report.records) - 1
    return model


@pytest.mark.parametrize("made_by", ["init_student", "load_student", "train_kdsm"])
def test_named_views_alias_params(tmp_path, made_by):
    if made_by == "train_kdsm":
        model = _trained_student()
    else:
        model = init_student(StudentConfig(hidden_sizes=(6, 3), init_seed=17), tiny_dataset(d_categorical=2))
        if made_by == "load_student":
            save_student(model, str(tmp_path / "model.json"))
            model = load_student(str(tmp_path / "model.json"))
    assert model.params.flags.c_contiguous and model.params.dtype == np.float64
    for view in model.embeddings + model.weights + model.biases:
        assert np.shares_memory(view, model.params)
    before = model.weights[0][0, 0]
    offset = sum(e.size for e in model.embeddings)
    model.params[offset] += 1.0
    assert model.weights[0][0, 0] == before + 1.0


def test_student_document_with_misshaped_array_is_a_parse_error():
    model = init_student(StudentConfig(hidden_sizes=(4,), init_seed=18), tiny_dataset(d_categorical=1))
    for key, i in (("weights", 0), ("biases", 1), ("embeddings", 0)):
        doc = student_to_jsonable(model)
        doc[key][i] = doc[key][i][:-1]
        with pytest.raises(ParseError, match=rf"{key}\[{i}\] has shape"):
            student_from_jsonable(doc)
    for key in ("num_mean", "num_std"):
        doc = student_to_jsonable(model)
        doc[key] = doc[key] + [0.0]
        with pytest.raises(ParseError, match=f"{key} has shape"):
            student_from_jsonable(doc)
    doc = student_to_jsonable(model)
    doc["weights"].append([[0.0]])
    with pytest.raises(ParseError, match="weights holds 3 arrays, expected 2"):
        student_from_jsonable(doc)


def test_student_document_with_invalid_config_is_rejected():
    doc = student_to_jsonable(init_student(StudentConfig(hidden_sizes=(4,), init_seed=19), tiny_dataset()))
    doc["config"]["activation"] = "gelu"
    with pytest.raises(DomainError, match="activation"):
        student_from_jsonable(doc)


def test_student_document_missing_key_is_a_parse_error():
    with pytest.raises(ParseError, match="missing key 'config'"):
        student_from_jsonable({"format": "student-model/v1", "head": "binary"})


@pytest.mark.parametrize("hidden, text", [((), ""), ((1, 2), "12")])
def test_student_document_hidden_sizes_must_be_a_list(tmp_path, hidden, text):
    # a string spelling the sizes, which iterating it would give, is no list
    model = init_student(StudentConfig(hidden_sizes=hidden), tiny_dataset(d_categorical=1))
    doc = student_to_jsonable(model)
    doc["config"]["hidden_sizes"] = text
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ParseError, match=f"^{path}: .*{text!r} is not a list of integers"):
        load_student(str(path))


@pytest.mark.parametrize(
    "key, value, named",
    [
        ("embedding_dim", 8.9, "embedding_dim 8.9 is not an integer"),
        ("init_seed", True, "init_seed True is not an integer"),
        ("learning_rate", "0.01", "learning_rate '0.01' is not a number"),
        ("activation", 1, "activation 1 is not a string"),
        pytest.param(
            "learning_rate",
            10**400,
            r"malformed value \(int too large to convert to float\)$",
            id="learning_rate-huge_integer",
        ),
    ],
)
def test_student_document_config_value_of_the_wrong_type_is_rejected(tmp_path, key, value, named):
    # checked, not converted: int(8.9) would load as 8 and int(True) as 1
    doc = student_to_jsonable(init_student(StudentConfig(hidden_sizes=(4,)), tiny_dataset()))
    doc["config"][key] = value
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ParseError, match=f"^{path}: .*{named}"):
        load_student(str(path))


@pytest.mark.parametrize(
    "where, value, named",
    [
        (("num_std", 0), 0.0, "num_std holds a value that is not > 0"),
        (("num_std", 1), -1.0, "num_std holds a value that is not > 0"),
        (("num_std", 0), math.inf, "num_std holds a non-finite value"),
        (("num_mean", 1), math.nan, "num_mean holds a non-finite value"),
        (("embeddings", 0, 2, 1), math.nan, r"embeddings\[0\] holds a non-finite value"),
        (("weights", 1, 3, 0), math.nan, r"weights\[1\] holds a non-finite value"),
        (("biases", 0, 2), -math.inf, r"biases\[0\] holds a non-finite value"),
        (("num_mean", 0), "0.25", "num_mean holds a value that is not a number"),
        (("weights", 0, 0, 0), True, r"weights\[0\] holds a value that is not a number"),
        (("embeddings", 0, 1, 2), None, r"embeddings\[0\] holds a value that is not a number"),
        (
            ("num_mean", 1),
            10**400,
            r"num_mean has a malformed value \(int too large to convert to float\)",
        ),
    ],
    ids=[
        "zero_std", "negative_std", "inf_std", "nan_mean", "nan_embedding", "nan_weight", "inf_bias",
        "string_mean", "boolean_weight", "null_embedding", "huge_integer_mean",
    ],
)
def test_student_document_with_a_bad_array_value_names_the_array(tmp_path, where, value, named):
    # a fitted model holds none of these: init_student sets a zero std to 1.0;
    # a string, boolean or null is checked, not converted to 0.25, 1.0 or nan
    model = init_student(StudentConfig(hidden_sizes=(4,)), tiny_dataset(d_categorical=1))
    doc = target = student_to_jsonable(model)
    for key in where[:-1]:
        target = target[key]
    target[where[-1]] = value
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: {named}$"):
        load_student(str(path))


def test_student_config_validation():
    with pytest.raises(DomainError):
        StudentConfig(hidden_sizes=(0,))
    with pytest.raises(DomainError):
        StudentConfig(activation="gelu")
    with pytest.raises(DomainError):
        StudentConfig(optimizer="rmsprop")
    with pytest.raises(DomainError):
        StudentConfig(learning_rate=0.0)
    with pytest.raises(DomainError):
        StudentConfig(lr_decay_factor=1.0)


@pytest.mark.parametrize(
    "name, value, bound",
    [
        ("beta1", 5.0, r"lie in \[0, 1\)"),
        ("beta1", math.nan, r"lie in \[0, 1\)"),
        ("beta2", -1.0, r"lie in \[0, 1\)"),
        ("beta2", 1.0, r"lie in \[0, 1\)"),
        ("momentum", math.nan, r"lie in \[0, 1\)"),
        ("eps", -1.0, "be finite and > 0"),
        ("eps", 0.0, "be finite and > 0"),
        ("eps", math.nan, "be finite and > 0"),
        ("eps", math.inf, "be finite and > 0"),
        ("learning_rate", 0.0, "be finite and > 0"),
        ("learning_rate", math.nan, "be finite and > 0"),
        ("learning_rate", math.inf, "be finite and > 0"),
    ],
)
def test_student_config_checks_adam_settings(name, value, bound):
    with pytest.raises(DomainError, match=f"^{name}={value} must {bound}$"):
        StudentConfig(**{name: value})


# Trains every trainer (kdsm, kdss, plain, both tm arms, mom) on batches of
# about 1,000 passes, with a relu student on numeric data and with a relu and
# a tanh student on data with two categorical columns, and prints the sha256
# of each model document.
TRAIN_AND_HASH = """
import hashlib, json
from kdsm import data, distill, student, tree
hyper = distill.KdsmHyper(max_epochs=2, early_stop_patience=2, master_seed=5)
for d_categorical, activation in ((0, "relu"), (2, "relu"), (2, "tanh")):
    synth = data.SyntheticConfig(n=4000, d_numeric=2, d_categorical=d_categorical, base_rate=0.1, noise_features=0, seed=1)
    split = data.split_dataset(data.gen_synthetic(synth)[0], data.SplitRatios(0.6, 0.2, 0.2), 2)
    teacher = tree.fit_tree(split.train, tree.TreeParams(max_depth=3, min_samples_per_arm=50), 3)
    cfg = student.StudentConfig(activation=activation, init_seed=4)
    tm, _ = distill.train_two_model(split.train, split.valid, cfg, hyper)
    models = [
        distill.train_kdsm(split.train, split.valid, teacher, cfg, hyper)[0],
        distill.train_kdss(split.train, split.valid, teacher, cfg, hyper)[0],
        distill.train_plain(split.train, split.valid, cfg, hyper)[0],
        tm.treated_model,
        tm.control_model,
        distill.train_mom(split.train, split.valid, cfg, hyper)[0],
    ]
    for model in models:
        doc = json.dumps(student.student_to_jsonable(model))
        print(hashlib.sha256(doc.encode()).hexdigest())
"""


def test_training_is_bit_identical_at_one_and_two_blas_threads():
    src = os.path.dirname(os.path.dirname(kdsm.__file__))
    hashes = {}
    for threads in ("1", "2"):
        blas = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), threads)
        proc = subprocess.run(
            [sys.executable, "-c", TRAIN_AND_HASH],
            capture_output=True,
            text=True,
            timeout=300,
            env=dict(os.environ, PYTHONPATH=src, **blas),
        )
        assert proc.returncode == 0, proc.stderr
        hashes[threads] = proc.stdout
    assert len(hashes["1"].split()) == 18
    assert hashes["1"] == hashes["2"]


# deterministic examples, and no example database written to the working tree
PROPERTY = settings(max_examples=30, deadline=None, derandomize=True, database=None)


@st.composite
def student_models(draw):
    """A freshly initialised student of drawn shape, settings and head, on a
    small trial with two or three numeric and one or two categorical
    columns; returns it and the trial's features."""
    ds = tiny_dataset(
        n=50,
        d_numeric=draw(st.integers(2, 3)),
        d_categorical=draw(st.integers(1, 2)),
        seed=draw(st.integers(0, 2**16)),
    )
    cfg = StudentConfig(
        hidden_sizes=tuple(draw(st.lists(st.integers(1, 6), max_size=2))),
        embedding_dim=draw(st.integers(1, 3)),
        activation=draw(st.sampled_from(["relu", "tanh"])),
        optimizer=draw(st.sampled_from(["sgd", "adam"])),
        learning_rate=draw(st.sampled_from([1e-3, 0.05])),
        init_seed=draw(st.integers(0, 2**32 - 1)),
    )
    return init_student(cfg, ds, head=draw(st.sampled_from(["binary", "regression"]))), ds.features


@PROPERTY
@given(student_models())
def test_student_document_round_trips_byte_for_byte(tmp_path_factory, case):
    model, X = case
    d = tmp_path_factory.mktemp("model")
    first, second = str(d / "first.json"), str(d / "second.json")
    save_student(model, first)
    back = load_student(first)
    save_student(back, second)
    with open(first, "rb") as a, open(second, "rb") as b:
        assert a.read() == b.read()
    assert back.predict_uplift(X).tobytes() == model.predict_uplift(X).tobytes()


DELETE = object()


@PROPERTY
@given(student_models(), st.data())
def test_student_document_with_a_bad_value_is_rejected(tmp_path_factory, case, data):
    model, _ = case
    doc = json.loads(json.dumps(student_to_jsonable(model)))
    # a key of the document, or of its config
    target = doc["config"] if data.draw(st.booleans(), label="in config") else doc
    key = data.draw(st.sampled_from(sorted(target)), label="key")
    edit = data.draw(st.sampled_from([DELETE, "x", "", None, [], [0]]), label="edit")
    if edit is DELETE:
        must_fail = True
        del target[key]
    else:
        must_fail = target[key] != edit
        target[key] = edit
    path = tmp_path_factory.mktemp("model") / "model.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    try:
        load_student(str(path))
    except KdsmError as e:
        assert str(e).startswith(f"{path}: ")
    else:
        assert not must_fail


@functools.cache
def single_row_model(activation, hidden, d_categorical, embedding_dim):
    """A student with wide weights, so that relu stacks push some logits
    past the clamp, and the features of its trial."""
    ds = tiny_dataset(n=30, d_categorical=d_categorical, seed=28)
    cfg = StudentConfig(hidden_sizes=hidden, embedding_dim=embedding_dim, activation=activation)
    model = init_student(cfg, ds)
    model.params[...] = np.random.default_rng(29).normal(0.0, 1.5, model.params.size)
    return model, ds.features


@st.composite
def single_row_inputs(draw):
    """A student of drawn shape and a trial row with up to three drawn cells,
    passed in a drawn form: a row, a (1, d) array, a list, an int row, a row
    one cell short or long, a (2, d) array or a scalar."""
    model, X = single_row_model(
        draw(st.sampled_from(["relu", "tanh"])),
        draw(st.sampled_from([(), (16, 8)])),
        draw(st.sampled_from([0, 2])),
        draw(st.sampled_from([1, 3])),
    )
    x = X[draw(st.integers(0, X.shape[0] - 1))].copy()
    for j in draw(st.lists(st.integers(0, x.size - 1), max_size=3, unique=True)):
        card = model.schema.columns[j].cardinality
        if j in model.schema.categorical_indices:
            x[j] = draw(st.sampled_from([0, card - 1, card, -1, 1.5, -0.0, 1e300, 2.0**53]))
        else:
            x[j] = draw(st.sampled_from([0.0, -0.0, 5e-324, math.inf, -math.inf, math.nan]))
    form = draw(st.sampled_from(["row", "(1, d)", "list", "int", "short", "long", "(2, d)", "scalar"]))
    if form == "int":
        x = np.clip(np.nan_to_num(x), -(2.0**62), 2.0**62).astype(np.int64)
    forms = {
        "(1, d)": lambda: x[None],
        "list": x.tolist,
        "short": lambda: x[:-1],
        "long": lambda: np.append(x, 0.5),
        "(2, d)": lambda: np.stack([x, x]),
        "scalar": lambda: x[0],
    }
    return model, forms.get(form, lambda: x)()


@settings(PROPERTY, max_examples=300)
@given(single_row_inputs())
def test_single_row_pass_gives_the_batch_of_one_bits_or_its_error(case):
    model, x = case
    # the one row that predict_uplift_student reads x as
    one = np.reshape(np.asarray(x, dtype=np.float64), (1, -1))
    try:
        want = predict_uplift_batch(model, one)
    except KdsmError as e:
        with pytest.raises(KdsmError) as got:
            predict_uplift_student(model, x)
        assert type(got.value) is type(e) and str(got.value) == str(e)
    else:
        got = predict_uplift_student(model, x)
        assert type(got) is float and np.float64(got).tobytes() == want[0].tobytes()


def test_single_row_pass_follows_in_place_parameter_writes(tmp_path):
    # a model of its own, not the cached one the property test shares
    model, X = single_row_model.__wrapped__("relu", (16, 8), 2, 3)
    x = X[0]

    def check():
        got = predict_uplift_student(model, x)
        assert got == predict_uplift_batch(model, x[None])[0]
        return got

    first = check()
    snap = model.params.copy()
    grads = np.random.default_rng(30).normal(0.0, 1.0, model.params.size)
    apply_update(model, grads, init_optimizer(model))
    assert check() != first
    model.params[...] = snap
    assert check() == first
    save_student(model, str(tmp_path / "model.json"))
    model = load_student(str(tmp_path / "model.json"))
    assert check() == first
