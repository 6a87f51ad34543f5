import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdsm.metrics import (
    auuc,
    evaluate_predictions,
    qini_coefficient,
    qini_curve,
    rank_eval,
    uplift_curve,
    write_curve_csv,
)
from kdsm.errors import MetricError, UndefinedMetricError
from oracles import brute_force_curves, read_curve_csv


def curves_for(preds, t, y, tie_seed=0):
    ev = rank_eval(np.asarray(preds, float), np.asarray(t), np.asarray(y), tie_seed)
    return uplift_curve(ev), qini_curve(ev)


# --- hand examples ---


def test_rank_eval_hand_counts():
    # preds already descending, so order is identity
    ev = rank_eval(
        np.array([0.4, 0.3, 0.2, 0.1]),
        np.array([1, 0, 1, 0]),
        np.array([1, 0, 0, 0]),
        tie_seed=0,
    )
    k = 2  # prefix of two highest
    assert ev.n_t[k - 1] == 1
    assert ev.n_c[k - 1] == 1
    assert ev.r_t[k - 1] == 1
    assert ev.r_c[k - 1] == 0


def test_qini_hand_value_at_k2():
    _, qini = curves_for([0.4, 0.3, 0.2, 0.1], [1, 0, 1, 0], [1, 0, 0, 0])
    assert qini[1] == 1.0  # 1 - 0 * (1/1)


def test_uplift_final_value_from_rates():
    # 500 treated with rate 0.2, 500 control with rate 0.1
    t = np.array([1] * 500 + [0] * 500)
    y = np.array([1] * 100 + [0] * 400 + [1] * 50 + [0] * 450)
    preds = np.linspace(1, 0, 1000)
    up, _ = curves_for(preds, t, y)
    assert up[-1] == pytest.approx(100.0)


def test_uplift_zero_effect_final_zero():
    t = np.array([1] * 50 + [0] * 50)
    y = np.array(([1] * 10 + [0] * 40) * 2)
    up, _ = curves_for(np.linspace(1, 0, 100), t, y)
    assert up[-1] == pytest.approx(0.0)


def test_empty_arm_prefix_conventions():
    # highest two predictions are both treated rows
    preds = np.array([0.9, 0.8, 0.2, 0.1])
    t = np.array([1, 1, 0, 0])
    y = np.array([1, 1, 0, 0])
    up, qini = curves_for(preds, t, y)
    assert up[0] == 0.0 and up[1] == 0.0
    assert qini[0] == 1.0 and qini[1] == 2.0  # R_t with empty control


def test_qini_full_prefix_balanced_identity():
    rng = np.random.default_rng(3)
    n = 400
    t = np.array([1, 0] * (n // 2))
    y = rng.integers(0, 2, n)
    preds = rng.normal(size=n)
    up, qini = curves_for(preds, t, y)
    r_t = y[t == 1].sum()
    r_c = y[t == 0].sum()
    assert qini[-1] == pytest.approx(r_t - r_c)
    assert qini[-1] == pytest.approx(up[-1] * (n // 2) / n)


def test_auuc_equals_normalized_curve_mean():
    rng = np.random.default_rng(9)
    n = 300
    t = rng.integers(0, 2, n)
    y = ((rng.random(n) < 0.2 + 0.2 * t)).astype(int)  # positive effect
    preds = rng.normal(size=n)
    ev = rank_eval(preds, t, y, tie_seed=4)
    u = uplift_curve(ev)
    assert u[-1] > 0
    assert auuc(ev) == pytest.approx(np.mean(u / u[-1]), abs=1e-12)


def test_auuc_undefined_when_final_gain_nonpositive():
    # negative effect: treated rate below control rate
    t = np.array([1] * 100 + [0] * 100)
    y = np.array([1] * 5 + [0] * 95 + [1] * 30 + [0] * 70)
    ev = rank_eval(np.linspace(1, 0, 200), t, y, tie_seed=0)
    # the uplift prints as a plain float, whatever numpy's scalar repr is
    with pytest.raises(UndefinedMetricError) as exc:
        auuc(ev)
    assert str(exc.value) == "AUUC is undefined: uplift at k=n is -50.0 (needs to be > 0)"


def test_qini_coefficient_matches_direct_formula():
    rng = np.random.default_rng(5)
    n = 250
    t = rng.integers(0, 2, n)
    y = rng.integers(0, 2, n)
    preds = rng.normal(size=n)
    ev = rank_eval(preds, t, y, tie_seed=1)
    q = qini_curve(ev)
    k = np.arange(1, n + 1)
    expected = np.sum(q - (k / n) * q[-1]) / n**2
    assert qini_coefficient(ev) == pytest.approx(expected, abs=1e-12)


# --- oracle equivalence ---


def random_instance(rng, n, tie_prob=0.0):
    t = rng.integers(0, 2, n)
    t[0], t[1] = 1, 0  # both arms guaranteed
    y = rng.integers(0, 2, n)
    preds = rng.normal(size=n)
    if tie_prob > 0:
        # quantize to force heavy ties
        preds = np.round(preds * 2) / 2
    return preds, t, y


def test_brute_force_equivalence_random_instances():
    rng = np.random.default_rng(17)
    for trial in range(30):
        preds, t, y = random_instance(rng, 200, tie_prob=0.5 if trial % 3 == 0 else 0.0)
        seed = int(rng.integers(0, 2**31))
        ev = rank_eval(preds, t, y, seed)
        up, qini = uplift_curve(ev), qini_curve(ev)
        up_bf, qini_bf = brute_force_curves(preds, t, y, seed)
        assert np.array_equal(up, up_bf)
        assert np.array_equal(qini, qini_bf)


def test_brute_force_equivalence_all_ties():
    rng = np.random.default_rng(23)
    for _ in range(5):
        n = 150
        t = rng.integers(0, 2, n)
        t[:2] = [1, 0]
        y = rng.integers(0, 2, n)
        preds = np.full(n, 0.25)
        seed = int(rng.integers(0, 2**31))
        ev = rank_eval(preds, t, y, seed)
        up_bf, qini_bf = brute_force_curves(preds, t, y, seed)
        assert np.array_equal(uplift_curve(ev), up_bf)
        assert np.array_equal(qini_curve(ev), qini_bf)


# deterministic examples, and no example database written to the working tree
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def ranked_trials(draw):
    """Predictions drawn from a few values, so that most rows fall in tie
    groups, with treatments that hold both arms, outcomes and a tie seed."""
    n = draw(st.integers(2, 80))
    levels = draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=5))
    preds = draw(st.lists(st.sampled_from(levels), min_size=n, max_size=n))
    t = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    i = draw(st.integers(0, n - 1))
    j = draw(st.integers(0, n - 2))
    t[i], t[j + (j >= i)] = 1, 0  # one treated and one control row at distinct places
    y = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return preds, t, y, draw(st.integers(0, 2**32 - 1))


@PROPERTY
@given(ranked_trials())
def test_curves_equal_the_brute_force_recount(case):
    preds, t, y, tie_seed = case
    up, qini = curves_for(preds, t, y, tie_seed)
    up_bf, qini_bf = brute_force_curves(preds, t, y, tie_seed)
    assert np.array_equal(up, up_bf)
    assert np.array_equal(qini, qini_bf)


# --- ranking properties ---


def test_monotone_transform_invariance():
    rng = np.random.default_rng(2)
    preds, t, y = random_instance(rng, 300)
    base_u, base_q = curves_for(preds, t, y, tie_seed=7)
    for f in (lambda p: 2 * p + 1, np.exp, lambda p: p**3):
        u, q = curves_for(f(preds), t, y, tie_seed=7)
        assert np.array_equal(u, base_u)
        assert np.array_equal(q, base_q)


def test_row_permutation_invariance():
    rng = np.random.default_rng(4)
    n = 200
    preds = rng.permutation(n).astype(float)  # all distinct, no tie effects
    t = rng.integers(0, 2, n)
    t[:2] = [1, 0]
    y = rng.integers(0, 2, n)
    base_u, base_q = curves_for(preds, t, y)
    perm = rng.permutation(n)
    u, q = curves_for(preds[perm], t[perm], y[perm])
    assert np.array_equal(u, base_u)
    assert np.array_equal(q, base_q)


def test_constant_predictions_equal_seeded_shuffle_ranking():
    rng = np.random.default_rng(8)
    n = 120
    t = rng.integers(0, 2, n)
    t[:2] = [1, 0]
    y = rng.integers(0, 2, n)
    tie_seed = 99
    ev_const = rank_eval(np.zeros(n), t, y, tie_seed)
    # same tie seed's shuffle, expressed as explicit distinct predictions
    perm = np.random.default_rng(tie_seed).permutation(n)
    explicit = np.empty(n)
    explicit[perm] = np.arange(n, 0, -1)
    ev_explicit = rank_eval(explicit, t, y, tie_seed)
    assert ev_const.order.tolist() == ev_explicit.order.tolist()
    assert np.array_equal(qini_curve(ev_const), qini_curve(ev_explicit))


def test_random_predictions_baseline():
    # predictions uncorrelated with the data: AUUC near 0.5, Qini near 0.
    # The data carries a solid positive average effect so the AUUC
    # normalizer uplift(n) is well away from zero.
    rng = np.random.default_rng(31)
    n = 500
    aucs, qinis = [], []
    for _ in range(200):
        t = rng.integers(0, 2, n)
        t[:2] = [1, 0]
        y = (rng.random(n) < 0.15 + 0.2 * t).astype(int)
        preds = rng.normal(size=n)
        ev = rank_eval(preds, t, y, int(rng.integers(0, 2**31)))
        try:
            aucs.append(auuc(ev))
        except UndefinedMetricError:
            pass
        qinis.append(qini_coefficient(ev))
    assert abs(np.mean(qinis)) < 0.005
    assert len(aucs) >= 195
    assert 0.45 < np.mean(aucs) < 0.55


def test_all_ties_mean_auuc_near_half():
    # a fixed positive-effect instance evaluated under many tie seeds
    rng = np.random.default_rng(12)
    n = 400
    t = rng.integers(0, 2, n)
    t[:2] = [1, 0]
    y = ((rng.random(n) < 0.2 + 0.25 * t)).astype(int)
    vals = []
    for seed in range(200):
        ev = rank_eval(np.ones(n), t, y, seed)
        vals.append(auuc(ev))
    assert abs(np.mean(vals) - 0.5) < 0.02


def test_oracle_ranking_beats_sign_flip():
    rng = np.random.default_rng(40)
    n = 4000
    x = rng.random(n)
    tau = np.where(x > 0.5, 0.15, 0.0)
    t = rng.integers(0, 2, n)
    y = (rng.random(n) < 0.1 + t * tau).astype(int)
    ev_true = rank_eval(tau + 1e-9 * x, t, y, 3)  # jitter breaks ties by x
    ev_flip = rank_eval(-(tau + 1e-9 * x), t, y, 3)
    assert qini_coefficient(ev_true) > 0
    assert qini_coefficient(ev_flip) < 0
    assert qini_coefficient(ev_true) > qini_coefficient(ev_flip)


# --- validation and serialization ---


def test_rank_eval_rejects_bad_inputs():
    with pytest.raises(MetricError):
        rank_eval(np.array([1.0]), np.array([1]), np.array([0]), 0)
    with pytest.raises(MetricError):
        rank_eval(np.array([1.0, 2.0]), np.array([1, 1]), np.array([0, 1]), 0)
    with pytest.raises(MetricError):
        rank_eval(np.array([np.nan, 2.0]), np.array([1, 0]), np.array([0, 1]), 0)
    with pytest.raises(MetricError, match="must be 1-d arrays of equal length"):
        rank_eval(1.0, 1, 0, 0)


@pytest.mark.parametrize(
    "column, values, message",
    [
        ("treatment", [1, 0, 2, 0, 1, 0], "treatment at position 2 is 2.0, not 0 or 1"),
        ("treatment", [1, 0, 1, 0, 1.7, 0], "treatment at position 4 is 1.7, not 0 or 1"),
        ("treatment", [1, 0, -1, 0, 1, 0], "treatment at position 2 is -1.0, not 0 or 1"),
        ("treatment", [1, 0, 1, 0, 1, np.nan], "treatment at position 5 is nan, not 0 or 1"),
        ("outcome", [0, 3, 0, 0, 1, 0], "outcome at position 1 is 3.0, not 0 or 1"),
        ("outcome", [0, 1, 0, 0.5, 1, 2], "outcome at position 3 is 0.5, not 0 or 1"),
    ],
)
def test_rank_eval_names_the_first_value_that_is_not_0_or_1(column, values, message):
    args = {"treatment": [1, 0, 1, 0, 1, 0], "outcome": [1, 0, 0, 1, 1, 0], column: values}
    for evaluate in (rank_eval, evaluate_predictions):
        with pytest.raises(MetricError, match=f"^{re.escape(message)}$"):
            evaluate(np.arange(6.0), np.array(args["treatment"]), np.array(args["outcome"]))


@pytest.mark.parametrize("value, shown", [(np.nan, "nan"), (np.inf, "inf"), (-np.inf, "-inf")])
def test_rank_eval_names_the_first_prediction_that_is_not_finite(value, shown):
    predictions = np.arange(6.0)
    predictions[[3, 5]] = value
    t, y = np.array([1, 0, 1, 0, 1, 0]), np.array([1, 0, 0, 1, 1, 0])
    for evaluate in (rank_eval, evaluate_predictions):
        with pytest.raises(MetricError, match=f"^prediction at position 3 is {re.escape(shown)}, not finite$"):
            evaluate(predictions, t, y)


def test_rank_eval_takes_0_and_1_as_integers_floats_and_bools():
    t, y = np.array([1, 0, 1, 0, 1, 0]), np.array([1, 0, 0, 1, 1, 0])
    want = evaluate_predictions(np.arange(6.0), t, y)
    for cast in (np.int8, np.int64, np.float32, np.float64, bool):
        assert evaluate_predictions(np.arange(6.0), t.astype(cast), y.astype(cast)) == want
    assert evaluate_predictions(np.arange(6.0), t.tolist(), y.tolist()) == want


def test_evaluate_predictions_summary_fields():
    rng = np.random.default_rng(6)
    preds, t, y = random_instance(rng, 100)
    out = evaluate_predictions(preds, t, y, tie_seed=5)
    assert set(out) == {"auuc", "qini", "n", "tie_seed"}
    assert out["n"] == 100
    assert out["tie_seed"] == 5


def test_curve_csv_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    preds, t, y = random_instance(rng, 80)
    up, _ = curves_for(preds, t, y)
    path = tmp_path / "curve.csv"
    write_curve_csv(up, str(path))
    k, values = read_curve_csv(str(path))
    assert np.array_equal(k, np.arange(1, up.size + 1))
    assert np.array_equal(values, up)


def test_curve_csv_bytes_for_signed_zero_subnormal_and_large_values(tmp_path):
    path = tmp_path / "curve.csv"
    write_curve_csv(np.array([-0.0, 5e-324, 0.1, 1e16, 2.0]), str(path))
    assert path.read_bytes() == b"k,value\n1,-0.0\n2,5e-324\n3,0.1\n4,1e+16\n5,2.0\n"
