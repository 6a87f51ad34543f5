"""End-to-end acceptance gate for the distillation pipeline.

Every test prints one PASS/FAIL line with the measured numbers before
asserting, so a `pytest -v` run doubles as the acceptance report. The
headline comparisons (ordering, teacher pull, determinism) share one
module-scoped set of training runs on the standard benchmark dataset:
n=50,000, control response rate 3%, piecewise treatment effect, 3:1:1
split, ED depth-5 teacher, lambda grid {0, 0.1, 0.5}, 5 master seeds.
"""

import os
import statistics
from dataclasses import replace

import numpy as np
import pytest

from kdsm.cli import main
from kdsm.data import SplitRatios, SyntheticConfig, gen_synthetic, split_dataset
from kdsm.distill import KdsmHyper, match_pairs, train_kdsm, train_kdss, train_plain
from kdsm.metrics import auuc, qini_coefficient, qini_curve, rank_eval, uplift_curve
from kdsm.seeds import derive_seed
from kdsm.student import (
    LossBatch,
    StudentConfig,
    backward,
    init_student,
    predict_uplift_batch,
    student_to_jsonable,
)
from kdsm.tree import TreeParams, fit_tree, leaf_of_batch, predict_uplift_tree_batch
from oracles import SamplePair, batch_loss, bce, forward, pair_loss

SEEDS = (1, 2, 3, 4, 5)
LAMBDAS = (0.0, 0.1, 0.5)

BENCH_SYNTH = dict(
    n=50000,
    d_numeric=6,
    d_categorical=2,
    base_rate=0.03,
    effect_function="piecewise-on-two-features",
    treatment_fraction=0.5,
    noise_features=2,
)
BENCH_TREE = TreeParams(criterion="ed", max_depth=5, min_samples_per_arm=100)
BENCH_STUDENT = dict(
    hidden_sizes=(64, 32),
    embedding_dim=8,
    activation="relu",
    optimizer="adam",
    learning_rate=0.01,
    lr_decay_factor=0.5,
    lr_decay_patience=6,
)
BENCH_HYPER = dict(kd_weight=0.5, batch_size=512, max_epochs=40, early_stop_patience=12)

BENCH_CFG_LINES = (
    [f"synth.{k} = {v}" for k, v in BENCH_SYNTH.items() if k != "effect_function"]
    + [
        "synth.effect_function = piecewise-on-two-features",
        "split.train = 0.6",
        "split.valid = 0.2",
        "split.test = 0.2",
        "tree.criterion = ed",
        "tree.max_depth = 5",
        "tree.min_samples_per_arm = 100",
        "student.hidden_sizes = 64,32",
        "student.embedding_dim = 8",
        "student.activation = relu",
        "student.optimizer = adam",
        "student.learning_rate = 0.01",
        "student.lr_decay_factor = 0.5",
        "student.lr_decay_patience = 6",
        "train.lambda = 0.5",
        "train.batch_size = 512",
        "train.max_epochs = 40",
        "train.early_stop_patience = 12",
    ]
)


def report(ok, line):
    print(("PASS " if ok else "FAIL ") + line)


def bench_cell(seed):
    """One master seed's worth of headline trainings and evaluations."""
    ds, _ = gen_synthetic(SyntheticConfig(seed=derive_seed(seed, "synth"), **BENCH_SYNTH))
    split = split_dataset(ds, SplitRatios(0.6, 0.2, 0.2), derive_seed(seed, "split"))
    teacher = fit_tree(split.train, BENCH_TREE, derive_seed(seed, "tree"))
    scfg = StudentConfig(init_seed=derive_seed(seed, "student-init"), **BENCH_STUDENT)
    hyper = KdsmHyper(master_seed=derive_seed(seed, "train"), **BENCH_HYPER)
    tie = derive_seed(seed, "eval-ties")
    test = split.test
    teacher_preds = predict_uplift_tree_batch(teacher, test.features)

    cell = {}
    for lam in LAMBDAS:
        model, _ = train_kdsm(split.train, split.valid, teacher, scfg, replace(hyper, kd_weight=lam))
        preds = predict_uplift_batch(model, test.features)
        ev = rank_eval(preds, test.treatment, test.outcome, tie)
        cell[f"kdsm_qini@{lam}"] = qini_coefficient(ev)
        cell[f"teacher_dist@{lam}"] = float(np.mean((preds - teacher_preds) ** 2))
    model, _ = train_kdss(split.train, split.valid, teacher, scfg, hyper)
    preds = predict_uplift_batch(model, test.features)
    cell["kdss_qini"] = qini_coefficient(rank_eval(preds, test.treatment, test.outcome, tie))
    return cell


@pytest.fixture(scope="module")
def bench_runs():
    return {seed: bench_cell(seed) for seed in SEEDS}


def median_of(runs, key):
    return statistics.median(runs[s][key] for s in SEEDS)


# --- exact reduction at lambda = 0 ---


def test_pair_loss_at_lambda_zero_is_exactly_the_two_bce_terms():
    ds, _ = gen_synthetic(
        SyntheticConfig(n=400, d_numeric=3, d_categorical=1, base_rate=0.3, noise_features=0, seed=11)
    )
    t_rows = np.flatnonzero(ds.treatment == 1)
    c_rows = np.flatnonzero(ds.treatment == 0)
    rng = np.random.default_rng(0)
    model = None
    checked = 0
    for i in range(1000):
        if i % 100 == 0:
            model = init_student(
                StudentConfig(hidden_sizes=(8,), embedding_dim=4, init_seed=i), ds
            )
        pair = SamplePair(
            int(rng.choice(t_rows)), int(rng.choice(c_rows)), 0, float(rng.normal() * 0.1)
        )
        parts = pair_loss(model, ds, pair, 0.0)
        p_t = forward(model, ds.features[pair.treated_row], 1)
        p_c = forward(model, ds.features[pair.control_row], 0)
        expected = bce(ds.outcome[pair.treated_row], p_t) + bce(ds.outcome[pair.control_row], p_c)
        assert parts.total == expected and parts.hard == expected
        checked += 1
    report(True, f"lambda-zero pair loss equals the two BCE terms bitwise on {checked} pairs")


def test_lambda_zero_trainer_is_bit_identical_to_plain_on_matched_stream():
    ds, _ = gen_synthetic(
        SyntheticConfig(n=6000, d_numeric=3, d_categorical=1, base_rate=0.25, noise_features=0, seed=21)
    )
    split = split_dataset(ds, SplitRatios(0.6, 0.2, 0.2), 5)
    tree = fit_tree(split.train, TreeParams("ed", 3, 50), 9)
    scfg = StudentConfig(hidden_sizes=(16,), embedding_dim=4, init_seed=31)
    hyper = KdsmHyper(
        kd_weight=0.0, batch_size=256, max_epochs=6, early_stop_patience=6, master_seed=41
    )
    kd_model, _ = train_kdsm(split.train, split.valid, tree, scfg, hyper)
    plain_model, _ = train_plain(split.train, split.valid, scfg, hyper, pair_stream_tree=tree)
    same = student_to_jsonable(kd_model) == student_to_jsonable(plain_model)
    report(same, "lambda-zero trainer reproduces the plain trainer bit-for-bit")
    assert same


# --- gradient oracle ---


def flat_params(model):
    return model.params.copy()


def set_flat_params(model, flat):
    model.params[...] = flat


def kd_pair_batch(ds, t_rows, c_rows, targets, lam):
    k = len(t_rows)
    rows = np.empty(2 * k, dtype=np.int64)
    rows[0::2] = t_rows
    rows[1::2] = c_rows
    T = np.empty(2 * k)
    T[0::2] = 1.0
    T[1::2] = 0.0
    return LossBatch(
        X=ds.features[rows],
        T=T,
        y=ds.outcome[rows].astype(np.float64),
        bce_weight=np.ones(2 * k),
        kd_pairs=np.stack(
            [np.arange(0, 2 * k, 2), np.arange(1, 2 * k, 2)], axis=1
        ).astype(np.int64),
        kd_targets=np.asarray(targets, dtype=np.float64),
        lam=lam,
        n_units=k,
    )


def test_pair_loss_gradients_match_central_finite_differences():
    ds, _ = gen_synthetic(
        SyntheticConfig(n=200, d_numeric=3, d_categorical=2, base_rate=0.3, noise_features=0, seed=44)
    )
    t_rows = np.flatnonzero(ds.treatment == 1)[:20]
    c_rows = np.flatnonzero(ds.treatment == 0)[:20]
    assert len(t_rows) == 20 and len(c_rows) == 20
    shapes = [
        ((), "relu"),
        ((4,), "relu"),
        ((8, 4), "tanh"),
        ((16,), "relu"),
        ((8, 8), "tanh"),
    ]
    rng = np.random.default_rng(3)
    eps = 1e-5
    worst = 0.0
    n_checked = 0
    for si, (hidden, act) in enumerate(shapes):
        model = init_student(
            StudentConfig(hidden_sizes=hidden, activation=act, embedding_dim=3, init_seed=50 + si),
            ds,
        )
        targets = rng.normal(scale=0.1, size=20)
        batch = kd_pair_batch(ds, t_rows, c_rows, targets, lam=0.7)
        grads, _ = backward(model, batch)
        grad_flat = grads
        flat = flat_params(model)
        for i in rng.choice(flat.size, size=min(50, flat.size), replace=False):
            bumped = flat.copy()
            bumped[i] += eps
            set_flat_params(model, bumped)
            up = batch_loss(model, batch).total
            bumped[i] -= 2 * eps
            set_flat_params(model, bumped)
            down = batch_loss(model, batch).total
            set_flat_params(model, flat)
            fd = (up - down) / (2 * eps)
            if abs(grad_flat[i]) < 1e-8:
                assert abs(fd) < 1e-8 + 1e-6
            else:
                rel = abs(fd - grad_flat[i]) / abs(grad_flat[i])
                worst = max(worst, rel)
                assert rel < 1e-4
            n_checked += 1
    report(True, f"gradients match finite differences on {n_checked} coordinates, worst rel err {worst:.2e}")


# --- metric oracle ---


def test_curves_equal_quadratic_brute_force_recount():
    rng = np.random.default_rng(7)
    n = 500
    for i in range(100):
        kind = i % 4
        if kind == 0:
            preds = np.zeros(n)  # one big tie group
        elif kind == 1:
            preds = rng.choice([-0.1, 0.0, 0.2], size=n)
        elif kind == 2:
            preds = rng.normal(size=n)
        else:
            preds = rng.integers(0, 5, size=n).astype(np.float64)
        t = rng.integers(0, 2, size=n)
        t[0] = 1
        t[1] = 0
        y = (rng.random(n) < np.where(t == 1, 0.4, 0.25)).astype(np.int64)
        tie = derive_seed(33, "ties", i)
        ev = rank_eval(preds, t, y, tie)
        u_vals = uplift_curve(ev)
        q_vals = qini_curve(ev)
        for k in range(1, n + 1):
            pre = ev.order[:k]
            nt = int(t[pre].sum())
            nc = k - nt
            rt = int(y[pre][t[pre] == 1].sum())
            rc = int(y[pre].sum()) - rt
            if nt > 0 and nc > 0:
                u = (rt / float(nt) - rc / float(nc)) * (float(nt) + float(nc))
            else:
                u = 0.0
            q = rt - rc * (nt / nc) if nc > 0 else float(rt)
            assert u_vals[k - 1] == u
            assert q_vals[k - 1] == q
    report(True, "uplift and qini curves equal the O(n^2) recount exactly on 100 instances")


# --- chance-level baselines ---


def test_random_predictions_score_at_chance_level():
    n = 2000
    aucs = []
    qinis = []
    for s in range(200):
        rng = np.random.default_rng(derive_seed(900, "chance", s))
        t = (rng.random(n) < 0.5).astype(np.int64)
        y = (rng.random(n) < np.where(t == 1, 0.35, 0.15)).astype(np.int64)
        preds = rng.normal(size=n)
        ev = rank_eval(preds, t, y, tie_seed=s)
        aucs.append(auuc(ev))
        qinis.append(qini_coefficient(ev))
    mean_auuc = statistics.mean(aucs)
    mean_qini = statistics.mean(qinis)
    ok = 0.47 <= mean_auuc <= 0.53 and -0.005 <= mean_qini <= 0.005
    report(ok, f"random rankings: mean auuc {mean_auuc:.4f} in [0.47, 0.53], mean qini {mean_qini:+.5f} in [-0.005, +0.005]")
    assert 0.47 <= mean_auuc <= 0.53
    assert -0.005 <= mean_qini <= 0.005


# --- planted-split recovery ---


def test_tree_recovers_planted_split_and_leaf_effects():
    ds, true_tau = gen_synthetic(
        SyntheticConfig(
            n=100000,
            d_numeric=2,
            d_categorical=0,
            base_rate=0.03,
            effect_function="piecewise-on-two-features",
            noise_features=0,
            seed=505,
        )
    )
    tree = fit_tree(ds, TreeParams("ed", 3, 500), seed=1)
    root = tree.nodes[0]
    assert root.rule is not None
    thr = root.rule.threshold
    leaf_ok = True
    worst = 0.0
    leaves = leaf_of_batch(tree, ds.features)
    taus = tree.leaf_tau()
    for leaf_id in range(tree.n_leaves):
        mask = leaves == leaf_id
        err = abs(float(taus[leaf_id]) - float(true_tau[mask].mean()))
        worst = max(worst, err)
        leaf_ok = leaf_ok and err <= 0.02
    ok = root.rule.feature == 0 and abs(thr - 0.5) <= 0.05 and leaf_ok
    report(
        ok,
        f"planted split recovered: root feature {root.rule.feature}, threshold {thr:.3f}, worst leaf effect err {worst:.4f}",
    )
    assert root.rule.feature == 0
    assert abs(thr - 0.5) <= 0.05
    assert leaf_ok


# --- matching invariants ---


def test_epoch_matching_invariants_and_reshuffle_distinctness():
    n_plans = 0
    trials = 0
    distinct = 0
    base_idx = 0
    for ds_seed in range(5):
        for depth, min_arm in ((2, 40), (3, 25)):
            cfg = SyntheticConfig(
                n=2500,
                d_numeric=3,
                d_categorical=1,
                base_rate=0.25,
                treatment_fraction=(0.4, 0.5, 0.6)[ds_seed % 3],
                effect_function="piecewise-on-two-features",
                noise_features=0,
                seed=derive_seed(66, "ds", ds_seed),
            )
            ds, _ = gen_synthetic(cfg)
            tree = fit_tree(ds, TreeParams("ed", depth, min_arm), seed=base_idx)
            leaves = leaf_of_batch(tree, ds.features)
            taus = tree.leaf_tau()
            eligible = set()
            for leaf_id in range(tree.n_leaves):
                n_t = int(((ds.treatment == 1) & (leaves == leaf_id)).sum())
                n_c = int(((ds.treatment == 0) & (leaves == leaf_id)).sum())
                if n_t >= 3 and n_c >= 3:
                    eligible.add(leaf_id)
            plans = []
            for e in range(5):
                plan = match_pairs(ds, tree, derive_seed(66, "plan", base_idx, e))
                n_plans += 1
                assert np.all(ds.treatment[plan.treated] == 1)
                assert np.all(ds.treatment[plan.control] == 0)
                assert np.all(leaves[plan.treated] == plan.leaf_ids)
                assert np.all(leaves[plan.control] == plan.leaf_ids)
                assert np.all(plan.teacher_uplift == taus[plan.leaf_ids])
                used = np.concatenate([plan.treated, plan.control, plan.leftovers])
                assert np.array_equal(np.sort(used), np.arange(ds.n))
                for leaf_id in range(tree.n_leaves):
                    n_t = int(((ds.treatment == 1) & (leaves == leaf_id)).sum())
                    n_c = int(((ds.treatment == 0) & (leaves == leaf_id)).sum())
                    assert int((plan.leaf_ids == leaf_id).sum()) == min(n_t, n_c)
                plans.append(plan)
            if eligible:
                for e in range(4):
                    a, b = plans[e], plans[e + 1]
                    pairs_a = {
                        (int(t), int(c))
                        for t, c, l in zip(a.treated, a.control, a.leaf_ids)
                        if int(l) in eligible
                    }
                    pairs_b = {
                        (int(t), int(c))
                        for t, c, l in zip(b.treated, b.control, b.leaf_ids)
                        if int(l) in eligible
                    }
                    trials += 1
                    if pairs_a != pairs_b:
                        distinct += 1
            base_idx += 1
    frac = distinct / trials
    ok = n_plans == 50 and frac >= 0.9
    report(ok, f"matching invariants hold on {n_plans} plans; reshuffles distinct in {distinct}/{trials}")
    assert n_plans == 50
    assert frac >= 0.9


# --- headline ordering, teacher pull, baselines, determinism ---


def test_distilled_student_matches_or_beats_plain_and_single_sample(bench_runs):
    med_kdsm = median_of(bench_runs, "kdsm_qini@0.5")
    med_plain = median_of(bench_runs, "kdsm_qini@0.0")
    med_kdss = median_of(bench_runs, "kdss_qini")
    ok = med_kdsm >= med_plain and med_kdsm >= med_kdss
    report(
        ok,
        f"median qini: kdsm {med_kdsm:+.5f} vs plain {med_plain:+.5f} vs single-sample {med_kdss:+.5f}",
    )
    assert med_kdsm >= med_plain
    assert med_kdsm >= med_kdss


def test_soft_loss_weight_pulls_student_toward_teacher_mean(bench_runs):
    dists = [median_of(bench_runs, f"teacher_dist@{lam}") for lam in LAMBDAS]
    ok = dists[0] >= dists[1] >= dists[2]
    report(
        ok,
        "median mean((student - teacher uplift)^2) over lambda grid: "
        + " >= ".join(f"{d:.4e}" for d in dists),
    )
    # The pull is measured with the distance the soft term penalises: the
    # per-row squared gap between student and teacher uplift. The gap between
    # their mean uplifts is the wrong statistic. It swings by 0.007-0.010
    # between epochs in the same way at every lambda, its square is a few
    # percent of the ~2e-3 the soft term penalises, and the kept checkpoint
    # (best validation AUUC, which ignores any constant shift of the uplift)
    # is blind to it; so which epoch each seed keeps decides its order.
    assert dists[0] >= dists[1] >= dists[2]


def test_baselines_learn_signal_and_comparison_report_is_complete(tmp_path):
    out = os.path.join(str(tmp_path), "out")
    cfg_path = os.path.join(str(tmp_path), "bench.cfg")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(BENCH_CFG_LINES))
        fh.write(f"\nout.dir = {out}\n")
        fh.write("compare.methods = plain,kdss,kdsm,tm,mom\n")
        fh.write("compare.seeds = 1,2,3,4,5\n")
    assert main(["compare", "--config", cfg_path]) == 0
    with open(os.path.join(out, "comparison.txt"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "# comparison report v1"
    methods = ("plain", "kdss", "kdsm", "tm", "mom")
    cell_lines = [
        l for l in lines if l and not l.startswith("#") and l.split("\t")[0] in methods
    ]
    median_idx = lines.index("# medians (sorted by qini, descending)")
    median_rows = [l.split("\t") for l in lines[median_idx + 2 :] if l]
    assert len(cell_lines) == 5 * 5 + 5
    assert sorted(r[0] for r in median_rows) == sorted(methods)
    med = {r[0]: (float(r[1]), float(r[2]), int(r[3])) for r in median_rows}
    assert all(med[m][2] == 5 for m in methods)  # every cell trained and evaluated
    tm_q, mom_q = med["tm"][1], med["mom"][1]
    ok = tm_q > 0 and mom_q > 0
    report(ok, f"comparison report complete; median qini tm {tm_q:+.5f} > 0, mom {mom_q:+.5f} > 0")
    assert tm_q > 0
    assert mom_q > 0


def test_headline_numbers_reproduce_bit_exactly(bench_runs):
    rerun = {seed: bench_cell(seed) for seed in SEEDS}
    same = rerun == bench_runs
    report(same, f"re-running the benchmark reproduces all {len(SEEDS) * 7} reported numbers bit-exactly")
    assert same
