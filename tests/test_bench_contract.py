"""The names the benchmark under perfbench/ calls or wraps.

perfbench/smoke.py runs the benchmark itself but stays out of the default
test run; these checks are fast and fail as soon as a simplification
renames or deletes a name the benchmark depends on.
"""

import importlib
import importlib.util
import inspect
import json
import os

import numpy as np
import pytest

from kdsm import cli, distill
from kdsm.data import SplitRatios, SyntheticConfig, gen_synthetic, split_dataset
from kdsm.distill import KdsmHyper
from kdsm.student import StudentConfig, init_student, save_student
from kdsm.tree import TreeParams, fit_tree

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", os.path.join(ROOT, "perfbench", "tracer.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_is_a_module_level_function():
    for _, module, attr, _ in load_tracer().TARGETS:
        fn = getattr(importlib.import_module(module), attr, None)
        assert inspect.isfunction(fn), f"{module}.{attr}"


def test_cli_dispatches_every_traced_command():
    assert set(load_tracer().CLI_COMMANDS) <= set(cli.COMMANDS)


def test_the_tracer_sees_every_training_step():
    # the tracer rebinds module names only, so a trainer that reached
    # backward or backward_mse any other way would take untraced steps
    synth = SyntheticConfig(n=800, d_numeric=2, d_categorical=1, base_rate=0.3, noise_features=0, seed=0)
    split = split_dataset(gen_synthetic(synth)[0], SplitRatios(), 0)
    tree = fit_tree(split.train, TreeParams(max_depth=2, min_samples_per_arm=20))
    cfg = StudentConfig(hidden_sizes=(4,), init_seed=1)
    hyper = KdsmHyper(batch_size=64, max_epochs=2)
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        distill.train_kdsm(split.train, split.valid, tree, cfg, hyper)
        distill.train_two_model(split.train, split.valid, cfg, hyper)
        distill.train_mom(split.train, split.valid, cfg, hyper)
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    for trainer in ("train_kdsm", "train_two_model", "train_mom"):
        assert f"distill.{trainer}" in names
    steps = names.count("student.backward") + names.count("student.backward_mse")
    assert names.count("student.apply_update") == steps > 0


def test_load_predictor_returns_kind_scorer_and_schema(tmp_path):
    ds, _ = gen_synthetic(SyntheticConfig(n=40, d_numeric=2, d_categorical=1, base_rate=0.3, noise_features=0, seed=0))
    model = init_student(StudentConfig(hidden_sizes=(4,), init_seed=1), ds)
    path = str(tmp_path / "model.json")
    save_student(model, path)
    kind, predict, schema = cli.load_predictor(path)
    assert kind == "student" and schema == ds.schema
    assert np.array_equal(predict(ds.features), model.predict_uplift(ds.features))


def load_bench_pairs(monkeypatch):
    """tools/bench_pairs.py, with every checkout labelled abc1234, since the
    fake checkouts of these tests are no git repositories."""
    spec = importlib.util.spec_from_file_location("bench_pairs", os.path.join(ROOT, "tools", "bench_pairs.py"))
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    monkeypatch.setattr(bench_pairs, "short_sha", lambda checkout: "abc1234")
    return bench_pairs


def test_bench_pairs_stops_at_a_run_whose_result_is_not_correct(tmp_path, monkeypatch):
    bench_pairs = load_bench_pairs(monkeypatch)
    checkout = tmp_path / "checkout"
    (checkout / "perfbench").mkdir(parents=True)
    (checkout / "perfbench" / "run.py").write_text(
        'print(\'{"correct": false, "attempted": 3, "failed": 1, "metrics": {}}\')\n', encoding="utf-8"
    )
    args = [str(checkout), str(checkout), "--workload", "score", "--pairs", "1", "--seeds", "4", "--tag", "t"]
    with pytest.raises(SystemExit) as stop:
        bench_pairs.main(args)
    assert stop.value.code == f'{checkout}: workload score seed 4: the result line says "correct": false'


# a run that writes its result file and prints its result line, with a wall_s of 1 + seed / 10
FAKE_RUN = """\
import json, os, sys
workload, seed = (sys.argv[sys.argv.index(flag) + 1] for flag in ("--workload", "--seed"))
os.makedirs(os.path.join("perfbench", "results"), exist_ok=True)
with open(os.path.join("perfbench", "results", f"{workload}_seed{seed}_trace0.json"), "w") as fh:
    json.dump({"repeat_wall_s_raw": [1.0, 2.0, 3.0], "environment": {"seed": seed}}, fh)
print(json.dumps({"correct": True, "metrics": {"wall_s": {"value": 1 + int(seed) / 10}}}))
"""


def test_bench_pairs_adds_a_second_run_to_the_pairs_of_the_first(tmp_path, monkeypatch):
    bench_pairs = load_bench_pairs(monkeypatch)
    root, checkout = tmp_path / "root", tmp_path / "checkout"
    root.mkdir()
    (root / "BENCHMARK.json").write_text('{"end_to_end": [{"name": "wall_s", "better": "lower"}]}')
    (checkout / "perfbench").mkdir(parents=True)
    (checkout / "perfbench" / "run.py").write_text(FAKE_RUN, encoding="utf-8")
    monkeypatch.setattr(bench_pairs, "ROOT", str(root))
    args = [str(checkout), str(checkout), "--workload", "pipeline", "--pairs", "1", "--tag", "t", "--seconds", "1"]
    assert bench_pairs.main(args + ["--seeds", "4"]) == 0
    assert bench_pairs.main(args + ["--seeds", "6"]) == 0
    path = root / "BENCH_t_abc1234.json"
    run = json.loads(path.read_text())["workloads"]["pipeline"]
    assert [p["seed"] for p in run["pairs"]] == [4, 6] and run["seeds"] == [4, 6]
    wall = run["summary"]["wall_s"]
    assert wall["pairs"] == 2 and wall["parent"]["median"] == wall["change"]["median"] == 1.5
    before = path.read_text()
    with pytest.raises(SystemExit) as stop:
        bench_pairs.main(args[:-1] + ["2", "--seeds", "4"])
    assert stop.value.code == f"{path}: pipeline was run with --seconds 1.0, not 2.0"
    assert path.read_text() == before
