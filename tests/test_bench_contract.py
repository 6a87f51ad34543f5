"""The names the benchmark under perfbench/ calls or wraps.

perfbench/smoke.py runs the benchmark itself but stays out of the default
test run; these checks are fast and fail as soon as a simplification
renames or deletes a name the benchmark depends on.
"""

import importlib
import importlib.util
import inspect
import os

import numpy as np

from kdsm import cli
from kdsm.data import SyntheticConfig, gen_synthetic
from kdsm.student import StudentConfig, init_student, save_student

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


def test_load_predictor_returns_kind_scorer_and_schema(tmp_path):
    ds, _ = gen_synthetic(SyntheticConfig(n=40, d_numeric=2, d_categorical=1, base_rate=0.3, noise_features=0, seed=0))
    model = init_student(StudentConfig(hidden_sizes=(4,), init_seed=1), ds)
    path = str(tmp_path / "model.json")
    save_student(model, path)
    kind, predict, schema = cli.load_predictor(path)
    assert kind == "student" and schema == ds.schema
    assert np.array_equal(predict(ds.features), model.predict_uplift(ds.features))
