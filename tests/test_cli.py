import dataclasses
import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

import kdsm
from kdsm import cli, distill
from kdsm import data as data_module
from kdsm.cli import (
    KEYS,
    RunConfig,
    _save_predictor,
    _write_text,
    load_predictor,
    main,
    parse_config_file,
    run_comparison,
)
from kdsm.data import (
    SIDECAR_SUFFIX,
    SplitRatios,
    SyntheticConfig,
    gen_synthetic,
    load_csv,
    save_csv,
    split_dataset,
)
from kdsm.distill import KdsmHyper, TrainReport, write_train_report
from kdsm.errors import ConfigError, DomainError, FitError, KdsmError, SchemaError
from kdsm.metrics import Curve, write_curve_csv
from kdsm.seeds import derive_seed
from kdsm.student import StudentConfig, save_student
from kdsm.tree import TreeParams, fit_tree, load_tree, predict_uplift_tree_batch, save_tree
from oracles import read_curve_csv


BASE_CFG = """\
seed = 3
synth.n = 1500
synth.d_numeric = 2
synth.d_categorical = 1
synth.base_rate = 0.3
tree.max_depth = 2
tree.min_samples_per_arm = 30
student.hidden_sizes = 6
student.embedding_dim = 2
train.batch_size = 128
train.max_epochs = 2
train.early_stop_patience = 3
"""


def write_cfg(dirpath, extra=""):
    out = os.path.join(dirpath, "out")
    cfg_path = os.path.join(dirpath, "run.cfg")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        fh.write(BASE_CFG + f"out.dir = {out}\n" + extra)
    return cfg_path, out


def file_hashes(root):
    hashes = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            p = os.path.join(dirpath, name)
            with open(p, "rb") as fh:
                hashes[os.path.relpath(p, root)] = hashlib.sha256(fh.read()).hexdigest()
    return hashes


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("cli"))
    cfg, out = write_cfg(root)
    assert main(["synth", "--config", cfg]) == 0
    assert main(["split", "--config", cfg]) == 0
    assert main(["fit-tree", "--config", cfg]) == 0
    for method in ("plain", "kdss", "kdsm", "tm", "mom"):
        assert main(["train", "--config", cfg, "--method", method]) == 0
    models = [os.path.join(out, f"model_{m}.json") for m in ("plain", "kdss", "kdsm", "tm", "mom")]
    assert main(["evaluate", "--config", cfg, *models, os.path.join(out, "tree.json")]) == 0
    return cfg, out


def test_pipeline_writes_all_artifacts(pipeline):
    _, out = pipeline
    expected = [
        "dataset.csv",
        "true_cate.csv",
        "schema.json",
        "train.csv",
        "valid.csv",
        "test.csv",
        "split_indices.txt",
        "tree.json",
        "leaf_summary.txt",
    ]
    expected += [f"{name}.csv{SIDECAR_SUFFIX}" for name in ("dataset", "train", "valid", "test")]
    expected += [f"model_{m}.json" for m in ("plain", "kdss", "kdsm", "tm", "mom")]
    expected += [f"train_report_{m}.txt" for m in ("plain", "kdss", "kdsm", "tm", "mom")]
    for m in ("model_plain", "model_kdsm", "tree"):
        expected += [
            f"eval_{m}/summary.json",
            f"eval_{m}/uplift_curve.csv",
            f"eval_{m}/qini_curve.csv",
        ]
    for rel in expected:
        assert os.path.exists(os.path.join(out, rel)), rel


def test_pipeline_rerun_is_byte_identical(pipeline):
    cfg, out = pipeline
    before = file_hashes(out)
    assert main(["synth", "--config", cfg]) == 0
    assert main(["split", "--config", cfg]) == 0
    assert main(["fit-tree", "--config", cfg]) == 0
    assert main(["train", "--config", cfg, "--method", "kdsm"]) == 0
    assert main(["evaluate", "--config", cfg, os.path.join(out, "model_kdsm.json")]) == 0
    after = file_hashes(out)
    assert before == after
    # the array sidecars beside the CSV files included
    assert {f"{name}.csv{SIDECAR_SUFFIX}" for name in ("dataset", "train", "valid", "test")} <= set(after)


def test_summary_auuc_matches_reintegrated_curve(pipeline):
    _, out = pipeline
    with open(os.path.join(out, "eval_model_kdsm", "summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    curve = read_curve_csv(os.path.join(out, "eval_model_kdsm", "uplift_curve.csv"))
    recomputed = float(np.mean(curve.values / curve.values[-1]))
    assert abs(recomputed - summary["auuc"]) < 1e-12


def test_evaluating_teacher_reproduces_tree_predictions(pipeline):
    _, out = pipeline
    kind, predict, schema = load_predictor(os.path.join(out, "tree.json"))
    assert kind == "tree"
    tree = load_tree(os.path.join(out, "tree.json"))
    test_ds = load_csv(os.path.join(out, "test.csv"), schema)
    assert np.array_equal(predict(test_ds.features), predict_uplift_tree_batch(tree, test_ds.features))


def test_models_share_one_tie_seed(pipeline):
    _, out = pipeline
    seeds = set()
    for m in ("model_plain", "model_kdsm", "model_tm", "model_mom", "tree"):
        with open(os.path.join(out, f"eval_{m}", "summary.json"), encoding="utf-8") as fh:
            seeds.add(json.load(fh)["tie_seed"])
    assert seeds == {derive_seed(3, "eval-ties")}


def test_mom_predictor_loads_as_regression(pipeline):
    _, out = pipeline
    kind, predict, schema = load_predictor(os.path.join(out, "model_mom.json"))
    assert kind == "mom"
    test_ds = load_csv(os.path.join(out, "test.csv"), schema)
    preds = predict(test_ds.features)
    assert preds.shape == (test_ds.n,)
    assert np.all(np.isfinite(preds))


def copy_data(out, names, dest):
    os.makedirs(dest)
    for name in names:
        shutil.copy(os.path.join(out, name), dest)
    return dest


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_evaluate_needs_only_the_test_split(pipeline, tmp_path):
    _, out = pipeline
    data_dir = copy_data(out, ("schema.json", "test.csv"), str(tmp_path / "data"))
    cfg, out2 = write_cfg(str(tmp_path), extra=f"data.dir = {data_dir}\n")
    assert main(["evaluate", "--config", cfg, os.path.join(out, "model_kdsm.json")]) == 0
    summary = os.path.join("eval_model_kdsm", "summary.json")
    assert read_bytes(os.path.join(out2, summary)) == read_bytes(os.path.join(out, summary))


def test_train_needs_no_test_split(pipeline, tmp_path):
    _, out = pipeline
    data_dir = copy_data(out, ("schema.json", "train.csv", "valid.csv", "tree.json"), str(tmp_path / "data"))
    cfg, out2 = write_cfg(str(tmp_path), extra=f"data.dir = {data_dir}\n")
    assert main(["train", "--config", cfg, "--method", "kdsm"]) == 0
    assert read_bytes(os.path.join(out2, "model_kdsm.json")) == read_bytes(os.path.join(out, "model_kdsm.json"))


def test_true_cate_and_split_indices_keep_their_bytes(tmp_path):
    cfg, out = write_cfg(str(tmp_path), extra="synth.n = 20000\n")
    assert main(["synth", "--config", cfg]) == 0
    assert main(["split", "--config", cfg]) == 0
    run = RunConfig(parse_config_file(cfg))
    ds, tau = gen_synthetic(run.synthetic_config(derive_seed(run.seed, "synth")))
    # the per-element expressions these files were first written with
    expected = "true_cate\n" + "".join(repr(float(v)) + "\n" for v in tau)
    assert read_bytes(os.path.join(out, "true_cate.csv")) == expected.encode()
    split = split_dataset(ds, run.split_ratios(), derive_seed(run.seed, "split"))
    lines = ["# split indices v1"]
    for name in ("train", "valid", "test"):
        lines.append(f"{name}: " + " ".join(str(int(i)) for i in split.indices[name]))
    assert read_bytes(os.path.join(out, "split_indices.txt")) == ("\n".join(lines) + "\n").encode()


def test_split_writes_the_same_files_with_and_without_the_dataset_sidecar(tmp_path, monkeypatch):
    cfg, out = write_cfg(str(tmp_path), extra="synth.n = 20000\n")
    assert main(["synth", "--config", cfg]) == 0
    names = [f"{name}.csv{suffix}" for name in ("train", "valid", "test") for suffix in ("", SIDECAR_SUFFIX)]
    with monkeypatch.context() as m:
        # beside its sidecar, dataset.csv holds every row's text: no row is formatted again
        m.setattr(data_module, "save_csv", refuse_to_format)
        assert main(["split", "--config", cfg]) == 0
    copied = {name: read_bytes(os.path.join(out, name)) for name in names}
    for name in names + ["dataset.csv" + SIDECAR_SUFFIX]:
        os.remove(os.path.join(out, name))
    assert main(["split", "--config", cfg]) == 0
    assert {name: read_bytes(os.path.join(out, name)) for name in names} == copied


def refuse_to_format(*args, **kwargs):
    raise AssertionError("save_csv was called")


def test_unknown_config_key_is_rejected(tmp_path, capsys):
    cfg, out = write_cfg(str(tmp_path), extra="bogus.key = 1\n")
    assert main(["synth", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "bogus.key" in err
    assert ":" in err  # path:lineno prefix
    assert not os.path.exists(os.path.join(out, "dataset.csv"))


def test_invalid_base_rate_fails_before_writing(tmp_path, capsys):
    cfg, out = write_cfg(str(tmp_path), extra="synth.base_rate = 1.5\n")
    assert main(["synth", "--config", cfg]) == 1
    assert "base_rate" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "command, line, message",
    [
        (["fit-tree"], "tree.max_depth = 2.5", "config key tree.max_depth='2.5' is not an integer"),
        (
            ["train", "--method", "plain"],
            "student.learning_rate = fast",
            "config key student.learning_rate='fast' is not a number",
        ),
        (
            ["train", "--method", "plain"],
            "train.drop_leftovers = maybe",
            "config key train.drop_leftovers='maybe' is not a boolean",
        ),
        (
            ["train", "--method", "plain"],
            "student.hidden_sizes = 64;32",
            "config key student.hidden_sizes='64;32' is not a comma list of integers",
        ),
        (
            ["compare"],
            "compare.seeds = 1,x",
            "config key compare.seeds='1,x' is not a comma list of integers",
        ),
        (
            ["compare"],
            "compare.methods = plain,boosted",
            "unknown method 'boosted' in compare.methods",
        ),
        (["synth"], "bogus.key = 1", "{cfg}:15: unknown config key 'bogus.key'"),
        (["compare"], "compare.methods = plain,plain", "config key compare.methods repeats 'plain'"),
        (["compare"], "compare.seeds = 1,1", "config key compare.seeds repeats 1"),
        (["compare"], "compare.seeds = ,", "config key compare.seeds lists nothing"),
        (
            ["train", "--method", "plain"],
            "student.init_seed = 3",
            "{cfg}:15: unknown config key 'student.init_seed'",
        ),
        (["train", "--method", "plain"], "student.beta2 = nan", "beta2=nan must lie in [0, 1)"),
        (["train", "--method", "kdsm", "--lambda", "nan"], "", "kd_weight=nan must be finite and >= 0"),
        (["evaluate", "--tie-seed", "-1", "model.json"], "", "config key eval.tie_seed=-1 must be >= 0"),
        (["compare"], "eval.tie_seed = -1", "config key eval.tie_seed=-1 must be >= 0"),
        (
            ["compare"],
            "eval.tie_seed = -1\ncompare.methods = plain\ncompare.seeds = 1",
            "config key eval.tie_seed=-1 must be >= 0",
        ),
        (["compare"], "eval.tie_seed = 1.5", "config key eval.tie_seed='1.5' is not an integer"),
        (
            ["train", "--method", "plain"],
            "student.learning_rate = inf",
            "learning_rate=inf must be finite and > 0",
        ),
    ],
    ids=[
        "max_depth", "learning_rate", "drop_leftovers", "hidden_sizes", "seeds", "methods",
        "unknown_key", "repeated_method", "repeated_seed", "no_seed", "supplied_field", "beta2",
        "nan_lambda", "negative_tie_seed_flag", "negative_tie_seed_compare",
        "negative_tie_seed_one_cell", "fractional_tie_seed_compare", "inf_learning_rate",
    ],
)
def test_bad_config_value_names_its_key(pipeline, tmp_path, capsys, command, line, message):
    _, data_dir = pipeline
    cfg, out = write_cfg(str(tmp_path), extra=f"data.dir = {data_dir}\n{line}\n")
    assert main([command[0], "--config", cfg, *command[1:]]) == 1
    assert capsys.readouterr().err == f"error: {message.format(cfg=cfg)}\n"
    assert not os.path.exists(out)


def test_every_section_key_is_a_config_field():
    sections = {
        "synth": SyntheticConfig,
        "split": SplitRatios,
        "tree": TreeParams,
        "student": StudentConfig,
        "train": KdsmHyper,
    }
    keys = {key for key in KEYS if key.split(".")[0] in sections}
    fields = {
        f"{prefix}.{f.name}" for prefix, cls in sections.items() for f in dataclasses.fields(cls)
    }
    # keys read by the commands themselves, and fields the caller supplies
    assert keys - fields == {"train.lambda"}
    assert fields - keys == {
        "synth.seed", "student.init_seed", "train.kd_weight", "train.master_seed"
    }


def test_unset_keys_leave_each_section_at_its_dataclass_defaults():
    cfg = RunConfig({})
    assert cfg.synthetic_config(3) == SyntheticConfig(seed=3)
    assert cfg.split_ratios() == SplitRatios()
    assert cfg.tree_params() == TreeParams()
    assert cfg.student_config(4) == StudentConfig(init_seed=4)
    assert cfg.hyper(5) == KdsmHyper(master_seed=5)


def test_run_config_names_its_first_unknown_key():
    with pytest.raises(ConfigError, match="^unknown config key 'synth.nn'$"):
        RunConfig({"seed": "3", "synth.nn": "500", "bogus": "1"})


def test_train_kdsm_without_tree_names_fit_tree(tmp_path, capsys):
    cfg, out = write_cfg(str(tmp_path))
    assert main(["synth", "--config", cfg]) == 0
    assert main(["split", "--config", cfg]) == 0
    assert main(["train", "--config", cfg, "--method", "kdsm"]) == 1
    assert "fit-tree" in capsys.readouterr().err


def test_unknown_method_rejected_by_parser(tmp_path):
    cfg, _ = write_cfg(str(tmp_path))
    with pytest.raises(SystemExit) as exc:
        main(["train", "--config", cfg, "--method", "boosted"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["synth", "--lambda", "0.1"],
        ["synth", "--criterion", "ed"],
        ["synth", "--drop-leftovers"],
        ["split", "--lambda", "0.1"],
        ["split", "--criterion", "ed"],
        ["split", "--drop-leftovers"],
        ["fit-tree", "--lambda", "0.1"],
        ["fit-tree", "--drop-leftovers"],
        ["train", "--method", "kdsm", "--criterion", "ed"],
        ["evaluate", "m.json", "--lambda", "0.1"],
        ["evaluate", "m.json", "--criterion", "ed"],
        ["evaluate", "m.json", "--drop-leftovers"],
        ["compare", "--seed", "1"],
    ],
    ids="_".join,
)
def test_commands_reject_flags_they_do_not_read(tmp_path, argv):
    cfg, _ = write_cfg(str(tmp_path))
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--config", cfg, *argv[1:]])
    assert exc.value.code == 2


def test_split_reports_an_oversized_csv_field(tmp_path, capsys):
    cfg, out = write_cfg(str(tmp_path))
    os.makedirs(out)
    with open(os.path.join(out, "schema.json"), "w", encoding="utf-8") as fh:
        json.dump([{"name": "f0", "kind": "numeric"}], fh)
    dataset = os.path.join(out, "dataset.csv")
    with open(dataset, "w", encoding="utf-8") as fh:
        fh.write("f0,treatment,outcome\n0.5,1,0\n" + "9" * 200_000 + ",0,1\n")
    assert main(["split", "--config", cfg]) == 1
    assert capsys.readouterr().err.startswith(f"error: {dataset}: line 3: field larger than field limit")


def test_split_names_the_line_of_a_byte_that_is_not_utf8(tmp_path, capsys):
    cfg, out = write_cfg(str(tmp_path))
    os.makedirs(out)
    with open(os.path.join(out, "schema.json"), "w", encoding="utf-8") as fh:
        json.dump([{"name": "f0", "kind": "numeric"}], fh)
    dataset = os.path.join(out, "dataset.csv")
    with open(dataset, "wb") as fh:
        fh.write(b"f0,treatment,outcome\n" + b"0.5,1,0\n" * 4 + b"0.\xe9,0,1\n")
    assert main(["split", "--config", cfg]) == 1
    named = f"{dataset}: line 6: not UTF-8 text (invalid continuation byte)"
    assert capsys.readouterr().err == f"error: {named}\n"
    assert not os.path.exists(os.path.join(out, "train.csv"))


def test_config_that_is_not_utf8_names_the_line_of_its_first_bad_byte(tmp_path, capsys):
    cfg, out = write_cfg(str(tmp_path))
    with open(cfg, "ab") as fh:
        fh.write(b"# caf\xe9\n")
    lines = BASE_CFG.count("\n") + 2  # the base, out.dir and the comment
    assert main(["synth", "--config", cfg]) == 1
    named = f"{cfg}: line {lines}: not UTF-8 text (invalid continuation byte)"
    assert capsys.readouterr().err == f"error: {named}\n"
    assert not os.path.exists(out)


def test_a_split_that_fails_on_its_data_leaves_no_out_dir(tmp_path, capsys):
    cfg, out = write_cfg(str(tmp_path), extra=f"synth.n = 9\ndata.dir = {tmp_path / 'out'}\n")
    assert main(["synth", "--config", cfg]) == 0
    fresh = str(tmp_path / "fresh")
    assert main(["split", "--config", cfg, "--out", fresh]) == 1
    assert capsys.readouterr().err.endswith("error: dataset has 9 rows; need at least 10 to split\n")
    assert not os.path.exists(fresh)


def test_split_rejects_a_cardinality_above_2_53(tmp_path, capsys):
    cfg, out = write_cfg(str(tmp_path))
    os.makedirs(out)
    schema = os.path.join(out, "schema.json")
    with open(schema, "w", encoding="utf-8") as fh:
        json.dump([{"name": "c0", "kind": "categorical", "cardinality": 10**400}], fh)
    assert main(["split", "--config", cfg]) == 1
    named = f"column 'c0': cardinality {10**400} exceeds 2**53"
    assert capsys.readouterr().err == f"error: {schema}: {named}\n"


@pytest.mark.parametrize("method", ["kdsm", "kdss"])
def test_train_rejects_a_tree_of_another_schema_before_writing(pipeline, tmp_path, capsys, method):
    _, out = pipeline
    cfg2, out2 = write_cfg(str(tmp_path), extra="synth.d_numeric = 3\n")
    assert main(["synth", "--config", cfg2]) == 0
    assert main(["split", "--config", cfg2]) == 0
    shutil.copy(os.path.join(out, "tree.json"), out2)
    before = sorted(os.listdir(out2))
    capsys.readouterr()
    assert main(["train", "--config", cfg2, "--method", method]) == 1
    assert capsys.readouterr().err == "error: tree and training data have different schemas\n"
    assert sorted(os.listdir(out2)) == before


def test_evaluate_rejects_schema_mismatch(pipeline, tmp_path, capsys):
    _, out = pipeline
    cfg2, out2 = write_cfg(str(tmp_path), extra="synth.d_numeric = 3\n")
    assert main(["synth", "--config", cfg2]) == 0
    assert main(["split", "--config", cfg2]) == 0
    code = main(["evaluate", "--config", cfg2, os.path.join(out, "model_plain.json")])
    assert code == 1
    assert "schema" in capsys.readouterr().err


def test_compare_report_rows_and_sorted_medians(tmp_path, capsys):
    root = str(tmp_path)
    out = os.path.join(root, "out")
    cfg_path = os.path.join(root, "cmp.cfg")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        fh.write(
            BASE_CFG
            + f"out.dir = {out}\n"
            + "compare.methods = plain,kdsm\n"
            + "compare.seeds = 1,2\n"
        )
    assert main(["compare", "--config", cfg_path]) == 0
    capsys.readouterr()
    path = os.path.join(out, "comparison.txt")
    assert os.path.exists(path)
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "# comparison report v1"
    cell_lines = [l for l in lines if l and not l.startswith("#") and l.split("\t")[0] in ("plain", "kdsm")]
    # 2 methods x 2 seeds plus 2 median rows
    assert len(cell_lines) == 6
    median_idx = lines.index("# medians (sorted by qini, descending)")
    medians = [l.split("\t") for l in lines[median_idx + 2 :] if l]  # skip the header row
    qinis = [float(m[2]) for m in medians]
    assert qinis == sorted(qinis, reverse=True)
    # per-cell artifacts land under cells/
    assert os.path.exists(os.path.join(out, "cells", "kdsm_seed1", "summary.json"))


def test_compare_reports_failed_cells(tmp_path, capsys, monkeypatch):
    def boom(*args):
        raise FitError("boom")

    monkeypatch.setattr(distill, "train_mom", boom)
    # the patched trainer exists in this process only, so the cells must run here
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    cfg, out = write_cfg(str(tmp_path), extra="compare.methods = plain,mom\ncompare.seeds = 1,2\n")
    assert main(["compare", "--config", cfg]) == 0
    captured = capsys.readouterr()
    assert captured.err == "warning: 2 cell(s) failed\n"
    lines = captured.out.splitlines()
    assert "mom\t1\t-\t-\tfailed: boom" in lines and "mom\t2\t-\t-\tfailed: boom" in lines
    # the method with no ok cell sorts last, after plain's two ok cells
    assert lines[-2].startswith("plain\t") and lines[-2].endswith("\t2")
    assert lines[-1] == "mom\t-\t-\t0"
    with open(os.path.join(out, "comparison.txt"), encoding="utf-8") as fh:
        assert fh.read() == captured.out
    assert os.path.isdir(os.path.join(out, "cells", "plain_seed1"))
    assert not os.path.exists(os.path.join(out, "cells", "mom_seed1"))


# the compare of tools/refactor_oracle.sh whose seed-4 cells fail: with no
# treatment effect, their AUUC is undefined
FAILING_COMPARE = {
    "synth.n": "3000",
    "synth.effect_function": "zero",
    "compare.methods": "plain,tm",
    "compare.seeds": "1,2,3,4",
    "train.max_epochs": "2",
}


def config_values(text):
    return dict(line.split(" = ") for line in text.splitlines())


def assert_no_child_process_left():
    with pytest.raises(ChildProcessError):  # no child, running or exited and unreaped
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize(
    "values, n_failed",
    [
        pytest.param(
            {**config_values(BASE_CFG), "compare.methods": "plain,kdsm,tm", "compare.seeds": "1,2"},
            0,
            id="base",
        ),
        pytest.param(FAILING_COMPARE, 2, id="failing-cells"),
    ],
)
def test_compare_artifacts_do_not_depend_on_the_worker_count(
    tmp_path, monkeypatch, values, n_failed
):
    cfg = RunConfig(values)
    artifacts = {}
    for workers in (1, 2, 3):  # 3: more workers than the CPUs of a 2-CPU machine
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)))
        out = str(tmp_path / f"workers{workers}")
        report = run_comparison(cfg, out)
        assert sum(r.failed for r in report.rows) == n_failed
        artifacts[workers] = file_hashes(out)
    assert artifacts[1] == artifacts[2] == artifacts[3]
    assert "comparison.txt" in artifacts[1]
    assert sum(p.startswith("cells") for p in artifacts[1]) == 3 * (len(report.rows) - n_failed)
    assert_no_child_process_left()


def test_compare_bad_setting_fails_alike_in_workers_and_in_process(tmp_path, capsys, monkeypatch):
    # the setting is read only when a cell trains, so in a worker when there are workers
    extra = "train.drop_leftovers = maybe\ncompare.methods = plain,kdsm\ncompare.seeds = 1,2\n"
    cfg, _ = write_cfg(str(tmp_path), extra=extra)
    errors = {}
    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        assert main(["compare", "--config", cfg]) == 1
        errors[len(cpus)] = capsys.readouterr().err
        assert_no_child_process_left()
    assert errors[1] == errors[2] == "error: config key train.drop_leftovers='maybe' is not a boolean\n"
    # and through `python -m kdsm.cli`, whose cli module is __main__
    src = os.path.dirname(os.path.dirname(kdsm.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "kdsm.cli", "compare", "--config", cfg],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert (proc.returncode, proc.stderr) == (1, errors[1])


@pytest.mark.parametrize(
    "worker_code",
    [
        pytest.param("import os; os._exit(3)", id="before-reading-a-cell"),
        pytest.param(
            "import os, pickle, sys; pickle.load(sys.stdin.buffer); os._exit(3)",
            id="after-reading-a-cell",
        ),
    ],
)
def test_compare_worker_that_dies_is_a_kdsm_error(tmp_path, monkeypatch, worker_code):
    monkeypatch.setattr(cli, "WORKER_CODE", worker_code)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    extra = "compare.methods = plain,tm\ncompare.seeds = 1,2\n"
    cfg = RunConfig(parse_config_file(write_cfg(str(tmp_path), extra=extra)[0]))
    with pytest.raises(KdsmError, match=r"^a compare worker stopped with exit code 3$"):
        run_comparison(cfg, str(tmp_path / "out"))
    assert_no_child_process_left()


@pytest.mark.parametrize(
    "doc, named",
    [
        ("{bad", "Expecting property name"),
        ('{"format": "student-model/v1", "head": "binary"}', "missing key 'config'"),
        ('{"format": "two-model/v1"}', "missing key 'treated'"),
        ("[1, 2]", "malformed"),
    ],
)
def test_evaluate_reports_malformed_model_file(pipeline, tmp_path, capsys, doc, named):
    cfg, _ = pipeline
    path = tmp_path / "broken.json"
    path.write_text(doc, encoding="utf-8")
    assert main(["evaluate", "--config", cfg, str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and named in err


def test_evaluate_reports_misshaped_model_array(pipeline, tmp_path, capsys):
    cfg, out = pipeline
    with open(os.path.join(out, "model_kdsm.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["weights"][0] = doc["weights"][0][:-1]  # the first layer loses its last input row
    path = tmp_path / "model_kdsm.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["evaluate", "--config", cfg, str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and "weights[0] has shape" in err


@pytest.fixture(scope="module")
def trained_predictors():
    """A tree plus a kdsm, a mom and a tm model, trained in memory."""
    split = split_dataset(
        gen_synthetic(
            SyntheticConfig(n=1200, d_numeric=2, d_categorical=1, base_rate=0.3, noise_features=0, seed=5)
        )[0],
        SplitRatios(0.6, 0.2, 0.2),
        6,
    )
    tree = fit_tree(split.train, TreeParams(max_depth=2, min_samples_per_arm=30))
    cfg = StudentConfig(hidden_sizes=(6,), embedding_dim=2, init_seed=7)
    hyper = KdsmHyper(batch_size=128, max_epochs=2, early_stop_patience=3, master_seed=8)
    return split.test.features, {
        "tree": tree,
        "kdsm": distill.train_kdsm(split.train, split.valid, tree, cfg, hyper)[0],
        "mom": distill.train_mom(split.train, split.valid, cfg, hyper)[0],
        "tm": distill.train_two_model(split.train, split.valid, cfg, hyper)[0],
    }


@pytest.mark.parametrize("method, kind", [("tree", "tree"), ("kdsm", "student"), ("mom", "mom"), ("tm", "two-model")])
def test_reloaded_predictor_scores_like_the_trained_one(trained_predictors, tmp_path, method, kind):
    X, predictors = trained_predictors
    predictor = predictors[method]
    path = str(tmp_path / f"{method}.json")
    if method == "tree":
        save_tree(predictor, path)
    else:
        _save_predictor(predictor, path)
    loaded_kind, predict, schema = load_predictor(path)
    assert loaded_kind == kind and schema == predictor.schema
    assert np.array_equal(predict(X), predictor.predict_uplift(X))


def _not_a_code(text):
    return f"code {text} in categorical column 'cat_0' at row 1 is not an integer in [0, 4)"


@pytest.mark.parametrize(
    "column, value, error, message",
    [
        ("num_0", math.nan, DomainError, "non-finite value in column 'num_0' at row 1"),
        ("num_0", math.inf, DomainError, "non-finite value in column 'num_0' at row 1"),
        ("cat_0", 7.0, DomainError, _not_a_code("7.0")),
        ("cat_0", 1.5, DomainError, _not_a_code("1.5")),
        ("cat_0", -1.0, DomainError, _not_a_code("-1.0")),
        # with no column, `value` maps the matrix to the input
        (None, lambda X: X[:, :-1], SchemaError, "feature matrix has shape (3, 2), schema expects (*, 3)"),
        (None, lambda X: 1.0, SchemaError, "feature matrix has shape (), schema expects (*, 3)"),
    ],
    ids=["nan", "inf", "code_7", "code_1.5", "code_-1", "one_column_short", "scalar"],
)
@pytest.mark.parametrize("method", ["tree", "kdsm", "mom", "tm"])
def test_every_predictor_rejects_a_bad_feature_matrix_alike(
    trained_predictors, method, column, value, error, message
):
    X, predictors = trained_predictors
    predictor = predictors[method]
    X = X[:3].copy()
    if column is None:
        X = value(X)
    else:
        X[1, predictor.schema.names.index(column)] = value
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        predictor.predict_uplift(X)


def test_evaluate_rejects_a_tree_that_ends_inside_a_subtree(pipeline, tmp_path, capsys):
    cfg, out = pipeline
    with open(os.path.join(out, "tree.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    del doc["nodes"][-1]  # the last leaf, a right child
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["evaluate", "--config", cfg, str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: tree node ")
    assert err.endswith(" the nodes end inside it\n")


@pytest.mark.parametrize("key, value", [("max_depth", 0), ("criterion", "nope")])
def test_evaluate_rejects_a_tree_with_invalid_params(pipeline, tmp_path, capsys, key, value):
    cfg, out = pipeline
    with open(os.path.join(out, "tree.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc[key] = value
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["evaluate", "--config", cfg, str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and key in err


ARTIFACT_WRITERS = {
    "dataset": lambda p, models: save_csv(
        gen_synthetic(
            SyntheticConfig(n=50, d_numeric=2, d_categorical=1, base_rate=0.1, noise_features=0, seed=1)
        )[0],
        p,
    ),
    "text": lambda p, models: _write_text(p, "new\n"),
    "two-model": lambda p, models: _save_predictor(models["tm"], p),
    "student": lambda p, models: save_student(models["kdsm"], p),
    "tree": lambda p, models: save_tree(models["tree"], p),
    "curve": lambda p, models: write_curve_csv(Curve(np.arange(1, 4), np.array([0.5, 1.0, 1.5])), p),
    "report": lambda p, models: write_train_report(TrainReport("kdsm", 0.5), p),
}


@pytest.mark.parametrize("writer", sorted(ARTIFACT_WRITERS))
def test_failed_artifact_write_keeps_the_previous_file(trained_predictors, tmp_path, monkeypatch, writer):
    path = tmp_path / "artifact"
    path.write_text("previous\n", encoding="utf-8")

    def fail(src, dst):
        raise OSError("no space left on device")

    # the last step of an atomic write fails, after the new content is complete
    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="no space"):
        ARTIFACT_WRITERS[writer](str(path), trained_predictors[1])
    monkeypatch.undo()
    assert path.read_text(encoding="utf-8") == "previous\n"
    assert os.listdir(tmp_path) == ["artifact"]
