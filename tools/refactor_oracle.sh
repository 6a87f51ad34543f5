#!/usr/bin/env bash
# Byte-identity oracle for refactors.
#
#   tools/refactor_oracle.sh PARENT_CHECKOUT CHANGE_CHECKOUT
#
# Runs the same CLI work from the src/ of each checkout and diffs every
# artifact and the stdout of every command, with the per-run directory in
# stdout replaced by OUT:
#   - synth, split and fit-tree at synth.n=5000, 15 epochs;
#   - synth at synth.n=5000 with synth.effect_function = linear-clipped and
#     synth.base_rate = 0.2 (that shape's effects reach -0.1, so it needs a
#     base rate >= 0.1), into its own directory, so the dataset.csv and
#     true_cate.csv of a second effect shape are compared;
#   - split on a copy of the synthesized dataset.csv with two bad cells in
#     its first block: an unparsable num_0 on line 3001 and an outcome of 2
#     on the earlier line 1001, which the error names. The array sidecar
#     of the synthesized dataset.csv, where the checkout writes one, is
#     copied beside the edited copy, so a stale sidecar must be ignored.
#     Its exit code and its stderr, with the run directory replaced by OUT,
#     are compared as files;
#   - train for all five methods, plus kdsm --lambda 0, kdsm
#     --drop-leftovers and kdss --lambda 0, each to its own --out;
#   - evaluate on every model and on the tree;
#   - compare at synth.n=20000, seeds 1,2, 15 epochs, in worker processes
#     on a machine with more than one usable CPU;
#   - the same compare once more under `taskset -c 0`, into its own
#     directory: with one usable CPU, compare runs its cells in its own
#     process, so this byte-checks that path next to the worker path.
#     taskset sets the CPU affinity of that one child process of the oracle
#     only, nothing of the machine or of any other process;
#   - a second compare with a failing cell: no treatment effect at
#     synth.n=3000, methods plain,tm, seeds 1-4, 2 epochs, where seed 4's
#     cells fail with "AUUC is undefined", so failed rows and medians over
#     fewer ok cells are compared too;
#   - a "tuned" chain (synth, split, fit-tree, train kdsm, evaluate) in its
#     own directory, whose config sets a non-default value in every section
#     and whose commands pass every flag (--seed, --criterion kl, --lambda,
#     --drop-leftovers, --tie-seed, and an empty --out, which is ignored);
#   - a "bare" chain in its own directory with no categorical column and no
#     hidden layer (synth.d_categorical = 0, an empty student.hidden_sizes):
#     synth, split and fit-tree at synth.n=5000, then train and evaluate
#     each of the five methods, so the students without embeddings and
#     without hidden layers are compared too;
#   - predict_uplift_student, one call per row of test.csv, with the kdsm
#     model of the default chain, with that of the tuned chain (tanh,
#     hidden 12,6, embedding 3) and with that of the bare chain (no
#     embedding, no hidden layer): each call's repr, one per line, goes to
#     single_row_uplift.txt beside the model, so the one-row scoring path is
#     compared to the last bit;
#   - predict_uplift_batch on 20,000 fresh synthetic rows (the default
#     synth settings at seed 7), with the kdsm model of the default chain:
#     one repr per row goes to batch_uplift.txt beside the model, so a batch
#     of many scoring blocks is compared to the last bit;
#   - the --help of kdsm and of each of its six commands, one file each,
#     since every flag's dest must be a config key of the CLI.
# Prints the number of files compared; exits 0 when both runs match byte
# for byte, 1 when they differ (the diff goes to stdout), 2 on bad usage.
# BLAS thread variables such as OPENBLAS_NUM_THREADS pass through to both
# runs unchanged.
set -euo pipefail

if [ $# -ne 2 ] || [ ! -d "$1/src/kdsm" ] || [ ! -d "$2/src/kdsm" ]; then
    echo "usage: $0 PARENT_CHECKOUT CHANGE_CHECKOUT (each with src/kdsm)" >&2
    exit 2
fi
work=$(mktemp -d "${TMPDIR:-/tmp}/refactor-oracle.XXXXXX")
trap 'rm -rf "$work"' EXIT

# run_side CHECKOUT NAME: every command of the oracle, artifacts under
# $work/NAME, normalised stdout in $work/NAME/stdout.txt
run_side() {
    local src out cfg
    src="$(cd "$1" && pwd)/src"
    out="$work/$2"
    cfg="$work/$2.cfg"
    mkdir -p "$out"
    printf 'out.dir = %s\ndata.dir = %s\nsynth.n = 5000\ntrain.max_epochs = 15\n' \
        "$out/data" "$out/data" >"$cfg"
    printf 'out.dir = %s\nsynth.n = 20000\ncompare.seeds = 1,2\ntrain.max_epochs = 15\n' \
        "$out/compare" >"$cfg.compare"
    sed "s#^out.dir = .*#out.dir = $out/compare_one_cpu#" "$cfg.compare" >"$cfg.compare_one_cpu"
    {
        printf 'out.dir = %s\n' "$out/linear_clipped"
        printf '%s\n' 'synth.n = 5000' 'synth.effect_function = linear-clipped' 'synth.base_rate = 0.2'
    } >"$cfg.linear_clipped"
    printf 'out.dir = %s\ndata.dir = %s\n' "$out/bad_csv" "$out/bad_csv" >"$cfg.bad_csv"
    {
        printf 'out.dir = %s\n' "$out/compare_failing"
        printf '%s\n' 'synth.n = 3000' 'synth.effect_function = zero' \
            'compare.methods = plain,tm' 'compare.seeds = 1,2,3,4' 'train.max_epochs = 2'
    } >"$cfg.compare_failing"
    printf 'out.dir = %s\ndata.dir = %s\n' "$out/bare" "$out/bare" >"$cfg.bare"
    printf '%s\n' 'synth.n = 5000' 'synth.d_categorical = 0' 'student.hidden_sizes =' \
        'train.max_epochs = 15' >>"$cfg.bare"
    printf 'out.dir = %s\ndata.dir = %s\n' "$out/tuned" "$out/tuned" >"$cfg.tuned"
    cat >>"$cfg.tuned" <<'TUNED'
seed = 5
synth.n = 6000
synth.d_categorical = 1
synth.base_rate = 0.2
synth.effect_scale = 1.5
synth.treatment_fraction = 0.45
synth.noise_features = 1
split.train = 0.5
split.valid = 0.25
split.test = 0.25
tree.max_depth = 3
tree.min_samples_per_arm = 60
tree.min_gain = 0.00001
tree.numeric_split_candidates = 16
student.hidden_sizes = 12,6
student.embedding_dim = 3
student.activation = tanh
student.optimizer = sgd
student.momentum = 0.8
student.learning_rate = 0.05
student.lr_decay_factor = 0.3
student.lr_decay_patience = 2
train.lambda = 0.1
train.batch_size = 256
train.max_epochs = 8
train.early_stop_patience = 4
eval.tie_seed = 17
TUNED

    kdsm() { PYTHONPATH="$src" python3 -m kdsm.cli "$@"; }
    {
        kdsm synth --config "$cfg"
        kdsm synth --config "$cfg.linear_clipped"
        mkdir "$out/bad_csv"
        cp "$out/data/schema.json" "$out/bad_csv/"
        awk -F, -v OFS=, -v RS='\r\n' -v ORS='\r\n' '
            NR == 1 { for (i = 1; i <= NF; i++) col[$i] = i }
            NR == 1001 { $col["outcome"] = 2 }
            NR == 3001 { $col["num_0"] = "not_a_number" }
            { print }' "$out/data/dataset.csv" >"$out/bad_csv/dataset.csv"
        if [ -e "$out/data/dataset.csv.arrays" ]; then
            cp "$out/data/dataset.csv.arrays" "$out/bad_csv/"
        fi
        local status=0
        kdsm split --config "$cfg.bad_csv" 2>"$work/$2.bad_csv.stderr" || status=$?
        echo "$status" >"$out/bad_csv/split_exit_code.txt"
        sed "s#$out#OUT#g" "$work/$2.bad_csv.stderr" >"$out/bad_csv/split_stderr.txt"
        kdsm split --config "$cfg"
        kdsm fit-tree --config "$cfg"
        local variant method flags
        while read -r variant method flags; do
            # shellcheck disable=SC2086  # flags is a word list
            kdsm train --config "$cfg" --out "$out/$variant" --method "$method" $flags
            kdsm evaluate --config "$cfg" --out "$out/$variant" "$out/$variant/model_$method.json"
        done <<'VARIANTS'
kdsm kdsm
kdss kdss
plain plain
tm tm
mom mom
kdsm_lambda0 kdsm --lambda 0
kdsm_drop_leftovers kdsm --drop-leftovers
kdss_lambda0 kdss --lambda 0
VARIANTS
        kdsm evaluate --config "$cfg" "$out/data/tree.json"
        kdsm compare --config "$cfg.compare"
        PYTHONPATH="$src" taskset -c 0 python3 -m kdsm.cli compare --config "$cfg.compare_one_cpu"
        kdsm compare --config "$cfg.compare_failing"
        kdsm synth --config "$cfg.tuned" --seed 11
        kdsm split --config "$cfg.tuned" --seed 11
        kdsm fit-tree --config "$cfg.tuned" --seed 11 --criterion kl
        kdsm train --config "$cfg.tuned" --seed 11 --method kdsm --lambda 0.75 --drop-leftovers
        kdsm evaluate --config "$cfg.tuned" --out "" "$out/tuned/model_kdsm.json"
        kdsm evaluate --config "$cfg.tuned" --out "$out/tuned/flags" --seed 11 --tie-seed 23 \
            "$out/tuned/model_kdsm.json" "$out/tuned/tree.json"
        kdsm synth --config "$cfg.bare"
        kdsm split --config "$cfg.bare"
        kdsm fit-tree --config "$cfg.bare"
        for method in kdsm kdss plain tm mom; do
            kdsm train --config "$cfg.bare" --out "$out/bare/$method" --method "$method"
            kdsm evaluate --config "$cfg.bare" --out "$out/bare/$method" "$out/bare/$method/model_$method.json"
        done
    } | sed "s#$out#OUT#g" >"$out/stdout.txt"
    local model_dir data_dir
    while read -r model_dir data_dir; do
        PYTHONPATH="$src" python3 - "$out/$model_dir/model_kdsm.json" "$out/$data_dir/test.csv" \
            >"$out/$model_dir/single_row_uplift.txt" <<'SCORE'
import sys
from kdsm.data import load_csv
from kdsm.student import load_student, predict_uplift_student
model = load_student(sys.argv[1])
for row in load_csv(sys.argv[2], model.schema).features:
    print(repr(predict_uplift_student(model, row)))
SCORE
    done <<'CHAINS'
kdsm data
tuned tuned
bare/kdsm bare
CHAINS
    PYTHONPATH="$src" python3 - "$out/kdsm/model_kdsm.json" >"$out/kdsm/batch_uplift.txt" <<'SCORE'
import sys
from dataclasses import replace
from kdsm.cli import RunConfig
from kdsm.data import gen_synthetic
from kdsm.student import load_student, predict_uplift_batch
model = load_student(sys.argv[1])
rows, _ = gen_synthetic(replace(RunConfig().synthetic_config(7), n=20000))
for uplift in predict_uplift_batch(model, rows.features).tolist():
    print(repr(uplift))
SCORE
    local command
    for command in "" synth split fit-tree train evaluate compare; do
        # shellcheck disable=SC2086  # an empty command asks for the top-level help
        kdsm $command --help >"$out/help_${command:-kdsm}.txt"
    done
}

run_side "$1" parent
run_side "$2" change
n=$(find "$work/parent" -type f | wc -l)
if diff -r "$work/parent" "$work/change"; then
    echo "identical: $n files, stdout included"
else
    echo "DIFFERENT (see above); $n files on the parent side"
    exit 1
fi
