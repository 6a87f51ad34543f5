#!/usr/bin/env bash
# Byte-identity oracle for refactors.
#
#   tools/refactor_oracle.sh PARENT_CHECKOUT CHANGE_CHECKOUT
#
# Runs the same CLI work from the src/ of each checkout and diffs every
# artifact and the stdout of every command, with the per-run directory in
# stdout replaced by OUT:
#   - synth, split and fit-tree at synth.n=5000, 15 epochs;
#   - train for all five methods, plus plain --pair-stream, kdsm
#     --drop-leftovers and kdss --lambda 0, each to its own --out;
#   - evaluate on every model and on the tree;
#   - compare at synth.n=20000, seeds 1,2, 15 epochs.
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

    kdsm() { PYTHONPATH="$src" python3 -m kdsm.cli "$@"; }
    {
        kdsm synth --config "$cfg"
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
plain_pair_stream plain --pair-stream
kdsm_drop_leftovers kdsm --drop-leftovers
kdss_lambda0 kdss --lambda 0
VARIANTS
        kdsm evaluate --config "$cfg" "$out/data/tree.json"
        kdsm compare --config "$cfg.compare"
    } | sed "s#$out#OUT#g" >"$out/stdout.txt"
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
