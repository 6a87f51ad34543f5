import contextlib
import csv
import errno
import io
import json
import math
import os
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from kdsm import data as data_module
from kdsm.data import (
    CSV_BLOCK_ROWS,
    EFFECTS,
    SIDECAR_SUFFIX,
    Column,
    Dataset,
    FeatureSchema,
    SplitRatios,
    SyntheticConfig,
    atomic_write,
    categorical_codes,
    gen_synthetic,
    load_csv,
    load_document,
    save_csv,
    split_csv,
    split_dataset,
)
from kdsm.errors import DomainError, KdsmError, ParseError, SchemaError


def make_schema(n_numeric=2, n_categorical=0, cardinality=3):
    labels = tuple(str(c) for c in range(cardinality))
    cols = [Column(name=f"f{i}", kind="numeric") for i in range(n_numeric)]
    cols += [
        Column(name=f"c{i}", kind="categorical", cardinality=cardinality, categories=labels)
        for i in range(n_categorical)
    ]
    return FeatureSchema(columns=tuple(cols))


def make_dataset(n=100, seed=0, n_numeric=2, n_categorical=0):
    rng = np.random.default_rng(seed)
    schema = make_schema(n_numeric, n_categorical)
    feats = rng.uniform(size=(n, n_numeric + n_categorical))
    for j in range(n_categorical):
        feats[:, n_numeric + j] = rng.integers(0, 3, size=n)
    ds = Dataset(
        schema=schema,
        features=feats,
        treatment=rng.integers(0, 2, size=n).astype(np.int64),
        outcome=rng.integers(0, 2, size=n).astype(np.int64),
    )
    ds.validate()
    return ds


# --- schema and dataset validation ---


def test_schema_rejects_duplicate_names():
    with pytest.raises(SchemaError):
        FeatureSchema(columns=(Column("a", "numeric"), Column("a", "numeric")))


def test_schema_index_arrays_are_cached_read_only_and_outside_equality():
    cols = (Column("x", "numeric"), Column("c", "categorical", cardinality=3), Column("y", "numeric"))
    schema = FeatureSchema(cols)
    assert schema.numeric_indices is schema.numeric_indices
    assert schema.numeric_indices.tolist() == [0, 2]
    assert schema.categorical_indices.tolist() == [1]
    with pytest.raises(ValueError):
        schema.numeric_indices[0] = 1
    fresh = FeatureSchema(cols)
    assert fresh == schema and hash(fresh) == hash(schema)


def test_schema_document_missing_key_is_a_parse_error():
    with pytest.raises(ParseError, match="'kind'"):
        FeatureSchema.from_jsonable([{"name": "x"}])


@pytest.mark.parametrize(
    "key, value, named",
    [
        ("cardinality", 2.5, "cardinality 2.5 is not an integer"),
        ("cardinality", True, "cardinality True is not an integer"),
        ("categories", "abc", "categories 'abc' is not a list of strings"),
        ("categories", ["a", 1], r"categories \['a', 1\] is not a list of strings"),
        ("name", 3, "name 3 is not a string"),
    ],
)
def test_schema_document_value_of_the_wrong_type_is_rejected(tmp_path, key, value, named):
    # checked, not converted: int(2.5) would load as 2 and tuple("abc") as ("a", "b", "c")
    doc = make_schema(n_numeric=1, n_categorical=1).to_jsonable()
    doc[1][key] = value
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ParseError, match=f"^{path}: schema has a malformed value .*{named}"):
        load_document(str(path), FeatureSchema.from_jsonable)


def test_schema_document_with_a_cardinality_above_2_53_names_the_column(tmp_path):
    # a float64 cell holds every code of 2**53 categories exactly, but not more
    doc = make_schema(n_numeric=1, n_categorical=1).to_jsonable()
    doc[1]["cardinality"] = 2**53
    assert FeatureSchema.from_jsonable(doc).cardinalities.tolist() == [2**53]
    for card in (2**53 + 1, 10**400):
        doc[1]["cardinality"] = card
        path = tmp_path / "schema.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        named = f"column 'c0': cardinality {card} exceeds 2**53"
        with pytest.raises(SchemaError, match=f"^{re.escape(f'{path}: {named}')}$"):
            load_document(str(path), FeatureSchema.from_jsonable)


def test_schema_rejects_bad_cardinality():
    with pytest.raises(SchemaError):
        Column("c", "categorical", cardinality=1)
    with pytest.raises(SchemaError):
        Column("f", "numeric", cardinality=3)


@pytest.mark.parametrize("code, text", [(7.0, "7.0"), (-1.0, "-1.0"), (1.5, "1.5")])
def test_bad_categorical_code_message_prints_a_plain_float(code, text):
    # under numpy 2 a repr of the array element would read np.float64(7.0)
    schema = make_schema(n_numeric=1, n_categorical=1)
    X = np.array([[0.5, 0.0], [0.5, 2.0], [0.5, 1.0], [0.5, code]])
    want = f"code {text} in categorical column 'c0' at row 3 is not an integer in [0, 3)"
    with pytest.raises(DomainError, match=f"^{re.escape(want)}$"):
        categorical_codes(schema, X)


def test_validate_catches_bad_treatment():
    ds = make_dataset(20)
    ds.treatment[3] = 2
    with pytest.raises(DomainError):
        ds.validate()


def test_validate_catches_code_out_of_range():
    ds = make_dataset(20, n_categorical=1)
    ds.features[0, 2] = 7.0
    with pytest.raises(DomainError):
        ds.validate()


def test_validate_catches_nonfinite_feature():
    ds = make_dataset(20)
    ds.features[5, 0] = np.nan
    with pytest.raises(DomainError):
        ds.validate()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("code", [1e300, -1e300, 2.0**70])
def test_code_beyond_int64_is_rejected_without_a_cast_warning(code):
    # the range is checked in float, so numpy never casts such a cell to int64
    schema = make_schema(n_numeric=1, n_categorical=1)
    X = np.array([[0.5, 0.0], [0.5, 2.0], [0.5, code], [0.5, 1.0]])
    want = f"code {code!r} in categorical column 'c0' at row 2 is not an integer in [0, 3)"
    with pytest.raises(DomainError, match=f"^{re.escape(want)}$"):
        categorical_codes(schema, X)


def test_schema_rejects_an_empty_category_label():
    # an empty CSV cell is a missing value, so no file could hold the label
    with pytest.raises(SchemaError, match="^column 'c': empty category label$"):
        Column("c", "categorical", 3, ("a", ""))


# --- synthetic generator ---


def test_gen_synthetic_deterministic():
    cfg = SyntheticConfig(n=500, d_numeric=3, d_categorical=1, base_rate=0.2, noise_features=0, seed=11)
    a, tau_a = gen_synthetic(cfg)
    b, tau_b = gen_synthetic(cfg)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.treatment, b.treatment)
    assert np.array_equal(a.outcome, b.outcome)
    assert np.array_equal(tau_a, tau_b)


def test_gen_synthetic_zero_effect_mean_difference():
    # zero effect: arm outcome rates agree within 3 binomial sigmas
    cfg = SyntheticConfig(
        n=50_000,
        d_numeric=2,
        d_categorical=0,
        base_rate=0.1,
        effect_function="zero",
        noise_features=0,
        seed=5,
    )
    ds, tau = gen_synthetic(cfg)
    assert np.all(tau == 0.0)
    rate_t = ds.outcome[ds.treatment == 1].mean()
    rate_c = ds.outcome[ds.treatment == 0].mean()
    bound = 3 * np.sqrt(2 * 0.1 * 0.9 / (cfg.n / 2))
    assert abs(rate_t - rate_c) < bound


def test_gen_synthetic_piecewise_subgroup_cate():
    # empirical CATE in the f0 > 0.5 subgroup matches the planted +0.1
    cfg = SyntheticConfig(
        n=100_000,
        d_numeric=2,
        d_categorical=0,
        base_rate=0.1,
        effect_function="piecewise-on-two-features",
        noise_features=0,
        seed=3,
    )
    ds, tau = gen_synthetic(cfg)
    sub = ds.features[:, 0] > 0.5
    t = ds.treatment == 1
    emp = ds.outcome[sub & t].mean() - ds.outcome[sub & ~t].mean()
    assert abs(emp - 0.1) < 0.01
    assert np.all(tau[sub] == 0.1)


def test_gen_synthetic_treatment_independent_of_features():
    cfg = SyntheticConfig(n=20_000, d_numeric=4, d_categorical=0, base_rate=0.2, noise_features=0, seed=9)
    ds, _ = gen_synthetic(cfg)
    t = ds.treatment - ds.treatment.mean()
    for j in range(4):
        f = ds.features[:, j] - ds.features[:, j].mean()
        r = (t * f).mean() / (t.std() * f.std())
        assert abs(r) < 4 / np.sqrt(cfg.n)


def test_gen_synthetic_rejects_impossible_probability():
    with pytest.raises(DomainError):
        SyntheticConfig(
            n=100, d_numeric=2, base_rate=0.95, effect_function="piecewise-on-two-features", seed=0
        )


@pytest.mark.parametrize(
    "name, rows, tau",
    [
        ("zero", [[0.9, 0.9], [0.1, 0.2]], [0.0, 0.0]),
        (
            "piecewise-on-two-features",
            [[0.9, 0.1], [0.9, 0.9], [0.2, 0.7], [0.2, 0.3], [0.5, 0.5]],
            [0.1, 0.1, 0.05, 0.0, 0.0],
        ),
        # 0.4 * (f0 - 0.5) + 0.2 * (f1 - 0.5), clipped to [-0.1, 0.1]
        (
            "linear-clipped",
            [[0.9, 0.9], [0.5, 0.75], [0.5, 0.5], [0.25, 0.5], [0.1, 0.1]],
            [0.1, 0.05, 0.0, -0.1, -0.1],
        ),
    ],
)
def test_effect_shape_per_row_tau_at_hand_computed_points(name, rows, tau):
    (lo, hi), effect = EFFECTS[name]
    assert effect(np.array(rows)).tolist() == pytest.approx(tau, abs=1e-15)
    assert lo == min(tau) and hi == max(tau)  # each range is attained


@pytest.mark.parametrize("name", ["piecewise-on-two-features", "linear-clipped"])
def test_gen_synthetic_tau_is_the_scaled_shape_of_its_features(name):
    cfg = SyntheticConfig(
        n=2_000, d_numeric=2, base_rate=0.3, effect_function=name, effect_scale=1.5, seed=4
    )
    ds, tau = gen_synthetic(cfg)
    assert np.array_equal(tau, 1.5 * EFFECTS[name][1](ds.features))
    assert np.unique(tau).size > 1


def test_zero_effect_needs_no_numeric_column():
    cfg = SyntheticConfig(
        n=50, d_numeric=0, d_categorical=1, effect_function="zero", noise_features=0
    )
    ds, tau = gen_synthetic(cfg)
    assert ds.schema.numeric_indices.size == 0
    assert tau.tolist() == [0.0] * 50


def test_unknown_effect_function_lists_the_shapes():
    message = (
        "unknown effect_function 'cubic'; "
        "expected one of ('zero', 'piecewise-on-two-features', 'linear-clipped')"
    )
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        SyntheticConfig(effect_function="cubic")


@pytest.mark.parametrize("scale", [math.nan, math.inf, -0.5])
def test_synthetic_config_needs_a_finite_effect_scale(scale):
    with pytest.raises(DomainError, match=r"^effect_scale=.* must be finite and >= 0$"):
        SyntheticConfig(effect_scale=scale)


def test_gen_synthetic_outcome_rate_tracks_config():
    cfg = SyntheticConfig(
        n=50_000, d_numeric=2, d_categorical=0, base_rate=0.03, noise_features=0, seed=21
    )
    ds, _ = gen_synthetic(cfg)
    control_rate = ds.outcome[ds.treatment == 0].mean()
    assert abs(control_rate - 0.03) < 0.005


# --- splitting ---


def balanced_dataset(n=100):
    # n/4 rows in each (t, y) stratum so ratios divide exactly
    schema = make_schema(1)
    rng = np.random.default_rng(0)
    feats = rng.uniform(size=(n, 1))
    t = np.array([0, 0, 1, 1] * (n // 4), dtype=np.int64)
    y = np.array([0, 1, 0, 1] * (n // 4), dtype=np.int64)
    return Dataset(schema=schema, features=feats, treatment=t, outcome=y)


def test_split_sizes_exact_on_balanced_strata():
    ds = balanced_dataset(100)
    split = split_dataset(ds, SplitRatios(0.6, 0.2, 0.2), seed=7)
    assert split.train.n == 60
    assert split.valid.n == 20
    assert split.test.n == 20


def test_split_partitions_rows_exactly():
    ds = make_dataset(173, seed=4)
    split = split_dataset(ds, SplitRatios(0.6, 0.2, 0.2), seed=7)
    all_idx = np.concatenate(
        [split.indices["train"], split.indices["valid"], split.indices["test"]]
    )
    assert sorted(all_idx.tolist()) == list(range(173))


def test_split_deterministic_and_seed_sensitive():
    ds = make_dataset(100, seed=1)
    a = split_dataset(ds, SplitRatios(0.6, 0.2, 0.2), seed=7)
    b = split_dataset(ds, SplitRatios(0.6, 0.2, 0.2), seed=7)
    c = split_dataset(ds, SplitRatios(0.6, 0.2, 0.2), seed=8)
    assert np.array_equal(a.indices["train"], b.indices["train"])
    assert not np.array_equal(a.indices["train"], c.indices["train"])


def test_split_stratifies_on_treatment_and_outcome():
    ds = balanced_dataset(100)
    split = split_dataset(ds, SplitRatios(0.6, 0.2, 0.2), seed=3)
    for part, frac in ((split.train, 0.6), (split.valid, 0.2), (split.test, 0.2)):
        for t in (0, 1):
            for y in (0, 1):
                k = ((part.treatment == t) & (part.outcome == y)).sum()
                assert k == int(round(25 * frac))


def test_split_empty_stratum_warns_not_errors():
    ds = make_dataset(80, seed=2)
    ds.outcome[:] = 0  # no positives anywhere
    split = split_dataset(ds, SplitRatios(0.6, 0.2, 0.2), seed=1)
    assert split.warnings
    assert split.train.n + split.valid.n + split.test.n == 80


def test_split_rejects_tiny_dataset():
    ds = make_dataset(9, seed=0)
    with pytest.raises(DomainError):
        split_dataset(ds, SplitRatios(0.6, 0.2, 0.2), seed=0)


def test_split_ratios_validation():
    with pytest.raises(DomainError):
        SplitRatios(0.5, 0.2, 0.2)
    with pytest.raises(DomainError):
        SplitRatios(1.0, 0.0, 0.0)


# --- csv round trip ---


def test_csv_round_trip_bit_exact(tmp_path):
    ds = make_dataset(60, seed=8, n_numeric=2, n_categorical=1)
    path = tmp_path / "ds.csv"
    save_csv(ds, str(path))
    back = load_csv(str(path), ds.schema)
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.treatment, ds.treatment)
    assert np.array_equal(back.outcome, ds.outcome)


def test_csv_first_appearance_categorical_coding(tmp_path):
    path = tmp_path / "raw.csv"
    path.write_text("f0,c0,treatment,outcome\n1.0,a,1,1\n2.0,b,0,0\n3.0,a,1,0\n")
    schema = FeatureSchema(
        columns=(Column("f0", "numeric"), Column("c0", "categorical", cardinality=2))
    )
    ds = load_csv(str(path), schema)
    assert ds.n == 3
    assert ds.features[:, 1].tolist() == [0.0, 1.0, 0.0]
    assert ds.treatment.tolist() == [1, 0, 1]
    assert ds.outcome.tolist() == [1, 0, 0]
    # the discovered dictionary is pinned, so a re-save keeps the labels
    assert ds.schema.columns[1].categories == ("a", "b")
    out = tmp_path / "resaved.csv"
    save_csv(ds, str(out))
    back = load_csv(str(out), ds.schema)
    assert np.array_equal(back.features, ds.features)


def test_csv_pinned_categories_reject_unknown_label(tmp_path):
    path = tmp_path / "raw.csv"
    path.write_text("c0,treatment,outcome\nz,1,1\n")
    schema = FeatureSchema(
        columns=(Column("c0", "categorical", cardinality=2, categories=("a", "b")),)
    )
    with pytest.raises(DomainError):
        load_csv(str(path), schema)


def test_csv_rejects_bad_treatment(tmp_path):
    path = tmp_path / "raw.csv"
    path.write_text("f0,treatment,outcome\n1.0,2,0\n")
    schema = FeatureSchema(columns=(Column("f0", "numeric"),))
    with pytest.raises(DomainError) as exc:
        load_csv(str(path), schema)
    assert "treatment" in str(exc.value)


def test_csv_rejects_missing_column(tmp_path):
    path = tmp_path / "raw.csv"
    path.write_text("f0,outcome\n1.0,0\n")
    schema = FeatureSchema(columns=(Column("f0", "numeric"),))
    with pytest.raises(SchemaError) as exc:
        load_csv(str(path), schema)
    assert "treatment" in str(exc.value)


def test_csv_parse_error_names_row_and_column(tmp_path):
    path = tmp_path / "raw.csv"
    path.write_text("f0,treatment,outcome\n1.0,1,1\nnot_a_number,0,0\n")
    schema = FeatureSchema(columns=(Column("f0", "numeric"),))
    with pytest.raises(ParseError) as exc:
        load_csv(str(path), schema)
    msg = str(exc.value)
    assert "f0" in msg
    assert "3" in msg  # 1-based file line of the bad cell


def test_csv_rejects_unknown_category_overflow(tmp_path):
    path = tmp_path / "raw.csv"
    path.write_text("c0,treatment,outcome\na,1,1\nb,0,0\nc,1,0\n")
    schema = FeatureSchema(columns=(Column("c0", "categorical", cardinality=2),))
    with pytest.raises(DomainError):
        load_csv(str(path), schema)


def test_csv_rejects_duplicate_header_name(tmp_path):
    path = tmp_path / "raw.csv"
    path.write_text("f0,f0,treatment,outcome\n1.0,2.0,1,1\n")
    schema = FeatureSchema(columns=(Column("f0", "numeric"),))
    with pytest.raises(SchemaError, match="'f0'"):
        load_csv(str(path), schema)


def test_schema_rejects_the_csv_bit_column_names(tmp_path):
    # save_csv writes both after the features, so a feature of either name
    # would repeat in the header and the file would not load back
    for name in ("treatment", "outcome"):
        with pytest.raises(SchemaError, match=f"^column name '{name}' is reserved"):
            FeatureSchema(columns=(Column("f0", "numeric"), Column(name, "numeric")))
        path = tmp_path / "schema.json"
        path.write_text(json.dumps([{"name": name, "kind": "numeric"}]), encoding="utf-8")
        with pytest.raises(SchemaError, match=f"^{re.escape(str(path))}: column name '{name}'"):
            load_document(str(path), FeatureSchema.from_jsonable)


@pytest.mark.parametrize("line", [6, 3000])
def test_csv_that_is_not_utf8_names_the_line_of_its_first_bad_byte(tmp_path, line):
    # line 3000 lies past the reader's first decoded chunk, so the header
    # reads and the error comes from a block
    path = tmp_path / "raw.csv"
    rows = [b"0.5,1,0\n"] * (line - 2) + [b"0.\xe9,0,1\n", b"0.5,1,0\n"]
    path.write_bytes(b"f0,treatment,outcome\n" + b"".join(rows))
    schema = FeatureSchema(columns=(Column("f0", "numeric"),))
    named = f"{path}: line {line}: not UTF-8 text (invalid continuation byte)"
    with pytest.raises(ParseError, match=f"^{re.escape(named)}$"):
        load_csv(str(path), schema)


# --- blocked csv against the row-by-row oracle ---

B = CSV_BLOCK_ROWS
# empty, one row, and both sides of one and two block boundaries
SIZES = (0, 1, B - 1, B + 1, 2 * B + 3)
# deterministic examples, and no example database written to the working tree
PROPERTY = settings(max_examples=15, deadline=None, derandomize=True, database=None)

floats = (
    st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([5e-324, -5e-324, 1e-310, 1e308, -1e308, -0.0, 0.0])
    | st.integers(-(10**6), 10**6).map(float)
)
# any text but surrogates, which UTF-8 cannot encode; CSV-special characters,
# leading spaces and non-ASCII text are drawn often
labels = st.text(
    st.characters(blacklist_categories=("Cs",)) | st.sampled_from([",", '"', "\n", "\r", " ", "é", "語"]),
    min_size=1,
    max_size=6,
)


@st.composite
def datasets(draw):
    """A dataset with pinned categorical labels, built from small drawn
    pools of values, so large row counts stay cheap to generate."""
    n = draw(st.sampled_from(SIZES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cols, feats = [], []
    for j in range(draw(st.integers(0, 2))):
        cols.append(Column(f"x{j}", "numeric"))
        feats.append(rng.choice(np.array(draw(st.lists(floats, min_size=1, max_size=12))), n))
    for j in range(draw(st.integers(0, 2))):
        cats = tuple(draw(st.lists(labels, min_size=2, max_size=5, unique=True)))
        cols.append(Column(f"c{j}", "categorical", len(cats) + draw(st.integers(0, 1)), cats))
        feats.append(rng.integers(0, len(cats), n).astype(np.float64))
    ds = Dataset(
        schema=FeatureSchema(tuple(cols)),
        features=np.column_stack(feats) if feats else np.zeros((n, 0)),
        treatment=rng.integers(0, 2, n),
        outcome=rng.integers(0, 2, n),
    )
    ds.validate()
    return ds


def unpinned(schema):
    return FeatureSchema(tuple(Column(c.name, c.kind, c.cardinality) for c in schema.columns))


def assert_bitwise_equal(a, b):
    assert a.schema == b.schema
    for x, y in ((a.features, b.features), (a.treatment, b.treatment), (a.outcome, b.outcome)):
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def read_like_oracle(path, schema):
    """load_csv and the oracle on one file: both raise the same error or
    both return bitwise-equal datasets; returns the dataset or None."""
    try:
        expected = oracles.load_csv(path, schema)
    except KdsmError as e:
        with pytest.raises(type(e)) as got:
            load_csv(path, schema)
        assert str(got.value) == str(e)
        return None
    ds = load_csv(path, schema)
    assert_bitwise_equal(ds, expected)
    return ds


@PROPERTY
@given(datasets())
def test_csv_save_and_load_match_the_row_oracle(tmp_path_factory, ds):
    d = tmp_path_factory.mktemp("csv")
    path, expected = str(d / "new.csv"), str(d / "oracle.csv")
    save_csv(ds, path)
    oracles.save_csv(ds, expected)
    with open(path, "rb") as a, open(expected, "rb") as b:
        assert a.read() == b.read()
    # a pinned load reads the sidecar, not the file, and gets what the parse gets
    with mock.patch.object(data_module, "_convert_columns", side_effect=AssertionError("parsed")):
        stored = load_csv(path, ds.schema)
    os.remove(path + SIDECAR_SUFFIX)
    assert_bitwise_equal(stored, load_csv(path, ds.schema))
    # pinned columns round-trip exactly
    assert_bitwise_equal(read_like_oracle(path, ds.schema), ds)
    # unpinned columns are coded by first appearance, as the oracle codes them
    assert read_like_oracle(path, unpinned(ds.schema)) is not None


BAD_NUMBERS = ["", "not_a_number", "inf", "-inf", "nan", "1e400", " 1.5 ", "1_0", "0x10"]
# "99999999999999999999" overflows int64; "-0" loads as 0
BAD_BITS = ["", "2", "-1", " 1", "1 ", "01", "+1", "0_0", "１", "yes", "1.0", "99999999999999999999", "-0"]


@st.composite
def raw_csvs(draw):
    """A schema, a CSV file's header and cells as text, and a block size.
    The cells are clean values plus a few drawn defects (odd numbers and
    bits, unknown or empty labels, ragged rows) at drawn rows. The header
    lists two numeric and two categorical columns and the bits in a drawn
    order. A small block size comes with a row count of a few blocks, so
    labels are coded across blocks and a bad cell in a later column can come
    before one in an earlier column of the same block."""
    block = draw(st.sampled_from([1, 2, 3, 8, B]))
    sizes = SIZES[1:] if block == B else (1, block + 1, 2 * block + 3, 9 * block + 2)
    n = draw(st.sampled_from(sizes))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cols, values = [], {}
    for j in range(2):
        cols.append(Column(f"x{j}", "numeric"))
        values[f"x{j}"] = [repr(float(v)) for v in rng.standard_normal(n)]
    for j in range(2):
        cats = draw(st.lists(labels, min_size=2, max_size=4, unique=True))
        pinned = draw(st.booleans())
        # unpinned, the cardinality may leave no room for every label
        card = len(cats) if pinned else max(2, len(cats) + draw(st.integers(-1, 1)))
        cols.append(Column(f"c{j}", "categorical", card, tuple(cats) if pinned else ()))
        values[f"c{j}"] = [cats[c] for c in rng.integers(0, len(cats), n)]
    for name in ("treatment", "outcome"):
        values[name] = [str(b) for b in rng.integers(0, 2, n)]
    header = draw(st.permutations(list(values)))
    rows = [list(cells) for cells in zip(*(values[name] for name in header))]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, n - 1))
        j = draw(st.integers(0, len(header)))
        if j == len(header):
            rows[i] = rows[i] + ["extra"] if draw(st.booleans()) else rows[i][:-1]
        elif j >= len(rows[i]):
            continue  # that cell was cut off by an earlier defect
        elif header[j][0] == "x":
            rows[i][j] = draw(st.sampled_from(BAD_NUMBERS))
        elif header[j][0] == "c":
            rows[i][j] = draw(st.just("") | labels)
        else:
            rows[i][j] = draw(st.sampled_from(BAD_BITS))
    return FeatureSchema(tuple(cols)), header, rows, block


@PROPERTY
@given(raw_csvs())
def test_csv_load_matches_the_row_oracle_on_raw_text(tmp_path_factory, case):
    schema, header, rows, block = case
    path = str(tmp_path_factory.mktemp("raw") / "raw.csv")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data_module, "CSV_BLOCK_ROWS", block)
        read_like_oracle(path, schema)


def two_block_rows(defect):
    """2B+3 valid rows whose first block uses labels a and b and whose
    second block brings in c at B+2; `defect` edits row B+5."""
    rng = np.random.default_rng(11)
    rows = [
        [repr(float(v)), "ab"[i % 2], str(i % 2), str((i // 2) % 2)]
        for i, v in enumerate(rng.standard_normal(2 * B + 3))
    ]
    rows[B + 2][1] = "c"
    defect(rows[B + 5])
    return rows


def write_rows(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x0", "c0", "treatment", "outcome"])
        writer.writerows(rows)


def set_cell(j, value):
    def edit(row):
        row[j] = value

    return edit


UNPINNED_3 = FeatureSchema((Column("x0", "numeric"), Column("c0", "categorical", 3)))
UNPINNED_4 = FeatureSchema((Column("x0", "numeric"), Column("c0", "categorical", 4)))
PINNED_3 = FeatureSchema((Column("x0", "numeric"), Column("c0", "categorical", 3, ("a", "b", "c"))))


@pytest.mark.parametrize(
    "defect, schema, error",
    [
        (lambda row: row.append("extra"), UNPINNED_3, ParseError),
        (set_cell(0, ""), UNPINNED_3, ParseError),
        (set_cell(1, ""), UNPINNED_4, ParseError),  # room for one more label, but empty is missing
        (set_cell(0, "not_a_number"), UNPINNED_3, ParseError),
        (set_cell(0, "inf"), UNPINNED_3, DomainError),
        (set_cell(1, "zz"), PINNED_3, DomainError),
        (set_cell(1, "d"), UNPINNED_3, DomainError),  # a fourth label, first seen in block 2
        (set_cell(2, "2"), UNPINNED_3, DomainError),
        (set_cell(2, "99999999999999999999"), UNPINNED_3, DomainError),  # overflows int64
    ],
    ids=[
        "ragged", "empty", "empty_label", "not_a_number", "inf", "unknown_pinned", "overflow",
        "treatment_2", "treatment_int64_overflow",
    ],
)
def test_csv_error_in_second_block_matches_the_row_oracle(tmp_path, defect, schema, error):
    path = str(tmp_path / "raw.csv")
    write_rows(path, two_block_rows(defect))
    with pytest.raises(error) as expected:
        oracles.load_csv(path, schema)
    assert f"line {B + 7}" in str(expected.value)  # the header is line 1
    with pytest.raises(error) as got:
        load_csv(path, schema)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("spelling", [" 1", "01"])
def test_csv_lenient_treatment_spelling_loads_as_the_row_oracle(tmp_path, spelling):
    path = str(tmp_path / "raw.csv")
    write_rows(path, two_block_rows(set_cell(2, spelling)))
    for schema in (UNPINNED_3, PINNED_3):
        ds = load_csv(path, schema)
        assert_bitwise_equal(ds, oracles.load_csv(path, schema))
        assert ds.treatment[B + 5] == 1
    assert load_csv(path, UNPINNED_3).schema.columns[1].categories == ("a", "b", "c")


class _FullDisk:
    """A file whose writes fail once `room` of them have succeeded; before
    failing it records what the file holds."""

    def __init__(self, fh, room):
        self.fh, self.room, self.held = fh, room, None

    def write(self, text):
        if self.room == 0:
            self.fh.flush()
            with open(self.fh.name, encoding="utf-8", newline="") as f:
                self.held = f.read()
            raise OSError(errno.ENOSPC, "No space left on device")
        self.room -= 1
        return self.fh.write(text)


def test_failed_csv_write_keeps_the_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "ds.csv"
    path.write_text("previous\n", encoding="utf-8")
    ds = make_dataset(2 * B + 3, n_numeric=1, n_categorical=1)
    disks = []

    @contextlib.contextmanager
    def full_after_first_block(*args, **kwargs):
        with atomic_write(*args, **kwargs) as fh:
            disks.append(_FullDisk(fh, room=2))  # the header, then the first block
            yield disks[-1]

    monkeypatch.setattr(data_module, "atomic_write", full_after_first_block)
    with pytest.raises(OSError):
        save_csv(ds, str(path))
    assert disks[0].held.count("\r\n") == 1 + B  # the writer failed after its first block
    assert path.read_text(encoding="utf-8") == "previous\n"
    assert os.listdir(tmp_path) == ["ds.csv"]


def test_failed_sidecar_write_leaves_no_sidecar(tmp_path, monkeypatch):
    path = tmp_path / "ds.csv"

    def fail(*args, **kwargs):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(np, "save", fail)
    with pytest.raises(OSError):
        save_csv(make_dataset(10, n_categorical=1), str(path))
    assert os.listdir(tmp_path) == ["ds.csv"]


@pytest.mark.parametrize("defect", ["nan", "treatment"])
def test_save_csv_validates_before_writing(tmp_path, defect):
    path = tmp_path / "ds.csv"
    path.write_text("previous\n", encoding="utf-8")
    ds = make_dataset(10, n_categorical=1)
    if defect == "nan":
        ds.features[4, 0] = np.nan
    else:
        ds.treatment[4] = 2
    with pytest.raises(DomainError) as validated:
        ds.validate()
    with pytest.raises(DomainError, match=f"^{re.escape(str(validated.value))}$"):
        save_csv(ds, str(path))
    assert path.read_text(encoding="utf-8") == "previous\n"
    assert os.listdir(tmp_path) == ["ds.csv"]


# --- array sidecar ---


def saved(tmp_path, ds):
    path = str(tmp_path / "ds.csv")
    save_csv(ds, path)
    return path


def parses(path, schema):
    """load_csv of the file at `path` and whether it parsed the file."""
    with mock.patch.object(data_module, "_convert_columns", wraps=data_module._convert_columns) as spy:
        ds = load_csv(path, schema)
    return ds, spy.called


def test_sidecar_is_written_only_when_every_categorical_column_pins_its_labels(tmp_path):
    ds = make_dataset(20, n_categorical=1)
    path = saved(tmp_path, ds)
    assert sorted(os.listdir(tmp_path)) == ["ds.csv", "ds.csv" + SIDECAR_SUFFIX]
    loaded, parsed = parses(path, ds.schema)
    assert not parsed
    assert_bitwise_equal(loaded, ds)
    os.remove(path + SIDECAR_SUFFIX)
    ds.schema = unpinned(ds.schema)
    saved(tmp_path, ds)
    assert os.listdir(tmp_path) == ["ds.csv"]


def test_csv_edited_beside_its_sidecar_loads_the_edited_value(tmp_path):
    ds = make_dataset(20)
    path = saved(tmp_path, ds)
    with open(path, "rb") as fh:
        text = fh.read().decode()
    cell = text.split("\r\n")[1].split(",")[0]
    edited = cell[:-1] + str((int(cell[-1]) + 1) % 10)  # one digit, same length
    with open(path, "wb") as fh:
        fh.write(text.replace(cell, edited, 1).encode())
    loaded, parsed = parses(path, ds.schema)
    assert parsed and loaded.features[0, 0] == float(edited) != ds.features[0, 0]


def test_unpinned_schema_codes_labels_by_first_appearance_beside_a_sidecar(tmp_path):
    schema = FeatureSchema((Column("c0", "categorical", 3, ("x", "y", "z")),))
    codes = np.array([[2.0], [0.0], [2.0], [1.0]])
    ds = Dataset(schema, codes, np.array([0, 1, 0, 1]), np.array([1, 1, 0, 0]))
    path = saved(tmp_path, ds)
    loaded, parsed = parses(path, unpinned(schema))
    assert parsed
    assert loaded.features[:, 0].tolist() == [0.0, 1.0, 0.0, 2.0]
    assert loaded.schema.columns[0].categories == ("z", "x", "y")


def _npy(*arrays):
    buf = io.BytesIO()
    for a in arrays:
        np.save(buf, a)
    return buf.getvalue()


SPOILED_SIDECARS = {
    "garbage": lambda key, ds: b"not an array sidecar",
    "empty": lambda key, ds: b"",
    "key-only": lambda key, ds: key,
    "truncated": lambda key, ds: (key + _npy(ds.features, ds.treatment, ds.outcome))[:-8],
    "other-key": lambda key, ds: bytes(32) + _npy(ds.features, ds.treatment, ds.outcome),
    "a-column-short": lambda key, ds: key + _npy(ds.features[:, 1:], ds.treatment, ds.outcome),
    "a-row-short": lambda key, ds: key + _npy(ds.features, ds.treatment[1:], ds.outcome),
    "float32-features": lambda key, ds: key + _npy(ds.features.astype(np.float32), ds.treatment, ds.outcome),
    "int32-bits": lambda key, ds: key + _npy(ds.features, ds.treatment.astype(np.int32), ds.outcome),
    "a-bit-of-2": lambda key, ds: key + _npy(ds.features, 2 * ds.treatment, ds.outcome),
    "pickled": lambda key, ds: key + _npy(ds.features.astype(object), ds.treatment, ds.outcome),
}


@pytest.mark.parametrize("spoil", sorted(SPOILED_SIDECARS))
def test_spoiled_sidecar_falls_back_to_the_parse(tmp_path, spoil):
    ds = make_dataset(20, n_categorical=1)
    path = saved(tmp_path, ds)
    with open(path + SIDECAR_SUFFIX, "rb") as fh:
        key = fh.read(32)
    with open(path + SIDECAR_SUFFIX, "wb") as fh:
        fh.write(SPOILED_SIDECARS[spoil](key, ds))
    loaded, parsed = parses(path, ds.schema)
    assert parsed
    assert_bitwise_equal(loaded, ds)


@pytest.mark.parametrize("code", [-1.0, 1.7, 7.0, 2.0])
def test_save_csv_rejects_a_cell_that_is_not_a_code(tmp_path, code):
    path = tmp_path / "ds.csv"
    path.write_text("previous\n", encoding="utf-8")
    ds = make_dataset(10, n_numeric=1, n_categorical=1)
    # code 2 lies inside the cardinality, 3, but past the two pinned labels
    ds.schema = FeatureSchema((ds.schema.columns[0], Column("c0", "categorical", 3, ("a", "b"))))
    ds.features[:, 1] = np.minimum(ds.features[:, 1], 1.0)
    ds.features[4, 1] = code
    with pytest.raises(DomainError, match=r"column 'c0' at row 4"):
        save_csv(ds, str(path))
    assert path.read_text(encoding="utf-8") == "previous\n"
    assert os.listdir(tmp_path) == ["ds.csv"]


def test_atomic_write_replaces_only_on_success(tmp_path):
    path = str(tmp_path / "a.txt")
    with atomic_write(path) as fh:
        fh.write("one\n")
    with pytest.raises(RuntimeError):
        with atomic_write(path) as fh:
            fh.write("two\n")
            fh.flush()
            raise RuntimeError("writer failed halfway")
    with open(path, encoding="utf-8") as fh:
        assert fh.read() == "one\n"
    assert os.listdir(tmp_path) == ["a.txt"]


# --- CSV text from values alone, and split files copied from a source CSV ---


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def whole_numbers(ds):
    """`ds` with its numeric columns rounded to whole numbers."""
    ds.features[:, :2] = np.rint(ds.features[:, :2] * 9)
    return ds


def test_save_csv_formats_an_integer_matrix_as_its_float64_values(tmp_path):
    floats = whole_numbers(make_dataset(30, n_categorical=1))
    ints = Dataset(floats.schema, floats.features.astype(np.int64), floats.treatment, floats.outcome)
    a, b = str(tmp_path / "int.csv"), str(tmp_path / "float.csv")
    save_csv(ints, a)
    save_csv(floats, b)
    assert read(a) == read(b)
    assert read(a + SIDECAR_SUFFIX) == read(b + SIDECAR_SUFFIX)
    assert read(a).split(b"\r\n")[1].split(b",")[0] == repr(float(floats.features[0, 0])).encode()


SPLITS = ("train", "valid", "test")


def split_paths(tmp_path):
    return [str(tmp_path / "out" / f"{name}.csv") for name in SPLITS]


def splits_csv(tmp_path, source, schema):
    """split_csv of `source` into tmp_path/out, and whether it went through
    save_csv."""
    with mock.patch.object(data_module, "save_csv", wraps=save_csv) as spy:
        split = split_csv(source, schema, SplitRatios(0.6, 0.2, 0.2), 7, split_paths(tmp_path))
    return split, spy.called


def assert_saved_as_each_split(tmp_path, ds, split):
    """`split` is split_dataset's of `ds`; each split's file holds the row
    oracle's CSV of its rows, and its sidecar is the one save_csv writes
    beside them."""
    want = split_dataset(ds, SplitRatios(0.6, 0.2, 0.2), 7)
    expected = str(tmp_path / "expected.csv")
    for name, path in zip(SPLITS, split_paths(tmp_path)):
        assert_bitwise_equal(getattr(split, name), getattr(want, name))
        oracles.save_csv(getattr(want, name), expected)
        assert read(path) == read(expected)
        save_csv(getattr(want, name), expected)
        assert read(path + SIDECAR_SUFFIX) == read(expected + SIDECAR_SUFFIX)


@pytest.mark.parametrize("again", [False, True])
@pytest.mark.parametrize("extra", [0, 1, 2 * B + 3])
def test_save_csv_rows_copies_the_lines_of_a_source_its_sidecar_matches(tmp_path, extra, again):
    """The line copy save_csv_rows made, now split_csv's, of 10 + `extra`
    rows: the fewest split_dataset takes, one more, and three blocks. With
    `again`, the paths already hold another split's files and sidecars."""
    ds = make_dataset(10 + extra, n_categorical=2)
    source = saved(tmp_path, ds)
    if again:
        split_csv(source, ds.schema, SplitRatios(0.6, 0.2, 0.2), 8, split_paths(tmp_path))
    split, formatted = splits_csv(tmp_path, source, ds.schema)
    assert not formatted
    assert_saved_as_each_split(tmp_path, ds, split)


def test_split_csv_copies_csv_quoted_labels(tmp_path):
    ds = make_dataset(2 * B + 3, n_categorical=1)
    ds.schema = FeatureSchema((*ds.schema.columns[:2], Column("c0", "categorical", 3, ("a,b", 'say "hi"', "é語"))))
    split, formatted = splits_csv(tmp_path, saved(tmp_path, ds), ds.schema)
    assert not formatted
    assert_saved_as_each_split(tmp_path, ds, split)


def _stale(ds, source):
    text = read(source)
    with open(source, "wb") as fh:  # one digit edited, the sidecar left as it was
        fh.write(text.replace(b"0.", b"1.", 1))


def _no_sidecar(ds, source):
    os.remove(source + SIDECAR_SUFFIX)


def _labelled(ds, source):
    ds.schema = FeatureSchema((*ds.schema.columns[:2], Column("c0", "categorical", 3, ("a\r\nb", "c\nd", "e\rf"))))
    save_csv(ds, source)


def _column_name_with_a_line_break(ds, source):
    ds.schema = FeatureSchema((Column("x\n0", "numeric"), *ds.schema.columns[1:]))
    save_csv(ds, source)


@pytest.mark.parametrize("spoil", [_no_sidecar, _stale, _labelled, _column_name_with_a_line_break])
def test_split_csv_formats_each_split_unless_the_source_holds_its_lines(tmp_path, spoil):
    ds = make_dataset(2 * B + 3, n_categorical=1)
    source = saved(tmp_path, ds)
    spoil(ds, source)
    split, formatted = splits_csv(tmp_path, source, ds.schema)
    assert formatted
    assert_saved_as_each_split(tmp_path, load_csv(source, ds.schema), split)


def test_split_csv_rejects_a_source_whose_row_count_is_not_its_sidecars(tmp_path):
    ds = make_dataset(20, n_categorical=1)
    source = saved(tmp_path, ds)
    text = read(source)
    with open(source, "wb") as fh:  # a row twice, and a sidecar keyed to match
        fh.write(text + text[text.rindex(b"\r\n", 0, -2) + 2 :])
    sidecar = read(source + SIDECAR_SUFFIX)
    with open(source + SIDECAR_SUFFIX, "wb") as fh:
        fh.write(data_module._sidecar_key(source, ds.schema) + sidecar[32:])
    with pytest.raises(ParseError, match="21 rows, where its sidecar holds 20"):
        splits_csv(tmp_path, source, ds.schema)
    assert os.listdir(tmp_path / "out") == []


@pytest.mark.parametrize("spoil", [None, _stale])
def test_split_csv_reads_the_source_for_its_key_once(tmp_path, spoil):
    ds = make_dataset(2 * B + 3, n_categorical=2)
    source = saved(tmp_path, ds)
    if spoil:
        spoil(ds, source)
    with mock.patch.object(data_module, "_sidecar_key", wraps=data_module._sidecar_key) as key:
        split, formatted = splits_csv(tmp_path, source, ds.schema)
    assert key.call_count == 1 and formatted == bool(spoil)
    assert_saved_as_each_split(tmp_path, load_csv(source, ds.schema) if spoil else ds, split)
