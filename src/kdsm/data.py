"""Randomized-trial datasets: schema, CSV ingestion, stratified splitting,
and a synthetic generator with known per-row treatment effects.

A dataset holds a feature matrix (numeric columns plus integer-coded
categorical columns), a binary treatment indicator, and a binary outcome.
Missing values are not supported anywhere; ingestion rejects them.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import os
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from .errors import DomainError, KdsmError, ParseError, SchemaError, document_errors
from .seeds import derive_seed

NUMERIC = "numeric"
CATEGORICAL = "categorical"

#: Cardinality used for every categorical column emitted by the synthetic
#: generator.
SYNTHETIC_CARDINALITY = 4

#: Rows per block when reading and writing CSV: each block is transposed and
#: converted one column at a time, so memory grows with the block, not the
#: file.
CSV_BLOCK_ROWS = 8192

#: Built-in treatment-effect shapes for the synthetic generator. All of them
#: depend on at most the first two numeric features; every other column is
#: noise by construction.
EFFECT_FUNCTIONS = ("zero", "piecewise-on-two-features", "linear-clipped")

#: (min effect, max effect) attained by each built-in shape.
EFFECT_RANGES = {
    "zero": (0.0, 0.0),
    "piecewise-on-two-features": (0.0, 0.1),
    "linear-clipped": (-0.1, 0.1),
}


@dataclass(frozen=True)
class Column:
    """One feature column: a name plus a kind.

    Numeric columns hold finite floats. Categorical columns hold integer
    codes in [0, cardinality); `cardinality` must be >= 2 and is 0 for
    numeric columns. `categories` optionally pins the label-to-code
    dictionary (label of code i at position i); when absent, CSV ingestion
    discovers one by first appearance. Pinning keeps codes consistent
    across files written and re-read by the pipeline.
    """

    name: str
    kind: str
    cardinality: int = 0
    categories: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in (NUMERIC, CATEGORICAL):
            raise SchemaError(f"unknown column kind {self.kind!r} for column {self.name!r}")
        if self.kind == CATEGORICAL and self.cardinality < 2:
            raise SchemaError(
                f"categorical column {self.name!r} needs cardinality >= 2, got {self.cardinality}"
            )
        if self.kind == NUMERIC and self.cardinality != 0:
            raise SchemaError(f"numeric column {self.name!r} must have cardinality 0")
        if self.kind == NUMERIC and self.categories:
            raise SchemaError(f"numeric column {self.name!r} cannot carry categories")
        if self.categories:
            if len(self.categories) > self.cardinality:
                raise SchemaError(
                    f"column {self.name!r}: {len(self.categories)} categories exceed "
                    f"cardinality {self.cardinality}"
                )
            if len(set(self.categories)) != len(self.categories):
                raise SchemaError(f"column {self.name!r}: duplicate category labels")


@dataclass(frozen=True)
class FeatureSchema:
    """Ordered feature columns. Column names must be unique and non-empty."""

    columns: tuple[Column, ...]

    def __post_init__(self):
        names = [c.name for c in self.columns]
        if any(not n for n in names):
            raise SchemaError("empty column name")
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise SchemaError(f"duplicate column name(s): {dupes}")

    @property
    def names(self) -> list[str]:
        return [c.name for c in self.columns]

    def _indices_of(self, kind: str) -> np.ndarray:
        idx = np.array([i for i, c in enumerate(self.columns) if c.kind == kind], dtype=np.int64)
        idx.flags.writeable = False
        return idx

    # Computed once per schema and shared by every caller, hence read-only.
    # Equality and hashing stay on `columns`: cached values are not fields.
    @cached_property
    def numeric_indices(self) -> np.ndarray:
        return self._indices_of(NUMERIC)

    @cached_property
    def categorical_indices(self) -> np.ndarray:
        return self._indices_of(CATEGORICAL)

    @cached_property
    def cardinalities(self) -> np.ndarray:
        """Cardinality of each categorical column, in column order."""
        card = np.array([self.columns[i].cardinality for i in self.categorical_indices], dtype=np.int64)
        card.flags.writeable = False
        return card

    def to_jsonable(self) -> list[dict]:
        out = []
        for c in self.columns:
            d = {"name": c.name, "kind": c.kind, "cardinality": c.cardinality}
            if c.categories:
                d["categories"] = list(c.categories)
            out.append(d)
        return out

    @classmethod
    @document_errors("schema")
    def from_jsonable(cls, obj: list[dict]) -> "FeatureSchema":
        return cls(
            tuple(
                Column(
                    d["name"],
                    d["kind"],
                    int(d.get("cardinality", 0)),
                    tuple(d.get("categories", ())),
                )
                for d in obj
            )
        )


def categorical_codes(schema: FeatureSchema, X: np.ndarray) -> np.ndarray:
    """The categorical columns of the finite feature matrix X as int64 codes,
    one column each. Raises DomainError naming the column and row of the
    first cell that is not an integer code in [0, cardinality)."""
    vals = X[:, schema.categorical_indices]
    codes = vals.astype(np.int64)
    # viewed as unsigned, a negative code exceeds every cardinality
    bad = (codes != vals) | (codes.view(np.uint64) >= schema.cardinalities)
    if np.count_nonzero(bad):
        i, j = map(int, np.argwhere(bad)[0])
        col = schema.columns[schema.categorical_indices[j]]
        raise DomainError(
            f"code {vals[i, j]!r} in categorical column {col.name!r} at row {i} is not "
            f"an integer in [0, {col.cardinality})"
        )
    return codes


def load_document(path: str, parse):
    """Read the JSON file at `path` and build an object from it with
    `parse`; every error, malformed JSON included, names the path."""
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except ValueError as e:
            raise ParseError(f"{path}: {e}") from None
    try:
        return parse(obj)
    except KdsmError as e:
        raise type(e)(f"{path}: {e}") from None


def _int_tuple(v) -> tuple[int, ...]:
    if not isinstance(v, (list, tuple)):  # not a string, though tuple(map(int, "12")) is (1, 2)
        raise TypeError(f"{v!r} is not a list of integers")
    return tuple(map(int, v))


# the conversion of a document value to each declared field type
_FIELD_TYPES = {
    "int": int, "float": float, "str": str, "tuple[int, ...]": _int_tuple,
    "int | None": int, "float | None": float,
}


def config_from_jsonable(cls, obj: dict):
    """The dataclass `cls` rebuilt from a document that holds each of its
    fields by name, as `dataclasses.asdict` writes them; a field whose
    default is None may be absent. Each value is converted to its field's
    declared type, and the constructor checks it."""
    given = [f for f in fields(cls) if f.default is not None or f.name in obj]
    return cls(**{f.name: _FIELD_TYPES[f.type](obj[f.name]) for f in given})


@contextmanager
def atomic_write(path: str, newline: str | None = None):
    """Open a UTF-8 text file that replaces `path` only when the block
    completes. Writes go to a temporary file beside `path`, which
    `os.replace` moves over it on success and which is deleted on any
    error, so a failed writer leaves the previous file untouched."""
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        raise


@dataclass(frozen=True)
class SplitRatios:
    """Train/valid/test fractions; must be positive and sum to 1 (tol 1e-9)."""

    train: float = 0.6
    valid: float = 0.2
    test: float = 0.2

    def __post_init__(self):
        for name, v in (("train", self.train), ("valid", self.valid), ("test", self.test)):
            if not (0.0 < v < 1.0):
                raise DomainError(f"split ratio {name}={v} must lie in (0, 1)")
        if abs(self.train + self.valid + self.test - 1.0) > 1e-9:
            raise DomainError(
                f"split ratios must sum to 1, got {self.train + self.valid + self.test!r}"
            )


@dataclass
class Dataset:
    """Feature matrix plus binary treatment and outcome arrays.

    `features` is float64 with shape (n, len(schema.columns)); categorical
    cells hold integer codes stored as floats. `treatment` and `outcome` are
    int64 arrays of 0/1.
    """

    schema: FeatureSchema
    features: np.ndarray
    treatment: np.ndarray
    outcome: np.ndarray

    @property
    def n(self) -> int:
        return self.features.shape[0]

    def validate(self) -> None:
        """Check every dataset invariant; raise on the first violation."""
        n = self.features.shape[0]
        if self.features.ndim != 2 or self.features.shape[1] != len(self.schema.columns):
            raise SchemaError(
                f"feature matrix shape {self.features.shape} does not match schema "
                f"({len(self.schema.columns)} columns)"
            )
        if self.treatment.shape != (n,) or self.outcome.shape != (n,):
            raise DomainError("treatment/outcome length does not match feature rows")
        for arr, what in ((self.treatment, "treatment"), (self.outcome, "outcome")):
            bad = ~np.isin(arr, (0, 1))
            if bad.any():
                i = int(np.flatnonzero(bad)[0])
                raise DomainError(f"{what} value {arr[i]!r} at row {i} is not 0/1")
        if not np.isfinite(self.features).all():
            i, j = map(int, np.argwhere(~np.isfinite(self.features))[0])
            raise DomainError(
                f"non-finite value in column {self.schema.columns[j].name!r} at row {i}"
            )
        categorical_codes(self.schema, self.features)

    def subset(self, rows: np.ndarray) -> "Dataset":
        """New dataset containing `rows` (indices) in the given order."""
        rows = np.asarray(rows, dtype=np.int64)
        return Dataset(
            schema=self.schema,
            features=self.features[rows],
            treatment=self.treatment[rows],
            outcome=self.outcome[rows],
        )


@dataclass
class DatasetSplit:
    """Result of `split_dataset`: three datasets plus bookkeeping.

    `indices` maps split name to the sorted original row indices it received;
    `warnings` records non-fatal conditions such as empty strata.
    """

    train: Dataset
    valid: Dataset
    test: Dataset
    indices: dict[str, np.ndarray] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class SyntheticConfig:
    """Configuration of the synthetic randomized-trial generator.

    Numeric features are U[0,1], categorical features are uniform codes,
    treatment is Bernoulli(treatment_fraction) independent of features, and
    the outcome is Bernoulli(base_rate + treatment * effect(x)). The effect
    shape is one of EFFECT_FUNCTIONS; `noise_features` adds that many extra
    numeric columns which never influence the outcome (the named shapes only
    read the first two numeric features, so any further column is noise too).
    """

    n: int
    d_numeric: int = 2
    d_categorical: int = 0
    base_rate: float = 0.1
    effect_function: str = "piecewise-on-two-features"
    effect_scale: float = 1.0
    treatment_fraction: float = 0.5
    noise_features: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"n={self.n} must be >= 1")
        if self.d_numeric < 0 or self.d_categorical < 0 or self.noise_features < 0:
            raise DomainError("feature counts must be non-negative")
        if self.effect_function not in EFFECT_FUNCTIONS:
            raise DomainError(
                f"unknown effect_function {self.effect_function!r}; "
                f"expected one of {EFFECT_FUNCTIONS}"
            )
        if self.effect_function != "zero" and self.d_numeric < 2:
            raise DomainError(
                f"effect_function {self.effect_function!r} reads the first two numeric "
                f"features; d_numeric={self.d_numeric} is too small"
            )
        if not (0.0 < self.base_rate < 1.0):
            raise DomainError(f"base_rate={self.base_rate} must lie in (0, 1)")
        if self.effect_scale < 0.0:
            raise DomainError(f"effect_scale={self.effect_scale} must be >= 0")
        if not (0.0 < self.treatment_fraction < 1.0):
            raise DomainError(
                f"treatment_fraction={self.treatment_fraction} must lie in (0, 1)"
            )
        lo, hi = (self.effect_scale * e for e in EFFECT_RANGES[self.effect_function])
        if self.base_rate + hi > 1.0 or self.base_rate + lo < 0.0:
            raise DomainError(
                f"base_rate={self.base_rate} with effect range [{lo}, {hi}] leaves "
                f"outcome probabilities outside [0, 1]"
            )


def effect_values(name: str, features: np.ndarray) -> np.ndarray:
    """Per-row treatment effect of a built-in shape on a synthetic feature
    matrix (reads columns 0 and 1, the first two numeric features)."""
    if name == "zero":
        return np.zeros(features.shape[0])
    f0 = features[:, 0]
    f1 = features[:, 1]
    if name == "piecewise-on-two-features":
        return np.where(f0 > 0.5, 0.1, np.where(f1 > 0.5, 0.05, 0.0))
    if name == "linear-clipped":
        return np.clip(0.4 * (f0 - 0.5) + 0.2 * (f1 - 0.5), -0.1, 0.1)
    raise DomainError(f"unknown effect_function {name!r}")


def gen_synthetic(cfg: SyntheticConfig) -> tuple[Dataset, np.ndarray]:
    """Generate a synthetic trial; returns (dataset, true per-row effect).

    Bit-identical output for identical configs: the draw order (numeric
    block, categorical block, noise block, treatment, outcome) is fixed.
    """
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n

    cols: list[Column] = []
    blocks: list[np.ndarray] = []
    if cfg.d_numeric:
        blocks.append(rng.random((n, cfg.d_numeric)))
        cols += [Column(f"num_{i}", NUMERIC) for i in range(cfg.d_numeric)]
    if cfg.d_categorical:
        blocks.append(
            rng.integers(0, SYNTHETIC_CARDINALITY, (n, cfg.d_categorical)).astype(np.float64)
        )
        codes = tuple(str(c) for c in range(SYNTHETIC_CARDINALITY))
        cols += [
            Column(f"cat_{i}", CATEGORICAL, SYNTHETIC_CARDINALITY, codes)
            for i in range(cfg.d_categorical)
        ]
    if cfg.noise_features:
        blocks.append(rng.random((n, cfg.noise_features)))
        cols += [Column(f"noise_{i}", NUMERIC) for i in range(cfg.noise_features)]

    features = np.concatenate(blocks, axis=1) if blocks else np.zeros((n, 0))
    schema = FeatureSchema(tuple(cols))
    treatment = (rng.random(n) < cfg.treatment_fraction).astype(np.int64)
    tau = cfg.effect_scale * effect_values(cfg.effect_function, features)
    p = cfg.base_rate + treatment * tau
    outcome = (rng.random(n) < p).astype(np.int64)

    ds = Dataset(schema=schema, features=features, treatment=treatment, outcome=outcome)
    ds.validate()
    return ds, tau


def load_csv(
    path: str,
    schema: FeatureSchema,
    treatment_col: str = "treatment",
    outcome_col: str = "outcome",
) -> Dataset:
    """Read a CSV file into a Dataset under the given schema.

    Categorical values may be arbitrary strings. A column with pinned
    `categories` maps each label to its fixed code and rejects unknown
    labels; otherwise labels are coded by first appearance (0, 1, ... in
    the order distinct values are first seen) and the discovered dictionary
    is pinned into the returned dataset's schema. Numeric cells must parse
    as finite floats; treatment/outcome cells must be the literal integers
    0 or 1. Errors name the row and column; a record the csv module cannot
    parse raises ParseError naming its line.

    Rows are read in blocks of CSV_BLOCK_ROWS and converted one column at a
    time. A block that fails any fast check is converted again row by row,
    which raises the error of its first bad cell.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
        except csv.Error as e:
            raise ParseError(f"{path}: line 1: {e}") from None
        if header is None:
            raise ParseError(f"{path}: empty file")
        required = schema.names + [treatment_col, outcome_col]
        dupes = sorted({c for c in header if header.count(c) > 1})
        if dupes:
            raise SchemaError(f"{path}: column {dupes[0]!r} appears more than once in the header")
        for c in (treatment_col, outcome_col):
            if required.count(c) > 1:
                raise SchemaError(f"{path}: column {c!r} cannot be both a feature and the treatment or outcome")
        missing = [c for c in required if c not in header]
        if missing:
            raise SchemaError(f"{path}: missing column(s) {missing}")
        layout = _CsvLayout(
            path=path,
            width=len(header),
            schema=schema,
            pos={name: header.index(name) for name in required},
            treatment_col=treatment_col,
            outcome_col=outcome_col,
            code_maps={
                c.name: {label: i for i, label in enumerate(c.categories)}
                for c in schema.columns
                if c.kind == CATEGORICAL
            },
            pinned={c.name for c in schema.columns if c.categories},
        )
        blocks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        line = 2  # file line of the first row of the block, as the row rules count it
        while True:
            rows: list[list[str]] = []
            try:
                rows.extend(itertools.islice(reader, CSV_BLOCK_ROWS))
            except csv.Error as e:
                # the reader failed mid-block: a bad cell before that record
                # is reported first, as a row-by-row read would
                _convert_rows(layout, rows, line)
                raise ParseError(f"{path}: line {line + len(rows)}: {e}") from None
            if not rows:
                break
            block = _convert_block(layout, rows)
            if block is None:
                block = _convert_rows(layout, rows, line)
            blocks.append(block)
            line += len(rows)

    if blocks:
        features, treatment, outcome = (np.concatenate(parts) for parts in zip(*blocks))
    else:
        features = np.zeros((0, len(schema.columns)))
        treatment = np.zeros(0, dtype=np.int64)
        outcome = np.zeros(0, dtype=np.int64)
    code_maps, pinned = layout.code_maps, layout.pinned
    # pin discovered dictionaries so a re-save keeps labels and codes stable
    out_cols = tuple(
        c
        if c.kind == NUMERIC or c.name in pinned or not code_maps[c.name]
        else Column(
            c.name,
            c.kind,
            c.cardinality,
            tuple(sorted(code_maps[c.name], key=code_maps[c.name].get)),
        )
        for c in schema.columns
    )
    ds = Dataset(
        schema=FeatureSchema(out_cols),
        features=features,
        treatment=treatment,
        outcome=outcome,
    )
    ds.validate()
    return ds


@dataclass
class _CsvLayout:
    """What converting a block of CSV rows needs: where each column sits and
    the label-to-code dictionaries discovered so far (updated in place)."""

    path: str
    width: int
    schema: FeatureSchema
    pos: dict[str, int]
    treatment_col: str
    outcome_col: str
    code_maps: dict[str, dict[str, int]]
    pinned: set[str]


# the only treatment/outcome spellings the column-wise path accepts
_BITS = {"0": 0, "1": 1}


def _floats(cells: tuple[str, ...]) -> np.ndarray | None:
    try:
        return np.fromiter(map(float, cells), np.float64, len(cells))
    except ValueError:
        return None


def _convert_block(layout: _CsvLayout, rows: list[list[str]]):
    """(features, treatment, outcome) of a block of rows, converted column
    by column; None if any cell needs the row-by-row rules (a ragged row, an
    empty cell, an unparsable or non-finite number, an unknown or
    overflowing label, a bit other than "0"/"1"). New labels reach
    `layout.code_maps` only when the whole block converts."""
    k = len(rows)
    if set(map(len, rows)) != {layout.width}:
        return None
    cols = list(zip(*rows))
    features = np.empty((k, len(layout.schema.columns)))
    staged: dict[str, dict[str, int]] = {}
    for j, col in enumerate(layout.schema.columns):
        cells = cols[layout.pos[col.name]]
        if col.kind == NUMERIC:
            vals = _floats(cells)
            if vals is None or not np.isfinite(vals).all():
                return None
            features[:, j] = vals
            continue
        codes = layout.code_maps[col.name]
        seen = dict.fromkeys(cells)  # distinct labels in order of first appearance
        if "" in seen:
            return None
        new = [label for label in seen if label not in codes]
        if new:
            if col.name in layout.pinned or len(codes) + len(new) > col.cardinality:
                return None
            codes = {**codes, **{label: len(codes) + i for i, label in enumerate(new)}}
            staged[col.name] = codes
        features[:, j] = np.fromiter(map(codes.__getitem__, cells), np.float64, k)
    bits = []
    for name in (layout.treatment_col, layout.outcome_col):
        try:
            bits.append(np.fromiter(map(_BITS.__getitem__, cols[layout.pos[name]]), np.int64, k))
        except KeyError:
            return None
    layout.code_maps.update(staged)
    return features, bits[0], bits[1]


def _convert_rows(layout: _CsvLayout, rows: list[list[str]], first_line: int):
    """(features, treatment, outcome) of a block of rows, converted one row
    at a time; raises for the first bad cell, naming its line and column."""
    path, pos, code_maps = layout.path, layout.pos, layout.code_maps
    feat_rows: list[list[float]] = []
    t_list: list[int] = []
    y_list: list[int] = []
    for i, row in enumerate(rows, start=first_line):
        if len(row) != layout.width:
            raise ParseError(f"{path}: line {i} has {len(row)} cells, expected {layout.width}")
        vals: list[float] = []
        for col in layout.schema.columns:
            cell = row[pos[col.name]]
            if cell == "":
                raise ParseError(
                    f"{path}: line {i}, column {col.name!r}: missing values are not supported"
                )
            if col.kind == NUMERIC:
                try:
                    v = float(cell)
                except ValueError:
                    raise ParseError(
                        f"{path}: line {i}, column {col.name!r}: cannot parse {cell!r} as a number"
                    ) from None
                if not np.isfinite(v):
                    raise DomainError(
                        f"{path}: line {i}, column {col.name!r}: non-finite value {cell!r}"
                    )
                vals.append(v)
            else:
                codes = code_maps[col.name]
                code = codes.get(cell)
                if code is None:
                    if col.name in layout.pinned:
                        raise DomainError(
                            f"{path}: line {i}, column {col.name!r}: value {cell!r} is not "
                            f"one of the declared categories"
                        )
                    code = len(codes)
                    if code >= col.cardinality:
                        raise DomainError(
                            f"{path}: line {i}, column {col.name!r}: value {cell!r} exceeds "
                            f"declared cardinality {col.cardinality}"
                        )
                    codes[cell] = code
                vals.append(float(code))
        for col_name, sink in ((layout.treatment_col, t_list), (layout.outcome_col, y_list)):
            cell = row[pos[col_name]]
            try:
                v = int(cell)
            except ValueError:
                raise ParseError(
                    f"{path}: line {i}, column {col_name!r}: cannot parse {cell!r} as an integer"
                ) from None
            if v not in (0, 1):
                raise DomainError(
                    f"{path}: line {i}, column {col_name!r}: value {cell!r} is not 0/1"
                )
            sink.append(v)
        feat_rows.append(vals)
    features = np.array(feat_rows, dtype=np.float64).reshape(len(rows), len(layout.schema.columns))
    return features, np.array(t_list, dtype=np.int64), np.array(y_list, dtype=np.int64)


def save_csv(
    ds: Dataset,
    path: str,
    treatment_col: str = "treatment",
    outcome_col: str = "outcome",
) -> None:
    """Write a dataset as CSV (features, then treatment and outcome columns).

    Numeric cells use shortest exact float representation, so a written file
    re-reads to bit-identical values; reruns produce byte-identical files.
    Categorical cells hold the pinned label of the code when the column has
    one, else the literal code. Rows are formatted in blocks of
    CSV_BLOCK_ROWS, one column at a time, and the file replaces `path` only
    once it is complete. A categorical cell that is not a code of its
    column, or whose code has no pinned label, raises DomainError before
    anything is written.
    """
    codes = categorical_codes(ds.schema, ds.features)
    # each label CSV-quoted once, by the csv module itself; keyed by feature
    # column, with the column's position in `codes`
    labels = {
        j: (k, np.array([_csv_field(c) for c in ds.schema.columns[j].categories], dtype=object))
        for k, j in enumerate(map(int, ds.schema.categorical_indices))
    }
    for j, (k, names) in labels.items():
        unlabelled = np.flatnonzero(codes[:, k] >= names.size) if names.size else []
        if len(unlabelled):
            i = int(unlabelled[0])
            raise DomainError(
                f"code {codes[i, k]} in categorical column {ds.schema.columns[j].name!r} at row "
                f"{i} has no label: the column pins {names.size} categories"
            )
    with atomic_write(path, newline="") as fh:
        csv.writer(fh).writerow(ds.schema.names + [treatment_col, outcome_col])
        for a in range(0, ds.n, CSV_BLOCK_ROWS):
            block = ds.features[a : a + CSV_BLOCK_ROWS]
            cols = []
            for j in range(block.shape[1]):
                if j not in labels:
                    cols.append(map(repr, block[:, j].tolist()))
                    continue
                k, names = labels[j]
                c = codes[a : a + CSV_BLOCK_ROWS, k]
                cols.append(names[c].tolist() if names.size else map(str, c.tolist()))
            for bits in (ds.treatment, ds.outcome):
                cols.append(map(str, bits[a : a + CSV_BLOCK_ROWS].astype(np.int64).tolist()))
            fh.write("\r\n".join(map(",".join, zip(*cols))) + "\r\n")


def _csv_field(value: str) -> str:
    """`value` as the default csv dialect writes it inside a row."""
    buf = io.StringIO()
    # the default dialect, whose line terminator decides what gets quoted; a
    # second, empty field keeps the writer off its lone-empty-field quoting
    csv.writer(buf).writerow([value, ""])
    return buf.getvalue()[: -len(",\r\n")]


def _largest_remainder(total: int, fracs: tuple[float, ...]) -> list[int]:
    """Integer allocation of `total` by fractions, largest remainder first
    (ties go to the earlier entry)."""
    exact = [total * f for f in fracs]
    counts = [int(np.floor(e)) for e in exact]
    rem = total - sum(counts)
    order = sorted(range(len(fracs)), key=lambda i: (-(exact[i] - counts[i]), i))
    for i in order[:rem]:
        counts[i] += 1
    return counts


_STRATA = ((0, 0), (0, 1), (1, 0), (1, 1))


def split_dataset(ds: Dataset, ratios: SplitRatios, seed: int) -> DatasetSplit:
    """Partition rows into train/valid/test, stratified on (treatment, outcome).

    Each stratum is shuffled with its own seeded stream and divided as close
    to the ratios as integer rounding allows, so the partition depends only
    on (treatment, outcome, seed, ratios). Empty strata produce a warning in
    the result, not an error. Row order within each split follows the
    original dataset. Requires n >= 10.
    """
    if ds.n < 10:
        raise DomainError(f"dataset has {ds.n} rows; need at least 10 to split")
    fracs = (ratios.train, ratios.valid, ratios.test)
    parts: dict[str, list[np.ndarray]] = {"train": [], "valid": [], "test": []}
    warnings: list[str] = []
    for si, (t, y) in enumerate(_STRATA):
        idx = np.flatnonzero((ds.treatment == t) & (ds.outcome == y))
        if idx.size == 0:
            warnings.append(f"stratum (treatment={t}, outcome={y}) is empty")
            continue
        rng = np.random.default_rng(derive_seed(seed, "split-stratum", si))
        idx = rng.permutation(idx)
        n_train, n_valid, _ = _largest_remainder(idx.size, fracs)
        parts["train"].append(idx[:n_train])
        parts["valid"].append(idx[n_train : n_train + n_valid])
        parts["test"].append(idx[n_train + n_valid :])
    indices = {
        name: np.sort(np.concatenate(chunks)) if chunks else np.array([], dtype=np.int64)
        for name, chunks in parts.items()
    }
    return DatasetSplit(
        train=ds.subset(indices["train"]),
        valid=ds.subset(indices["valid"]),
        test=ds.subset(indices["test"]),
        indices=indices,
        warnings=warnings,
    )


def subsample_per_arm(ds: Dataset, n_per_arm: int, seed: int) -> Dataset:
    """Uniform random subsample of `n_per_arm` rows from each treatment arm.

    Intended for rebalancing heavily skewed trials before splitting; the
    result keeps original row order. Requires both arms to hold at least
    `n_per_arm` rows.
    """
    if n_per_arm < 1:
        raise DomainError(f"n_per_arm={n_per_arm} must be >= 1")
    keep: list[np.ndarray] = []
    for arm in (0, 1):
        idx = np.flatnonzero(ds.treatment == arm)
        if idx.size < n_per_arm:
            raise DomainError(
                f"arm {arm} has {idx.size} rows; cannot subsample {n_per_arm} per arm"
            )
        rng = np.random.default_rng(derive_seed(seed, "subsample-arm", arm))
        keep.append(rng.choice(idx, size=n_per_arm, replace=False))
    rows = np.sort(np.concatenate(keep))
    return ds.subset(rows)
