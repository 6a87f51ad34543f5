"""Randomized-trial datasets: schema, CSV ingestion, stratified splitting,
and a synthetic generator with known per-row treatment effects.

A dataset holds a feature matrix (numeric columns plus integer-coded
categorical columns), a binary treatment indicator, and a binary outcome.
Missing values are not supported anywhere; ingestion rejects them.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import itertools
import json
import os
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field, fields, replace
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

#: The treatment and outcome columns of every CSV file, written after the
#: features; no feature column may take either name.
BITS = ("treatment", "outcome")

#: Suffix of the array sidecar that `save_csv` writes beside a CSV file and
#: `load_csv` reads in place of parsing it, while its content key matches.
SIDECAR_SUFFIX = ".arrays"

#: Built-in treatment-effect shapes for the synthetic generator, by name:
#: the (min, max) effect each attains, and its per-row effect on a synthetic
#: feature matrix. A shape reads at most columns 0 and 1, the first two
#: numeric features; every other column is noise by construction.
EFFECTS = {
    "zero": ((0.0, 0.0), lambda X: np.zeros(X.shape[0])),
    "piecewise-on-two-features": (
        (0.0, 0.1),
        lambda X: np.where(X[:, 0] > 0.5, 0.1, np.where(X[:, 1] > 0.5, 0.05, 0.0)),
    ),
    "linear-clipped": (
        (-0.1, 0.1),
        lambda X: np.clip(0.4 * (X[:, 0] - 0.5) + 0.2 * (X[:, 1] - 0.5), -0.1, 0.1),
    ),
}


@dataclass(frozen=True)
class Column:
    """One feature column: a name plus a kind.

    Numeric columns hold finite floats. Categorical columns hold integer
    codes in [0, cardinality); `cardinality` must lie in [2, 2**53], the
    most codes a float64 cell holds exactly, and is 0 for numeric columns.
    `categories` optionally pins the label-to-code dictionary (label of
    code i at position i); when absent, CSV ingestion discovers one by
    first appearance. Pinning keeps codes consistent across files written
    and re-read by the pipeline.
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
        if self.cardinality > 2**53:
            raise SchemaError(f"column {self.name!r}: cardinality {self.cardinality} exceeds 2**53")
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
            if "" in self.categories:
                raise SchemaError(f"column {self.name!r}: empty category label")


@dataclass(frozen=True)
class FeatureSchema:
    """Ordered feature columns. Column names must be unique, non-empty and
    not one of BITS."""

    columns: tuple[Column, ...]

    def __post_init__(self):
        names = [c.name for c in self.columns]
        if any(not n for n in names):
            raise SchemaError("empty column name")
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise SchemaError(f"duplicate column name(s): {dupes}")
        reserved = [n for n in names if n in BITS]
        if reserved:
            raise SchemaError(f"column name {reserved[0]!r} is reserved for a CSV bit column")

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
        # a column may leave out the cardinality and categories it has by default
        columns = ({"cardinality": 0, "categories": (), **d} for d in obj)
        return cls(tuple(config_from_jsonable(Column, d) for d in columns))


def checked_features(schema: FeatureSchema, X) -> tuple[np.ndarray, np.ndarray]:
    """X as float64 plus its `categorical_codes`, after checking it against
    `schema`: one row per subject and one column per schema column, every
    value finite, every categorical cell a code of its column. Raises
    SchemaError for a shape that does not match and DomainError naming the
    column and row of the first bad value."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != len(schema.columns):
        raise SchemaError(
            f"feature matrix has shape {X.shape}, schema expects (*, {len(schema.columns)})"
        )
    # counting costs a fraction of .all() on a single row
    if np.count_nonzero(np.isfinite(X)) < X.size:
        i, j = map(int, np.argwhere(~np.isfinite(X))[0])
        raise DomainError(f"non-finite value in column {schema.columns[j].name!r} at row {i}")
    return X, categorical_codes(schema, X)


def categorical_codes(schema: FeatureSchema, X: np.ndarray) -> np.ndarray:
    """The categorical columns of the finite feature matrix X as int64 codes,
    one column each. Raises DomainError naming the column and row of the
    first cell that is not an integer code in [0, cardinality)."""
    vals = X[:, schema.categorical_indices]
    # the range is checked in float, so no cell beyond int64 reaches the
    # cast, which writes into the codes with no float copy of the block
    in_range = (vals >= 0) & (vals < schema.cardinalities)
    codes = np.zeros(vals.shape, np.int64)
    np.copyto(codes, vals, casting="unsafe", where=in_range)
    bad = ~in_range | (codes != vals)
    if np.count_nonzero(bad):
        i, j = map(int, np.argwhere(bad)[0])
        col = schema.columns[schema.categorical_indices[j]]
        raise DomainError(
            f"code {float(vals[i, j])!r} in categorical column {col.name!r} at row {i} is not "
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


def not_utf8(path: str) -> str:
    """The error message for the file at `path`, which is not UTF-8 text:
    the line of its first bad byte and why it is bad."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as e:
        line = raw.count(b"\n", 0, e.start) + 1
        return f"{path}: line {line}: not UTF-8 text ({e.reason})"


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def is_number(v) -> bool:
    return _is_int(v) or isinstance(v, float)


def _is(kind):
    return lambda v: isinstance(v, kind)


def _list_of(is_item):
    return lambda v: isinstance(v, (list, tuple)) and all(map(is_item, v))


def _comma_list(parse):
    return lambda v: tuple(parse(h) for h in v.split(",") if h.strip())


_BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}

# per declared field type: whether a document value is one, what it must be,
# its conversion to the type, and the parser of a config-text value; an
# integer is a float too, a boolean neither
_FIELD_TYPES = {
    "int": (_is_int, "an integer", int, int),
    "float": (is_number, "a number", float, float),
    "str": (_is(str), "a string", str, str),
    "bool": (_is(bool), "a boolean", bool, lambda v: _BOOLS[v.lower()]),
    "tuple[int, ...]": (_list_of(_is_int), "a list of integers", tuple, _comma_list(int)),
    "tuple[str, ...]": (_list_of(_is(str)), "a list of strings", tuple, _comma_list(str.strip)),
}


def config_from_jsonable(cls, obj: dict):
    """The dataclass `cls` rebuilt from a document that holds each of its
    fields by name, as `dataclasses.asdict` writes them; a field whose
    default is None may be absent. Each value must be a JSON value of its
    field's declared type, and the constructor checks it."""
    values = {}
    for f in fields(cls):
        if f.default is not None or f.name in obj:
            is_type, what, convert, _ = _FIELD_TYPES[f.type.removesuffix(" | None")]
            if not is_type(obj[f.name]):
                raise TypeError(f"{f.name} {obj[f.name]!r} is not {what}")
            values[f.name] = convert(obj[f.name])
    return cls(**values)


@contextmanager
def atomic_write(path: str, binary: bool = False):
    """Open a UTF-8 text file, or a binary one, that replaces `path` only
    when the block completes. Writes go to a temporary file beside `path`,
    which `os.replace` moves over it on success and which is deleted on any
    error, so a failed writer leaves the previous file untouched."""
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, "xb") if binary else open(tmp, "x", encoding="utf-8") as fh:
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
        checked_features(self.schema, self.features)
        n = self.features.shape[0]
        if self.treatment.shape != (n,) or self.outcome.shape != (n,):
            raise DomainError("treatment/outcome length does not match feature rows")
        for arr, what in ((self.treatment, "treatment"), (self.outcome, "outcome")):
            bad = ~np.isin(arr, (0, 1))
            if bad.any():
                i = int(np.flatnonzero(bad)[0])
                raise DomainError(f"{what} value {arr[i]!r} at row {i} is not 0/1")

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
    shape is a key of EFFECTS; `noise_features` adds that many extra
    numeric columns which never influence the outcome (the named shapes only
    read the first two numeric features, so any further column is noise too).
    """

    n: int = 50000
    d_numeric: int = 6
    d_categorical: int = 2
    base_rate: float = 0.03
    effect_function: str = "piecewise-on-two-features"
    effect_scale: float = 1.0
    treatment_fraction: float = 0.5
    noise_features: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"n={self.n} must be >= 1")
        if self.d_numeric < 0 or self.d_categorical < 0 or self.noise_features < 0:
            raise DomainError("feature counts must be non-negative")
        if self.effect_function not in EFFECTS:
            raise DomainError(
                f"unknown effect_function {self.effect_function!r}; "
                f"expected one of {tuple(EFFECTS)}"
            )
        if self.effect_function != "zero" and self.d_numeric < 2:
            raise DomainError(
                f"effect_function {self.effect_function!r} reads the first two numeric "
                f"features; d_numeric={self.d_numeric} is too small"
            )
        if not (0.0 < self.base_rate < 1.0):
            raise DomainError(f"base_rate={self.base_rate} must lie in (0, 1)")
        if not (0.0 <= self.effect_scale < np.inf):
            raise DomainError(f"effect_scale={self.effect_scale} must be finite and >= 0")
        if not (0.0 < self.treatment_fraction < 1.0):
            raise DomainError(
                f"treatment_fraction={self.treatment_fraction} must lie in (0, 1)"
            )
        lo, hi = (self.effect_scale * e for e in EFFECTS[self.effect_function][0])
        if self.base_rate + hi > 1.0 or self.base_rate + lo < 0.0:
            raise DomainError(
                f"base_rate={self.base_rate} with effect range [{lo}, {hi}] leaves "
                f"outcome probabilities outside [0, 1]"
            )


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
    tau = cfg.effect_scale * EFFECTS[cfg.effect_function][1](features)
    p = cfg.base_rate + treatment * tau
    outcome = (rng.random(n) < p).astype(np.int64)

    ds = Dataset(schema=schema, features=features, treatment=treatment, outcome=outcome)
    ds.validate()
    return ds, tau


def load_csv(path: str, schema: FeatureSchema) -> Dataset:
    """Read a CSV file into a Dataset under the given schema; its header
    names every schema column and the two BITS columns, in any order.

    Categorical values may be arbitrary strings. A column with pinned
    `categories` maps each label to its fixed code and rejects unknown
    labels; otherwise labels are coded by first appearance (0, 1, ... in
    the order distinct values are first seen) and the discovered dictionary
    is pinned into the returned dataset's schema. Numeric cells must parse
    as finite floats; treatment/outcome cells must be integers that `int()`
    reads as 0 or 1. Errors name the line and column of the first bad cell
    in row order; a record the csv module cannot parse raises ParseError
    naming its line, and text that is not UTF-8 the line of its first bad
    byte.

    Rows are read in blocks of CSV_BLOCK_ROWS and converted one column at a
    time; only a block that does not convert is walked row by row for its
    first bad cell. The file is not parsed at all when the sidecar that
    `save_csv` wrote beside it still matches it: a sidecar written for the
    file's exact bytes under an equal schema holds what the parse returns.
    """
    ds = _load_sidecar(path, schema)
    if ds is not None:
        return ds
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
        except csv.Error as e:
            raise ParseError(f"{path}: line 1: {e}") from None
        except UnicodeDecodeError:
            raise ParseError(not_utf8(path)) from None
        if header is None:
            raise ParseError(f"{path}: empty file")
        dupes = sorted({c for c in header if header.count(c) > 1})
        if dupes:
            raise SchemaError(f"{path}: column {dupes[0]!r} appears more than once in the header")
        missing = [c for c in schema.names + list(BITS) if c not in header]
        if missing:
            raise SchemaError(f"{path}: missing column(s) {missing}")
        categorical = [schema.columns[j] for j in schema.categorical_indices]
        code_maps = {c.name: {v: i for i, v in enumerate(c.categories)} for c in categorical}
        convert = functools.partial(_convert_columns, path, header, schema, code_maps)
        line = 2  # file line of the first row of the block, as the row rules count it
        blocks = [convert([], line)]  # so an empty file has the right shapes
        while True:
            rows: list[list[str]] = []
            try:
                rows.extend(itertools.islice(reader, CSV_BLOCK_ROWS))
            except csv.Error as e:
                # the reader failed mid-block: a bad cell before that record
                # is reported first, as a row-by-row read would
                _convert_block(convert, rows, line)
                raise ParseError(f"{path}: line {line + len(rows)}: {e}") from None
            except UnicodeDecodeError:
                raise ParseError(not_utf8(path)) from None
            if not rows:
                break
            blocks.append(_convert_block(convert, rows, line))
            line += len(rows)

    features, treatment, outcome = (np.concatenate(parts) for parts in zip(*blocks))
    # pin discovered dictionaries so a re-save keeps labels and codes stable;
    # a code map lists its labels in code order
    out_cols = tuple(
        replace(c, categories=tuple(code_maps[c.name])) if c.kind == CATEGORICAL else c
        for c in schema.columns
    )
    ds = Dataset(FeatureSchema(out_cols), features, treatment, outcome)
    ds.validate()
    return ds


def _sidecar_key(path: str, schema: FeatureSchema) -> bytes:
    """SHA-256 of the sidecar format tag, `schema`'s JSON and the exact
    bytes of the file at `path`."""
    key = hashlib.sha256(b"kdsm-csv-arrays/v1\0%s\0" % json.dumps(schema.to_jsonable()).encode())
    with open(path, "rb") as fh:
        for chunk in iter(functools.partial(fh.read, 1 << 20), b""):
            key.update(chunk)
    return key.digest()


def _load_sidecar(path: str, schema: FeatureSchema) -> Dataset | None:
    """The dataset in the sidecar of the CSV file at `path` (its key, then
    features, treatment and outcome as `np.save` records), or None unless
    the key is the file's under `schema` and the arrays a valid dataset's."""
    with suppress(OSError, EOFError, ValueError, KdsmError), open(path + SIDECAR_SUFFIX, "rb") as fh:
        if fh.read(32) == _sidecar_key(path, schema):
            ds = Dataset(schema, np.load(fh), np.load(fh), np.load(fh))
            if ds.features.dtype == np.float64 and ds.treatment.dtype == ds.outcome.dtype == np.int64:
                ds.validate()
                return ds
    return None


def _convert_block(convert, rows: list[list[str]], line: int):
    """(features, treatment, outcome) of a block of rows whose first row is
    file line `line`, by `convert`, `_convert_columns` bound to its file; a
    bad cell raises the error of the first in row order. `convert` names the
    first bad cell of the first bad column, which may lie below a bad cell
    of a later column. So a block that does not convert is converted again
    one row at a time, each row coding its labels, and the first row that
    does not convert, where column order is row order, raises."""
    try:
        return convert(rows, line)
    except KdsmError:
        for i in range(len(rows)):
            convert(rows[i : i + 1], line + i)
        raise


def _convert_columns(path, header, schema, code_maps, rows: list[list[str]], line: int):
    """(features, treatment, outcome) of rows whose first row is line `line`
    of the CSV file `path` with `header`, converted one column at a time:
    the features in `schema` order, then the BITS. Every rule of a CSV cell
    and its message live here. A ragged row raises first, then the first
    column that breaks a rule, naming the first cell that breaks the first
    such rule: for one row, the first bad cell in row order. A column is
    walked in Python only after its numpy conversion or check has failed.
    `code_maps` holds each categorical column's label-to-code dictionary
    coded so far; new labels reach it only when every row converts, and
    never for a column with `categories`, which is pinned."""
    k, width = len(rows), len(header)
    if set(map(len, rows)) - {width}:
        i = next(i for i, row in enumerate(rows) if len(row) != width)
        raise ParseError(f"{path}: line {line + i} has {len(rows[i])} cells, expected {width}")

    def bad(error, i, name, what):
        return error(f"{path}: line {line + i}, column {name!r}: {what}")

    cols = list(zip(*rows)) or [()] * width
    features = np.empty((k, len(schema.columns)))
    staged: dict[str, dict[str, int]] = {}
    for j, col in enumerate(schema.columns):
        name, cells = col.name, cols[header.index(col.name)]
        parsed = False  # whether every cell parsed as a number, which no empty cell does
        if col.kind == NUMERIC:
            with suppress(ValueError):
                features[:, j] = np.fromiter(map(float, cells), np.float64, k)
                parsed = True
        if not parsed and "" in cells:
            raise bad(ParseError, cells.index(""), name, "missing values are not supported")
        if col.kind == NUMERIC:
            for i, cell in enumerate(() if parsed else cells):  # only when a cell did not parse
                try:
                    float(cell)
                except ValueError:
                    raise bad(ParseError, i, name, f"cannot parse {cell!r} as a number") from None
            nonfinite = np.flatnonzero(~np.isfinite(features[:, j]))
            if nonfinite.size:
                i = nonfinite[0]
                raise bad(DomainError, i, name, f"non-finite value {cells[i]!r}")
            continue
        codes = code_maps[name]
        new = [label for label in dict.fromkeys(cells) if label not in codes]
        room = 0 if col.categories else col.cardinality - len(codes)
        if len(new) > room:  # new[room] is the first label without a code
            what = "is not one of the declared categories"
            if not col.categories:
                what = f"exceeds declared cardinality {col.cardinality}"
            raise bad(DomainError, cells.index(new[room]), name, f"value {new[room]!r} {what}")
        if new:
            codes = {**codes, **{label: i for i, label in enumerate(new, len(codes))}}
            staged[name] = codes
        features[:, j] = np.fromiter(map(codes.__getitem__, cells), np.float64, k)
    bits = []
    for name in BITS:
        cells = cols[header.index(name)]
        try:
            bits.append(np.fromiter(map(int, cells), np.int64, k))
            clean = np.isin(bits[-1], (0, 1)).all()
        except (ValueError, OverflowError):  # int64 overflows on a cell like "99999999999999999999"
            clean = False
        for i, cell in enumerate(() if clean else cells):  # only when a bit is not 0 or 1
            try:
                v = int(cell)
            except ValueError:
                raise bad(ParseError, i, name, f"cannot parse {cell!r} as an integer") from None
            if v not in (0, 1):
                raise bad(DomainError, i, name, f"value {cell!r} is not 0/1")
    code_maps.update(staged)
    return features, bits[0], bits[1]


def save_csv(ds: Dataset, path: str) -> None:
    """Write a dataset as CSV (features, then the BITS columns).

    Numeric cells use shortest exact float representation, so a written file
    re-reads to bit-identical values; reruns produce byte-identical files.
    Categorical cells hold the pinned label of the code when the column has
    one, else the literal code. Rows are formatted in blocks of
    CSV_BLOCK_ROWS, one column at a time, and the file replaces `path` only
    once it is complete. A dataset that does not validate, or a categorical
    cell whose code has no pinned label, raises before anything is written.
    When every categorical column pins its labels, the file re-reads to the
    dataset, so its arrays then go atomically to a sidecar, `path` plus
    SIDECAR_SUFFIX, keyed by the file's bytes and the schema.
    """
    ds.validate()
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
    pinned = all(names.size for _, names in labels.values())
    with atomic_write(path) as fh:
        csv.writer(fh).writerow(ds.schema.names + list(BITS))
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
        if pinned:
            fh.flush()
            key = _sidecar_key(fh.name, ds.schema)
    if pinned:
        # the arrays as the parse returns them: float64, each category its code
        features = np.array(ds.features, dtype=np.float64, order="C")
        features[:, ds.schema.categorical_indices] = codes
        with atomic_write(path + SIDECAR_SUFFIX, binary=True) as fh:
            fh.write(key)
            for arr in (features, ds.treatment.astype(np.int64), ds.outcome.astype(np.int64)):
                np.save(fh, arr)


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

