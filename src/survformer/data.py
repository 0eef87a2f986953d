"""Dataset representation, CSV ingestion, time discretization and synthesis.

Covariate preprocessing is fit/transform: numerical fields are imputed with
the fitted mean and standardized to zero mean, unit (population) std;
categorical fields are imputed with the fitted mode and mapped to dense
vocabulary indices, with one reserved index for values unseen at fit time.
Fitting statistics must come from the training fold only; callers that split
should split the raw table first and fit on the training rows.

A cohort is columnar from ingestion on: ``read_raw_csv`` returns a
``RawTable`` of cell text, and ``transform_rows`` turns it into ``Records``,
one array per covariate block and label. A bad cell raises ``SchemaError``
naming the earliest CSV line among the rows being read, whatever their order;
``_read_column`` judges cells for both fit and transform. ``TimeGrid.locate``
is the one time-bin lookup, for the loss and the survival curves alike.

The fitted schema is plain dataclasses: a checkpoint stores ``asdict`` of it,
and ``model.FIELDS`` holds the rules its entries are judged by on loading.
``echo`` is the one cut of an outside value quoted in an error message.
"""

import csv
import math
from dataclasses import dataclass, field

import numpy as np


class SchemaError(ValueError):
    """Raised for malformed column declarations or nonconforming rows."""


MISSING = ""


def echo(value):
    """``repr(value)`` for an error message, cut to at most 120 characters."""
    text = repr(value)
    return text if len(text) <= 120 else text[:117] + "..."


def allocate(what, shape, make):
    """``make()``, which builds an array of ``shape``; numpy's refusal to
    allocate that shape becomes one ValueError naming ``what`` and it."""
    try:
        return make()
    except (MemoryError, ValueError):
        raise ValueError(f"cannot allocate {what} of shape {echo(shape)}") from None


def _earliest(line, mask):
    """Index of the True entry of ``mask`` on the earliest CSV line, or None."""
    idx = np.flatnonzero(mask)
    return idx[np.argmin(line[idx])] if idx.size else None


def parse_floats(cells, line, valid=np.isfinite, missing=True):
    """``float()`` of every cell of a text column, NaN where a cell is missing.

    Also returns the index of the bad cell on the earliest CSV line, or None:
    a cell that ``float()`` rejects, a missing one unless ``missing`` allows
    it, or one whose value fails the vectorized test ``valid`` (None for no
    test).
    """
    present = cells != MISSING if missing else np.ones(len(cells), dtype=bool)
    values = np.full(len(cells), np.nan)
    try:
        values[present] = cells[present].astype(np.float64)
    except ValueError:
        for i in np.argsort(line):
            if present[i]:
                try:
                    values[i] = float(cells[i])
                except ValueError:
                    return values, i
                if valid is not None and not valid(values[i]):
                    return values, i
    return values, None if valid is None else _earliest(line, present & ~valid(values))


def _factorize(cells):
    """The sorted distinct values of a text column and each cell's index into
    them. Hashing first leaves ``np.unique`` only the distinct values to sort."""
    first = {}
    seen = np.fromiter((first.setdefault(v, len(first)) for v in cells), np.intp, len(cells))
    values, rank = np.unique(np.array(list(first), dtype=object), return_inverse=True)
    return values, rank[seen]


@dataclass
class NumericalField:
    name: str
    mean: float = 0.0
    std: float = 1.0


@dataclass
class CategoricalField:
    name: str
    vocabulary: dict = field(default_factory=dict)  # raw value -> dense index
    mode: str = ""

    @property
    def cardinality(self):
        return len(self.vocabulary)

    @property
    def unknown_index(self):
        return len(self.vocabulary)


@dataclass
class CovariateSchema:
    """Fitted covariate descriptors, categorical fields first."""

    categorical: list
    numerical: list

    def __post_init__(self):
        names = self.field_names
        if len(set(names)) != len(names):
            raise SchemaError("covariate field names must be unique")
        if self.d < 1:
            raise SchemaError("schema needs at least one covariate field")

    @property
    def d_c(self):
        return len(self.categorical)

    @property
    def d_n(self):
        return len(self.numerical)

    @property
    def d(self):
        return self.d_c + self.d_n

    @property
    def field_names(self):
        return [f.name for f in self.categorical] + [f.name for f in self.numerical]


@dataclass
class Records:
    """A cohort as columns, one row per subject."""

    cat: np.ndarray  # (n, d_c) vocabulary indices
    num: np.ndarray  # (n, d_n) standardized values
    t: np.ndarray  # (n,) follow-up durations
    e: np.ndarray  # (n,) event labels, 0 = censored
    line: np.ndarray  # (n,) CSV line of each record

    def __len__(self):
        return len(self.t)

    def take(self, idx):
        return Records(self.cat[idx], self.num[idx], self.t[idx], self.e[idx], self.line[idx])


# --- column declaration and CSV ingestion ---------------------------------


@dataclass
class RawTable:
    """A CSV's data rows as text. ``line`` holds each row's line in the CSV,
    so errors name it after the rows are split and shuffled."""

    header: list
    cells: np.ndarray  # (rows, header columns) object array of cell text
    line: np.ndarray
    _numbers: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __len__(self):
        return len(self.line)

    def take(self, idx):
        return RawTable(self.header, self.cells[idx], self.line[idx])

    def numbers(self, name, valid=np.isfinite, missing=True):
        """``parse_floats`` of a numerical or label column, parsed once:
        ``fit_schema`` keeps it for ``transform_rows``, which frees it."""
        if name not in self._numbers:
            self._numbers[name] = parse_floats(self.column(name), self.line, valid, missing)
        return self._numbers[name]

    def column(self, name):
        # the last column of that name, as a dict of the row would hold
        where = {h: k for k, h in enumerate(self.header)}
        if name not in where:
            raise SchemaError(f"column {echo(name)} not found")
        return self.cells[:, where[name]]


@dataclass
class ColumnSpec:
    """Which CSV columns are covariates and which carry the labels."""

    numerical: list
    categorical: list
    duration: str = "duration"
    event: str = "event"

    def __post_init__(self):
        for name in (*self.numerical, *self.categorical):
            if name in (self.duration, self.event):
                raise ValueError(f"label column {echo(name)} is also declared a covariate")


def read_raw_csv(path, columns):
    """Parse a CSV into a ``RawTable``, validating the declared columns, that
    there is a data row, that every row has one cell per header column and
    that ``csv`` can read every line (no cell over its field limit)."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
            labels = [name for name in (columns.duration, columns.event) if name is not None]
            for col in [*columns.numerical, *columns.categorical, *labels]:
                if col not in header:
                    raise SchemaError(f"column {echo(col)} not found in {path}")
            rows, lines = [], []
            for cells in reader:
                if not cells:
                    continue
                if len(cells) != len(header):
                    raise SchemaError(
                        f"{path}: line {reader.line_num} has {len(cells)} cells, the header has {len(header)}"
                    )
                rows.append(cells)
                lines.append(reader.line_num)
        except csv.Error as err:
            raise SchemaError(f"{path}: line {reader.line_num}: {err}") from None
    if not rows:
        raise SchemaError(f"{path}: no data rows")
    cells = np.array(rows, dtype=object).reshape(len(rows), len(header))
    return RawTable(header, cells, np.array(lines, dtype=np.intp))


def _read_column(table, errors, j, kind, name, valid=None):
    """The values of a numerical column (``valid`` None) or of a label column
    that ``valid`` tests, from the table's kept parse. The earliest bad cell
    is appended to ``errors`` as (line, column position ``j``, message);
    callers raise the ``min`` of them, the earliest line's leftmost bad cell."""
    cells, line = table.column(name), table.line
    values, bad = table.numbers(name) if valid is None else table.numbers(name, valid, missing=False)
    if bad is not None:
        v = values[bad]
        problem = ("non-numeric or non-finite" if not np.isfinite(v) else
                   "non-integral" if kind == "event" and v != np.floor(v) else
                   "negative" if v < 0 else "out-of-range")
        subject = "covariate value" if kind == "numerical" else "label"
        errors.append((line[bad], j, f"bad {subject} at line {line[bad]}: {problem} value "
                       f"{echo(cells[bad])} in {kind} column {echo(name)}"))
    return values


def _read_labels(table, columns, errors, j):
    """The duration and event columns that ``columns`` names, judged by
    ``_read_column`` as column positions ``j`` and ``j + 1``; zeros when it
    names none."""
    if (columns.duration, columns.event) == (None, None):
        return np.zeros(len(table)), np.zeros(len(table))
    for name in (columns.duration, columns.event):
        if name not in table.header:
            raise SchemaError(f"missing label column {echo(name)}")
    t = _read_column(table, errors, j, "duration", columns.duration, lambda v: np.isfinite(v) & (v >= 0))
    # labels from 2**53 on are no longer exact integers, nor safe to cast
    e = _read_column(table, errors, j + 1, "event", columns.event,
                     lambda v: (v >= 0) & (v == np.floor(v)) & (v < 2.0**53))
    return t, e


def fit_schema(table, columns):
    """Fit imputation and encoding statistics on the given (training) rows.

    A bad numerical or label cell raises the ``SchemaError`` that
    ``transform_rows`` gives for it, so the earliest line's is named.
    """
    cats = []
    for name in columns.categorical:
        values, inverse = _factorize(table.column(name))
        counts = np.bincount(inverse, minlength=len(values))
        observed = values != MISSING
        values, counts = values[observed].tolist(), counts[observed]
        if not values:
            raise SchemaError(f"categorical column {echo(name)} has no observed values")
        # the first largest count: ties broken toward the smaller value
        mode = values[int(np.argmax(counts))]
        cats.append(CategoricalField(name, {v: i for i, v in enumerate(values)}, mode))
    errors = []
    parsed = [_read_column(table, errors, j, "numerical", name) for j, name in enumerate(columns.numerical)]
    _read_labels(table, columns, errors, len(columns.numerical))
    if errors:
        raise SchemaError(min(errors)[2])
    nums = []
    for name, values in zip(columns.numerical, parsed):
        values = values[~np.isnan(values)]
        if not values.size:
            raise SchemaError(f"numerical column {echo(name)} has no observed values")
        std = float(values.std())
        nums.append(NumericalField(name, float(values.mean()), std if std > 0 else 1.0))
    return CovariateSchema(cats, nums)


def transform_rows(schema, table, columns):
    """Apply a fitted schema to a table; labels are read exactly when
    ``columns`` names them (durations and events are zero otherwise). A bad
    cell raises ``SchemaError`` naming the earliest CSV line that holds one,
    and on that line the leftmost bad cell."""
    n = len(table)
    errors = []
    cat = np.empty((n, schema.d_c), dtype=np.intp)
    for i, f in enumerate(schema.categorical):
        values, inverse = _factorize(table.column(f.name))
        codes = [f.vocabulary.get(f.mode if v == MISSING else v, f.unknown_index) for v in values]
        cat[:, i] = np.asarray(codes, dtype=np.intp)[inverse]
    num = np.empty((n, schema.d_n))
    for j, f in enumerate(schema.numerical):
        values = _read_column(table, errors, j, "numerical", f.name)
        num[:, j] = (np.where(np.isnan(values), f.mean, values) - f.mean) / f.std
    t, e = _read_labels(table, columns, errors, schema.d_n)
    table._numbers.clear()
    if errors:
        raise SchemaError(min(errors)[2])
    return Records(cat, num, t, e.astype(np.intp), table.line)


# --- discrete time grid ----------------------------------------------------


@dataclass
class TimeGrid:
    """Finite, strictly increasing cut points tau_1..tau_m; tau_0 = 0 implicitly."""

    cuts: np.ndarray

    def __post_init__(self):
        cuts = self.cuts = np.asarray(self.cuts, dtype=np.float64)
        valid = cuts.ndim == 1 and cuts.size and np.isfinite(cuts).all()
        if not (valid and cuts[0] > 0 and (np.diff(cuts) > 0).all()):
            raise ValueError(f"cut points must be a list of finite, strictly increasing positive numbers, "
                             f"got {echo(cuts.tolist())}")

    @property
    def m(self):
        return int(self.cuts.size)

    def locate(self, t):
        """Zero-based bin holding each time and the elapsed fraction of that
        bin (kappa - 1 and rho of the loss). A time past the last cut falls in
        the last bin, fully elapsed."""
        t = np.asarray(t, dtype=np.float64)
        idx = np.minimum(np.searchsorted(self.cuts, t, side="left"), self.m - 1)
        left = np.where(idx > 0, self.cuts[np.maximum(idx - 1, 0)], 0.0)
        frac = (np.minimum(t, self.cuts[-1]) - left) / (self.cuts[idx] - left)
        return idx, np.clip(frac, 0.0, 1.0)

    def to_list(self):
        return self.cuts.tolist()


def build_time_grid(durations, m, scheme="quantile"):
    """Discretize training durations into m bins.

    ``quantile`` places cuts at empirical duration quantiles j/m (duplicates
    merged); ``uniform`` places equal-width cuts on (0, max]. The last cut is
    always the maximum training duration.
    """
    durations = np.asarray(durations, dtype=np.float64)
    if m < 2:
        raise ValueError(f"time_bins must be at least 2, got {m}")
    if durations.size == 0:
        raise ValueError("cannot build a grid from no durations")
    lo, hi = durations.min(), durations.max()
    if lo == hi:
        raise ValueError("all durations identical; the grid would be degenerate")
    if scheme == "uniform":
        cuts = allocate("the time_bins grid", (m,), lambda: np.linspace(0.0, hi, m + 1)[1:])
    elif scheme == "quantile":
        cuts = np.quantile(durations, allocate("the time_bins grid", (m,), lambda: np.arange(1, m + 1) / m))
        cuts = np.unique(cuts)
        cuts = cuts[cuts > 0]
        if cuts.size < 1:
            raise ValueError("quantile cuts collapsed to nothing; durations too concentrated")
        cuts[-1] = hi
    else:
        raise ValueError(f"unknown grid scheme {echo(scheme)}")
    return TimeGrid(cuts)


# --- splits ----------------------------------------------------------------


def split(items, fractions, seed):
    """Deterministic disjoint partition of a sequence by fractions."""
    fractions = tuple(fractions)
    if not all(math.isfinite(f) for f in fractions) or abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"fractions must be finite and sum to 1, got {fractions}")
    n = len(items)
    order = np.random.default_rng(seed).permutation(n)
    sizes = [int(round(f * n)) for f in fractions[:-1]]
    sizes.append(n - sum(sizes))
    if any(s <= 0 for s in sizes):
        raise ValueError(f"fractions {fractions} leave an empty partition for n={n}")
    parts = []
    start = 0
    for s in sizes:
        parts.append([items[i] for i in order[start : start + s]])
        start += s
    return tuple(parts)


# --- synthetic competing-risks generator -----------------------------------


@dataclass
class SyntheticSpec:
    """Generator settings, including ground-truth event-assignment weights."""

    n: int
    dim: int
    n_events: int
    risk_coefs: np.ndarray  # (n_events, dim): log hazard rate per event
    assign_coefs: np.ndarray  # (n_events, dim): event-assignment logits
    censoring_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        self.risk_coefs = np.asarray(self.risk_coefs, dtype=np.float64).reshape(self.n_events, self.dim)
        self.assign_coefs = np.asarray(self.assign_coefs, dtype=np.float64).reshape(self.n_events, self.dim)
        if self.n_events < 1:
            raise ValueError("need at least one event type")
        if not 0.0 <= self.censoring_rate < 1.0:
            raise ValueError("censoring rate must be in [0, 1)")


def default_synthetic_spec(n, dim=4, n_events=2, censoring_rate=0.3, seed=0):
    """Deterministic informative coefficients derived from the seed."""
    rng = np.random.default_rng(seed)
    risk = rng.normal(0.0, 0.8, size=(n_events, dim))
    assign = rng.normal(0.0, 0.7, size=(n_events, dim))
    return SyntheticSpec(n, dim, n_events, risk, assign, censoring_rate, seed)


def synthesize(spec):
    """Draw records with known event-assignment probabilities.

    Covariates are standard normal. Each event type has a latent exponential
    time with rate exp(risk_coefs . x); the observed event is drawn from
    softmax(assign_coefs . x), whose probabilities are returned as ground
    truth. A censored fraction is relabeled event 0 with the duration scaled
    down by an independent uniform draw.
    """
    rng = np.random.default_rng(spec.seed)
    x = rng.standard_normal((spec.n, spec.dim))
    rates = np.exp(x @ spec.risk_coefs.T)  # (n, K)
    latent = rng.exponential(1.0 / rates)
    logits = x @ spec.assign_coefs.T
    logits -= logits.max(axis=1, keepdims=True)
    probs = np.exp(logits)
    probs /= probs.sum(axis=1, keepdims=True)
    cdf = np.cumsum(probs, axis=1)
    u = rng.uniform(size=spec.n)
    assigned = np.minimum((u[:, None] > cdf).sum(axis=1), spec.n_events - 1)
    durations = latent[np.arange(spec.n), assigned]
    events = assigned + 1
    n_cens = int(round(spec.censoring_rate * spec.n))
    if n_cens:
        censored_idx = rng.choice(spec.n, size=n_cens, replace=False)
        durations = durations.copy()
        durations[censored_idx] *= rng.uniform(size=n_cens)
        events = events.copy()
        events[censored_idx] = 0
    # each record's line is the one save_records_csv writes it to
    records = Records(np.empty((spec.n, 0), dtype=np.intp), x, durations, events, np.arange(2, spec.n + 2))
    return records, probs


def synthetic_schema(dim):
    """Identity schema for generator output (already standardized)."""
    return CovariateSchema([], [NumericalField(f"x{j + 1}") for j in range(dim)])


def save_records_csv(path, records):
    """Write generator records in the standard ingestion format."""
    names = [f"x{j + 1}" for j in range(records.num.shape[1])]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(names + ["duration", "event"])
        for x, t, e in zip(records.num.tolist(), records.t.tolist(), records.e.tolist()):
            writer.writerow([*map(repr, x), repr(t), e])


def save_propensities_csv(path, propensities):
    """Sidecar of ground-truth assignment probabilities, one row per record."""
    propensities = np.asarray(propensities)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"pi_{k + 1}" for k in range(propensities.shape[1])])
        for row in propensities:
            writer.writerow([repr(float(v)) for v in row])


def sidecar_path(csv_path):
    stem, dot, ext = str(csv_path).rpartition(".")
    if not dot:
        return f"{csv_path}.propensities.csv"
    return f"{stem}.propensities.{ext}"
