"""Dataset representation, CSV ingestion, time discretization and synthesis.

Covariate preprocessing is fit/transform: numerical fields are imputed with
the fitted mean and standardized to zero mean, unit (population) std;
categorical fields are imputed with the fitted mode and mapped to dense
vocabulary indices, with one reserved index for values unseen at fit time.
Fitting statistics must come from the training fold only; callers that split
should split raw rows first and fit on the training rows.
"""

import csv
import math
from dataclasses import dataclass, field

import numpy as np


class SchemaError(ValueError):
    """Raised for malformed column declarations or nonconforming rows."""


MISSING = ""


def _parse_finite(raw, where):
    """The number a cell holds; text that is not a finite number raises
    ``ValueError`` naming the cell's value and ``where``."""
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"non-numeric or non-finite value {raw!r} in {where}")
    return value


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

    def transform_row(self, row):
        """Map one raw row (dict of strings) to (cat indices, num values)."""
        cat = np.empty(self.d_c, dtype=np.intp)
        for i, f in enumerate(self.categorical):
            raw = row.get(f.name, MISSING)
            if raw == MISSING:
                raw = f.mode
            cat[i] = f.vocabulary.get(raw, f.unknown_index)
        num = np.empty(self.d_n, dtype=np.float64)
        for j, f in enumerate(self.numerical):
            raw = row.get(f.name, MISSING)
            if raw == MISSING:
                value = f.mean
            else:
                value = _parse_finite(raw, f"numerical column {f.name!r}")
            num[j] = (value - f.mean) / f.std
        return cat, num

    def to_dict(self):
        return {
            "categorical": [
                {"name": f.name, "vocabulary": f.vocabulary, "mode": f.mode}
                for f in self.categorical
            ],
            "numerical": [
                {"name": f.name, "mean": f.mean, "std": f.std} for f in self.numerical
            ],
        }

    @classmethod
    def from_dict(cls, payload):
        cats = [
            CategoricalField(c["name"], dict(c["vocabulary"]), c["mode"])
            for c in payload["categorical"]
        ]
        nums = [NumericalField(n["name"], n["mean"], n["std"]) for n in payload["numerical"]]
        return cls(cats, nums)


@dataclass
class SurvivalRecord:
    """One subject: covariates, follow-up duration, event label (0 = censored)."""

    categorical: np.ndarray
    numerical: np.ndarray
    duration: float
    event: int

    def __post_init__(self):
        if self.duration < 0:
            raise ValueError(f"duration must be nonnegative, got {self.duration}")
        if self.event < 0:
            raise ValueError(f"event label must be nonnegative, got {self.event}")


def records_as_arrays(records):
    """Stack a record list into (cat, num, durations, events) arrays."""
    if not records:
        raise ValueError("no records")
    cat = np.stack([r.categorical for r in records]) if records[0].categorical.size else np.zeros((len(records), 0), dtype=np.intp)
    num = np.stack([r.numerical for r in records]) if records[0].numerical.size else np.zeros((len(records), 0))
    t = np.array([r.duration for r in records], dtype=np.float64)
    e = np.array([r.event for r in records], dtype=np.intp)
    return cat, num, t, e


# --- column declaration and CSV ingestion ---------------------------------


class RawRow(dict):
    """One CSV data row, cell text by column name; ``line`` is its line in the
    CSV, so errors name it after the rows are split and shuffled."""

    __slots__ = ("line",)


@dataclass
class ColumnSpec:
    """Which CSV columns are covariates and which carry the labels."""

    numerical: list
    categorical: list
    duration: str = "duration"
    event: str = "event"


def read_raw_csv(path, columns):
    """Parse a CSV into ``RawRow``s, validating the declared columns and
    that every row has one cell per header column."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        required = list(columns.numerical) + list(columns.categorical)
        if columns.duration is not None:
            required.append(columns.duration)
        if columns.event is not None:
            required.append(columns.event)
        for col in required:
            if col not in header:
                raise SchemaError(f"column {col!r} not found in {path}")
        rows = []
        for cells in reader:
            if not cells:
                continue
            if len(cells) != len(header):
                raise SchemaError(
                    f"{path}: line {reader.line_num} has {len(cells)} cells, the header has {len(header)}"
                )
            row = RawRow(zip(header, cells))
            row.line = reader.line_num
            rows.append(row)
        return rows


def fit_schema(rows, columns):
    """Fit imputation and encoding statistics on the given (training) rows."""
    cats = []
    for name in columns.categorical:
        values = [r[name] for r in rows if r[name] != MISSING]
        if not values:
            raise SchemaError(f"categorical column {name!r} has no observed values")
        counts = {}
        for v in values:
            counts[v] = counts.get(v, 0) + 1
        # ties broken toward the smaller value for determinism
        mode = min(counts, key=lambda v: (-counts[v], v))
        vocab = {v: i for i, v in enumerate(sorted(counts))}
        cats.append(CategoricalField(name, vocab, mode))
    nums = []
    for name in columns.numerical:
        values = []
        for r in rows:
            raw = r[name]
            if raw == MISSING:
                continue
            try:
                values.append(_parse_finite(raw, f"numerical column {name!r}"))
            except ValueError as err:
                raise SchemaError(f"{err} at line {r.line}") from None
        if not values:
            raise SchemaError(f"numerical column {name!r} has no observed values")
        arr = np.asarray(values)
        std = float(arr.std())
        nums.append(NumericalField(name, float(arr.mean()), std if std > 0 else 1.0))
    return CovariateSchema(cats, nums)


def transform_rows(schema, rows, columns, require_labels=True):
    """Apply a fitted schema; labels are read when present or required."""
    records = []
    for row in rows:
        try:
            cat, num = schema.transform_row(row)
        except ValueError as err:
            raise SchemaError(f"bad covariate value at line {row.line}: {err}") from None
        if require_labels or (columns.duration in row and columns.event in row):
            try:
                t = _parse_finite(row[columns.duration], f"duration column {columns.duration!r}")
                e = _parse_finite(row[columns.event], f"event column {columns.event!r}")
            except KeyError as err:
                raise SchemaError(f"missing label column {err} at line {row.line}") from None
            except ValueError as err:
                raise SchemaError(f"bad label at line {row.line}: {err}") from None
            if not e.is_integer():
                raise SchemaError(
                    f"bad label at line {row.line}: non-integral value "
                    f"{row[columns.event]!r} in event column {columns.event!r}"
                )
            e = int(e)
        else:
            t, e = 0.0, 0
        records.append(SurvivalRecord(cat, num, t, e))
    return records


def load_csv(path, columns):
    """Read a CSV, fit the schema on all of its rows, and transform them.

    For split protocols fit on the training fold instead: read raw rows,
    ``split`` them, then ``fit_schema`` on the training partition.
    """
    rows = read_raw_csv(path, columns)
    schema = fit_schema(rows, columns)
    return schema, transform_rows(schema, rows, columns)


# --- discrete time grid ----------------------------------------------------


@dataclass
class TimeGrid:
    """Strictly increasing cut points tau_1..tau_m; tau_0 = 0 implicitly."""

    cuts: np.ndarray

    def __post_init__(self):
        self.cuts = np.asarray(self.cuts, dtype=np.float64)
        if self.cuts.size < 1 or np.any(np.diff(self.cuts) <= 0) or self.cuts[0] <= 0:
            raise ValueError("cut points must be strictly increasing and positive")

    @property
    def m(self):
        return int(self.cuts.size)

    def interval_index(self, t, clip=False):
        """Vectorized zero-based bin lookup with optional silent clamping."""
        t = np.asarray(t, dtype=np.float64)
        idx = np.searchsorted(self.cuts, t, side="left")
        if clip:
            return np.minimum(idx, self.m - 1)
        if np.any(idx >= self.m):
            raise ValueError(f"duration beyond the last cut point {self.cuts[-1]}")
        return idx

    def interval_fraction(self, t, clip=False):
        """Elapsed proportion of the bin holding t (the rho of the loss)."""
        t = np.asarray(t, dtype=np.float64)
        idx = self.interval_index(t, clip=clip)
        left = np.where(idx > 0, self.cuts[np.maximum(idx - 1, 0)], 0.0)
        width = self.cuts[idx] - left
        frac = (np.minimum(t, self.cuts[-1]) - left) / width
        return np.clip(frac, 0.0, 1.0)

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
        raise ValueError("need at least two bins")
    if durations.size == 0:
        raise ValueError("cannot build a grid from no durations")
    lo, hi = durations.min(), durations.max()
    if lo == hi:
        raise ValueError("all durations identical; the grid would be degenerate")
    if scheme == "uniform":
        cuts = np.linspace(0.0, hi, m + 1)[1:]
    elif scheme == "quantile":
        qs = np.arange(1, m + 1) / m
        cuts = np.quantile(durations, qs)
        cuts = np.unique(cuts)
        cuts = cuts[cuts > 0]
        if cuts.size < 1:
            raise ValueError("quantile cuts collapsed to nothing; durations too concentrated")
        cuts[-1] = hi
    else:
        raise ValueError(f"unknown grid scheme {scheme!r}")
    return TimeGrid(cuts)


# --- splits ----------------------------------------------------------------


def split(items, fractions, seed):
    """Deterministic disjoint partition of a sequence by fractions."""
    fractions = tuple(fractions)
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"fractions must sum to 1, got {fractions}")
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
    records = [
        SurvivalRecord(np.empty(0, dtype=np.intp), x[i].copy(), float(durations[i]), int(events[i]))
        for i in range(spec.n)
    ]
    return records, probs


def synthetic_schema(dim):
    """Identity schema for generator output (already standardized)."""
    return CovariateSchema([], [NumericalField(f"x{j + 1}") for j in range(dim)])


def save_records_csv(path, records, dim_names=None):
    """Write generator records in the standard ingestion format."""
    n_num = records[0].numerical.size
    names = dim_names or [f"x{j + 1}" for j in range(n_num)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(names + ["duration", "event"])
        for r in records:
            writer.writerow([repr(float(v)) for v in r.numerical] + [repr(float(r.duration)), r.event])


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
