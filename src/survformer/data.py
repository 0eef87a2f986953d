"""Dataset representation, CSV ingestion, time discretization and synthesis.

Covariate preprocessing is fit/transform: numerical fields are imputed with
the fitted mean and standardized to zero mean, unit (population) std;
categorical fields are imputed with the fitted mode and mapped to dense
vocabulary indices, with one reserved index for values unseen at fit time.
Fitting statistics must come from the training fold only; callers that split
should split the raw table first and fit on the training rows.

A cohort is columnar from ingestion on: ``read_raw_csv`` parses a CSV chunk
by chunk into a ``Table`` of float and code columns, and ``transform_rows``
turns it into ``Records``, one array per covariate block and label. A bad
cell raises ``SchemaError`` naming the earliest CSV line among the rows being
read, whatever their order; ``_read_floats`` judges cells for both fit and
transform. ``TimeGrid.locate`` is the one time-bin lookup.

The fitted schema is plain dataclasses: a checkpoint stores ``asdict`` of it,
and ``model.FIELDS`` holds the rules its entries are judged by on loading.
``echo`` is the one cut of an outside value quoted in an error message.
"""

import csv
import itertools
import json
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


def read_json(path, what):
    """The JSON value in the file at ``path``, less a UTF-8 byte-order mark;
    one ValueError names ``what`` (its role) and ``path`` if it cannot be."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as err:  # the last, for deep nesting
        raise ValueError(f"{what} {path} cannot be read as UTF-8 JSON: {err}") from None


def allocate(what, shape, make):
    """``make()``, which builds an array of ``shape``; numpy's refusal to
    allocate that shape becomes one ValueError naming ``what`` and it."""
    try:
        return make()
    except (MemoryError, ValueError):
        raise ValueError(f"cannot allocate {what} of shape {echo(shape)}") from None


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
            repeated = next(name for i, name in enumerate(names) if name in names[:i])
            raise SchemaError(f"covariate field names must be unique, got {echo(repeated)} more than once")
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
class ColumnSpec:
    """Which CSV columns are covariates and which carry the labels."""

    numerical: list
    categorical: list
    duration: str = "duration"
    event: str = "event"

    def __post_init__(self):
        if self.duration is not None and self.duration == self.event:
            raise ValueError(f"the duration and event labels must name different columns, both name {echo(self.event)}")
        for name in (*self.numerical, *self.categorical):
            if name in (self.duration, self.event):
                raise ValueError(f"label column {echo(name)} is also declared a covariate")


READ_CHUNK = 4096  # records parsed at a time


@dataclass
class Table:
    """A CSV's records as parsed columns; errors name a record by its CSV ``line``."""

    columns: ColumnSpec  # as read, inferred covariates included
    line: np.ndarray
    numbers: dict  # numerical or label column -> floats, NaN where missing or unparsable
    codes: dict  # categorical column -> (its distinct cells, each record's index into them)
    bad: dict  # numerical or label column -> {line: text} of its bad cells, judged per fold

    def __len__(self):
        return len(self.line)

    def take(self, idx):
        idx = np.asarray(idx, dtype=np.intp)
        codes = {name: (values, c[idx]) for name, (values, c) in self.codes.items()}
        return Table(self.columns, self.line[idx], {name: a[idx] for name, a in self.numbers.items()}, codes, self.bad)


def _chunks(path):
    """The CSV's header, less a UTF-8 byte-order mark, then (lines, rows) of up
    to ``READ_CHUNK`` records at a time, skipping blank rows; a row whose cell
    count is not the header's, or a line ``csv`` cannot read, raises ``SchemaError``."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
            yield header
            lines, rows = [], []
            for cells in reader:
                if not cells:
                    continue
                if len(cells) != len(header):
                    raise SchemaError(f"{path}: line {reader.line_num} has {len(cells)} cells, "
                                      f"the header has {len(header)}")
                rows.append(cells)
                lines.append(reader.line_num)
                if len(rows) == READ_CHUNK:
                    yield lines, rows
                    lines, rows = [], []
        except csv.Error as err:
            raise SchemaError(f"{path}: line {reader.line_num}: {err}") from None
    if rows:
        yield lines, rows


def _parse(cells, kind, inferred=False):
    """``float()`` of a chunk of a numerical, duration or event column's cells,
    NaN where missing or rejected, and the mask of bad cells (rejected, not
    finite, a missing or negative label, a non-integral event); None for an
    ``inferred`` column once ``float()`` rejects a cell, as it is categorical."""
    cells = np.array(cells, dtype=object)
    present = cells != MISSING if kind == "numerical" else np.ones(len(cells), dtype=bool)
    values = np.full(len(cells), np.nan)
    try:
        values[present] = np.fromiter(map(float, cells[present]), np.float64)
    except ValueError:
        if inferred:
            return None
        for i in np.flatnonzero(present):
            try:
                values[i] = float(cells[i])
            except ValueError:
                pass
    # events from 2**53 on are no longer exact integers, nor safe to cast
    valid = np.isfinite(values) if kind != "event" else (values == np.floor(values)) & (values < 2.0**53)
    if kind != "numerical":
        valid &= values >= 0
    return values, present & ~valid


def _code(cells, index):
    """Each cell's index in the running dict ``index``, extended by new cells."""
    for v in dict.fromkeys(cells):  # the distinct cells, in first-seen order
        index.setdefault(v, len(index))
    return np.fromiter(map(index.__getitem__, cells), np.intp, len(cells))


def read_raw_csv(path, columns, infer=False):
    """Parse a CSV's declared columns into a ``Table``, ``READ_CHUNK`` records
    at a time: numerical and label cells by ``float()``, categorical ones into
    running dicts. With ``infer``, each other column but the labels is
    numerical if ``float()`` takes its present cells, else categorical; one
    that ``float()`` first rejects after the first chunk re-reads the chunks before."""
    chunks = _chunks(path)
    header = next(chunks)
    labels = {n: kind for kind, n in (("duration", columns.duration), ("event", columns.event)) if n is not None}
    for col in [*columns.numerical, *columns.categorical, *labels]:
        if col not in header:
            raise SchemaError(f"column {echo(col)} not found in {path}")
    inferred = [h for h in header if h not in {*columns.numerical, *columns.categorical, *labels}] if infer else []
    where = {h: k for k, h in enumerate(header)}  # a name's last column, as a dict of the row holds
    kinds = {**dict.fromkeys([*columns.numerical, *inferred], "numerical"), **labels}
    ids = {name: {} for name in columns.categorical}
    numbers, codes, bad, lines = {name: [] for name in kinds}, {}, {name: {} for name in kinds}, []
    for chunk_lines, rows in chunks:
        cells = list(zip(*rows))
        for name, kind in list(kinds.items()):
            parsed = _parse(cells[where[name]], kind, name in inferred)
            if parsed is None:  # categorical: its earlier chunks are read again
                del kinds[name], numbers[name], bad[name]
                ids[name] = {}
                earlier = itertools.islice(_chunks(path), 1, len(lines) + 1) if lines else ()
                codes[name] = [_code([row[where[name]] for row in old], ids[name]) for _, old in earlier]
                continue
            values, wrong = parsed
            numbers[name].append(values)
            bad[name].update((chunk_lines[i], cells[where[name]][i]) for i in np.flatnonzero(wrong))
        for name, index in ids.items():
            codes.setdefault(name, []).append(_code(cells[where[name]], index))
        lines.append(np.array(chunk_lines, dtype=np.intp))
    if not lines:
        raise SchemaError(f"{path}: no data rows")
    spec = ColumnSpec([*columns.numerical, *(h for h in inferred if h in kinds)],
                      [*columns.categorical, *(h for h in inferred if h in ids)], columns.duration, columns.event)
    numbers = {name: np.concatenate(parts) for name, parts in numbers.items()}
    codes = {name: (list(ids[name]), np.concatenate(parts)) for name, parts in codes.items()}
    return Table(spec, np.concatenate(lines), numbers, codes, bad)


def _column(arrays, name):
    if name not in arrays:
        raise SchemaError(f"column {echo(name)} not found")
    return arrays[name]


def _read_floats(table, columns, numerical):
    """The ``numerical`` columns' values, then the duration and event that
    ``columns`` names (zeros when it names none). A bad cell raises the
    ``SchemaError`` of the earliest CSV line that holds one, and on that line
    of the leftmost: the numerical columns in order, then the labels."""
    read = [("numerical", name) for name in numerical]
    if (columns.duration, columns.event) != (None, None):
        read += [("duration", columns.duration), ("event", columns.event)]
    parsed, errors = [], []
    for j, (kind, name) in enumerate(read):
        if kind != "numerical" and name not in table.numbers:
            raise SchemaError(f"missing label column {echo(name)}")
        values, bad = _column(table.numbers, name), table.bad[name]
        hit = table.line[np.isin(table.line, list(bad))] if bad else ()
        if len(hit):
            line = hit.min()
            v = values[np.argmax(table.line == line)]
            problem = ("non-numeric or non-finite" if not np.isfinite(v) else
                       "non-integral" if kind == "event" and v != np.floor(v) else
                       "negative" if v < 0 else "out-of-range")
            subject = "covariate value" if kind == "numerical" else "label"
            errors.append((line, j, f"bad {subject} at line {line}: {problem} value "
                           f"{echo(bad[line])} in {kind} column {echo(name)}"))
        parsed.append(values)
    if errors:
        raise SchemaError(min(errors)[2])
    return parsed[: len(numerical)], *(parsed[len(numerical) :] or [np.zeros(len(table)), np.zeros(len(table))])


def fit_schema(table, columns):
    """Fit imputation and encoding statistics on the given (training) rows.
    A bad numerical or label cell raises the ``SchemaError`` that
    ``transform_rows`` gives for it, so the earliest line's is named."""
    cats = []
    for name in columns.categorical:
        values, codes = _column(table.codes, name)
        count = dict(zip(values, np.bincount(codes, minlength=len(values)).tolist()))
        values = sorted(v for v, c in count.items() if c and v != MISSING)
        if not values:
            raise SchemaError(f"categorical column {echo(name)} has no observed values")
        # the first largest count in sorted order: ties broken toward the smaller value
        mode = max(values, key=count.__getitem__)
        cats.append(CategoricalField(name, {v: i for i, v in enumerate(values)}, mode))
    parsed, _, _ = _read_floats(table, columns, columns.numerical)
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
    ``columns`` names them. A bad cell raises as ``_read_floats`` says."""
    n = len(table)
    cat = np.empty((n, schema.d_c), dtype=np.intp)
    for i, f in enumerate(schema.categorical):
        values, codes = _column(table.codes, f.name)
        index = [f.vocabulary.get(f.mode if v == MISSING else v, f.unknown_index) for v in values]
        cat[:, i] = np.asarray(index, dtype=np.intp)[codes]
    parsed, t, e = _read_floats(table, columns, [f.name for f in schema.numerical])
    num = np.empty((n, schema.d_n))
    for j, (f, values) in enumerate(zip(schema.numerical, parsed)):
        num[:, j] = (np.where(np.isnan(values), f.mean, values) - f.mean) / f.std
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


def linear_quantile(values, q):
    """``np.quantile(values, q)`` by its default (linear) method, bit for bit, without
    the bare ``np.unique`` that imports ``numpy.ma``; interpolated as numpy's ``_lerp``."""
    values, q = np.sort(values, axis=None), np.asarray(q, dtype=np.float64)
    if not ((q >= 0) & (q <= 1)).all():
        raise ValueError("Quantiles must be in the range [0, 1]")
    at = (values.size - 1) * q
    lo = np.where(at >= values.size - 1, -1, np.floor(at)).astype(np.intp)  # -1: the last value, as numpy takes it
    t = at - lo
    a, b = values[lo], values[np.where(lo < 0, -1, lo + 1)]
    return np.where(t >= 0.5, b - (b - a) * (1 - t), a + (b - a) * t)


def build_time_grid(durations, m, scheme="quantile"):
    """Discretize training durations into m bins.

    ``quantile`` places cuts at the ``linear_quantile``s j/m of the durations,
    merged as ``np.unique`` merges them; ``uniform`` places equal-width cuts
    on (0, max]. The last cut is always the maximum training duration.
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
        cuts = np.sort(linear_quantile(durations, allocate("the time_bins grid", (m,), lambda: np.arange(1, m + 1) / m)))
        cuts = cuts[(cuts > 0) & np.append(True, cuts[1:] != cuts[:-1])]
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
    ends = np.cumsum(sizes)
    return tuple([items[i] for i in order[end - size : end]] for size, end in zip(sizes, ends))


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
        durations[censored_idx] *= rng.uniform(size=n_cens)
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
    return f"{stem}.propensities.{ext}" if dot else f"{csv_path}.propensities.csv"
