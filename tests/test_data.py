"""Ingestion, preprocessing, time grid, splits, and the synthetic generator."""

import csv
import dataclasses
import os
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from survformer import data as D

from oracles import quantile_cuts_oracle, quantile_oracle, transform_row_oracle


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")
    return path


METABRIC_STYLE_HEADER = [
    "mki67", "egfr", "pgr", "erb2", "age",  # 5 real-valued
    "hormone", "radio", "chemo", "er_pos",  # 4 categorical
    "duration", "event",
]


def metabric_style_rows(n=30, seed=0):
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        rows.append(
            [f"{v:.3f}" for v in rng.standard_normal(5)]
            + [rng.choice(["yes", "no"]), rng.choice(["yes", "no"]),
               rng.choice(["yes", "no"]), rng.choice(["pos", "neg"])]
            + [f"{rng.uniform(1, 300):.1f}", str(int(rng.integers(0, 2)))]
        )
    return rows


def load(path, columns):
    """Read a CSV, fit the schema on all of its rows, and transform them."""
    table = D.read_raw_csv(path, columns)
    schema = D.fit_schema(table, columns)
    return schema, D.transform_rows(schema, table, columns)


def table_of(header, rows, columns, **kw):
    """``read_raw_csv`` of a CSV of ``rows`` under ``header``, written by
    ``csv``, so a row without a newline in a cell sits on lines 2, 3, ..."""
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "t.csv")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows([header, *rows])
        return D.read_raw_csv(path, columns, **kw)


class TestLoadCsv:
    def test_nine_covariates_five_real_four_categorical(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", METABRIC_STYLE_HEADER, metabric_style_rows())
        columns = D.ColumnSpec(
            numerical=METABRIC_STYLE_HEADER[:5],
            categorical=METABRIC_STYLE_HEADER[5:9],
        )
        schema, records = load(path, columns)
        assert schema.d_c == 4 and schema.d_n == 5 and schema.d == 9
        assert len(records) == 30
        assert records.cat.shape == (30, 4) and records.num.shape == (30, 5)

    def test_two_point_standardization(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["x", "duration", "event"],
                         [[1.0, 5, 1], [3.0, 6, 0]])
        schema, records = load(path, D.ColumnSpec(["x"], []))
        np.testing.assert_allclose(records.num[:, 0], [-1.0, 1.0], rtol=1e-12)

    def test_mode_imputation_and_vocabulary(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["c", "duration", "event"],
                         [["a", 1, 1], ["b", 2, 0], ["a", 3, 1], ["", 4, 0]])
        schema, records = load(path, D.ColumnSpec([], ["c"]))
        field = schema.categorical[0]
        assert field.mode == "a"
        assert field.vocabulary == {"a": 0, "b": 1}
        assert records.cat[3, 0] == 0  # imputed to the mode

    def test_numerical_mean_imputation(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["x", "duration", "event"],
                         [[2.0, 1, 1], ["", 2, 0], [4.0, 3, 1]])
        schema, records = load(path, D.ColumnSpec(["x"], []))
        assert schema.numerical[0].mean == 3.0
        assert records.num[1, 0] == 0.0  # mean maps to standardized zero

    def test_missing_column_named(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["x", "duration", "event"], [[1, 2, 1]])
        with pytest.raises(D.SchemaError, match="nosuch"):
            D.read_raw_csv(path, D.ColumnSpec(["nosuch"], []))

    def test_non_numeric_value_reports_line(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["x", "duration", "event"],
                         [[1.5, 1, 1], ["oops", 2, 0]])
        with pytest.raises(D.SchemaError, match="line 3"):
            load(path, D.ColumnSpec(["x"], []))

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_numerical_value_reports_line_and_column(self, tmp_path, bad):
        path = write_csv(tmp_path / "d.csv", ["x", "duration", "event"],
                         [[1.5, 1, 1], [bad, 2, 0]])
        with pytest.raises(D.SchemaError, match=r"line 3: .*non-finite value .* column 'x'"):
            load(path, D.ColumnSpec(["x"], []))

    def test_non_finite_value_in_transformed_rows_reports_line_and_column(self, tmp_path):
        columns = D.ColumnSpec(["x"], [])
        fit = D.read_raw_csv(write_csv(tmp_path / "a.csv", ["x", "duration", "event"],
                                       [[1.5, 1, 1], [2.5, 2, 0]]), columns)
        rows = D.read_raw_csv(write_csv(tmp_path / "b.csv", ["x", "duration", "event"],
                                        [[1.0, 1, 1], ["inf", 2, 0]]), columns)
        with pytest.raises(D.SchemaError, match=r"line 3: .*'inf' in numerical column 'x'"):
            D.transform_rows(D.fit_schema(fit, columns), rows, columns)

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_duration_rejected(self, tmp_path, bad):
        path = write_csv(tmp_path / "d.csv", ["x", "duration", "event"],
                         [[1.5, 1, 1], [2.5, bad, 0]])
        with pytest.raises(D.SchemaError, match=r"line 3: .* duration column 'duration'"):
            load(path, D.ColumnSpec(["x"], []))

    @pytest.mark.parametrize("bad", ["1.9", "nan"])
    def test_non_integral_event_label_rejected(self, tmp_path, bad):
        path = write_csv(tmp_path / "d.csv", ["x", "duration", "event"],
                         [[1.5, 1, 1], [2.5, 2, bad]])
        with pytest.raises(D.SchemaError, match=r"line 3: .* event column 'event'"):
            load(path, D.ColumnSpec(["x"], []))

    def test_integral_event_label_written_as_float_accepted(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["x", "duration", "event"],
                         [[1.5, 1, "2.0"], [2.5, 2, 0]])
        _, records = load(path, D.ColumnSpec(["x"], []))
        assert records.e[0] == 2

    def test_unseen_category_maps_to_reserved_index(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["c", "duration", "event"],
                         [["a", 1, 1], ["b", 2, 0]])
        schema, _ = load(path, D.ColumnSpec([], ["c"]))
        columns = D.ColumnSpec([], ["c"], None, None)
        records = D.transform_rows(schema, table_of(["c"], [["zebra"]], columns), columns)
        assert records.cat[0, 0] == schema.categorical[0].unknown_index == 2

    def test_fit_on_train_never_changes_test_labels(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["x", "duration", "event"],
                         [[v, 10 * v, v % 3] for v in range(1, 21)])
        columns = D.ColumnSpec(["x"], [])
        table = D.read_raw_csv(path, columns)
        train_idx, _, test_idx = D.split(range(len(table)), (0.6, 0.1, 0.3), seed=3)
        schema = D.fit_schema(table.take(train_idx), columns)
        test_table = table.take(test_idx)
        test_records = D.transform_rows(schema, test_table, columns)
        for i, line in enumerate(test_table.line):
            v = line - 1  # the row of value v sits on line v + 1
            assert test_records.t[i] == 10 * v and test_records.e[i] == v % 3
            assert test_records.line[i] == line


def number_cells():
    """Numerical cell text: plain, whitespace-padded, ``1_0``-style, missing,
    and now and then a bad cell."""
    plain = st.floats(-1e3, 1e3, allow_nan=False).map(repr)
    padded = st.tuples(plain, st.sampled_from([" ", "  ", "\t"])).map(lambda p: p[1] + p[0] + p[1])
    underscored = st.tuples(st.integers(1, 99), st.integers(0, 99)).map(lambda p: f"{p[0]}_{p[1]}")
    bad = st.sampled_from(["nan", "inf", "-inf", "oops", "1e400", "1__0"])
    return st.one_of(plain, plain, padded, underscored, st.just(""), bad)


@st.composite
def raw_tables(draw):
    """(header, fit rows, applied rows, columns, row order); the columns name
    the labels or not, whether or not the header holds them."""
    n_cat, n_num = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    if n_cat + n_num == 0:
        n_num = 1
    cats, nums = [f"c{i}" for i in range(n_cat)], [f"x{j}" for j in range(n_num)]
    with_labels = draw(st.booleans())
    header = cats + nums + (["duration", "event"] if with_labels else [])
    category = st.sampled_from(["a", "b", "zz", " a", ""])

    def rows(n, cells_for_number, fit):
        out = []
        for _ in range(n):
            row = [draw(st.sampled_from(["a", "b", "zz"]) if fit else category) for _ in cats]
            row += [draw(cells_for_number) for _ in nums]
            if with_labels:
                row += [draw(st.one_of(st.floats(0, 50).map(repr), st.sampled_from(["0", " 3.5", "", "nan", "-1"]))),
                        draw(st.sampled_from(["0", "1", "2", "2.0", " 1 ", "1.5", "", "x", "-1", "1e20"]))]
            out.append(row)
        return out

    fit = rows(draw(st.integers(1, 6)), st.floats(-10, 10).map(repr), True)
    applied = rows(draw(st.integers(1, 8)), number_cells(), False)
    order = draw(st.permutations(range(len(applied))))
    columns = D.ColumnSpec(nums, cats) if draw(st.booleans()) else D.ColumnSpec(nums, cats, None, None)
    return header, fit, applied, columns, order


class TestTransformRowsMatchesPerRowOracle:
    @given(raw_tables())
    @settings(max_examples=300, deadline=None)
    def test_bit_for_bit(self, case):
        header, fit, applied, columns, order = case
        # the fit rows' labels are drawn as freely as the applied rows'; the
        # schema does not depend on them, so it is fitted from the covariates
        covariates = D.ColumnSpec(columns.numerical, columns.categorical, None, None)
        schema = D.fit_schema(table_of(header, fit, covariates), covariates)
        # the applied rows are read with the labels their header holds
        held = ("duration", "event") if "duration" in header else (None, None)
        table = table_of(header, applied, D.ColumnSpec(columns.numerical, columns.categorical, *held))
        table = table.take(list(order))
        labels = columns.duration is not None  # read exactly when named
        rows = [dict(zip(header, applied[i])) for i in order]
        try:
            if labels and "duration" not in header:
                raise KeyError("duration")
            # errors come from the row on the earliest line, whatever the row order
            for i in np.argsort(table.line):
                transform_row_oracle(schema, columns, rows[i], table.line[i], labels)
        except KeyError:
            with pytest.raises(D.SchemaError, match="missing label column 'duration'"):
                D.transform_rows(schema, table, columns)
            return
        except ValueError as err:
            with pytest.raises(D.SchemaError) as got:
                D.transform_rows(schema, table, columns)
            assert str(got.value) == str(err)
            return
        want = [transform_row_oracle(schema, columns, row, 0, labels) for row in rows]
        records = D.transform_rows(schema, table, columns)
        cat = np.array([w[0] for w in want], dtype=np.intp).reshape(len(rows), schema.d_c)
        num = np.array([w[1] for w in want], dtype=np.float64).reshape(len(rows), schema.d_n)
        assert records.cat.dtype == np.intp and records.cat.tobytes() == cat.tobytes()
        assert records.num.dtype == np.float64 and records.num.tobytes() == num.tobytes()
        assert records.t.tobytes() == np.array([w[2] for w in want], dtype=np.float64).tobytes()
        assert records.e.tobytes() == np.array([w[3] for w in want], dtype=np.intp).tobytes()
        assert np.array_equal(records.line, table.line)


class TestBadCellNamed:
    HEADER = ["x", "y", "duration", "event"]

    def rows(self):
        return [[str(i), str(-i), str(i + 1), str(i % 3)] for i in range(12)]

    @pytest.mark.parametrize("seed", range(6))
    def test_earliest_line_whatever_the_row_order(self, seed):
        rows = self.rows()
        rows[4][1] = "inf"  # line 6
        rows[9][0] = "oops"  # line 11
        columns = D.ColumnSpec(["x", "y"], [])
        table = table_of(self.HEADER, rows, columns)
        schema = D.fit_schema(table_of(self.HEADER, self.rows(), columns), columns)
        shuffled = table.take(np.random.default_rng(seed).permutation(len(table)))
        with pytest.raises(D.SchemaError, match=r"line 6: .*'inf' in numerical column 'y'"):
            D.transform_rows(schema, shuffled, columns)
        with pytest.raises(D.SchemaError, match=r"line 6: .*'inf' in numerical column 'y'"):
            D.fit_schema(shuffled, columns)

    def test_leftmost_cell_of_the_earliest_line(self):
        rows = self.rows()
        rows[3][1], rows[3][3] = "nan", "1.5"  # line 5: y, then event
        rows[7][0] = "nan"  # line 9
        columns = D.ColumnSpec(["x", "y"], [])
        schema = D.fit_schema(table_of(self.HEADER, self.rows(), columns), columns)
        with pytest.raises(D.SchemaError, match=r"line 5: .*numerical column 'y'"):
            D.transform_rows(schema, table_of(self.HEADER, rows, columns).take(np.arange(12)[::-1]), columns)
        rows[3][1] = "1"
        with pytest.raises(D.SchemaError, match=r"line 5: non-integral value '1.5' in event column"):
            D.transform_rows(schema, table_of(self.HEADER, rows, columns), columns)

    def test_the_read_parses_each_cell_once(self, monkeypatch):
        parsed = []
        parse = D._parse
        monkeypatch.setattr(D, "_parse", lambda cells, *args: parsed.append(len(cells)) or parse(cells, *args))
        monkeypatch.setattr(D, "READ_CHUNK", 5)
        columns = D.ColumnSpec(["x", "y"], [])
        table = table_of(self.HEADER, self.rows(), columns)
        assert parsed == [5] * 8 + [2] * 4  # x, y and the two labels of each chunk of 5, 5 and 2 records
        D.transform_rows(D.fit_schema(table, columns), table, columns)
        assert len(parsed) == 12  # fitting and transforming parse nothing

    @pytest.mark.parametrize("event", ["1e20", "9007199254740992"])
    def test_event_label_past_exact_integers_names_its_line(self, event):
        rows = self.rows()
        rows[5][3] = event
        columns = D.ColumnSpec(["x", "y"], [])
        schema = D.fit_schema(table_of(self.HEADER, self.rows(), columns), columns)
        with pytest.raises(D.SchemaError, match=rf"line 7: out-of-range value '{event}' in event column"):
            D.transform_rows(schema, table_of(self.HEADER, rows, columns), columns)

    def test_negative_duration_names_its_line(self):
        rows = self.rows()
        rows[2][2] = "-0.5"
        columns = D.ColumnSpec(["x", "y"], [])
        schema = D.fit_schema(table_of(self.HEADER, self.rows(), columns), columns)
        with pytest.raises(D.SchemaError, match=r"line 4: negative value '-0.5' in duration column"):
            D.transform_rows(schema, table_of(self.HEADER, rows, columns), columns)


class TestChunkedRead:
    """``read_raw_csv`` parses ``READ_CHUNK`` records at a time; chunks of 2
    or 3 records read what one chunk does."""

    def outcome(self, rows, infer):
        """The columns, the training fold's schema, and each fold's records
        or error line."""
        declared = D.ColumnSpec([], []) if infer else D.ColumnSpec(METABRIC_STYLE_HEADER[:5],
                                                                     METABRIC_STYLE_HEADER[5:9])
        table = table_of(METABRIC_STYLE_HEADER, rows, declared, infer=infer)
        folds = [table.take(idx) for idx in D.split(range(len(table)), (0.6, 0.1, 0.3), 1)]
        schema = D.fit_schema(folds[0], table.columns)
        got = [table.columns, dataclasses.asdict(schema)]
        for fold in folds:
            try:
                records = D.transform_rows(schema, fold, table.columns)
                got.append([getattr(records, k).tobytes() for k in ("cat", "num", "t", "e", "line")])
            except D.SchemaError as err:
                got.append(str(err))
        return got

    @pytest.mark.parametrize("infer", [False, True], ids=["declared", "inferred"])
    @pytest.mark.parametrize("chunk", [2, 3])
    def test_schema_records_and_errors_equal_a_one_chunk_read(self, monkeypatch, chunk, infer):
        rows = metabric_style_rows(n=13, seed=3)
        _, validation, test = D.split(range(13), (0.6, 0.1, 0.3), 1)
        rows[4][0], rows[7][6] = "", ""  # missing cells
        rows[max(test)][1], rows[min(test)][4] = "inf", "nan"  # the earlier line is named
        rows[validation[0]][10] = "1.5"
        want = self.outcome(rows, infer)
        assert want[3] == (f"bad label at line {validation[0] + 2}: non-integral value '1.5' "
                           f"in event column 'event'")
        assert want[4].startswith(f"bad covariate value at line {min(test) + 2}: ")
        monkeypatch.setattr(D, "READ_CHUNK", chunk)
        assert self.outcome(rows, infer) == want

    @pytest.mark.parametrize("chunk", [2, 3])
    def test_a_column_numeric_in_its_first_chunk_and_text_later_is_categorical(self, monkeypatch, chunk):
        header = ["a", "b", "c", "d", "duration", "event"]
        # b is text from its first record on, a from record 3, d only in record 8
        rows = [[str(i) if i < 3 else f"t{i % 2}", "b" if i == 0 else str(i), str(i / 2),
                 "d" if i == 8 else f"{i}.5", str(i + 1), str(i % 2)] for i in range(9)]
        want = table_of(header, rows, D.ColumnSpec([], []), infer=True)
        monkeypatch.setattr(D, "READ_CHUNK", chunk)
        table = table_of(header, rows, D.ColumnSpec([], []), infer=True)
        assert table.columns == want.columns == D.ColumnSpec(["c"], ["a", "b", "d"])
        schema = D.fit_schema(table, table.columns)
        assert schema == D.fit_schema(want, want.columns)
        assert list(schema.categorical[0].vocabulary) == ["0", "1", "2", "t0", "t1"]
        records, expected = (D.transform_rows(schema, t, t.columns) for t in (table, want))
        for name in ("cat", "num", "t", "e", "line"):
            assert getattr(records, name).tobytes() == getattr(expected, name).tobytes()

    @pytest.mark.parametrize("chunk", [2, 3])
    def test_a_cell_holding_a_newline_at_a_chunk_end_keeps_later_lines(self, monkeypatch, chunk):
        monkeypatch.setattr(D, "READ_CHUNK", chunk)
        rows = [["a", str(i), str(i + 1), "1"] for i in range(7)]
        rows[chunk - 1][0] = "two\nlines"  # the first chunk's last record ends a line later
        rows[5][1] = "oops"
        columns = D.ColumnSpec(["x"], ["c"])
        table = table_of(["c", "x", "duration", "event"], rows, columns)
        lines = [i + 2 + (i >= chunk - 1) for i in range(7)]
        assert table.line.tolist() == lines
        with pytest.raises(D.SchemaError, match=rf"^bad covariate value at line {lines[5]}: .* 'oops'"):
            D.fit_schema(table, columns)
        schema = D.fit_schema(table.take([0, chunk - 1, 6]), columns)
        assert schema.categorical[0].vocabulary == {"a": 0, "two\nlines": 1}

    def test_an_inferred_text_column_costs_one_float_call(self, monkeypatch):
        # ``float()`` rejecting its first cell makes the column categorical;
        # a declared numerical column still has each cell tried, to name its
        # bad ones
        rows = [[f"t{i % 3}", str(i / 2), str(i + 1), str(i % 2)] for i in range(50)]
        text = {row[0] for row in rows}
        calls = []

        def counting(cell):
            calls.append(cell)
            return float(cell)

        monkeypatch.setattr(D, "float", counting, raising=False)
        header = ["a", "x", "duration", "event"]
        assert table_of(header, rows, D.ColumnSpec([], []), infer=True).columns == D.ColumnSpec(["x"], ["a"])
        assert sum(cell in text for cell in calls) == 1
        calls.clear()
        assert table_of(header, rows, D.ColumnSpec(["a", "x"], [])).bad["a"] == {i + 2: row[0]
                                                                              for i, row in enumerate(rows)}
        assert sum(cell in text for cell in calls) == len(rows) + 1


class TestTimeGrid:
    def test_uniform_equal_width(self):
        grid = D.build_time_grid(np.arange(1.0, 101.0), 4, "uniform")
        np.testing.assert_allclose(grid.cuts, [25.0, 50.0, 75.0, 100.0], rtol=1e-12)

    def test_quantile_matches_empirical_quantiles(self):
        durations = np.arange(1.0, 101.0)
        grid = D.build_time_grid(durations, 4, "quantile")
        expected = np.quantile(durations, [0.25, 0.5, 0.75, 1.0])
        np.testing.assert_allclose(grid.cuts, expected, rtol=1e-12)
        np.testing.assert_allclose(grid.cuts[:3], [25.75, 50.5, 75.25], rtol=1e-12)

    def test_two_bins_small_sample(self):
        grid = D.build_time_grid([1.0, 2.0], 2, "uniform")
        np.testing.assert_allclose(grid.cuts, [1.0, 2.0], rtol=1e-12)

    def test_identical_durations_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            D.build_time_grid([5.0, 5.0, 5.0], 4)

    @pytest.mark.parametrize("cuts", [[np.nan, 1.0, 2.0], [1.0, 2.0, np.inf], [np.nan]],
                             ids=["nan-first", "inf-last", "nan-only"])
    def test_nonfinite_cut_points_rejected(self, cuts):
        with pytest.raises(ValueError, match="finite, strictly increasing"):
            D.TimeGrid(np.array(cuts))

    def test_last_cut_is_max_duration(self):
        rng = np.random.default_rng(0)
        durations = rng.exponential(10.0, size=200)
        for scheme in ("uniform", "quantile"):
            grid = D.build_time_grid(durations, 10, scheme)
            assert grid.cuts[-1] == durations.max()
            assert np.all(np.diff(grid.cuts) > 0)


@st.composite
def tied_durations(draw):
    """1 to 3,000 nonnegative values at a scale from 1e-8 to 1e8, drawn from
    a pool of distinct values as small as one, so that ties are common; with
    a zero among them or not."""
    n = draw(st.integers(1, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = rng.exponential(10.0 ** draw(st.floats(-8, 8)), size=draw(st.integers(1, n)))
    if draw(st.booleans()):
        pool[0] = 0.0
    return pool[rng.integers(0, pool.size, size=n)], rng


class TestLinearQuantile:
    """``linear_quantile`` against ``np.quantile``, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(tied_durations(), st.integers(2, 60))
    def test_equals_numpys_linear_quantile(self, drawn, m):
        values, rng = drawn
        q = np.concatenate([[0.0, 1.0], rng.uniform(size=20), np.arange(1, m + 1) / m])
        before = values.copy()
        assert np.array_equal(D.linear_quantile(values, q), quantile_oracle(values, q))
        assert np.array_equal(values, before)  # the input is not sorted in place

    @settings(max_examples=300, deadline=None)
    @given(tied_durations(), st.integers(2, 60))
    def test_quantile_grid_cuts_are_numpys_unique_quantiles(self, drawn, m):
        values, _ = drawn
        assume(values.min() < values.max())
        assert np.array_equal(D.build_time_grid(values, m).cuts, quantile_cuts_oracle(values, m))

    @pytest.mark.parametrize("q", [-0.25, 1.5, np.nan])
    def test_quantile_outside_zero_one_rejected(self, q):
        with pytest.raises(ValueError, match=r"range \[0, 1\]"):
            D.linear_quantile(np.arange(4.0), [0.5, q])


class TestKappaRho:
    """Zero-based bin index (kappa - 1) and elapsed fraction (rho)."""

    def grid(self):
        return D.TimeGrid(np.array([10.0, 20.0, 30.0]))

    def test_interior_point(self):
        assert self.grid().locate(15.0)[0] == 1

    def test_boundary_belongs_to_earlier_interval(self):
        assert self.grid().locate(10.0)[0] == 0

    def test_upper_boundary(self):
        assert self.grid().locate(30.0)[0] == 2

    def test_zero_maps_to_first_interval(self):
        assert self.grid().locate(0.0)[0] == 0

    def test_beyond_grid_clamps_to_last_bin(self):
        assert self.grid().locate(35.0) == (2, 1.0)

    def test_rho_midpoint(self):
        assert self.grid().locate(15.0)[1] == 0.5

    def test_rho_right_endpoint(self):
        assert self.grid().locate(20.0)[1] == 1.0

    def test_rho_left_endpoint_limit(self):
        assert self.grid().locate(10.0 + 1e-9)[1] < 1e-6

    @given(st.floats(0.001, 30.0))
    @settings(max_examples=100, deadline=None)
    def test_interval_membership(self, t):
        grid = self.grid()
        j, r = grid.locate(t)
        left = 0.0 if j == 0 else grid.cuts[j - 1]
        assert left < t <= grid.cuts[j]
        assert 0.0 < r <= 1.0

    @given(st.floats(10.0001, 19.9999), st.floats(10.0001, 19.9999))
    @settings(max_examples=50, deadline=None)
    def test_rho_strictly_increasing_within_interval(self, a, b):
        grid = self.grid()
        if a == b:
            return
        lo, hi = min(a, b), max(a, b)
        assert grid.locate(lo)[1] < grid.locate(hi)[1]


class TestSplit:
    def test_sizes(self):
        parts = D.split(list(range(10)), (0.6, 0.1, 0.3), seed=0)
        assert tuple(len(p) for p in parts) == (6, 1, 3)

    def test_deterministic(self):
        a = D.split(list(range(50)), (0.6, 0.1, 0.3), seed=9)
        b = D.split(list(range(50)), (0.6, 0.1, 0.3), seed=9)
        assert a == b

    def test_disjoint_and_exhaustive(self):
        parts = D.split(list(range(37)), (0.6, 0.1, 0.3), seed=2)
        merged = sorted(x for p in parts for x in p)
        assert merged == list(range(37))

    def test_empty_partition_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            D.split(list(range(10)), (1.0, 0.0, 0.0), seed=0)

    @pytest.mark.parametrize("fractions", [(float("nan"), 0.5, 0.5), (0.5, float("inf"), -0.5)])
    def test_non_finite_fractions_rejected(self, fractions):
        with pytest.raises(ValueError, match="finite"):
            D.split(list(range(10)), fractions, seed=0)

    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            D.split(list(range(10)), (0.5, 0.1, 0.3), seed=0)


class TestSynthesize:
    def spec(self, **kw):
        base = dict(
            n=500, dim=3, n_events=2,
            risk_coefs=np.array([[0.8, 0.0, 0.0], [0.0, 0.8, 0.0]]),
            assign_coefs=np.zeros((2, 3)),
            censoring_rate=0.0, seed=11,
        )
        base.update(kw)
        return D.SyntheticSpec(**base)

    def test_uninformative_assignment_gives_half(self):
        _, propensities = D.synthesize(self.spec())
        np.testing.assert_allclose(propensities, 0.5, atol=1e-12)

    def test_zero_censoring_rate_means_no_censoring(self):
        records, _ = D.synthesize(self.spec())
        assert np.all(records.e > 0)

    def test_censoring_rate_hits_requested_fraction(self):
        records, _ = D.synthesize(self.spec(censoring_rate=0.25))
        assert np.sum(records.e == 0) == 125

    def test_strong_coefficient_shifts_event_share(self):
        spec = self.spec(
            n=1000,
            assign_coefs=np.array([[2.0, 0.0, 0.0], [-2.0, 0.0, 0.0]]),
        )
        records, _ = D.synthesize(spec)
        x1, e = records.num[:, 0], records.e
        share_high = np.mean(e[x1 > 1.0] == 1)
        share_low = np.mean(e[x1 < -1.0] == 1)
        assert share_high > share_low

    def test_bitwise_reproducible(self):
        a_records, a_pi = D.synthesize(self.spec())
        b_records, b_pi = D.synthesize(self.spec())
        assert np.array_equal(a_pi, b_pi)
        for name in ("cat", "num", "t", "e", "line"):
            assert np.array_equal(getattr(a_records, name), getattr(b_records, name))

    def test_csv_roundtrip(self, tmp_path):
        records, propensities = D.synthesize(self.spec(n=20))
        path = tmp_path / "synth.csv"
        D.save_records_csv(path, records)
        D.save_propensities_csv(D.sidecar_path(path), propensities)
        table = D.read_raw_csv(path, D.ColumnSpec([f"x{j + 1}" for j in range(3)], []))
        loaded = D.transform_rows(D.synthetic_schema(3), table, D.ColumnSpec(["x1", "x2", "x3"], []))
        assert len(loaded) == 20
        for name in ("num", "t", "e", "line"):
            assert np.array_equal(getattr(loaded, name), getattr(records, name))

    def test_sidecar_path(self):
        assert D.sidecar_path("out/data.csv") == "out/data.propensities.csv"
