"""Ingestion, preprocessing, time grid, splits, and the synthetic generator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from survformer import data as D


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


class TestLoadCsv:
    def test_nine_covariates_five_real_four_categorical(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", METABRIC_STYLE_HEADER, metabric_style_rows())
        columns = D.ColumnSpec(
            numerical=METABRIC_STYLE_HEADER[:5],
            categorical=METABRIC_STYLE_HEADER[5:9],
        )
        schema, records = D.load_csv(path, columns)
        assert schema.d_c == 4 and schema.d_n == 5 and schema.d == 9
        assert len(records) == 30

    def test_two_point_standardization(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["x", "duration", "event"],
                         [[1.0, 5, 1], [3.0, 6, 0]])
        schema, records = D.load_csv(path, D.ColumnSpec(["x"], []))
        np.testing.assert_allclose([r.numerical[0] for r in records], [-1.0, 1.0], rtol=1e-12)

    def test_mode_imputation_and_vocabulary(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["c", "duration", "event"],
                         [["a", 1, 1], ["b", 2, 0], ["a", 3, 1], ["", 4, 0]])
        schema, records = D.load_csv(path, D.ColumnSpec([], ["c"]))
        field = schema.categorical[0]
        assert field.mode == "a"
        assert field.vocabulary == {"a": 0, "b": 1}
        assert records[3].categorical[0] == 0  # imputed to the mode

    def test_numerical_mean_imputation(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["x", "duration", "event"],
                         [[2.0, 1, 1], ["", 2, 0], [4.0, 3, 1]])
        schema, records = D.load_csv(path, D.ColumnSpec(["x"], []))
        assert schema.numerical[0].mean == 3.0
        assert records[1].numerical[0] == 0.0  # mean maps to standardized zero

    def test_missing_column_named(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["x", "duration", "event"], [[1, 2, 1]])
        with pytest.raises(D.SchemaError, match="nosuch"):
            D.read_raw_csv(path, D.ColumnSpec(["nosuch"], []))

    def test_non_numeric_value_reports_line(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["x", "duration", "event"],
                         [[1.5, 1, 1], ["oops", 2, 0]])
        with pytest.raises(D.SchemaError, match="line 3"):
            D.load_csv(path, D.ColumnSpec(["x"], []))

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_numerical_value_reports_line_and_column(self, tmp_path, bad):
        path = write_csv(tmp_path / "d.csv", ["x", "duration", "event"],
                         [[1.5, 1, 1], [bad, 2, 0]])
        with pytest.raises(D.SchemaError, match=r"non-finite value .* column 'x' at line 3"):
            D.load_csv(path, D.ColumnSpec(["x"], []))

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
            D.load_csv(path, D.ColumnSpec(["x"], []))

    @pytest.mark.parametrize("bad", ["1.9", "nan"])
    def test_non_integral_event_label_rejected(self, tmp_path, bad):
        path = write_csv(tmp_path / "d.csv", ["x", "duration", "event"],
                         [[1.5, 1, 1], [2.5, 2, bad]])
        with pytest.raises(D.SchemaError, match=r"line 3: .* event column 'event'"):
            D.load_csv(path, D.ColumnSpec(["x"], []))

    def test_integral_event_label_written_as_float_accepted(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["x", "duration", "event"],
                         [[1.5, 1, "2.0"], [2.5, 2, 0]])
        _, records = D.load_csv(path, D.ColumnSpec(["x"], []))
        assert records[0].event == 2

    def test_unseen_category_maps_to_reserved_index(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["c", "duration", "event"],
                         [["a", 1, 1], ["b", 2, 0]])
        schema, _ = D.load_csv(path, D.ColumnSpec([], ["c"]))
        cat, _ = schema.transform_row({"c": "zebra"})
        assert cat[0] == schema.categorical[0].unknown_index == 2

    def test_fit_on_train_never_changes_test_labels(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["x", "duration", "event"],
                         [[v, 10 * v, v % 3] for v in range(1, 21)])
        columns = D.ColumnSpec(["x"], [])
        rows = D.read_raw_csv(path, columns)
        train_rows, _, test_rows = D.split(rows, (0.6, 0.1, 0.3), seed=3)
        schema = D.fit_schema(train_rows, columns)
        test_records = D.transform_rows(schema, test_rows, columns)
        for raw, rec in zip(test_rows, test_records):
            assert rec.duration == float(raw["duration"])
            assert rec.event == int(raw["event"])


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

    def test_last_cut_is_max_duration(self):
        rng = np.random.default_rng(0)
        durations = rng.exponential(10.0, size=200)
        for scheme in ("uniform", "quantile"):
            grid = D.build_time_grid(durations, 10, scheme)
            assert grid.cuts[-1] == durations.max()
            assert np.all(np.diff(grid.cuts) > 0)


class TestKappaRho:
    """Zero-based bin index (kappa - 1) and elapsed fraction (rho)."""

    def grid(self):
        return D.TimeGrid(np.array([10.0, 20.0, 30.0]))

    def test_interior_point(self):
        assert self.grid().interval_index(15.0) == 1

    def test_boundary_belongs_to_earlier_interval(self):
        assert self.grid().interval_index(10.0) == 0

    def test_upper_boundary(self):
        assert self.grid().interval_index(30.0) == 2

    def test_zero_maps_to_first_interval(self):
        assert self.grid().interval_index(0.0) == 0

    def test_beyond_grid_clamps_only_when_asked(self):
        grid = self.grid()
        assert grid.interval_index(35.0, clip=True) == 2
        assert grid.interval_fraction(35.0, clip=True) == 1.0
        with pytest.raises(ValueError, match="beyond"):
            grid.interval_index(35.0)

    def test_rho_midpoint(self):
        assert self.grid().interval_fraction(15.0) == 0.5

    def test_rho_right_endpoint(self):
        assert self.grid().interval_fraction(20.0) == 1.0

    def test_rho_left_endpoint_limit(self):
        assert self.grid().interval_fraction(10.0 + 1e-9) < 1e-6

    @given(st.floats(0.001, 30.0))
    @settings(max_examples=100, deadline=None)
    def test_interval_membership(self, t):
        grid = self.grid()
        j = int(grid.interval_index(t))
        left = 0.0 if j == 0 else grid.cuts[j - 1]
        assert left < t <= grid.cuts[j]
        r = grid.interval_fraction(t)
        assert 0.0 < r <= 1.0

    @given(st.floats(10.0001, 19.9999), st.floats(10.0001, 19.9999))
    @settings(max_examples=50, deadline=None)
    def test_rho_strictly_increasing_within_interval(self, a, b):
        grid = self.grid()
        if a == b:
            return
        lo, hi = min(a, b), max(a, b)
        assert grid.interval_fraction(lo) < grid.interval_fraction(hi)


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
        assert all(r.event > 0 for r in records)

    def test_censoring_rate_hits_requested_fraction(self):
        records, _ = D.synthesize(self.spec(censoring_rate=0.25))
        assert sum(r.event == 0 for r in records) == 125

    def test_strong_coefficient_shifts_event_share(self):
        spec = self.spec(
            n=1000,
            assign_coefs=np.array([[2.0, 0.0, 0.0], [-2.0, 0.0, 0.0]]),
        )
        records, _ = D.synthesize(spec)
        x1 = np.array([r.numerical[0] for r in records])
        e = np.array([r.event for r in records])
        share_high = np.mean(e[x1 > 1.0] == 1)
        share_low = np.mean(e[x1 < -1.0] == 1)
        assert share_high > share_low

    def test_bitwise_reproducible(self):
        a_records, a_pi = D.synthesize(self.spec())
        b_records, b_pi = D.synthesize(self.spec())
        assert np.array_equal(a_pi, b_pi)
        for ra, rb in zip(a_records, b_records):
            assert ra.duration == rb.duration and ra.event == rb.event
            assert np.array_equal(ra.numerical, rb.numerical)

    def test_csv_roundtrip(self, tmp_path):
        records, propensities = D.synthesize(self.spec(n=20))
        path = tmp_path / "synth.csv"
        D.save_records_csv(path, records)
        D.save_propensities_csv(D.sidecar_path(path), propensities)
        schema, loaded = D.load_csv(
            path, D.ColumnSpec([f"x{j + 1}" for j in range(3)], [])
        )
        assert len(loaded) == 20
        assert [r.event for r in loaded] == [r.event for r in records]

    def test_sidecar_path(self):
        assert D.sidecar_path("out/data.csv") == "out/data.propensities.csv"
