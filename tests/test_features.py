import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latindex.errors import SchemaError, ValidationError
from latindex.features import (
    DEFAULT_LAMBDAS,
    FRAME_COLUMNS,
    RAW_ITEMS,
    SURVEY_COLUMNS,
    ProvinceInfo,
    SurveyDataset,
    build_item_matrix,
    foreign_indicator,
    foreign_rate,
    load_frame,
    load_provinces,
    load_survey,
    province_summary,
    save_survey,
)


def write_province_file(path, rows):
    header = "province_id,region,macro_area,f_p,population_units\n"
    path.write_text(header + "".join(f"{','.join(map(str, r))}\n" for r in rows))


def survey_header():
    return ",".join(SURVEY_COLUMNS) + "\n"


def small_dataset(n=6, provinces=("p1", "p1", "p2", "p2", "p3", "p3")):
    rng = np.random.default_rng(5)
    items = {name: rng.integers(0, 2, size=n).astype(float) for name in RAW_ITEMS}
    region = {"p1": "r1", "p2": "r1", "p3": "r2"}
    macro = {"r1": "north", "r2": "south"}
    return SurveyDataset(
        unit_id=tuple(f"u{i}" for i in range(n)),
        province=tuple(provinces),
        region=tuple(region[p] for p in provinces),
        macro_area=tuple(macro[region[p]] for p in provinces),
        titularity=tuple(["public", "private"] * (n // 2)),
        service_type=tuple(["kindergarten"] * n),
        sampling_weight=np.ones(n),
        foreign_enrolled_count=np.array([2.0, 3.0, 0.0, 1.0, 5.0, 0.0]),
        items=items,
    )


class TestLoadSurvey:
    def make_files(self, tmp_path, survey_rows):
        provinces = tmp_path / "provinces.csv"
        write_province_file(
            provinces,
            [
                ("p1", "r1", "north", 10, 8),
                ("p2", "r1", "north", 20, 8),
                ("p3", "r2", "south", 5, 8),
            ],
        )
        survey = tmp_path / "survey.csv"
        survey.write_text(survey_header() + "".join(survey_rows))
        return survey, provinces

    def well_formed_row(self, uid="u1", province="p1", region="r1", macro="north",
                        weight="1.5"):
        items = ",".join(["1", "0", "1", "", "0", "1", "0", "1", "0"])
        return f"{uid},{province},{region},{macro},public,kindergarten,{weight},2,{items}\n"

    def test_well_formed_file(self, tmp_path):
        rows = [
            self.well_formed_row("u1", "p1"),
            self.well_formed_row("u2", "p2"),
            self.well_formed_row("u3", "p3", region="r2", macro="south"),
        ]
        survey, provinces = self.make_files(tmp_path, rows)
        ds = load_survey(survey, load_provinces(provinces))
        assert ds.n_units == 3
        assert np.isnan(ds.items["disability_fee"][0])

    def test_zero_weight_rejected_with_row_number(self, tmp_path):
        rows = [self.well_formed_row("u1"), self.well_formed_row("u2", weight="0")]
        survey, provinces = self.make_files(tmp_path, rows)
        with pytest.raises(ValidationError, match=":3"):
            load_survey(survey, load_provinces(provinces))

    def test_unknown_province_is_hierarchy_error(self, tmp_path):
        rows = [self.well_formed_row("u1", province="nowhere")]
        survey, provinces = self.make_files(tmp_path, rows)
        with pytest.raises(ValidationError, match="nowhere"):
            load_survey(survey, load_provinces(provinces))

    def test_mismatched_region_rejected(self, tmp_path):
        rows = [self.well_formed_row("u1", province="p3", region="r1", macro="north")]
        survey, provinces = self.make_files(tmp_path, rows)
        with pytest.raises(ValidationError, match="p3"):
            load_survey(survey, load_provinces(provinces))

    def test_repeated_unit_id_names_both_lines(self, tmp_path):
        rows = [self.well_formed_row("u1"), self.well_formed_row("u2"), "\n", self.well_formed_row("u1", "p2")]
        survey, provinces = self.make_files(tmp_path, rows)
        with pytest.raises(ValidationError, match=f"{survey}:5: unit_id 'u1' repeats the unit of line 2"):
            load_survey(survey, load_provinces(provinces))

    def test_missing_column_is_schema_error(self, tmp_path):
        survey = tmp_path / "survey.csv"
        survey.write_text("unit_id,province\nu1,p1\n")
        with pytest.raises(SchemaError, match="mandatory"):
            load_survey(survey, {})

    def test_non_binary_item_rejected(self, tmp_path):
        row = self.well_formed_row("u1").replace(",1,0,1,", ",2,0,1,", 1)
        survey, provinces = self.make_files(tmp_path, [row])
        with pytest.raises(ValidationError, match="0, 1 or empty"):
            load_survey(survey, load_provinces(provinces))

    def test_round_trip_is_bit_exact(self, tmp_path):
        rows = [
            self.well_formed_row("u1", "p1", weight="1.2345678901234567"),
            self.well_formed_row("u2", "p2", weight="0.73"),
        ]
        survey, provinces = self.make_files(tmp_path, rows)
        ds = load_survey(survey, load_provinces(provinces))
        out = tmp_path / "resaved.csv"
        save_survey(ds, out)
        ds2 = load_survey(out, load_provinces(provinces))
        assert ds2.unit_id == ds.unit_id
        np.testing.assert_array_equal(ds2.sampling_weight, ds.sampling_weight)
        for name in RAW_ITEMS:
            np.testing.assert_array_equal(ds2.items[name], ds.items[name])
        out2 = tmp_path / "resaved2.csv"
        save_survey(ds2, out2)
        assert out.read_bytes() == out2.read_bytes()


class TestLoadFrame:
    def provinces(self, tmp_path):
        path = tmp_path / "provinces.csv"
        write_province_file(path, [("p1", "r1", "north", 10, 8), ("p3", "r2", "south", 5, 8)])
        return load_provinces(path)

    def test_columns_in_encode_design_order(self, tmp_path):
        frame = tmp_path / "frame.csv"
        frame.write_text(
            ",".join(FRAME_COLUMNS) + "\n" + "f1,p3,public,kindergarten\n" + "f2,p1,private,spring_section\n"
        )
        assert load_frame(frame, self.provinces(tmp_path)) == (
            ("p3", "p1"), ("public", "private"), ("kindergarten", "spring_section"), ("r2", "r1")
        )

    def test_header_only_frame_gives_empty_columns(self, tmp_path):
        frame = tmp_path / "frame.csv"
        frame.write_text(",".join(FRAME_COLUMNS) + "\n")
        assert load_frame(frame, self.provinces(tmp_path)) == ((), (), (), ())


class TestForeignRate:
    def test_direct_ratio(self):
        ds = small_dataset()
        rates = foreign_rate(ds, {"p1": 10.0, "p2": 20.0, "p3": 5.0})
        assert rates["p1"] == pytest.approx(0.5)  # (2+3)/10
        assert rates["p2"] == pytest.approx(0.05)  # (0+1)/20
        assert rates["p3"] == pytest.approx(1.0)  # (5+0)/5

    def test_no_enrollees_gives_zero(self):
        ds = small_dataset()
        rates = foreign_rate(ds, {"p1": 10.0, "p2": 20.0, "p3": 5.0, "p4": 7.0})
        assert rates["p4"] == 0.0

    def test_zero_residents_with_enrollees_is_error(self):
        ds = small_dataset()
        with pytest.raises(ValidationError, match="p1"):
            foreign_rate(ds, {"p1": 0.0, "p2": 20.0, "p3": 5.0})


class TestForeignIndicator:
    def test_worked_example(self):
        # Threshold at lambda=0.5 is 0.25 by interpolation; the two larger
        # rates are flagged.
        rates = {"a": 0.1, "b": 0.2, "c": 0.3, "d": 0.4}
        flags = foreign_indicator(rates, 0.5)
        assert flags == {"a": 0, "b": 0, "c": 1, "d": 1}

    def test_lambda_one_flags_only_the_maximum(self):
        rates = {"a": 0.1, "b": 0.2, "c": 0.3, "d": 0.4}
        flags = foreign_indicator(rates, 1.0)
        assert flags == {"a": 0, "b": 0, "c": 0, "d": 1}

    def test_nesting_across_lambdas(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            rates = {f"p{i}": float(rng.uniform()) for i in range(rng.integers(3, 30))}
            f25 = foreign_indicator(rates, 0.25)
            f50 = foreign_indicator(rates, 0.5)
            f75 = foreign_indicator(rates, 0.75)
            for p in rates:
                assert f75[p] <= f50[p] <= f25[p]

    def test_rejects_bad_lambda(self):
        with pytest.raises(ValidationError):
            foreign_indicator({"a": 0.1}, 0.0)


class TestBuildItemMatrix:
    def test_thirteen_columns_in_order(self):
        ds = small_dataset()
        rates = foreign_rate(ds, {"p1": 10.0, "p2": 20.0, "p3": 5.0})
        matrix = build_item_matrix(ds, rates)
        expected = tuple(f"foreign_{lam:g}" for lam in DEFAULT_LAMBDAS) + RAW_ITEMS
        assert matrix.item_names == expected
        assert matrix.n_items == 13

    def test_foreign_columns_constant_within_province(self):
        ds = small_dataset()
        rates = foreign_rate(ds, {"p1": 10.0, "p2": 20.0, "p3": 5.0})
        matrix = build_item_matrix(ds, rates)
        prov = np.asarray(ds.province, dtype=object)
        for j in range(4):
            col = matrix.responses[:, j]
            for p in set(ds.province):
                assert len(set(col[prov == p])) == 1

    def test_foreign_columns_match_indicator(self):
        ds = small_dataset()
        rates = foreign_rate(ds, {"p1": 10.0, "p2": 20.0, "p3": 5.0})
        matrix = build_item_matrix(ds, rates)
        for j, lam in enumerate(DEFAULT_LAMBDAS):
            flags = foreign_indicator(rates, lam)
            expected = np.array([float(flags[p]) for p in ds.province])
            np.testing.assert_array_equal(matrix.responses[:, j], expected)

    def test_weights_travel_with_the_matrix(self):
        ds = small_dataset()
        rates = foreign_rate(ds, {"p1": 10.0, "p2": 20.0, "p3": 5.0})
        matrix = build_item_matrix(ds, rates)
        np.testing.assert_array_equal(matrix.weights, ds.sampling_weight)


def survey_of(province, weights):
    """A SurveyDataset with the given unit provinces and weights (other cells fixed)."""
    n = len(province)
    return SurveyDataset(
        unit_id=tuple(f"u{i}" for i in range(n)),
        province=tuple(province),
        region=("r1",) * n,
        macro_area=("north",) * n,
        titularity=("public",) * n,
        service_type=("kindergarten",) * n,
        sampling_weight=np.asarray(weights, dtype=float),
        foreign_enrolled_count=np.zeros(n),
        items={name: np.zeros(n) for name in RAW_ITEMS},
    )


def reference_summary(values, ds, provinces, weighted):
    """One masked scan per province and statistic, as the report's summary once ran."""
    prov = np.asarray(ds.province, dtype=object)
    n_sampled, median, iqr = [], [], []
    for p in sorted(provinces):
        mask = prov == p
        n_sampled.append(int(mask.sum()))
        if not mask.any():
            median.append(np.nan)
            iqr.append(np.nan)
            continue
        v = values[mask]
        if weighted:
            order = np.argsort(v, kind="stable")
            v, w = v[order], ds.sampling_weight[mask][order]
            cw = np.cumsum(w) - 0.5 * w
            cw /= w.sum()
            median.append(float(np.interp(0.5, cw, v)))
            iqr.append(float(np.interp(0.75, cw, v)) - float(np.interp(0.25, cw, v)))
        else:
            median.append(float(np.quantile(v, 0.5)))
            iqr.append(float(np.quantile(v, 0.75) - np.quantile(v, 0.25)))
    return np.array(n_sampled), np.array(median), np.array(iqr)


def info(p):
    return ProvinceInfo(p, "r1", "north", 1.0, 5)


class TestProvinceSummary:
    def test_two_point_example(self):
        ds = small_dataset(provinces=("p1", "p1", "p2", "p2", "p3", "p3"))
        values = np.array([0.0, 1.0, 0.3, 0.3, 0.2, 0.8])
        n_sampled, median, iqr = province_summary(values, ds, {p: info(p) for p in ("p1", "p2", "p3")}, weighted=False)
        assert n_sampled[0] == 2
        assert median[0] == pytest.approx(0.5)
        assert iqr[0] == pytest.approx(0.5)

    def test_single_unit_province(self):
        ds = small_dataset(provinces=("p1", "p2", "p2", "p2", "p2", "p2"))
        values = np.array([0.7, 0.1, 0.2, 0.3, 0.4, 0.5])
        n_sampled, median, iqr = province_summary(values, ds, {p: info(p) for p in ("p1", "p2")}, weighted=False)
        assert n_sampled[0] == 1
        assert median[0] == pytest.approx(0.7)
        assert iqr[0] == 0.0

    def test_constant_province_iqr_zero(self):
        ds = small_dataset()
        values = np.full(6, 0.4)
        _, _, iqr = province_summary(values, ds, {p: info(p) for p in ("p1", "p2", "p3")}, weighted=False)
        assert np.all(iqr == 0.0)

    def test_unsampled_province_marked_missing(self):
        ds = small_dataset()
        provinces = {p: info(p) for p in ("p1", "p2", "p3", "p9")}
        n_sampled, median, iqr = province_summary(np.linspace(0, 1, 6), ds, provinces, weighted=False)
        assert n_sampled[3] == 0
        assert np.isnan(median[3]) and np.isnan(iqr[3])

    def test_weighted_variant(self):
        ds = small_dataset(provinces=("p1",) * 6)
        object.__setattr__(ds, "sampling_weight", np.array([9.0, 1.0, 1.0, 1.0, 1.0, 1.0]))
        values = np.array([0.0, 1.0, 1.0, 1.0, 1.0, 1.0])
        _, median, iqr = province_summary(values, ds, {"p1": info("p1")}, weighted=False)
        assert (median[0], iqr[0]) == (1.0, 0.0)
        # Cumulative weight midpoints (4.5, 9.5, 10.5, ...) / 14 put the
        # weighted median halfway between the 0 and the first 1.
        _, median, iqr = province_summary(values, ds, {"p1": info("p1")}, weighted=True)
        assert median[0] == pytest.approx(0.5)
        assert iqr[0] == 1.0

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 12).flatmap(
            lambda K: st.tuples(
                st.just(K),
                st.lists(
                    st.tuples(
                        st.integers(0, K - 1),
                        st.one_of(st.sampled_from((0.0, 0.25, 1 / 3, 0.5, 1.0)), st.floats(0.0, 1.0)),
                        st.one_of(st.sampled_from((0.5, 1.0, 3.0)), st.floats(0.01, 100.0)),
                    ),
                    min_size=1,
                    max_size=40,
                ),
            )
        ),
        st.booleans(),
    )
    def test_one_pass_equals_one_scan_per_statistic(self, case, weighted):
        # Ragged provinces (p10 sorts before p2), tied values and weights,
        # single-unit provinces and provinces of the map with no units.
        K, units = case
        names = [f"p{k}" for k in range(K)]
        ds = survey_of([names[k] for k, _, _ in units], [w for _, _, w in units])
        values = np.array([v for _, v, _ in units])
        provinces = {p: info(p) for p in names}
        got = province_summary(values, ds, provinces, weighted=weighted)
        want = reference_summary(values, ds, provinces, weighted)
        for g, w in zip(got, want):
            assert np.array_equal(g, w, equal_nan=True)
