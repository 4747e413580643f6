import numpy as np
import pytest

from latindex.errors import SchemaError, ValidationError
from latindex.features import (
    DEFAULT_LAMBDAS,
    RAW_ITEMS,
    SURVEY_COLUMNS,
    ProvinceInfo,
    SurveyDataset,
    build_item_matrix,
    foreign_indicator,
    foreign_rate,
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
            load_survey(survey)

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

    def test_count_base_sensitivity_option(self):
        rates = {"a": 0.9, "b": 0.1}
        counts = {"a": 5.0, "b": 100.0}
        flags = foreign_indicator(rates, 0.5, base_values=counts)
        # Threshold is the quantile of the counts (52.5): no rate reaches it.
        assert flags == {"a": 0, "b": 0}

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


class TestProvinceSummary:
    def test_two_point_example(self):
        ds = small_dataset(provinces=("p1", "p1", "p2", "p2", "p3", "p3"))
        values = np.array([0.0, 1.0, 0.3, 0.3, 0.2, 0.8])
        med = province_summary(values, ds, "median")
        iqr = province_summary(values, ds, "iqr")
        i = med.provinces.index("p1")
        assert med.columns["median"][i] == pytest.approx(0.5)
        assert iqr.columns["iqr"][i] == pytest.approx(0.5)

    def test_single_unit_province(self):
        ds = small_dataset(provinces=("p1", "p2", "p2", "p2", "p2", "p2"))
        values = np.array([0.7, 0.1, 0.2, 0.3, 0.4, 0.5])
        med = province_summary(values, ds, "median")
        iqr = province_summary(values, ds, "iqr")
        i = med.provinces.index("p1")
        assert med.columns["median"][i] == pytest.approx(0.7)
        assert iqr.columns["iqr"][i] == 0.0

    def test_constant_province_iqr_zero(self):
        ds = small_dataset()
        values = np.full(6, 0.4)
        iqr = province_summary(values, ds, "iqr")
        assert np.all(iqr.columns["iqr"] == 0.0)

    def test_unsampled_province_marked_missing(self):
        ds = small_dataset()
        provinces = {p: ProvinceInfo(p, "r", "m", 1.0, 5) for p in ("p1", "p2", "p3", "p9")}
        table = province_summary(np.linspace(0, 1, 6), ds, "mean", provinces)
        i = table.provinces.index("p9")
        assert np.isnan(table.columns["mean"][i])

    def test_binary_mean_in_unit_interval(self):
        ds = small_dataset()
        table = province_summary(ds.items["meal"], ds, "mean")
        vals = table.columns["mean"]
        vals = vals[~np.isnan(vals)]
        assert np.all((vals >= 0) & (vals <= 1))

    def test_weighted_variant(self):
        ds = small_dataset(provinces=("p1",) * 6)
        object.__setattr__(ds, "sampling_weight", np.array([9.0, 1.0, 1.0, 1.0, 1.0, 1.0]))
        values = np.array([0.0, 1.0, 1.0, 1.0, 1.0, 1.0])
        unweighted = province_summary(values, ds, "mean")
        weighted = province_summary(values, ds, "mean", weighted=True)
        assert unweighted.columns["mean"][0] == pytest.approx(5 / 6)
        assert weighted.columns["mean"][0] == pytest.approx(5 / 14)
