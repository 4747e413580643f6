"""Survey ingestion, binary item construction and per-province summaries.

Builds the 13-item binary matrix fed to the latent trait model: four
territorial indicators derived from the provincial foreign-enrollee rate
at thresholds lambda in {0.25, 0.5, 0.75, 1}, one disability-access item,
and eight fee/reduction items taken directly from the survey file. The
quantile defining each threshold uses linear interpolation between order
statistics (the common "type 7" convention) because the indicator bits
depend on it exactly.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .latent_trait import ResponseMatrix
from .serialize import Row, _binary_cells, fmt17, read_delimited, write_delimited

# Raw binary item columns expected in the survey file, in output order
# after the four derived territorial indicators.
RAW_ITEMS = (
    "disability",
    "meal",
    "fee",
    "disability_fee",
    "full_fee",
    "isee",
    "child",
    "social_services",
    "family",
)

SURVEY_COLUMNS = (
    "unit_id",
    "province",
    "region",
    "macro_area",
    "titularity",
    "service_type",
    "sampling_weight",
    "foreign_enrolled_count",
) + RAW_ITEMS

TITULARITY_LEVELS = ("private", "public")
SERVICE_TYPE_LEVELS = ("kindergarten", "spring_section")

DEFAULT_LAMBDAS = (0.25, 0.5, 0.75, 1.0)

PROVINCE_COLUMNS = ("province_id", "region", "macro_area", "f_p", "population_units")


@dataclass(frozen=True)
class ProvinceInfo:
    """One row of the companion province file."""

    province: str
    region: str
    macro_area: str
    f_p: float
    population_units: int


@dataclass(frozen=True)
class SurveyDataset:
    """Validated unit-level survey records.

    Items are stored as float arrays with nan for missing; covariates as
    label tuples. Immutable after construction.
    """

    unit_id: tuple[str, ...]
    province: tuple[str, ...]
    region: tuple[str, ...]
    macro_area: tuple[str, ...]
    titularity: tuple[str, ...]
    service_type: tuple[str, ...]
    sampling_weight: np.ndarray
    foreign_enrolled_count: np.ndarray
    items: dict[str, np.ndarray]

    def __post_init__(self):
        n = len(self.unit_id)
        w = np.asarray(self.sampling_weight, dtype=float)
        c = np.asarray(self.foreign_enrolled_count, dtype=float)
        object.__setattr__(self, "sampling_weight", w)
        object.__setattr__(self, "foreign_enrolled_count", c)
        for name in ("province", "region", "macro_area", "titularity", "service_type"):
            if len(getattr(self, name)) != n:
                raise ValidationError(f"{name} must have one entry per unit")
        if w.shape != (n,) or not np.all(np.isfinite(w)) or np.any(w <= 0):
            raise ValidationError("sampling weights must be positive and finite")
        if c.shape != (n,) or np.any(c < 0) or not np.all(np.isfinite(c)):
            raise ValidationError("foreign enrollee counts must be nonnegative")
        if set(self.items) != set(RAW_ITEMS):
            raise ValidationError("items must cover exactly the raw item columns")
        for name, col in self.items.items():
            col = np.asarray(col, dtype=float)
            self.items[name] = col
            if col.shape != (n,):
                raise ValidationError(f"item {name!r} must have one value per unit")
            observed = col[~np.isnan(col)]
            if observed.size and not np.isin(observed, (0.0, 1.0)).all():
                raise ValidationError(f"item {name!r} contains non-binary values")
        w.setflags(write=False)
        c.setflags(write=False)

    @property
    def n_units(self) -> int:
        return len(self.unit_id)


@dataclass(frozen=True)
class ProvinceTable:
    """Per-province table.

    columns maps a column name to one value per province (nan marks an
    unsampled province); provinces fixes the row order.
    """

    provinces: tuple[str, ...]
    columns: dict[str, np.ndarray] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------


def load_provinces(path) -> dict[str, ProvinceInfo]:
    """Read the companion province file (id, nesting, f_p, frame size)."""
    _, rows = read_delimited(path, required=PROVINCE_COLUMNS)
    out: dict[str, ProvinceInfo] = {}
    for row in rows:
        pid = row["province_id"]
        if pid in out:
            row.fail(f"duplicate province {pid!r}")
        f_p = row.number("f_p")
        pop = row.integer("population_units")
        if f_p <= 0:
            row.fail(f"province {pid!r} must have a positive resident count")
        if pop < 0:
            row.fail("negative population size")
        out[pid] = ProvinceInfo(
            province=pid, region=row["region"], macro_area=row["macro_area"],
            f_p=f_p, population_units=pop,
        )
    if not out:
        raise ValidationError(f"{path}: province file is empty")
    return out


def _unit_province(row: Row, provinces: dict[str, ProvinceInfo] | None) -> ProvinceInfo | None:
    """Check the cells a survey row and a frame row share; return the row's province.

    Without a province map (a survey read on its own) the province is not
    looked up and None is returned.
    """
    info = None
    if provinces is not None:
        info = provinces.get(row["province"])
        if info is None:
            row.fail(f"province {row['province']!r} not in the province file")
    for column, levels in (("titularity", TITULARITY_LEVELS), ("service_type", SERVICE_TYPE_LEVELS)):
        if row[column] not in levels:
            row.fail(f"unknown {column} {row[column]!r}")
    return info


def _survey_record(row: Row, provinces: dict[str, ProvinceInfo] | None) -> tuple:
    """One survey row parsed in SURVEY_COLUMNS order; raises at its first problem."""
    weight = row.number("sampling_weight")
    if weight <= 0:
        row.fail("sampling_weight must be positive")
    count = row.number("foreign_enrolled_count")
    if count < 0:
        row.fail("foreign_enrolled_count must be nonnegative")
    info = _unit_province(row, provinces)
    if info is not None and (info.region, info.macro_area) != (row["region"], row["macro_area"]):
        row.fail(
            f"region/macro_area do not match the province file for province {row['province']!r}"
        )
    return (
        row["unit_id"], row["province"], row["region"], row["macro_area"],
        row["titularity"], row["service_type"], weight, count,
        *[row.binary(name) for name in RAW_ITEMS],
    )


def load_survey(path, provinces: dict[str, ProvinceInfo] | None = None) -> SurveyDataset:
    """Read and validate the unit-level survey file.

    Every invalid row is reported with its line number (the first problem
    of each, up to 20 rows). A repeated unit_id is invalid, and names the
    line of its first occurrence. When the province map is given, each
    unit's province must exist in it and the row's region/macro_area must
    match the map (the nesting hierarchy).
    """
    records, problems = [], []
    first_line: dict[str, int] = {}
    # The rows are freed when the loop ends, before the columns are built.
    for row in read_delimited(path, required=SURVEY_COLUMNS)[1]:
        try:
            first = first_line.setdefault(row["unit_id"], row.line)
            if first != row.line:
                row.fail(f"unit_id {row['unit_id']!r} repeats the unit of line {first}")
            records.append(_survey_record(row, provinces))
        except ValidationError as exc:
            problems.append(str(exc))
    if problems:
        shown = "\n".join(problems[:20])
        more = f"\n... and {len(problems) - 20} more" if len(problems) > 20 else ""
        raise ValidationError(f"survey file has {len(problems)} invalid row(s):\n{shown}{more}")
    if not records:
        raise ValidationError(f"{path}: no survey rows")

    unit_id, province, region, macro_area, titularity, service_type, weights, counts, *items = zip(
        *records
    )
    return SurveyDataset(
        unit_id=unit_id,
        province=province,
        region=region,
        macro_area=macro_area,
        titularity=titularity,
        service_type=service_type,
        sampling_weight=weights,
        foreign_enrolled_count=counts,
        items=dict(zip(RAW_ITEMS, items)),
    )


def save_survey(dataset: SurveyDataset, path) -> None:
    """Write a SurveyDataset back to the delimited schema (bit-exact round trip)."""
    rows = []
    for i in range(dataset.n_units):
        row = [
            dataset.unit_id[i],
            dataset.province[i],
            dataset.region[i],
            dataset.macro_area[i],
            dataset.titularity[i],
            dataset.service_type[i],
            fmt17(dataset.sampling_weight[i]),
            fmt17(dataset.foreign_enrolled_count[i]),
        ]
        row.extend(_binary_cells([dataset.items[name][i] for name in RAW_ITEMS]))
        rows.append(row)
    write_delimited(path, SURVEY_COLUMNS, rows)


# ---------------------------------------------------------------------------
# Territorial indicators
# ---------------------------------------------------------------------------


def foreign_rate(dataset: SurveyDataset, f_by_province: dict[str, float]) -> dict[str, float]:
    """Enrollee rate per province: summed unit counts over resident count.

    Provinces present in the map but without sampled units get rate 0.
    Raises when a province with enrollees has no positive resident count.
    """
    sums: dict[str, float] = {p: 0.0 for p in f_by_province}
    for p, c in zip(dataset.province, dataset.foreign_enrolled_count):
        if p not in sums:
            raise ValidationError(f"province {p!r} missing from the resident-count map")
        sums[p] += float(c)
    out: dict[str, float] = {}
    for p, f_p in f_by_province.items():
        if f_p <= 0:
            if sums[p] > 0:
                raise ValidationError(
                    f"province {p!r} has enrollees but no resident count to divide by"
                )
            out[p] = 0.0
        else:
            out[p] = sums[p] / f_p
    return out


def foreign_indicator(
    rates: dict[str, float],
    lam: float,
    base_values: dict[str, float] | None = None,
) -> dict[str, int]:
    """Flag provinces whose rate reaches the lambda-quantile threshold.

    The threshold is the type-7 (interpolated) empirical quantile of
    base_values, which defaults to the rates themselves; passing raw
    resident counts instead reproduces the literal count-based reading
    for sensitivity checks. Every unit of a flagged province shares the
    indicator, so the function works at province level.
    """
    if not 0.0 < lam <= 1.0:
        raise ValidationError("lambda must lie in (0, 1]")
    if not rates:
        raise ValidationError("rates must be nonempty")
    base = rates if base_values is None else base_values
    threshold = float(np.quantile(np.array(list(base.values()), dtype=float), lam))
    return {p: int(r >= threshold) for p, r in rates.items()}


def build_item_matrix(
    dataset: SurveyDataset,
    rates: dict[str, float],
    lambdas: tuple[float, ...] = DEFAULT_LAMBDAS,
) -> ResponseMatrix:
    """Assemble the binary item matrix: territorial indicators then raw items.

    Indicator columns are constant within each province by construction.
    Degenerate (constant) items are flagged on the ResponseMatrix, not
    dropped.
    """
    n = dataset.n_units
    columns: list[np.ndarray] = []
    names: list[str] = []
    for lam in lambdas:
        flags = foreign_indicator(rates, lam)
        col = np.array([float(flags[p]) for p in dataset.province])
        columns.append(col)
        names.append(f"foreign_{lam:g}")
    for name in RAW_ITEMS:
        columns.append(dataset.items[name])
        names.append(name)
    return ResponseMatrix(
        responses=np.column_stack(columns),
        unit_ids=dataset.unit_id,
        item_names=tuple(names),
        weights=dataset.sampling_weight,
    )


# ---------------------------------------------------------------------------
# Per-province summaries
# ---------------------------------------------------------------------------


def _weighted_stat(values: np.ndarray, weights: np.ndarray, statistic: str) -> float:
    if statistic == "mean":
        return float(weights @ values / weights.sum())
    order = np.argsort(values, kind="stable")
    v, w = values[order], weights[order]
    cw = np.cumsum(w) - 0.5 * w
    cw /= w.sum()

    def interp(q):
        return float(np.interp(q, cw, v))

    if statistic == "median":
        return interp(0.5)
    if statistic == "iqr":
        return interp(0.75) - interp(0.25)
    raise ValidationError(f"unsupported statistic {statistic!r}")


def _unweighted_stat(values: np.ndarray, statistic: str) -> float:
    if statistic == "mean":
        return float(values.mean())
    if statistic == "median":
        return float(np.quantile(values, 0.5))
    if statistic == "iqr":
        return float(np.quantile(values, 0.75) - np.quantile(values, 0.25))
    raise ValidationError(f"unsupported statistic {statistic!r}")


def encode_design(
    titularity,
    service_type,
    region,
    region_levels: tuple[str, ...],
) -> tuple[np.ndarray, tuple[str, ...]]:
    """One-hot design for the nested-error model, first level as reference.

    Columns: intercept, the public-titularity indicator, the
    spring-section indicator and one indicator per non-reference region.
    Macro-area indicators are linear combinations of the region ones and
    are dropped up front to keep the design full rank (logged once per
    call). Region levels are fixed from the province file so sample and
    population frame encode identically.
    """
    n = len(titularity)
    if len(service_type) != n or len(region) != n:
        raise ValidationError("covariate vectors must share a length")
    levels = tuple(sorted(region_levels))
    unknown = sorted(set(region) - set(levels))
    if unknown:
        raise ValidationError(f"unknown region(s): {', '.join(unknown)}")
    for t in titularity:
        if t not in TITULARITY_LEVELS:
            raise ValidationError(f"unknown titularity {t!r}")
    for s in service_type:
        if s not in SERVICE_TYPE_LEVELS:
            raise ValidationError(f"unknown service_type {s!r}")

    logging.getLogger(__name__).warning(
        "dropping macro-area indicators: redundant given the region indicators"
    )
    cols = [np.ones(n)]
    names = ["intercept"]
    cols.append(np.array([1.0 if t == "public" else 0.0 for t in titularity]))
    names.append("titularity_public")
    cols.append(np.array([1.0 if s == "spring_section" else 0.0 for s in service_type]))
    names.append("service_spring_section")
    reg = np.asarray(region, dtype=object)
    for r in levels[1:]:
        cols.append((reg == r).astype(float))
        names.append(f"region_{r}")
    return np.column_stack(cols), tuple(names)


def province_summary(
    values,
    dataset: SurveyDataset,
    statistic: str,
    provinces: dict[str, ProvinceInfo] | None = None,
    *,
    weighted: bool = False,
) -> ProvinceTable:
    """Per-province statistic of a unit-level variable.

    Unweighted over sampled units by default (weighted=True switches to
    the sampling-weighted variant). Provinces without sampled units are
    reported as missing. The row set is the province map when given,
    otherwise the provinces observed in the data.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (dataset.n_units,):
        raise ValidationError("values must align with the dataset's units")
    if provinces is not None:
        province_list = sorted(provinces)
    else:
        province_list = sorted(set(dataset.province))
    prov = np.asarray(dataset.province, dtype=object)

    n_sampled = np.zeros(len(province_list))
    out = np.full(len(province_list), math.nan)
    for i, p in enumerate(province_list):
        mask = prov == p
        n_sampled[i] = int(mask.sum())
        if not mask.any():
            continue
        v = values[mask]
        if weighted:
            out[i] = _weighted_stat(v, dataset.sampling_weight[mask], statistic)
        else:
            out[i] = _unweighted_stat(v, statistic)
    return ProvinceTable(
        provinces=tuple(province_list),
        columns={"n_sampled": n_sampled, statistic: out},
    )
