"""Input tables (survey, provinces, population frame), binary item
construction and per-province summaries.

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
from dataclasses import dataclass

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

# The points of a province summary: its median, and its IQR as q3 - q1.
_QUARTILES = (0.25, 0.5, 0.75)

PROVINCE_COLUMNS = ("province_id", "region", "macro_area", "f_p", "population_units")

# The population frame: one row per population unit not in the sample.
FRAME_COLUMNS = ("unit_id", "province", "titularity", "service_type")


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
        if pop == 0:
            row.fail(f"province {pid!r} must have at least one population unit")
        out[pid] = ProvinceInfo(
            province=pid, region=row["region"], macro_area=row["macro_area"],
            f_p=f_p, population_units=pop,
        )
    if not out:
        raise ValidationError(f"{path}: province file is empty")
    return out


def _unit_province(row: Row, provinces: dict[str, ProvinceInfo]) -> ProvinceInfo:
    """Check the cells a survey row and a frame row share; return the row's province."""
    info = provinces.get(row["province"])
    if info is None:
        row.fail(f"province {row['province']!r} not in the province file")
    for column, levels in (("titularity", TITULARITY_LEVELS), ("service_type", SERVICE_TYPE_LEVELS)):
        if row[column] not in levels:
            row.fail(f"unknown {column} {row[column]!r}")
    return info


def _survey_record(row: Row, provinces: dict[str, ProvinceInfo]) -> tuple:
    """One survey row parsed in SURVEY_COLUMNS order; raises at its first problem."""
    weight = row.number("sampling_weight")
    if weight <= 0:
        row.fail("sampling_weight must be positive")
    count = row.number("foreign_enrolled_count")
    if count < 0:
        row.fail("foreign_enrolled_count must be nonnegative")
    info = _unit_province(row, provinces)
    if (info.region, info.macro_area) != (row["region"], row["macro_area"]):
        row.fail(
            f"region/macro_area do not match the province file for province {row['province']!r}"
        )
    return (
        row["unit_id"], row["province"], row["region"], row["macro_area"],
        row["titularity"], row["service_type"], weight, count,
        *[row.binary(name) for name in RAW_ITEMS],
    )


def load_survey(path, provinces: dict[str, ProvinceInfo]) -> SurveyDataset:
    """Read and validate the unit-level survey file.

    Every invalid row is reported with its line number (the first problem
    of each, up to 20 rows). A repeated unit_id is invalid, and names the
    line of its first occurrence. Each unit's province must exist in the
    province map, and the row's region/macro_area must match the map (the
    nesting hierarchy).
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


def load_frame(path, provinces: dict[str, ProvinceInfo]) -> tuple[tuple[str, ...], ...]:
    """Read the population frame: (province, titularity, service_type, region).

    Each row gets the survey's check of the cells the two files share,
    and raises at its first problem; the last three columns are
    encode_design's arguments. A frame with no rows gives empty columns.
    """
    _, rows = read_delimited(path, required=FRAME_COLUMNS)
    region = tuple(_unit_province(row, provinces).region for row in rows)
    province, titularity, service_type = (tuple(row[c] for row in rows) for c in FRAME_COLUMNS[1:])
    return province, titularity, service_type, region


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


def foreign_indicator(rates: dict[str, float], lam: float) -> dict[str, int]:
    """Flag provinces whose rate reaches the lambda-quantile threshold.

    The threshold is the type-7 (interpolated) empirical quantile of the
    rates. Every unit of a flagged province shares the indicator, so the
    function works at province level.
    """
    if not 0.0 < lam <= 1.0:
        raise ValidationError("lambda must lie in (0, 1]")
    if not rates:
        raise ValidationError("rates must be nonempty")
    threshold = float(np.quantile(np.array(list(rates.values()), dtype=float), lam))
    return {p: int(r >= threshold) for p, r in rates.items()}


def build_item_matrix(dataset: SurveyDataset, rates: dict[str, float]) -> ResponseMatrix:
    """Assemble the binary item matrix: territorial indicators at
    DEFAULT_LAMBDAS, then raw items.

    Indicator columns are constant within each province by construction.
    Degenerate (constant) items are flagged on the ResponseMatrix, not
    dropped.
    """
    n = dataset.n_units
    columns: list[np.ndarray] = []
    names: list[str] = []
    for lam in DEFAULT_LAMBDAS:
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


def _domain_rows(domain: tuple[str, ...]) -> dict[str, np.ndarray]:
    """Ascending row indices of each domain, keyed in sorted domain order.

    One stable sort groups all rows, so the cost is O(n log n) however
    many domains there are.
    """
    if not domain:
        return {}
    dom = np.asarray(domain, dtype=object)
    order = np.argsort(dom, kind="stable")
    cuts = np.flatnonzero(dom[order][1:] != dom[order][:-1]) + 1
    return {str(dom[rows[0]]): rows for rows in np.split(order, cuts)}


def province_summary(
    values, dataset: SurveyDataset, provinces: dict[str, ProvinceInfo], *, weighted: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(n_sampled, median, iqr) of a unit-level variable, one entry per
    province of the map in sorted order.

    Unweighted over sampled units (type-7 quantiles), or sampling-weighted
    when weighted; nan marks a province without sampled units. One stable
    sort groups the rows, which keep their input order within a province.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (dataset.n_units,):
        raise ValidationError("values must align with the dataset's units")
    rows = _domain_rows(dataset.province)
    names = sorted(provinces)
    n_sampled = np.zeros(len(names), dtype=int)
    median = np.full(len(names), math.nan)
    iqr = np.full(len(names), math.nan)
    for i, p in enumerate(names):
        if p not in rows:
            continue
        v = values[rows[p]]
        if weighted:
            order = np.argsort(v, kind="stable")
            v, w = v[order], dataset.sampling_weight[rows[p]][order]
            cw = np.cumsum(w) - 0.5 * w
            cw /= w.sum()
            q = np.interp(_QUARTILES, cw, v)
        else:
            q = np.quantile(v, _QUARTILES)
        n_sampled[i], median[i], iqr[i] = v.size, q[1], q[2] - q[0]
    return n_sampled, median, iqr
