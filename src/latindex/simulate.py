"""Synthetic fixture generator for the bundled end-to-end pipeline.

Emits a survey file, a province file and a population frame that mirror
the shape of the real inputs: 110 provinces nested in 20 regions and 5
macro areas, 1323 sampled units by default, one deliberately unsampled
province (the last one) and one fully sampled province (the first one).
The latent structure is bimodal by ownership so the downstream quantile
fits have a clear signal to find. Everything is a pure function of the
seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import SimulateSettings
from .errors import ValidationError
from .features import RAW_ITEMS, SurveyDataset, save_survey
from .serialize import write_delimited

N_PROVINCES = 110
N_REGIONS = 20
MACRO_AREAS = ("north_west", "north_east", "center", "south", "islands")

# Generating two-parameter logistic coefficients for the nine raw items
# (intercept, loading): mixes prevalent/easy items with steep ones.
ITEM_TRUTH = {
    "disability": (-2.0, 0.9),
    "meal": (1.3, 0.3),
    "fee": (-0.6, 1.2),
    "disability_fee": (-3.0, 2.2),
    "full_fee": (-3.2, 1.9),
    "isee": (-1.0, 3.5),
    "child": (-2.5, 1.2),
    "social_services": (-1.8, 1.6),
    "family": (-2.0, 0.6),
}

PRIVATE_SHIFT = -0.70
PUBLIC_SHIFT = 0.75
REGION_SD = 0.30
PROVINCE_SD = 0.15
UNIT_SD = 0.55


@dataclass(frozen=True)
class Fixture:
    dataset: SurveyDataset
    province_rows: list[list[str]]
    frame_rows: list[list[str]]
    true_z: np.ndarray


def _province_layout() -> tuple[list[str], dict[str, str], dict[str, str]]:
    """110 provinces split into 20 regions of 5-6, regions into 5 macro areas."""
    provinces = [f"p{i + 1:03d}" for i in range(N_PROVINCES)]
    region_of: dict[str, str] = {}
    macro_of: dict[str, str] = {}
    sizes = [6 if r < N_PROVINCES % N_REGIONS else 5 for r in range(N_REGIONS)]
    pos = 0
    for r, size in enumerate(sizes):
        region = f"r{r + 1:02d}"
        macro_of[region] = MACRO_AREAS[r % len(MACRO_AREAS)]
        for p in provinces[pos : pos + size]:
            region_of[p] = region
        pos += size
    return provinces, region_of, macro_of


def generate_fixture(settings: SimulateSettings) -> Fixture:
    """Draw the synthetic survey, province file and population frame."""
    rng = np.random.default_rng(settings.seed)
    provinces, region_of, macro_of = _province_layout()
    saturated = provinces[0]
    unsampled = provinces[-1]

    # Sample allocation: the saturated province gets a fixed block, every
    # other sampled province at least 2 units, the rest multinomial.
    n = settings.n_units
    sampled_provinces = provinces[:-1]
    alloc = {p: 2 for p in sampled_provinces}
    alloc[saturated] = 12
    remaining = n - sum(alloc.values())
    if remaining < 0:
        raise ValidationError(f"simulate.n_units must be at least {n - remaining} for the province layout")
    probs = rng.dirichlet(np.ones(len(sampled_provinces) - 1) * 2.0)
    extra = rng.multinomial(remaining, probs)
    for p, e in zip(sampled_provinces[1:], extra):
        alloc[p] += int(e)

    region_effect = {f"r{r + 1:02d}": rng.normal(0.0, REGION_SD) for r in range(N_REGIONS)}
    province_effect = {p: rng.normal(0.0, PROVINCE_SD) for p in provinces}

    unit_id, province, region, macro_area = [], [], [], []
    titularity, service_type = [], []
    weights, counts = [], []
    zs = []
    items: dict[str, list[float]] = {name: [] for name in RAW_ITEMS}

    uid = 0
    for p in sampled_provinces:
        for _ in range(alloc[p]):
            uid += 1
            r = region_of[p]
            public = rng.random() < 0.45
            z = (PUBLIC_SHIFT if public else PRIVATE_SHIFT) + region_effect[r]
            z += province_effect[p] + rng.normal(0.0, UNIT_SD)
            zs.append(z)
            unit_id.append(f"s{uid:05d}")
            province.append(p)
            region.append(r)
            macro_area.append(macro_of[r])
            titularity.append("public" if public else "private")
            service_type.append("spring_section" if rng.random() < 0.25 else "kindergarten")
            weights.append(float(np.round(rng.lognormal(0.0, 0.3), 6)))
            counts.append(float(rng.poisson(0.8 + 1.6 / (1.0 + math.exp(-z)))))
            for name, (b0, b1) in ITEM_TRUTH.items():
                prob = 1.0 / (1.0 + math.exp(-(b0 + b1 * z)))
                items[name].append(1.0 if rng.random() < prob else 0.0)

    # A sprinkle of missing responses, never the whole row.
    n_total = len(unit_id)
    for name in RAW_ITEMS[1:]:
        col = np.array(items[name])
        miss = rng.random(n_total) < 0.02
        col[miss] = np.nan
        items[name] = list(col)

    dataset = SurveyDataset(
        unit_id=tuple(unit_id),
        province=tuple(province),
        region=tuple(region),
        macro_area=tuple(macro_area),
        titularity=tuple(titularity),
        service_type=tuple(service_type),
        sampling_weight=np.array(weights),
        foreign_enrolled_count=np.array(counts),
        items={name: np.array(col) for name, col in items.items()},
    )

    # Province file: resident counts and population frame sizes.
    province_rows = []
    frame_rows = []
    fid = 0
    for p in provinces:
        n_p = alloc.get(p, 0)
        if p == saturated:
            m_p = n_p
        elif p == unsampled:
            m_p = 15
        else:
            m_p = n_p + int(rng.integers(5, 26))
        f_p = int(rng.integers(40, 4000))
        province_rows.append([p, region_of[p], macro_of[region_of[p]], str(f_p), str(m_p)])
        for _ in range(m_p - n_p):
            fid += 1
            frame_rows.append(
                [
                    f"f{fid:05d}",
                    p,
                    "public" if rng.random() < 0.45 else "private",
                    "spring_section" if rng.random() < 0.25 else "kindergarten",
                ]
            )

    return Fixture(
        dataset=dataset,
        province_rows=province_rows,
        frame_rows=frame_rows,
        true_z=np.array(zs),
    )


def write_fixture(fixture: Fixture, survey_path, province_path, frame_path) -> None:
    """Write the three fixture files with the documented schemas."""
    save_survey(fixture.dataset, survey_path)
    write_delimited(
        province_path,
        ("province_id", "region", "macro_area", "f_p", "population_units"),
        fixture.province_rows,
    )
    write_delimited(
        frame_path,
        ("unit_id", "province", "titularity", "service_type"),
        fixture.frame_rows,
    )
