"""Declarative pipeline configuration.

One JSON file drives every stage; every under-specified constant
(quadrature order, tolerances, replicate counts, seeds) is explicit and
printable via the show-config command. Seeds are plain integers - there
are no wall-clock or entropy defaults anywhere.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import asdict, dataclass, field, replace

from .errors import ValidationError
from .serialize import to_json_text


# The fewest units the fixture's sample allocation fits: 12 in the
# saturated province and 2 in each of the other 108 sampled provinces.
MIN_SIMULATED_UNITS = 228


def tau_tag(tau: float) -> str:
    """The tau in fit-lqmm's output file names."""
    return f"{tau:g}"


def _is_int(value) -> bool:
    """An int (bool excluded)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """A finite int or float (bool excluded)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


@dataclass(frozen=True)
class EmSettings:
    max_iter: int = 500
    tol: float = 1e-6
    ridge: float = 1e-4


@dataclass(frozen=True)
class EbpSettings:
    B: int = 500
    seed: int = 20240901
    statistic: str = "median"
    # Off by default: min-max rescaling of the per-domain estimates at
    # report time (an optional reading of the scaling step).
    rescale_estimates: bool = False


@dataclass(frozen=True)
class LqmmSettings:
    taus: tuple[float, ...] = (0.25, 0.5, 0.75)
    bootstrap_B: int = 200
    seed: int = 20240902
    restarts: int = 5


@dataclass(frozen=True)
class Flags:
    reml: bool = False
    weighted_summaries: bool = False


@dataclass(frozen=True)
class SimulateSettings:
    seed: int = 20240903
    n_units: int = 1323


@dataclass(frozen=True)
class PipelineConfig:
    survey_path: str = "survey.csv"
    province_path: str = "provinces.csv"
    frame_path: str = "frame.csv"
    output_dir: str = "out"
    quadrature_order: int = 61
    em: EmSettings = field(default_factory=EmSettings)
    ebp: EbpSettings = field(default_factory=EbpSettings)
    lqmm: LqmmSettings = field(default_factory=LqmmSettings)
    flags: Flags = field(default_factory=Flags)
    simulate: SimulateSettings = field(default_factory=SimulateSettings)

    def validate(self) -> "PipelineConfig":
        if not self.lqmm.taus:
            raise ValidationError("lqmm.taus must list at least one quantile level")
        if not all(0.0 < t < 1.0 for t in self.lqmm.taus):
            raise ValidationError("every tau must lie strictly inside (0, 1)")
        shared = sorted(tag for tag, c in Counter(map(tau_tag, self.lqmm.taus)).items() if c > 1)
        if shared:
            raise ValidationError(f"lqmm.taus share the output file tag(s) {', '.join(shared)}")
        if not (_is_number(self.em.tol) and self.em.tol > 0):
            raise ValidationError("em.tol must be a finite number > 0")
        if not (_is_number(self.em.ridge) and self.em.ridge >= 0):
            raise ValidationError("em.ridge must be a finite number >= 0")
        kinds = {bool: "true or false", str: "a string"}
        for name, value, kind in (
            ("flags.reml", self.flags.reml, bool),
            ("flags.weighted_summaries", self.flags.weighted_summaries, bool),
            ("ebp.rescale_estimates", self.ebp.rescale_estimates, bool),
            ("survey_path", self.survey_path, str),
            ("province_path", self.province_path, str),
            ("frame_path", self.frame_path, str),
            ("output_dir", self.output_dir, str),
        ):
            if not isinstance(value, kind):
                raise ValidationError(f"{name} must be {kinds[kind]}")
        if self.ebp.statistic not in ("median", "mean") and not (
            isinstance(self.ebp.statistic, float) and 0 < self.ebp.statistic < 1
        ):
            raise ValidationError("ebp.statistic must be 'median', 'mean' or a quantile level")
        if not _is_int(self.quadrature_order) or not 1 <= self.quadrature_order <= 200:
            raise ValidationError("quadrature_order must be an integer in [1, 200]")
        # Counts and seeds and their floors (those of bootstrap_fits,
        # ebp_indicator, generate_fixture and the random streams among them),
        # checked here so a stage fails before any model fit runs.
        for name, number, low in (
            ("ebp.seed", self.ebp.seed, 0),
            ("lqmm.seed", self.lqmm.seed, 0),
            ("simulate.seed", self.simulate.seed, 0),
            ("lqmm.bootstrap_B", self.lqmm.bootstrap_B, 50),
            ("ebp.B", self.ebp.B, 1),
            ("em.max_iter", self.em.max_iter, 1),
            ("lqmm.restarts", self.lqmm.restarts, 1),
            ("simulate.n_units", self.simulate.n_units, MIN_SIMULATED_UNITS),
        ):
            if not _is_int(number) or number < low:
                raise ValidationError(f"{name} must be an integer >= {low}")
        return self

    def to_json(self) -> str:
        doc = asdict(self)
        doc["lqmm"]["taus"] = list(self.lqmm.taus)
        return to_json_text(doc)


SECTIONS = ("em", "ebp", "lqmm", "flags", "simulate")


def _merge(doc: dict, defaults):
    unknown = set(doc) - {f for f in defaults.__dataclass_fields__}
    if unknown:
        raise ValidationError(f"unknown config key(s): {', '.join(sorted(unknown))}")
    return replace(defaults, **doc)


def load_config(path: str | None) -> PipelineConfig:
    """Read the config file on top of the documented defaults."""
    cfg = PipelineConfig()
    if path is None:
        return cfg.validate()
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise ValidationError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValidationError("config file must hold a JSON object")

    updates = {}
    for key, value in doc.items():
        if key in SECTIONS:
            if not isinstance(value, dict):
                raise ValidationError(f"config section {key!r} must be an object")
            if key == "lqmm" and "taus" in value:
                try:
                    value = {**value, "taus": tuple(float(t) for t in value["taus"])}
                except (TypeError, ValueError):
                    raise ValidationError("lqmm.taus must be a list of numbers") from None
            updates[key] = _merge(value, getattr(cfg, key))
        elif key in cfg.__dataclass_fields__:
            updates[key] = value
        else:
            raise ValidationError(f"unknown config key {key!r}")
    return replace(cfg, **updates).validate()
