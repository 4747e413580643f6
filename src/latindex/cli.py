"""Batch command line front end.

Wires the stages together over plain files: simulate -> features ->
fit-ltm -> fit-ebp / fit-lqmm -> report. Every stage consumes and
produces only its declared files, all randomness flows from the explicit
seeds in the config, and reruns produce byte-identical outputs.

Exit codes: 0 success, 2 validation failure (including a path the
operating system refuses), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys
from collections import Counter

import numpy as np

from .config import PipelineConfig, load_config, tau_tag
from .errors import NumericalError, ValidationError
from .features import (
    TITULARITY_LEVELS,
    ProvinceInfo,
    build_item_matrix,
    encode_design,
    foreign_rate,
    load_frame,
    load_provinces,
    load_survey,
    province_summary,
)
from .latent_trait import (
    ResponseMatrix,
    eap_scores,
    em_fit,
    fit_to_json,
    scores_from_json,
    scores_to_json,
)
from .quantile_mixed import GroupedData, bootstrap_fits, fit_lqmm, predict_conditional, predict_marginal
from .sae_ebp import PopulationFrame, SampleData, ebp_indicator, fit_nested_error
from .serialize import _binary_cells, fmt3, fmt17, read_delimited, write_delimited
from .simulate import generate_fixture, write_fixture

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

log = logging.getLogger("latindex")

# The columns of ebp_provinces.csv, written by fit-ebp and read by report.
EBP_COLUMNS = ("domain", "estimate", "estimate_clamped", "mc_sd", "B", "seed")


def _out(config: PipelineConfig, name: str) -> str:
    os.makedirs(config.output_dir, exist_ok=True)
    return os.path.join(config.output_dir, name)


# ---------------------------------------------------------------------------
# Item-matrix file contract (written by `features`, read by `fit-ltm`)
# ---------------------------------------------------------------------------


def write_item_matrix(matrix: ResponseMatrix, path) -> None:
    header = ["unit_id", "weight", *matrix.item_names]
    rows = [
        [matrix.unit_ids[i], fmt17(matrix.weights[i]), *_binary_cells(matrix.responses[i])]
        for i in range(matrix.n_units)
    ]
    write_delimited(path, header, rows)


def read_item_matrix(path) -> ResponseMatrix:
    header, rows = read_delimited(path, required=("unit_id", "weight"))
    item_names = [c for c in header if c not in ("unit_id", "weight")]
    n, p = len(rows), len(item_names)
    cells = (row.binary(name) for row in rows for name in item_names)  # no per-row lists
    return ResponseMatrix(
        responses=np.fromiter(cells, float, n * p).reshape(n, p),
        unit_ids=[row["unit_id"] for row in rows],
        item_names=item_names,
        weights=[row.number("weight") for row in rows],
    )


# ---------------------------------------------------------------------------
# Stage commands
# ---------------------------------------------------------------------------


def cmd_simulate(config: PipelineConfig) -> int:
    fixture = generate_fixture(config.simulate)
    write_fixture(fixture, config.survey_path, config.province_path, config.frame_path)
    print(
        f"wrote {fixture.dataset.n_units} sampled units to {config.survey_path}, "
        f"{len(fixture.province_rows)} provinces to {config.province_path}, "
        f"{len(fixture.frame_rows)} out-of-sample units to {config.frame_path}"
    )
    return EXIT_OK


def cmd_features(config: PipelineConfig) -> int:
    provinces = load_provinces(config.province_path)
    dataset = load_survey(config.survey_path, provinces)
    f_by_province = {p: info.f_p for p, info in provinces.items()}
    rates = foreign_rate(dataset, f_by_province)
    matrix = build_item_matrix(dataset, rates)
    write_item_matrix(matrix, _out(config, "items.csv"))

    n_sampled = Counter(dataset.province)
    rows = [
        [p, str(n_sampled[p]), fmt17(provinces[p].f_p), fmt17(rates[p])] for p in sorted(provinces)
    ]
    write_delimited(
        _out(config, "province_features.csv"),
        ("province", "n_sampled", "f_p", "foreign_rate"),
        rows,
    )

    degenerate = ", ".join(matrix.degenerate_items) if matrix.degenerate_items else "none"
    print(
        f"validated {dataset.n_units} units across "
        f"{len(n_sampled)} provinces; items: {matrix.n_items}; "
        f"degenerate items: {degenerate}"
    )
    return EXIT_OK


def cmd_fit_ltm(config: PipelineConfig) -> int:
    items_path = _out(config, "items.csv")
    if not os.path.exists(items_path):
        raise ValidationError("missing features output (run the features stage first)")
    matrix = read_item_matrix(items_path)
    fit = em_fit(
        matrix,
        quadrature_order=config.quadrature_order,
        max_iter=config.em.max_iter,
        tol=config.em.tol,
        ridge=config.em.ridge,
    )
    with open(_out(config, "ltm_model.json"), "w", encoding="utf-8") as fh:
        fh.write(fit_to_json(fit))
    scores = eap_scores(fit, matrix, allow_non_converged=True)
    with open(_out(config, "scores.json"), "w", encoding="utf-8") as fh:
        fh.write(scores_to_json(scores))
    print(
        f"latent trait fit: converged={fit.converged} iterations={fit.n_iterations} "
        f"loglik={fit.log_likelihood:.6f}"
    )
    if not fit.converged:
        log.warning("EM did not converge within %d iterations", config.em.max_iter)
    return EXIT_OK


def _load_scored_survey(config: PipelineConfig):
    """(provinces, dataset, scores): the survey and fit-ltm's scores of its units."""
    provinces = load_provinces(config.province_path)
    dataset = load_survey(config.survey_path, provinces)
    path = _out(config, "scores.json")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            scores = scores_from_json(fh.read())
    except FileNotFoundError:
        raise ValidationError("missing fit-ltm output (run the fit-ltm stage first)") from None
    except (ValueError, KeyError, TypeError) as exc:
        raise ValidationError(f"{path}: malformed scores file: {exc!r}") from None
    if tuple(scores.unit_ids) != dataset.unit_id:
        raise ValidationError(
            "scores.json units do not match the survey file (rerun features/fit-ltm)"
        )
    return provinces, dataset, scores


def cmd_fit_ebp(config: PipelineConfig) -> int:
    provinces, dataset, scores = _load_scored_survey(config)
    region_levels = tuple(sorted({info.region for info in provinces.values()}))

    X_s, columns = encode_design(
        dataset.titularity, dataset.service_type, dataset.region, region_levels
    )
    sample = SampleData(
        y=scores.scaled, X=X_s, domain=dataset.province, column_names=columns
    )

    frame_province, *frame_covariates = load_frame(config.frame_path, provinces)
    X_r, _ = encode_design(*frame_covariates, region_levels)
    frame = PopulationFrame(
        X_r=X_r,
        domain=frame_province,
        domain_sizes_pop={p: info.population_units for p, info in provinces.items()},
    )

    fit = fit_nested_error(sample, reml=config.flags.reml)
    result = ebp_indicator(
        fit,
        frame,
        sample,
        statistic=config.ebp.statistic,
        B=config.ebp.B,
        seed=config.ebp.seed,
    )

    rows = [
        [
            d,
            fmt17(result.estimate[i]),
            fmt17(result.estimate_clamped[i]),
            fmt17(result.mc_sd[i]),
            str(result.B),
            str(result.seed),
        ]
        for i, d in enumerate(result.domains)
    ]
    write_delimited(_out(config, "ebp_provinces.csv"), EBP_COLUMNS, rows)
    print(
        f"nested-error fit: sigma2_u={fit.sigma2_u:.6g} sigma2_e={fit.sigma2_e:.6g} "
        f"boundary={fit.boundary}; EBP over {len(result.domains)} provinces "
        f"(B={result.B}, statistic={result.statistic})"
    )
    return EXIT_OK


def _region_weights(provinces: dict[str, ProvinceInfo]) -> dict[str, float]:
    """Region shares of population units (the group-level weights)."""
    totals: dict[str, float] = {}
    for info in provinces.values():
        totals[info.region] = totals.get(info.region, 0.0) + info.population_units
    grand = sum(totals.values())
    return {r: t / grand for r, t in totals.items()}


def cmd_fit_lqmm(config: PipelineConfig) -> int:
    provinces, dataset, scores = _load_scored_survey(config)

    # One column per titularity level, and no intercept: each term is the
    # quantile of its level.
    X = np.column_stack(
        [[1.0 if t == level else 0.0 for t in dataset.titularity] for level in TITULARITY_LEVELS]
    )
    weights = _region_weights(provinces)
    present = sorted(set(dataset.region))
    data = GroupedData(
        z=scores.scaled,
        X=X,
        group=dataset.region,
        group_weights={r: weights[r] for r in present},
        column_names=TITULARITY_LEVELS,
    )

    crossing: dict[str, list[float]] = {level: [] for level in TITULARITY_LEVELS}
    for idx, tau in enumerate(config.lqmm.taus):
        fit = fit_lqmm(
            data,
            tau,
            restarts=config.lqmm.restarts,
        )
        if not fit.converged:
            raise NumericalError(f"LQMM base fit at tau={tau:g} did not converge")
        boot = bootstrap_fits(
            data,
            tau,
            B=config.lqmm.bootstrap_B,
            seed=config.lqmm.seed + idx,
            base_fit=fit,
        )
        tag = tau_tag(tau)
        rows = []
        for j, term in enumerate(TITULARITY_LEVELS):
            rows.append(
                [
                    tag,
                    term,
                    fmt17(fit.gamma[j]),
                    fmt17(boot.std_error[j]),
                    fmt17(boot.ci_low[j]),
                    fmt17(boot.ci_high[j]),
                ]
            )
            crossing[term].append(float(fit.gamma[j]))
        write_delimited(
            _out(config, f"lqmm_fit_tau_{tag}.csv"),
            ("tau", "term", "estimate", "std_error", "ci_low", "ci_high"),
            rows,
        )

        X_new = np.eye(len(TITULARITY_LEVELS))
        marg = predict_marginal(fit, X_new, boot)
        rows = [
            [tag, term, fmt17(pred.point), fmt17(pred.ci_low), fmt17(pred.ci_high)]
            for term, pred in zip(TITULARITY_LEVELS, marg)
        ]
        write_delimited(
            _out(config, f"lqmm_pred_marginal_tau_{tag}.csv"),
            ("tau", "titularity", "point", "ci_low", "ci_high"),
            rows,
        )

        rows = []
        for region in sorted(fit.u):
            cond = predict_conditional(fit, X_new, region, boot)
            for term, pred in zip(TITULARITY_LEVELS, cond):
                rows.append(
                    [
                        tag,
                        region,
                        term,
                        fmt17(pred.point),
                        fmt17(pred.ci_low),
                        fmt17(pred.ci_high),
                        fmt17(fit.u[region]),
                    ]
                )
        write_delimited(
            _out(config, f"lqmm_pred_conditional_tau_{tag}.csv"),
            ("tau", "region", "titularity", "point", "ci_low", "ci_high", "region_effect"),
            rows,
        )
        terms = " ".join(f"{term}={g:.4f}" for term, g in zip(TITULARITY_LEVELS, fit.gamma))
        print(
            f"tau={tag}: {terms} "
            f"psi2={fit.psi2:.6g} converged={fit.converged} "
            f"bootstrap_dropped={boot.n_dropped}/{boot.B}"
        )

    for term, estimates in crossing.items():
        if any(b < a for a, b in zip(estimates, estimates[1:])):
            log.warning("quantile crossing detected for term %r across taus", term)
    return EXIT_OK


def cmd_report(config: PipelineConfig) -> int:
    provinces, dataset, scores = _load_scored_survey(config)

    ebp_path = _out(config, "ebp_provinces.csv")
    if not os.path.exists(ebp_path):
        raise ValidationError("missing fit-ebp output (run the fit-ebp stage first)")
    _, ebp_rows = read_delimited(ebp_path, required=EBP_COLUMNS)
    ebp_by_province: dict[str, list[float]] = {}
    for row in ebp_rows:
        if row["domain"] in ebp_by_province:
            row.fail(f"repeated domain {row['domain']!r}")
        if row["domain"] not in provinces:
            row.fail(f"domain {row['domain']!r} is not in the province file")
        ebp_by_province[row["domain"]] = [row.number(c) for c in EBP_COLUMNS[1:4]]

    summary = province_summary(scores.scaled, dataset, provinces, weighted=config.flags.weighted_summaries)

    header = [
        "province",
        "n_sampled",
        "direct_median",
        "direct_iqr",
        "ebp_estimate",
        "ebp_estimate_clamped",
        "mc_sd",
        "direct_median_3dp",
        "direct_iqr_3dp",
        "ebp_estimate_3dp",
    ]
    rows = []
    for p, n_p, m, q in zip(sorted(provinces), *summary):
        if p not in ebp_by_province:
            raise ValidationError(f"province {p!r} missing from the EBP table")
        estimate, clamped, mc_sd = ebp_by_province[p]
        direct_median = "missing" if math.isnan(m) else fmt17(m)
        direct_iqr = "missing" if math.isnan(q) else fmt17(q)
        rows.append(
            [
                p,
                str(n_p),
                direct_median,
                direct_iqr,
                fmt17(estimate),
                fmt17(clamped),
                fmt17(mc_sd),
                "missing" if math.isnan(m) else fmt3(m),
                "missing" if math.isnan(q) else fmt3(q),
                fmt3(estimate),
            ]
        )
    write_delimited(_out(config, "report.csv"), header, rows)
    print(f"report covers {len(rows)} provinces")
    return EXIT_OK


def cmd_show_config(config: PipelineConfig) -> int:
    sys.stdout.write(config.to_json())
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

COMMANDS = {
    "simulate": cmd_simulate,
    "features": cmd_features,
    "fit-ltm": cmd_fit_ltm,
    "fit-ebp": cmd_fit_ebp,
    "fit-lqmm": cmd_fit_lqmm,
    "report": cmd_report,
    "show-config": cmd_show_config,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latindex",
        description="Latent index pipeline: features, latent trait fit, "
        "small-area prediction, quantile mixed fits, reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON config file (defaults otherwise)")
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.ERROR, format="%(message)s")
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        return COMMANDS[args.command](config)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except FileNotFoundError as exc:
        print(f"validation error: missing file: {exc.filename}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:  # a path that names a directory, or a file where a directory must be
        print(f"validation error: {exc.strerror}: {exc.filename}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
