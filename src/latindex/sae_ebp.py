"""Nested-error regression and Monte Carlo best prediction of domain statistics.

The unit-level model is

    y_pl = x_pl' beta + u_p + e_pl,   u_p ~ N(0, s2_u),  e_pl ~ N(0, s2_e)

fitted by profile likelihood: for a fixed variance ratio rho = s2_u / s2_e,
beta and s2_e have closed forms, so the fit is a 1-d search over log rho
with the boundary s2_u = 0 checked explicitly. The best prediction of a
nonlinear per-domain statistic (median by default) averages the statistic
over synthetic censuses drawn from the conditional distribution of the
unobserved units given the sample.

Dimension bookkeeping: N_p is the number of sampled units of domain p and
M_p its population size, so synthetic vectors have length M_p - N_p. Out-
of-sample domains are predicted with gamma = 0, u_tilde = 0 and the full
random-effect variance.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.linalg import qr as scipy_qr

from .errors import NumericalError, ValidationError
from .features import _domain_rows
from .optimize import golden_max
from .streams import generators

DEFAULT_REPLICATES = 500
# ebp_indicator evaluates the statistic over a domain's replicates in
# blocks of at most this many census elements (at least one replicate),
# which bounds the memory its buffers take however large B and the domain.
_CHUNK = 1 << 16


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SampleData:
    """Sampled units: responses in [0,1], encoded design matrix, domain labels.

    validate_support=False skips only the [0,1] range check, for model
    studies on unclipped Gaussian draws; the production pipeline always
    feeds scaled index values and keeps the check on.
    """

    y: np.ndarray
    X: np.ndarray
    domain: tuple[str, ...]
    column_names: tuple[str, ...] | None = None
    validate_support: bool = True

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        X = np.asarray(self.X, dtype=float)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "domain", tuple(str(d) for d in self.domain))
        if y.ndim != 1 or X.ndim != 2 or X.shape[0] != y.shape[0]:
            raise ValidationError("y must be (n,) and X (n, P) with matching n")
        if len(self.domain) != y.shape[0]:
            raise ValidationError("domain labels must match the number of rows")
        if not np.all(np.isfinite(y)) or not np.all(np.isfinite(X)):
            raise ValidationError("y and X must be finite")
        if self.validate_support and (np.any(y < 0.0) or np.any(y > 1.0)):
            raise ValidationError("responses must lie in [0, 1] (scaled index values)")
        if self.column_names is not None:
            names = tuple(str(c) for c in self.column_names)
            if len(names) != X.shape[1]:
                raise ValidationError("column_names must match the design width")
            object.__setattr__(self, "column_names", names)
        y.setflags(write=False)
        X.setflags(write=False)

    @property
    def n_units(self) -> int:
        return self.y.shape[0]

    def domain_sizes(self) -> Counter[str]:
        return Counter(self.domain)


@dataclass(frozen=True)
class PopulationFrame:
    """Out-of-sample units' covariates plus total population size per domain.

    X_r rows cover only the units NOT in the sample, encoded with the same
    columns as SampleData.X. domain_sizes_pop[d] is the total number of
    population units of domain d (sampled + unsampled), at least 1, as a
    domain without units has no statistic to predict; domains with no
    sampled units at all are allowed.
    """

    X_r: np.ndarray
    domain: tuple[str, ...]
    domain_sizes_pop: dict[str, int]

    def __post_init__(self):
        X_r = np.asarray(self.X_r, dtype=float)
        if X_r.ndim != 2:
            raise ValidationError("X_r must be a 2-d matrix (possibly with zero rows)")
        object.__setattr__(self, "X_r", X_r)
        object.__setattr__(self, "domain", tuple(str(d) for d in self.domain))
        object.__setattr__(self, "domain_sizes_pop", dict(self.domain_sizes_pop))
        if len(self.domain) != X_r.shape[0]:
            raise ValidationError("domain labels must match the number of frame rows")
        for d, M in self.domain_sizes_pop.items():
            if M < 1:
                raise ValidationError(f"domain {d!r} must have at least one population unit")
        if not np.all(np.isfinite(X_r)):
            raise ValidationError("frame covariates must be finite")
        for d, c in Counter(self.domain).items():
            if d not in self.domain_sizes_pop:
                raise ValidationError(f"frame rows reference unknown domain {d!r}")
            if c > self.domain_sizes_pop[d]:
                raise ValidationError(
                    f"domain {d!r} has more frame rows ({c}) than population units"
                )
        X_r.setflags(write=False)


@dataclass(frozen=True)
class NestedErrorFit:
    """Estimated fixed effects, variance components and per-domain effects.

    gamma[d] = s2_u / (s2_u + s2_e / N_d) and u_hat[d] = gamma[d] times the
    mean residual of domain d, for every sampled domain. boundary marks a
    fit that ended on the s2_u = 0 edge.
    """

    beta: np.ndarray
    sigma2_u: float
    sigma2_e: float
    u_hat: dict[str, float]
    gamma: dict[str, float]
    loglik: float
    column_names: tuple[str, ...] | None = None
    boundary: bool = False

    def __post_init__(self):
        beta = np.asarray(self.beta, dtype=float)
        beta.setflags(write=False)
        object.__setattr__(self, "beta", beta)
        if self.sigma2_u < 0 or self.sigma2_e < 0:
            raise ValidationError("variance components must be nonnegative")
        if not np.all(np.isfinite(beta)):
            raise ValidationError("fixed effects must be finite")


@dataclass(frozen=True)
class EBPResult:
    """Per-domain Monte Carlo best predictions.

    estimate is the raw replicate average; estimate_clamped projects it
    onto the [0, 1] index support for reporting. mc_sd is the replicate
    standard deviation divided by sqrt(B) (0 when B = 1).
    """

    domains: tuple[str, ...]
    estimate: np.ndarray
    estimate_clamped: np.ndarray
    mc_sd: np.ndarray
    B: int
    seed: int
    statistic: str


# ---------------------------------------------------------------------------
# Elementary quantities
# ---------------------------------------------------------------------------


def shrinkage_gamma(sigma2_u: float, sigma2_e: float, N_p: int) -> float:
    """Reliability weight s2_u / (s2_u + s2_e / N_p); 0 for empty domains."""
    if sigma2_u < 0 or sigma2_e <= 0:
        raise ValidationError("need sigma2_u >= 0 and sigma2_e > 0")
    if N_p < 0:
        raise ValidationError("N_p must be nonnegative")
    if N_p == 0 or sigma2_u == 0.0:
        return 0.0
    return sigma2_u / (sigma2_u + sigma2_e / N_p)


def conditional_effect(fit: NestedErrorFit, domain_residuals) -> float:
    """Conditional domain effect from its residuals.

    Evaluates both algebraically identical forms - the matrix expression
    s2_u * 1' V^{-1} r with V = s2_u 11' + s2_e I, and the scalar
    gamma * mean(r) - and insists they agree before returning the value.
    """
    r = np.asarray(domain_residuals, dtype=float)
    if r.ndim != 1 or r.size == 0:
        raise ValidationError("domain_residuals must be a nonempty vector")
    if fit.sigma2_e <= 0:
        raise ValidationError("matrix form requires sigma2_e > 0")
    n = r.size
    gamma = shrinkage_gamma(fit.sigma2_u, fit.sigma2_e, n)
    scalar = gamma * float(r.mean())

    V = fit.sigma2_u * np.ones((n, n)) + fit.sigma2_e * np.eye(n)
    matrix = fit.sigma2_u * float(np.ones(n) @ np.linalg.solve(V, r))

    scale = max(abs(scalar), abs(matrix), 1.0)
    if abs(scalar - matrix) > 1e-8 * scale:
        raise NumericalError(
            f"conditional effect forms disagree: scalar={scalar!r}, matrix={matrix!r}"
        )
    return scalar


# ---------------------------------------------------------------------------
# Profile-likelihood fit
# ---------------------------------------------------------------------------


def _check_full_rank(X: np.ndarray, column_names: tuple[str, ...] | None) -> None:
    _, R, piv = scipy_qr(X, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    tol = max(X.shape) * np.finfo(float).eps * (diag[0] if diag.size else 0.0)
    rank = int((diag > tol).sum())
    if rank < X.shape[1]:
        bad = sorted(piv[rank:])
        names = ", ".join(str(j) if column_names is None else column_names[j] for j in bad)
        raise ValidationError(f"design matrix is rank deficient; collinear column(s): {names}")


def _in_order(terms: np.ndarray):
    """Sum along axis 0, strictly first to last: cumsum never reorders its
    additions, while numpy may reorder a reduction when the trailing axes are small."""
    return np.cumsum(terms, axis=0)[-1]


class _ProfileWorkspace:
    """Per-domain cross-products stacked in sorted domain order: XtX (K, P, P),
    Xty and the column sums s (K, P), the response sums ty and the sizes (K,)."""

    def __init__(self, sample: SampleData):
        self.n, self.P = sample.X.shape
        self.rows = _domain_rows(sample.domain)
        parts = [(sample.X[rows], sample.y[rows]) for rows in self.rows.values()]
        self.sizes = np.array([rows.size for rows in self.rows.values()])
        self.XtX = np.array([Xp.T @ Xp for Xp, _ in parts])
        self.Xty = np.array([Xp.T @ yp for Xp, yp in parts])
        self.s = np.array([Xp.sum(axis=0) for Xp, _ in parts])
        self.ss = self.s[:, :, None] * self.s[:, None, :]  # outer(s_k, s_k)
        ty = [float(yp.sum()) for _, yp in parts]
        self.ty = np.array(ty)
        # Python's t ** 2 (libm pow) rounds a few squares differently from
        # numpy's exact t * t; the profile keeps the former.
        self.ty2 = np.array([t**2 for t in ty])
        y = sample.y[np.concatenate(list(self.rows.values()))]
        self.yty = float(y @ y)

    def gls(self, rho: float) -> tuple[np.ndarray, float, float, np.ndarray]:
        """(beta, weighted RSS, sum log det factor, X'V^-1 X) at variance ratio rho."""
        a = rho / (1.0 + rho * self.sizes)
        A = _in_order(self.XtX - a[:, None, None] * self.ss)
        b = _in_order(self.Xty - a[:, None] * self.s * self.ty[:, None])
        yty = float(_in_order(np.concatenate(([self.yty], -a * self.ty2))))
        logdet = float(_in_order(np.fromiter(map(math.log1p, (rho * self.sizes).tolist()), float)))
        beta = np.linalg.solve(A, b)
        rss = yty - 2.0 * float(beta @ b) + float(beta @ A @ beta)
        return beta, max(rss, 0.0), logdet, A

    def profile(self, rho: float, reml: bool) -> float:
        """Profile log-likelihood, restricted when reml, at variance ratio rho."""
        _, rss, logdet, A = self.gls(rho)
        if rss <= 0:
            return -math.inf
        if not reml:
            s2e = rss / self.n
            return -0.5 * (self.n * math.log(2 * math.pi) + self.n * math.log(s2e) + logdet + self.n)
        dof = self.n - self.P
        s2e = rss / dof
        sign, logdet_A = np.linalg.slogdet(A)
        if sign <= 0:
            return -math.inf
        return -0.5 * (dof * (math.log(2 * math.pi) + math.log(s2e) + 1.0) + logdet + logdet_A)


def fit_nested_error(sample: SampleData, *, reml: bool = False) -> NestedErrorFit:
    """Maximum-likelihood fit of the nested-error model by profiling.

    The 1-d criterion over log rho is first scanned on a coarse grid,
    refined by golden section, and compared against the rho = 0 boundary
    (no domain effect); the boundary winning is valid output and flagged.
    Set reml=True for the restricted-likelihood variant of the variance
    profile; the reported loglik is always the marginal Gaussian
    log-density of y at the returned estimates.

    Raises ValidationError for rank-deficient designs (naming the
    collinear columns) and for fewer than 2 domains with 2+ units.
    """
    if sum(size >= 2 for size in sample.domain_sizes().values()) < 2:
        raise ValidationError("need at least 2 domains with at least 2 units each")
    _check_full_rank(sample.X, sample.column_names)
    ws = _ProfileWorkspace(sample)
    objective = partial(ws.profile, reml=reml)

    grid = np.concatenate([[-math.inf], np.linspace(-16.0, 16.0, 65)])
    vals = [objective(0.0 if not math.isfinite(t) else math.exp(t)) for t in grid]
    best = int(np.argmax(vals))
    if best == 0:
        rho_hat = 0.0
    else:
        lo = grid[max(best - 1, 1)]
        hi = grid[min(best + 1, len(grid) - 1)]
        t_hat = golden_max(lambda t: objective(math.exp(t)), lo, hi, 80)
        rho_hat = math.exp(t_hat)
        if objective(rho_hat) < vals[0]:
            rho_hat = 0.0

    beta, rss, _, _ = ws.gls(rho_hat)
    dof = ws.n - ws.P if reml else ws.n
    s2e = rss / dof
    s2u = rho_hat * s2e
    boundary = rho_hat == 0.0

    # Per-domain shrinkage and conditional effects from raw residuals.
    resid = sample.y - sample.X @ beta
    gamma = {d: shrinkage_gamma(s2u, s2e, rows.size) if s2e > 0 else 0.0 for d, rows in ws.rows.items()}
    u_hat = {d: gamma[d] * float(resid[rows].mean()) for d, rows in ws.rows.items()}

    loglik = marginal_loglik(sample, beta, s2u, s2e)
    return NestedErrorFit(
        beta=beta,
        sigma2_u=float(s2u),
        sigma2_e=float(s2e),
        u_hat=u_hat,
        gamma=gamma,
        loglik=loglik,
        column_names=sample.column_names,
        boundary=boundary,
    )


def marginal_loglik(sample: SampleData, beta: np.ndarray, sigma2_u: float, sigma2_e: float) -> float:
    """Marginal Gaussian log-density of the sample under the nested-error model.

    Uses the closed-form determinant and inverse of the exchangeable
    per-domain covariance, so it is exact and cheap for any domain sizes.
    """
    if sigma2_e <= 0:
        raise ValidationError("sigma2_e must be positive")
    rho = sigma2_u / sigma2_e
    resid = sample.y - sample.X @ beta
    rows = _domain_rows(sample.domain)
    total = 0.0
    for d in dict.fromkeys(sample.domain):
        r = resid[rows[d]]
        N = r.size
        a = rho / (1.0 + rho * N)
        quad = (float(r @ r) - a * float(r.sum()) ** 2) / sigma2_e
        logdet = N * math.log(sigma2_e) + math.log1p(rho * N)
        total += -0.5 * (N * math.log(2 * math.pi) + logdet + quad)
    return total


# ---------------------------------------------------------------------------
# Synthetic censuses and the Monte Carlo best prediction
# ---------------------------------------------------------------------------


def _validate_pair(sample: SampleData, frame: PopulationFrame) -> None:
    sizes = sample.domain_sizes()
    missing = sorted(set(sizes) - set(frame.domain_sizes_pop))
    if missing:
        raise ValidationError(
            "sampled domain(s) absent from the population frame: " + ", ".join(missing)
        )
    counts = Counter(frame.domain)
    for d, M in frame.domain_sizes_pop.items():
        if sizes[d] + counts[d] != M:
            raise ValidationError(
                f"domain {d!r}: sampled ({sizes[d]}) plus frame rows "
                f"({counts[d]}) must equal the population size ({M})"
            )


def _census_layout(
    fit: NestedErrorFit, frame: PopulationFrame, sample: SampleData
) -> tuple[list[tuple[str, np.ndarray, np.ndarray, float]], float]:
    """([(domain, observed, mean_part, sd_u)] in sorted domain order, sd_e).

    observed holds the domain's sampled responses and mean_part
    x' beta + u_tilde for its out-of-sample units (empty when the frame
    has none); sd_u is the sd of the domain's shared draw u_star and sd_e
    that of the idiosyncratic error. Domains in the frame but absent from
    the fit are treated as unsampled (gamma = 0, u_tilde = 0).
    """
    _validate_pair(sample, frame)
    if frame.X_r.shape[0] and frame.X_r.shape[1] != fit.beta.shape[0]:
        raise ValidationError("frame design width does not match the fitted coefficients")
    base = frame.X_r @ fit.beta if frame.X_r.shape[0] else np.zeros(0)
    sample_rows = _domain_rows(sample.domain)
    frame_rows = _domain_rows(frame.domain)
    none = np.zeros(0, dtype=int)
    layout = []
    for d in sorted(set(frame.domain_sizes_pop) | set(sample.domain)):
        sd_u = math.sqrt(max(fit.sigma2_u * (1.0 - fit.gamma.get(d, 0.0)), 0.0))
        mean_part = base[frame_rows.get(d, none)] + fit.u_hat.get(d, 0.0)
        layout.append((d, sample.y[sample_rows.get(d, none)], mean_part, sd_u))
    return layout, (math.sqrt(fit.sigma2_e) if fit.sigma2_e > 0 else 0.0)


def _draw_synthetic(mean_part: np.ndarray, sd_u: float, sd_e: float, streams, out: np.ndarray) -> None:
    """Write one draw of a domain's out-of-sample units into each row of out.

    Row i draws u_star, then the errors, from the next generator of
    streams. numpy's normal(0.0, sd) is 0.0 + sd * standard_normal()
    element by element, so one standard_normal call per row gives
    exactly those draws.
    """
    z = np.empty((out.shape[0], out.shape[1] + 1))
    for row, rng in zip(z, streams):
        rng.standard_normal(out=row)
    np.add(mean_part, 0.0 + sd_u * z[:, :1], out=out)
    out += 0.0 + sd_e * z[:, 1:]


def simulate_census(
    fit: NestedErrorFit,
    frame: PopulationFrame,
    sample: SampleData,
    seed: int | tuple[int, ...],
) -> dict[str, np.ndarray]:
    """One synthetic replicate of the full population, keyed by domain.

    Sampled units keep their observed responses. Every out-of-sample unit
    receives x' beta + u_tilde_p + u_star_p + eps, with
    u_star_p ~ N(0, s2_u (1 - gamma_p)) shared within the domain and
    idiosyncratic eps ~ N(0, s2_e). Domains in the frame but absent from
    the fit are treated as unsampled (gamma = 0, u_tilde = 0). Each
    domain draws from its own substream derived from (seed, domain), so
    results do not depend on iteration order; seed=(s, b) is replicate b
    of ebp_indicator(..., seed=s).
    """
    seed_tuple = (seed,) if isinstance(seed, (int, np.integer)) else tuple(int(s) for s in seed)
    layout, sd_e = _census_layout(fit, frame, sample)
    out: dict[str, np.ndarray] = {}
    for (d, observed, mean_part, sd_u), rng in zip(layout, generators(*seed_tuple, np.arange(len(layout)))):
        census = np.concatenate([observed, mean_part])
        if mean_part.size:
            _draw_synthetic(mean_part, sd_u, sd_e, [rng], census[None, observed.size :])
        out[d] = census
    return out


def _statistic_fn(statistic):
    """(stat, name): stat(v) of a vector, stat(v, axis=1) of each row of a matrix."""
    if statistic == "median":
        return np.median, "median"
    if statistic == "mean":
        return np.mean, "mean"
    if isinstance(statistic, float) and 0.0 < statistic < 1.0:
        return (lambda v, axis=None: np.quantile(v, statistic, axis=axis)), f"q{statistic:g}"
    raise ValidationError(f"unsupported statistic {statistic!r}")


def ebp_indicator(
    fit: NestedErrorFit,
    frame: PopulationFrame,
    sample: SampleData,
    *,
    statistic="median",
    B: int = DEFAULT_REPLICATES,
    seed: int = 0,
) -> EBPResult:
    """Monte Carlo best prediction of a per-domain population statistic.

    Builds B synthetic censuses, evaluates the statistic over each
    domain's full population (observed plus synthetic), and averages
    over replicates. A pure function of (fit, frame, sample, statistic,
    B, seed): reruns are identical. Fully sampled domains reproduce the
    direct statistic exactly for any B.
    """
    if B < 1:
        raise ValidationError("B must be at least 1")
    layout, sd_e = _census_layout(fit, frame, sample)
    stat, stat_name = _statistic_fn(statistic)

    estimates = np.empty((len(layout), B))
    direct = []
    for idx, (_, observed, mean_part, sd_u) in enumerate(layout):
        n_obs, M = observed.size, observed.size + mean_part.size
        if mean_part.size == 0 or (sd_u == 0.0 and sd_e == 0.0):
            # No synthetic units, or degenerate variances: every replicate is
            # the same census, so its statistic is the answer, exactly, for any B.
            estimates[idx, :] = stat(np.concatenate([observed, mean_part]))
            direct.append(idx)
            continue
        # Each block of replicates fills the rows of one buffer whose leading
        # columns hold the observed units; the statistic then runs along rows.
        rows = min(max(1, _CHUNK // M), B)
        buf = np.empty((rows, M))
        buf[:, :n_obs] = observed
        streams = generators(seed, np.arange(B), idx)
        for b0 in range(0, B, rows):
            k = min(rows, B - b0)
            _draw_synthetic(mean_part, sd_u, sd_e, streams, buf[:k, n_obs:])
            estimates[idx, b0 : b0 + k] = stat(buf[:k], axis=1)

    est = estimates.mean(axis=1)
    if B > 1:
        mc_sd = estimates.std(axis=1, ddof=1) / math.sqrt(B)
    else:
        mc_sd = np.zeros(len(layout))
    est[direct] = estimates[direct, 0]
    mc_sd[direct] = 0.0
    return EBPResult(
        domains=tuple(d for d, *_ in layout),
        estimate=est,
        estimate_clamped=np.clip(est, 0.0, 1.0),
        mc_sd=mc_sd,
        B=B,
        seed=seed,
        statistic=stat_name,
    )
