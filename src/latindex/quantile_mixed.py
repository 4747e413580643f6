"""Quantile regression with a group random intercept and group-level weights.

Models the tau-quantile of the scaled index as x' gamma_tau + u_j, with
u_j ~ N(0, psi2_tau) per group (region) and group-level sampling weights
multiplying each group's log-likelihood contribution. The working
likelihood is the asymmetric Laplace density integrated over the random
intercept; because the integrand is piecewise exponential in u between
the sorted group residuals, that integral has an exact closed form per
segment (exponentially tilted Gaussian probabilities), which is what the
default evaluation uses. A Gauss-Hermite route is kept as a cross-check
but converges only slowly on the kinked integrand.

Maximization is derivative-free local search (the likelihood has kinks
in gamma, so Newton-type methods are unreliable); confidence intervals
come from a nonparametric cluster bootstrap that resamples whole groups.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize
from scipy.special import log_ndtr

from .errors import NumericalError, ValidationError
from .optimize import golden_max
from .quadrature import DEFAULT_ORDER, HermiteRule, hermite_rule, log_gaussian_expectation

PSI2_FLOOR = 1e-10
SIGMA_FLOOR = 1e-8


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GroupedData:
    """Responses in [0,1], fixed-effect design, group labels, group weights.

    group_weights maps each group label to a positive weight; weights are
    stored as given (the likelihood is linear in them) and normalized to
    sum to the number of groups only inside fit_lqmm, which leaves the
    maximizer unchanged. validate_support=False skips only the [0, 1]
    range check on the responses, for model studies on unclipped draws.
    """

    z: np.ndarray
    X: np.ndarray
    group: tuple[str, ...]
    group_weights: dict[str, float]
    column_names: tuple[str, ...] | None = None
    validate_support: bool = True

    def __post_init__(self):
        z = np.asarray(self.z, dtype=float)
        X = np.asarray(self.X, dtype=float)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "group", tuple(str(g) for g in self.group))
        object.__setattr__(
            self, "group_weights", {str(g): float(w) for g, w in self.group_weights.items()}
        )
        if z.ndim != 1 or X.ndim != 2 or X.shape[0] != z.shape[0]:
            raise ValidationError("z must be (n,) and X (n, P) with matching n")
        if len(self.group) != z.shape[0]:
            raise ValidationError("group labels must match the number of rows")
        if not np.all(np.isfinite(z)) or not np.all(np.isfinite(X)):
            raise ValidationError("responses and design must be finite")
        if self.validate_support and (np.any(z < 0.0) or np.any(z > 1.0)):
            raise ValidationError("responses must lie in [0, 1] (scaled index values)")
        present = set(self.group)
        if set(self.group_weights) != present:
            raise ValidationError("group_weights must cover exactly the groups present")
        if any(w <= 0 or not math.isfinite(w) for w in self.group_weights.values()):
            raise ValidationError("group weights must be positive and finite")
        if self.column_names is not None:
            names = tuple(str(c) for c in self.column_names)
            if len(names) != X.shape[1]:
                raise ValidationError("column_names must match the design width")
            object.__setattr__(self, "column_names", names)
        z.setflags(write=False)
        X.setflags(write=False)

    @property
    def n_units(self) -> int:
        return self.z.shape[0]

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(sorted(set(self.group)))


@dataclass(frozen=True)
class QuantileMixedFit:
    """Fixed effects, variance, ALD scale and conditional group modes at one tau."""

    tau: float
    gamma: np.ndarray
    psi2: float
    sigma: float
    u: dict[str, float]
    loglik: float
    converged: bool
    column_names: tuple[str, ...] | None = None

    def __post_init__(self):
        gamma = np.asarray(self.gamma, dtype=float)
        gamma.setflags(write=False)
        object.__setattr__(self, "gamma", gamma)
        if not math.isfinite(self.loglik):
            raise NumericalError("fitted log-likelihood is not finite")


@dataclass(frozen=True)
class QuantilePrediction:
    """Point prediction with a bootstrap percentile interval."""

    level: float
    kind: str  # "marginal" | "conditional"
    group: str | None
    point: float
    ci_low: float
    ci_high: float
    ci_level: float = 0.95

    def __post_init__(self):
        if not (self.ci_low <= self.point <= self.ci_high):
            raise NumericalError("prediction interval does not contain the point")


@dataclass(frozen=True)
class BootstrapFits:
    """Kept refits from the cluster bootstrap plus percentile summaries."""

    tau: float
    estimates: np.ndarray  # (B_kept, P)
    psi2: np.ndarray
    sigma: np.ndarray
    u_by_group: tuple[dict[str, float], ...]
    ci_low: np.ndarray
    ci_high: np.ndarray
    std_error: np.ndarray
    n_dropped: int
    B: int
    seed: int


# ---------------------------------------------------------------------------
# Loss and density
# ---------------------------------------------------------------------------


def check_loss(r, tau: float):
    """Asymmetric absolute loss r * (tau - 1[r < 0]); zero only at r = 0."""
    if not 0.0 < tau < 1.0:
        raise ValidationError("tau must lie strictly inside (0, 1)")
    r = np.asarray(r, dtype=float)
    out = r * (tau - (r < 0))
    return float(out) if out.ndim == 0 else out


def ald_logdensity(r, sigma: float, tau: float):
    """log density of the asymmetric Laplace: log(tau(1-tau)) - log(sigma) - loss/sigma."""
    if sigma <= 0:
        raise ValidationError("sigma must be positive")
    return math.log(tau * (1.0 - tau)) - math.log(sigma) - check_loss(r, tau) / sigma


def _weighted_quantile(values: np.ndarray, weights: np.ndarray, tau: float) -> float:
    """Minimizer of sum(w * check_loss(v - q, tau)): a weighted order statistic."""
    order = np.argsort(values, kind="stable")
    v = values[order]
    cw = np.cumsum(weights[order])
    target = tau * cw[-1]
    idx = int(np.searchsorted(cw, target, side="left"))
    return float(v[min(idx, v.size - 1)])


# ---------------------------------------------------------------------------
# Likelihood
# ---------------------------------------------------------------------------


class _Workspace:
    """Rows grouped by label plus the static segment layout for exact integration.

    z, X and g_sorted hold each group's rows in input order, groups in
    label order; the start values, the conditional modes and the psi2 = 0
    likelihood sum over rows in that order. When every group's rows share
    one design row x_j, a group's residuals z - x_j' gamma keep the order
    of its responses for any gamma, so zs holds the responses sorted
    within each group and loglik_exact needs no sort.
    """

    def __init__(self, data: GroupedData):
        labels = list(data.labels)
        codes = {g: i for i, g in enumerate(labels)}
        g = np.array([codes[x] for x in data.group])
        order = np.argsort(g, kind="stable")
        z, X, g_sorted = data.z[order], data.X[order], g[order]
        zs = None
        first = np.searchsorted(g_sorted, np.arange(len(labels)))[g_sorted]
        if np.array_equal(X, X[first]):
            zs = z[np.lexsort((z, g_sorted))]
        weights = np.array([data.group_weights[x] for x in labels])
        self._setup(labels, z, X, g_sorted, weights, data.column_names, zs)

    @classmethod
    def _from_rows(cls, labels, z, X, g_sorted, weights, column_names, zs) -> "_Workspace":
        ws = cls.__new__(cls)
        ws._setup(labels, z, X, g_sorted, weights, column_names, zs)
        return ws

    def _setup(self, labels, z, X, g_sorted, weights, column_names, zs) -> None:
        self.labels = labels
        self.z, self.X, self.g_sorted = z, X, g_sorted
        self.weights = weights
        self.column_names = column_names
        self.n, self.P = X.shape
        J = len(labels)
        self.starts = np.searchsorted(g_sorted, np.arange(J))
        # Presorted path: one design row per group (Xg) and responses
        # sorted within each group (zs); None when a group mixes rows.
        self.zs = zs
        self.Xg = None if zs is None else X[self.starts]

        # Segment layout: group j contributes n_j + 1 pieces of the
        # piecewise-exponential integrand. All arrays below are static.
        sizes = np.diff(np.append(self.starts, self.n))
        self.sizes = sizes
        self.seg_group = np.repeat(np.arange(J), sizes + 1)
        self.seg_starts = np.concatenate([[0], np.cumsum(sizes + 1)])[:-1]
        self.seg_m = sizes[self.seg_group]  # n_j per segment
        self.seg_j = np.arange(self.seg_group.size) - self.seg_starts[self.seg_group]  # piece index
        # Gather indices into the group-major sorted residuals held in
        # _buf; the sentinel slots n and n+1 hold -inf / +inf. The sum of
        # the j smallest residuals of a group is _cs0[p_idx] - _cs0[b_idx]
        # with _cs0 = [0, cumsum]; it is exactly 0.0 on first pieces.
        row_offset = self.starts[self.seg_group]
        self.lo_idx = np.where(self.seg_j == 0, self.n, row_offset + self.seg_j - 1)
        self.hi_idx = np.where(self.seg_j == self.seg_m, self.n + 1, row_offset + self.seg_j)
        self.b_idx = row_offset
        self.p_idx = row_offset + self.seg_j
        self._buf = np.empty(self.n + 2)
        self._buf[self.n :] = (-np.inf, np.inf)
        self._cs0 = np.zeros(self.n + 1)
        self._neg_d: dict[float, np.ndarray] = {}  # -(seg_j - tau * seg_m) per tau

    def _sorted_residuals(self, gamma) -> np.ndarray:
        """Residuals sorted within each group, written into _buf[:n]."""
        s = self._buf[: self.n]
        if self.zs is not None:
            np.subtract(self.zs, (self.Xg @ gamma)[self.g_sorted], out=s)
        else:
            resid = self.z - self.X @ gamma
            resid.take(np.lexsort((resid, self.g_sorted)), out=s)
        return s

    def loglik_exact(self, gamma, psi2, sigma, tau) -> float:
        """Weighted log-likelihood with the intercept integrated out exactly.

        Between consecutive sorted residuals of a group the total check
        loss is linear in u, so each piece integrates in closed form:
        integral of exp(a u + b) phi(u; 0, psi2) over [lo, hi] equals
        exp(b + a^2 psi2 / 2) * (Phi((hi - a psi2)/psi) - Phi((lo - a psi2)/psi)).
        """
        const = math.log(tau * (1.0 - tau)) - math.log(sigma)
        if psi2 <= PSI2_FLOOR:
            resid = self.z - self.X @ gamma
            loss = resid * (tau - (resid < 0))
            per_unit = const - loss / sigma
            per_group = np.add.reduceat(per_unit, self.starts)
            return float(self.weights @ per_group)

        neg_d = self._neg_d.get(tau)
        if neg_d is None:
            neg_d = self._neg_d[tau] = -(self.seg_j - tau * self.seg_m)
        psi = math.sqrt(psi2)
        s = self._sorted_residuals(gamma)
        cs0 = self._cs0
        np.add.accumulate(s, out=cs0[1:])
        group_tot = np.add.reduceat(s, self.starts)

        prefix = cs0[self.p_idx] - cs0[self.b_idx]
        c = tau * (group_tot[self.seg_group] - prefix) - (1.0 - tau) * prefix
        a = neg_d / sigma
        b = c / -sigma  # == -c / sigma: rounding is symmetric in sign

        a_psi2 = a * psi2
        alpha = (self._buf[self.lo_idx] - a_psi2) / psi
        beta = (self._buf[self.hi_idx] - a_psi2) / psi
        # Pieces above 0 use Phi(beta) - Phi(alpha) = Phi(-alpha) - Phi(-beta),
        # whose log log_ndtr evaluates without cancellation.
        flip = alpha > 0.0
        la = log_ndtr(np.where(flip, -beta, alpha))
        lb = log_ndtr(np.where(flip, -alpha, beta))
        with np.errstate(invalid="ignore", divide="ignore"):
            ldiff = lb + np.log1p(-np.exp(np.minimum(la - lb, 0.0)))
        terms = b + 0.5 * a * a * psi2 + ldiff
        terms = np.where(np.isfinite(terms), terms, -np.inf)

        mx = np.maximum.reduceat(terms, self.seg_starts)
        mx = np.where(np.isfinite(mx), mx, 0.0)
        blown = np.exp(terms - mx[self.seg_group])
        logint = mx + np.log(np.add.reduceat(blown, self.seg_starts))
        per_group = self.sizes * const + logint
        return float(self.weights @ per_group)

    def loglik_quadrature(self, gamma, psi2, sigma, tau, rule: HermiteRule) -> float:
        resid = self.z - self.X @ gamma
        const = math.log(tau * (1.0 - tau)) - math.log(sigma)
        if psi2 <= PSI2_FLOOR:
            loss = resid * (tau - (resid < 0))
            per_unit = const - loss / sigma
            per_group = np.add.reduceat(per_unit, self.starts)
            return float(self.weights @ per_group)
        u = math.sqrt(psi2) * rule.standard_normal_points()[0]
        d = resid[:, None] - u[None, :]
        loss = d * (tau - (d < 0))
        per_unit = const - loss / sigma
        per_group = np.add.reduceat(per_unit, self.starts, axis=0)
        return float(self.weights @ log_gaussian_expectation(per_group, rule))


def lqmm_loglik(
    data: GroupedData,
    gamma,
    psi2: float,
    sigma: float,
    tau: float,
    rule: HermiteRule | None = None,
    *,
    method: str = "exact",
) -> float:
    """Weighted marginal ALD log-likelihood, integrating out the group intercept.

    Per group j: w_j * log integral over u of
    prod_k ALD(z_kj - x_kj' gamma - u; sigma, tau) * N(u; 0, psi2) du.
    The default evaluation integrates each piecewise-exponential segment
    in closed form (exact up to float rounding); method="quadrature"
    instead evaluates on the rule's points after the change of variable
    u = psi * v with log-sum-exp stabilization, which carries visible
    error because the integrand has kinks at the residuals. With psi2 = 0
    the integral collapses to the point mass at u = 0. Uses the weights
    as given, so scaling them scales the result.
    """
    if psi2 < 0:
        raise ValidationError("psi2 must be nonnegative")
    if sigma <= 0:
        raise ValidationError("sigma must be positive")
    if not 0.0 < tau < 1.0:
        raise ValidationError("tau must lie strictly inside (0, 1)")
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape != (data.X.shape[1],):
        raise ValidationError("gamma length must match the design width")
    ws = _Workspace(data)
    if method == "exact":
        out = ws.loglik_exact(gamma, psi2, sigma, tau)
    elif method == "quadrature":
        if rule is None:
            rule = hermite_rule(DEFAULT_ORDER)
        out = ws.loglik_quadrature(gamma, psi2, sigma, tau, rule)
    else:
        raise ValidationError(f"unknown method {method!r}")
    if not math.isfinite(out):
        raise NumericalError("quantile mixed log-likelihood is not finite")
    return out


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------


def _start_values(ws: _Workspace, tau: float, row_weights: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Documented start: coordinate-wise weighted-quantile regression for
    gamma, between-group variance of residual group quantiles for psi2,
    mean check loss for sigma."""
    P = ws.P
    gamma = np.zeros(P)
    for _ in range(3):
        for m in range(P):
            col = ws.X[:, m]
            mask = col > 0
            if not mask.any():
                continue
            partial = ws.z[mask] - ws.X[mask] @ gamma + col[mask] * gamma[m]
            gamma[m] = _weighted_quantile(
                partial / col[mask], row_weights[mask] * col[mask], tau
            )
    resid = ws.z - ws.X @ gamma
    group_q = np.array(
        [
            _weighted_quantile(resid[ws.g_sorted == j], row_weights[ws.g_sorted == j], tau)
            for j in range(len(ws.labels))
        ]
    )
    psi2 = max(float(np.var(group_q)), 1e-4)
    loss = resid * (tau - (resid < 0))
    sigma = max(float((row_weights * loss).sum() / row_weights.sum()), 1e-3)
    return gamma, psi2, sigma


def _conditional_modes(ws: _Workspace, gamma, psi2, sigma, tau) -> np.ndarray:
    """Posterior mode of each group intercept under ALD likelihood x normal prior."""
    J = len(ws.labels)
    if psi2 <= PSI2_FLOOR:
        return np.zeros(J)
    resid = ws.z - ws.X @ gamma
    psi = math.sqrt(psi2)
    ends = np.append(ws.starts[1:], ws.n)
    modes = np.empty(J)
    for j in range(J):
        r = resid[ws.starts[j] : ends[j]]
        qj = _weighted_quantile(r, np.ones(r.size), tau)

        def logpost(u):
            d = r - u
            loss = d * (tau - (d < 0))
            return -loss.sum() / sigma - 0.5 * u * u / psi2

        lo = min(0.0, qj) - 2.0 * psi
        hi = max(0.0, qj) + 2.0 * psi
        modes[j] = golden_max(logpost, lo, hi, 100)
    return modes


def fit_lqmm(
    data: GroupedData | _Workspace,
    tau: float,
    *,
    restarts: int = 5,
    fix_psi2: float | None = None,
    xatol: float = 1e-6,
    fatol: float = 1e-9,
    max_fev: int | None = None,
    start: tuple[np.ndarray, float, float] | None = None,
    compute_modes: bool = True,
) -> QuantileMixedFit:
    """Maximize the weighted ALD mixed likelihood at one quantile level.

    Optimizes (gamma, log sigma, log psi2) by Nelder-Mead from the
    documented start plus jittered restarts (deterministic jitter),
    evaluating the likelihood with the exact segment integration.
    fix_psi2 pins the random-intercept variance instead of estimating it
    (fix_psi2=0 gives the fixed-quantile collapse). Conditional group
    modes are found afterwards by golden-section search and recentred:
    when the constant vector lies in the design's column space, the
    weighted mean of the modes is moved into gamma, so conditional
    predictions are unchanged and the modes average to zero.

    Group weights are normalized to sum to the number of groups before
    optimizing; the reported loglik is on that normalized scale.

    Constant responses, and a single group when psi2 is estimated, leave
    the model unidentified and raise ValidationError. A bootstrap refit
    passes the workspace from _resample_groups instead of GroupedData and
    skips that check.
    """
    if not 0.0 < tau < 1.0:
        raise ValidationError("tau must lie strictly inside (0, 1)")
    if restarts < 1:
        raise ValidationError("need at least one optimizer start")

    if isinstance(data, _Workspace):
        # A shallow copy: the weight normalization below must not reach
        # the caller's workspace.
        ws = copy.copy(data)
    else:
        ws = _Workspace(data)
        if fix_psi2 is None and len(ws.labels) < 2:
            raise ValidationError("estimating psi2 needs at least two groups (or pass fix_psi2)")
        if ws.n == 0 or ws.z.min() == ws.z.max():
            raise ValidationError("responses are constant: the model is not identified")
    J = len(ws.labels)
    ws.weights = ws.weights * (J / ws.weights.sum())
    row_weights = ws.weights[ws.g_sorted]

    if start is None:
        gamma0, psi2_0, sigma0 = _start_values(ws, tau, row_weights)
    else:
        gamma0, psi2_0, sigma0 = start
        gamma0 = np.asarray(gamma0, dtype=float)
    estimate_psi = fix_psi2 is None
    if not estimate_psi and fix_psi2 < 0:
        raise ValidationError("fix_psi2 must be nonnegative")

    def unpack(theta):
        gamma = theta[: ws.P]
        sigma = math.exp(min(theta[ws.P], 50.0)) + SIGMA_FLOOR
        if estimate_psi:
            psi2 = math.exp(min(theta[ws.P + 1], 50.0))
        else:
            psi2 = fix_psi2
        return gamma, psi2, sigma

    def negloglik(theta):
        gamma, psi2, sigma = unpack(theta)
        return -ws.loglik_exact(gamma, psi2, sigma, tau)

    base = np.concatenate(
        [gamma0, [math.log(sigma0)], [math.log(max(psi2_0, PSI2_FLOOR))] if estimate_psi else []]
    )
    dim = base.size
    if max_fev is None:
        max_fev = 400 * dim

    best = None
    jitter_rng = np.random.default_rng(1729)
    for attempt in range(restarts):
        theta0 = base.copy()
        if attempt > 0:
            theta0[: ws.P] += jitter_rng.normal(0.0, 0.05, size=ws.P)
            theta0[ws.P] += jitter_rng.normal(0.0, 0.2)
            if estimate_psi:
                theta0[ws.P + 1] += jitter_rng.normal(0.0, 0.4)
        res = minimize(
            negloglik,
            theta0,
            method="Nelder-Mead",
            options={
                "xatol": xatol,
                "fatol": fatol,
                "maxiter": max_fev,
                "maxfev": max_fev,
            },
        )
        if best is None or res.fun < best.fun:
            best = res

    gamma, psi2, sigma = unpack(best.x)
    gamma = np.asarray(gamma, dtype=float).copy()
    converged = bool(best.success)

    if compute_modes:
        modes = _conditional_modes(ws, gamma, psi2, sigma, tau)
        # Recentre: move the weighted mean of the modes into gamma when the
        # design spans the constant vector.
        wbar = float(ws.weights @ modes) / float(ws.weights.sum())
        if wbar != 0.0:
            c, residual, *_ = np.linalg.lstsq(ws.X, np.ones(ws.n), rcond=None)
            if np.max(np.abs(ws.X @ c - 1.0)) < 1e-8:
                gamma = gamma + wbar * c
                modes = modes - wbar
    else:
        modes = np.zeros(J)

    loglik = ws.loglik_exact(gamma, psi2, sigma, tau)
    return QuantileMixedFit(
        tau=tau,
        gamma=gamma,
        psi2=float(psi2) if estimate_psi else float(fix_psi2),
        sigma=float(sigma),
        u={g: float(m) for g, m in zip(ws.labels, modes)},
        loglik=float(loglik),
        converged=converged,
        column_names=ws.column_names,
    )


# ---------------------------------------------------------------------------
# Predictions
# ---------------------------------------------------------------------------


def _as_matrix(X_new, P: int) -> np.ndarray:
    X_new = np.asarray(X_new, dtype=float)
    if X_new.ndim == 1:
        X_new = X_new[None, :]
    if X_new.ndim != 2 or X_new.shape[1] != P:
        raise ValidationError(f"X_new must have {P} column(s)")
    return X_new


def predict_marginal(
    fit: QuantileMixedFit,
    X_new,
    bootstrap: BootstrapFits | None = None,
) -> list[QuantilePrediction]:
    """Population-level prediction x' gamma_tau per row of X_new.

    With bootstrap fits supplied, the interval is the 2.5/97.5 percentile
    range of the refitted predictions; without them it degenerates to the
    point.
    """
    X_new = _as_matrix(X_new, fit.gamma.shape[0])
    points = X_new @ fit.gamma
    out = []
    for i, pt in enumerate(points):
        if bootstrap is not None:
            draws = bootstrap.estimates @ X_new[i]
            lo = float(np.quantile(draws, 0.025))
            hi = float(np.quantile(draws, 0.975))
            lo, hi = min(lo, float(pt)), max(hi, float(pt))
        else:
            lo = hi = float(pt)
        out.append(
            QuantilePrediction(
                level=fit.tau, kind="marginal", group=None,
                point=float(pt), ci_low=lo, ci_high=hi,
            )
        )
    return out


def predict_conditional(
    fit: QuantileMixedFit,
    X_new,
    group: str,
    bootstrap: BootstrapFits | None = None,
) -> list[QuantilePrediction]:
    """Group-conditional prediction x' gamma_tau + u_group per row.

    The difference from the marginal prediction is exactly the group's
    conditional mode. Unknown groups are an error: group effects are not
    extrapolated. Bootstrap intervals use the refits in which the group
    was resampled.
    """
    if group not in fit.u:
        raise ValidationError(f"unknown group {group!r}")
    X_new = _as_matrix(X_new, fit.gamma.shape[0])
    u_g = fit.u[group]
    points = X_new @ fit.gamma + u_g
    out = []
    for i, pt in enumerate(points):
        if bootstrap is not None:
            draws = [
                float(est @ X_new[i]) + ub[group]
                for est, ub in zip(bootstrap.estimates, bootstrap.u_by_group)
                if group in ub
            ]
            # A group lands in ~63% of cluster resamples; demand enough of
            # them for a usable percentile interval.
            if len(draws) < max(10, bootstrap.B // 10):
                raise NumericalError(
                    f"group {group!r} appeared in only {len(draws)} bootstrap refits"
                )
            lo = float(np.quantile(draws, 0.025))
            hi = float(np.quantile(draws, 0.975))
            lo, hi = min(lo, float(pt)), max(hi, float(pt))
        else:
            lo = hi = float(pt)
        out.append(
            QuantilePrediction(
                level=fit.tau, kind="conditional", group=group,
                point=float(pt), ci_low=lo, ci_high=hi,
            )
        )
    return out


# ---------------------------------------------------------------------------
# Cluster bootstrap
# ---------------------------------------------------------------------------


def _resample_groups(ws: _Workspace, rng: np.random.Generator) -> _Workspace:
    """Workspace of J groups drawn with replacement, gathered from ws's row blocks.

    Copy k of group g is labelled f"{g}~{k}" and the copies are ordered
    as those labels sort, exactly as _Workspace orders them when built
    from the resampled GroupedData: that order fixes the summation order
    of the likelihood.
    """
    J = len(ws.labels)
    picks = rng.integers(0, J, size=J)
    names = [f"{ws.labels[j]}~{k}" for k, j in enumerate(picks.tolist())]
    order = sorted(range(J), key=names.__getitem__)
    picked = picks[order]
    sizes = ws.sizes[picked]
    new_starts = np.cumsum(sizes) - sizes
    rows = np.arange(sizes.sum()) + np.repeat(ws.starts[picked] - new_starts, sizes)
    return _Workspace._from_rows(
        [names[k] for k in order],
        ws.z[rows],
        ws.X[rows],
        np.repeat(np.arange(J), sizes),
        ws.weights[picked],
        ws.column_names,
        None if ws.zs is None else ws.zs[rows],
    )


def _bootstrap_one(
    ws: _Workspace,
    tau: float,
    seed: int,
    b: int,
    start: tuple[np.ndarray, float, float],
    max_fev: int,
    compute_modes: bool,
) -> tuple[np.ndarray, float, float, dict[str, float], bool]:
    rng = np.random.default_rng(np.random.SeedSequence((seed, b)))
    resampled = _resample_groups(ws, rng)
    # Percentile intervals tolerate coarser optima than the base fit.
    fit = fit_lqmm(
        resampled,
        tau,
        restarts=1,
        start=start,
        max_fev=max_fev,
        xatol=1e-5,
        fatol=1e-8,
        compute_modes=compute_modes,
    )
    u_by_original: dict[str, float] = {}
    for label, val in fit.u.items():
        original = label.rsplit("~", 1)[0]
        u_by_original.setdefault(original, val)
    return fit.gamma, fit.psi2, fit.sigma, u_by_original, fit.converged


def bootstrap_fits(
    data: GroupedData,
    tau: float,
    B: int = 200,
    seed: int = 0,
    *,
    base_fit: QuantileMixedFit | None = None,
    max_fev: int | None = None,
    n_jobs: int = 1,
    group_effects: bool = True,
) -> BootstrapFits:
    """Nonparametric cluster bootstrap: resample groups with replacement.

    Each replicate redraws the J groups (weights travel with the group),
    refits from the base fit's parameters, and contributes one parameter
    vector. Refits that fail to converge are dropped and counted; more
    than 20% drops is an error. Replicate b derives its stream from
    (seed, b), so results are independent of scheduling and n_jobs.
    group_effects=False skips the per-replicate conditional modes (only
    fixed-effect intervals are then available).
    """
    if B < 50:
        raise ValidationError("bootstrap needs B >= 50 replicates")
    if base_fit is None:
        base_fit = fit_lqmm(data, tau)
    start = (base_fit.gamma, max(base_fit.psi2, PSI2_FLOOR * 10), base_fit.sigma)
    if max_fev is None:
        max_fev = 200 * (data.X.shape[1] + 2)

    ws = _Workspace(data)
    args = [
        (ws, tau, seed, b, start, max_fev, group_effects) for b in range(B)
    ]
    if n_jobs > 1:
        from multiprocessing import Pool

        with Pool(n_jobs) as pool:
            results = pool.starmap(_bootstrap_one, args)
    else:
        results = [_bootstrap_one(*a) for a in args]

    kept = [r for r in results if r[4]]
    n_dropped = B - len(kept)
    if n_dropped > 0.2 * B:
        raise NumericalError(
            f"{n_dropped} of {B} bootstrap refits failed to converge"
        )

    estimates = np.array([r[0] for r in kept])
    return BootstrapFits(
        tau=tau,
        estimates=estimates,
        psi2=np.array([r[1] for r in kept]),
        sigma=np.array([r[2] for r in kept]),
        u_by_group=tuple(r[3] for r in kept),
        ci_low=np.quantile(estimates, 0.025, axis=0),
        ci_high=np.quantile(estimates, 0.975, axis=0),
        std_error=estimates.std(axis=0, ddof=1),
        n_dropped=n_dropped,
        B=B,
        seed=seed,
    )
