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
Every fit runs through one lockstep Nelder-Mead path: a base fit's
restarts, like the bootstrap's refits, step together with one batched
likelihood evaluation per round (and one more for their final values),
each exactly as scipy's Nelder-Mead would run it alone. A batched
evaluation is one pass over every piece of its resamples' integrands;
BATCH_SEGMENTS, the most pieces a bootstrap batch holds, is the one bound
on its memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
from scipy.optimize import minimize  # noqa: F401 -- nothing calls it; perfbench/tracing.py patches this name
from scipy.special import log_ndtr

from .errors import NumericalError, ValidationError
from .optimize import BatchMinimum, golden_max, nelder_mead_batch
from .quadrature import DEFAULT_ORDER, HermiteRule, hermite_rule, log_gaussian_expectation
from .streams import generators

PSI2_FLOOR = 1e-10
# The smallest psi2 a fit starts from. Bootstrap refits started from a base
# fit's psi2 near PSI2_FLOOR, where the likelihood is flat in log psi2,
# often run out of evaluations (61 of 200 in one criterion-10 replicate).
PSI2_START = 1e-4
SIGMA_FLOOR = 1e-8
# Nelder-Mead evaluation budget per optimized parameter, for base fits and
# bootstrap refits alike.
MAX_FEV_PER_PARAM = 400
# Bootstrap replicates are refitted in lockstep batches of at most this
# many likelihood segments (at least one replicate each). It is the one
# bound on the memory of the batch's likelihood layout and work buffers.
BATCH_SEGMENTS = 1 << 16


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
    u_by_group: tuple[dict[str, float], ...]  # per kept refit; empty when group_effects=False
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


def _normalized(weights: np.ndarray) -> np.ndarray:
    """Group weights scaled to sum to the number of groups."""
    return weights * (len(weights) / weights.sum())


def _point_mass_loglik(z, X, starts, weights, gamma, sigma, tau) -> float:
    """The weighted log-likelihood at psi2 = 0: the ALD sum at u = 0."""
    const = math.log(tau * (1.0 - tau)) - math.log(sigma)
    resid = z - X @ gamma
    loss = resid * (tau - (resid < 0))
    per_unit = const - loss / sigma
    per_group = np.add.reduceat(per_unit, starts)
    return float(weights @ per_group)


def _ramp(out: np.ndarray, starts: np.ndarray, base, step: int) -> np.ndarray:
    """Fill out[k] = base[g] + step * (k - starts[g]) on each run g = [starts[g], starts[g + 1])."""
    out[:] = step
    out[0] = base[0]
    out[starts[1:]] = base[1:] - base[:-1] - step * (np.diff(starts) - 1)
    return out.cumsum(out=out)


def _layout(ws: "_Workspace", picks: np.ndarray, tau: float) -> SimpleNamespace:
    """The exact likelihood's index arrays and work buffers for m resamples of ws's groups.

    Resample i is the groups picks[i] of ws, in that order. Its rows
    follow resample i - 1's and hold ws.zs; xrow indexes each row's
    design row in resample i's block of x' gamma values, and blocks holds,
    per group size, the (k, n) row slots of the k mixed groups of that
    size, whose residuals the kernel sorts. Group j contributes n_j + 1
    pieces of the piecewise-exponential integrand, in row order, from
    seg_starts[j] to last[j]. lo indexes the group-major sorted residuals,
    whose slot T holds -inf; a piece's upper end is the next piece's lower
    end, except that each group's last piece ends at +inf. Row i of the
    padded (m, n_max + 1) array cs0 holds 0.0 and then resample i's
    running sums of its sorted residuals, so the sum of the j smallest
    residuals of a group is cs0[p] - cs0[group_b]: exactly 0.0 on first
    pieces. Every array is as long as the pieces or rows of these
    resamples, so BATCH_SEGMENTS bounds them all.
    """
    m, J = picks.shape
    flat = picks.ravel()
    G = flat.size
    sizes = ws.sizes[flat]
    n = sizes.reshape(m, J).sum(axis=1)
    T, n_max = int(n.sum()), int(n.max())
    S = T + G
    src, starts = ws.group_rows(flat)
    seg_starts = np.cumsum(sizes + 1) - (sizes + 1)
    row0 = np.cumsum(n) - n
    shift = np.repeat(np.arange(m) * (n_max + 1) - row0, J)  # global row -> cs0 column, per group

    sg = _ramp(np.empty(S, dtype=np.intp), seg_starts, np.arange(G), 0)  # each piece's group
    lo = _ramp(np.empty(S, dtype=np.intp), seg_starts, np.zeros(G, dtype=np.intp), 1)  # piece index in its group
    p = sizes.take(sg)
    neg_d = np.multiply(p, tau)  # minus the slope in u of each piece's check loss
    np.negative(np.subtract(lo, neg_d, out=neg_d), out=neg_d)
    lo += starts.take(sg, out=p)  # the row of the piece's upper end
    np.add(shift.take(sg, out=p), lo, out=p)
    lo -= 1
    lo[seg_starts] = T

    xrow = _ramp(np.empty(T, dtype=np.intp), row0, np.arange(m) * len(ws.Xd), 0)  # resample i's x' gamma block
    xrow += ws.design[src]
    row_pad = None  # each row's slot in a padded (m, n_max) array, when rows are padded
    if T != m * n_max:
        row_pad = _ramp(np.empty(T, dtype=np.intp), row0, np.arange(m) * n_max, 1)
    mixed = np.flatnonzero(ws.mixed[flat])
    blocks = []
    for k in np.unique(sizes[mixed]):
        of_size = mixed[sizes[mixed] == k]
        blocks.append(starts[of_size][:, None] + np.arange(k))
    return SimpleNamespace(
        m=m, J=J, T=T, n_max=n_max, tau=tau, Xd=ws.Xd,
        starts=starts, sizes=sizes, seg_starts=seg_starts, last=seg_starts + sizes,
        sg=sg, lo=lo, p=p, group_b=starts + shift, neg_d=neg_d,
        row_pad=row_pad, z=ws.zs[src], xrow=xrow, blocks=blocks,
        rows=np.empty(T + 1), cs0=np.empty(m * (n_max + 1)), padded=np.zeros(m * n_max),
        w=np.empty((5, S)), mask=np.empty((2, S), dtype=bool),
    )


def _exact_loglik(L, gamma, psi2, sigma, weights) -> np.ndarray:
    """The weighted log-likelihood of each resample of layout L, intercept integrated out.

    gamma is (m, P), psi2 and sigma (m,) with psi2 > PSI2_FLOOR, weights
    (m, J). Between consecutive sorted residuals of a group the total
    check loss is linear in u, so each piece integrates in closed form:
    integral of exp(a u + b) phi(u; 0, psi2) over [lo, hi] equals
    exp(b + a^2 psi2 / 2) * (Phi((hi - a psi2)/psi) - Phi((lo - a psi2)/psi)).
    One pass takes every piece of L, in L's own work buffers, which
    BATCH_SEGMENTS bounds.

    x' gamma is computed once per distinct design row and resample,
    elementwise and summing the columns in order, so a row's value depends
    only on that row and gamma. Residuals z - x' gamma of groups with one
    design row keep the order of zs; those of mixed groups are sorted one
    block of equal-sized groups at a time, along each group's row.

    Resamples never mix: reductions run over one group's pieces, the
    running sums restart at each resample (a padded (m, n_max) array
    accumulated along axis 1), the scalars are each resample's own Python
    floats and the weighted sum over groups is one dot product per
    resample. So resample i's value does not depend on the others.
    """
    m, J, T, n_max, tau = L.m, L.J, L.T, L.n_max, L.tau
    const = np.array([math.log(tau * (1.0 - tau)) - math.log(v) for v in sigma.tolist()])
    psi = np.array([math.sqrt(v) for v in psi2.tolist()])

    buf = L.rows
    buf[T] = -np.inf
    s = buf[:T]  # residuals sorted within each group
    xd = L.Xd[:, 0] * gamma[:, :1]  # (m, D): x' gamma per distinct design row, column by column
    for k in range(1, gamma.shape[1]):
        xd += L.Xd[:, k] * gamma[:, k : k + 1]
    np.subtract(L.z, xd.ravel().take(L.xrow, out=L.cs0[:T]), out=s)
    for slots in L.blocks:
        s[slots] = np.sort(s.take(slots), axis=1)
    padded = s
    if L.row_pad is not None:
        padded = L.padded
        padded[L.row_pad] = s
    cs0, sg = L.cs0, L.sg
    by_resample = cs0.reshape(m, n_max + 1)
    by_resample[:, 0] = 0.0
    np.add.accumulate(padded.reshape(m, n_max), axis=1, out=by_resample[:, 1:])
    w0, w1, w2, w3, w4 = L.w
    flip, keep = L.mask
    # c = tau * (group_tot - prefix) - (1 - tau) * prefix, a = neg_d / sigma
    # and b = c / -sigma (== -c / sigma: rounding is symmetric in sign).
    prefix = np.subtract(cs0.take(L.p, out=w0), cs0.take(L.group_b).take(sg, out=w1), out=w0)
    c = np.subtract(np.add.reduceat(s, L.starts).take(sg, out=w2), prefix, out=w2)
    np.subtract(np.multiply(c, tau, out=c), np.multiply(prefix, 1.0 - tau, out=w1), out=c)
    sig = np.repeat(sigma, J).take(sg, out=w1)
    a = np.divide(L.neg_d, sig, out=w3)
    b = np.divide(c, np.negative(sig, out=sig), out=c)
    # head = b + 0.5 * a * a * psi2, the first two terms of each piece's log
    var = np.repeat(psi2, J).take(sg, out=w1)
    a_psi2 = np.multiply(a, var, out=w0)
    quad = np.multiply(np.multiply(np.multiply(a, 0.5, out=w4), a, out=w4), var, out=w4)
    head = np.add(b, quad, out=b)

    lo = buf.take(L.lo, out=w1)
    hi = w3
    hi[:-1] = lo[1:]
    hi[L.last] = np.inf
    sd = np.repeat(psi, J).take(sg, out=w4)
    alpha = np.divide(np.subtract(lo, a_psi2, out=lo), sd, out=lo)
    beta = np.divide(np.subtract(hi, a_psi2, out=hi), sd, out=hi)
    # Pieces above 0 use Phi(beta) - Phi(alpha) = Phi(-alpha) - Phi(-beta),
    # whose log log_ndtr evaluates without cancellation.
    np.logical_not(np.greater(alpha, 0.0, out=flip), out=keep)
    lo_arg = np.negative(beta, out=w0)  # where(flip, -beta, alpha)
    np.copyto(lo_arg, alpha, where=keep)
    hi_arg = np.negative(alpha, out=w4)  # where(flip, -alpha, beta)
    np.copyto(hi_arg, beta, where=keep)
    la, lb = log_ndtr(lo_arg, out=w1), log_ndtr(hi_arg, out=w3)
    with np.errstate(invalid="ignore", divide="ignore"):
        ldiff = np.minimum(np.subtract(la, lb, out=w0), 0.0, out=w0)
        np.log1p(np.negative(np.exp(ldiff, out=ldiff), out=ldiff), out=ldiff)
        np.add(lb, ldiff, out=ldiff)
    terms = np.add(head, ldiff, out=head)
    np.copyto(terms, -np.inf, where=np.logical_not(np.isfinite(terms, out=flip), out=keep))

    mx = np.maximum.reduceat(terms, L.seg_starts)
    mx = np.where(np.isfinite(mx), mx, 0.0)
    blown = np.exp(np.subtract(terms, mx.take(sg, out=w0), out=w0), out=w0)
    logint = mx + np.log(np.add.reduceat(blown, L.seg_starts))
    per_group = L.sizes.reshape(m, J) * const[:, None] + logint.reshape(m, J)
    return np.array(list(map(np.dot, weights, per_group)))


class _Workspace:
    """Rows grouped by label, for the likelihoods and the start values.

    z, X and g_sorted hold each group's rows in input order, groups in
    label order; the start values, the psi2 = 0 likelihood and the modes
    (on _Batch's gathered rows) sum over rows in that order. Xd holds the
    distinct design rows and design each row's index into Xd. A group is
    mixed when its rows have more than one design row. An unmixed group's
    residuals z - x_j' gamma keep the order of its responses for any
    gamma, so zs holds those responses sorted, and the exact likelihood
    sorts only the mixed groups, whose responses zs keeps in input order
    (design indexes zs's rows as well as z's).
    """

    def __init__(self, data: GroupedData):
        self.labels = list(data.labels)
        codes = {g: i for i, g in enumerate(self.labels)}
        g = np.array([codes[x] for x in data.group], dtype=np.intp)
        order = np.argsort(g, kind="stable")
        self.z, self.X, self.g_sorted = data.z[order], data.X[order], g[order]
        self.weights = np.array([data.group_weights[x] for x in self.labels])
        self.column_names = data.column_names
        self.n, self.P = self.X.shape
        self.starts = np.searchsorted(self.g_sorted, np.arange(len(self.labels)))
        self.sizes = np.diff(np.append(self.starts, self.n))
        self.Xd, design = np.unique(self.X, axis=0, return_inverse=True)
        self.design = design.ravel()
        first = self.design[self.starts][self.g_sorted]  # the design row each row's group starts with
        self.mixed = np.zeros(len(self.labels), dtype=bool)
        self.mixed[self.g_sorted[self.design != first]] = True
        # A constant key keeps a mixed group's rows in input order (lexsort is stable).
        self.zs = self.z[np.lexsort((np.where(self.mixed[self.g_sorted], 0.0, self.z), self.g_sorted))]

    def group_rows(self, picked: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Row indices of the picked groups' blocks laid end to end, and each block's start."""
        sizes = self.sizes[picked]
        starts = np.cumsum(sizes) - sizes
        return _ramp(np.empty(int(sizes.sum()), dtype=np.intp), starts, self.starts[picked], 1), starts

    def loglik_quadrature(self, gamma, psi2, sigma, tau, rule: HermiteRule) -> float:
        if psi2 <= PSI2_FLOOR:
            return _point_mass_loglik(self.z, self.X, self.starts, self.weights, gamma, sigma, tau)
        resid = self.z - self.X @ gamma
        const = math.log(tau * (1.0 - tau)) - math.log(sigma)
        u = math.sqrt(psi2) * rule.standard_normal_points()[0]
        d = resid[:, None] - u[None, :]
        loss = d * (tau - (d < 0))
        per_unit = const - loss / sigma
        per_group = np.add.reduceat(per_unit, self.starts, axis=0)
        return float(self.weights @ log_gaussian_expectation(per_group, rule))


class _Batch:
    """The exact log-likelihood of many resamples of a workspace at once, one value each.

    Resample i is the groups picks[i] of ws with group weights weights[i]:
    a bootstrap replicate, or ws itself for each restart of a base fit.
    The running resamples are laid end to end in one _layout, built anew
    when that set changes, and evaluated by one _exact_loglik call; those
    at the point-mass floor of psi2 take the scalar branch one at a time.
    So resample i's value does not depend on which others run with it.
    z and X gather every resample's rows once, each group's in ws's input
    order; starts[r] holds where resample r's groups start in them.
    """

    def __init__(self, ws: _Workspace, picks: np.ndarray, tau: float, weights: np.ndarray):
        self.ws, self.picks, self.tau, self.weights = ws, picks, tau, weights
        self._layout, self._key = None, None
        rows, starts = ws.group_rows(picks.ravel())
        self.z, self.X, self.starts = ws.z[rows], ws.X[rows], starts.reshape(picks.shape)
        self._ends = np.append(self.starts[1:, 0], rows.size)

    def rows(self, r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Resample r's responses, design rows and group starts."""
        s, e = self.starts[r, 0], self._ends[r]
        return self.z[s:e], self.X[s:e], self.starts[r] - s

    def loglik_exact(self, idx, gamma, psi2, sigma) -> np.ndarray:
        """Resample idx[i]'s log-likelihood at gamma[i], psi2[i], sigma[i] and tau, for each i."""
        out = np.empty(idx.size)
        low = psi2 <= PSI2_FLOOR
        for i in np.flatnonzero(low):
            r = idx[i]
            out[i] = _point_mass_loglik(*self.rows(r), self.weights[r], gamma[i], sigma[i], self.tau)
        if not low.all():
            high = idx[~low]
            key = high.tobytes()
            if key != self._key:
                self._layout = None  # freed before the next one is built
                self._layout, self._key = _layout(self.ws, self.picks[high], self.tau), key
            out[~low] = _exact_loglik(self._layout, gamma[~low], psi2[~low], sigma[~low], self.weights[high])
        return out


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
        batch = _Batch(ws, np.arange(len(ws.labels))[None], tau, ws.weights[None])
        params = np.array([psi2], dtype=float), np.array([sigma], dtype=float)
        out = float(batch.loglik_exact(np.zeros(1, dtype=np.intp), gamma[None], *params)[0])
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
    psi2 = max(float(np.var(group_q)), PSI2_START)
    loss = resid * (tau - (resid < 0))
    sigma = max(float((row_weights * loss).sum() / row_weights.sum()), 1e-3)
    return gamma, psi2, sigma


def _conditional_modes(resid, starts, psi2, sigma, tau) -> np.ndarray:
    """Posterior mode of each group intercept under ALD likelihood x normal prior.

    Group j holds the rows from starts[j] on, with its own psi2 and sigma
    (mode 0 at the psi2 floor). One golden_max searches all groups; those of
    one size form a (k, n) block, whose row sums match 1-D sums bit for bit.
    """
    sizes = np.diff(starts, append=resid.size)
    live = np.flatnonzero(psi2 > PSI2_FLOOR)
    psi2, sigma, q, blocks = psi2[live], sigma[live], np.empty(live.size), []
    for n in np.unique(sizes[live]).tolist():
        at = np.flatnonzero(sizes[live] == n)
        r = resid[starts[live[at]][:, None] + np.arange(n)]
        # Each group's _weighted_quantile at unit weights, whose running sums are 1, ..., n.
        q[at] = np.sort(r, axis=1)[:, min(int(np.searchsorted(np.arange(1.0, n + 1), tau * n)), n - 1)]
        blocks.append((at, r, sigma[at], psi2[at]))

    def logpost(u):
        out = np.empty(u.size)
        for at, r, sig, var in blocks:
            d = r - u[at, None]
            loss = d * (tau - (d < 0))
            out[at] = -loss.sum(axis=1) / sig - 0.5 * u[at] * u[at] / var
        return out

    psi = np.sqrt(psi2)
    modes = np.zeros(starts.size)
    modes[live] = golden_max(logpost, np.minimum(0.0, q) - 2.0 * psi, np.maximum(0.0, q) + 2.0 * psi, 100)
    return modes


def _params(thetas: np.ndarray, P: int, fix_psi2: float | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """gamma (m, P), psi2 and sigma (m,) from the optimizer's (m, N) rows (gamma, log sigma[, log psi2]).

    Each exp is math.exp of one element: numpy's SIMD exp differs from
    it in the last bit for some arguments.
    """
    sigma = np.array([math.exp(min(v, 50.0)) + SIGMA_FLOOR for v in thetas[:, P].tolist()])
    if fix_psi2 is None:
        psi2 = np.array([math.exp(min(v, 50.0)) for v in thetas[:, P + 1].tolist()])
    else:
        psi2 = np.full(len(thetas), float(fix_psi2))
    return thetas[:, :P].copy(), psi2, sigma


def _theta(gamma, psi2: float, sigma: float, estimate_psi: bool) -> np.ndarray:
    """The optimizer's parameter vector at (gamma, psi2, sigma)."""
    return np.concatenate(
        [gamma, [math.log(sigma)], [math.log(max(psi2, PSI2_FLOOR))] if estimate_psi else []]
    )


def _fit_lockstep(
    ws: _Workspace, picks: np.ndarray, tau: float, thetas0: np.ndarray, fix_psi2: float | None,
    xatol: float, fatol: float, max_fev: int,
) -> tuple[_Batch, BatchMinimum]:
    """Minimize the negative loglik of each resample picks[i] of ws from thetas0[i], in lockstep.

    Each run follows the path scipy's Nelder-Mead takes on it alone (see
    nelder_mead_batch), and each round evaluates every running resample
    in one batched likelihood call. Returns the batch, which the final
    log-likelihoods reuse, and the optimizer's results.
    """
    batch = _Batch(ws, picks, tau, np.array([_normalized(ws.weights[p]) for p in picks]))

    def negloglik(idx: np.ndarray, thetas: np.ndarray) -> np.ndarray:
        return -batch.loglik_exact(idx, *_params(thetas, ws.P, fix_psi2))

    res = nelder_mead_batch(negloglik, thetas0, xatol=xatol, fatol=fatol, maxiter=max_fev, maxfev=max_fev)
    return batch, res


def _finish_fits(batch: _Batch, thetas, fix_psi2: float | None, compute_modes: bool):
    """gamma (m, P), psi2, sigma, modes u (m, J) and loglik of resample i < m of batch at thetas[i].

    m is len(thetas), and u is zero unless compute_modes. Only recentring goes
    one resample at a time, as lstsq's bits depend on the resample's rows.
    """
    m, J = len(thetas), batch.picks.shape[1]
    gamma, psi2, sigma = _params(thetas, batch.ws.P, fix_psi2)
    u = np.zeros((m, J))
    if compute_modes:
        resid = np.concatenate([z - X @ g for (z, X, _), g in zip(map(batch.rows, range(m)), gamma)])
        u = _conditional_modes(resid, batch.starts[:m].ravel(), np.repeat(psi2, J), np.repeat(sigma, J), batch.tau)
        u = u.reshape(m, J)
        for i in range(m):
            # Recentre: move the weighted mean of the modes into gamma when the
            # design spans the constant vector.
            wbar = float(batch.weights[i] @ u[i]) / float(batch.weights[i].sum())
            if wbar != 0.0:
                z, X, _ = batch.rows(i)
                c, *_ = np.linalg.lstsq(X, np.ones(z.size), rcond=None)
                if np.max(np.abs(X @ c - 1.0)) < 1e-8:
                    gamma[i] = gamma[i] + wbar * c
                    u[i] = u[i] - wbar
    loglik = batch.loglik_exact(np.arange(m), gamma, psi2, sigma)
    if not np.isfinite(loglik).all():
        raise NumericalError("fitted log-likelihood is not finite")
    return gamma, psi2, sigma, u, loglik


def fit_lqmm(
    data: GroupedData,
    tau: float,
    *,
    restarts: int = 5,
    fix_psi2: float | None = None,
    compute_modes: bool = True,
) -> QuantileMixedFit:
    """Maximize the weighted ALD mixed likelihood at one quantile level.

    Optimizes (gamma, log sigma, log psi2) by Nelder-Mead (xatol 1e-6,
    fatol 1e-9, at most MAX_FEV_PER_PARAM evaluations per parameter)
    from the documented start plus jittered restarts (deterministic
    jitter), evaluating the likelihood with the exact segment
    integration. The restarts run in lockstep and the first with the
    lowest objective wins. fix_psi2 pins the random-intercept variance instead of
    estimating it (fix_psi2=0 gives the fixed-quantile collapse).
    Conditional group modes are found afterwards by golden-section search
    and recentred: when the constant vector lies in the design's column
    space, the weighted mean of the modes is moved into gamma, so
    conditional predictions are unchanged and the modes average to zero.

    Group weights are normalized to sum to the number of groups before
    optimizing; the reported loglik is on that normalized scale.

    Constant responses, and a single group when psi2 is estimated, leave
    the model unidentified and raise ValidationError.
    """
    if not 0.0 < tau < 1.0:
        raise ValidationError("tau must lie strictly inside (0, 1)")
    if restarts < 1:
        raise ValidationError("need at least one optimizer start")

    ws = _Workspace(data)
    if fix_psi2 is None and len(ws.labels) < 2:
        raise ValidationError("estimating psi2 needs at least two groups (or pass fix_psi2)")
    if ws.n == 0 or ws.z.min() == ws.z.max():
        raise ValidationError("responses are constant: the model is not identified")
    gamma0, psi2_0, sigma0 = _start_values(ws, tau, _normalized(ws.weights)[ws.g_sorted])
    estimate_psi = fix_psi2 is None
    if not estimate_psi and fix_psi2 < 0:
        raise ValidationError("fix_psi2 must be nonnegative")

    base = _theta(gamma0, psi2_0, sigma0, estimate_psi)
    thetas0 = np.tile(base, (restarts, 1))
    jitter_rng = np.random.default_rng(1729)
    for theta0 in thetas0[1:]:
        theta0[: ws.P] += jitter_rng.normal(0.0, 0.05, size=ws.P)
        theta0[ws.P] += jitter_rng.normal(0.0, 0.2)
        if estimate_psi:
            theta0[ws.P + 1] += jitter_rng.normal(0.0, 0.4)
    picks = np.tile(np.arange(len(ws.labels)), (restarts, 1))  # every restart fits ws itself
    batch, res = _fit_lockstep(ws, picks, tau, thetas0, fix_psi2, 1e-6, 1e-9, MAX_FEV_PER_PARAM * base.size)
    best = min(range(restarts), key=res.fun.__getitem__)  # the first of the lowest
    gamma, psi2, sigma, u, loglik = _finish_fits(batch, res.x[[best]], fix_psi2, compute_modes)
    return QuantileMixedFit(tau, gamma[0], float(psi2[0]), float(sigma[0]), dict(zip(ws.labels, u[0].tolist())),
                            float(loglik[0]), bool(res.success[best]), ws.column_names)


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
    if bootstrap is not None and not bootstrap.u_by_group:
        raise ValidationError("bootstrap_fits ran with group_effects=False: it holds no group modes")
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


def _pick_groups(ws: _Workspace, rng: np.random.Generator) -> np.ndarray:
    """Source groups of J groups drawn with replacement, in label order.

    Copy k of group g is labelled f"{g}~{k}" and the copies are ordered
    as those labels sort, exactly as _Workspace orders them when built
    from the resampled GroupedData: that order fixes the summation order
    of the likelihood. The labels themselves are not kept.
    """
    J = len(ws.labels)
    picks = rng.integers(0, J, size=J)
    names = [f"{ws.labels[j]}~{k}" for k, j in enumerate(picks.tolist())]
    return picks[sorted(range(J), key=names.__getitem__)]


def bootstrap_fits(
    data: GroupedData,
    tau: float,
    B: int = 200,
    seed: int = 0,
    *,
    base_fit: QuantileMixedFit | None = None,
    max_fev: int | None = None,
    group_effects: bool = True,
) -> BootstrapFits:
    """Nonparametric cluster bootstrap: resample groups with replacement.

    Each replicate redraws the J groups (weights travel with the group),
    refits from the base fit's parameters, and contributes one parameter
    vector. Refits get the base fit's budget of MAX_FEV_PER_PARAM
    evaluations per parameter unless max_fev says otherwise; those that
    fail to converge are dropped and counted, and more than 20% drops is
    an error. Replicate b derives its stream from
    (seed, b), and the refits run in lockstep batches whose size
    (BATCH_SEGMENTS) changes no result. A group drawn twice reports the
    mode of its first copy in label order. group_effects=False skips the
    modes: u_by_group is then empty, for fixed-effect intervals only.
    """
    if B < 50:
        raise ValidationError("bootstrap needs B >= 50 replicates")
    if base_fit is None:
        base_fit = fit_lqmm(data, tau)
    theta0 = _theta(base_fit.gamma, max(base_fit.psi2, PSI2_START), base_fit.sigma, True)
    if max_fev is None:
        max_fev = MAX_FEV_PER_PARAM * theta0.size

    ws = _Workspace(data)
    picks = np.array([_pick_groups(ws, rng) for rng in generators(seed, np.arange(B))])
    segments = ws.sizes[picks].sum(axis=1) + picks.shape[1]
    parts = []
    start = 0
    while start < B:
        # Each batch takes the most draws that fit in BATCH_SEGMENTS likelihood segments, and at least one.
        stop = start + max(1, int(np.searchsorted(np.cumsum(segments[start:]), BATCH_SEGMENTS, side="right")))
        # Percentile intervals tolerate coarser optima than the base fit.
        thetas0 = np.tile(theta0, (stop - start, 1))
        batch, res = _fit_lockstep(ws, picks[start:stop], tau, thetas0, None, 1e-5, 1e-8, max_fev)
        parts.append((*_finish_fits(batch, res.x, None, group_effects), res.success))
        # Free this batch's layout and rows before the next one is built.
        del batch, res
        start = stop
    gamma, psi2, sigma, u, _, converged = (np.concatenate(part) for part in zip(*parts))

    n_dropped = B - int(converged.sum())
    if n_dropped > 0.2 * B:
        raise NumericalError(
            f"{n_dropped} of {B} bootstrap refits failed to converge"
        )

    u_by_group = []
    for pick, modes in zip(picks[converged], u[converged]) if group_effects else ():
        groups, first = np.unique(pick, return_index=True)
        u_by_group.append({ws.labels[j]: v for j, v in zip(groups.tolist(), modes[first].tolist())})
    estimates = gamma[converged]
    return BootstrapFits(
        tau=tau,
        estimates=estimates,
        psi2=psi2[converged],
        sigma=sigma[converged],
        u_by_group=tuple(u_by_group),
        ci_low=np.quantile(estimates, 0.025, axis=0),
        ci_high=np.quantile(estimates, 0.975, axis=0),
        std_error=estimates.std(axis=0, ddof=1),
        n_dropped=n_dropped,
        B=B,
        seed=seed,
    )
