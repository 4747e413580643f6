"""Survey-weighted binary latent trait model.

Fits the two-parameter logistic model

    logit P(x_ki = 1 | z) = beta0_i + beta1_i * z,      z ~ N(0, 1)

by marginal maximum likelihood EM with Gauss-Hermite quadrature, where
each unit's log-likelihood contribution is multiplied by its sampling
weight. Produces expected-a-posteriori (EAP) scores per unit and their
min-max rescaling to [0, 1].

Conventions fixed here because the model is otherwise unidentified:
the latent scale is pinned by the standard-normal prior, and the
reflection z -> -z is resolved by requiring sum(beta1) >= 0. Sampling
weights calibrate a unit's likelihood contribution to the population;
they do not enter that unit's own posterior, so EAP scoring uses
unweighted posteriors.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateItemError, DegenerateScaleError, NumericalError, ValidationError
from .quadrature import DEFAULT_ORDER, HermiteRule, hermite_rule, log_gaussian_expectation, log_node_posterior
from .serialize import to_json_text

BETA_CAP = 30.0


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResponseMatrix:
    """n x p binary responses with per-unit sampling weights.

    responses holds 0.0 / 1.0 / nan (nan = missing). Validation enforces:
    n >= 1, p >= 2, strictly positive finite weights, and at least one
    observed response per unit. Items lacking an observed 0 or an
    observed 1 are recorded in degenerate_items (flagged, not rejected;
    em_fit refuses them).
    """

    responses: np.ndarray
    unit_ids: tuple[str, ...]
    item_names: tuple[str, ...]
    weights: np.ndarray
    degenerate_items: tuple[str, ...] = field(init=False)

    def __post_init__(self):
        responses = np.asarray(self.responses, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "responses", responses)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "unit_ids", tuple(str(u) for u in self.unit_ids))
        object.__setattr__(self, "item_names", tuple(str(s) for s in self.item_names))

        n, p = responses.shape if responses.ndim == 2 else (0, 0)
        if responses.ndim != 2 or n < 1 or p < 2:
            raise ValidationError("responses must be an n x p matrix with n >= 1, p >= 2")
        if len(self.unit_ids) != n:
            raise ValidationError(f"expected {n} unit ids, got {len(self.unit_ids)}")
        if len(self.item_names) != p:
            raise ValidationError(f"expected {p} item names, got {len(self.item_names)}")
        if weights.shape != (n,):
            raise ValidationError(f"expected {n} weights, got shape {weights.shape}")
        if not np.all(np.isfinite(weights)) or np.any(weights <= 0):
            raise ValidationError("sampling weights must be strictly positive and finite")

        observed = ~np.isnan(responses)
        vals = responses[observed]
        if vals.size and not np.isin(vals, (0.0, 1.0)).all():
            raise ValidationError("responses must contain only 0, 1 or missing")
        if not observed.any(axis=1).all():
            k = int(np.argmin(observed.any(axis=1)))
            raise ValidationError(f"unit {self.unit_ids[k]!r} has no observed responses")

        degenerate = []
        for i, name in enumerate(self.item_names):
            col = responses[observed[:, i], i]
            if col.size == 0 or not ((col == 0).any() and (col == 1).any()):
                degenerate.append(name)
        object.__setattr__(self, "degenerate_items", tuple(degenerate))
        responses.setflags(write=False)
        weights.setflags(write=False)

    @property
    def n_units(self) -> int:
        return self.responses.shape[0]

    @property
    def n_items(self) -> int:
        return self.responses.shape[1]


@dataclass(frozen=True)
class ItemParameters:
    """Per-item intercept (beta0) and loading (beta1)."""

    beta0: np.ndarray
    beta1: np.ndarray

    def __post_init__(self):
        beta0 = np.atleast_1d(np.asarray(self.beta0, dtype=float))
        beta1 = np.atleast_1d(np.asarray(self.beta1, dtype=float))
        if beta0.shape != beta1.shape or beta0.ndim != 1:
            raise ValidationError("beta0 and beta1 must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(beta0)) and np.all(np.isfinite(beta1))):
            raise ValidationError("item parameters must be finite")
        beta0.setflags(write=False)
        beta1.setflags(write=False)
        object.__setattr__(self, "beta0", beta0)
        object.__setattr__(self, "beta1", beta1)

    @property
    def n_items(self) -> int:
        return self.beta0.shape[0]


@dataclass(frozen=True)
class FittedLTM:
    """EM output: item parameters plus convergence bookkeeping.

    loglik_trace holds the weighted marginal log-likelihood at each EM
    iterate (starting values included), so monotonicity is checkable
    after the fact.
    """

    params: ItemParameters
    log_likelihood: float
    n_iterations: int
    converged: bool
    quadrature_order: int
    item_names: tuple[str, ...]
    loglik_trace: np.ndarray

    def __post_init__(self):
        if not math.isfinite(self.log_likelihood):
            raise NumericalError("fitted log-likelihood is not finite")


@dataclass(frozen=True)
class LatentScores:
    """Per-unit EAP estimates, their [0,1] rescaling and posterior sds."""

    unit_ids: tuple[str, ...]
    raw: np.ndarray
    scaled: np.ndarray
    posterior_sd: np.ndarray


# ---------------------------------------------------------------------------
# Elementary model functions
# ---------------------------------------------------------------------------


def item_probability(beta0, beta1, z):
    """Response probability 1 / (1 + exp(-(beta0 + beta1 * z))).

    Vectorizes over any broadcastable combination of arguments and stays
    strictly inside (0, 1) even at extreme logits.
    """
    eta = np.asarray(beta0, dtype=float) + np.asarray(beta1, dtype=float) * np.asarray(z, dtype=float)
    p = np.clip(_sigmoid(eta), 1e-300, 1.0 - 1e-16)
    if eta.ndim == 0:
        return float(p)
    return p


def _sigmoid(eta: np.ndarray) -> np.ndarray:
    """1/(1+exp(-eta)) without overflow; exactly 0 or 1 at extreme eta."""
    # Both np.where branches evaluate; the unused one may overflow harmlessly.
    with np.errstate(over="ignore", invalid="ignore"):
        return np.where(eta >= 0, 1.0 / (1.0 + np.exp(-eta)), np.exp(eta) / (1.0 + np.exp(eta)))


def _log_sigmoid(eta: np.ndarray) -> np.ndarray:
    """log(1/(1+exp(-eta))) without overflow."""
    return np.where(eta >= 0, -np.log1p(np.exp(-np.abs(eta))), eta - np.log1p(np.exp(-np.abs(eta))))


def _indicators(responses: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x1, x0): 1.0 where a response is an observed 1 (an observed 0), else 0.0."""
    observed = ~np.isnan(responses)
    x1 = np.where(observed, np.nan_to_num(responses), 0.0)
    x0 = np.where(observed, 1.0 - np.nan_to_num(responses), 0.0)
    return x1, x0


def _node_loglik(x1: np.ndarray, x0: np.ndarray, beta0, beta1, z: np.ndarray) -> np.ndarray:
    """n x Q matrix of log P(x_k | z_q) from the response indicators."""
    eta = beta0[None, :] + beta1[None, :] * z[:, None]
    return x1 @ _log_sigmoid(eta).T + x0 @ _log_sigmoid(-eta).T


def _unit_node_loglik(data: ResponseMatrix, params: ItemParameters, z: np.ndarray) -> np.ndarray:
    """n x Q matrix of log P(x_k | z_q); missing responses are skipped."""
    if params.n_items != data.n_items:
        raise ValidationError(
            f"parameter count {params.n_items} does not match item count {data.n_items}"
        )
    return _node_loglik(*_indicators(data.responses), params.beta0, params.beta1, z)


def weighted_marginal_loglik(
    data: ResponseMatrix, params: ItemParameters, rule: HermiteRule
) -> float:
    """Weighted sum over units of log integral P(x_k | z) dPhi(z).

    Each unit's marginal probability is a Gaussian expectation of its
    response-pattern likelihood, evaluated on the rule's points with a
    log-sum-exp guard against underflow. Linear in the weights: doubling
    every weight doubles the result.
    """
    z, _ = rule.standard_normal_points()
    ll = _unit_node_loglik(data, params, z)
    unit_logmarg = log_gaussian_expectation(ll, rule)
    if not np.all(np.isfinite(unit_logmarg)):
        k = int(np.argmax(~np.isfinite(unit_logmarg)))
        raise NumericalError(f"marginal likelihood underflowed for unit {data.unit_ids[k]!r}")
    return float(data.weights @ unit_logmarg)


def scale_scores(raw) -> np.ndarray:
    """Min-max rescale to [0, 1]: (raw - min) / (max - min).

    Order preserving, invariant to positive affine changes of the input.
    Raises DegenerateScaleError for constant input or fewer than 2 values.
    """
    raw = np.asarray(raw, dtype=float)
    if raw.ndim != 1 or raw.size < 2:
        raise DegenerateScaleError("need at least two scores to rescale")
    lo = float(raw.min())
    hi = float(raw.max())
    if not (hi > lo):
        raise DegenerateScaleError("scores are constant; min-max scale is undefined")
    return (raw - lo) / (hi - lo)


# ---------------------------------------------------------------------------
# EM fit
# ---------------------------------------------------------------------------


def _item_newton(
    n_q: np.ndarray,
    r_q: np.ndarray,
    z: np.ndarray,
    b0: float,
    b1: float,
    ridge: float,
    max_inner: int = 50,
) -> tuple[float, float]:
    """Weighted logistic regression of pseudo-counts on (1, z).

    Damped Newton with a proximal ridge on the loading: the ridge enters
    the Hessian and the acceptance test penalizes movement of b1 away
    from the current iterate, so every accepted step increases the
    unpenalized expected complete-data log-likelihood. That keeps the
    outer EM monotone while still bounding steps on quasi-Guttman items,
    together with the hard cap |b| <= 30.
    """

    def objective(c0: float, c1: float) -> float:
        eta = c0 + c1 * z
        return float(r_q @ _log_sigmoid(eta) + (n_q - r_q) @ _log_sigmoid(-eta))

    cur = objective(b0, b1)
    for _ in range(max_inner):
        p = _sigmoid(b0 + b1 * z)
        resid = r_q - n_q * p
        g0 = float(resid.sum())
        g1 = float(resid @ z)
        if max(abs(g0), abs(g1)) < 1e-10 * max(1.0, abs(cur)):
            break
        fisher = n_q * p * (1.0 - p)
        h00 = float(fisher.sum())
        h01 = float(fisher @ z)
        h11 = float(fisher @ (z * z)) + ridge
        det = h00 * h11 - h01 * h01
        if det <= 0 or h00 <= 0:
            break
        d0 = (h11 * g0 - h01 * g1) / det
        d1 = (h00 * g1 - h01 * g0) / det

        step = 1.0
        accepted = False
        for _ in range(30):
            c0 = min(max(b0 + step * d0, -BETA_CAP), BETA_CAP)
            c1 = min(max(b1 + step * d1, -BETA_CAP), BETA_CAP)
            cand = objective(c0, c1)
            if cand - 0.5 * ridge * (c1 - b1) ** 2 > cur:
                b0, b1, cur = c0, c1, cand
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
    return b0, b1


def em_fit(
    data: ResponseMatrix,
    *,
    quadrature_order: int = DEFAULT_ORDER,
    max_iter: int = 500,
    tol: float = 1e-6,
    ridge: float = 1e-4,
) -> FittedLTM:
    """Marginal maximum likelihood EM for the weighted latent trait model.

    E-step: posterior mass of unit k at node q proportional to
    w_k * P(x_k | z_q) * nu_q, with nu the normalized quadrature weights.
    M-step: per-item logistic regression of the pseudo-counts on (1, z)
    (see _item_newton). Iterates until the weighted log-likelihood
    improves by less than tol or max_iter is reached; non-convergence is
    reported on the fit, not raised.

    Weights are normalized internally to mean one: rescaling all weights by
    a power of two reproduces the identical fit, while other factors round
    the normalization, which can move where EM stops by up to a few 1e-7.
    The reported log-likelihood uses the raw weights; tol is on the mean-one scale.

    Raises DegenerateItemError when an item has no observed 0 or no
    observed 1 (naming the item).
    """
    if tol <= 0:
        raise ValidationError("tol must be positive")
    if data.degenerate_items:
        raise DegenerateItemError(
            "cannot fit degenerate item(s): " + ", ".join(data.degenerate_items)
        )

    rule = hermite_rule(quadrature_order)
    z, _ = rule.standard_normal_points()

    n = data.n_units
    x1, x0 = _indicators(data.responses)
    obs = x1 + x0

    w_raw = data.weights
    w = w_raw * (n / float(w_raw.sum()))
    scale_back = float(w_raw.sum()) / n

    # Starting values: intercepts at the (clamped) logit of the weighted
    # item mean, unit loadings.
    with np.errstate(invalid="ignore"):
        wx = (w[:, None] * obs * x1).sum(axis=0) / (w[:, None] * obs).sum(axis=0)
    wx = np.clip(wx, 1e-6, 1.0 - 1e-6)
    beta0 = np.clip(np.log(wx / (1.0 - wx)), -3.0, 3.0)
    beta1 = np.ones(data.n_items)

    def normalized_loglik(b0: np.ndarray, b1: np.ndarray) -> tuple[float, np.ndarray]:
        logmarg, log_post = log_node_posterior(_node_loglik(x1, x0, b0, b1, z), rule)
        return float(w @ logmarg), log_post

    loglik, log_post = normalized_loglik(beta0, beta1)
    trace = [loglik * scale_back]

    # Guarded step expansion: EM contracts very slowly when loadings carry
    # little information, so each iteration also tries an extrapolation of
    # the EM step and keeps it only when it does not reduce the
    # log-likelihood. Rejection resets the multiplier, preserving the EM
    # monotonicity guarantee.
    accel = 1.0

    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        h = w[:, None] * np.exp(log_post)
        n_iq = obs.T @ h
        r_iq = x1.T @ h
        new0 = np.empty_like(beta0)
        new1 = np.empty_like(beta1)
        for i in range(data.n_items):
            new0[i], new1[i] = _item_newton(n_iq[i], r_iq[i], z, beta0[i], beta1[i], ridge)

        new_loglik, new_post = normalized_loglik(new0, new1)
        if accel > 1.0:
            acc0 = np.clip(beta0 + accel * (new0 - beta0), -BETA_CAP, BETA_CAP)
            acc1 = np.clip(beta1 + accel * (new1 - beta1), -BETA_CAP, BETA_CAP)
            acc_loglik, acc_post = normalized_loglik(acc0, acc1)
            if acc_loglik >= new_loglik:
                new0, new1 = acc0, acc1
                new_loglik, new_post = acc_loglik, acc_post
                accel = min(accel * 2.0, 32.0)
            else:
                accel = 1.0
        else:
            accel = 2.0

        beta0, beta1, log_post = new0, new1, new_post
        trace.append(new_loglik * scale_back)
        if abs(new_loglik - loglik) < tol:
            loglik = new_loglik
            converged = True
            break
        loglik = new_loglik

    if float(beta1.sum()) < 0.0:
        beta1 = -beta1

    return FittedLTM(
        params=ItemParameters(beta0=beta0.copy(), beta1=beta1.copy()),
        log_likelihood=loglik * scale_back,
        n_iterations=iterations,
        converged=converged,
        quadrature_order=quadrature_order,
        item_names=data.item_names,
        loglik_trace=np.asarray(trace),
    )


def eap_scores(fit: FittedLTM, data: ResponseMatrix, *, allow_non_converged: bool = False) -> LatentScores:
    """Expected-a-posteriori latent scores under the fitted parameters.

    The posterior of unit k over nodes is proportional to
    P(x_k | z_q) * nu_q, without the unit's sampling weight: weights
    calibrate likelihood contributions across the population and must
    not shift a unit's own posterior. posterior_sd comes from the
    posterior second moment; scaled is the min-max transform of raw.
    """
    if not fit.converged and not allow_non_converged:
        raise ValidationError("fit did not converge; pass allow_non_converged=True to score anyway")
    rule = hermite_rule(fit.quadrature_order)
    z, nu = rule.standard_normal_points()
    ll = _unit_node_loglik(data, fit.params, z)
    a = ll + np.log(nu)[None, :]
    m = a.max(axis=1)
    post = np.exp(a - m[:, None])
    post /= post.sum(axis=1, keepdims=True)
    raw = post @ z
    m2 = post @ (z * z)
    var = np.maximum(m2 - raw**2, 0.0)
    return LatentScores(
        unit_ids=data.unit_ids,
        raw=raw,
        scaled=scale_scores(raw),
        posterior_sd=np.sqrt(var),
    )


def simulate_responses(
    params: ItemParameters,
    n: int,
    seed: int,
    *,
    weights: np.ndarray | None = None,
    item_names: tuple[str, ...] | None = None,
) -> tuple[ResponseMatrix, np.ndarray]:
    """Draw units from the model: z ~ N(0,1), x_ki ~ Bernoulli(pi_i(z_k)).

    Reproducible given the seed; returns the generated data together
    with the latent values that produced it.
    """
    if n < 1:
        raise ValidationError("n must be at least 1")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(n)
    probs = item_probability(params.beta0[None, :], params.beta1[None, :], z[:, None])
    x = (rng.random((n, params.n_items)) < probs).astype(float)
    if item_names is None:
        item_names = tuple(f"item_{i + 1}" for i in range(params.n_items))
    if weights is None:
        weights = np.ones(n)
    data = ResponseMatrix(
        responses=x,
        unit_ids=tuple(f"u{k + 1:05d}" for k in range(n)),
        item_names=item_names,
        weights=np.asarray(weights, dtype=float),
    )
    return data, z


# ---------------------------------------------------------------------------
# Serialization (documented JSON layouts)
# ---------------------------------------------------------------------------


def fit_to_json(fit: FittedLTM) -> str:
    """{items: [{name, beta0, beta1}], loglik, converged, iterations}"""
    doc = {
        "items": [
            {"name": name, "beta0": float(b0), "beta1": float(b1)}
            for name, b0, b1 in zip(fit.item_names, fit.params.beta0, fit.params.beta1)
        ],
        "loglik": float(fit.log_likelihood),
        "converged": bool(fit.converged),
        "iterations": int(fit.n_iterations),
    }
    return to_json_text(doc)


def fit_from_json(text: str, *, quadrature_order: int = DEFAULT_ORDER) -> FittedLTM:
    """Rebuild a FittedLTM from its JSON serialization."""
    doc = json.loads(text)
    names = tuple(item["name"] for item in doc["items"])
    beta0 = np.array([item["beta0"] for item in doc["items"]], dtype=float)
    beta1 = np.array([item["beta1"] for item in doc["items"]], dtype=float)
    return FittedLTM(
        params=ItemParameters(beta0=beta0, beta1=beta1),
        log_likelihood=float(doc["loglik"]),
        n_iterations=int(doc["iterations"]),
        converged=bool(doc["converged"]),
        quadrature_order=quadrature_order,
        item_names=names,
        loglik_trace=np.array([float(doc["loglik"])]),
    )


def scores_to_json(scores: LatentScores) -> str:
    """{units: [{id, raw, scaled, posterior_sd}]}"""
    doc = {
        "units": [
            {"id": uid, "raw": float(r), "scaled": float(s), "posterior_sd": float(sd)}
            for uid, r, s, sd in zip(scores.unit_ids, scores.raw, scores.scaled, scores.posterior_sd)
        ]
    }
    return to_json_text(doc)


def scores_from_json(text: str) -> LatentScores:
    """Rebuild LatentScores from their JSON serialization."""
    doc = json.loads(text)
    units = doc["units"]
    return LatentScores(
        unit_ids=tuple(u["id"] for u in units),
        raw=np.array([u["raw"] for u in units], dtype=float),
        scaled=np.array([u["scaled"] for u in units], dtype=float),
        posterior_sd=np.array([u["posterior_sd"] for u in units], dtype=float),
    )
