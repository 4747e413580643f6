"""Gauss-Hermite rules and Gaussian-expectation integration.

All Gaussian expectations in the package go through this module so the
sqrt(2) change of variables between the physicists' weight exp(-x^2) and
the standard normal density lives in exactly one place. Nodes and weights
come from the Golub-Welsch eigendecomposition of the Jacobi matrix of the
Hermite polynomials, which is stable up to order 200 and testable against
the closed forms for small orders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericalError

MAX_ORDER = 200

# Order used by every downstream model fit unless the caller overrides it.
# Odd, so a node sits exactly at zero.
DEFAULT_ORDER = 61

SQRT_PI = math.sqrt(math.pi)


@dataclass(frozen=True)
class HermiteRule:
    """Nodes and weights of a physicists' Gauss-Hermite rule.

    The rule integrates against exp(-x^2): sum(w_i * f(x_i)) approximates
    the integral of f(x) exp(-x^2) over the real line, exactly for
    polynomials of degree <= 2 * order - 1. Immutable and safe to share
    across threads.
    """

    order: int
    nodes: np.ndarray
    weights: np.ndarray

    def standard_normal_points(self) -> tuple[np.ndarray, np.ndarray]:
        """Return (z, p): points and probability masses for the N(0,1) density.

        z = sqrt(2) * nodes and p = weights / sqrt(pi), so that
        sum(p_i * f(z_i)) approximates E[f(Z)] with Z standard normal.
        The masses p sum to one.
        """
        return self.nodes * math.sqrt(2.0), self.weights / SQRT_PI


def hermite_rule(order: int) -> HermiteRule:
    """Build the Gauss-Hermite rule of the given order via Golub-Welsch.

    The Jacobi matrix of the (monic) Hermite recurrence is symmetric
    tridiagonal with off-diagonal sqrt(k/2); its eigenvalues are the
    nodes and sqrt(pi) times the squared first eigenvector components
    are the weights. Nodes and weights are symmetrized afterwards so the
    pairing node[i] == -node[order-1-i] holds to the last bit and odd
    orders carry an exact zero node.

    Raises ValueError if order is not in [1, 200].
    """
    if not isinstance(order, (int, np.integer)) or isinstance(order, bool):
        raise ValueError(f"quadrature order must be an integer, got {order!r}")
    if order < 1 or order > MAX_ORDER:
        raise ValueError(f"quadrature order must be in [1, {MAX_ORDER}], got {order}")

    if order == 1:
        nodes = np.zeros(1)
        weights = np.array([SQRT_PI])
        return HermiteRule(order=1, nodes=nodes, weights=weights)

    k = np.arange(1, order, dtype=float)
    off = np.sqrt(k / 2.0)
    jacobi = np.diag(off, 1) + np.diag(off, -1)
    nodes = np.sort(np.linalg.eigvalsh(jacobi))

    # Weights via the Christoffel function of the orthonormal Hermite
    # polynomials: w_i = 1 / sum_{k<order} h_k(x_i)^2. Unlike squaring the
    # first eigenvector component, this keeps the tiny edge weights of
    # high orders above the float64 underflow threshold.
    h_prev = np.zeros_like(nodes)
    h = np.full_like(nodes, math.pi ** -0.25)
    total = h * h
    for m in range(1, order):
        h_prev, h = h, nodes * math.sqrt(2.0 / m) * h - math.sqrt((m - 1) / m) * h_prev
        total += h * h
    weights = 1.0 / total

    # Enforce the exact +/- symmetry the eigensolver only approximates.
    nodes = 0.5 * (nodes - nodes[::-1])
    weights = 0.5 * (weights + weights[::-1])
    if order % 2 == 1:
        nodes[order // 2] = 0.0

    nodes.setflags(write=False)
    weights.setflags(write=False)
    return HermiteRule(order=order, nodes=nodes, weights=weights)


def gaussian_expectation(f: Callable[[np.ndarray], np.ndarray], rule: HermiteRule) -> float:
    """Approximate E[f(Z)] for Z ~ N(0, 1) with the given rule.

    Computes (1/sqrt(pi)) * sum(w_i * f(sqrt(2) * x_i)). The integrand may
    be vectorized over an ndarray of points or accept scalars only.

    Raises NumericalError (carrying the offending node index) if f is not
    finite at some transformed node.
    """
    z, p = rule.standard_normal_points()
    try:
        values = np.asarray(f(z), dtype=float)
        if values.shape != z.shape:
            raise TypeError
    except (TypeError, ValueError):
        values = np.array([float(f(zi)) for zi in z])

    bad = ~np.isfinite(values)
    if bad.any():
        q = int(np.argmax(bad))
        raise NumericalError(
            f"integrand is not finite at node {q} (z = {z[q]:.6g})", node_index=q
        )
    return float(p @ values)


def log_node_posterior(log_values: np.ndarray, rule: HermiteRule) -> tuple[np.ndarray, np.ndarray]:
    """(log E[exp(g(Z))], log posterior over nodes) for Z ~ N(0,1).

    log_values holds g(z_q) along the last axis (one entry per node of
    the rule, ordered as standard_normal_points); leading axes are
    batched. The log posterior of node q is g(z_q) + log p_q minus the
    log marginal, so its exponential sums to one over the nodes. The
    log-sum-exp over nodes guards against underflow of the per-node
    likelihood contributions; where the marginal is -inf the posterior
    is nan.
    """
    log_values = np.asarray(log_values, dtype=float)
    if log_values.shape[-1] != rule.order:
        raise ValueError(
            f"last axis must have length {rule.order}, got {log_values.shape[-1]}"
        )
    a = log_values + np.log(rule.standard_normal_points()[1])
    m = np.max(a, axis=-1)
    m = np.where(np.isfinite(m), m, 0.0)
    log_marginal = m + np.log(np.sum(np.exp(a - m[..., None]), axis=-1))
    with np.errstate(invalid="ignore"):
        return log_marginal, a - log_marginal[..., None]


def log_gaussian_expectation(log_values: np.ndarray, rule: HermiteRule) -> np.ndarray:
    """log E[exp(g(Z))] for Z ~ N(0,1); the first output of log_node_posterior."""
    return log_node_posterior(log_values, rule)[0]
