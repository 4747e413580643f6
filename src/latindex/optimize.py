"""Derivative-free optimizers shared by the model fits."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def golden_max(fun, lo, hi, iters: int):
    """Golden-section maximization of a unimodal function on [lo, hi].

    Runs a fixed number of bracket reductions, each shrinking the bracket
    by 1/phi, and returns the midpoint of the final bracket. For arrays of
    brackets, each round makes one fun call on an array of points, and each
    bracket's result is bit for bit that of a search of it alone.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(iters):
        left = fc > fd  # the maximum lies in [a, d]: d becomes the upper end, c the new d
        a, b = np.where(left, a, c), np.where(left, d, b)
        x = np.where(left, b - invphi * (b - a), a + invphi * (b - a))
        fx = fun(x)
        c, d, fc, fd = np.where(left, x, d), np.where(left, c, x), np.where(left, fx, fd), np.where(left, fc, fx)
    return 0.5 * (a + b)


# Phases of one replicate in nelder_mead_batch: the point each one waits for.
_INIT, _REFLECT, _EXPAND, _OUTSIDE, _INSIDE, _SHRINK, _DONE = range(7)


@dataclass(frozen=True)
class BatchMinimum:
    """Per-replicate results of nelder_mead_batch, as scipy reports them."""

    x: np.ndarray  # (B, N) best vertex
    fun: np.ndarray  # (B,)
    nfev: np.ndarray  # (B,)
    nit: np.ndarray  # (B,)
    success: np.ndarray  # (B,) bool


def nelder_mead_batch(fun, x0, *, xatol, fatol, maxfev) -> BatchMinimum:
    """Run B independent Nelder-Mead minimizations in lockstep.

    A port of scipy 1.17.1's ``_minimize_neldermead`` (no bounds, and an
    iteration cap equal to maxfev) that holds the B simplices as one
    (B, N+1, N) array. Each round, ``fun(idx, points)`` receives
    the indices of the replicates still running and one point each, and
    returns their objective values. Every replicate takes exactly the path
    scipy takes on its objective alone: the same initial simplex, vertex
    ordering, steps, stopping tests and evaluation budget, including the
    cut inside a shrink when maxfev runs out, where the shrunk vertex
    keeps its old value. So x, fun, nfev, nit and success equal scipy's,
    bit for bit. The iteration cap never binds before maxfev does: once
    the initial simplex is evaluated, nfev >= nit + N.
    """
    x0 = np.array(x0, dtype=float, ndmin=2)
    B, N = x0.shape
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5

    sim = np.repeat(x0[:, None, :], N + 1, axis=1)
    for k in range(N):
        y = x0[:, k]
        sim[:, k + 1, k] = np.where(y != 0, (1 + 0.05) * y, 0.00025)
    fsim = np.full((B, N + 1), np.inf)
    fcalls = np.zeros(B, dtype=np.int64)
    nit = np.ones(B, dtype=np.int64)
    phase = np.full(B, _INIT)
    vertex = np.zeros(B, dtype=np.intp)  # the vertex evaluated in _INIT and _SHRINK
    point = sim[:, 0].copy()  # the point each replicate waits for
    xbar = np.empty((B, N))
    xr = np.empty((B, N))
    fxr = np.empty(B)

    def ask(i, ph, pts):
        phase[i] = ph
        point[i] = pts

    def shrink(i):
        j = vertex[i]
        pts = sim[i, 0] + sigma * (sim[i, j] - sim[i, 0])
        sim[i, j] = pts
        ask(i, _SHRINK, pts)

    def order(i):  # np.argsort + np.take, row by row
        fs = fsim[i]
        ind = np.argsort(fs, axis=1)
        rows = np.arange(i.size)[:, None]
        fsim[i] = fs[rows, ind]
        sim[i] = sim[i][rows, ind]

    def settle(asked, init_done, iter_done):
        """Apply the evaluation budget to new requests, then end iterations."""
        cut = asked[fcalls[asked] >= maxfev]
        cut_init = cut[phase[cut] == _INIT]
        init_done = np.concatenate([init_done, cut_init])
        nit[iter_done] += 1
        ended = np.concatenate([init_done, iter_done, cut[phase[cut] != _INIT]])
        if ended.size == 0:
            return
        order(ended)
        if init_done.size:
            order(init_done)  # scipy sorts the initial simplex twice
        s, fs = sim[ended], fsim[ended]
        go = fcalls[ended] < maxfev
        with np.errstate(invalid="ignore"):  # inf - inf: nan fails the test, as in scipy
            converged = (np.max(np.abs(s[:, 1:] - s[:, :1]), axis=(1, 2)) <= xatol) & (
                np.max(np.abs(fs[:, :1] - fs[:, 1:]), axis=1) <= fatol
            )
        stop = ~go | converged
        phase[ended[stop]] = _DONE
        i = ended[~stop]
        xb = np.add.reduce(s[~stop, :-1], 1) / N
        xbar[i] = xb
        xr[i] = (1 + rho) * xb - rho * s[~stop, -1]
        ask(i, _REFLECT, xr[i])

    empty = np.zeros(0, dtype=np.intp)
    settle(np.arange(B), empty, empty)
    while True:
        live = np.flatnonzero(phase != _DONE)
        if live.size == 0:
            break
        f = np.asarray(fun(live, point[live]), dtype=float)
        fcalls[live] += 1
        ph = phase[live]
        asked, init_done, iter_done = [empty], [empty], [empty]

        m = ph == _INIT
        if m.any():
            i, fi = live[m], f[m]
            fsim[i, vertex[i]] = fi
            vertex[i] += 1
            more = vertex[i] <= N
            ask(i[more], _INIT, sim[i[more], vertex[i[more]]])
            asked.append(i[more])
            init_done.append(i[~more])

        m = ph == _REFLECT
        if m.any():
            i, fi = live[m], f[m]
            fxr[i] = fi
            expand = fi < fsim[i, 0]
            accept = ~expand & (fi < fsim[i, -2])
            outside = ~expand & ~accept & (fi < fsim[i, -1])
            inside = ~expand & ~accept & ~outside
            e, a, o, n = i[expand], i[accept], i[outside], i[inside]
            ask(e, _EXPAND, (1 + rho * chi) * xbar[e] - rho * chi * sim[e, -1])
            sim[a, -1] = xr[a]
            fsim[a, -1] = fi[accept]
            ask(o, _OUTSIDE, (1 + psi * rho) * xbar[o] - psi * rho * sim[o, -1])
            ask(n, _INSIDE, (1 - psi) * xbar[n] + psi * sim[n, -1])
            asked += [e, o, n]
            iter_done.append(a)

        m = ph == _EXPAND
        if m.any():
            i, fi = live[m], f[m]
            better = fi < fxr[i]
            sim[i, -1] = np.where(better[:, None], point[i], xr[i])
            fsim[i, -1] = np.where(better, fi, fxr[i])
            iter_done.append(i)

        for contraction in (_OUTSIDE, _INSIDE):
            m = ph == contraction
            if not m.any():
                continue
            i, fi = live[m], f[m]
            ok = fi <= fxr[i] if contraction == _OUTSIDE else fi < fsim[i, -1]
            a, s = i[ok], i[~ok]
            sim[a, -1] = point[a]
            fsim[a, -1] = fi[ok]
            iter_done.append(a)
            vertex[s] = 1
            shrink(s)
            asked.append(s)

        m = ph == _SHRINK
        if m.any():
            i, fi = live[m], f[m]
            fsim[i, vertex[i]] = fi
            vertex[i] += 1
            more = vertex[i] <= N
            shrink(i[more])
            asked.append(i[more])
            iter_done.append(i[~more])

        settle(np.concatenate(asked), np.concatenate(init_done), np.concatenate(iter_done))

    return BatchMinimum(
        x=sim[:, 0].copy(), fun=np.min(fsim, axis=1), nfev=fcalls, nit=nit, success=fcalls < maxfev
    )
