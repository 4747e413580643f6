import math

import numpy as np
import pytest
from scipy.optimize import minimize

from latindex.optimize import golden_max, nelder_mead_batch
from latindex.quantile_mixed import GroupedData, _params, lqmm_loglik


def rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


def plateau(x):
    """Integer steps: most reflections tie with a vertex."""
    return float(np.floor(4.0 * np.sum(np.abs(x - 0.3))))


def constant(x):
    """Every step ties, so every iteration ends in a shrink."""
    return 1.0


def lqmm_objective():
    rng = np.random.default_rng(3)
    labels = [f"g{j}" for j in range(6)]
    group = [g for g in labels for _ in range(5)]
    data = GroupedData(
        z=np.clip(0.5 + rng.normal(0.0, 0.1, size=30), 0.0, 1.0),
        X=np.ones((30, 1)),
        group=group,
        group_weights={g: 1.0 for g in labels},
    )

    def negloglik(theta):
        gamma, psi2, sigma = _params(theta[None], 1, None)
        return -lqmm_loglik(data, gamma[0], psi2[0], sigma[0], 0.5)

    return negloglik


# (objective, x0, maxfev). Constant with N = 2 and maxfev = 6:
# three initial vertices, a reflection, an inside contraction that ties,
# then a shrink whose second vertex is moved but not evaluated.
CASES = [
    (rosenbrock, [-1.2, 1.0], 1000),  # converges
    (rosenbrock, [-1.2, 1.0, 0.0], 25),  # stopped by maxfev
    (plateau, [0.0, 2.0, -1.0], 300),  # ties throughout
    (constant, [1.0, 2.0], 1000),  # shrinks until the simplex converges
    (constant, [1.0, 2.0], 6),  # maxfev cut in the middle of a shrink
    (constant, [0.0, 0.0, 3.0], 8),  # cut in the middle of a shrink, zero start
    (lqmm_objective(), [0.5, math.log(0.05), math.log(0.003)], 400),
]


def scipy_nm(fun, x0, maxfev):
    options = {"xatol": 1e-6, "fatol": 1e-9, "maxiter": maxfev, "maxfev": maxfev}
    return minimize(fun, np.array(x0, dtype=float), method="Nelder-Mead", options=options)


def assert_same(ref, got, b):
    assert np.array_equal(ref.x, got.x[b])
    assert ref.fun == got.fun[b]
    assert ref.nfev == got.nfev[b]
    assert ref.nit == got.nit[b]
    assert ref.success == got.success[b]


class TestNelderMeadBatch:
    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_single_replicate_matches_scipy(self, case):
        fun, x0, maxfev = CASES[case]
        ref = scipy_nm(fun, x0, maxfev)
        got = nelder_mead_batch(
            lambda idx, pts: [fun(p) for p in pts],
            [x0],
            xatol=1e-6,
            fatol=1e-9,
            maxfev=maxfev,
        )
        assert_same(ref, got, 0)

    def test_replicates_in_lockstep_match_scipy(self):
        # Replicates of one dimension that stop at different rounds, for
        # different reasons, in one batch.
        rng = np.random.default_rng(11)
        for N in (2, 3):
            runs = [(f, x) for f, x, *_ in CASES if len(x) == N]
            runs += [(f, rng.normal(0.0, 1.5, size=N)) for f in (rosenbrock, plateau) for _ in range(4)]
            for maxfev in (6, 40, 1000):
                refs = [scipy_nm(f, x, maxfev) for f, x in runs]
                funs = [f for f, _ in runs]
                got = nelder_mead_batch(
                    lambda idx, pts: [funs[i](p) for i, p in zip(idx, pts)],
                    [x for _, x in runs],
                    xatol=1e-6,
                    fatol=1e-9,
                    maxfev=maxfev,
                )
                for b, ref in enumerate(refs):
                    assert_same(ref, got, b)

    def test_evaluates_only_running_replicates(self):
        seen = []

        def fun(idx, pts):
            seen.append(idx.copy())
            return [rosenbrock(p) for p in pts]

        got = nelder_mead_batch(fun, [[-1.2, 1.0], [1.0, 1.0]], xatol=1e-4, fatol=1e-4, maxfev=500)
        assert sum(len(i) for i in seen) == got.nfev.sum()
        assert all(len(i) == len(set(i.tolist())) for i in seen)
        assert len(seen) == got.nfev.max()


def test_golden_max_finds_parabola_peak():
    assert golden_max(lambda u: -((u - 0.3) ** 2), -1.0, 2.0, 80) == pytest.approx(0.3, abs=1e-9)


def reference_golden_max(fun, lo: float, hi: float, iters: int) -> float:
    """Golden-section search of one bracket, one branch per round (the reference)."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(iters):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fun(d)
    return 0.5 * (a + b)


@pytest.mark.parametrize("kind", ["smooth", "kinked", "stepped"])
def test_golden_max_on_brackets_equals_each_search_alone(kind):
    # Random brackets around random peaks; stepped plateaus make fc == fd ties.
    rng = np.random.default_rng(["smooth", "kinked", "stepped"].index(kind))
    n = 200
    peak, scale, tau = rng.uniform(-2.0, 2.0, n), rng.uniform(0.1, 5.0, n), rng.uniform(0.05, 0.95, n)
    lo = rng.uniform(-3.0, 1.0, n)
    hi = lo + rng.uniform(1e-3, 4.0, n)

    def f(u, peak, scale, tau):
        d = u - peak
        if kind == "smooth":
            return -scale * d * d * (1.0 + 0.1 * d * d)
        if kind == "kinked":
            return -scale * d * (tau - (d < 0))
        return -np.floor(scale * np.abs(d))

    calls = []

    def batch(u):
        calls.append(u.shape)
        return f(u, peak, scale, tau)

    got = golden_max(batch, lo, hi, 60)
    assert calls == [(n,)] * 62  # one call per round, and two to start
    for i in range(n):
        alone = lambda u: f(u, peak[i], scale[i], tau[i])
        want = reference_golden_max(alone, float(lo[i]), float(hi[i]), 60)
        assert got[i] == want
        assert golden_max(alone, float(lo[i]), float(hi[i]), 60) == want
