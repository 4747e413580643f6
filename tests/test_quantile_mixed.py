import dataclasses
import math
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize
from scipy.special import log_ndtr

import latindex.quantile_mixed as qm
from latindex.errors import NumericalError, ValidationError
from latindex.optimize import golden_max
from latindex.quadrature import hermite_rule
from latindex.quantile_mixed import (
    PSI2_FLOOR,
    GroupedData,
    _Batch,
    _finish_fits,
    _fit_lockstep,
    _params,
    _pick_groups,
    _theta,
    _Workspace,
    ald_logdensity,
    bootstrap_fits,
    check_loss,
    fit_lqmm,
    lqmm_loglik,
    predict_conditional,
    predict_marginal,
)


def make_grouped(rng, J=10, n_j=20, levels=(0.2, 0.6), s_u=0.05, s_e=0.08, weights=None):
    """Two-level cell-means data: z = level(titularity) + u_group + noise."""
    rows_z, rows_X, groups = [], [], []
    labels = [f"g{j:02d}" for j in range(J)]
    for j, g in enumerate(labels):
        u = rng.normal(0.0, s_u)
        for _ in range(n_j):
            cell = int(rng.random() < 0.5)
            z = levels[cell] + u + rng.normal(0.0, s_e)
            rows_z.append(min(max(z, 0.0), 1.0))
            rows_X.append([1 - cell, cell])
            groups.append(g)
    if weights is None:
        gw = {g: 1.0 for g in labels}
    else:
        gw = dict(zip(labels, weights))
    return GroupedData(
        z=np.array(rows_z),
        X=np.array(rows_X),
        group=groups,
        group_weights=gw,
        column_names=("level_a", "level_b"),
    )


class TestCheckLoss:
    def test_median_loss_is_half_absolute(self):
        assert check_loss(-2.0, 0.5) == pytest.approx(1.0)
        assert check_loss(3.0, 0.5) == pytest.approx(1.5)

    def test_quarter_loss(self):
        assert check_loss(-1.0, 0.25) == pytest.approx(0.75)
        assert check_loss(1.0, 0.25) == pytest.approx(0.25)

    def test_zero_at_origin(self):
        for tau in (0.1, 0.25, 0.5, 0.9):
            assert check_loss(0.0, tau) == 0.0

    def test_nonnegative_and_convex(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            tau = rng.uniform(0.05, 0.95)
            a, b = rng.normal(size=2) * 3
            lam = rng.uniform()
            mid = check_loss(lam * a + (1 - lam) * b, tau)
            assert mid <= lam * check_loss(a, tau) + (1 - lam) * check_loss(b, tau) + 1e-12
            assert check_loss(a, tau) >= 0.0

    def test_requires_interior_tau(self):
        with pytest.raises(ValidationError):
            check_loss(1.0, 0.0)


class TestAldLogdensity:
    def test_median_at_origin(self):
        assert ald_logdensity(0.0, 1.0, 0.5) == pytest.approx(math.log(0.25))

    @pytest.mark.parametrize("tau,sigma", [(0.5, 1.0), (0.25, 0.4), (0.8, 2.5)])
    def test_integrates_to_one(self, tau, sigma):
        # The slow tail decays at rate min(tau, 1-tau)/sigma.
        span = 40.0 * sigma / min(tau, 1.0 - tau)
        r = np.linspace(-span, span, 400_001)
        dens = np.exp(
            math.log(tau * (1 - tau)) - math.log(sigma) - check_loss(r, tau) / sigma
        )
        total = np.trapezoid(dens, r)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_mode_at_zero(self):
        for tau in (0.2, 0.5, 0.7):
            at_zero = ald_logdensity(0.0, 0.7, tau)
            for r in (-0.5, -0.01, 0.01, 0.5):
                assert ald_logdensity(r, 0.7, tau) < at_zero

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValidationError):
            ald_logdensity(0.0, 0.0, 0.5)


def grid_lqmm_loglik(data: GroupedData, gamma, psi2, sigma, tau) -> float:
    """Trapezoid integration over the random intercept (oracle)."""
    psi = math.sqrt(psi2)
    u = np.linspace(-8 * psi, 8 * psi, 40_001)
    phi = np.exp(-0.5 * (u / psi) ** 2) / (psi * math.sqrt(2 * math.pi))
    resid = data.z - data.X @ np.asarray(gamma)
    dom = np.asarray(data.group, dtype=object)
    total = 0.0
    for g in sorted(set(data.group)):
        r = resid[dom == g]
        d = r[:, None] - u[None, :]
        loss = d * (tau - (d < 0))
        ll = (math.log(tau * (1 - tau)) - math.log(sigma) - loss / sigma).sum(axis=0)
        integrand = np.exp(ll) * phi
        total += data.group_weights[g] * math.log(np.trapezoid(integrand, u))
    return total


class TestLqmmLoglik:
    def micro_data(self):
        return GroupedData(
            z=np.array([0.2, 0.4, 0.5, 0.6, 0.7, 0.3]),
            X=np.array([[1.0], [1.0], [1.0], [1.0], [1.0], [1.0]]),
            group=["a", "a", "a", "b", "b", "b"],
            group_weights={"a": 1.0, "b": 1.5},
        )

    def test_zero_variance_reduces_to_weighted_ald_sum(self):
        data = self.micro_data()
        rule = hermite_rule(21)
        got = lqmm_loglik(data, [0.45], 0.0, 0.2, 0.5, rule)
        resid = data.z - 0.45
        dom = np.asarray(data.group, dtype=object)
        expected = sum(
            data.group_weights[g]
            * sum(ald_logdensity(r, 0.2, 0.5) for r in resid[dom == g])
            for g in ("a", "b")
        )
        assert got == pytest.approx(expected, rel=1e-12)

    def test_weight_scaling_is_linear(self):
        data = self.micro_data()
        rule = hermite_rule(21)
        base = lqmm_loglik(data, [0.45], 0.01, 0.2, 0.5, rule)
        scaled_data = GroupedData(
            z=data.z, X=data.X, group=data.group,
            group_weights={g: 3.0 * w for g, w in data.group_weights.items()},
        )
        scaled = lqmm_loglik(scaled_data, [0.45], 0.01, 0.2, 0.5, rule)
        assert scaled == pytest.approx(3.0 * base, rel=1e-12)

    @pytest.mark.parametrize("tau", [0.25, 0.5, 0.75])
    def test_matches_grid_oracle(self, tau):
        data = self.micro_data()
        gamma, psi2, sigma = [0.42], 0.02, 0.15
        ours = lqmm_loglik(data, gamma, psi2, sigma, tau)
        oracle = grid_lqmm_loglik(data, gamma, psi2, sigma, tau)
        assert ours == pytest.approx(oracle, abs=1e-6)

    def test_quadrature_route_approximates_exact(self):
        # The kinked integrand caps Gauss-Hermite accuracy well short of
        # the exact segment integration; they still agree to ~1e-3.
        data = self.micro_data()
        gamma, psi2, sigma = [0.42], 0.02, 0.15
        exact = lqmm_loglik(data, gamma, psi2, sigma, 0.5)
        quad = lqmm_loglik(data, gamma, psi2, sigma, 0.5, hermite_rule(61), method="quadrature")
        assert quad == pytest.approx(exact, abs=5e-3)


def draw_design(draw, design: str, sizes) -> list[list[float]]:
    """Design rows for groups of these sizes, group by group.

    "covariate": an intercept and a group-level covariate, so no group
    mixes design rows. "two_cell": cell indicators drawn row by row.
    "partly_mixed": an intercept and a covariate that varies within group
    0 and within a random subset of the other groups, and is group-level
    in the rest. Group 0 mixes in the last two whenever it has two rows.
    """
    unit = st.floats(0.0, 1.0, allow_nan=False)
    X = []
    for j, m in enumerate(sizes):
        if design == "two_cell":
            cells = ([True, False] if j == 0 and m > 1 else []) + draw(st.lists(st.booleans(), min_size=m, max_size=m))
            X += [[0.0, 1.0] if c else [1.0, 0.0] for c in cells[:m]]
        elif design == "covariate" or (j > 0 and not draw(st.booleans())):
            X += [[1.0, draw(unit)]] * m
        else:
            values = ([0.25, 0.75] if j == 0 else []) + draw(st.lists(unit, min_size=m, max_size=m))
            X += [[1.0, c] for c in values[:m]]
    return X


@st.composite
def shuffled_rows(draw, design: str):
    """Grouped rows, a permutation of them and likelihood parameters.

    Responses come partly from a small set so that ties occur; the
    design is one of draw_design's.
    """
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=5))
    n = sum(sizes)
    unit = st.floats(0.0, 1.0, allow_nan=False)
    z = draw(st.lists(st.one_of(st.sampled_from([0.0, 0.5, 1.0]), unit), min_size=n, max_size=n))
    labels = [f"g{j}" for j in range(len(sizes))]
    group = [g for g, m in zip(labels, sizes) for _ in range(m)]
    X = draw_design(draw, design, sizes)
    weights = draw(st.lists(st.floats(0.1, 10.0), min_size=len(sizes), max_size=len(sizes)))
    perm = draw(st.permutations(range(n)))
    params = (
        [draw(st.floats(-0.5, 1.0)), draw(st.floats(-0.5, 1.0))],
        draw(st.floats(1e-4, 1.0)),  # psi2 above the point-mass floor
        draw(st.floats(0.01, 1.0)),
        draw(st.sampled_from([0.1, 0.25, 0.5, 0.75, 0.9])),
    )
    data = GroupedData(
        z=np.array(z), X=np.array(X), group=group, group_weights=dict(zip(labels, weights))
    )
    return data, list(perm), params


def _permuted(data: GroupedData, perm) -> GroupedData:
    return GroupedData(
        z=data.z[perm], X=data.X[perm], group=[data.group[i] for i in perm],
        group_weights=data.group_weights,
    )


class TestRowOrderInvariance:
    """The exact likelihood sorts residuals within groups, so row order is moot."""

    @settings(max_examples=80, deadline=None, database=None)
    @given(shuffled_rows("covariate"))
    def test_one_design_row_per_group(self, case):
        data, perm, params = case
        assert not _Workspace(data).mixed.any()  # no group's residuals are sorted
        assert lqmm_loglik(_permuted(data, perm), *params) == lqmm_loglik(data, *params)

    @settings(max_examples=80, deadline=None, database=None)
    @given(shuffled_rows("two_cell"))
    def test_two_cell_design(self, case):
        data, perm, params = case
        assert lqmm_loglik(_permuted(data, perm), *params) == lqmm_loglik(data, *params)

    @settings(max_examples=80, deadline=None, database=None)
    @given(shuffled_rows("partly_mixed"))
    def test_partly_mixed_design(self, case):
        data, perm, params = case
        assert _Workspace(data).mixed[0] == (data.group.count("g0") > 1)
        assert lqmm_loglik(_permuted(data, perm), *params) == lqmm_loglik(data, *params)


def _reweighted(data: GroupedData, factor: float) -> GroupedData:
    return dataclasses.replace(data, group_weights={g: factor * w for g, w in data.group_weights.items()})


class TestWeightScaling:
    """lqmm_loglik uses the group weights as given, so scaling them scales the result.

    Each group's term does not depend on the weights, and the weights
    enter once, in the weighted sum over groups. Under a power-of-two
    factor every product and partial sum scales exactly. Under any other
    factor each weight rounds once and the sum rounds differently, so the
    gap is bounded relative to the sum of the groups' absolute weighted
    terms (the sum itself may cancel).
    """

    @settings(max_examples=60, deadline=None, database=None)
    @given(
        shuffled_rows("partly_mixed"),
        st.one_of(st.sampled_from([0.0, PSI2_FLOOR]), st.floats(1e-4, 1.0)),
        st.integers(-8, 8),
        st.floats(0.01, 100.0),
    )
    def test_scales_with_weights(self, case, psi2, k, factor):
        data, _, (gamma, _, sigma, tau) = case
        base = lqmm_loglik(data, gamma, psi2, sigma, tau)
        assert lqmm_loglik(_reweighted(data, 2.0**k), gamma, psi2, sigma, tau) == 2.0**k * base
        dom = np.asarray(data.group, dtype=object)
        scale = 0.0
        for g, w in data.group_weights.items():
            rows = dom == g
            alone = GroupedData(z=data.z[rows], X=data.X[rows], group=dom[rows], group_weights={g: 1.0})
            scale += w * abs(lqmm_loglik(alone, gamma, psi2, sigma, tau))
        scaled = lqmm_loglik(_reweighted(data, factor), gamma, psi2, sigma, tau)
        assert abs(scaled - factor * base) <= 1e-12 * factor * scale


class TestFitLqmm:
    def brute_force_intercept(self, values, tau):
        grid = np.linspace(min(values) - 0.5, max(values) + 0.5, 20_001)
        losses = [np.sum(check_loss(np.asarray(values) - m, tau)) for m in grid]
        return float(grid[int(np.argmin(losses))])

    @pytest.mark.parametrize("tau", [0.25, 0.5, 0.75])
    def test_single_group_collapse_to_quantile(self, tau):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        data = GroupedData(
            z=np.array(values),
            X=np.ones((5, 1)),
            group=["only"] * 5,
            group_weights={"only": 1.0},
            validate_support=False,
        )
        fit = fit_lqmm(data, tau, fix_psi2=0.0)
        oracle = self.brute_force_intercept(values, tau)
        assert fit.gamma[0] == pytest.approx(oracle, abs=1e-3)
        assert fit.psi2 == 0.0
        assert fit.u == {"only": 0.0}

    def test_single_group_with_estimated_psi2_rejected(self):
        data = GroupedData(
            z=np.array([0.1, 0.4, 0.5, 0.9]), X=np.ones((4, 1)),
            group=["only"] * 4, group_weights={"only": 1.0},
        )
        with pytest.raises(ValidationError, match="two groups"):
            fit_lqmm(data, 0.5)

    @pytest.mark.parametrize("fix_psi2", [None, 0.0])
    def test_constant_responses_rejected(self, fix_psi2):
        data = GroupedData(
            z=np.full(12, 0.4), X=np.ones((12, 1)),
            group=["a"] * 6 + ["b"] * 6, group_weights={"a": 1.0, "b": 1.0},
        )
        with pytest.raises(ValidationError, match="constant"):
            fit_lqmm(data, 0.5, fix_psi2=fix_psi2)

    def test_quantile_ordering_on_location_shift(self):
        rng = np.random.default_rng(33)
        data = make_grouped(rng, J=20, n_j=60, levels=(0.3, 0.6), s_u=0.04, s_e=0.1)
        fits = {tau: fit_lqmm(data, tau) for tau in (0.25, 0.5, 0.75)}
        for col in range(2):
            assert fits[0.25].gamma[col] < fits[0.5].gamma[col] < fits[0.75].gamma[col]

    def test_median_recovery_of_cell_levels(self):
        rng = np.random.default_rng(35)
        data = make_grouped(rng, J=20, n_j=60, levels=(0.151, 0.533), s_u=0.05, s_e=0.1)
        fit = fit_lqmm(data, 0.5)
        assert fit.gamma[0] == pytest.approx(0.151, abs=0.05)
        assert fit.gamma[1] == pytest.approx(0.533, abs=0.05)
        assert fit.converged

    def test_weight_scale_invariance(self):
        rng = np.random.default_rng(37)
        data = make_grouped(rng, J=8, n_j=25)
        scaled = GroupedData(
            z=data.z, X=data.X, group=data.group,
            group_weights={g: 11.0 * w for g, w in data.group_weights.items()},
            column_names=data.column_names,
        )
        fit = fit_lqmm(data, 0.5)
        fit_scaled = fit_lqmm(scaled, 0.5)
        np.testing.assert_allclose(fit_scaled.gamma, fit.gamma, atol=1e-4)
        assert fit_scaled.psi2 == pytest.approx(fit.psi2, abs=1e-6)

    def test_modes_average_to_zero(self):
        rng = np.random.default_rng(39)
        data = make_grouped(rng, J=12, n_j=30, s_u=0.08)
        for tau in (0.25, 0.5):
            fit = fit_lqmm(data, tau)
            w = np.array([data.group_weights[g] for g in sorted(fit.u)])
            u = np.array([fit.u[g] for g in sorted(fit.u)])
            assert abs(float(w @ u) / float(w.sum())) < 1e-3

    def test_largest_group_shift_gets_largest_mode(self):
        rng = np.random.default_rng(41)
        hits = 0
        for rep in range(20):
            labels = [f"g{j}" for j in range(5)]
            shifts = np.array([-0.08, -0.04, 0.0, 0.04, 0.12])
            rows_z, rows_X, groups = [], [], []
            for j, g in enumerate(labels):
                for _ in range(40):
                    rows_z.append(0.4 + shifts[j] + rng.normal(0.0, 0.05))
                    rows_X.append([1.0])
                    groups.append(g)
            data = GroupedData(
                z=np.clip(rows_z, 0, 1), X=np.array(rows_X), group=groups,
                group_weights={g: 1.0 for g in labels},
            )
            fit = fit_lqmm(data, 0.5, restarts=2)
            if max(fit.u, key=fit.u.get) == "g4":
                hits += 1
        assert hits >= 19

    def test_base_fit_matches_scipy_restarts(self):
        # The restarts run in lockstep; each must take scipy's path, and the
        # batched final loglik must equal the workspace's own.
        for design in ("covariate", "two_cell"):
            data = ragged_grouped(79, design, J=6)
            for restarts in (1, 2, 5):
                for fix_psi2 in (None, 0.0, 0.01):
                    got = fit_lqmm(data, 0.5, restarts=restarts, fix_psi2=fix_psi2)
                    want = scipy_fit_lqmm(data, 0.5, restarts, fix_psi2)
                    assert np.array_equal(got.gamma, want.gamma)
                    assert (got.psi2, got.sigma, got.loglik) == (want.psi2, want.sigma, want.loglik)
                    assert got.u == want.u and got.converged == want.converged

    def test_first_of_equal_restart_minima_wins(self, monkeypatch):
        # Restarts 1 and 2 tie on the lowest objective, above restart 0's
        # path: restart 1 must win.
        runs = []
        fit_lockstep = qm._fit_lockstep

        def tied(*args):
            batch, res = fit_lockstep(*args)
            runs.append(res)
            return batch, dataclasses.replace(res, fun=np.array([1.0, 0.0, 0.0]))

        monkeypatch.setattr(qm, "_fit_lockstep", tied)
        data = ragged_grouped(79, "covariate", J=6)
        fit = fit_lqmm(data, 0.5, restarts=3, compute_modes=False)
        x = runs[0].x
        assert not np.array_equal(x[1], x[2])
        gamma, psi2, sigma = unpack(x[1], 2, None)
        assert np.array_equal(fit.gamma, gamma) and (fit.psi2, fit.sigma) == (psi2, sigma)


def unpack(theta, P: int, fix_psi2) -> tuple[np.ndarray, float, float]:
    """gamma, psi2 and sigma of one optimizer vector, by _params."""
    gamma, psi2, sigma = _params(np.asarray(theta)[None], P, fix_psi2)
    return gamma[0], float(psi2[0]), float(sigma[0])


def batch_of(ws: _Workspace, picks: np.ndarray, tau: float) -> _Batch:
    """A _Batch of the resamples picks of ws with normalized weights, as _fit_lockstep builds it."""
    return _Batch(ws, picks, tau, np.array([qm._normalized(ws.weights[p]) for p in picks]))


def loglik_exact(ws: _Workspace, gamma, psi2: float, sigma: float, tau: float) -> float:
    """The exact log-likelihood of ws at its own weights: a _Batch of one resample."""
    batch = _Batch(ws, np.arange(len(ws.labels))[None], tau, ws.weights[None])
    params = np.asarray(gamma, dtype=float)[None], np.array([psi2]), np.array([sigma])
    return float(batch.loglik_exact(np.zeros(1, dtype=np.intp), *params)[0])


def scipy_fit_lqmm(data: GroupedData, tau: float, restarts: int, fix_psi2) -> SimpleNamespace:
    """fit_lqmm with scipy's Nelder-Mead run on one restart at a time (the reference)."""
    ws = _Workspace(data)
    ws.weights = qm._normalized(ws.weights)
    gamma0, psi2_0, sigma0 = qm._start_values(ws, tau, ws.weights[ws.g_sorted])
    estimate_psi = fix_psi2 is None
    base = _theta(gamma0, psi2_0, sigma0, estimate_psi)

    def negloglik(theta):
        gamma, psi2, sigma = unpack(theta, ws.P, fix_psi2)
        return -loglik_exact(ws, gamma, psi2, sigma, tau)

    best = None
    jitter_rng = np.random.default_rng(1729)
    for attempt in range(restarts):
        theta0 = base.copy()
        if attempt > 0:
            theta0[: ws.P] += jitter_rng.normal(0.0, 0.05, size=ws.P)
            theta0[ws.P] += jitter_rng.normal(0.0, 0.2)
            if estimate_psi:
                theta0[ws.P + 1] += jitter_rng.normal(0.0, 0.4)
        budget = 400 * base.size
        res = minimize(
            negloglik, theta0, method="Nelder-Mead",
            options={"xatol": 1e-6, "fatol": 1e-9, "maxiter": budget, "maxfev": budget},
        )
        if best is None or res.fun < best.fun:
            best = res
    gamma, psi2, sigma = unpack(best.x, ws.P, fix_psi2)
    modes = reference_conditional_modes(ws.z, ws.X, ws.starts, gamma, psi2, sigma, tau)
    wbar = float(ws.weights @ modes) / float(ws.weights.sum())
    if wbar != 0.0:
        c, *_ = np.linalg.lstsq(ws.X, np.ones(ws.n), rcond=None)
        if np.max(np.abs(ws.X @ c - 1.0)) < 1e-8:
            gamma, modes = gamma + wbar * c, modes - wbar
    return SimpleNamespace(
        gamma=gamma, psi2=float(psi2), sigma=float(sigma), loglik=loglik_exact(ws, gamma, psi2, sigma, tau),
        u={g: float(m) for g, m in zip(ws.labels, modes)}, converged=bool(best.success),
    )


def reference_conditional_modes(z, X, starts, gamma, psi2, sigma, tau) -> np.ndarray:
    """Posterior mode of each group intercept, one golden-section search per group (the reference)."""
    J = len(starts)
    if psi2 <= PSI2_FLOOR:
        return np.zeros(J)
    resid = z - X @ gamma
    psi = math.sqrt(psi2)
    ends = np.append(starts[1:], len(z))
    modes = np.empty(J)
    for j in range(J):
        r = resid[starts[j] : ends[j]]
        qj = qm._weighted_quantile(r, np.ones(r.size), tau)

        def logpost(u):
            d = r - u
            loss = d * (tau - (d < 0))
            return -loss.sum() / sigma - 0.5 * u * u / psi2

        lo = min(0.0, qj) - 2.0 * psi
        hi = max(0.0, qj) + 2.0 * psi
        modes[j] = golden_max(logpost, lo, hi, 100)
    return modes


class TestPredictions:
    def fixture_fit(self, rng=None):
        rng = rng or np.random.default_rng(43)
        data = make_grouped(rng, J=6, n_j=30)
        return data, fit_lqmm(data, 0.5, restarts=2)

    def test_zero_design_predicts_zero(self):
        _, fit = self.fixture_fit()
        preds = predict_marginal(fit, np.zeros((1, 2)))
        assert preds[0].point == 0.0

    def test_identical_rows_identical_predictions(self):
        _, fit = self.fixture_fit()
        X = np.array([[1.0, 0.0], [1.0, 0.0]])
        preds = predict_marginal(fit, X)
        assert preds[0].point == preds[1].point

    def test_cell_mean_fit_predicts_its_levels(self):
        from latindex.quantile_mixed import QuantileMixedFit

        fit = QuantileMixedFit(
            tau=0.5, gamma=np.array([0.151, 0.533]), psi2=0.001, sigma=0.05,
            u={"r1": 0.0}, loglik=0.0, converged=True,
            column_names=("private", "public"),
        )
        preds = predict_marginal(fit, np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert preds[0].point == 0.151
        assert preds[1].point == 0.533

    def test_conditional_minus_marginal_is_group_mode(self):
        _, fit = self.fixture_fit()
        X = np.array([[1.0, 0.0], [0.0, 1.0]])
        marg = predict_marginal(fit, X)
        for g, u in fit.u.items():
            cond = predict_conditional(fit, X, g)
            for m, c in zip(marg, cond):
                # Constructed additively: bitwise equal to marginal + mode.
                assert c.point == m.point + u

    def test_zero_mode_group_matches_marginal(self):
        _, fit = self.fixture_fit()
        g = next(iter(fit.u))
        fit2 = type(fit)(
            tau=fit.tau, gamma=fit.gamma, psi2=fit.psi2, sigma=fit.sigma,
            u={**fit.u, g: 0.0}, loglik=fit.loglik, converged=fit.converged,
            column_names=fit.column_names,
        )
        X = np.array([[1.0, 0.0]])
        assert predict_conditional(fit2, X, g)[0].point == predict_marginal(fit2, X)[0].point

    def test_unknown_group_rejected(self):
        _, fit = self.fixture_fit()
        with pytest.raises(ValidationError, match="unknown group"):
            predict_conditional(fit, np.array([[1.0, 0.0]]), "nowhere")


class TestBootstrap:
    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(47)
        data = make_grouped(rng, J=8, n_j=15)
        fit = fit_lqmm(data, 0.5, restarts=2)
        a = bootstrap_fits(data, 0.5, B=50, seed=3, base_fit=fit)
        b = bootstrap_fits(data, 0.5, B=50, seed=3, base_fit=fit)
        np.testing.assert_array_equal(a.ci_low, b.ci_low)
        np.testing.assert_array_equal(a.ci_high, b.ci_high)
        np.testing.assert_array_equal(a.estimates, b.estimates)

    def test_batch_size_does_not_change_results(self, monkeypatch):
        # Lockstep batches of one replicate, of about seven, and of all B.
        sizes = [[]]  # fit_lqmm's own lockstep calls land in the list before each run's
        refit = qm._fit_lockstep

        def spy(ws, picks, *args):
            sizes[-1].append(len(picks))
            return refit(ws, picks, *args)

        monkeypatch.setattr(qm, "_fit_lockstep", spy)
        for design in ("covariate", "two_cell", "partly_mixed"):
            data = ragged_grouped(71, design)
            fit = fit_lqmm(data, 0.5, restarts=1)
            caps = (1, 7 * (data.n_units + len(data.labels)), qm.BATCH_SEGMENTS)
            for group_effects in (True, False):
                runs = []
                for cap in caps:
                    monkeypatch.setattr(qm, "BATCH_SEGMENTS", cap)
                    sizes.append([])
                    runs.append(
                        bootstrap_fits(data, 0.5, B=50, seed=5, base_fit=fit, group_effects=group_effects)
                    )
                one, several, whole = sizes[-3:]
                assert one == [1] * 50 and whole == [50] and 1 < max(several) < 50
                first = runs[0]
                for other in runs[1:]:
                    for name in ("estimates", "psi2", "sigma"):
                        assert np.array_equal(getattr(first, name), getattr(other, name))
                    assert first.u_by_group == other.u_by_group
                    assert first.n_dropped == other.n_dropped

    def test_finished_batch_is_freed_before_the_next(self, monkeypatch):
        # Each lockstep batch holds its layout, work buffers and gathered
        # rows; only one may be alive at a time.
        data = ragged_grouped(71, "two_cell")
        fit = fit_lqmm(data, 0.5, restarts=1)
        batches, alive = [], []
        refit = qm._fit_lockstep

        def spy(ws, picks, *args):
            alive.append([ref() is not None for ref in batches])
            batch, res = refit(ws, picks, *args)
            batches.append(weakref.ref(batch))
            return batch, res

        monkeypatch.setattr(qm, "_fit_lockstep", spy)
        monkeypatch.setattr(qm, "BATCH_SEGMENTS", 20 * (data.n_units + len(data.labels)))
        bootstrap_fits(data, 0.5, B=50, seed=5, base_fit=fit)
        assert len(alive) >= 3
        assert all(not any(seen) for seen in alive)

    @pytest.mark.parametrize("two_cell", [False, True])
    def test_lockstep_refit_matches_scipy_refit(self, two_cell):
        # Each replicate refitted alone by scipy's Nelder-Mead, as the
        # bootstrap did before the refits ran in lockstep.
        data = ragged_grouped(73, "two_cell" if two_cell else "covariate")
        fit = fit_lqmm(data, 0.5, restarts=1)
        theta0 = _theta(fit.gamma, fit.psi2, fit.sigma, True)
        base = _Workspace(data)
        draws = resamples(base, 3, 12)
        *lockstep, success = lockstep_refits(base, draws, theta0, 300, True)
        for i, draw in enumerate(draws):
            ws = replicate_workspace(data, draw)

            def negloglik(theta):
                gamma, psi2, sigma = unpack(theta, ws.P, None)
                return -loglik_exact(ws, gamma, psi2, sigma, 0.5)

            res = minimize(
                negloglik, theta0, method="Nelder-Mead",
                options={"xatol": 1e-5, "fatol": 1e-8, "maxiter": 300, "maxfev": 300},
            )
            alone = _finish_fits(batch_of(base, draw[1][None], 0.5), res.x[None], None, True)
            for got, want in zip(lockstep, alone):  # gamma, psi2, sigma, u and loglik
                assert np.array_equal(got[i], want[0])
            assert success[i] == res.success

    def test_refits_of_a_low_psi2_replicate_converge(self):
        # A coverage-study replicate (criterion 10's model: n = 160, J = 20)
        # whose base fit puts psi2 near the floor. Refits must start psi2
        # at PSI2_START or above: started at the base fit's psi2, 61 of 200
        # run out of evaluations and the bootstrap raises NumericalError.
        rng = np.random.default_rng(np.random.SeedSequence((301, 26)))
        labels = [f"g{j:02d}" for j in range(20)]
        u = np.repeat(rng.normal(0.0, 0.04, size=20), 8)
        data = GroupedData(
            z=np.clip(0.5 + u + rng.normal(0.0, 0.10, size=160), 0.0, 1.0), X=np.ones((160, 1)),
            group=[g for g in labels for _ in range(8)], group_weights={g: 1.0 for g in labels},
        )
        fit = fit_lqmm(data, 0.5, restarts=2, compute_modes=False)
        assert fit.psi2 < qm.PSI2_START
        boot = bootstrap_fits(
            data, 0.5, B=200, seed=int(rng.integers(0, 2**31 - 1)), base_fit=fit, group_effects=False, max_fev=400
        )
        assert boot.n_dropped <= 4
        assert boot.ci_low[0] <= 0.5 <= boot.ci_high[0]

    def test_refits_get_the_base_fit_budget(self):
        # Five parameters on 47 rows in ten groups: at the earlier default of
        # 200 evaluations per parameter, 17 of 50 refits ran out and the
        # bootstrap raised; at the base fit's budget none run out.
        data = ragged_grouped(1, "two_covariates")
        fit = fit_lqmm(data, 0.75, restarts=1)
        with pytest.raises(NumericalError, match="of 50 bootstrap refits"):
            bootstrap_fits(data, 0.75, B=50, seed=1, base_fit=fit, group_effects=False, max_fev=200 * 5)
        boot = bootstrap_fits(data, 0.75, B=50, seed=1, base_fit=fit, group_effects=False)
        assert boot.n_dropped == 0

    def test_refits_converged_under_a_lower_cap_are_unchanged(self):
        # The cap only stops a refit, so one that converges under it takes
        # the same path under a higher cap.
        data = ragged_grouped(1, "two_covariates")
        fit = fit_lqmm(data, 0.5, restarts=1)
        theta0 = _theta(fit.gamma, max(fit.psi2, qm.PSI2_START), fit.sigma, True)
        ws = _Workspace(data)
        draws = resamples(ws, 1, 20)
        *low, kept = lockstep_refits(ws, draws, theta0, 200 * theta0.size, True)
        *high, converged = lockstep_refits(ws, draws, theta0, qm.MAX_FEV_PER_PARAM * theta0.size, True)
        assert 0 < kept.sum() < len(draws) and converged[kept].all()
        for a, b in zip(low, high):  # gamma, psi2, sigma, u and loglik
            assert np.array_equal(a[kept], b[kept])

    def test_group_modes_come_from_the_first_copy_in_label_order(self, monkeypatch):
        # Replicate 0 of seed 19 draws group r9 twice, as copies r9~3 and
        # r9~12. "r9~12" sorts first, so its mode is the one kept. Copies
        # of one group share their mode, so each mode is replaced by the
        # group's position in the draw to tell the copies apart.
        data = ragged_grouped(83, "covariate", J=13)
        fit = fit_lqmm(data, 0.5, restarts=1)
        finish = qm._finish_fits

        def positions(batch, thetas, *args):
            gamma, psi2, sigma, _, loglik = finish(batch, thetas, *args)
            return gamma, psi2, sigma, np.tile(np.arange(13.0), (len(thetas), 1)), loglik

        monkeypatch.setattr(qm, "_finish_fits", positions)
        boot = bootstrap_fits(data, 0.5, B=50, seed=19, base_fit=fit)
        labels, _ = resamples(_Workspace(data), 19, 1)[0]
        assert boot.n_dropped == 0  # so u_by_group[0] is replicate 0
        assert labels.index("r9~12") < labels.index("r9~3")
        assert boot.u_by_group[0]["r9"] == labels.index("r9~12")
        first = {}
        for k, label in enumerate(labels):
            first.setdefault(label.rsplit("~", 1)[0], float(k))
        assert boot.u_by_group[0] == first

    def test_without_group_effects_conditional_intervals_are_refused(self):
        # Such a bootstrap has no modes to add to its refits' predictions.
        rng = np.random.default_rng(47)
        data = make_grouped(rng, J=8, n_j=15)
        fit = fit_lqmm(data, 0.5, restarts=2)
        boot = bootstrap_fits(data, 0.5, B=50, seed=3, base_fit=fit, group_effects=False)
        assert boot.u_by_group == ()
        X = np.array([[1.0, 0.0]])
        marginal = predict_marginal(fit, X, boot)[0]
        assert marginal.ci_low < marginal.ci_high
        with pytest.raises(ValidationError, match="group_effects=False"):
            predict_conditional(fit, X, "g00", boot)

    def test_ci_width_shrinks_with_more_groups(self):
        rng = np.random.default_rng(53)
        small = make_grouped(rng, J=10, n_j=20)
        large = make_grouped(rng, J=40, n_j=20)
        fs = fit_lqmm(small, 0.5, restarts=2)
        fl = fit_lqmm(large, 0.5, restarts=2)
        bs = bootstrap_fits(small, 0.5, B=60, seed=1, base_fit=fs)
        bl = bootstrap_fits(large, 0.5, B=60, seed=1, base_fit=fl)
        width_small = float(np.mean(bs.ci_high - bs.ci_low))
        width_large = float(np.mean(bl.ci_high - bl.ci_low))
        assert width_large < width_small

    def test_prediction_intervals_contain_points(self):
        rng = np.random.default_rng(59)
        data = make_grouped(rng, J=8, n_j=20)
        fit = fit_lqmm(data, 0.5, restarts=2)
        boot = bootstrap_fits(data, 0.5, B=50, seed=7, base_fit=fit)
        X = np.array([[1.0, 0.0], [0.0, 1.0]])
        for pred in predict_marginal(fit, X, boot):
            assert pred.ci_low <= pred.point <= pred.ci_high
        g = next(iter(fit.u))
        for pred in predict_conditional(fit, X, g, boot):
            assert pred.ci_low <= pred.point <= pred.ci_high

    def test_requires_minimum_replicates(self):
        rng = np.random.default_rng(61)
        data = make_grouped(rng, J=5, n_j=10)
        with pytest.raises(ValidationError):
            bootstrap_fits(data, 0.5, B=10, seed=0)


def replicate_workspace(data: GroupedData, draw) -> _Workspace:
    """Bootstrap replicate draw = (labels, picked) of data, built as bootstrap_fits must match.

    A GroupedData of the picked groups in the order they were drawn (copy
    k of group g labelled g~k), whose workspace orders them by label; its
    weights are normalized as the bootstrap's are.
    """
    source = list(data.labels)
    dom = np.asarray(data.group, dtype=object)
    z, X, group, weights = [], [], [], {}
    for label, j in sorted(zip(*draw), key=lambda pick: int(pick[0].rsplit("~", 1)[1])):
        mask = dom == source[j]
        z.append(data.z[mask])
        X.append(data.X[mask])
        group += [label] * int(mask.sum())
        weights[label] = data.group_weights[source[j]]
    ws = _Workspace(GroupedData(z=np.concatenate(z), X=np.vstack(X), group=group, group_weights=weights))
    ws.weights = qm._normalized(ws.weights)
    return ws


class TestResampleGroups:
    def uneven(self, seed, two_cell):
        # Labels r0..r11 and copy indices past 9: their string order differs
        # from both the pick order and the (group, copy) order.
        rng = np.random.default_rng(seed)
        z, X, group, weights = [], [], [], {}
        for j in range(12):
            g = f"r{j}"
            weights[g] = float(rng.uniform(0.5, 2.0))
            for _ in range(int(rng.integers(1, 7))):
                cell = int(two_cell and rng.random() < 0.5)
                z.append(float(rng.uniform()))
                X.append([1.0 - cell, float(cell)])
                group.append(g)
        order = rng.permutation(len(z))
        return GroupedData(
            z=np.array(z)[order], X=np.array(X)[order],
            group=[group[i] for i in order], group_weights=weights,
        )

    def test_refit_leaves_workspace_weights(self):
        data = self.uneven(0, two_cell=True)
        ws = _Workspace(data)
        before = ws.weights.copy()
        lockstep_refits(ws, resamples(ws, 1, 3), np.array([0.4, 0.6, math.log(0.1), math.log(0.01)]), 200, False)
        np.testing.assert_array_equal(ws.weights, before)


def lockstep_refits(ws, draws, theta0, max_fev, compute_modes):
    """The bootstrap's refits at tau 0.5 of the resamples draws of ws, all from theta0.

    Returns _finish_fits's gamma, psi2, sigma, u and loglik, then the optimizer's success flags.
    """
    picks = np.array([picked for _, picked in draws])
    batch, res = _fit_lockstep(ws, picks, 0.5, np.tile(theta0, (len(draws), 1)), None, 1e-5, 1e-8, max_fev)
    return (*_finish_fits(batch, res.x, None, compute_modes), res.success)


def resamples(ws, seed, k):
    """The first k bootstrap draws (labels, picked groups) of ws for this seed.

    Draw b takes J groups with replacement from the stream (seed, b);
    copy k of group g is labelled g~k, and the copies are ordered as
    those labels sort. _pick_groups must return the picks in that order.
    """
    J, draws = len(ws.labels), []
    for b in range(k):
        drawn = np.random.default_rng(np.random.SeedSequence((seed, b))).integers(0, J, size=J)
        labels, picked = zip(*sorted((f"{ws.labels[j]}~{c}", j) for c, j in enumerate(drawn.tolist())))
        picked = np.array(picked)
        assert np.array_equal(_pick_groups(ws, np.random.default_rng(np.random.SeedSequence((seed, b)))), picked)
        draws.append((list(labels), picked))
    return draws


def ragged_grouped(seed, design, J=10):
    """Groups of 2-9 rows with uneven weights.

    The design is a group-level covariate ("covariate"), two of them
    ("two_covariates"), two cells ("two_cell"), or a covariate that varies
    within every third group and is group-level in the others
    ("partly_mixed").
    """
    rng = np.random.default_rng(seed)
    z, X, group, weights = [], [], [], {}
    for j in range(J):
        g = f"r{j}"
        weights[g] = float(rng.uniform(0.5, 2.0))
        u = rng.normal(0.0, 0.05)
        covariate = float(rng.uniform())
        second = float(rng.uniform()) if design == "two_covariates" else None
        for _ in range(int(rng.integers(2, 10))):
            cell = int(design == "two_cell" and rng.random() < 0.5)
            z.append(float(np.clip(0.3 + 0.2 * cell + u + rng.normal(0.0, 0.1), 0.0, 1.0)))
            if design == "two_cell":
                X.append([1.0 - cell, float(cell)])
            elif design == "two_covariates":
                X.append([1.0, covariate, second])
            else:
                X.append([1.0, float(rng.uniform()) if design == "partly_mixed" and j % 3 == 0 else covariate])
            group.append(g)
    return GroupedData(z=np.array(z), X=np.array(X), group=group, group_weights=weights)


@st.composite
def replicate_batches(draw, design: str):
    """Random ragged data, bootstrap draws of it, a subset of them and parameters.

    Group sizes run from 1 to 9 and psi2 falls on both sides of the
    point-mass floor. With 12 groups, copy indices run past 9, so the g~k
    labels sort out of numeric order. The design is one of draw_design's;
    in the mixed ones group 0 always mixes design rows, so its residuals
    are sorted.
    """
    J = draw(st.one_of(st.integers(1, 5), st.just(12)))
    sizes = draw(st.lists(st.integers(1, 9), min_size=J, max_size=J))
    if design != "covariate":
        sizes[0] = max(sizes[0], 2)
    n = sum(sizes)
    unit = st.floats(0.0, 1.0, allow_nan=False)
    z = draw(st.lists(st.one_of(st.sampled_from([0.0, 0.5, 1.0]), unit), min_size=n, max_size=n))
    labels = [f"g{j}" for j in range(J)]
    group = [g for g, m in zip(labels, sizes) for _ in range(m)]
    X = draw_design(draw, design, sizes)
    weights = draw(st.lists(st.floats(0.1, 10.0), min_size=J, max_size=J))
    data = GroupedData(
        z=np.array(z), X=np.array(X), group=group, group_weights=dict(zip(labels, weights))
    )
    k = draw(st.integers(1, 6))
    draws = resamples(_Workspace(data), draw(st.integers(0, 1000)), k)
    live = np.flatnonzero(draw(st.lists(st.booleans(), min_size=k, max_size=k).filter(any)))
    psi2 = st.one_of(st.sampled_from([0.0, PSI2_FLOOR]), st.floats(1e-4, 1.0))
    params = np.array(
        [
            [draw(st.floats(-0.5, 1.0)), draw(st.floats(-0.5, 1.0)), draw(psi2), draw(st.floats(0.01, 1.0))]
            for _ in range(k)
        ]
    )
    tau = draw(st.sampled_from([0.1, 0.25, 0.5, 0.75, 0.9]))
    return data, draws, live, params, tau


def reference_loglik_exact(ws, gamma, psi2, sigma, tau) -> float:
    """The exact log-likelihood of one workspace, step by step on whole arrays (the reference)."""
    const = math.log(tau * (1.0 - tau)) - math.log(sigma)
    if psi2 <= PSI2_FLOOR:
        resid = ws.z - ws.X @ gamma
        per_unit = const - resid * (tau - (resid < 0)) / sigma
        return float(ws.weights @ np.add.reduceat(per_unit, ws.starts))
    J, n = len(ws.labels), ws.n
    seg_group = np.repeat(np.arange(J), ws.sizes + 1)
    seg_starts = np.concatenate([[0], np.cumsum(ws.sizes + 1)])[:-1]
    seg_m = ws.sizes[seg_group]
    seg_j = np.arange(seg_group.size) - seg_starts[seg_group]
    row_offset = ws.starts[seg_group]
    buf = np.empty(n + 2)
    buf[n:] = (-np.inf, np.inf)
    xg = ws.X[:, 0] * gamma[0]  # x' gamma elementwise, summing the columns in order
    for k in range(1, ws.P):
        xg = xg + ws.X[:, k] * gamma[k]
    resid = ws.z - xg
    buf[:n] = resid[np.lexsort((resid, ws.g_sorted))]
    s = buf[:n]
    cs0 = np.concatenate([[0.0], np.add.accumulate(s)])
    group_tot = np.add.reduceat(s, ws.starts)
    prefix = cs0[row_offset + seg_j] - cs0[row_offset]
    c = tau * (group_tot[seg_group] - prefix) - (1.0 - tau) * prefix
    a = -(seg_j - tau * seg_m) / sigma
    b = c / -sigma
    psi = math.sqrt(psi2)
    lo_idx = np.where(seg_j == 0, n, row_offset + seg_j - 1)
    hi_idx = np.where(seg_j == seg_m, n + 1, row_offset + seg_j)
    alpha = (buf[lo_idx] - a * psi2) / psi
    beta = (buf[hi_idx] - a * psi2) / psi
    flip = alpha > 0.0
    la = log_ndtr(np.where(flip, -beta, alpha))
    lb = log_ndtr(np.where(flip, -alpha, beta))
    with np.errstate(invalid="ignore", divide="ignore"):
        ldiff = lb + np.log1p(-np.exp(np.minimum(la - lb, 0.0)))
    terms = b + 0.5 * a * a * psi2 + ldiff
    terms = np.where(np.isfinite(terms), terms, -np.inf)
    mx = np.maximum.reduceat(terms, seg_starts)
    mx = np.where(np.isfinite(mx), mx, 0.0)
    logint = mx + np.log(np.add.reduceat(np.exp(terms - mx[seg_group]), seg_starts))
    return float(ws.weights @ (ws.sizes * const + logint))


class TestBatchedLoglik:
    """The batched kernel returns each replicate's own exact log-likelihood, bit for bit.

    Each replicate is built as bootstrap_fits must match: a GroupedData of
    the drawn groups, labelled g~k. The reference evaluates one replicate
    at a time with whole-array numpy expressions; the kernel evaluates
    several replicates at once in one pass, and the same kernel with one
    replicate is the replicate's loglik_exact.
    """

    def check(self, data, draws, live, params, tau):
        replicates = [replicate_workspace(data, draw) for draw in draws]
        batch = batch_of(_Workspace(data), np.array([picked for _, picked in draws]), tau)
        # A subset of the replicates, then all of them: the layout follows.
        for idx in (live, np.arange(len(draws))):
            gamma, psi2, sigma = params[idx, :2], params[idx, 2], params[idx, 3]
            got = batch.loglik_exact(idx, gamma, psi2, sigma)
            for value, i, g, p, s in zip(got.tolist(), idx, gamma, psi2, sigma):
                want = reference_loglik_exact(replicates[i], g, p, s, tau)
                assert value == want
                assert loglik_exact(replicates[i], g, p, s, tau) == want

    @pytest.mark.parametrize("tau", [0.25, 0.5, 0.75])
    def test_fixture_scale_batch(self, tau):
        # A full bootstrap batch at the fixture's scale: 49 draws of 1,323
        # rows in 20 groups of a two-cell design, about 66k pieces in one
        # pass. Responses on a 0.001 grid tie as the fixture's do.
        rng = np.random.default_rng(1323)
        labels = [f"r{j:02d}" for j in range(20)]
        sizes = rng.multinomial(1323 - 20 * 10, np.full(20, 0.05)) + 10
        group = [g for g, m in zip(labels, sizes) for _ in range(m)]
        cell = (rng.random(1323) < 0.6).astype(float)
        u = np.repeat(rng.normal(0.0, 0.05, size=20), sizes)
        z = np.round(np.clip(0.1 + 0.35 * cell + u + rng.normal(0.0, 0.15, size=1323), 0.0, 1.0), 3)
        data = GroupedData(
            z=z, X=np.column_stack([1.0 - cell, cell]), group=group,
            group_weights=dict(zip(labels, rng.uniform(0.5, 2.0, size=20).tolist())),
        )
        draws = resamples(_Workspace(data), 7, 49)
        batch = batch_of(_Workspace(data), np.array([picked for _, picked in draws]), tau)
        gamma = np.column_stack([rng.normal(0.1, 0.02, size=49), rng.normal(0.45, 0.02, size=49)])
        psi2, sigma = rng.uniform(1e-4, 1e-2, size=49), rng.uniform(0.02, 0.1, size=49)
        got = batch.loglik_exact(np.arange(49), gamma, psi2, sigma)
        assert batch._layout.sg.size > 60_000
        for i, draw in enumerate(draws):
            assert got[i] == reference_loglik_exact(replicate_workspace(data, draw), gamma[i], psi2[i], sigma[i], tau)

    @settings(max_examples=80, deadline=None, database=None)
    @given(replicate_batches("covariate"))
    def test_one_design_row_per_group(self, case):
        assert not _Workspace(case[0]).mixed.any()  # no group's residuals are sorted
        self.check(*case)

    @settings(max_examples=80, deadline=None, database=None)
    @given(replicate_batches("two_cell"))
    def test_two_cell_design(self, case):
        assert _Workspace(case[0]).mixed[0]  # group 0's residuals are sorted
        self.check(*case)

    @settings(max_examples=80, deadline=None, database=None)
    @given(replicate_batches("partly_mixed"))
    def test_partly_mixed_design(self, case):
        assert _Workspace(case[0]).mixed[0]
        self.check(*case)


class TestConditionalModes:
    """One batch-wide search gives each group of each resample its own search's mode, bit for bit.

    The reference searches one group at a time, on each replicate's
    workspace built as bootstrap_fits must match.
    """

    def check(self, data, draws, _, params, tau):
        batch = batch_of(_Workspace(data), np.array([picked for _, picked in draws]), tau)
        J = batch.picks.shape[1]
        gamma, psi2, sigma = params[:, :2], params[:, 2], params[:, 3]
        resid = np.concatenate([z - X @ g for (z, X, _), g in zip(map(batch.rows, range(len(draws))), gamma)])
        got = qm._conditional_modes(resid, batch.starts.ravel(), np.repeat(psi2, J), np.repeat(sigma, J), tau)
        for i, draw in enumerate(draws):
            ws = replicate_workspace(data, draw)
            z, X, starts = batch.rows(i)
            assert np.array_equal(z, ws.z) and np.array_equal(X, ws.X) and np.array_equal(starts, ws.starts)
            want = reference_conditional_modes(ws.z, ws.X, ws.starts, gamma[i], psi2[i], sigma[i], tau)
            assert np.array_equal(got[i * J : (i + 1) * J], want)

    @settings(max_examples=60, deadline=None, database=None)
    @given(replicate_batches("covariate"))
    def test_one_design_row_per_group(self, case):
        self.check(*case)

    @settings(max_examples=60, deadline=None, database=None)
    @given(replicate_batches("two_cell"))
    def test_two_cell_design(self, case):
        self.check(*case)

    @settings(max_examples=60, deadline=None, database=None)
    @given(replicate_batches("partly_mixed"))
    def test_partly_mixed_design(self, case):
        self.check(*case)
