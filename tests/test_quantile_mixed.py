import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize
from scipy.special import log_ndtr

import latindex.quantile_mixed as qm
from latindex.errors import ValidationError
from latindex.quadrature import hermite_rule
from latindex.quantile_mixed import (
    PSI2_FLOOR,
    GroupedData,
    _Batch,
    _finish_fits,
    _fit_lockstep,
    _pick_groups,
    _theta,
    _unpack,
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


@st.composite
def shuffled_rows(draw, two_cell: bool):
    """Grouped rows, a permutation of them and likelihood parameters.

    Responses come partly from a small set so that ties occur. The
    single-cell design gives every group one design row (an intercept and
    a group-level covariate); the two-cell design mixes cell indicators
    within groups.
    """
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=5))
    n = sum(sizes)
    unit = st.floats(0.0, 1.0, allow_nan=False)
    z = draw(st.lists(st.one_of(st.sampled_from([0.0, 0.5, 1.0]), unit), min_size=n, max_size=n))
    labels = [f"g{j}" for j in range(len(sizes))]
    group = [g for g, m in zip(labels, sizes) for _ in range(m)]
    if two_cell:
        cells = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        X = [[0.0, 1.0] if c else [1.0, 0.0] for c in cells]
    else:
        covariate = draw(st.lists(unit, min_size=len(sizes), max_size=len(sizes)))
        X = [[1.0, covariate[labels.index(g)]] for g in group]
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
    @given(shuffled_rows(two_cell=False))
    def test_one_design_row_per_group(self, case):
        data, perm, params = case
        assert _Workspace(data).zs is not None  # the presorted path
        assert lqmm_loglik(_permuted(data, perm), *params) == lqmm_loglik(data, *params)

    @settings(max_examples=80, deadline=None, database=None)
    @given(shuffled_rows(two_cell=True))
    def test_two_cell_design(self, case):
        data, perm, params = case
        assert lqmm_loglik(_permuted(data, perm), *params) == lqmm_loglik(data, *params)


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
        for two_cell in (False, True):
            data = ragged_grouped(79, two_cell, J=6)
            for restarts in (1, 2, 5):
                for fix_psi2 in (None, 0.0, 0.01):
                    got = fit_lqmm(data, 0.5, restarts=restarts, fix_psi2=fix_psi2)
                    want = scipy_fit_lqmm(data, 0.5, restarts, fix_psi2)
                    assert np.array_equal(got.gamma, want.gamma)
                    assert (got.psi2, got.sigma, got.loglik) == (want.psi2, want.sigma, want.loglik)
                    assert got.u == want.u and got.converged == want.converged


def scipy_fit_lqmm(data: GroupedData, tau: float, restarts: int, fix_psi2) -> SimpleNamespace:
    """fit_lqmm with scipy's Nelder-Mead run on one restart at a time (the reference)."""
    ws = _Workspace(data)
    ws.normalize_weights()
    gamma0, psi2_0, sigma0 = qm._start_values(ws, tau, ws.weights[ws.g_sorted])
    estimate_psi = fix_psi2 is None
    base = _theta(gamma0, psi2_0, sigma0, estimate_psi)

    def negloglik(theta):
        gamma, psi2, sigma = _unpack(theta, ws.P, fix_psi2)
        return -ws.loglik_exact(gamma, psi2, sigma, tau)

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
    gamma, psi2, sigma = _unpack(best.x, ws.P, fix_psi2)
    modes = qm._conditional_modes(ws.z, ws.X, ws.starts, gamma, psi2, sigma, tau)
    wbar = float(ws.weights @ modes) / float(ws.weights.sum())
    if wbar != 0.0:
        c, *_ = np.linalg.lstsq(ws.X, np.ones(ws.n), rcond=None)
        if np.max(np.abs(ws.X @ c - 1.0)) < 1e-8:
            gamma, modes = gamma + wbar * c, modes - wbar
    return SimpleNamespace(
        gamma=gamma, psi2=float(psi2), sigma=float(sigma), loglik=ws.loglik_exact(gamma, psi2, sigma, tau),
        u={g: float(m) for g, m in zip(ws.labels, modes)}, converged=bool(best.success),
    )


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
        for two_cell in (False, True):
            data = ragged_grouped(71, two_cell)
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

    @pytest.mark.parametrize("two_cell", [False, True])
    def test_lockstep_refit_matches_scipy_refit(self, two_cell):
        # Each replicate refitted alone by scipy's Nelder-Mead, as the
        # bootstrap did before the refits ran in lockstep.
        data = ragged_grouped(73, two_cell)
        fit = fit_lqmm(data, 0.5, restarts=1)
        theta0 = _theta(fit.gamma, fit.psi2, fit.sigma, True)
        base = _Workspace(data)
        draws = resamples(base, 3, 12)
        got = lockstep_refits(base, draws, theta0, 300, True)
        for draw, lockstep in zip(draws, got):
            ws = base.gather(*draw)
            ws.normalize_weights()

            def negloglik(theta):
                gamma, psi2, sigma = _unpack(theta, ws.P, None)
                return -ws.loglik_exact(gamma, psi2, sigma, 0.5)

            res = minimize(
                negloglik, theta0, method="Nelder-Mead",
                options={"xatol": 1e-5, "fatol": 1e-8, "maxiter": 300, "maxfev": 300},
            )
            alone = _finish_fits(_Batch(base, draw[1][None], 0.5), res.x[None], [res.success], [draw[0]], None, True)[0]
            assert np.array_equal(alone.gamma, lockstep.gamma)
            assert (alone.psi2, alone.sigma, alone.loglik) == (lockstep.psi2, lockstep.sigma, lockstep.loglik)
            assert alone.u == lockstep.u and alone.converged == lockstep.converged

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


def resample_via_grouped_data(data: GroupedData, rng) -> _Workspace:
    """Reference replicate: a GroupedData of the picked groups, labelled g~k."""
    labels = list(data.labels)
    picks = rng.integers(0, len(labels), size=len(labels))
    dom = np.asarray(data.group, dtype=object)
    z, X, group, weights = [], [], [], {}
    for k, j in enumerate(picks):
        mask = dom == labels[j]
        label = f"{labels[j]}~{k}"
        z.append(data.z[mask])
        X.append(data.X[mask])
        group += [label] * int(mask.sum())
        weights[label] = data.group_weights[labels[j]]
    return _Workspace(
        GroupedData(z=np.concatenate(z), X=np.vstack(X), group=group, group_weights=weights)
    )


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

    @pytest.mark.parametrize("two_cell", [False, True])
    def test_gather_matches_grouped_data_build(self, two_cell):
        for seed in range(5):
            data = self.uneven(seed, two_cell)
            base = _Workspace(data)
            got = base.gather(*_pick_groups(base, np.random.default_rng(seed)))
            ref = resample_via_grouped_data(data, np.random.default_rng(seed))
            assert got.labels == ref.labels
            for name in ("z", "X", "starts", "weights"):
                np.testing.assert_array_equal(getattr(got, name), getattr(ref, name))
            assert (got.zs is None) == (ref.zs is None) == two_cell
            if not two_cell:
                np.testing.assert_array_equal(got.zs, ref.zs)
            for psi2 in (0.0, 0.003, 0.2):
                args = (np.array([0.4, 0.6]), psi2, 0.07, 0.3)
                assert got.loglik_exact(*args) == ref.loglik_exact(*args)

    def test_refit_leaves_workspace_weights(self):
        data = self.uneven(0, two_cell=True)
        ws = _Workspace(data)
        before = ws.weights.copy()
        lockstep_refits(ws, resamples(ws, 1, 3), np.array([0.4, 0.6, math.log(0.1), math.log(0.01)]), 200, False)
        np.testing.assert_array_equal(ws.weights, before)


def lockstep_refits(ws, draws, theta0, max_fev, compute_modes):
    """The bootstrap's refits at tau 0.5 of the resamples draws of ws, all from theta0."""
    picks = np.array([picked for _, picked in draws])
    batch, res = _fit_lockstep(ws, picks, 0.5, np.tile(theta0, (len(draws), 1)), None, 1e-5, 1e-8, max_fev)
    return _finish_fits(batch, res.x, res.success, [labels for labels, _ in draws], None, compute_modes)


def resamples(ws, seed, k):
    """The first k bootstrap draws (labels, picked groups) of ws for this seed."""
    return [_pick_groups(ws, np.random.default_rng(np.random.SeedSequence((seed, b)))) for b in range(k)]


def ragged_grouped(seed, two_cell, J=10):
    """Groups of 2-9 rows with uneven weights: a group-level covariate or two cells."""
    rng = np.random.default_rng(seed)
    z, X, group, weights = [], [], [], {}
    for j in range(J):
        g = f"r{j}"
        weights[g] = float(rng.uniform(0.5, 2.0))
        u = rng.normal(0.0, 0.05)
        covariate = float(rng.uniform())
        for _ in range(int(rng.integers(2, 10))):
            cell = int(two_cell and rng.random() < 0.5)
            z.append(float(np.clip(0.3 + 0.2 * cell + u + rng.normal(0.0, 0.1), 0.0, 1.0)))
            X.append([1.0 - cell, float(cell)] if two_cell else [1.0, covariate])
            group.append(g)
    return GroupedData(z=np.array(z), X=np.array(X), group=group, group_weights=weights)


@st.composite
def replicate_batches(draw, two_cell: bool):
    """Bootstrap replicates of random ragged data, a subset of them and parameters.

    Group sizes run from 1 to 9 and psi2 falls on both sides of the
    point-mass floor. The two-cell data always mix cells in one group, so
    they take the sorting path.
    """
    J = draw(st.integers(1, 5))
    sizes = draw(st.lists(st.integers(1, 9), min_size=J, max_size=J))
    if two_cell:
        sizes[0] = max(sizes[0], 2)
    n = sum(sizes)
    unit = st.floats(0.0, 1.0, allow_nan=False)
    z = draw(st.lists(st.one_of(st.sampled_from([0.0, 0.5, 1.0]), unit), min_size=n, max_size=n))
    labels = [f"g{j}" for j in range(J)]
    group = [g for g, m in zip(labels, sizes) for _ in range(m)]
    if two_cell:
        cells = [True, False] + draw(st.lists(st.booleans(), min_size=n - 2, max_size=n - 2))
        X = [[0.0, 1.0] if c else [1.0, 0.0] for c in cells]
    else:
        covariate = draw(st.lists(unit, min_size=J, max_size=J))
        X = [[1.0, covariate[labels.index(g)]] for g in group]
    weights = draw(st.lists(st.floats(0.1, 10.0), min_size=J, max_size=J))
    data = GroupedData(
        z=np.array(z), X=np.array(X), group=group, group_weights=dict(zip(labels, weights))
    )
    k = draw(st.integers(1, 6))
    base = _Workspace(data)
    draws = resamples(base, draw(st.integers(0, 1000)), k)
    live = np.flatnonzero(draw(st.lists(st.booleans(), min_size=k, max_size=k).filter(any)))
    psi2 = st.one_of(st.sampled_from([0.0, PSI2_FLOOR]), st.floats(1e-4, 1.0))
    params = np.array(
        [
            [draw(st.floats(-0.5, 1.0)), draw(st.floats(-0.5, 1.0)), draw(psi2), draw(st.floats(0.01, 1.0))]
            for _ in range(k)
        ]
    )
    tau = draw(st.sampled_from([0.1, 0.25, 0.5, 0.75, 0.9]))
    return base, draws, live, params, tau


def reference_loglik_exact(ws, gamma, psi2, sigma, tau) -> float:
    """loglik_exact of one workspace, step by step on whole arrays (the reference)."""
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
    if ws.zs is not None:
        buf[:n] = ws.zs - (ws.Xg @ gamma)[ws.g_sorted]
    else:
        resid = ws.z - ws.X @ gamma
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
    """The batched kernel returns each replicate's loglik_exact, bit for bit.

    The reference evaluates one replicate at a time with whole-array
    numpy expressions; the kernel evaluates several replicates at once in
    work buffers, and the same kernel with one replicate is loglik_exact.
    """

    def check(self, base, draws, live, params, tau):
        replicates = [base.gather(*draw) for draw in draws]
        for ws in replicates:
            ws.normalize_weights()
        default = qm._CHUNK
        # Runs of pieces as long as the batch, and of at most 5 pieces (a
        # group of 5 rows or more then takes a run of its own).
        for chunk in (default, 5):
            qm._CHUNK = chunk
            try:
                batch = _Batch(base, np.array([picked for _, picked in draws]), tau)
                # A subset of the replicates, then all of them: the layout follows.
                for idx in (live, np.arange(len(draws))):
                    gamma, psi2, sigma = params[idx, :2], params[idx, 2], params[idx, 3]
                    got = batch.loglik_exact(idx, gamma, psi2, sigma)
                    for value, i, g, p, s in zip(got.tolist(), idx, gamma, psi2, sigma):
                        want = reference_loglik_exact(replicates[i], g, p, s, tau)
                        assert value == want
                        assert replicates[i].loglik_exact(g, p, s, tau) == want
            finally:
                qm._CHUNK = default

    @settings(max_examples=80, deadline=None, database=None)
    @given(replicate_batches(two_cell=False))
    def test_one_design_row_per_group(self, case):
        assert case[0].zs is not None  # the presorted path
        self.check(*case)

    @settings(max_examples=80, deadline=None, database=None)
    @given(replicate_batches(two_cell=True))
    def test_two_cell_design(self, case):
        assert case[0].zs is None  # the sorting path
        self.check(*case)
