import math

import numpy as np
import pytest

from latindex.errors import ValidationError
from latindex.quadrature import hermite_rule
from latindex.quantile_mixed import (
    GroupedData,
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

    def test_parallel_matches_serial(self):
        rng = np.random.default_rng(49)
        data = make_grouped(rng, J=12, n_j=15)
        fit = fit_lqmm(data, 0.5, restarts=2)
        serial = bootstrap_fits(data, 0.5, B=50, seed=5, base_fit=fit, n_jobs=1)
        parallel = bootstrap_fits(data, 0.5, B=50, seed=5, base_fit=fit, n_jobs=2)
        np.testing.assert_array_equal(serial.estimates, parallel.estimates)
        np.testing.assert_array_equal(serial.psi2, parallel.psi2)
        assert serial.u_by_group == parallel.u_by_group
        assert serial.n_dropped == parallel.n_dropped

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
