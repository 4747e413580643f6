import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latindex.errors import ValidationError
from latindex.quadrature import hermite_rule
from latindex.quantile_mixed import (
    GroupedData,
    _resample_groups,
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
            got = _resample_groups(base, np.random.default_rng(seed))
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
        ws = _resample_groups(_Workspace(data), np.random.default_rng(1))
        before = ws.weights.copy()
        fit_lqmm(ws, 0.5, restarts=1, compute_modes=False)
        np.testing.assert_array_equal(ws.weights, before)
