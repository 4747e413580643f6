import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latindex.sae_ebp as sae_ebp
from latindex.errors import ValidationError
from latindex.sae_ebp import (
    NestedErrorFit,
    PopulationFrame,
    SampleData,
    conditional_effect,
    ebp_indicator,
    fit_nested_error,
    marginal_loglik,
    shrinkage_gamma,
    simulate_census,
)


def make_sample(rng, n_domains=12, units=8, beta=(0.5, -0.2), s_u=0.05, s_e=0.08,
                clip=True):
    """Draw a nested-error sample, clipped to the unit interval by default."""
    labels = [f"d{j:02d}" for j in range(n_domains)]
    dom, xs, ys = [], [], []
    for j, d in enumerate(labels):
        u = rng.normal(0.0, s_u)
        for _ in range(units):
            x = rng.uniform(0.0, 1.0)
            y = beta[0] + beta[1] * x + u + rng.normal(0.0, s_e)
            dom.append(d)
            xs.append([1.0, x])
            ys.append(min(max(y, 0.0), 1.0) if clip else y)
    return SampleData(
        y=np.array(ys), X=np.array(xs), domain=dom, column_names=("intercept", "x"),
        validate_support=clip,
    )


def dense_mvn_loglik(sample: SampleData, beta, s2u, s2e) -> float:
    """Direct dense multivariate-normal evaluation (oracle for small n)."""
    n = sample.n_units
    dom = np.asarray(sample.domain, dtype=object)
    Z = (dom[:, None] == dom[None, :]).astype(float)
    V = s2u * Z + s2e * np.eye(n)
    r = sample.y - sample.X @ np.asarray(beta)
    sign, logdet = np.linalg.slogdet(V)
    assert sign > 0
    quad = float(r @ np.linalg.solve(V, r))
    return -0.5 * (n * math.log(2 * math.pi) + logdet + quad)


def reference_gls(sample: SampleData, rho: float):
    """The profile's GLS pieces from one Python loop over the domains in sorted order."""
    rows = sae_ebp._domain_rows(sample.domain)
    P = sample.X.shape[1]
    A = np.zeros((P, P))
    b = np.zeros(P)
    y = sample.y[np.concatenate(list(rows.values()))]
    yty = float(y @ y)
    logdet = 0.0
    for r in rows.values():
        Xp, yp, N = sample.X[r], sample.y[r], r.size
        s, ty = Xp.sum(axis=0), float(yp.sum())
        a = rho / (1.0 + rho * N)
        A += Xp.T @ Xp - a * np.outer(s, s)
        b += Xp.T @ yp - a * s * ty
        yty -= a * ty**2
        logdet += math.log1p(rho * N)
    beta = np.linalg.solve(A, b)
    rss = yty - 2.0 * float(beta @ b) + float(beta @ A @ beta)
    return beta, max(rss, 0.0), logdet, A


@st.composite
def continuous_designs(draw):
    """Unclipped samples with 1-5 continuous columns and domain sizes 1-11."""
    seed = draw(st.integers(0, 2**32 - 1))
    P = draw(st.integers(1, 5))
    sizes = draw(st.lists(st.integers(1, 11), min_size=3, max_size=12))
    sizes[0], sizes[1] = max(sizes[0], 2), max(sizes[1], 2)
    rng = np.random.default_rng(seed)
    n = sum(sizes)
    X = rng.normal(size=(n, P)) * rng.uniform(0.1, 10.0, size=P)
    u = np.repeat(rng.normal(0.0, 0.3, size=len(sizes)), sizes)
    y = X @ rng.normal(size=P) + u + rng.normal(0.0, 0.5, size=n)
    domain = np.repeat([f"d{k:02d}" for k in rng.permutation(len(sizes))], sizes)
    return SampleData(y=y, X=X, domain=domain, validate_support=False)


@settings(max_examples=60, deadline=None)
@given(sample=continuous_designs())
def test_stacked_gls_and_fits_equal_the_per_domain_loop(sample):
    ws = sae_ebp._ProfileWorkspace(sample)
    for rho in (0.0, 1e-9, 0.01, 0.7, 50.0, 1e7):
        got, want = ws.gls(rho), reference_gls(sample, rho)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[3], want[3])
        assert got[1:3] == want[1:3]
    if sample.n_units <= sample.X.shape[1] + 1:
        return
    for reml in (False, True):
        fit = fit_nested_error(sample, reml=reml)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sae_ebp._ProfileWorkspace, "gls", lambda self, rho: reference_gls(sample, rho))
            ref = fit_nested_error(sample, reml=reml)
        assert np.array_equal(fit.beta, ref.beta)
        assert (fit.sigma2_u, fit.sigma2_e, fit.loglik, fit.boundary) == (
            ref.sigma2_u, ref.sigma2_e, ref.loglik, ref.boundary)
        assert fit.u_hat == ref.u_hat and fit.gamma == ref.gamma


def test_gls_squares_response_sums_with_python_pow():
    # Python's t ** 2 (libm pow) and numpy's t * t round a few squares
    # differently; one-unit domains holding such responses show which one
    # gls takes. It must take pow, as the per-domain reference loop does.
    t = np.random.default_rng(5).uniform(size=100_000)
    odd = t[[v**2 != v * v for v in t.tolist()]][:40]
    if odd.size == 0:
        pytest.skip("this platform's pow squares exactly")
    sample = SampleData(y=odd, X=np.ones((odd.size, 1)), domain=[f"d{k:03d}" for k in range(odd.size)])
    ws = sae_ebp._ProfileWorkspace(sample)
    for rho in (0.01, 0.7, 50.0):
        assert ws.gls(rho)[1] == reference_gls(sample, rho)[1]


class TestShrinkageGamma:
    def test_hand_value(self):
        assert shrinkage_gamma(1.0, 1.0, 4) == 0.8

    def test_zero_domain_variance(self):
        for n in (0, 1, 10, 1000):
            assert shrinkage_gamma(0.0, 2.0, n) == 0.0

    def test_empty_domain(self):
        assert shrinkage_gamma(1.0, 1.0, 0) == 0.0

    def test_monotone_in_sample_size(self):
        vals = [shrinkage_gamma(0.3, 0.7, n) for n in range(0, 200)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1.0
        assert vals[-1] > 0.98

    def test_monotone_in_variances(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            s2u = rng.uniform(0.01, 2.0)
            s2e = rng.uniform(0.01, 2.0)
            n = int(rng.integers(1, 50))
            assert shrinkage_gamma(s2u + 0.1, s2e, n) >= shrinkage_gamma(s2u, s2e, n)
            assert shrinkage_gamma(s2u, s2e + 0.1, n) <= shrinkage_gamma(s2u, s2e, n)


class TestConditionalEffect:
    def fixture_fit(self, s2u=1.0, s2e=1.0):
        return NestedErrorFit(
            beta=np.zeros(1),
            sigma2_u=s2u,
            sigma2_e=s2e,
            u_hat={},
            gamma={},
            loglik=0.0,
        )

    def test_zero_residuals(self):
        assert conditional_effect(self.fixture_fit(), np.zeros(6)) == 0.0

    def test_hand_value(self):
        val = conditional_effect(self.fixture_fit(), [0.1, 0.1, 0.1, 0.1])
        assert val == pytest.approx(0.08, abs=1e-12)

    def test_matrix_and_scalar_forms_agree(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            fit = self.fixture_fit(s2u=rng.uniform(0.0, 2.0), s2e=rng.uniform(0.05, 2.0))
            r = rng.normal(size=rng.integers(1, 30))
            gamma = shrinkage_gamma(fit.sigma2_u, fit.sigma2_e, r.size)
            expected = gamma * r.mean()
            assert conditional_effect(fit, r) == pytest.approx(expected, abs=1e-10)


class TestFitNestedError:
    def test_variance_recovery(self):
        # Unclipped draws: these variances do not fit inside [0,1].
        rng = np.random.default_rng(7)
        sample = make_sample(rng, n_domains=40, units=50, s_u=0.2, s_e=0.3, clip=False)
        fit = fit_nested_error(sample)
        assert fit.beta[0] == pytest.approx(0.5, rel=0.15)
        assert fit.beta[1] == pytest.approx(-0.2, rel=0.15)
        assert fit.sigma2_u == pytest.approx(0.04, rel=0.15)
        assert fit.sigma2_e == pytest.approx(0.09, rel=0.15)

    def test_null_domain_variance(self):
        rng = np.random.default_rng(8)
        labels = np.repeat([f"d{j}" for j in range(30)], 100)
        y = np.clip(0.5 + rng.normal(0.0, 0.1, size=3000), 0.0, 1.0)
        X = np.ones((3000, 1))
        sample = SampleData(y=y, X=X, domain=labels, column_names=("intercept",))
        fit = fit_nested_error(sample)
        assert fit.sigma2_u <= 0.01

    def test_boundary_collapses_to_grand_mean(self):
        # With the variance pinned at the boundary the GLS mean is the OLS one.
        y = np.array([0.2, 0.4, 0.3, 0.5, 0.1, 0.6])
        sample = SampleData(
            y=y,
            X=np.ones((6, 1)),
            domain=["a", "a", "b", "b", "c", "c"],
            column_names=("intercept",),
        )
        fit = fit_nested_error(sample)
        if fit.boundary:
            assert fit.beta[0] == pytest.approx(float(y.mean()), abs=1e-10)

    def test_balanced_intercept_equals_gls_mean(self):
        rng = np.random.default_rng(3)
        sample = make_sample(rng, n_domains=10, units=6, beta=(0.5, 0.0), s_u=0.05, s_e=0.05)
        one_col = SampleData(
            y=sample.y,
            X=np.ones((sample.n_units, 1)),
            domain=sample.domain,
            column_names=("intercept",),
        )
        fit = fit_nested_error(one_col)
        # Balanced domains: GLS intercept equals the unweighted grand mean.
        assert fit.beta[0] == pytest.approx(float(sample.y.mean()), abs=1e-8)

    def test_loglik_matches_dense_oracle(self):
        rng = np.random.default_rng(11)
        sample = make_sample(rng, n_domains=6, units=7)
        fit = fit_nested_error(sample)
        oracle = dense_mvn_loglik(sample, fit.beta, fit.sigma2_u, fit.sigma2_e)
        assert fit.loglik == pytest.approx(oracle, abs=1e-6)

    def test_fit_beats_perturbed_parameters(self):
        rng = np.random.default_rng(13)
        sample = make_sample(rng, n_domains=15, units=10)
        fit = fit_nested_error(sample)
        for _ in range(20):
            beta = fit.beta + rng.normal(0, 0.02, size=2)
            s2u = abs(fit.sigma2_u + rng.normal(0, 0.002))
            s2e = abs(fit.sigma2_e + rng.normal(0, 0.002)) + 1e-6
            assert marginal_loglik(sample, beta, s2u, s2e) <= fit.loglik + 1e-8

    def test_reml_close_to_ml_on_large_samples(self):
        rng = np.random.default_rng(17)
        sample = make_sample(rng, n_domains=30, units=40)
        ml = fit_nested_error(sample)
        reml = fit_nested_error(sample, reml=True)
        assert reml.sigma2_u == pytest.approx(ml.sigma2_u, abs=5e-3)
        assert reml.sigma2_e == pytest.approx(ml.sigma2_e, rel=0.05)

    def test_gamma_and_u_hat_identities(self):
        rng = np.random.default_rng(19)
        sample = make_sample(rng, n_domains=8, units=5)
        fit = fit_nested_error(sample)
        resid = sample.y - sample.X @ fit.beta
        dom = np.asarray(sample.domain, dtype=object)
        for d in fit.gamma:
            r = resid[dom == d]
            g = shrinkage_gamma(fit.sigma2_u, fit.sigma2_e, r.size)
            assert fit.gamma[d] == pytest.approx(g, abs=1e-12)
            assert fit.u_hat[d] == pytest.approx(g * r.mean(), abs=1e-12)

    def test_collinear_columns_are_named(self):
        rng = np.random.default_rng(23)
        x = rng.uniform(size=20)
        X = np.column_stack([np.ones(20), x, 2.0 * x])
        sample = SampleData(
            y=np.clip(0.5 + 0.1 * x, 0, 1),
            X=X,
            domain=np.repeat(["a", "b", "c", "d"], 5),
            column_names=("intercept", "x", "x_doubled"),
        )
        with pytest.raises(ValidationError, match="x"):
            fit_nested_error(sample)

    def test_requires_two_domains_with_two_units(self):
        sample = SampleData(
            y=np.array([0.1, 0.2, 0.3]),
            X=np.ones((3, 1)),
            domain=["a", "a", "b"],
        )
        with pytest.raises(ValidationError, match="2 domains"):
            fit_nested_error(sample)


def tiny_world(rng, n_domains=5, pop=20, sampled=6, include_unsampled=True,
               include_saturated=True):
    """A small population with one unsampled and one fully sampled domain."""
    labels = [f"p{j}" for j in range(n_domains)]
    beta = np.array([0.45, 0.1])
    s_u, s_e = 0.06, 0.09
    sizes = {}
    y_s, X_s, dom_s = [], [], []
    X_r, dom_r = [], []
    for j, d in enumerate(labels):
        u = rng.normal(0.0, s_u)
        n_s = sampled
        if include_unsampled and j == 0:
            n_s = 0
        if include_saturated and j == 1:
            n_s = pop
        sizes[d] = pop
        for i in range(pop):
            x = rng.uniform()
            if i < n_s:
                y = beta[0] + beta[1] * x + u + rng.normal(0.0, s_e)
                y_s.append(min(max(y, 0.0), 1.0))
                X_s.append([1.0, x])
                dom_s.append(d)
            else:
                X_r.append([1.0, x])
                dom_r.append(d)
    sample = SampleData(y=np.array(y_s), X=np.array(X_s), domain=dom_s,
                        column_names=("intercept", "x"))
    frame = PopulationFrame(
        X_r=np.array(X_r) if X_r else np.zeros((0, 2)),
        domain=dom_r,
        domain_sizes_pop=sizes,
    )
    return sample, frame


class TestSimulateCensus:
    def test_deterministic_and_complete(self):
        rng = np.random.default_rng(31)
        sample, frame = tiny_world(rng)
        fit = fit_nested_error(sample)
        a = simulate_census(fit, frame, sample, seed=5)
        b = simulate_census(fit, frame, sample, seed=5)
        assert set(a) == set(frame.domain_sizes_pop)
        for d in a:
            assert a[d].size == frame.domain_sizes_pop[d]
            np.testing.assert_array_equal(a[d], b[d])

    def test_sampled_units_keep_observed_values(self):
        rng = np.random.default_rng(37)
        sample, frame = tiny_world(rng)
        fit = fit_nested_error(sample)
        census = simulate_census(fit, frame, sample, seed=1)
        dom = np.asarray(sample.domain, dtype=object)
        for d in dict.fromkeys(sample.domain):
            observed = sample.y[dom == d]
            np.testing.assert_array_equal(census[d][: observed.size], observed)

    def test_degenerate_variances_are_deterministic(self):
        rng = np.random.default_rng(41)
        sample, frame = tiny_world(rng, include_unsampled=False, include_saturated=False)
        fit = NestedErrorFit(
            beta=np.array([0.45, 0.1]),
            sigma2_u=0.0,
            sigma2_e=0.0,
            u_hat={d: 0.0 for d in dict.fromkeys(sample.domain)},
            gamma={d: 0.0 for d in dict.fromkeys(sample.domain)},
            loglik=0.0,
        )
        census = simulate_census(fit, frame, sample, seed=9)
        dom_r = np.asarray(frame.domain, dtype=object)
        dom_s = np.asarray(sample.domain, dtype=object)
        for d in census:
            n_obs = int((dom_s == d).sum())
            expected = frame.X_r[dom_r == d] @ fit.beta
            np.testing.assert_allclose(census[d][n_obs:], expected, atol=1e-14)

    def test_unknown_fitted_domain_treated_as_unsampled(self):
        rng = np.random.default_rng(43)
        sample, frame = tiny_world(rng)
        fit = fit_nested_error(sample)
        # Strip one sampled domain's effects from the fit: still no error.
        gamma = dict(fit.gamma)
        u_hat = dict(fit.u_hat)
        gamma.pop("p2")
        u_hat.pop("p2")
        fit2 = NestedErrorFit(
            beta=fit.beta, sigma2_u=fit.sigma2_u, sigma2_e=fit.sigma2_e,
            u_hat=u_hat, gamma=gamma, loglik=fit.loglik,
        )
        census = simulate_census(fit2, frame, sample, seed=3)
        assert "p2" in census

    def test_u_star_variance_shrinks_with_gamma(self):
        # Empirical variance of the shared draw matches s2_u * (1 - gamma).
        rng = np.random.default_rng(47)
        sample, frame = tiny_world(rng, n_domains=4, pop=10, sampled=5,
                                   include_unsampled=False, include_saturated=False)
        fit = fit_nested_error(sample)
        d = "p0"
        dom_r = np.asarray(frame.domain, dtype=object)
        dom_s = np.asarray(sample.domain, dtype=object)
        n_obs = int((dom_s == d).sum())
        base = frame.X_r[dom_r == d] @ fit.beta + fit.u_hat[d]
        draws = []
        for b in range(10_000):
            census = simulate_census(fit, frame, sample, seed=(101, b))
            resid = census[d][n_obs:] - base
            draws.append(resid.mean())  # u_star plus mean of eps
        var_u_star = np.var(draws) - fit.sigma2_e / (frame.domain_sizes_pop[d] - n_obs)
        expected = fit.sigma2_u * (1.0 - fit.gamma[d])
        assert var_u_star == pytest.approx(expected, rel=0.05, abs=2e-4)


class TestEbpIndicator:
    def test_fully_sampled_domain_returns_direct_median(self):
        rng = np.random.default_rng(53)
        sample, frame = tiny_world(rng)
        fit = fit_nested_error(sample)
        res = ebp_indicator(fit, frame, sample, B=7, seed=2)
        dom = np.asarray(sample.domain, dtype=object)
        direct = float(np.median(sample.y[dom == "p1"]))
        i = res.domains.index("p1")
        assert res.estimate[i] == direct
        assert res.mc_sd[i] == 0.0

    def test_unsampled_domain_receives_estimate(self):
        rng = np.random.default_rng(59)
        sample, frame = tiny_world(rng)
        fit = fit_nested_error(sample)
        res = ebp_indicator(fit, frame, sample, B=25, seed=4)
        assert "p0" in res.domains
        i = res.domains.index("p0")
        assert math.isfinite(res.estimate[i])

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(61)
        sample, frame = tiny_world(rng)
        fit = fit_nested_error(sample)
        a = ebp_indicator(fit, frame, sample, B=11, seed=8)
        b = ebp_indicator(fit, frame, sample, B=11, seed=8)
        np.testing.assert_array_equal(a.estimate, b.estimate)
        np.testing.assert_array_equal(a.mc_sd, b.mc_sd)

    def test_replicate_is_simulated_census(self):
        # simulate_census(seed=(s, b)) is replicate b of ebp_indicator(seed=s).
        rng = np.random.default_rng(65)
        sample, frame = tiny_world(rng)
        fit = fit_nested_error(sample)
        res = ebp_indicator(fit, frame, sample, B=1, seed=12)
        census = simulate_census(fit, frame, sample, seed=(12, 0))
        assert res.domains == tuple(sorted(census))
        for i, d in enumerate(res.domains):
            assert res.estimate[i] == float(np.median(census[d]))

    @pytest.mark.parametrize("statistic", ["median", "mean", 0.25])
    @pytest.mark.parametrize("B", [1, 2, 7])
    def test_matches_per_replicate_reference(self, B, statistic):
        # Replicate b of domain idx (sorted order) draws u_star, then the
        # errors, from numpy's own default_rng(SeedSequence((s, b, idx)));
        # the estimate is the mean of the replicates' statistics over b and
        # mc_sd their standard deviation (ddof 1) over sqrt(B). The fully
        # sampled domain p1 reports its direct statistic; the unsampled p0
        # is simulated.
        rng = np.random.default_rng(89)
        sample, frame = tiny_world(rng)
        fit = fit_nested_error(sample)
        res = ebp_indicator(fit, frame, sample, statistic=statistic, B=B, seed=21)
        stat = {"median": np.median, "mean": np.mean}.get(statistic, lambda v: np.quantile(v, statistic))
        layout, sd_e = sae_ebp._census_layout(fit, frame, sample)
        per = np.empty((len(layout), B))
        for idx, (_, observed, mean_part, sd_u) in enumerate(layout):
            for b in range(B):
                draw = np.random.default_rng(np.random.SeedSequence((21, b, idx)))
                u_star = draw.normal(0.0, sd_u)
                synthetic = mean_part + u_star + draw.normal(0.0, sd_e, size=mean_part.size)
                per[idx, b] = stat(np.concatenate([observed, synthetic]))
        estimate = per.mean(axis=1)
        mc_sd = per.std(axis=1, ddof=1) / math.sqrt(B) if B > 1 else np.zeros(len(res.domains))
        i = res.domains.index("p1")
        estimate[i], mc_sd[i] = per[i, 0], 0.0
        assert np.array_equal(res.estimate, estimate)
        assert np.array_equal(res.mc_sd, mc_sd)

    def test_negative_seed_is_a_validation_error(self):
        rng = np.random.default_rng(93)
        sample, frame = tiny_world(rng)
        fit = fit_nested_error(sample)
        with pytest.raises(ValidationError, match="nonnegative"):
            ebp_indicator(fit, frame, sample, B=3, seed=-1)
        with pytest.raises(ValidationError, match="nonnegative"):
            simulate_census(fit, frame, sample, seed=(4, -1))

    def test_streams_are_not_built_per_replicate(self, monkeypatch):
        # Seeding objects are built per domain at most, never per replicate.
        rng = np.random.default_rng(91)
        sample, frame = tiny_world(rng)
        fit = fit_nested_error(sample)
        built = Counter()

        def counting(name):
            make = getattr(np.random, name)

            def spy(*args, **kwargs):
                built[name] += 1
                return make(*args, **kwargs)

            return spy

        for name in ("SeedSequence", "PCG64", "Generator", "default_rng"):
            monkeypatch.setattr(np.random, name, counting(name))
        counts = []
        for B in (7, 70):
            built.clear()
            ebp_indicator(fit, frame, sample, B=B, seed=3)
            counts.append(dict(built))
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("statistic", ["median", "mean", 0.25])
    def test_chunk_does_not_change_results(self, monkeypatch, statistic):
        # Blocks of one replicate, of about three, and of all B.
        rng = np.random.default_rng(97)
        sample, frame = tiny_world(rng)
        fit = fit_nested_error(sample)
        M = 20  # every domain of tiny_world has 20 population units
        blocks = []
        statistic_fn = sae_ebp._statistic_fn

        def spy(statistic):
            stat, name = statistic_fn(statistic)

            def recorded(v, axis=None):
                if axis is not None:
                    blocks[-1].append(v.shape[0])
                return stat(v, axis=axis)

            return recorded, name

        monkeypatch.setattr(sae_ebp, "_statistic_fn", spy)
        runs = []
        for cap in (1, 3 * M, 40 * M):
            monkeypatch.setattr(sae_ebp, "_CHUNK", cap)
            blocks.append([])
            runs.append(ebp_indicator(fit, frame, sample, statistic=statistic, B=40, seed=6))
        one, three, whole = blocks
        assert set(one) == {1} and set(three) == {3, 1} and set(whole) == {40}
        for other in runs[1:]:
            assert np.array_equal(runs[0].estimate, other.estimate)
            assert np.array_equal(runs[0].mc_sd, other.mc_sd)

    def test_single_replicate_is_deterministic(self):
        rng = np.random.default_rng(63)
        sample, frame = tiny_world(rng)
        fit = fit_nested_error(sample)
        a = ebp_indicator(fit, frame, sample, B=1, seed=2)
        b = ebp_indicator(fit, frame, sample, B=1, seed=2)
        np.testing.assert_array_equal(a.estimate, b.estimate)
        assert np.all(a.mc_sd == 0.0)

    def test_degenerate_variances_give_regression_statistic(self):
        rng = np.random.default_rng(67)
        sample, frame = tiny_world(rng, include_unsampled=False, include_saturated=False)
        fit = NestedErrorFit(
            beta=np.array([0.45, 0.1]), sigma2_u=0.0, sigma2_e=0.0,
            u_hat={d: 0.0 for d in dict.fromkeys(sample.domain)},
            gamma={d: 0.0 for d in dict.fromkeys(sample.domain)},
            loglik=0.0,
        )
        res = ebp_indicator(fit, frame, sample, B=3, seed=1)
        dom_r = np.asarray(frame.domain, dtype=object)
        dom_s = np.asarray(sample.domain, dtype=object)
        for i, d in enumerate(res.domains):
            pooled = np.concatenate([
                sample.y[dom_s == d], frame.X_r[dom_r == d] @ fit.beta
            ])
            assert res.estimate[i] == pytest.approx(float(np.median(pooled)), abs=1e-14)
            assert res.mc_sd[i] == pytest.approx(0.0, abs=1e-14)

    def test_mean_and_quantile_statistics(self):
        rng = np.random.default_rng(71)
        sample, frame = tiny_world(rng)
        fit = fit_nested_error(sample)
        res_mean = ebp_indicator(fit, frame, sample, statistic="mean", B=5, seed=3)
        res_q = ebp_indicator(fit, frame, sample, statistic=0.25, B=5, seed=3)
        assert res_mean.statistic == "mean"
        assert res_q.statistic == "q0.25"

    def test_estimate_clamped_to_unit_interval(self):
        rng = np.random.default_rng(73)
        sample, frame = tiny_world(rng)
        fit = fit_nested_error(sample)
        res = ebp_indicator(fit, frame, sample, B=13, seed=5)
        assert np.all(res.estimate_clamped >= 0.0)
        assert np.all(res.estimate_clamped <= 1.0)

    def test_frame_size_mismatch_rejected(self):
        rng = np.random.default_rng(79)
        sample, frame = tiny_world(rng)
        bad = PopulationFrame(
            X_r=frame.X_r,
            domain=frame.domain,
            domain_sizes_pop={**frame.domain_sizes_pop, "p3": 99},
        )
        fit = fit_nested_error(sample)
        with pytest.raises(ValidationError, match="p3"):
            ebp_indicator(fit, bad, sample, B=2, seed=0)


@given(
    world=st.integers(0, 2**16),
    B=st.integers(1, 60),
    seed=st.integers(0, 2**63 - 1),
    statistic=st.sampled_from(["median", "mean", 0.25, 0.9]),
)
@settings(max_examples=40, deadline=None)
def test_fully_sampled_domain_is_direct_for_any_B_and_seed(world, B, seed, statistic):
    sample, frame = tiny_world(np.random.default_rng(world))
    fit = fit_nested_error(sample)
    res = ebp_indicator(fit, frame, sample, statistic=statistic, B=B, seed=seed)
    y = sample.y[np.asarray(sample.domain, dtype=object) == "p1"]
    direct = {"median": np.median, "mean": np.mean}.get(statistic, lambda v: np.quantile(v, statistic))(y)
    i = res.domains.index("p1")
    assert res.estimate[i] == direct
    assert res.mc_sd[i] == 0.0


class TestEbpDominance:
    def test_ebp_median_beats_direct_median(self):
        # Small-sample domains: the model-based median must dominate the
        # direct sample median against the known population median.
        rng = np.random.default_rng(20240902)
        n_domains, pop, n_s = 12, 120, 8
        wins = 0
        ratios = []
        for rep in range(30):
            labels = [f"d{j:02d}" for j in range(n_domains)]
            sizes = {d: pop for d in labels}
            y_s, X_s, dom_s, X_r, dom_r = [], [], [], [], []
            true_median = {}
            for d in labels:
                u = rng.normal(0.0, 0.05)
                ys = np.clip(0.5 + u + rng.normal(0.0, 0.12, size=pop), 0.0, 1.0)
                true_median[d] = float(np.median(ys))
                for i in range(pop):
                    if i < n_s:
                        y_s.append(ys[i])
                        X_s.append([1.0])
                        dom_s.append(d)
                    else:
                        X_r.append([1.0])
                        dom_r.append(d)
            sample = SampleData(y=np.array(y_s), X=np.array(X_s), domain=dom_s)
            frame = PopulationFrame(X_r=np.array(X_r), domain=dom_r, domain_sizes_pop=sizes)
            fit = fit_nested_error(sample)
            res = ebp_indicator(fit, frame, sample, B=50, seed=rep)
            dom_arr = np.asarray(dom_s, dtype=object)
            for i, d in enumerate(res.domains):
                direct = float(np.median(np.asarray(y_s)[dom_arr == d]))
                err_ebp = (res.estimate[i] - true_median[d]) ** 2
                err_dir = (direct - true_median[d]) ** 2
                ratios.append((err_ebp, err_dir))
        err_ebp = sum(r[0] for r in ratios)
        err_dir = sum(r[1] for r in ratios)
        assert err_ebp < 0.8 * err_dir
