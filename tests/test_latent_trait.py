import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latindex.errors import DegenerateItemError, DegenerateScaleError, ValidationError
from latindex.latent_trait import (
    FittedLTM,
    ItemParameters,
    LatentScores,
    ResponseMatrix,
    eap_scores,
    em_fit,
    fit_from_json,
    fit_to_json,
    item_probability,
    scale_scores,
    scores_from_json,
    scores_to_json,
    simulate_responses,
    weighted_marginal_loglik,
)
from latindex.quadrature import hermite_rule


# ---------------------------------------------------------------------------
# Brute-force oracles: fine-grid integration over the latent variable.
# ---------------------------------------------------------------------------

GRID = np.linspace(-8.0, 8.0, 10_001)
GRID_PHI = np.exp(-0.5 * GRID**2) / math.sqrt(2 * math.pi)


def _pattern_likelihood_on_grid(data: ResponseMatrix, params: ItemParameters) -> np.ndarray:
    """n x m likelihood of each unit's response pattern along the grid."""
    probs = item_probability(params.beta0[None, :, None], params.beta1[None, :, None], GRID[None, None, :])
    x = data.responses[:, :, None]
    contrib = np.where(np.isnan(x), 1.0, np.where(x > 0.5, probs, 1.0 - probs))
    return contrib.prod(axis=1)


def grid_loglik(data: ResponseMatrix, params: ItemParameters) -> float:
    like = _pattern_likelihood_on_grid(data, params)
    marg = np.trapezoid(like * GRID_PHI[None, :], GRID, axis=1)
    return float(data.weights @ np.log(marg))


def grid_posterior_mean(data: ResponseMatrix, params: ItemParameters) -> np.ndarray:
    like = _pattern_likelihood_on_grid(data, params) * GRID_PHI[None, :]
    norm = np.trapezoid(like, GRID, axis=1)
    num = np.trapezoid(like * GRID[None, :], GRID, axis=1)
    return num / norm


def random_micro_instance(rng: np.random.Generator) -> tuple[ResponseMatrix, ItemParameters]:
    n = int(rng.integers(2, 21))
    p = int(rng.integers(2, 4))
    params = ItemParameters(
        beta0=rng.uniform(-1.5, 1.5, size=p),
        beta1=rng.uniform(0.2, 2.5, size=p),
    )
    responses = (rng.random((n, p)) < 0.5).astype(float)
    # Sprinkle missingness but keep every unit partly observed.
    miss = rng.random((n, p)) < 0.15
    miss[:, 0] = False
    responses[miss] = np.nan
    weights = rng.uniform(0.5, 2.0, size=n)
    data = ResponseMatrix(
        responses=responses,
        unit_ids=[f"u{i}" for i in range(n)],
        item_names=[f"it{j}" for j in range(p)],
        weights=weights,
    )
    return data, params


def single_item_matrix(x: float, weight: float = 1.0) -> ResponseMatrix:
    """One unit, one live item; the second item is all-missing filler so the
    p >= 2 container invariant holds while the likelihood sees one item."""
    return ResponseMatrix(
        responses=np.array([[x, np.nan]]),
        unit_ids=["u0"],
        item_names=["live", "filler"],
        weights=np.array([weight]),
    )


class TestResponseMatrix:
    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValidationError):
            ResponseMatrix(
                responses=np.array([[0.0, 1.0]]),
                unit_ids=["a"],
                item_names=["x", "y"],
                weights=np.array([0.0]),
            )

    def test_rejects_all_missing_unit(self):
        with pytest.raises(ValidationError, match="no observed"):
            ResponseMatrix(
                responses=np.array([[np.nan, np.nan], [0.0, 1.0]]),
                unit_ids=["a", "b"],
                item_names=["x", "y"],
                weights=np.array([1.0, 1.0]),
            )

    def test_rejects_nonbinary_value(self):
        with pytest.raises(ValidationError):
            ResponseMatrix(
                responses=np.array([[0.5, 1.0]]),
                unit_ids=["a"],
                item_names=["x", "y"],
                weights=np.array([1.0]),
            )

    def test_flags_degenerate_items(self):
        data = ResponseMatrix(
            responses=np.array([[1.0, 1.0], [1.0, 0.0]]),
            unit_ids=["a", "b"],
            item_names=["const", "ok"],
            weights=np.array([1.0, 1.0]),
        )
        assert data.degenerate_items == ("const",)


class TestItemProbability:
    def test_reference_coefficients(self):
        # Direct evaluation of the logistic at beta0=-1.093, beta1=5.503, z=0.
        assert item_probability(-1.093, 5.503, 0.0) == pytest.approx(0.2511, abs=5e-5)

    def test_zero_loading_is_constant(self):
        base = item_probability(0.7, 0.0, 0.0)
        for z in (-3.0, -0.5, 2.0, 9.0):
            assert item_probability(0.7, 0.0, z) == base
        assert base == pytest.approx(1.0 / (1.0 + math.exp(-0.7)), rel=1e-12)

    def test_symmetric_logistic(self):
        assert item_probability(0.0, 1.0, 0.0) == pytest.approx(0.5, abs=1e-15)

    def test_saturates_inside_open_interval(self):
        assert 0.0 < item_probability(0.0, 1.0, -800.0) < 1.0
        assert 0.0 < item_probability(0.0, 1.0, 800.0) < 1.0


class TestWeightedMarginalLoglik:
    def test_latent_integrates_out(self):
        data = single_item_matrix(1.0)
        params = ItemParameters(beta0=[0.0, 0.0], beta1=[0.0, 0.0])
        rule = hermite_rule(21)
        assert weighted_marginal_loglik(data, params, rule) == pytest.approx(
            math.log(0.5), abs=1e-12
        )

    def test_linear_in_weights(self):
        rng = np.random.default_rng(7)
        data, params = random_micro_instance(rng)
        rule = hermite_rule(61)
        base = weighted_marginal_loglik(data, params, rule)
        doubled = ResponseMatrix(
            responses=data.responses,
            unit_ids=data.unit_ids,
            item_names=data.item_names,
            weights=2.0 * data.weights,
        )
        assert weighted_marginal_loglik(doubled, params, rule) == pytest.approx(
            2.0 * base, rel=1e-12
        )

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(20240901)
        rule = hermite_rule(61)
        for _ in range(3):
            data, params = random_micro_instance(rng)
            ours = weighted_marginal_loglik(data, params, rule)
            oracle = grid_loglik(data, params)
            assert ours == pytest.approx(oracle, abs=1e-6)

    def test_reflection_invariance(self):
        # Flipping every loading mirrors the latent axis; the symmetric
        # prior leaves the marginal likelihood unchanged.
        rng = np.random.default_rng(12)
        rule = hermite_rule(41)
        for _ in range(5):
            data, params = random_micro_instance(rng)
            flipped = ItemParameters(beta0=params.beta0, beta1=-params.beta1)
            a = weighted_marginal_loglik(data, params, rule)
            b = weighted_marginal_loglik(data, flipped, rule)
            assert a == pytest.approx(b, abs=1e-10)


class TestEmFit:
    def test_null_model_fit_stays_in_noise_envelope(self):
        # Loadings of zero make the model singular (the score for beta1
        # vanishes identically), so the MLE scatters at the n^(-1/4) rate
        # rather than sitting within 0.1 of zero. The checkable facts:
        # the fit cannot lose to the generating truth, and cannot beat it
        # by more than chi-square overfitting noise on 2p parameters.
        from scipy.stats import chi2

        true = ItemParameters(beta0=[0.6, -0.4, 0.1], beta1=[0.0, 0.0, 0.0])
        data, _ = simulate_responses(true, n=2000, seed=11)
        fit = em_fit(data, quadrature_order=31, max_iter=3000)
        rule = hermite_rule(31)
        ll_true = weighted_marginal_loglik(data, true, rule)
        gain = 2.0 * (fit.log_likelihood - ll_true)
        assert gain >= -1e-6
        assert gain <= chi2.ppf(0.9999, df=2 * 3)

    def test_em_matches_direct_marginal_mle(self):
        # Independent route: maximize the marginal likelihood directly with
        # a generic optimizer and compare against the EM fixed point.
        from scipy.optimize import minimize

        true = ItemParameters(beta0=[0.4, -0.6], beta1=[1.2, 0.9])
        data, _ = simulate_responses(true, n=400, seed=21)
        rule = hermite_rule(31)
        fit = em_fit(data, quadrature_order=31, tol=1e-9, max_iter=3000)

        def negloglik(theta):
            params = ItemParameters(beta0=theta[:2], beta1=theta[2:])
            return -weighted_marginal_loglik(data, params, rule)

        start = np.concatenate([fit.params.beta0 + 0.3, fit.params.beta1 - 0.2])
        res = minimize(negloglik, start, method="Nelder-Mead",
                       options={"xatol": 1e-8, "fatol": 1e-10, "maxiter": 5000, "maxfev": 5000})
        assert fit.log_likelihood == pytest.approx(-res.fun, abs=1e-6)
        # The surface is flat near the optimum for p=2, so parameters agree
        # more loosely than the log-likelihood.
        np.testing.assert_allclose(
            np.concatenate([fit.params.beta0, fit.params.beta1]), res.x, atol=2e-2
        )

    def test_duplicated_units_with_halved_weights(self):
        # Identical likelihoods; a tight tolerance drives both runs to the
        # same optimum despite float summation-order differences.
        true = ItemParameters(beta0=[0.3, -0.5, 0.0], beta1=[1.0, 1.4, 0.8])
        data, _ = simulate_responses(true, n=300, seed=5)
        fit = em_fit(data, quadrature_order=21, tol=1e-11, max_iter=5000)

        dup = ResponseMatrix(
            responses=np.vstack([data.responses, data.responses]),
            unit_ids=[f"a{u}" for u in data.unit_ids] + [f"b{u}" for u in data.unit_ids],
            item_names=data.item_names,
            weights=np.concatenate([data.weights, data.weights]) / 2.0,
        )
        fit_dup = em_fit(dup, quadrature_order=21, tol=1e-11, max_iter=5000)
        np.testing.assert_allclose(fit_dup.params.beta0, fit.params.beta0, atol=1e-5)
        np.testing.assert_allclose(fit_dup.params.beta1, fit.params.beta1, atol=1e-5)
        assert fit_dup.log_likelihood == pytest.approx(fit.log_likelihood, abs=1e-9)

    def test_weight_rescaling_leaves_fit_unchanged(self):
        true = ItemParameters(beta0=[0.3, -0.5, 0.0], beta1=[1.0, 1.4, 0.8])
        data, _ = simulate_responses(true, n=300, seed=6)
        scaled = ResponseMatrix(
            responses=data.responses,
            unit_ids=data.unit_ids,
            item_names=data.item_names,
            weights=data.weights * 37.5,
        )
        fit = em_fit(data, quadrature_order=21)
        fit_scaled = em_fit(scaled, quadrature_order=21)
        np.testing.assert_allclose(fit_scaled.params.beta0, fit.params.beta0, atol=1e-12)
        np.testing.assert_allclose(fit_scaled.params.beta1, fit.params.beta1, atol=1e-12)
        assert fit_scaled.log_likelihood == pytest.approx(37.5 * fit.log_likelihood, rel=1e-10)

    def test_monotone_loglik_trace(self):
        true = ItemParameters(beta0=[0.5, -1.0, 0.2, -0.3], beta1=[0.8, 2.0, 1.2, 0.5])
        data, _ = simulate_responses(true, n=400, seed=3)
        fit = em_fit(data, quadrature_order=31)
        assert np.all(np.diff(fit.loglik_trace) >= -1e-8)

    def test_sign_convention(self):
        true = ItemParameters(beta0=[0.5, -1.0, 0.2], beta1=[0.8, 2.0, 1.2])
        data, _ = simulate_responses(true, n=500, seed=9)
        fit = em_fit(data, quadrature_order=21)
        assert float(fit.params.beta1.sum()) >= 0.0

    def test_degenerate_item_is_named(self):
        data = ResponseMatrix(
            responses=np.array([[1.0, 1.0], [1.0, 0.0], [1.0, 1.0]]),
            unit_ids=["a", "b", "c"],
            item_names=["always_on", "ok"],
            weights=np.ones(3),
        )
        with pytest.raises(DegenerateItemError, match="always_on"):
            em_fit(data)


class TestEapScores:
    def test_posterior_equals_prior_when_uninformative(self):
        data = single_item_matrix(1.0)
        # Build a second real unit so min-max scaling is defined.
        two = ResponseMatrix(
            responses=np.array([[1.0, np.nan], [0.0, 1.0]]),
            unit_ids=["flat", "other"],
            item_names=["live", "filler"],
            weights=np.ones(2),
        )
        params = ItemParameters(beta0=[0.0, 0.0], beta1=[0.0, 1.0])
        fit = FittedLTM(
            params=params,
            log_likelihood=0.0,
            n_iterations=1,
            converged=True,
            quadrature_order=61,
            item_names=two.item_names,
            loglik_trace=np.zeros(1),
        )
        scores = eap_scores(fit, two)
        # First unit only answers the zero-loading item: posterior is the prior.
        assert abs(scores.raw[0]) < 1e-12
        assert scores.posterior_sd[0] == pytest.approx(1.0, abs=1e-10)
        assert data.n_units == 1

    def test_symmetric_pattern_scores_zero(self):
        data = ResponseMatrix(
            responses=np.array([[1.0, 0.0], [1.0, 1.0]]),
            unit_ids=["sym", "hi"],
            item_names=["a", "b"],
            weights=np.ones(2),
        )
        params = ItemParameters(beta0=[0.0, 0.0], beta1=[1.0, 1.0])
        fit = FittedLTM(
            params=params,
            log_likelihood=0.0,
            n_iterations=1,
            converged=True,
            quadrature_order=61,
            item_names=data.item_names,
            loglik_trace=np.zeros(1),
        )
        scores = eap_scores(fit, data)
        assert abs(scores.raw[0]) < 1e-12

    def test_matches_grid_posterior_mean(self):
        data = ResponseMatrix(
            responses=np.array([[1.0, np.nan], [0.0, np.nan]]),
            unit_ids=["hit", "miss"],
            item_names=["live", "filler"],
            weights=np.ones(2),
        )
        params = ItemParameters(beta0=[0.0, 0.0], beta1=[2.0, 0.0])
        fit = FittedLTM(
            params=params,
            log_likelihood=0.0,
            n_iterations=1,
            converged=True,
            quadrature_order=61,
            item_names=data.item_names,
            loglik_trace=np.zeros(1),
        )
        scores = eap_scores(fit, data)
        oracle = grid_posterior_mean(data, params)
        np.testing.assert_allclose(scores.raw, oracle, atol=1e-5)

    def test_non_converged_fit_requires_opt_in(self):
        data = ResponseMatrix(
            responses=np.array([[1.0, 1.0], [0.0, 1.0], [1.0, 0.0]]),
            unit_ids=["a", "b", "c"],
            item_names=["x", "y"],
            weights=np.ones(3),
        )
        fit = FittedLTM(
            params=ItemParameters(beta0=[0.0, 0.0], beta1=[1.0, 1.0]),
            log_likelihood=0.0,
            n_iterations=500,
            converged=False,
            quadrature_order=21,
            item_names=data.item_names,
            loglik_trace=np.zeros(1),
        )
        with pytest.raises(ValidationError):
            eap_scores(fit, data)
        eap_scores(fit, data, allow_non_converged=True)


class TestScaleScores:
    def test_three_point_example(self):
        np.testing.assert_allclose(scale_scores([-1.0, 0.0, 1.0]), [0.0, 0.5, 1.0])

    def test_hand_example(self):
        np.testing.assert_allclose(scale_scores([2.0, 4.0, 10.0]), [0.0, 0.25, 1.0])

    def test_endpoints_exact(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=50)
        s = scale_scores(x)
        assert s.min() == 0.0
        assert s.max() == 1.0

    def test_affine_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=25)
        np.testing.assert_allclose(scale_scores(3.7 * x + 11.0), scale_scores(x), atol=1e-12)

    def test_order_preserved(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=40)
        s = scale_scores(x)
        assert np.all(np.argsort(s) == np.argsort(x))

    def test_constant_input_raises(self):
        with pytest.raises(DegenerateScaleError):
            scale_scores([1.0, 1.0, 1.0])


class TestSimulateResponses:
    def test_deterministic(self):
        params = ItemParameters(beta0=[0.2, -0.7], beta1=[1.0, 0.5])
        a, za = simulate_responses(params, n=100, seed=42)
        b, zb = simulate_responses(params, n=100, seed=42)
        np.testing.assert_array_equal(a.responses, b.responses)
        np.testing.assert_array_equal(za, zb)

    def test_saturated_loading_thresholds_on_sign(self):
        # Expected agreement with the sign rule is 1 - 2 phi(0) ln2 / beta1
        # (per item): ~0.989 at loading 50, above 0.999 once the loading
        # clears ~1800.
        params = ItemParameters(beta0=[0.0, 0.0], beta1=[50.0, 50.0])
        data, z = simulate_responses(params, n=20_000, seed=1)
        agree = (data.responses == (z > 0)[:, None].astype(float)).mean()
        expected = 1.0 - 2.0 * math.log(2.0) / (50.0 * math.sqrt(2 * math.pi))
        assert agree == pytest.approx(expected, abs=0.005)

        steep = ItemParameters(beta0=[0.0, 0.0], beta1=[5000.0, 5000.0])
        data, z = simulate_responses(steep, n=20_000, seed=1)
        agree = (data.responses == (z > 0)[:, None].astype(float)).mean()
        assert agree >= 0.999

    def test_zero_loading_matches_logistic_mean(self):
        params = ItemParameters(beta0=[-0.8, 0.4], beta1=[0.0, 0.0])
        data, _ = simulate_responses(params, n=100_000, seed=8)
        means = data.responses.mean(axis=0)
        expected = 1.0 / (1.0 + np.exp(-params.beta0))
        np.testing.assert_allclose(means, expected, atol=0.01)


class TestSerialization:
    def test_fit_round_trip(self):
        true = ItemParameters(beta0=[0.3, -0.5], beta1=[1.0, 1.4])
        data, _ = simulate_responses(true, n=200, seed=5)
        fit = em_fit(data, quadrature_order=21)
        text = fit_to_json(fit)
        doc = json.loads(text)
        assert list(doc.keys()) == ["items", "loglik", "converged", "iterations"]
        back = fit_from_json(text, quadrature_order=21)
        np.testing.assert_array_equal(back.params.beta0, fit.params.beta0)
        np.testing.assert_array_equal(back.params.beta1, fit.params.beta1)
        assert back.log_likelihood == fit.log_likelihood
        assert back.item_names == fit.item_names

    def test_scores_round_trip(self):
        true = ItemParameters(beta0=[0.3, -0.5], beta1=[1.0, 1.4])
        data, _ = simulate_responses(true, n=50, seed=5)
        fit = em_fit(data, quadrature_order=21)
        scores = eap_scores(fit, data, allow_non_converged=True)
        back = scores_from_json(scores_to_json(scores))
        np.testing.assert_array_equal(back.raw, scores.raw)
        np.testing.assert_array_equal(back.scaled, scores.scaled)
        assert back.unit_ids == scores.unit_ids

    def test_scores_round_trip_any_unit_id(self):
        # A quoted CSV cell may hold any of these; scores.json must stay valid JSON.
        ids = ("tab\there", "new\nline", 'say "hi"', "back\\slash", "citt\u00e0 \u6771", "\x00\x1f\x7f")
        values = np.linspace(0.0, 1.0, len(ids))
        scores = LatentScores(unit_ids=ids, raw=values - 0.5, scaled=values, posterior_sd=values + 0.1)
        back = scores_from_json(scores_to_json(scores))
        assert back.unit_ids == ids
        np.testing.assert_array_equal(back.scaled, scores.scaled)


# ---------------------------------------------------------------------------
# Stated invariants as properties.
# ---------------------------------------------------------------------------

RESCALE_DATA, _ = simulate_responses(
    ItemParameters(beta0=[0.4, -0.6], beta1=[1.2, 0.9]), n=400, seed=21
)


def rescaled_fit(factor):
    data = RESCALE_DATA
    scaled = ResponseMatrix(
        responses=data.responses,
        unit_ids=data.unit_ids,
        item_names=data.item_names,
        weights=data.weights * factor,
    )
    return em_fit(scaled, quadrature_order=21)


@settings(max_examples=30, deadline=None)
@given(k=st.integers(-20, 20).filter(bool))
def test_em_fit_is_identical_under_power_of_two_weight_factors(k):
    # Scaling by 2**k is exact, so the mean-one normalization undoes it bit for bit.
    base, fit = rescaled_fit(1.0), rescaled_fit(2.0**k)
    assert np.array_equal(fit.params.beta0, base.params.beta0)
    assert np.array_equal(fit.params.beta1, base.params.beta1)
    assert fit.log_likelihood == 2.0**k * base.log_likelihood


@settings(max_examples=30, deadline=None)
@given(factor=st.floats(0.01, 100.0))
def test_em_fit_agrees_under_any_positive_weight_factor(factor):
    # Other factors round the normalization; on this draw beta moves by at most about 2e-8.
    base, fit = rescaled_fit(1.0), rescaled_fit(factor)
    np.testing.assert_allclose(fit.params.beta0, base.params.beta0, rtol=0, atol=1e-7)
    np.testing.assert_allclose(fit.params.beta1, base.params.beta1, rtol=0, atol=1e-7)
    assert fit.log_likelihood == pytest.approx(factor * base.log_likelihood, rel=1e-9)


@settings(max_examples=100, deadline=None)
@given(
    raw=st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=40).filter(lambda v: max(v) - min(v) >= 1.0),
    a=st.floats(0.01, 100.0),
    b=st.floats(-100.0, 100.0),
)
def test_scale_scores_is_invariant_to_positive_affine_maps(raw, a, b):
    raw = np.array(raw)
    np.testing.assert_allclose(scale_scores(a * raw + b), scale_scores(raw), rtol=0, atol=1e-9)
