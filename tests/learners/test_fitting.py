"""Unit, recovery and property tests for the MLE distribution fits.

scipy is an oracle here only: the package computes its normal quantile
and ``erf`` without it.
"""

import math

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.learners.fitting import (
    DISTRIBUTION_FAMILIES,
    _erf,
    _norm_ppf,
    fit_best,
    fit_exponential,
    fit_family,
    fit_lognormal,
    fit_weibull,
)

RNG = np.random.default_rng(1234)


class TestExponential:
    def test_rate_recovery(self):
        data = RNG.exponential(scale=500.0, size=8000)
        fit = fit_exponential(data)
        (rate,) = fit.params
        assert rate == pytest.approx(1 / 500.0, rel=0.05)

    def test_matches_scipy_loglik(self):
        data = RNG.exponential(scale=100.0, size=500)
        fit = fit_exponential(data)
        scipy_ll = scipy.stats.expon.logpdf(data, scale=1 / fit.params[0]).sum()
        assert fit.loglik == pytest.approx(scipy_ll, rel=1e-9)

    def test_cdf_and_quantile_inverse(self):
        fit = fit_exponential(RNG.exponential(200.0, 200))
        for q in (0.1, 0.5, 0.9):
            assert fit.cdf(fit.quantile(q)) == pytest.approx(q, abs=1e-9)


class TestWeibull:
    def test_shape_scale_recovery(self):
        data = 20000.0 * RNG.weibull(0.5, size=20000)
        fit = fit_weibull(data)
        shape, scale = fit.params
        assert shape == pytest.approx(0.5, rel=0.05)
        assert scale == pytest.approx(20000.0, rel=0.08)

    def test_matches_scipy_mle(self):
        data = 1000.0 * RNG.weibull(1.3, size=3000)
        fit = fit_weibull(data)
        c, _, scale = scipy.stats.weibull_min.fit(data, floc=0)
        assert fit.params[0] == pytest.approx(c, rel=0.01)
        assert fit.params[1] == pytest.approx(scale, rel=0.01)

    def test_paper_style_cdf(self):
        """The paper's SDSC fit: F(20000) = 0.63 for the quoted params."""
        from repro.learners.fitting import FittedDistribution

        f = FittedDistribution(
            name="weibull",
            params=(0.507936, 19984.8),
            loglik=0.0,
            ks_statistic=0.0,
            n=1,
        )
        assert float(f.cdf(20000.0)) == pytest.approx(0.63, abs=0.005)

    def test_quantile_inverse(self):
        fit = fit_weibull(500.0 * RNG.weibull(0.8, 1000))
        for q in (0.2, 0.6, 0.95):
            assert fit.cdf(fit.quantile(q)) == pytest.approx(q, abs=1e-9)

    def test_degenerate_sample_rejected(self):
        with pytest.raises(ValueError, match="identical"):
            fit_weibull(np.full(100, 7.0))


class TestLognormal:
    def test_param_recovery(self):
        data = RNG.lognormal(mean=5.0, sigma=1.5, size=10000)
        fit = fit_lognormal(data)
        mu, sigma = fit.params
        assert mu == pytest.approx(5.0, abs=0.05)
        assert sigma == pytest.approx(1.5, rel=0.05)

    def test_matches_scipy_loglik(self):
        data = RNG.lognormal(3.0, 0.8, 400)
        fit = fit_lognormal(data)
        mu, sigma = fit.params
        scipy_ll = scipy.stats.lognorm.logpdf(data, s=sigma, scale=np.exp(mu)).sum()
        assert fit.loglik == pytest.approx(scipy_ll, rel=1e-9)

    def test_cdf_zero_below_zero(self):
        fit = fit_lognormal(RNG.lognormal(2.0, 1.0, 100))
        assert float(fit.cdf(0.0)) == 0.0
        assert float(fit.cdf(-5.0)) == 0.0

    def test_degenerate_sample(self):
        with pytest.raises(ValueError, match="zero variance"):
            fit_lognormal(np.full(50, 3.0))


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.int64)


class TestScipyOracle:
    """The pure-Python normal quantile and erf against scipy.special."""

    EXP_M2 = math.exp(-2.0)
    EXP_M32 = math.exp(-32.0)

    GRIDS = {
        "interior": np.linspace(EXP_M2, 1.0 - EXP_M2, 20001),
        "tail": np.geomspace(EXP_M32, EXP_M2, 20001),
        "far_tail": np.geomspace(1e-300, EXP_M32, 20001),
        "upper_tail": 1.0 - np.geomspace(1e-16, EXP_M2, 20001),
        "points": np.array(
            [
                0.6,
                0.75,
                0.5,
                EXP_M2,
                np.nextafter(EXP_M2, 0.0),
                np.nextafter(EXP_M2, 1.0),
                1.0 - EXP_M2,
                np.nextafter(1.0 - EXP_M2, 1.0),
                EXP_M32,
                np.nextafter(EXP_M32, 0.0),
                np.nextafter(EXP_M32, 1.0),
                5e-324,
                np.nextafter(1.0, 0.0),
            ]
        ),
    }

    @pytest.mark.parametrize("grid", sorted(GRIDS))
    def test_norm_ppf_bitwise_equals_ndtri(self, grid):
        qs = self.GRIDS[grid]
        mine = [_norm_ppf(float(q)) for q in qs]
        np.testing.assert_array_equal(_bits(mine), _bits(scipy.special.ndtri(qs)))

    def test_erf_within_two_ulp(self):
        x = np.random.default_rng(7).standard_normal(50000) * 3.0
        ref = scipy.special.erf(x)
        assert np.all(np.abs(_erf(x) - ref) <= 2 * np.spacing(np.abs(ref)))

    def test_lognormal_cdf_within_two_ulp(self):
        data = np.random.default_rng(11).lognormal(5.0, 1.7, 5000)
        fit = fit_lognormal(data)
        mu, sigma = fit.params
        ts = np.sort(data)
        z = (np.log(ts) - mu) / sigma
        ref = 0.5 * (1.0 + scipy.special.erf(z / math.sqrt(2.0)))
        # CDF values lie in [0, 1]: two ulp of 1.0 bounds the error.
        assert np.max(np.abs(np.asarray(fit.cdf(ts)) - ref)) <= 2 * np.spacing(1.0)

    def test_lognormal_ks_matches_scipy(self):
        data = np.random.default_rng(13).lognormal(4.0, 1.2, 3000)
        fit = fit_lognormal(data)
        mu, sigma = fit.params
        ref = scipy.stats.kstest(data, "lognorm", args=(sigma, 0.0, math.exp(mu)))
        assert fit.ks_statistic == pytest.approx(ref.statistic, rel=1e-9)


class TestModelSelection:
    def test_best_picks_generating_family(self):
        weib = 10000.0 * RNG.weibull(0.5, size=5000)
        assert fit_best(weib).name == "weibull"
        logn = RNG.lognormal(7.0, 2.0, size=5000)
        assert fit_best(logn).name == "lognormal"

    def test_family_subset(self):
        data = RNG.exponential(100.0, 500)
        fit = fit_best(data, families=("exponential",))
        assert fit.name == "exponential"

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            fit_family("gamma", RNG.exponential(1.0, 100))

    def test_empty_families(self):
        with pytest.raises(ValueError, match="at least one"):
            fit_best(RNG.exponential(1.0, 100), families=())

    def test_all_failed(self):
        with pytest.raises(ValueError, match="at least 3 positive"):
            fit_best(np.array([1.0]))

    def test_families_constant(self):
        assert set(DISTRIBUTION_FAMILIES) == {"weibull", "exponential", "lognormal"}


class TestSampleValidation:
    def test_nonpositive_values_dropped(self):
        data = np.concatenate([RNG.exponential(10.0, 100), [-1.0, 0.0]])
        fit = fit_exponential(data)
        assert fit.n == 100

    def test_too_small_sample(self):
        with pytest.raises(ValueError, match="at least 3"):
            fit_exponential(np.array([1.0, 2.0]))


class TestProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        st.floats(min_value=0.3, max_value=3.0),
        st.floats(min_value=10.0, max_value=1e5),
        st.integers(min_value=50, max_value=400),
    )
    def test_weibull_cdf_monotone_and_bounded(self, shape, scale, n):
        data = scale * np.random.default_rng(0).weibull(shape, size=n)
        fit = fit_weibull(data)
        ts = np.linspace(0.0, scale * 5, 50)
        cdf = np.asarray(fit.cdf(ts))
        assert np.all(np.diff(cdf) >= -1e-12)
        assert np.all((cdf >= 0.0) & (cdf <= 1.0))

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(DISTRIBUTION_FAMILIES), st.integers(min_value=0, max_value=5))
    def test_ks_statistic_in_unit_interval(self, family, seed):
        data = np.random.default_rng(seed).exponential(100.0, 200)
        fit = fit_family(family, data)
        assert 0.0 <= fit.ks_statistic <= 1.0

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10))
    def test_best_has_max_loglik(self, seed):
        data = np.random.default_rng(seed).lognormal(4.0, 1.0, 300)
        best = fit_best(data)
        for family in DISTRIBUTION_FAMILIES:
            assert best.loglik >= fit_family(family, data).loglik - 1e-9
