"""Maximum-likelihood fitting of inter-arrival distributions (Figure 5).

Implements the three candidate families the paper examines — Weibull,
exponential and log-normal — with closed-form MLEs where they exist and a
Newton iteration on the Weibull shape profile equation otherwise.  Model
selection uses log-likelihood (the families share a two-parameter budget,
except the exponential which is nested in the Weibull), with the
Kolmogorov–Smirnov statistic reported for diagnostics.

The paper's SDSC example fit is ``F(t) = 1 - exp(-(t/19984.8)^0.507936)``
— a Weibull with shape ≈ 0.508, i.e. strongly clustered failures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, slots=True)
class FittedDistribution:
    """A fitted CDF with the interface the distribution learner needs."""

    name: str
    params: tuple[float, ...]
    loglik: float
    ks_statistic: float
    n: int

    def cdf(self, t: "np.ndarray | float") -> "np.ndarray | float":
        t = np.asarray(t, dtype=np.float64)
        if self.name == "weibull":
            shape, scale = self.params
            out = 1.0 - np.exp(-np.power(np.maximum(t, 0.0) / scale, shape))
        elif self.name == "exponential":
            (rate,) = self.params
            out = 1.0 - np.exp(-rate * np.maximum(t, 0.0))
        elif self.name == "lognormal":
            mu, sigma = self.params
            safe = np.maximum(t, np.finfo(np.float64).tiny)
            z = (np.log(safe) - mu) / sigma
            out = 0.5 * (1.0 + _erf(z / math.sqrt(2.0)))
            out = np.where(t <= 0.0, 0.0, out)
        else:  # pragma: no cover - constructor-controlled
            raise ValueError(f"unknown distribution {self.name!r}")
        return out if out.ndim else float(out)

    def quantile(self, q: float) -> float:
        """Inverse CDF, ``F⁻¹(q)``."""
        if not 0.0 < q < 1.0:
            raise ValueError(f"quantile level must lie in (0, 1), got {q}")
        if self.name == "weibull":
            shape, scale = self.params
            return scale * (-math.log1p(-q)) ** (1.0 / shape)
        if self.name == "exponential":
            (rate,) = self.params
            return -math.log1p(-q) / rate
        if self.name == "lognormal":
            mu, sigma = self.params
            return math.exp(mu + sigma * _norm_ppf(q))
        raise ValueError(f"unknown distribution {self.name!r}")  # pragma: no cover


def _erf(x: np.ndarray) -> np.ndarray:
    # numpy has no erf; apply math.erf elementwise.
    return np.array([math.erf(v) for v in x.ravel().tolist()]).reshape(x.shape)


# Cephes ``ndtri`` (Moshier): the C original's coefficients, branch
# points and Horner order, so every quantile is the same double that
# the C routine returns (the tests pin this bitwise).
_S2PI = 2.50662827463100050242e0  # sqrt(2 pi)
_EXP_M2 = 0.13533528323661269189  # exp(-2)

# exp(-2) < q < 1 - exp(-2); each _Q* leads with Cephes' implied 1.0
_P0 = (
    -5.99633501014107895267e1,
    9.80010754185999661536e1,
    -5.66762857469070293439e1,
    1.39312609387279679503e1,
    -1.23916583867381258016e0,
)
_Q0 = (
    1.0,
    1.95448858338141759834e0,
    4.67627912898881538453e0,
    8.63602421390890590575e1,
    -2.25462687854119370527e2,
    2.00260212380060660359e2,
    -8.20372256168333339912e1,
    1.59056225126211695515e1,
    -1.18331621121330003142e0,
)
# z = sqrt(-2 ln q) in [2, 8): q between exp(-2) and exp(-32)
_P1 = (
    4.05544892305962419923e0,
    3.15251094599893866154e1,
    5.71628192246421288162e1,
    4.40805073893200834700e1,
    1.46849561928858024014e1,
    2.18663306850790267539e0,
    -1.40256079171354495875e-1,
    -3.50424626827848203418e-2,
    -8.57456785154685413611e-4,
)
_Q1 = (
    1.0,
    1.57799883256466749731e1,
    4.53907635128879210584e1,
    4.13172038254672030440e1,
    1.50425385692907503408e1,
    2.50464946208309415979e0,
    -1.42182922854787788574e-1,
    -3.80806407691578277194e-2,
    -9.33259480895457427372e-4,
)
# z in [8, 64): q below exp(-32)
_P2 = (
    3.23774891776946035970e0,
    6.91522889068984211695e0,
    3.93881025292474443415e0,
    1.33303460815807542389e0,
    2.01485389549179081538e-1,
    1.23716634817820021358e-2,
    3.01581553508235416007e-4,
    2.65806974686737550832e-6,
    6.23974539184983293730e-9,
)
_Q2 = (
    1.0,
    6.02427039364742014255e0,
    3.67983563856160859403e0,
    1.37702099489081330271e0,
    2.16236993594496635890e-1,
    1.34204006088543189037e-2,
    3.28014464682127739104e-4,
    2.89247864745380683936e-6,
    6.79019408009981274425e-9,
)


def _polevl(x: float, coef: tuple[float, ...]) -> float:
    """Horner's rule, highest power first.  A leading 1.0 gives Cephes'
    ``p1evl`` exactly: its first step, ``1.0 * x + c``, is ``x + c``."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _norm_ppf(q: float) -> float:
    """Standard normal quantile for ``0 < q < 1`` (Cephes ``ndtri``)."""
    y = q
    lower = True
    if y > 1.0 - _EXP_M2:
        y = 1.0 - y
        lower = False
    if y > _EXP_M2:
        y -= 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _P0) / _polevl(y2, _Q0))
        return x * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:
        x1 = z * _polevl(z, _P1) / _polevl(z, _Q1)
    else:
        x1 = z * _polevl(z, _P2) / _polevl(z, _Q2)
    x = x0 - x1
    return -x if lower else x


def _validate_sample(data: np.ndarray) -> np.ndarray:
    x = np.asarray(data, dtype=np.float64)
    x = x[x > 0.0]
    if len(x) < 3:
        raise ValueError(
            f"need at least 3 positive inter-arrival samples, got {len(x)}"
        )
    return x


def _ks(x: np.ndarray, cdf_values: np.ndarray) -> float:
    """Two-sided KS statistic of sorted sample ``x`` against fitted CDF."""
    n = len(x)
    ecdf_hi = np.arange(1, n + 1) / n
    ecdf_lo = np.arange(0, n) / n
    return float(
        max(np.abs(ecdf_hi - cdf_values).max(), np.abs(cdf_values - ecdf_lo).max())
    )


def fit_exponential(data: np.ndarray) -> FittedDistribution:
    """Closed-form MLE: rate = 1 / mean."""
    x = _validate_sample(data)
    rate = 1.0 / float(x.mean())
    loglik = float(len(x) * math.log(rate) - rate * x.sum())
    xs = np.sort(x)
    ks = _ks(xs, 1.0 - np.exp(-rate * xs))
    return FittedDistribution("exponential", (rate,), loglik, ks, len(x))


def fit_lognormal(data: np.ndarray) -> FittedDistribution:
    """Closed-form MLE on the log sample."""
    x = _validate_sample(data)
    logs = np.log(x)
    mu = float(logs.mean())
    sigma = float(logs.std())
    if sigma <= 0:
        raise ValueError("degenerate sample: zero variance in log space")
    n = len(x)
    loglik = float(
        -n * math.log(sigma)
        - n * 0.5 * math.log(2.0 * math.pi)
        - logs.sum()
        - ((logs - mu) ** 2).sum() / (2.0 * sigma**2)
    )
    fitted = FittedDistribution("lognormal", (mu, sigma), loglik, 0.0, n)
    xs = np.sort(x)
    ks = _ks(xs, np.asarray(fitted.cdf(xs)))
    return FittedDistribution("lognormal", (mu, sigma), loglik, ks, n)


def _weibull_shape_equation(k: float, x: np.ndarray, logs: np.ndarray) -> tuple[float, float]:
    """Profile-likelihood shape equation g(k) and its derivative g'(k).

    g(k) = Σ x^k ln x / Σ x^k − 1/k − mean(ln x) = 0 at the MLE.
    """
    xk = np.power(x, k)
    s0 = xk.sum()
    s1 = float((xk * logs).sum())
    s2 = float((xk * logs * logs).sum())
    g = s1 / s0 - 1.0 / k - float(logs.mean())
    gprime = (s2 * s0 - s1 * s1) / (s0 * s0) + 1.0 / (k * k)
    return g, gprime


def fit_weibull(
    data: np.ndarray, tol: float = 1e-10, max_iter: int = 200
) -> FittedDistribution:
    """Newton–Raphson MLE for the two-parameter Weibull."""
    x = _validate_sample(data)
    logs = np.log(x)
    if float(logs.std()) == 0.0:
        raise ValueError("degenerate sample: all inter-arrivals identical")
    # Method-of-moments-flavoured starting point (Menon's estimator).
    k = 1.2 / float(logs.std()) * (math.pi / math.sqrt(6.0)) / 1.2
    k = min(max(k, 0.05), 20.0)
    with np.errstate(all="ignore"):
        for _ in range(max_iter):
            g, gprime = _weibull_shape_equation(k, x, logs)
            if not (math.isfinite(g) and math.isfinite(gprime)) or gprime == 0.0:
                raise ValueError(
                    "Weibull MLE diverged on a near-degenerate sample"
                )
            step = g / gprime
            k_new = k - step
            if k_new <= 0:
                k_new = k / 2.0
            k_new = min(k_new, 200.0)
            if abs(k_new - k) < tol * max(1.0, k):
                k = k_new
                break
            k = k_new
    shape = float(k)
    scale = float(np.power(np.power(x, shape).mean(), 1.0 / shape))
    n = len(x)
    loglik = float(
        n * math.log(shape)
        - n * shape * math.log(scale)
        + (shape - 1.0) * logs.sum()
        - np.power(x / scale, shape).sum()
    )
    if not (math.isfinite(shape) and math.isfinite(scale) and math.isfinite(loglik)):
        raise ValueError(
            f"Weibull MLE diverged on a near-degenerate sample "
            f"(shape={shape}, scale={scale})"
        )
    fitted = FittedDistribution("weibull", (shape, scale), loglik, 0.0, n)
    xs = np.sort(x)
    ks = _ks(xs, np.asarray(fitted.cdf(xs)))
    return FittedDistribution("weibull", (shape, scale), loglik, ks, n)


_FITTERS = {
    "weibull": fit_weibull,
    "exponential": fit_exponential,
    "lognormal": fit_lognormal,
}

DISTRIBUTION_FAMILIES = tuple(_FITTERS)


def fit_family(name: str, data: np.ndarray) -> FittedDistribution:
    try:
        fitter = _FITTERS[name]
    except KeyError:
        raise ValueError(
            f"unknown family {name!r}; choose from {sorted(_FITTERS)}"
        ) from None
    return fitter(data)


def fit_best(
    data: np.ndarray,
    families: tuple[str, ...] = DISTRIBUTION_FAMILIES,
) -> FittedDistribution:
    """Fit all requested families and return the max-log-likelihood one."""
    if not families:
        raise ValueError("need at least one family")
    fits: list[FittedDistribution] = []
    errors: list[str] = []
    for fam in families:
        try:
            fitted = fit_family(fam, data)
        except (ValueError, FloatingPointError) as exc:
            errors.append(f"{fam}: {exc}")
            continue
        if not math.isfinite(fitted.loglik):
            errors.append(f"{fam}: non-finite log-likelihood")
            continue
        fits.append(fitted)
    if not fits:
        raise ValueError("no family could be fitted: " + "; ".join(errors))
    return max(fits, key=lambda f: f.loglik)
