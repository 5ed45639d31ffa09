"""Self-contained special-function kernel.

Provides exactly what the physics layers consume:

* spherical Bessel j_l of complex or real argument (Miller downward
  recurrence, started at the order where its error at lmax reaches
  rounding: the first order above lmax at which the dominant solution,
  recurred upward from lmax on |z|, reaches 1e9),
* spherical Hankel h_l^(1) of real positive argument (stable upward y_l),
* modified Bessel I_0, I_1, I_2 with exponentially-scaled variants,
* the bracketed Illinois root solve that inverts them.

All functions are pure and stateless.
"""

from __future__ import annotations

import cmath
import math

from .errors import AccuracyLossError, DomainError

MAX_ORDER = 256          # largest supported spherical-Bessel order
_RESCALE_LIMIT = 1e250   # magnitude at which the Miller recurrence is rescaled
_RESCALE = 1e-250
_TINY_Z = 1e-6           # below this |z| the ascending series is used directly
_IV_SERIES_MAX_X = 30.0  # series/asymptotic crossover for I_k
_IV_OVERFLOW_X = 700.0   # exp(x) overflows just above this


def _as_finite(z):
    # A real number stays a float, anything else becomes a complex.
    z = float(z) if isinstance(z, (int, float)) else complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError(f"argument must be finite, got {z}")
    return z


def _jl_series(ell: int, z):
    # j_l(z) = z^l sum_m (-z^2/2)^m / (m! (2l+2m+1)!!), summed until a term
    # no longer moves the total; for |z| <= 1 that takes at most ~10 terms.
    term = 1.0
    for k in range(1, ell + 1):
        term *= z / (2 * k + 1)
    total = term
    m = 0
    while abs(term) > 1e-17 * abs(total):
        m += 1
        term *= -0.5 * z * z / (m * (2 * ell + 2 * m + 1))
        total += term
    return total


def spherical_jn_array(lmax: int, z) -> list:
    """j_0(z) .. j_lmax(z) from a single normalized downward pass.

    A complex z gives complex values.  A real z (int or float) runs the
    same pass in float arithmetic and gives floats, equal to the real part
    of the complex pass at half its cost.
    """
    if lmax < 0 or lmax > MAX_ORDER:
        raise DomainError(f"order must be in [0, {MAX_ORDER}], got {lmax}")
    z = _as_finite(z)
    if isinstance(z, float):
        zero, sin, cos = 0.0, math.sin, math.cos
    else:
        zero, sin, cos = 0.0j, cmath.sin, cmath.cos
    az = abs(z)
    if az == 0.0:
        return [zero + 1.0] + [zero] * lmax
    if az < _TINY_Z:
        return [_jl_series(l, z) for l in range(lmax + 1)]

    # Start where the trial's error at lmax has fallen to rounding: recur
    # the dominant solution upward from lmax on |z|, p_lmax = 1 and
    # p_(lmax-1) = 0, until |p| >= 1e9.  Miller's error at lmax is about
    # 1 / p^2 = 1e-18 of j_lmax.
    p_lo, p, lstart = 0.0, 1.0, lmax
    while abs(p) < 1e9:
        p_lo, p = p, (2 * lstart + 1) / az * p - p_lo
        lstart += 1
    out = [zero] * (lmax + 1)
    f_hi = zero          # trial value at order l+1
    f = zero + 1e-280    # trial value at order l
    for l in range(lstart, 0, -1):
        f_lo = (2 * l + 1) / z * f - f_hi
        f_hi, f = f, f_lo
        if l <= lmax + 1:
            out[l - 1] = f
        if abs(f) > _RESCALE_LIMIT:
            f *= _RESCALE
            f_hi *= _RESCALE
            for i in range(max(l - 1, 0), lmax + 1):
                out[i] *= _RESCALE

    # Normalize against whichever closed-form seed is better conditioned.
    j0 = sin(z) / z
    # The closed form j1 loses ~2 log10(1/|z|) digits to cancellation.
    j1 = _jl_series(1, z) if az < 1.0 else j0 / z - cos(z) / z
    f0, f1 = f, f_hi
    if abs(f0) >= abs(f1):
        ref_true, ref_trial = j0, f0
    else:
        ref_true, ref_trial = j1, f1
    if ref_trial == 0.0:
        raise AccuracyLossError(f"Miller recurrence degenerated at z={z}")
    ratio = ref_true / ref_trial
    out[0] = j0
    if lmax >= 1:
        out[1] = j1
    for i in range(2, lmax + 1):
        out[i] *= ratio
    return out


def spherical_bessel_j(ell: int, z) -> complex:
    """Spherical Bessel function of the first kind, complex argument."""
    return spherical_jn_array(ell, z)[ell]


def spherical_yn_array(lmax: int, x: float) -> list[float]:
    """y_0(x) .. y_lmax(x), real x > 0, by stable upward recurrence."""
    if lmax < 0 or lmax > MAX_ORDER:
        raise DomainError(f"order must be in [0, {MAX_ORDER}], got {lmax}")
    if not (isinstance(x, (int, float)) and math.isfinite(x)) or x <= 0.0:
        raise DomainError(f"spherical y_l requires real x > 0, got {x}")
    x = float(x)
    y0 = -math.cos(x) / x
    if lmax == 0:
        return [y0]
    y1 = -math.cos(x) / (x * x) - math.sin(x) / x
    out = [y0, y1]
    for l in range(1, lmax):
        out.append((2 * l + 1) / x * out[l] - out[l - 1])
    return out


def spherical_hankel_array(lmax: int, x: float) -> list[complex]:
    """h_0^(1)(x) .. h_lmax^(1)(x) = j_l(x) + i y_l(x), real x > 0."""
    ys = spherical_yn_array(lmax, x)
    js = spherical_jn_array(lmax, float(x))
    return [complex(j, y) for j, y in zip(js, ys)]


def spherical_hankel_h1(ell: int, x: float) -> complex:
    """Spherical Hankel function of the first kind, real x > 0."""
    return spherical_hankel_array(ell, x)[ell]


def _iv_series_scaled(order: int, x: float) -> float:
    # Ascending series, all terms positive, times exp(-x); safe for x < 700
    # but used only below the asymptotic crossover.
    half = 0.5 * x
    term = 1.0
    for k in range(1, order + 1):
        term *= half / k
    total = term
    m = 1
    while True:
        term *= half * half / (m * (m + order))
        total += term
        if term <= total * 1e-18:
            break
        m += 1
        if m > 500:
            raise AccuracyLossError(f"I_{order}({x}) series did not converge")
    return total * math.exp(-x)


def _iv_asymptotic_scaled(order: int, x: float) -> float:
    # exp(-x) I_k(x) ~ (2 pi x)^(-1/2) sum_n (-1)^n a_n(k) / x^n, truncated
    # at the smallest term; at the x >= 30 crossover the floor is ~exp(-60).
    mu = 4.0 * order * order
    term = 1.0
    total = 1.0
    smallest = 1.0
    for n in range(1, 40):
        term *= -(mu - (2 * n - 1) ** 2) / (8.0 * x * n)
        if abs(term) > smallest:
            break
        smallest = abs(term)
        total += term
        if abs(term) < 1e-18:
            break
    return total / math.sqrt(2.0 * math.pi * x)


def bessel_I_scaled(order: int, x: float) -> float:
    """Exponentially scaled modified Bessel exp(-x) I_order(x), x >= 0."""
    if order not in (0, 1, 2):
        raise DomainError(f"only orders 0, 1, 2 are supported, got {order}")
    if not (isinstance(x, (int, float)) and math.isfinite(x)) or x < 0.0:
        raise DomainError(f"modified Bessel requires x >= 0, got {x}")
    x = float(x)
    if x < _IV_SERIES_MAX_X:
        return _iv_series_scaled(order, x)
    return _iv_asymptotic_scaled(order, x)


def bessel_I(order: int, x: float) -> float:
    """Modified Bessel function of the first kind, orders 0, 1, 2."""
    scaled = bessel_I_scaled(order, x)
    if x > _IV_OVERFLOW_X:
        raise DomainError(f"I_{order}({x}) overflows double precision")
    return scaled * math.exp(x)


def log_bessel_I0(x: float) -> float:
    """ln I_0(x), finite for any x >= 0 representable as a double."""
    return x + math.log(bessel_I_scaled(0, x))


def _illinois(f, x0: float, x1: float, g0: float, g1: float) -> float:
    """Root of f in (x0, x1), given g0 = f(x0) < 0 < g1 = f(x1).

    Illinois: regula falsi that halves the stale end's weight.  Stops once
    |f| <= 1e-12; bounded at 100 steps in case rounding stalls |f| above
    that, when it returns the last iterate.
    """
    kept = 0
    for _ in range(100):
        x = x1 - g1 * (x1 - x0) / (g1 - g0)
        g = f(x)
        if abs(g) <= 1e-12:
            break
        if g > 0.0:
            x1, g1 = x, g
            if kept == 1:
                g0 *= 0.5
            kept = 1
        else:
            x0, g0 = x, g
            if kept == -1:
                g1 *= 0.5
            kept = -1
    return x
