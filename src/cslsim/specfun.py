"""Self-contained special-function kernel.

Provides what the physics layers consume:

* for the Mie sums, D_l = z j_(l-1)(z) / j_l(z) as a function of w = z^2
  alone, with no square root, from one downward pass D_l = (2l+1) - w / D_(l+1),
  started at the order where its error at lmax reaches rounding: the first
  order above lmax at which the dominant solution, recurred upward from
  lmax on |z| = sqrt|w|, reaches 1e9,
* modified Bessel I_0, I_1, I_2, exponentially scaled: below x = 30 all
  three come from one fused ascending series, above it from the
  asymptotic expansion;

and, for the tests and the benchmark's tracer, spherical Bessel j_l (the
upward product j_l = j_(l-1) / r_l with r_l = D_l / z, anchored on the
larger closed form of j_0 and j_1) and Hankel h_l^(1) = j_l + i y_l of
real x > 0 (upward y_l).

The spherical Bessel functions accept |z| <= MAX_ORDER: the downward pass
takes O(|z|) steps, and the Mie sums need |z| = sqrt|eps rho^2| < 6 for gold.

All functions are pure; the fused I_k series keeps its last few results.
"""

from __future__ import annotations

import cmath
import functools
import math

from .errors import DomainError, finite, finite_complex, integer

MAX_ORDER = 256          # largest supported spherical-Bessel order and |z|
_TINY_Z = 1e-300         # below this |z|, r_l overflows and j_l (l >= 2) underflows
_IV_SERIES_MAX_X = 30.0  # series/asymptotic crossover for I_k


def _jn_ratio_pass(lmax: int, w: complex) -> list:
    """[D_1, .., D_lmax], D_l = z j_(l-1)(z) / j_l(z) with z^2 = w, from one
    downward pass D_l = (2l+1) - w / D_(l+1).

    The caller bounds |w| by MAX_ORDER^2.  w = 0, which a tiny z rounds to,
    gives D_l = 2l + 1, the z -> 0 limit.
    """
    # Start where the error at lmax has fallen to rounding: recur the
    # dominant solution upward from lmax on |z|, p_lmax = 1 and
    # p_(lmax-1) = 0, until |p| >= 1e9.  Taking w / D = 0 there leaves an
    # error at lmax of about 1 / p^2 = 1e-18 of D_lmax.  At w = 0 the pass
    # is exact from lmax.
    lstart = lmax
    if w:
        az = math.sqrt(abs(w))
        p_lo, p = 0.0, 1.0
        while abs(p) < 1e9:
            p_lo, p = p, (2 * lstart + 1) / az * p - p_lo
            lstart += 1
    # A D_l that rounds to 0 (j_(l-1) at a zero) is kept tiny instead, so
    # w / D stays finite and j_(l-1) / r_l still gives j_l.
    t = 0.0  # w / D_(l+1)
    out = []  # D_lstart .. D_1
    for n in range(2 * lstart + 1, 1, -2):  # n = 2l + 1
        d = n - t or 1e-300
        out.append(d)
        t = w / d
    return out[:-lmax - 1:-1]


def spherical_jn_array(lmax: int, z) -> list[complex]:
    """j_0(z) .. j_lmax(z) from the ratio pass and one upward product."""
    lmax = integer("lmax", lmax, 0, MAX_ORDER)
    z = finite_complex("z", z)
    if abs(z) > MAX_ORDER:
        raise DomainError(f"|z| must be at most {MAX_ORDER}, got {z}")
    if abs(z) < _TINY_Z:  # j_0 = 1 and j_1 = z / 3 to rounding
        return ([1.0 + 0.0j, z / 3.0] + [0.0j] * lmax)[:lmax + 1]
    rs = [d / z for d in _jn_ratio_pass(max(lmax, 1), z * z)]
    # Anchor on the larger of j_0 and j_1: j_0 / r_1 near a zero of j_1,
    # the closed form j_1 near a zero of j_0 (where |j_1| > |j_0| keeps
    # |z| away from the cancellation of the closed form at small z).
    j = cmath.sin(z) / z
    out = [j, j / rs[0] if abs(rs[0]) >= 1.0 else j / z - cmath.cos(z) / z]
    for r in rs[1:]:
        out.append(out[-1] / r)
    return out[:lmax + 1]


def spherical_hankel_array(lmax: int, x: float) -> list[complex]:
    """h_0^(1)(x) .. h_lmax^(1)(x) = j_l(x) + i y_l(x), real x > 0, with
    y_l by stable upward recurrence."""
    x = finite("x", x)
    js = spherical_jn_array(lmax, x)
    ys = [-math.cos(x) / x]
    if lmax:
        # y_1 ~ -1/x^2 overflows before x * x underflows to 0
        ys.append(-math.cos(x) / (x * x) - math.sin(x) / x if x * x else -math.inf)
    for l in range(1, lmax):
        ys.append((2 * l + 1) / x * ys[l] - ys[l - 1])
    if not all(map(math.isfinite, ys)):
        raise DomainError(f"spherical y_l overflows at x = {x} for lmax = {lmax}")
    return [complex(j.real, y) for j, y in zip(js, ys)]


@functools.lru_cache(maxsize=4)
def _iv012_scaled(x: float) -> tuple[float, float, float]:
    """(I_0, I_1, I_2)(x) exp(-x) for 0 <= x < 30, from one ascending series.

    With q = x^2/4 and u_m = q^m / (m! (m+2)!), I_2 = q sum u_m,
    I_1 = (x/2) sum (m+2) u_m and I_0 = sum (m+1)(m+2) u_m.  The I_0 term
    has the largest share of its sum, so it alone decides the stop.
    """
    q = 0.25 * x * x
    u, s0, s1, s2 = 0.5, 1.0, 1.0, 0.5  # the m = 0 terms
    m = t0 = 1.0
    while t0 > s0 * 1e-17:
        u *= q / (m * (m + 2.0))
        t1 = u * (m + 2.0)
        t0 = t1 * (m + 1.0)
        s0 += t0
        s1 += t1
        s2 += u
        m += 1.0
    e = math.exp(-x)
    return s0 * e, s1 * 0.5 * x * e, s2 * q * e


def _iv_asymptotic_scaled(order: int, x: float) -> float:
    # exp(-x) I_k(x) ~ (2 pi x)^(-1/2) sum_n (-1)^n a_n(k) / x^n.  For k <= 2 and
    # x >= 30 every term is smaller than the one before, so the loop ends at the
    # first term below 1e-18, by n = 19, before the series reaches its smallest term.
    mu = 4.0 * order * order
    n, term, total = 0, 1.0, 1.0
    while abs(term) >= 1e-18:
        n += 1
        term *= -(mu - (2 * n - 1) ** 2) / (8.0 * x * n)
        total += term
    return total / (math.sqrt(2.0 * math.pi) * math.sqrt(x))  # 2 pi x may overflow


def bessel_I_scaled(order: int, x: float) -> float:
    """Exponentially scaled modified Bessel exp(-x) I_order(x), x >= 0."""
    order = integer("order", order, 0, 2)
    x = abs(finite("x", x, True))  # -0.0 shares 0.0's cache key, so both give I_1 = +0.0
    if x < _IV_SERIES_MAX_X:
        return _iv012_scaled(x)[order]
    return _iv_asymptotic_scaled(order, x)
