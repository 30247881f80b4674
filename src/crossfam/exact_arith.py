"""Exact combinatorial counting.

Binomials, their q-analogs, the overlap profile functions for k-subsets and
k-subspaces, and the closed-form size thresholds consumed by the inequality
checkers.  All values are plain Python ints and all arithmetic is exact.
"""

from __future__ import annotations

import math

__all__ = [
    "binomial",
    "gaussian_binomial",
    "set_profile",
    "count_subspaces_by_intersection",
    "subspace_profile",
    "condition_threshold",
    "set_threshold",
    "subspace_threshold",
]


def binomial(m: int, i: int) -> int:
    """Binomial coefficient C(m, i).

    Out-of-range ``i`` (negative or above ``m``) yields 0 so that summation
    identities are total.  ``m`` must be nonnegative.
    """
    if m < 0:
        raise ValueError(f"m must be >= 0 (got {m})")
    if i < 0 or i > m:
        return 0
    return math.comb(m, i)


def gaussian_binomial(a: int, b: int, q: int) -> int:
    """Number of b-dimensional subspaces of a space of dimension a over a
    field of order q: prod_{i=0}^{b-1} (q^(a-i) - 1) / (q^(b-i) - 1).

    Conventions: 1 when b == 0, 0 when b < 0 or b > a.  Numerator and
    denominator are accumulated separately and divided once; the division
    must leave no remainder.
    """
    if q < 2:
        raise ValueError(f"q must be >= 2 (got {q})")
    if a < 0:
        raise ValueError(f"a must be >= 0 (got {a})")
    if b < 0 or b > a:
        return 0
    num = 1
    den = 1
    for i in range(b):
        num *= q ** (a - i) - 1
        den *= q ** (b - i) - 1
    value, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(
            f"gaussian_binomial({a}, {b}, {q}): product formula left remainder {rem}"
        )
    return value


def set_profile(n: int, k: int, kp: int, h: int) -> int:
    """C(k, h) * C(n - k, kp - h): the number of kp-subsets of an n-set that
    meet a fixed k-subset in exactly h elements.

    Total in h via the out-of-range-is-zero binomial convention.
    """
    if n < 0 or k < 0 or kp < 0:
        raise ValueError("n, k, kp must be >= 0")
    if k > n:
        raise ValueError(f"k must be <= n (got k={k}, n={n})")
    return binomial(k, h) * binomial(n - k, kp - h)


def count_subspaces_by_intersection(n: int, kw: int, m: int, h: int, q: int) -> int:
    """Number of m-dimensional subspaces of F_q^n whose intersection with a
    fixed kw-dimensional subspace has dimension exactly h:

        q^((kw - h)(m - h)) * [kw, h]_q * [n - kw, m - h]_q
    """
    if q < 2:
        raise ValueError(f"q must be >= 2 (got {q})")
    if n < 0 or kw < 0 or m < 0:
        raise ValueError("n, kw, m must be >= 0")
    if kw > n or m > n:
        raise ValueError(f"kw and m must be <= n (got kw={kw}, m={m}, n={n})")
    first = gaussian_binomial(kw, h, q)
    second = gaussian_binomial(n - kw, m - h, q)
    if first == 0 or second == 0:
        return 0
    # both factors nonzero forces h <= min(kw, m), so the exponent is >= 0
    return q ** ((kw - h) * (m - h)) * first * second


# the subspace overlap profile F(h) = q^((k-h)(kp-h)) [k, h]_q [n-k, kp-h]_q
subspace_profile = count_subspaces_by_intersection


def condition_threshold(ell: int, t: int) -> int:
    """The tuple-sum threshold ell^2 * t - ell + 1.

    At ell = 1 this reduces to t, the plain cross t-intersecting level.
    """
    if ell < 1:
        raise ValueError(f"ell must be >= 1 (got {ell})")
    if t < 1:
        raise ValueError(f"t must be >= 1 (got {t})")
    return ell * ell * t - ell + 1


def _halved_threshold(k: int, ell: int, t: int, power: int) -> int:
    """Smallest n with 2(n - t) >= k^2 * ell^power * C(2k, t+1) * C(k, t)."""
    product = k * k * ell**power * binomial(2 * k, t + 1) * binomial(k, t)
    return (product + 1) // 2 + t


def set_threshold(k: int, ell: int, t: int) -> int:
    """Smallest n satisfying 2(n - t) >= k^2 * ell^4 * C(2k, t+1) * C(k, t),
    i.e. ceil(k^2 ell^4 C(2k,t+1) C(k,t) / 2) + t.

    The product may be odd, so the comparison is kept in integers rather than
    introducing rationals.
    """
    if t < 1:
        raise ValueError(f"t must be >= 1 (got {t})")
    if k < t + 1:
        raise ValueError(f"k must be >= t + 1 (got k={k}, t={t})")
    if ell < 2:
        raise ValueError(f"ell must be >= 2 (got {ell})")
    return _halved_threshold(k, ell, t, 4)


def subspace_threshold(k: int, kp: int, ell: int, t: int) -> int:
    """(2k - t + 1)(t + 1) + (k - t + 1) kp + k + 2 ell - 1, the ambient
    dimension above which the subspace product bound is claimed."""
    if t < 1:
        raise ValueError(f"t must be >= 1 (got {t})")
    if kp < t + 1:
        raise ValueError(f"kp must be >= t + 1 (got kp={kp}, t={t})")
    if k < kp:
        raise ValueError(f"k must be >= kp (got k={k}, kp={kp})")
    if ell < 2:
        raise ValueError(f"ell must be >= 2 (got {ell})")
    return (2 * k - t + 1) * (t + 1) + (k - t + 1) * kp + k + 2 * ell - 1
