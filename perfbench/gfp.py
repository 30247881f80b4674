"""Reference arithmetic for generating and checking benchmark inputs.

Nothing here imports crossfam: the generator and the answer checks must not
share code with the program they measure.  Sets are bitmasks over 0-based
elements; subspaces of F_p^n are tuples of row tuples in reduced row echelon
form, which is the canonical basis the family file format documents.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations


def rref(rows, p: int) -> tuple[tuple[int, ...], ...]:
    """Reduced row echelon basis of the row space of ``rows`` over F_p."""
    work = [[x % p for x in r] for r in rows]
    basis: list[list[int]] = []
    pivots: list[int] = []
    for row in work:
        # clear the pivots already found, then make the row's lead a 1
        for b, c in zip(basis, pivots):
            if row[c]:
                f = row[c]
                row = [(x - f * y) % p for x, y in zip(row, b)]
        lead = next((c for c, x in enumerate(row) if x), None)
        if lead is None:
            continue
        inv = pow(row[lead], p - 2, p)
        row = [x * inv % p for x in row]
        for i, b in enumerate(basis):
            if b[lead]:
                f = b[lead]
                basis[i] = [(x - f * y) % p for x, y in zip(b, row)]
        basis.append(row)
        pivots.append(lead)
    order = sorted(range(len(basis)), key=lambda i: pivots[i])
    return tuple(tuple(basis[i]) for i in order)


def rank(rows, p: int) -> int:
    return len(rref(rows, p))


def meet_dim(u, w, p: int) -> int:
    """dim(U ∩ W) from the dimensions of U, W and U + W."""
    return len(u) + len(w) - rank(u + w, p)


def holds_core(u, core, p: int) -> bool:
    return rank(u + core, p) == len(u)


def random_vector(rng, n: int, p: int) -> tuple[int, ...]:
    return tuple(rng.randrange(p) for _ in range(n))


def random_subspace(rng, n: int, k: int, p: int):
    while True:
        basis = rref([random_vector(rng, n, p) for _ in range(k)], p)
        if len(basis) == k:
            return basis


def random_frame(rng, n: int, p: int) -> list[tuple[int, ...]]:
    """n random linearly independent vectors: a basis of F_p^n in random
    position, so that planted structure is not aligned with the axes."""
    frame: list[tuple[int, ...]] = []
    while len(frame) < n:
        v = random_vector(rng, n, p)
        if rank(frame + [v], p) == len(frame) + 1:
            frame.append(v)
    return frame


def span_points(n: int, p: int):
    """One nonzero representative per 1-dimensional subspace of F_p^n."""
    out = []
    for c in range(n):
        for tail in _tuples(n - c - 1, p):
            out.append((0,) * c + (1,) + tail)
    return out


def _tuples(length: int, p: int):
    if length == 0:
        return [()]
    return [(x,) + rest for x in range(p) for rest in _tuples(length - 1, p)]


@lru_cache(maxsize=None)
def full_layer(n: int, k: int, p: int) -> tuple:
    """Every k-subspace of F_p^n, sorted by canonical basis."""
    found = {rref(combo, p) for combo in combinations(span_points(n, p), k)}
    return tuple(sorted(b for b in found if len(b) == k))


def set_layer(n: int, k: int) -> tuple[int, ...]:
    """Every k-subset of {0..n-1} as a mask, in lexicographic element order."""
    return tuple(sum(1 << e for e in combo) for combo in combinations(range(n), k))


def random_set(rng, n: int, k: int) -> int:
    return sum(1 << e for e in rng.sample(range(n), k))


def elements(mask: int) -> list[int]:
    return [e for e in range(mask.bit_length()) if mask >> e & 1]


# --- exact counts by recurrence ---------------------------------------------


@lru_cache(maxsize=None)
def pascal(m: int, i: int) -> int:
    """C(m, i) from Pascal's rule; 0 outside 0 <= i <= m."""
    if i < 0 or i > m:
        return 0
    if i == 0 or i == m:
        return 1
    return pascal(m - 1, i - 1) + pascal(m - 1, i)


@lru_cache(maxsize=None)
def q_pascal(a: int, b: int, q: int) -> int:
    """[a, b]_q from the q-Pascal rule [a,b] = [a-1,b-1] + q^b [a-1,b]."""
    if b < 0 or b > a:
        return 0
    if b == 0 or b == a:
        return 1
    return q_pascal(a - 1, b - 1, q) + q**b * q_pascal(a - 1, b, q)


def overlap_count(n: int, kw: int, m: int, h: int, q: int) -> int:
    first = q_pascal(kw, h, q)
    second = q_pascal(n - kw, m - h, q)
    if first == 0 or second == 0:
        return 0
    return q ** ((kw - h) * (m - h)) * first * second


def set_profile(n: int, k: int, kp: int, h: int) -> int:
    return pascal(k, h) * pascal(n - k, kp - h)


def condition_threshold(ell: int, t: int) -> int:
    return ell * ell * t - ell + 1


def halved_threshold(k: int, ell: int, t: int, power: int) -> int:
    """Smallest n with 2(n - t) >= k^2 ell^power C(2k, t+1) C(k, t)."""
    product = k * k * ell**power * pascal(2 * k, t + 1) * pascal(k, t)
    return (product + 1) // 2 + t


def subspace_threshold(k: int, kp: int, ell: int, t: int) -> int:
    return (2 * k - t + 1) * (t + 1) + (k - t + 1) * kp + k + 2 * ell - 1
