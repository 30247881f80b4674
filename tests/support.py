"""Independent oracles and instance builders shared by the test modules.

Everything here is deliberately written from first principles (recurrences,
exhaustive enumeration) rather than through the library's own formulas, so
that agreement is a genuine two-route check.
"""

from functools import lru_cache
from itertools import combinations, product

from crossfam.family_analysis import SetFamily
from crossfam.gf_subspaces import Subspace, SubspaceFamily


@lru_cache(maxsize=None)
def pascal_binomial(m: int, i: int) -> int:
    """C(m, i) by the Pascal recurrence only."""
    if i < 0 or i > m:
        return 0
    if i == 0 or i == m:
        return 1
    return pascal_binomial(m - 1, i - 1) + pascal_binomial(m - 1, i)


@lru_cache(maxsize=None)
def qpascal_gaussian(a: int, b: int, q: int) -> int:
    """[a, b]_q by the q-Pascal recurrence [a,b] = [a-1,b-1] + q^b [a-1,b]."""
    if b < 0 or b > a:
        return 0
    if b == 0 or b == a:
        return 1
    return qpascal_gaussian(a - 1, b - 1, q) + q**b * qpascal_gaussian(a - 1, b, q)


def profile_by_enumeration(n: int, k: int, kp: int, h: int) -> int:
    """Count kp-subsets of [n] meeting the fixed k-set {0..k-1} in exactly h
    elements, by enumerating the whole layer."""
    fixed = set(range(k))
    return sum(
        1 for combo in combinations(range(n), kp) if len(fixed & set(combo)) == h
    )


def brute_min_tuple_sum(w, ell):
    """Exhaustive minimum over all (S, T) pairs of ell-subsets, with the
    (sum, S, T)-lexicographic tie-break."""
    rows = len(w)
    cols = len(w[0]) if rows else 0
    best = None
    for s in combinations(range(rows), ell):
        for t in combinations(range(cols), ell):
            total = sum(w[i][j] for i in s for j in t)
            cand = (total, s, t)
            if best is None or cand < best:
                best = cand
    return best[0], (best[1], best[2])


def span_vectors(rows, q, n=None):
    """The row space of ``rows`` over F_q as a set of vectors, formed from all
    q^r linear combinations of the r rows, with no elimination.  ``n`` is the
    width, needed only when there are no rows."""
    rows = [tuple(r) for r in rows]
    width = len(rows[0]) if rows else n
    out = set()
    for coeffs in product(range(q), repeat=len(rows)):
        out.add(
            tuple(sum(c * r[x] for c, r in zip(coeffs, rows)) % q for x in range(width))
        )
    return out


def _points(member):
    """The elements of a set mask, or every vector of a subspace."""
    if isinstance(member, int):
        return {e for e in range(member.bit_length()) if member >> e & 1}
    return set(member.vectors())


def brute_best_star_pair(n, q, cands_f, cands_g, t):
    """Best star pair over every t-core of the ambient space: the largest
    |F'| * |G'| where F' and G' are the candidates containing a common core,
    as (product, F indices, G indices).  Cores are tried in sorted order
    (masks for sets, where q is None; canonical rows for subspaces) and the
    first strictly better one is kept.  Containment is decided on elements
    and on vectors."""
    if q is None:
        cores = sorted(sum(1 << e for e in combo) for combo in combinations(range(n), t))
    else:
        nonzero = [v for v in product(range(q), repeat=n) if any(v)]
        spans = (Subspace.from_vectors(vs, n, q) for vs in combinations(nonzero, t))
        cores = [Subspace(n, q, rows) for rows in sorted({s.rows for s in spans if s.dim == t})]
    best = (0, (), ())
    for core in cores:
        inside = _points(core)
        f_idx = tuple(i for i, c in enumerate(cands_f) if inside <= _points(c))
        g_idx = tuple(j for j, c in enumerate(cands_g) if inside <= _points(c))
        if len(f_idx) * len(g_idx) > best[0]:
            best = (len(f_idx) * len(g_idx), f_idx, g_idx)
    return best


def masks_from_sets(element_sets, n):
    out = []
    for es in element_sets:
        mask = 0
        for e in es:
            mask |= 1 << (e - 1)
        out.append(mask)
    return out


def random_uniform_set_family(rng, n, k, size):
    """A k-uniform family over [n] with ``size`` distinct members."""
    layer = list(combinations(range(n), k))
    rng.shuffle(layer)
    members = []
    for combo in layer[:size]:
        mask = 0
        for e in combo:
            mask |= 1 << e
        members.append(mask)
    return SetFamily(n, k, tuple(members))


def random_gf2_vector(rng, n):
    return tuple(rng.randrange(2) for _ in range(n))


def sunflower_set_instance(rng, n=9, petals=6):
    """A 2-uniform sunflower with a 1-element kernel and pairwise-disjoint
    petals, over [n].  Returns (family, kernel_element)."""
    kernel = rng.randrange(1, n + 1)
    others = [e for e in range(1, n + 1) if e != kernel]
    rng.shuffle(others)
    chosen = others[:petals]
    family = SetFamily.from_element_sets([[kernel, p] for p in chosen], n)
    return family, kernel


def sunflower_subspace_instance(rng, n=9, petals=8, q=2):
    """A 2-dim subspace sunflower over F_2^n with a 1-dim kernel.

    Distinct 2-dim subspaces through a common 1-dim kernel intersect pairwise
    exactly in that kernel, so any ``petals`` distinct extensions will do.
    Returns (family, kernel_subspace).
    """
    while True:
        v0 = random_gf2_vector(rng, n)
        if any(v0):
            break
    kernel = Subspace.from_vectors([v0], n, q)
    members = []
    seen = set()
    while len(members) < petals:
        p = random_gf2_vector(rng, n)
        cand = Subspace.from_vectors([v0, p], n, q)
        if cand.dim != 2 or cand.rows in seen:
            continue
        seen.add(cand.rows)
        members.append(cand)
    return SubspaceFamily(n, q, 2, tuple(members)), kernel
