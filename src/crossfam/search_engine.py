"""Exact maximization of |F| * |G| over subsets of a candidate pool, subject
to the weak cross intersection condition.

Two engines share nothing but the pool:

* ``max_product_naive`` enumerates every pair of candidate subsets.  The
  condition is decided from precomputed violating tuple masks (a pair is
  feasible iff it contains no ell-by-ell tuple whose overlap total is below
  the threshold), which is an exact reformulation of the condition and keeps
  the full enumeration affordable at guard scale.
* ``max_product_bb`` branches on include/exclude of each candidate, seeds its
  incumbent with the best star pair available inside the pool, prunes by the
  product bound and by condition violations (a violating tuple can never be
  repaired by adding members), and re-checks feasibility through the
  family_analysis checker route.

Both are exact and deterministic; their agreement is a two-route check.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from .exact_arith import binomial, condition_threshold, gaussian_binomial
from .family_analysis import (
    SetFamily,
    is_weakly_cross_intersecting,
    mask_from_indices,
    mask_indices,
    member_contains_core,
    member_overlap,
)
from .gf_subspaces import (
    DEFAULT_ENUMERATION_CAP,
    Subspace,
    SubspaceFamily,
    enumerate_subspaces,
    subspaces_of,
)

__all__ = [
    "GuardExceeded",
    "PoolTooLarge",
    "CandidatePool",
    "SearchOptions",
    "SearchResult",
    "star_lower_bound",
    "max_product_naive",
    "max_product_bb",
    "certify",
]

NAIVE_SIDE_LIMIT = 20


class GuardExceeded(ValueError):
    """Pool is too large for the exhaustive engine."""


class PoolTooLarge(ValueError):
    """Pool is too large for the configured branch-and-bound limits."""


@dataclass(frozen=True)
class CandidatePool:
    """Explicit candidate members for each side, in a fixed order that all
    witness indices refer to."""

    kind: str  # "sets" | "subspaces"
    n: int
    q: int | None
    k: int
    kp: int
    candidates_f: tuple
    candidates_g: tuple

    def __post_init__(self):
        if self.kind not in ("sets", "subspaces"):
            raise ValueError(f"kind must be 'sets' or 'subspaces' (got {self.kind!r})")
        if self.kind == "subspaces" and self.q is None:
            raise ValueError("subspace pools need q")
        for cands, size, side in (
            (self.candidates_f, self.k, "F"),
            (self.candidates_g, self.kp, "G"),
        ):
            if len(set(cands)) != len(cands):
                raise ValueError(f"{side} candidates must be distinct")
            for c in cands:
                if self.kind == "sets":
                    if not isinstance(c, int) or c.bit_count() != size:
                        raise ValueError(f"{side} candidates must be {size}-element masks")
                    if c >> self.n:
                        raise ValueError(f"{side} candidate outside the universe")
                else:
                    if not isinstance(c, Subspace) or c.dim != size:
                        raise ValueError(f"{side} candidates must be {size}-dim subspaces")
                    if c.n != self.n or c.q != self.q:
                        raise ValueError(f"{side} candidate in the wrong ambient space")

    @classmethod
    def full_set_layer(cls, n: int, k: int, kp: int) -> "CandidatePool":
        """Both full layers: all k-subsets and all kp-subsets of [n], each in
        lexicographic element order."""

        def layer(size: int) -> tuple[int, ...]:
            return tuple(mask_from_indices(combo) for combo in combinations(range(n), size))

        return cls("sets", n, None, k, kp, layer(k), layer(kp))

    @classmethod
    def full_subspace_layer(
        cls, n: int, k: int, kp: int, q: int, cap: int = DEFAULT_ENUMERATION_CAP
    ) -> "CandidatePool":
        f_layer = enumerate_subspaces(n, k, q, cap).members
        g_layer = f_layer if kp == k else enumerate_subspaces(n, kp, q, cap).members
        return cls("subspaces", n, q, k, kp, f_layer, g_layer)

    @classmethod
    def from_candidates(
        cls,
        kind: str,
        n: int,
        k: int,
        kp: int,
        candidates_f: Iterable,
        candidates_g: Iterable,
        q: int | None = None,
    ) -> "CandidatePool":
        return cls(kind, n, q, k, kp, tuple(candidates_f), tuple(candidates_g))


@dataclass(frozen=True)
class SearchOptions:
    max_nodes: int | None = None
    max_pool_side: int = 64
    symmetry_reduction: bool = False


@dataclass(frozen=True)
class SearchResult:
    """``optimal`` is True only when the search ran to completion; on budget
    exhaustion the incumbent is still a certified feasible lower bound."""

    best_product: int
    best_f: tuple[int, ...]
    best_g: tuple[int, ...]
    nodes_explored: int
    optimal: bool
    star_lower_bound: int

    def to_json_dict(self) -> dict:
        return {
            "best_product": self.best_product,
            "best_F": list(self.best_f),
            "best_G": list(self.best_g),
            "nodes_explored": self.nodes_explored,
            "optimal": self.optimal,
            "star_lower_bound": self.star_lower_bound,
        }


def star_lower_bound(n: int, k: int, kp: int, t: int, q: int | None = None) -> int:
    """Product of the two full star sizes over a common t-core: the value the
    extremal pair achieves."""
    if t < 1:
        raise ValueError(f"t must be >= 1 (got {t})")
    if q is None:
        return binomial(n - t, k - t) * binomial(n - t, kp - t)
    return gaussian_binomial(n - t, k - t, q) * gaussian_binomial(n - t, kp - t, q)


def _weights(pool: CandidatePool) -> list[list[int]]:
    return [
        [member_overlap(a, b) for b in pool.candidates_g] for a in pool.candidates_f
    ]


def _contained_subset_unions(
    count: int, ell: int, subsets: Sequence[tuple[int, ...]], masks: Sequence[int]
) -> list[int]:
    """out[a] = OR of masks[s] over every ell-subset s contained in the index
    set a, built incrementally over the subset lattice."""
    index = {s: i for i, s in enumerate(subsets)}
    out = [0] * (1 << count)
    if ell > count:
        return out
    for a in range(1, 1 << count):
        low = (a & -a).bit_length() - 1
        rest = a ^ (1 << low)
        acc = out[rest]
        rest_bits = mask_indices(rest)
        if len(rest_bits) >= ell - 1:
            for combo in combinations(rest_bits, ell - 1):
                acc |= masks[index[(low,) + combo]]
        out[a] = acc
    return out


def _family_from_indices(pool: CandidatePool, side: str, indices: Sequence[int]):
    cands = pool.candidates_f if side == "f" else pool.candidates_g
    size = pool.k if side == "f" else pool.kp
    members = tuple(cands[i] for i in indices)
    if pool.kind == "sets":
        return SetFamily(pool.n, size, members)
    return SubspaceFamily(pool.n, pool.q, size, members)


def _candidate_cores(pool: CandidatePool, t: int) -> list:
    """Every t-core achieving a nonzero star product is contained in some
    F-side candidate, so enumerating the t-subsets/t-subspaces of the F
    candidates covers all useful cores without touching the ambient space."""
    if pool.kind == "sets":
        cores = set()
        for member in pool.candidates_f:
            for combo in combinations(mask_indices(member), t):
                cores.add(mask_from_indices(combo))
        return sorted(cores)
    seen = {}
    for member in pool.candidates_f:
        for core in subspaces_of(member, t):
            seen[core.rows] = core
    return [seen[key] for key in sorted(seen)]


def _best_star_pair(
    pool: CandidatePool, t: int
) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """Largest product achieved by restricting both sides to the candidates
    containing a common t-core.  Always feasible; the empty pair is the
    fallback."""
    best = (0, (), ())
    for core in _candidate_cores(pool, t):
        f_idx = tuple(
            i for i, c in enumerate(pool.candidates_f) if member_contains_core(c, core)
        )
        g_idx = tuple(
            j for j, c in enumerate(pool.candidates_g) if member_contains_core(c, core)
        )
        product = len(f_idx) * len(g_idx)
        if product > best[0]:
            best = (product, f_idx, g_idx)
    return best


def max_product_naive(
    pool: CandidatePool, ell: int, t: int, guard: int = 24
) -> SearchResult:
    """Exhaustive maximum of |F| * |G| over all pairs of candidate subsets
    satisfying the condition, with the lexicographically smallest witness
    among maximizers."""
    if ell < 1:
        raise ValueError(f"ell must be >= 1 (got {ell})")
    fcount = len(pool.candidates_f)
    gcount = len(pool.candidates_g)
    if fcount + gcount > guard:
        raise GuardExceeded(
            f"pool has {fcount} + {gcount} candidates, above the guard of {guard}"
        )
    if max(fcount, gcount) > NAIVE_SIDE_LIMIT:
        raise GuardExceeded(
            f"one side has more than {NAIVE_SIDE_LIMIT} candidates"
        )
    star = star_lower_bound(pool.n, pool.k, pool.kp, t, pool.q)
    if fcount == 0 or gcount == 0:
        return SearchResult(0, (), (), 0, True, star)

    threshold = condition_threshold(ell, t)
    weights = _weights(pool)
    s_subsets = list(combinations(range(fcount), ell))
    t_subsets = list(combinations(range(gcount), ell))
    bad_masks = []
    for s in s_subsets:
        mask = 0
        for ti, tt in enumerate(t_subsets):
            total = sum(weights[i][j] for i in s for j in tt)
            if total < threshold:
                mask |= 1 << ti
        bad_masks.append(mask)
    violations = _contained_subset_unions(fcount, ell, s_subsets, bad_masks)
    tuple_masks = _contained_subset_unions(
        gcount, ell, t_subsets, [1 << i for i in range(len(t_subsets))]
    )

    b_tuples = [mask_indices(b) for b in range(1 << gcount)]
    b_order = sorted(range(1 << gcount), key=lambda b: (-len(b_tuples[b]), b_tuples[b]))

    best = (0, (), ())
    nodes = 0
    for a in range(1 << fcount):
        bad = violations[a]
        a_tuple = mask_indices(a)
        for b in b_order:
            nodes += 1
            if tuple_masks[b] & bad == 0:
                product = len(a_tuple) * len(b_tuples[b])
                cand = (product, a_tuple, b_tuples[b])
                if product > best[0] or (
                    product == best[0] and (cand[1], cand[2]) < (best[1], best[2])
                ):
                    best = cand
                break
    return SearchResult(best[0], best[1], best[2], nodes, True, star)


def _symmetry_forced_index(pool: CandidatePool) -> int:
    """Under the coordinate-permutation action the optimum is achieved by
    some pair whose F side contains the lexicographically first k-set, so on
    full layers that candidate may be force-included.  Valid only there."""
    if pool.kind != "sets":
        raise ValueError("symmetry reduction is only available for set pools")
    full = CandidatePool.full_set_layer(pool.n, pool.k, pool.kp)
    if set(pool.candidates_f) != set(full.candidates_f) or set(
        pool.candidates_g
    ) != set(full.candidates_g):
        raise ValueError("symmetry reduction requires both pools to be full layers")
    return pool.candidates_f.index((1 << pool.k) - 1)


def max_product_bb(
    pool: CandidatePool, ell: int, t: int, options: SearchOptions | None = None
) -> SearchResult:
    """Branch-and-bound over include/exclude decisions, exact on completion.

    Candidates are branched in decreasing order of conflict degree (how many
    cross-side candidates they pairwise under-intersect), so contentious
    members are settled early.
    """
    if ell < 1:
        raise ValueError(f"ell must be >= 1 (got {ell})")
    opts = options or SearchOptions()
    fcount = len(pool.candidates_f)
    gcount = len(pool.candidates_g)
    if max(fcount, gcount) > opts.max_pool_side:
        raise PoolTooLarge(
            f"pool side above the limit of {opts.max_pool_side} candidates"
        )
    star = star_lower_bound(pool.n, pool.k, pool.kp, t, pool.q)
    threshold = condition_threshold(ell, t)
    weights = _weights(pool)

    seed = _best_star_pair(pool, t)
    best_product = seed[0]
    best_f, best_g = seed[1], seed[2]

    forced_front: int | None = None
    if opts.symmetry_reduction:
        forced_front = _symmetry_forced_index(pool)

    def conflict_degree(side: str, idx: int) -> int:
        if side == "f":
            return sum(1 for j in range(gcount) if weights[idx][j] < t)
        return sum(1 for i in range(fcount) if weights[i][idx] < t)

    # most-conflicted candidates first, alternating sides so partial pairs
    # accrue cross constraints early instead of one side being settled blind
    f_order = sorted(range(fcount), key=lambda i: (-conflict_degree("f", i), i))
    g_order = sorted(range(gcount), key=lambda j: (-conflict_degree("g", j), j))
    order: list[tuple[str, int]] = []
    for pos in range(max(fcount, gcount)):
        if pos < fcount:
            order.append(("f", f_order[pos]))
        if pos < gcount:
            order.append(("g", g_order[pos]))
    if forced_front is not None:
        order.remove(("f", forced_front))
        order.insert(0, ("f", forced_front))

    total = len(order)
    suffix_f = [0] * (total + 1)
    suffix_g = [0] * (total + 1)
    for pos in range(total - 1, -1, -1):
        side, _ = order[pos]
        suffix_f[pos] = suffix_f[pos + 1] + (side == "f")
        suffix_g[pos] = suffix_g[pos + 1] + (side == "g")

    chosen_f: list[int] = []
    chosen_g: list[int] = []
    nodes = 0
    exhausted = False

    def feasible_with(side: str, idx: int) -> bool:
        # the current pair is feasible; new violating tuples must use idx
        if side == "f":
            if len(chosen_f) + 1 < ell or len(chosen_g) < ell:
                return True
            if ell == 1:
                return min(weights[idx][j] for j in chosen_g) >= threshold
            for tt in combinations(chosen_g, ell):
                mine = sum(weights[idx][j] for j in tt)
                others = sorted(sum(weights[i][j] for j in tt) for i in chosen_f)
                if mine + sum(others[: ell - 1]) < threshold:
                    return False
            return True
        if len(chosen_g) + 1 < ell or len(chosen_f) < ell:
            return True
        if ell == 1:
            return min(weights[i][idx] for i in chosen_f) >= threshold
        for ss in combinations(chosen_f, ell):
            mine = sum(weights[i][idx] for i in ss)
            others = sorted(sum(weights[i][j] for i in ss) for j in chosen_g)
            if mine + sum(others[: ell - 1]) < threshold:
                return False
        return True

    def attainable(pos: int) -> int:
        # at ell = 1 a candidate that already under-intersects a chosen
        # cross-side member can never be added (violations are permanent),
        # so it is excluded from the remaining count
        if ell == 1 and (chosen_f or chosen_g):
            f_rem = sum(
                1
                for side, i in order[pos:]
                if side == "f" and all(weights[i][j] >= threshold for j in chosen_g)
            )
            g_rem = sum(
                1
                for side, j in order[pos:]
                if side == "g" and all(weights[i][j] >= threshold for i in chosen_f)
            )
            return (len(chosen_f) + f_rem) * (len(chosen_g) + g_rem)
        return (len(chosen_f) + suffix_f[pos]) * (len(chosen_g) + suffix_g[pos])

    def visit(pos: int) -> None:
        nonlocal nodes, exhausted, best_product, best_f, best_g
        if exhausted:
            return
        nodes += 1
        if opts.max_nodes is not None and nodes > opts.max_nodes:
            exhausted = True
            return
        if attainable(pos) <= best_product:
            return
        if pos == total:
            return
        side, idx = order[pos]
        if feasible_with(side, idx):
            chosen = chosen_f if side == "f" else chosen_g
            chosen.append(idx)
            product = len(chosen_f) * len(chosen_g)
            if product > best_product:
                best_product = product
                best_f = tuple(sorted(chosen_f))
                best_g = tuple(sorted(chosen_g))
            visit(pos + 1)
            chosen.pop()
        if not (forced_front is not None and pos == 0):
            visit(pos + 1)

    visit(0)
    return SearchResult(best_product, best_f, best_g, nodes, not exhausted, star)


def certify(result: SearchResult, pool: CandidatePool, ell: int, t: int) -> bool:
    """Re-verify a search witness through the condition checker and recompute
    its product; True iff everything is consistent."""
    try:
        fam_f = _family_from_indices(pool, "f", result.best_f)
        fam_g = _family_from_indices(pool, "g", result.best_g)
    except (ValueError, IndexError):
        return False
    if len(result.best_f) * len(result.best_g) != result.best_product:
        return False
    return is_weakly_cross_intersecting(fam_f, fam_g, ell, t).satisfied
