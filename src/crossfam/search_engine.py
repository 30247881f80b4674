"""Exact maximization of |F| * |G| over subsets of a candidate pool, subject
to the weak cross intersection condition.

Two engines share nothing but the pool:

* ``max_product_naive`` enumerates every pair of candidate subsets.  The
  condition is decided from precomputed violating tuple masks (a pair is
  feasible iff it contains no ell-by-ell tuple whose overlap total is below
  the threshold), which is an exact reformulation of the condition and keeps
  the full enumeration affordable at guard scale.
* ``max_product_bb`` branches on include/exclude of each candidate, depth
  first from an explicit stack, with every set of candidates held as an
  integer bitmask over candidate indices.  Its incumbent starts at the best
  star pair inside the pool, found in one pass per side that maps each
  t-core to the mask of candidates containing it.  Each side carries a
  still-addable mask: the candidates that can join the current pair without
  a violating tuple.  A violating tuple is never repaired by adding members,
  so the masks only shrink: at ell = 1 by ANDing per-candidate compatibility
  masks, at ell >= 2 from the overlap totals of each chosen ell-subset with
  its ell - 1 smallest cross-side totals, kept up to date on each include.
  The product bound is two popcounts of the remaining candidates (at
  ell = 1 only the still-addable ones).

Both are exact and deterministic; their agreement is a two-route check, and
``certify`` re-verifies a witness through the family_analysis checker.
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
    "certification_failure",
]

NAIVE_SIDE_LIMIT = 20


class GuardExceeded(ValueError):
    """Pool is too large for the exhaustive engine."""


class PoolTooLarge(ValueError):
    """Pool is too large for the configured branch-and-bound limits."""


def _check_sizes(n: int, k: int, kp: int) -> None:
    if n < 1:
        raise ValueError(f"n must be >= 1 (got {n})")
    for name, size in (("k", k), ("kp", kp)):
        if not 0 <= size <= n:
            raise ValueError(f"need 0 <= {name} <= n (got {name}={size}, n={n})")


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
        _check_sizes(self.n, self.k, self.kp)
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
        _check_sizes(n, k, kp)

        def layer(size: int) -> tuple[int, ...]:
            return tuple(mask_from_indices(combo) for combo in combinations(range(n), size))

        return cls("sets", n, None, k, kp, layer(k), layer(kp))

    @classmethod
    def full_subspace_layer(
        cls, n: int, k: int, kp: int, q: int, cap: int = DEFAULT_ENUMERATION_CAP
    ) -> "CandidatePool":
        _check_sizes(n, k, kp)
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
    cands_f, cands_g = pool.candidates_f, pool.candidates_g
    if cands_g != cands_f:
        return [[member_overlap(a, b) for b in cands_g] for a in cands_f]
    # one side against itself: the matrix is symmetric, fill each pair once
    w = [[0] * len(cands_f) for _ in cands_f]
    for i, a in enumerate(cands_f):
        for j in range(i, len(cands_f)):
            w[i][j] = w[j][i] = member_overlap(a, cands_f[j])
    return w


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


def _core_masks(pool: CandidatePool, cands: tuple, t: int) -> dict:
    """Map every t-core lying in some candidate of one side to the mask of
    the candidates containing it, in one pass over the side.  A core is keyed
    by its mask for sets and by its canonical rows for subspaces, so sorting
    the keys gives the core order."""
    out: dict = {}
    for i, member in enumerate(cands):
        if pool.kind == "sets":
            cores = (mask_from_indices(c) for c in combinations(mask_indices(member), t))
        else:
            cores = (core.rows for core in subspaces_of(member, t))
        for core in cores:
            out[core] = out.get(core, 0) | 1 << i
    return out


def _best_star_pair(
    pool: CandidatePool, t: int
) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """Largest product achieved by restricting both sides to the candidates
    containing a common t-core.  Every core with a nonzero product lies in
    some F candidate, so the candidates' own t-subsets/t-subspaces cover them
    without touching the ambient space; cores are tried in sorted order and
    the first strictly better one wins.  Always feasible; the empty pair is
    the fallback."""
    f_cores = _core_masks(pool, pool.candidates_f, t)
    if pool.candidates_g == pool.candidates_f:
        g_cores = f_cores
    else:
        g_cores = _core_masks(pool, pool.candidates_g, t)
    best = (0, (), ())
    for core in sorted(f_cores):
        f_mask, g_mask = f_cores[core], g_cores.get(core, 0)
        product = f_mask.bit_count() * g_mask.bit_count()
        if product > best[0]:
            best = (product, mask_indices(f_mask), mask_indices(g_mask))
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


def _at_least_masks(sums: list[int], threshold: int) -> list[int]:
    """out[v] = mask of the candidates c with sums[c] >= v, for 0 <= v <=
    threshold."""
    out = [0] * (threshold + 1)
    for c, value in enumerate(sums):
        out[min(value, threshold)] |= 1 << c
    for v in range(threshold - 1, -1, -1):
        out[v] |= out[v + 1]
    return out


def _tuple_entry(
    members: tuple[int, ...], side: tuple, cross_chosen: tuple[int, ...], ell: int, threshold: int
) -> tuple[list[int], list[int], list[int]]:
    """Entry for the chosen ell-subset ``members`` of one side, given that
    side's (rows, memo): its overlap totals with every cross-side candidate,
    their at-least masks, and the ell - 1 smallest totals over the chosen
    cross side."""
    rows, memo = side
    hit = memo.get(members)
    if hit is None:
        sums = [sum(col) for col in zip(*(rows[i] for i in members))]
        hit = memo[members] = (sums, _at_least_masks(sums, threshold))
    sums, at_least = hit
    return sums, at_least, sorted(map(sums.__getitem__, cross_chosen))[: ell - 1]


def _grown_tuples(
    idx: int,
    own_chosen: tuple[int, ...],
    cross_chosen: tuple[int, ...],
    own_tuples: list,
    cross_tuples: list,
    ok_own: int,
    ok_cross: int,
    live_own: int,
    live_cross: int,
    own_side: tuple,
    cross_side: tuple,
    ell: int,
    threshold: int,
) -> tuple[list, list, int, int]:
    """Tuple entries and still-addable masks of both sides after candidate
    ``idx`` joins its side, at ell >= 2.

    A side keeps one entry per chosen ell-subset (see ``_tuple_entry``) once
    the cross side has ell - 1 chosen members; before that no cross-side
    candidate can complete a violating tuple.  An entry lets the cross-side
    candidates c with sums[c] >= threshold - sum(low) join, and a candidate
    joins without a violating tuple iff every entry lets it.  Each mask is
    the AND of those passing masks; they only shrink as the pair grows, so
    ANDing in the mask of each new or changed entry keeps the AND exact.

    ``live_*`` are the candidates still to be branched on.  Entries only
    decide the cross side's live still-addable candidates, and both masks
    only shrink, so once a side has none the entries deciding it are
    neither built nor kept up to date.
    """
    lows = ell - 1
    grown = len(own_chosen) + 1
    if ok_own & live_own and grown == lows:
        # the cross side's entries start to count
        joined = (*own_chosen, idx)
        cross_tuples = [
            _tuple_entry(members, cross_side, joined, ell, threshold)
            for members in combinations(cross_chosen, ell)
        ]
        for _, at_least, low in cross_tuples:
            need = threshold - sum(low)
            if need > 0:
                ok_own &= at_least[need]
    elif ok_own & live_own and grown > lows:
        updated = []
        for entry in cross_tuples:
            sums, at_least, low = entry
            value = sums[idx]
            if value >= low[-1]:
                updated.append(entry)
                continue
            low = sorted(low + [value])[:lows]
            need = threshold - sum(low)
            if need > 0:
                ok_own &= at_least[need]
            updated.append((sums, at_least, low))
        cross_tuples = updated
    if len(cross_chosen) >= lows and ok_cross & live_cross:
        own_tuples = list(own_tuples)
        for rest in combinations(own_chosen, lows):
            entry = _tuple_entry((idx, *rest), own_side, cross_chosen, ell, threshold)
            need = threshold - sum(entry[2])
            if need > 0:
                ok_cross &= entry[1][need]
            own_tuples.append(entry)
    return own_tuples, cross_tuples, ok_own, ok_cross


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
    columns = [list(col) for col in zip(*weights)] if fcount else [[] for _ in range(gcount)]

    best_product, best_f, best_g = _best_star_pair(pool, t)

    forced_front: int | None = None
    if opts.symmetry_reduction:
        forced_front = _symmetry_forced_index(pool)

    # most-conflicted candidates first, alternating sides so partial pairs
    # accrue cross constraints early instead of one side being settled blind
    f_order = sorted(range(fcount), key=lambda i: (-sum(w < t for w in weights[i]), i))
    g_order = sorted(range(gcount), key=lambda j: (-sum(w < t for w in columns[j]), j))
    order: list[tuple[str, int]] = []
    for pos in range(max(fcount, gcount)):
        if pos < fcount:
            order.append(("f", f_order[pos]))
        if pos < gcount:
            order.append(("g", g_order[pos]))
    if forced_front is not None:
        order.remove(("f", forced_front))
        order.insert(0, ("f", forced_front))

    # suffix[pos]: the candidates of each side at positions >= pos
    total = len(order)
    suffix = [(0, 0)] * (total + 1)
    for pos in range(total - 1, -1, -1):
        side, idx = order[pos]
        sf, sg = suffix[pos + 1]
        suffix[pos] = (sf | 1 << idx, sg) if side == "f" else (sf, sg | 1 << idx)

    # ok_f / ok_g: the candidates of each side that can still join the
    # current pair without a violating tuple; a violation is never repaired
    # by adding members, so they only shrink.  At ell = 1 a violating tuple
    # is a single pair, so including F candidate i narrows ok_g to compat_f[i]
    # (the G candidates meeting it in at least the threshold), and the bound
    # counts only still-addable candidates.  At ell >= 2 _grown_tuples keeps
    # the masks, and keep_f / keep_g count every remaining candidate in the
    # bound, as a suffix count.
    full_f, full_g = (1 << fcount) - 1, (1 << gcount) - 1
    compat_f = [mask_from_indices(j for j, w in enumerate(r) if w >= threshold) for r in weights]
    compat_g = [mask_from_indices(i for i, w in enumerate(c) if w >= threshold) for c in columns]
    keep_f, keep_g = (0, 0) if ell == 1 else (full_f, full_g)
    f_side = (weights, {})
    g_side = (columns, {})

    limit = opts.max_nodes
    forced = forced_front is not None
    nodes = 0
    exhausted = False
    # depth-first, include before exclude; a frame is (pos, chosen_f,
    # chosen_g, ok_f, ok_g, tuples_f, tuples_g): the chosen indices in the
    # order they joined, the still-addable masks, and the ell >= 2 tuple
    # entries of _grown_tuples
    stack = [(0, (), (), full_f, full_g, [], [])]
    while stack:
        pos, chosen_f, chosen_g, ok_f, ok_g, tuples_f, tuples_g = stack.pop()
        nodes += 1
        if limit is not None and nodes > limit:
            exhausted = True
            break
        nf, ng = len(chosen_f), len(chosen_g)
        sf, sg = suffix[pos]
        bound_f = nf + ((ok_f | keep_f) & sf).bit_count()
        if bound_f * (ng + ((ok_g | keep_g) & sg).bit_count()) <= best_product:
            continue
        if pos == total:
            continue
        if pos or not forced:
            stack.append((pos + 1, chosen_f, chosen_g, ok_f, ok_g, tuples_f, tuples_g))
        side, idx = order[pos]
        if side == "f":
            if not ok_f >> idx & 1:
                continue
            if ell == 1:
                ok_g &= compat_f[idx]
            else:
                live_f, live_g = suffix[pos + 1]
                tuples_f, tuples_g, ok_f, ok_g = _grown_tuples(
                    idx, chosen_f, chosen_g, tuples_f, tuples_g, ok_f, ok_g,
                    live_f, live_g, f_side, g_side, ell, threshold,
                )
            chosen_f += (idx,)
            nf += 1
        else:
            if not ok_g >> idx & 1:
                continue
            if ell == 1:
                ok_f &= compat_g[idx]
            else:
                live_f, live_g = suffix[pos + 1]
                tuples_g, tuples_f, ok_g, ok_f = _grown_tuples(
                    idx, chosen_g, chosen_f, tuples_g, tuples_f, ok_g, ok_f,
                    live_g, live_f, g_side, f_side, ell, threshold,
                )
            chosen_g += (idx,)
            ng += 1
        if nf * ng > best_product:
            best_product = nf * ng
            best_f, best_g = tuple(sorted(chosen_f)), tuple(sorted(chosen_g))
        stack.append((pos + 1, chosen_f, chosen_g, ok_f, ok_g, tuples_f, tuples_g))

    return SearchResult(best_product, best_f, best_g, nodes, not exhausted, star)


def certification_failure(
    result: SearchResult, pool: CandidatePool, ell: int, t: int
) -> str | None:
    """Re-verify a search witness through the condition checker and
    recompute its product; None if everything is consistent, else the
    reason it is not."""
    families = []
    for side, indices in (("F", result.best_f), ("G", result.best_g)):
        try:
            families.append(_family_from_indices(pool, side.lower(), indices))
        except IndexError:
            return f"{side} witness {list(indices)} indexes outside the pool"
        except ValueError as exc:
            return f"{side} witness {list(indices)} is not a family: {exc}"
    fam_f, fam_g = families
    product = len(result.best_f) * len(result.best_g)
    if product != result.best_product:
        return (
            f"best_product {result.best_product} differs from |F| * |G| = "
            f"{len(result.best_f)} * {len(result.best_g)}"
        )
    report = is_weakly_cross_intersecting(fam_f, fam_g, ell, t)
    if not report.satisfied:
        rows, cols = report.witness
        return (
            f"F members {[result.best_f[r] for r in rows]} and G members "
            f"{[result.best_g[c] for c in cols]} have overlap total "
            f"{report.min_sum}, below the threshold {report.threshold}"
        )
    return None


def certify(result: SearchResult, pool: CandidatePool, ell: int, t: int) -> bool:
    """True iff ``certification_failure`` finds nothing wrong."""
    return certification_failure(result, pool, ell, t) is None
