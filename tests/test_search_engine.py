import random

import pytest

from crossfam.family_analysis import (
    SetFamily,
    is_weakly_cross_intersecting,
)
from crossfam.gf_subspaces import Subspace, build_star, enumerate_subspaces
from crossfam.search_engine import (
    CandidatePool,
    GuardExceeded,
    PoolTooLarge,
    SearchOptions,
    SearchResult,
    certify,
    max_product_bb,
    max_product_naive,
    star_lower_bound,
)


def brute_best_via_condition_checker(pool, ell, t):
    """Reference search: materialize every pair of candidate subsets and ask
    the condition checker directly.  Exponential; tiny pools only."""
    fcount = len(pool.candidates_f)
    gcount = len(pool.candidates_g)
    best = (0, (), ())
    for a in range(1 << fcount):
        f_idx = tuple(i for i in range(fcount) if a >> i & 1)
        fam_f = _family(pool, "f", f_idx)
        for b in range(1 << gcount):
            g_idx = tuple(j for j in range(gcount) if b >> j & 1)
            fam_g = _family(pool, "g", g_idx)
            if is_weakly_cross_intersecting(fam_f, fam_g, ell, t).satisfied:
                product = len(f_idx) * len(g_idx)
                cand = (product, f_idx, g_idx)
                if product > best[0] or (
                    product == best[0] and (cand[1], cand[2]) < (best[1], best[2])
                ):
                    best = cand
    return best


def _family(pool, side, indices):
    from crossfam.gf_subspaces import SubspaceFamily

    cands = pool.candidates_f if side == "f" else pool.candidates_g
    size = pool.k if side == "f" else pool.kp
    members = tuple(cands[i] for i in indices)
    if pool.kind == "sets":
        return SetFamily(pool.n, size, members)
    return SubspaceFamily(pool.n, pool.q, size, members)


class TestStarLowerBound:
    def test_set_values(self):
        assert star_lower_bound(4, 2, 2, 1) == 9
        assert star_lower_bound(5, 2, 2, 1) == 16

    def test_subspace_value(self):
        assert star_lower_bound(4, 2, 2, 1, q=2) == 49
        core = Subspace.coordinate(4, 2, [0])
        star = build_star(4, 2, 2, core)
        assert star_lower_bound(4, 2, 2, 1, q=2) == len(star.members) ** 2


class TestCandidatePool:
    def test_full_set_layer(self):
        pool = CandidatePool.full_set_layer(4, 2, 2)
        assert len(pool.candidates_f) == 6
        assert pool.candidates_f == pool.candidates_g

    def test_validation(self):
        with pytest.raises(ValueError, match="distinct"):
            CandidatePool("sets", 4, None, 2, 2, (3, 3), (3,))
        with pytest.raises(ValueError, match="masks"):
            CandidatePool("sets", 4, None, 2, 2, (7,), (3,))
        with pytest.raises(ValueError, match="need q"):
            CandidatePool("subspaces", 4, None, 2, 2, (), ())

    def test_full_subspace_layer(self):
        pool = CandidatePool.full_subspace_layer(4, 2, 2, 2)
        assert len(pool.candidates_f) == 35


class TestNaive:
    def test_cross_intersecting_max_n4(self):
        pool = CandidatePool.full_set_layer(4, 2, 2)
        result = max_product_naive(pool, 1, 1)
        assert result.best_product == 9
        assert result.optimal
        assert result.star_lower_bound == 9
        # witness is the star over element 1, first in candidate order
        assert result.best_f == (0, 1, 2) and result.best_g == (0, 1, 2)

    def test_empty_pool(self):
        pool = CandidatePool.from_candidates("sets", 4, 2, 2, (), ())
        result = max_product_naive(pool, 1, 1)
        assert result.best_product == 0
        assert result.best_f == () and result.best_g == ()

    def test_single_compatible_pair(self):
        pool = CandidatePool.from_candidates("sets", 5, 2, 2, (0b00011,), (0b00110,))
        result = max_product_naive(pool, 1, 1)
        assert result.best_product == 1

    def test_single_incompatible_pair(self):
        pool = CandidatePool.from_candidates("sets", 5, 2, 2, (0b00011,), (0b11000,))
        result = max_product_naive(pool, 1, 1)
        # either side alone still yields product 0; the pair is infeasible
        assert result.best_product == 0

    def test_guard(self):
        pool = CandidatePool.full_set_layer(5, 2, 2)
        with pytest.raises(GuardExceeded):
            max_product_naive(pool, 1, 1, guard=19)

    def test_matches_condition_checker_route(self):
        rng = random.Random(61)
        layer = CandidatePool.full_set_layer(4, 2, 2).candidates_f
        for _ in range(6):
            f_c = tuple(sorted(rng.sample(layer, rng.randrange(2, 6))))
            g_c = tuple(sorted(rng.sample(layer, rng.randrange(2, 6))))
            pool = CandidatePool.from_candidates("sets", 4, 2, 2, f_c, g_c)
            for ell in (1, 2):
                got = max_product_naive(pool, ell, 1)
                want = brute_best_via_condition_checker(pool, ell, 1)
                assert (got.best_product, got.best_f, got.best_g) == want

    def test_vacuous_pairs_count_as_feasible(self):
        # one side kept below ell: the condition is vacuous, so the whole
        # other side is usable
        layer = CandidatePool.full_set_layer(4, 2, 2).candidates_f
        pool = CandidatePool.from_candidates("sets", 4, 2, 2, layer, layer[:1])
        result = max_product_naive(pool, 2, 1)
        assert result.best_product == 6


class TestBranchAndBound:
    def test_cross_intersecting_max_n4_and_n5(self):
        for n, expected in ((4, 9), (5, 16)):
            pool = CandidatePool.full_set_layer(n, 2, 2)
            result = max_product_bb(pool, 1, 1)
            assert result.best_product == expected
            assert result.optimal
            assert certify(result, pool, 1, 1)

    def test_matches_naive_on_set_pools(self):
        for n in (2, 3, 4):
            pool = CandidatePool.full_set_layer(n, 2, 2)
            for ell in (1, 2):
                naive = max_product_naive(pool, ell, 1)
                bb = max_product_bb(pool, ell, 1)
                assert bb.best_product == naive.best_product
                assert certify(bb, pool, ell, 1)
                assert certify(naive, pool, ell, 1)

    def test_matches_naive_on_random_subspace_pools(self):
        rng = random.Random(62)
        layer = enumerate_subspaces(4, 2, 2).members
        for _ in range(8):
            f_c = tuple(rng.sample(layer, rng.randrange(3, 9)))
            g_c = tuple(rng.sample(layer, rng.randrange(3, 9)))
            pool = CandidatePool.from_candidates(
                "subspaces", 4, 2, 2, f_c, g_c, q=2
            )
            for ell in (1, 2):
                naive = max_product_naive(pool, ell, 1)
                bb = max_product_bb(pool, ell, 1)
                assert bb.best_product == naive.best_product
                assert certify(bb, pool, ell, 1)

    def test_budget_exhaustion_returns_lower_bound(self):
        pool = CandidatePool.full_set_layer(5, 2, 2)
        result = max_product_bb(pool, 1, 1, SearchOptions(max_nodes=3))
        assert not result.optimal
        assert result.best_product >= 16  # the star seed is already optimal here
        assert certify(result, pool, 1, 1)

    def test_star_seed_reaches_star_bound(self):
        core = Subspace.coordinate(4, 2, [0])
        star = build_star(4, 2, 2, core).members
        pool = CandidatePool.from_candidates("subspaces", 4, 2, 2, star, star, q=2)
        result = max_product_bb(pool, 1, 1)
        assert result.best_product >= result.star_lower_bound == 49
        assert certify(result, pool, 1, 1)

    def test_large_ambient_pool(self):
        # star seeding must scale with the pool, not the ambient space (the
        # 1-dim layer of F_2^20 has ~10^6 members and is never enumerated)
        rng = random.Random(63)
        n, q = 20, 2
        members = []
        seen = set()
        while len(members) < 8:
            vecs = [tuple(rng.randrange(2) for _ in range(n)) for _ in range(2)]
            s = Subspace.from_vectors(vecs, n, q)
            if s.dim == 2 and s.rows not in seen:
                seen.add(s.rows)
                members.append(s)
        pool = CandidatePool.from_candidates(
            "subspaces", n, 2, 2, tuple(members), tuple(members), q=q
        )
        for ell in (1, 2):
            bb = max_product_bb(pool, ell, 1)
            naive = max_product_naive(pool, ell, 1)
            assert bb.best_product == naive.best_product
            assert certify(bb, pool, ell, 1)

    def test_pool_side_limit(self):
        pool = CandidatePool.full_set_layer(5, 2, 2)
        with pytest.raises(PoolTooLarge):
            max_product_bb(pool, 1, 1, SearchOptions(max_pool_side=5))

    def test_deterministic(self):
        pool = CandidatePool.full_set_layer(4, 2, 2)
        a = max_product_bb(pool, 2, 1)
        b = max_product_bb(pool, 2, 1)
        assert a == b

    def test_symmetry_reduction_same_value(self):
        for n in (4, 5):
            pool = CandidatePool.full_set_layer(n, 2, 2)
            plain = max_product_bb(pool, 1, 1)
            reduced = max_product_bb(pool, 1, 1, SearchOptions(symmetry_reduction=True))
            assert plain.best_product == reduced.best_product
            assert certify(reduced, pool, 1, 1)

    def test_symmetry_requires_full_layers(self):
        layer = CandidatePool.full_set_layer(4, 2, 2).candidates_f
        pool = CandidatePool.from_candidates("sets", 4, 2, 2, layer[:4], layer[:4])
        with pytest.raises(ValueError, match="full layers"):
            max_product_bb(pool, 1, 1, SearchOptions(symmetry_reduction=True))


class TestCertify:
    def test_tampered_product(self):
        pool = CandidatePool.full_set_layer(4, 2, 2)
        result = max_product_bb(pool, 1, 1)
        tampered = SearchResult(
            result.best_product,
            result.best_f[:-1],
            result.best_g,
            result.nodes_explored,
            result.optimal,
            result.star_lower_bound,
        )
        assert not certify(tampered, pool, 1, 1)

    def test_violating_witness(self):
        pool = CandidatePool.full_set_layer(4, 2, 2)
        # {1,2} and {3,4} are disjoint: infeasible at t=1
        disjoint = SearchResult(1, (0,), (5,), 0, True, 9)
        assert pool.candidates_f[0] & pool.candidates_g[5] == 0
        assert not certify(disjoint, pool, 1, 1)

    def test_duplicate_indices(self):
        pool = CandidatePool.full_set_layer(4, 2, 2)
        broken = SearchResult(4, (0, 0), (1, 2), 0, True, 9)
        assert not certify(broken, pool, 1, 1)

    def test_set_pool_beyond_64_elements(self):
        members = (0b11, 0b101, 0b1001, 0b110, 0b110000, 1 | 1 << 69)
        pool = CandidatePool.from_candidates("sets", 70, 2, 2, members, members)
        bb = max_product_bb(pool, 1, 1)
        naive = max_product_naive(pool, 1, 1)
        assert bb.best_product == naive.best_product == 16
        assert certify(bb, pool, 1, 1)
        assert certify(naive, pool, 1, 1)
