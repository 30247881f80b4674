import random

import pytest

from crossfam.family_analysis import (
    SetFamily,
    is_weakly_cross_intersecting,
    member_overlap,
)
from crossfam.gf_subspaces import Subspace, build_star, enumerate_subspaces
from crossfam.search_engine import (
    CandidatePool,
    GuardExceeded,
    PoolTooLarge,
    SearchOptions,
    SearchResult,
    _best_star_pair,
    _weights,
    certification_failure,
    certify,
    max_product_bb,
    max_product_naive,
    star_lower_bound,
)
from support import brute_best_star_pair


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

    @pytest.mark.parametrize(
        "n,k,kp,message",
        [
            (0, 0, 0, r"n must be >= 1 \(got 0\)"),
            (3, 5, 1, r"need 0 <= k <= n \(got k=5, n=3\)"),
            (3, -1, 1, r"need 0 <= k <= n \(got k=-1, n=3\)"),
            (3, 2, 4, r"need 0 <= kp <= n \(got kp=4, n=3\)"),
        ],
    )
    def test_sizes_are_named(self, n, k, kp, message):
        with pytest.raises(ValueError, match=message):
            CandidatePool.full_set_layer(n, k, kp)
        with pytest.raises(ValueError, match=message):
            CandidatePool.full_subspace_layer(n, k, kp, 2)
        with pytest.raises(ValueError, match=message):
            CandidatePool("sets", n, None, k, kp, (), ())


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


# --- the branch-and-bound engine against fixed answers and the naive engine ---

# (kind, n, q, k, kp, ell, t, F size, G size, seed, budget, symmetry); sizes
# None mean the full layers, otherwise each side is a seeded sample of them
GOLDEN_BB_CASES = [
    ("sets", 6, None, 3, 3, 1, 1, 9, 9, 1, None, False),
    ("sets", 6, None, 3, 3, 1, 2, 10, 10, 2, None, False),
    ("sets", 7, None, 3, 3, 2, 1, 8, 8, 3, None, False),
    ("sets", 7, None, 3, 2, 2, 1, 8, 7, 4, None, False),
    ("sets", 6, None, 3, 3, 3, 1, 7, 7, 5, None, False),
    ("sets", 6, None, 3, 2, 1, 1, 10, 10, 6, None, False),
    ("sets", 7, None, 3, 3, 1, 1, 12, 12, 7, None, False),
    ("sets", 6, None, 3, 3, 2, 2, 8, 8, 8, None, False),
    ("sets", 7, None, 4, 3, 3, 2, 8, 8, 9, None, False),
    ("sets", 7, None, 3, 3, 1, 1, 12, 12, 10, 40, False),
    ("sets", 7, None, 3, 3, 2, 1, 9, 9, 11, 100, False),
    ("sets", 5, None, 2, 2, 3, 1, 8, 8, 12, None, False),
    ("sets", 5, None, 2, 2, 1, 1, None, None, 0, None, True),
    ("sets", 5, None, 3, 2, 1, 1, None, None, 0, None, True),
    ("sets", 4, None, 2, 2, 2, 1, None, None, 0, None, False),
    ("sets", 5, None, 2, 2, 2, 1, None, None, 0, None, True),
    ("sets", 6, None, 3, 3, 1, 2, None, None, 0, None, True),
    ("sets", 5, None, 2, 2, 1, 1, None, None, 0, 25, True),
    ("subspaces", 4, 2, 2, 2, 1, 1, 10, 10, 13, None, False),
    ("subspaces", 4, 2, 2, 2, 2, 1, 8, 8, 14, None, False),
    ("subspaces", 4, 2, 2, 1, 1, 1, 10, 10, 15, None, False),
    ("subspaces", 4, 2, 2, 2, 3, 1, 7, 7, 16, None, False),
    ("subspaces", 5, 2, 3, 3, 1, 2, 7, 7, 17, None, False),
    ("subspaces", 5, 2, 2, 2, 1, 1, 11, 11, 18, None, False),
    ("subspaces", 4, 2, 2, 3, 2, 1, 8, 8, 19, None, False),
    ("subspaces", 4, 2, 2, 2, 1, 1, 12, 12, 20, 30, False),
    ("subspaces", 3, 3, 2, 2, 1, 1, 9, 9, 21, None, False),
    ("subspaces", 3, 3, 2, 1, 2, 1, 7, 7, 22, None, False),
    ("subspaces", 4, 3, 2, 2, 2, 1, 7, 7, 23, None, False),
    ("subspaces", 4, 3, 2, 2, 1, 1, 10, 10, 24, None, False),
    ("subspaces", 4, 3, 2, 2, 1, 2, 8, 8, 25, None, False),
    ("subspaces", 3, 3, 2, 2, 2, 1, None, None, 0, None, False),
    ("subspaces", 3, 3, 2, 1, 1, 1, None, None, 0, None, False),
]

# (best_product, best_f, best_g, nodes_explored, optimal) for each case,
# recorded before the engine kept its state in bitmasks: the engine must
# walk the same search tree, node for node
GOLDEN_BB_RESULTS = [
    (56, (0, 1, 2, 3, 4, 6, 7), (0, 1, 2, 4, 5, 6, 7, 8), 47, True),
    (12, (2, 3, 4, 5), (3, 6, 8), 185, True),
    (49, (0, 1, 2, 3, 4, 5, 6), (0, 1, 2, 4, 5, 6, 7), 146, True),
    (25, (0, 1, 5, 6, 7), (0, 1, 3, 5, 6), 898, True),
    (49, (0, 1, 2, 3, 4, 5, 6), (0, 1, 2, 3, 4, 5, 6), 29, True),
    (35, (0, 2, 3, 6, 8), (0, 1, 3, 5, 7, 8, 9), 197, True),
    (50, (0, 1, 2, 3, 4, 6, 7, 8, 9, 11), (1, 2, 4, 6, 10), 708, True),
    (16, (2, 4, 5, 6), (3, 4, 6, 7), 4292, True),
    (28, (0, 1, 3, 4, 5, 6, 7), (0, 5, 6, 7), 3019, True),
    (36, (0, 3, 4, 5, 9, 11), (0, 5, 7, 8, 9, 10), 41, False),
    (72, (0, 1, 2, 3, 4, 5, 6, 7, 8), (0, 1, 2, 3, 5, 6, 7, 8), 78, True),
    (25, (0, 1, 3, 4, 5), (0, 1, 2, 4, 6), 3647, True),
    (16, (0, 1, 2, 3), (0, 1, 2, 3), 112, True),
    (25, (0, 1, 2, 3, 4), (0, 1, 2, 3, 4), 930, True),
    (16, (0, 1, 2, 3), (0, 1, 2, 3), 684, True),
    (16, (0, 1, 2, 3), (0, 1, 2, 3), 26767, True),
    (16, (0, 1, 2, 3), (0, 1, 2, 3), 736, True),
    (16, (0, 1, 2, 3), (0, 1, 2, 3), 26, False),
    (10, (2, 5), (0, 1, 2, 3, 8), 252, True),
    (15, (0, 3, 7), (0, 1, 2, 3, 6), 4834, True),
    (5, (2, 3, 7, 8, 9), (4,), 175, True),
    (18, (2, 5, 6), (0, 1, 2, 3, 4, 5), 3743, True),
    (4, (2, 3, 4, 5), (4,), 72, True),
    (10, (3, 5), (1, 2, 3, 4, 7), 252, True),
    (64, (0, 1, 2, 3, 4, 5, 6, 7), (0, 1, 2, 3, 4, 5, 6, 7), 33, True),
    (16, (2, 5, 8, 11), (3, 4, 5, 11), 31, False),
    (81, (0, 1, 2, 3, 4, 5, 6, 7, 8), (0, 1, 2, 3, 4, 5, 6, 7, 8), 37, True),
    (7, (0, 1, 2, 3, 4, 5, 6), (2,), 3315, True),
    (10, (4, 5), (2, 3, 4, 5, 6), 2935, True),
    (12, (1, 4, 5, 7), (1, 4, 7), 346, True),
    (1, (3,), (0,), 29, True),
    (169, tuple(range(13)), tuple(range(13)), 53, True),
    (4, (0, 1, 11, 12), (0,), 695, True),
]


def golden_pool(kind, n, q, k, kp, fsize, gsize, seed):
    if kind == "sets":
        full = CandidatePool.full_set_layer(n, k, kp)
    else:
        full = CandidatePool.full_subspace_layer(n, k, kp, q)
    if fsize is None:
        return full
    rng = random.Random(seed)
    return CandidatePool.from_candidates(
        kind, n, k, kp,
        rng.sample(full.candidates_f, fsize),
        rng.sample(full.candidates_g, gsize),
        q=q,
    )


@pytest.mark.parametrize(
    "case,expected",
    [
        pytest.param(case, expected, id="-".join(map(str, case)))
        for case, expected in zip(GOLDEN_BB_CASES, GOLDEN_BB_RESULTS)
    ],
)
def test_bb_golden_results(case, expected):
    kind, n, q, k, kp, ell, t, fsize, gsize, seed, budget, symmetry = case
    pool = golden_pool(kind, n, q, k, kp, fsize, gsize, seed)
    options = SearchOptions(max_nodes=budget, symmetry_reduction=symmetry)
    result = max_product_bb(pool, ell, t, options)
    got = (result.best_product, result.best_f, result.best_g, result.nodes_explored, result.optimal)
    assert got == expected
    assert certify(result, pool, ell, t)


# (kind, n, q, [(k, kp), ...]) sampled by the differential test
DIFFERENTIAL_SHAPES = [
    ("sets", 6, None, [(3, 3), (3, 2)]),
    ("subspaces", 4, 2, [(2, 2), (3, 2)]),
    ("subspaces", 4, 3, [(2, 2), (3, 2)]),
]


def test_bb_matches_naive_on_seeded_pools():
    rng = random.Random(64)
    for kind, n, q, sizes in DIFFERENTIAL_SHAPES:
        for k, kp in sizes:
            full = golden_pool(kind, n, q, k, kp, None, None, 0)
            for ell in (1, 2, 3):
                for t in (1, 2):
                    pool = CandidatePool.from_candidates(
                        kind, n, k, kp,
                        rng.sample(full.candidates_f, rng.randint(4, 7)),
                        rng.sample(full.candidates_g, rng.randint(4, 7)),
                        q=q,
                    )
                    naive = max_product_naive(pool, ell, t)
                    bb = max_product_bb(pool, ell, t)
                    assert bb.optimal
                    assert bb.best_product == naive.best_product
                    assert certify(bb, pool, ell, t)

                    # a budget below the full tree stops after budget + 1
                    # nodes with a certified, not yet optimal incumbent
                    budget = rng.randrange(1, bb.nodes_explored + 2)
                    cut = max_product_bb(pool, ell, t, SearchOptions(max_nodes=budget))
                    assert cut.optimal == (budget >= bb.nodes_explored)
                    assert cut.nodes_explored == min(budget + 1, bb.nodes_explored)
                    assert cut.best_product <= bb.best_product
                    assert certify(cut, pool, ell, t)


@pytest.mark.parametrize("n,k,kp", [(4, 2, 2), (5, 2, 2), (5, 3, 2), (4, 3, 3)])
@pytest.mark.parametrize("ell,t", [(1, 1), (2, 1), (1, 2)])
def test_bb_symmetry_matches_naive_on_full_layers(n, k, kp, ell, t):
    pool = CandidatePool.full_set_layer(n, k, kp)
    reduced = max_product_bb(pool, ell, t, SearchOptions(symmetry_reduction=True))
    assert reduced.optimal
    assert reduced.best_product == max_product_naive(pool, ell, t).best_product
    assert certify(reduced, pool, ell, t)


@pytest.mark.parametrize(
    "pool",
    [
        CandidatePool.full_subspace_layer(4, 2, 2, 2),
        CandidatePool.full_subspace_layer(3, 1, 1, 3),
        CandidatePool.full_set_layer(6, 3, 3),
        CandidatePool.full_subspace_layer(4, 1, 2, 2),
    ],
    ids=["gf2-shared", "gf3-shared", "sets-equal", "gf2-two-layers"],
)
def test_weights_match_every_pair(pool):
    expected = [
        [member_overlap(a, b) for b in pool.candidates_g] for a in pool.candidates_f
    ]
    assert _weights(pool) == expected


@pytest.mark.parametrize(
    "kind,n,q,k,kp,t",
    [
        ("sets", 6, None, 3, 3, 1),
        ("sets", 6, None, 3, 2, 2),
        ("sets", 5, None, 2, 2, 3),
        ("subspaces", 4, 2, 2, 2, 1),
        ("subspaces", 4, 2, 3, 2, 2),
        ("subspaces", 4, 3, 2, 2, 1),
        ("subspaces", 3, 3, 2, 1, 1),
    ],
)
def test_best_star_pair_matches_brute_force(kind, n, q, k, kp, t):
    rng = random.Random(65)
    full = golden_pool(kind, n, q, k, kp, None, None, 0)
    for _ in range(4):
        cands_f = rng.sample(full.candidates_f, rng.randint(3, 9))
        cands_g = rng.sample(full.candidates_g, rng.randint(3, 9))
        pool = CandidatePool.from_candidates(kind, n, k, kp, cands_f, cands_g, q=q)
        assert _best_star_pair(pool, t) == brute_best_star_pair(n, q, cands_f, cands_g, t)
    assert _best_star_pair(full, t) == brute_best_star_pair(
        n, q, full.candidates_f, full.candidates_g, t
    )


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

    def test_failure_reasons(self):
        pool = CandidatePool.full_set_layer(4, 2, 2)
        good = max_product_bb(pool, 1, 1)
        assert certification_failure(good, pool, 1, 1) is None
        cases = [
            (
                SearchResult(1, (0,), (5,), 0, True, 9),
                "F members [0] and G members [5] have overlap total 0, below the threshold 1",
            ),
            (
                SearchResult(4, (0, 0), (1, 2), 0, True, 9),
                "F witness [0, 0] is not a family: family members must be distinct",
            ),
            (
                SearchResult(1, (0,), (6,), 0, True, 9),
                "G witness [6] indexes outside the pool",
            ),
            (
                SearchResult(3, (0,), (1, 2), 0, True, 9),
                "best_product 3 differs from |F| * |G| = 1 * 2",
            ),
        ]
        for result, reason in cases:
            assert certification_failure(result, pool, 1, 1) == reason
            assert not certify(result, pool, 1, 1)
