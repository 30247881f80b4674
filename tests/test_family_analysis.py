import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossfam.exact_arith import binomial
from crossfam.family_analysis import (
    IntersectionMatrix,
    SetFamily,
    Sunflower,
    SunflowerNotFoundError,
    classify_overlap,
    extremal_structure,
    find_sunflowers,
    format_set_family,
    intersection_matrix,
    is_weakly_cross_intersecting,
    mask_elements,
    member_overlap,
    min_tuple_sum,
    parse_set_family,
    verify_kernel_containment,
)
from crossfam.gf_subspaces import (
    FamilyFormatError,
    Subspace,
    SubspaceFamily,
    build_star,
    enumerate_subspaces,
)
from support import (
    brute_min_tuple_sum,
    span_vectors,
    masks_from_sets,
    random_uniform_set_family,
    sunflower_set_instance,
    sunflower_subspace_instance,
)


class TestSetFamily:
    def test_validation(self):
        with pytest.raises(ValueError, match="distinct"):
            SetFamily(4, 2, (0b0011, 0b0011))
        with pytest.raises(ValueError, match="elements"):
            SetFamily(4, 2, (0b0111,))
        with pytest.raises(ValueError, match="universe"):
            SetFamily(3, 2, (0b1001,))
        with pytest.raises(ValueError, match="universe size"):
            SetFamily(0, 0, ())

    def test_from_element_sets(self):
        fam = SetFamily.from_element_sets([[1, 2], [2, 4]], 4)
        assert fam.members == (0b0011, 0b1010)
        assert fam.k == 2

    def test_mask_elements(self):
        assert mask_elements(0b1010) == (2, 4)


class TestIntersectionMatrix:
    def test_single_member_self(self):
        fam = SetFamily.from_element_sets([[1, 2, 3]], 6)
        m = intersection_matrix(fam, fam)
        assert m.w == ((3,),)

    def test_disjoint_supports(self):
        f = SetFamily.from_element_sets([[1, 2]], 6)
        g = SetFamily.from_element_sets([[3, 4], [5, 6]], 6)
        assert intersection_matrix(f, g).w == ((0, 0),)

    def test_matches_elementwise_recount(self):
        rng = random.Random(21)
        for _ in range(30):
            n = rng.randrange(3, 9)
            k = rng.randrange(1, n)
            kp = rng.randrange(1, n)
            f = random_uniform_set_family(rng, n, k, rng.randrange(1, 5))
            g = random_uniform_set_family(rng, n, kp, rng.randrange(1, 5))
            m = intersection_matrix(f, g)
            for i, a in enumerate(f.members):
                for j, b in enumerate(g.members):
                    ea = set(mask_elements(a))
                    eb = set(mask_elements(b))
                    assert m.w[i][j] == len(ea & eb)

    def test_universe_mismatch(self):
        f = SetFamily.from_element_sets([[1, 2]], 4)
        g = SetFamily.from_element_sets([[1, 2]], 5)
        with pytest.raises(ValueError, match="mismatch"):
            intersection_matrix(f, g)
        sub = SubspaceFamily.from_members([Subspace.coordinate(4, 2, [0, 1])])
        with pytest.raises(ValueError, match="mismatch"):
            intersection_matrix(f, sub)

    def test_subspace_entries(self):
        star = build_star(4, 2, 2, Subspace.coordinate(4, 2, [0]))
        m = intersection_matrix(star, star)
        assert all(w >= 1 for row in m.w for w in row)
        assert all(m.w[i][i] == 2 for i in range(len(star.members)))


class TestMinTupleSum:
    def test_all_ones(self):
        m = IntersectionMatrix(3, 3, ((1, 1, 1),) * 3)
        assert min_tuple_sum(m, 2) == (4, ((0, 1), (0, 1)))

    def test_diagonal_l1(self):
        m = IntersectionMatrix(2, 2, ((1, 0), (0, 1)))
        assert min_tuple_sum(m, 1)[0] == 0

    def test_ell_too_large(self):
        m = IntersectionMatrix(2, 2, ((1, 0), (0, 1)))
        with pytest.raises(ValueError):
            min_tuple_sum(m, 3)

    def test_matches_brute_force(self):
        rng = random.Random(22)
        for _ in range(120):
            rows = rng.randrange(1, 8)
            cols = rng.randrange(1, 8)
            w = tuple(
                tuple(rng.randrange(5) for _ in range(cols)) for _ in range(rows)
            )
            m = IntersectionMatrix(rows, cols, w)
            for ell in (1, 2, 3):
                if ell > min(rows, cols):
                    continue
                assert min_tuple_sum(m, ell) == brute_min_tuple_sum(w, ell)

    def test_ties_on_both_walks(self):
        # few distinct values, so many (S, T) share the minimum; wide and tall
        # shapes walk columns and rows respectively
        rng = random.Random(24)
        for _ in range(150):
            rows, cols = rng.randrange(1, 9), rng.randrange(1, 9)
            w = tuple(tuple(rng.randrange(2) for _ in range(cols)) for _ in range(rows))
            m = IntersectionMatrix(rows, cols, w)
            for ell in range(1, min(rows, cols, 4) + 1):
                assert min_tuple_sum(m, ell) == brute_min_tuple_sum(w, ell)

    @given(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=4), min_size=4, max_size=4),
            min_size=4,
            max_size=4,
        ),
        st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force_hypothesis(self, rows, ell):
        w = tuple(tuple(r) for r in rows)
        m = IntersectionMatrix(4, 4, w)
        assert min_tuple_sum(m, ell) == brute_min_tuple_sum(w, ell)


class TestCondition:
    def test_star_pair_always_satisfied(self):
        for n, k, kp, t in [(6, 3, 2, 1), (7, 3, 3, 2)]:
            core = (1 << t) - 1
            f = SetFamily(
                n,
                k,
                tuple(
                    core | m
                    for m in _masks_avoiding(n, k - t, t)
                ),
            )
            g = SetFamily(
                n,
                kp,
                tuple(core | m for m in _masks_avoiding(n, kp - t, t)),
            )
            for ell in (1, 2, 3):
                report = is_weakly_cross_intersecting(f, g, ell, t)
                assert report.satisfied

    def test_l1_reduces_to_pairwise(self):
        rng = random.Random(23)
        for _ in range(80):
            n = rng.randrange(2, 9)
            k = rng.randrange(1, n + 1)
            kp = rng.randrange(1, n + 1)
            t = rng.randrange(1, 3)
            f = random_uniform_set_family(rng, n, k, rng.randrange(1, 5))
            g = random_uniform_set_family(rng, n, kp, rng.randrange(1, 5))
            direct = all(
                member_overlap(a, b) >= t for a in f.members for b in g.members
            )
            assert is_weakly_cross_intersecting(f, g, 1, t).satisfied == direct

    def test_vacuous_small_sides(self):
        f = SetFamily.from_element_sets([[1, 2]], 5)
        g = SetFamily.from_element_sets([[3, 4]], 5)
        report = is_weakly_cross_intersecting(f, g, 2, 1)
        assert report.vacuous and report.satisfied
        assert report.min_sum is None and report.witness is None

    def test_witness_on_failure(self):
        f = SetFamily.from_element_sets([[1, 2], [3, 4]], 6)
        g = SetFamily.from_element_sets([[5, 6], [1, 3]], 6)
        report = is_weakly_cross_intersecting(f, g, 1, 1)
        assert not report.satisfied
        rows, cols = report.witness
        i, j = rows[0], cols[0]
        assert member_overlap(f.members[i], g.members[j]) == report.min_sum == 0

    def test_witness_recomputes_to_min_sum(self):
        rng = random.Random(24)
        for _ in range(40):
            n = rng.randrange(4, 9)
            f = random_uniform_set_family(rng, n, 2, rng.randrange(2, 6))
            g = random_uniform_set_family(rng, n, 2, rng.randrange(2, 6))
            report = is_weakly_cross_intersecting(f, g, 2, 1, want_witness=True)
            if report.vacuous:
                continue
            rows, cols = report.witness
            total = sum(
                member_overlap(f.members[i], g.members[j]) for i in rows for j in cols
            )
            assert total == report.min_sum

    def test_monotone_under_removal(self):
        rng = random.Random(25)
        kept = 0
        for _ in range(60):
            n = rng.randrange(4, 9)
            f = random_uniform_set_family(rng, n, 2, rng.randrange(3, 7))
            g = random_uniform_set_family(rng, n, 2, rng.randrange(3, 7))
            ell = rng.randrange(1, 3)
            if not is_weakly_cross_intersecting(f, g, ell, 1).satisfied:
                continue
            kept += 1
            f2 = SetFamily(n, 2, f.members[: len(f.members) - 1])
            g2 = SetFamily(n, 2, g.members[1:])
            assert is_weakly_cross_intersecting(f2, g2, ell, 1).satisfied
        assert kept > 0

    def test_sunflower_refutation_instance(self):
        # 2-uniform sunflower with 6 petals over [7]; a partner family with a
        # member missing the kernel cannot satisfy the condition at ell=2
        f = SetFamily.from_element_sets(
            [[1, 2], [1, 3], [1, 4], [1, 5], [1, 6], [1, 7]], 7
        )
        g = SetFamily.from_element_sets([[2, 3], [1, 2]], 7)
        assert not is_weakly_cross_intersecting(f, g, 2, 1).satisfied

    def test_report_json_shape(self):
        f = SetFamily.from_element_sets([[1, 2], [1, 3]], 5)
        report = is_weakly_cross_intersecting(f, f, 2, 1, want_witness=True)
        d = report.to_json_dict()
        assert set(d) == {"satisfied", "vacuous", "threshold", "min_sum", "witness"}
        assert d["witness"] == {"rows": [0, 1], "cols": [0, 1]}


def _masks_avoiding(n, size, skip_low_bits):
    """All size-subsets of [n] avoiding the lowest skip_low_bits elements."""
    pool = range(skip_low_bits, n)
    out = []
    for combo in combinations(pool, size):
        mask = 0
        for e in combo:
            mask |= 1 << e
        out.append(mask)
    return out


class TestSunflowers:
    def test_constructed_sunflower(self):
        fam, kernel = sunflower_set_instance(random.Random(31), n=9, petals=6)
        flowers = find_sunflowers(fam, 1, 2)
        assert len(flowers) == 1
        assert flowers[0].kernel == 1 << (kernel - 1)
        assert flowers[0].petals == tuple(range(6))

    def test_matches_exhaustive_subfamily_check(self):
        # all k-subsets of a (k+1)-set with t = k-1: every pair is a
        # sunflower, no triple is (three 3-subsets of [4] pairwise meet in
        # different 2-sets)
        k = 3
        fam = SetFamily.from_element_sets(list(combinations(range(1, 5), k)), 4)
        flowers = find_sunflowers(fam, k - 1, 2)
        brute = self._brute_maximal_sunflowers(fam, k - 1, 2)
        got = {(f.kernel, f.petals) for f in flowers}
        assert got == brute

    def test_matches_exhaustive_on_random_families(self):
        rng = random.Random(32)
        for _ in range(25):
            n = rng.randrange(4, 8)
            k = rng.randrange(2, 4)
            if k >= n:
                continue
            fam = random_uniform_set_family(rng, n, k, rng.randrange(3, 9))
            for t in range(1, k):
                flowers = find_sunflowers(fam, t, 2)
                got = {(f.kernel, f.petals) for f in flowers}
                assert got == self._brute_maximal_sunflowers(fam, t, 2)

    @staticmethod
    def _brute_maximal_sunflowers(fam, t, u):
        found = set()
        members = fam.members
        for size in range(u, len(members) + 1):
            for idxs in combinations(range(len(members)), size):
                inters = {
                    members[i] & members[j] for i, j in combinations(idxs, 2)
                }
                if len(inters) == 1:
                    kernel = inters.pop()
                    if kernel.bit_count() == t:
                        found.add((kernel, idxs))
        return {
            (kernel, petals)
            for kernel, petals in found
            if not any(
                k2 == kernel and set(petals) < set(p2) for k2, p2 in found
            )
        }

    @pytest.mark.parametrize("q, n, k, seed", [(2, 4, 2, 35), (2, 5, 3, 36), (3, 4, 2, 37)])
    def test_subspace_sunflowers_match_exhaustive(self, q, n, k, seed):
        # kernels and petal sets from the vectors of the members, with no
        # crossfam elimination: a petal set is a sunflower when every pair
        # shares the same q^t vectors
        rng = random.Random(seed)
        layer = enumerate_subspaces(n, k, q).members
        for _ in range(4):
            members = rng.sample(layer, rng.randrange(3, 8))
            fam = SubspaceFamily(n, q, k, tuple(members))
            points = [frozenset(span_vectors(m.rows, q)) for m in members]
            for t in range(k):
                found = set()
                for size in range(2, len(members) + 1):
                    for idxs in combinations(range(len(members)), size):
                        inters = {points[i] & points[j] for i, j in combinations(idxs, 2)}
                        if len(inters) == 1 and len(next(iter(inters))) == q**t:
                            found.add((inters.pop(), idxs))
                brute = {
                    (kernel, petals)
                    for kernel, petals in found
                    if not any(k2 == kernel and set(petals) < set(p2) for k2, p2 in found)
                }
                got = {
                    (frozenset(span_vectors(f.kernel.rows, q, n)), f.petals)
                    for f in find_sunflowers(fam, t, 2)
                }
                assert got == brute

    def test_validation(self):
        fam = SetFamily.from_element_sets([[1, 2], [1, 3]], 4)
        with pytest.raises(ValueError):
            find_sunflowers(fam, 2, 2)
        with pytest.raises(ValueError):
            find_sunflowers(fam, 1, 1)

    def test_subspace_sunflower_detected(self):
        fam, kernel = sunflower_subspace_instance(random.Random(33), n=6, petals=4)
        flowers = find_sunflowers(fam, 1, 4)
        assert len(flowers) == 1
        assert flowers[0].kernel == kernel
        assert flowers[0].petal_count == 4

    def test_returned_sunflowers_recheck(self):
        rng = random.Random(34)
        for _ in range(15):
            fam = random_uniform_set_family(rng, 7, 3, rng.randrange(4, 10))
            for t in (1, 2):
                for flower in find_sunflowers(fam, t, 2):
                    pairs = combinations(flower.petals, 2)
                    assert all(
                        fam.members[i] & fam.members[j] == flower.kernel
                        for i, j in pairs
                    )


class TestOverlapPartition:
    def test_trivial_cases(self):
        fam = SetFamily.from_element_sets([[3, 4], [1, 3], [1, 2]], 6)
        probes = masks_from_sets([[1, 2], [1, 5]], 6)
        part = classify_overlap(fam, probes, 1)
        # [3,4] misses both probes; [1,3] meets both in exactly {1};
        # [1,2] meets probe 0 in two elements
        assert part.below == (0,)
        assert part.multi_hit == (1,)
        assert part.above == (2,)
        assert part.single_hit == ()

    def test_single_hit(self):
        fam = SetFamily.from_element_sets([[1, 3]], 6)
        probes = masks_from_sets([[1, 2], [4, 5]], 6)
        part = classify_overlap(fam, probes, 1)
        assert part.single_hit == (0,)

    def test_partition_total_and_disjoint(self):
        rng = random.Random(41)
        for _ in range(50):
            n = rng.randrange(4, 10)
            k = rng.randrange(1, n)
            fam = random_uniform_set_family(rng, n, k, rng.randrange(1, 8))
            ell = rng.randrange(1, 4)
            probe_fam = random_uniform_set_family(rng, n, min(k, n - 1) or 1, ell)
            t = rng.randrange(1, 3)
            part = classify_overlap(fam, probe_fam.members, t)
            groups = [part.below, part.single_hit, part.multi_hit, part.above]
            flat = [i for g in groups for i in g]
            assert sorted(flat) == list(range(len(fam.members)))
            assert len(set(flat)) == len(flat)

    def test_distinct_probes_required(self):
        fam = SetFamily.from_element_sets([[1, 2]], 4)
        with pytest.raises(ValueError, match="distinct"):
            classify_overlap(fam, [0b0011, 0b0011], 1)


class TestExtremalStructure:
    def test_full_star(self):
        members = [0b1 | m for m in _masks_avoiding(5, 1, 1)]
        fam = SetFamily(5, 2, tuple(members))
        info = extremal_structure(fam)
        assert info.core == 0b1
        assert info.full_star
        assert info.expected_star_size == binomial(4, 1)

    def test_star_minus_one(self):
        members = [0b1 | m for m in _masks_avoiding(5, 1, 1)]
        fam = SetFamily(5, 2, tuple(members[:-1]))
        info = extremal_structure(fam)
        assert info.core == 0b1
        assert not info.full_star

    def test_empty_core_absent(self):
        fam = SetFamily.from_element_sets([[1, 2], [3, 4]], 4)
        assert extremal_structure(fam) is None

    def test_subspace_star(self):
        star = build_star(4, 2, 2, Subspace.coordinate(4, 2, [0]))
        info = extremal_structure(star)
        assert info.core == Subspace.coordinate(4, 2, [0])
        assert info.full_star and info.expected_star_size == 7

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError):
            extremal_structure(SetFamily(4, 2, ()))


class TestKernelContainment:
    def test_substar_partner_contains_kernel(self):
        f = SetFamily.from_element_sets(
            [[1, 2], [1, 3], [1, 4], [1, 5], [1, 6], [1, 7]], 7
        )
        g = SetFamily.from_element_sets([[1, 2], [1, 5]], 7)
        report = verify_kernel_containment(f, g, 2, 1)
        assert report.required_petals == 6
        assert report.all_contain
        assert report.condition.satisfied
        assert all(not c.violating for c in report.checks)

    def test_violating_member_is_reported_and_condition_fails(self):
        f = SetFamily.from_element_sets(
            [[1, 2], [1, 3], [1, 4], [1, 5], [1, 6], [1, 7]], 7
        )
        g = SetFamily.from_element_sets([[2, 3], [1, 5]], 7)
        report = verify_kernel_containment(f, g, 2, 1)
        assert not report.all_contain
        assert report.checks[0].violating == (0,)
        assert not report.condition.satisfied

    def test_no_qualifying_sunflower(self):
        f = SetFamily.from_element_sets([[1, 2], [1, 3]], 7)
        g = SetFamily.from_element_sets([[1, 2]], 7)
        with pytest.raises(SunflowerNotFoundError):
            verify_kernel_containment(f, g, 2, 1)

    def test_subspace_instance(self):
        fam, kernel = sunflower_subspace_instance(random.Random(42), n=9, petals=8)
        g_members = []
        seen = set()
        rng = random.Random(43)
        while len(g_members) < 2:
            p = tuple(rng.randrange(2) for _ in range(9))
            cand = Subspace.from_vectors([kernel.rows[0], p], 9, 2)
            if cand.dim == 2 and cand.rows not in seen:
                seen.add(cand.rows)
                g_members.append(cand)
        g = SubspaceFamily(9, 2, 2, tuple(g_members))
        report = verify_kernel_containment(fam, g, 2, 1)
        assert report.required_petals == 8
        assert report.all_contain and report.condition.satisfied


class TestSetFamilyFile:
    def test_roundtrip(self):
        fam = SetFamily.from_element_sets([[1, 3, 5], [2, 4, 6]], 7)
        assert parse_set_family(format_set_family(fam)) == fam

    def test_roundtrip_beyond_64_elements(self):
        fam = SetFamily.from_element_sets([[1, 70], [2, 65], [64, 69]], 70)
        text = format_set_family(fam)
        assert text.splitlines()[1:] == ["1,70", "2,65", "64,69"]
        assert parse_set_family(text) == fam

    def test_header_errors(self):
        with pytest.raises(FamilyFormatError, match="header"):
            parse_set_family("k=2 n=4\n1,2\n")
        with pytest.raises(FamilyFormatError, match="empty"):
            parse_set_family("")
        with pytest.raises(FamilyFormatError, match=r"line 1: n must be >= 1 \(got 0\)"):
            parse_set_family("n=0 k=1\n")

    def test_malformed_line_number(self):
        with pytest.raises(FamilyFormatError, match="line 3"):
            parse_set_family("n=5 k=2\n1,2\n1,x\n")

    def test_element_out_of_range(self):
        with pytest.raises(FamilyFormatError, match="line 2"):
            parse_set_family("n=5 k=2\n1,6\n")

    def test_wrong_uniformity(self):
        with pytest.raises(FamilyFormatError, match="expected 2"):
            parse_set_family("n=5 k=2\n1,2,3\n")

    def test_duplicate_member(self):
        with pytest.raises(FamilyFormatError, match="duplicate"):
            parse_set_family("n=5 k=2\n1,2\n2,1\n")

    def test_repeated_element(self):
        with pytest.raises(FamilyFormatError, match="repeated"):
            parse_set_family("n=5 k=2\n1,1\n")
