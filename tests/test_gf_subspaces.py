import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossfam.exact_arith import gaussian_binomial
from crossfam.gf_subspaces import (
    EnumerationCapExceeded,
    FamilyFormatError,
    Subspace,
    SubspaceFamily,
    build_star,
    contains,
    dim_intersection,
    enumerate_subspaces,
    format_subspace_family,
    intersect_subspace,
    is_prime,
    parse_subspace_family,
    rref,
    sum_subspace,
)
from support import span_vectors


def random_matrix(rng, rows, cols, q):
    return [[rng.randrange(q) for _ in range(cols)] for _ in range(rows)]


def apply_random_row_ops(rng, matrix, q, ops=10):
    """Random invertible row operations: swaps, scalings, additions."""
    m = [list(r) for r in matrix]
    for _ in range(ops):
        kind = rng.randrange(3)
        i = rng.randrange(len(m))
        j = rng.randrange(len(m))
        if kind == 0 and i != j:
            m[i], m[j] = m[j], m[i]
        elif kind == 1:
            c = rng.randrange(1, q)
            m[i] = [(c * x) % q for x in m[i]]
        elif kind == 2 and i != j:
            c = rng.randrange(q)
            m[i] = [(a + c * b) % q for a, b in zip(m[i], m[j])]
    return m


class TestRref:
    def test_identity_is_fixed(self):
        eye = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        assert rref(eye, 2) == eye
        assert rref(eye, 5) == eye

    def test_hand_elimination(self):
        assert rref([(1, 1, 0), (0, 1, 1)], 2) == ((1, 0, 1), (0, 1, 1))

    def test_idempotent(self):
        rng = random.Random(3)
        for q in (2, 3, 5):
            for _ in range(25):
                m = random_matrix(rng, rng.randrange(1, 5), rng.randrange(1, 6), q)
                once = rref(m, q)
                assert rref(once, q) == once

    def test_row_equivalent_inputs_agree(self):
        rng = random.Random(4)
        for q in (2, 3, 5):
            for _ in range(25):
                m = random_matrix(rng, rng.randrange(1, 5), rng.randrange(2, 6), q)
                other = apply_random_row_ops(rng, m, q)
                assert rref(m, q) == rref(other, q)

    def test_drops_zero_rows(self):
        assert rref([(1, 1), (1, 1), (0, 0)], 2) == ((1, 1),)

    def test_nonprime_q_rejected(self):
        with pytest.raises(ValueError):
            rref([(1, 0)], 4)

    def test_bad_entries_rejected(self):
        with pytest.raises(ValueError):
            rref([(0, 3)], 3)
        with pytest.raises(ValueError):
            rref([(1, 0), (1,)], 2)

    def test_is_prime(self):
        assert [p for p in range(20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]


class TestSubspace:
    def test_canonical_enforced(self):
        with pytest.raises(ValueError):
            Subspace(3, 2, ((1, 1, 0), (0, 1, 1)))

    def test_from_vectors_canonicalizes(self):
        s = Subspace.from_vectors([(1, 1, 0), (0, 1, 1)], 3, 2)
        assert s.rows == ((1, 0, 1), (0, 1, 1))
        assert s.dim == 2

    def test_dependent_vectors_collapse(self):
        s = Subspace.from_vectors([(1, 0), (1, 0)], 2, 3)
        assert s.dim == 1

    def test_equality_is_structural(self):
        a = Subspace.from_vectors([(1, 1), (0, 1)], 2, 2)
        b = Subspace.from_vectors([(1, 0), (0, 1)], 2, 2)
        assert a == b and hash(a) == hash(b)

    def test_vectors_enumeration(self):
        s = Subspace.coordinate(3, 2, [0, 1])
        assert sorted(s.vectors()) == [
            (0, 0, 0),
            (0, 1, 0),
            (1, 0, 0),
            (1, 1, 0),
        ]


class TestEnumeration:
    def test_line_count_in_plane(self):
        fam = enumerate_subspaces(2, 1, 2)
        assert len(fam.members) == 3
        assert {s.rows for s in fam.members} == {((1, 0),), ((0, 1),), ((1, 1),)}

    def test_counts_match_gaussian_binomial(self):
        for q in (2, 3, 5):
            for n in range(0, 5):
                for k in range(0, n + 1):
                    fam = enumerate_subspaces(n, k, q)
                    assert len(fam.members) == gaussian_binomial(n, k, q)

    def test_zero_dim_layer(self):
        fam = enumerate_subspaces(3, 0, 3)
        assert len(fam.members) == 1
        assert fam.members[0].dim == 0

    def test_lexicographic_order(self):
        fam = enumerate_subspaces(4, 2, 2)
        rows = [s.rows for s in fam.members]
        assert rows == sorted(rows)

    def test_no_duplicates(self):
        fam = enumerate_subspaces(4, 2, 3)
        assert len({s.rows for s in fam.members}) == len(fam.members)

    def test_cap(self):
        with pytest.raises(EnumerationCapExceeded):
            enumerate_subspaces(4, 2, 2, cap=10)

    def test_nonprime_rejected(self):
        with pytest.raises(ValueError):
            enumerate_subspaces(3, 1, 4)


class TestIntersections:
    def test_self_intersection(self):
        s = Subspace.coordinate(4, 2, [0, 2])
        assert dim_intersection(s, s) == 2

    def test_complementary_coordinates(self):
        a = Subspace.coordinate(4, 2, [0, 1])
        b = Subspace.coordinate(4, 2, [2, 3])
        assert dim_intersection(a, b) == 0

    def test_ambient_mismatch(self):
        a = Subspace.coordinate(3, 2, [0])
        b = Subspace.coordinate(4, 2, [0])
        with pytest.raises(ValueError):
            dim_intersection(a, b)

    def test_against_vector_enumeration(self):
        rng = random.Random(11)
        for q, n in [(2, 3), (2, 4), (3, 3)]:
            layer2 = enumerate_subspaces(n, 2, q).members
            for _ in range(30):
                u = rng.choice(layer2)
                w = rng.choice(layer2)
                common = set(u.vectors()) & set(w.vectors())
                assert len(common) == q ** dim_intersection(u, w)

    def test_sum_with_self(self):
        s = Subspace.coordinate(4, 3, [1, 3])
        assert sum_subspace(s, s) == s

    def test_sum_of_axes(self):
        a = Subspace.coordinate(3, 2, [0])
        b = Subspace.coordinate(3, 2, [1])
        assert sum_subspace(a, b) == Subspace.coordinate(3, 2, [0, 1])

    def test_dimension_formula(self):
        rng = random.Random(12)
        layer = enumerate_subspaces(4, 2, 2).members
        for _ in range(100):
            u = rng.choice(layer)
            w = rng.choice(layer)
            assert (
                sum_subspace(u, w).dim + dim_intersection(u, w) == u.dim + w.dim
            )

    def test_intersect_subspace_consistent(self):
        rng = random.Random(13)
        for q, n in [(2, 4), (3, 3)]:
            layer = enumerate_subspaces(n, 2, q).members
            for _ in range(40):
                u = rng.choice(layer)
                w = rng.choice(layer)
                inter = intersect_subspace(u, w)
                assert inter.dim == dim_intersection(u, w)
                assert contains(u, inter) and contains(w, inter)

    def test_contains_trivia(self):
        u = Subspace.coordinate(4, 2, [0, 1])
        zero = Subspace.zero(4, 2)
        assert contains(u, zero)
        assert contains(u, u)
        assert not contains(u, Subspace.coordinate(4, 2, [2]))


class TestSubspacesOf:
    def test_lines_of_a_plane(self):
        from crossfam.gf_subspaces import subspaces_of

        plane = Subspace.coordinate(6, 2, [1, 4])
        lines = subspaces_of(plane, 1)
        assert len(lines) == gaussian_binomial(2, 1, 2) == 3
        assert all(contains(plane, line) for line in lines)
        assert len({line.rows for line in lines}) == 3

    def test_matches_layer_filtering(self):
        from crossfam.gf_subspaces import subspaces_of

        rng = random.Random(17)
        for q, n in [(2, 4), (3, 3)]:
            layer3 = enumerate_subspaces(n, min(3, n), q).members
            for _ in range(10):
                space = rng.choice(layer3)
                for t in range(0, space.dim + 1):
                    direct = {s.rows for s in subspaces_of(space, t)}
                    filtered = {
                        s.rows
                        for s in enumerate_subspaces(n, t, q).members
                        if contains(space, s)
                    }
                    assert direct == filtered

    def test_out_of_range_empty(self):
        from crossfam.gf_subspaces import subspaces_of

        s = Subspace.coordinate(4, 2, [0])
        assert subspaces_of(s, 2) == []


class TestStars:
    def test_star_through_axis(self):
        core = Subspace.coordinate(4, 2, [0])
        star = build_star(4, 2, 2, core)
        assert len(star.members) == 7 == gaussian_binomial(3, 1, 2)
        assert all(contains(s, core) for s in star.members)

    def test_star_of_full_dim_core(self):
        core = Subspace.coordinate(4, 2, [1, 2])
        star = build_star(4, 2, 2, core)
        assert star.members == (core,)

    def test_star_of_zero_core_is_layer(self):
        star = build_star(3, 1, 3, Subspace.zero(3, 3))
        assert len(star.members) == gaussian_binomial(3, 1, 3)

    def test_star_sizes_match_quotient_count(self):
        for q in (2, 3):
            for n in range(2, 5):
                for k in range(1, n + 1):
                    for tdim in range(0, k + 1):
                        core = Subspace.coordinate(n, q, list(range(tdim)))
                        star = build_star(n, k, q, core)
                        assert len(star.members) == gaussian_binomial(
                            n - tdim, k - tdim, q
                        )


class TestIntersectionCounts:
    def test_buckets_match_formula_small(self):
        from crossfam.exact_arith import count_subspaces_by_intersection

        for q in (2, 3):
            for n in range(1, 5):
                for kw in range(0, n + 1):
                    fixed = Subspace.coordinate(n, q, list(range(kw)))
                    for m in range(0, n + 1):
                        layer = enumerate_subspaces(n, m, q).members
                        for h in range(0, min(kw, m) + 1):
                            got = sum(
                                1 for s in layer if dim_intersection(s, fixed) == h
                            )
                            assert got == count_subspaces_by_intersection(
                                n, kw, m, h, q
                            )


class TestFamilyFile:
    def test_golden_enumeration_bytes(self):
        # enumeration order and the file format are both deterministic, so
        # the serialized layer is reproducible byte for byte
        text = format_subspace_family(enumerate_subspaces(2, 1, 2))
        assert text == "q=2 n=2\n\n0 1\n\n1 0\n\n1 1\n"

    def test_roundtrip(self):
        fam = enumerate_subspaces(3, 1, 2)
        text = format_subspace_family(fam)
        back = parse_subspace_family(text)
        assert back == fam

    def test_parse_canonicalizes(self):
        text = "q=2 n=3\n1 1 0\n0 1 1\n"
        fam = parse_subspace_family(text)
        assert fam.members[0].rows == ((1, 0, 1), (0, 1, 1))

    def test_duplicate_after_canonicalization_rejected(self):
        # the two blocks are different bases of the same plane
        text = "q=2 n=3\n1 1 0\n0 1 1\n\n1 0 1\n0 1 1\n"
        with pytest.raises(FamilyFormatError, match="duplicate"):
            parse_subspace_family(text)

    def test_bad_header(self):
        with pytest.raises(FamilyFormatError, match="header"):
            parse_subspace_family("n=3 q=2\n1 0 0\n")

    def test_nonprime_q(self):
        with pytest.raises(FamilyFormatError, match="prime"):
            parse_subspace_family("q=4 n=2\n1 0\n")

    def test_entry_out_of_range(self):
        with pytest.raises(FamilyFormatError, match="line 2"):
            parse_subspace_family("q=2 n=2\n1 2\n")

    def test_wrong_row_length(self):
        with pytest.raises(FamilyFormatError, match="line 4"):
            parse_subspace_family("q=2 n=3\n1 0 0\n\n1 0\n")

    def test_nonuniform_rejected(self):
        text = "q=2 n=3\n1 0 0\n\n1 0 0\n0 1 0\n"
        with pytest.raises(FamilyFormatError, match="uniform"):
            parse_subspace_family(text)

    def test_empty_file(self):
        with pytest.raises(FamilyFormatError, match="empty"):
            parse_subspace_family("\n\n")

    def test_family_validation(self):
        a = Subspace.coordinate(3, 2, [0])
        with pytest.raises(ValueError, match="distinct"):
            SubspaceFamily(3, 2, 1, (a, a))
        b = Subspace.coordinate(3, 2, [0, 1])
        with pytest.raises(ValueError, match="uniform"):
            SubspaceFamily(3, 2, 1, (a, b))


def in_rref(rows):
    """Reduced row echelon form by definition: nonzero rows, each leading
    with a 1 strictly right of the row above's, that column 0 in every other
    row."""
    leads = []
    for r in rows:
        nonzero = [c for c, x in enumerate(r) if x]
        if not nonzero or r[nonzero[0]] != 1:
            return False
        leads.append(nonzero[0])
    if leads != sorted(set(leads)):
        return False
    return all(
        rows[h][c] == 0 for i, c in enumerate(leads) for h in range(len(rows)) if h != i
    )


@st.composite
def matrices(draw, q, n=None, max_rows=4):
    """A list of rows over F_q, possibly empty, with zero and repeated rows
    drawn more often than chance would give them."""
    width = n if n is not None else draw(st.integers(min_value=1, max_value=5))
    entry = st.integers(min_value=0, max_value=q - 1)
    rows = draw(st.lists(st.lists(entry, min_size=width, max_size=width), max_size=max_rows))
    if rows and draw(st.booleans()):
        rows.append(draw(st.sampled_from([list(rows[0]), [0] * width])))
    return width, rows


class TestAgainstSpanOracle:
    """rref, dim_intersection, intersect_subspace and contains against the
    row spaces formed by span_vectors, which never eliminates."""

    @given(st.sampled_from([2, 3, 5]), st.data())
    @settings(max_examples=150, deadline=None)
    def test_rref_keeps_span_and_is_reduced(self, q, data):
        width, rows = data.draw(matrices(q))
        out = rref(rows, q)
        assert in_rref(out)
        assert span_vectors(out, q, width) == span_vectors(rows, q, width)
        assert rref(out, q) == out

    @given(st.sampled_from([2, 3, 5]), st.data())
    @settings(max_examples=150, deadline=None)
    def test_intersection_against_spans(self, q, data):
        width, a = data.draw(matrices(q))
        _, b = data.draw(matrices(q, n=width))
        self._check_pair(q, width, a, b)

    @given(st.sampled_from([2, 3, 5]), st.data())
    @settings(max_examples=40, deadline=None)
    def test_wide_rows(self, q, data):
        # n = 70, dim <= 3: packed F_2 rows are far wider than 64 bits
        width, a = data.draw(matrices(q, n=70, max_rows=2))
        _, b = data.draw(matrices(q, n=70, max_rows=2))
        if a and data.draw(st.booleans()):
            b = b[:2] + [a[0]]
        self._check_pair(q, width, a, b)

    @staticmethod
    def _check_pair(q, width, a, b):
        u = Subspace.from_vectors(a, width, q)
        w = Subspace.from_vectors(b, width, q)
        span_u, span_w = span_vectors(a, q, width), span_vectors(b, q, width)
        common = span_u & span_w
        assert q ** dim_intersection(u, w) == len(common)
        assert q ** dim_intersection(w, u) == len(common)
        inter = intersect_subspace(u, w)
        assert span_vectors(inter.rows, q, width) == common
        assert contains(u, w) == (span_w <= span_u)
        assert contains(w, u) == (span_u <= span_w)
        assert len(span_u) == q**u.dim and len(span_w) == q**w.dim

    def test_edge_cases(self):
        for q in (2, 3, 5):
            assert rref([], q) == ()
            assert rref([[0, 0, 0]], q) == ()
            assert rref([[0]], q) == ()
            assert rref([[1]], q) == ((1,),)
            assert rref([[q - 1], [1]], q) == ((1,),)
            assert rref([[1, 1], [1, 1], [1, 1]], q) == ((1, 1),)
            zero = Subspace.zero(3, q)
            line = Subspace.from_vectors([[0, 1, 1]], 3, q)
            assert dim_intersection(zero, line) == dim_intersection(line, zero) == 0
            assert intersect_subspace(line, zero) == zero
            assert contains(line, zero) and not contains(zero, line)
            one = Subspace.from_vectors([[q - 1]], 1, q)
            assert one.rows == ((1,),)
            assert dim_intersection(one, one) == 1

    def test_bool_entries_give_ints(self):
        out = rref([[True, False, True], [True, True, False]], 2)
        assert out == ((1, 0, 1), (0, 1, 1))
        assert all(type(x) is int for row in out for x in row)
        out = rref([[False, True], [True, True]], 3)
        assert out == ((1, 0), (0, 1))
        assert all(type(x) is int for row in out for x in row)
        s = Subspace.from_vectors([[True, True, False]], 3, 2)
        assert s.rows == ((1, 1, 0),) and type(s.rows[0][0]) is int


class TestCanonicalConstructor:
    @pytest.mark.parametrize(
        "n, q, rows, message",
        [
            (3, 3, ((2, 0, 0),), "reduced row echelon"),  # lead is not 1
            (3, 2, ((0, 1, 0), (1, 0, 0)), "reduced row echelon"),  # pivots unsorted
            (3, 2, ((0, 1, 0), (0, 1, 1)), "reduced row echelon"),  # pivot repeated
            (3, 2, ((1, 1, 0), (0, 1, 0)), "reduced row echelon"),  # nonzero above a pivot
            (3, 2, ((1, 0, 0), (1, 1, 0)), "reduced row echelon"),  # nonzero below a pivot
            (3, 5, ((1, 0, 4), (0, 0, 1)), "reduced row echelon"),  # above the last pivot
            (3, 2, ((1, 0, 0), (0, 0, 0)), "reduced row echelon"),  # zero row
            (3, 2, ((0, 0, 0),), "reduced row echelon"),  # zero row alone
            (0, 2, ((),), "reduced row echelon"),  # empty row
            (3, 2, [(1, 0, 0)], "reduced row echelon"),  # rows not a tuple
            (3, 2, ([1, 0, 0],), "reduced row echelon"),  # row not a tuple
            (3, 2, [], "reduced row echelon"),  # no rows, not a tuple
            (3, 3, ((1, 3, 0),), r"entries must be integers in \[0, 3\) \(got 3\)"),
            (3, 3, ((1, -1, 0),), r"entries must be integers in \[0, 3\) \(got -1\)"),
            (2, 2, ((1, 0.0),), r"entries must be integers in \[0, 2\) \(got 0.0\)"),
            (3, 2, ((1, 0),), "basis rows must have length n"),
            (3, 2, ((1, 0, 0), (0, 1, 0, 0)), "basis rows must have length n"),
            (3, 4, ((1, 0, 0),), "q must be prime"),
            (-1, 2, (), "ambient dimension must be >= 0"),
        ],
    )
    def test_rejects(self, n, q, rows, message):
        with pytest.raises(ValueError, match=message):
            Subspace(n, q, rows)

    @pytest.mark.parametrize(
        "n, q, rows",
        [
            (3, 2, ()),
            (0, 3, ()),
            (3, 3, ((1, 2, 0), (0, 0, 1))),
            (4, 5, ((0, 1, 0, 4), (0, 0, 1, 3))),
            (2, 2, ((True, False), (False, True))),
        ],
    )
    def test_accepts(self, n, q, rows):
        assert Subspace(n, q, rows).rows == rows

    @given(st.sampled_from([2, 3, 5]), st.data())
    @settings(max_examples=300, deadline=None)
    def test_structural_check_agrees_with_rref(self, q, data):
        width, rows = data.draw(matrices(q))
        # reduced matrices, some with one entry changed, are the interesting
        # inputs; raw random matrices are almost never canonical
        if data.draw(st.booleans()):
            rows = [list(r) for r in rref(rows, q)]
            if rows and data.draw(st.booleans()):
                i = data.draw(st.integers(min_value=0, max_value=len(rows) - 1))
                j = data.draw(st.integers(min_value=0, max_value=width - 1))
                rows[i][j] = data.draw(st.integers(min_value=0, max_value=q - 1))
        rows = tuple(tuple(r) for r in rows)
        try:
            Subspace(width, q, rows)
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == (rref(rows, q) == rows)
