"""Intersection structure of uniform families, for k-subsets of [n] and
k-subspaces of F_q^n alike.

Set families use width-n bitmasks (element e of [n] is bit e-1), subspace
families use canonical Subspace values; every operation that mixes the two
sides dispatches on the member kind.  The central object is the weighted
intersection matrix, and the central question is the minimum tuple sum: the
smallest total intersection weight over any choice of ell distinct members
from each side.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from operator import add
from typing import Iterable, Sequence, Union

from .exact_arith import binomial, condition_threshold, gaussian_binomial
from .gf_subspaces import (
    FamilyFormatError,
    Subspace,
    SubspaceFamily,
    _read_header,
    contains,
    dim_intersection,
    intersect_subspace,
)

__all__ = [
    "SetFamily",
    "IntersectionMatrix",
    "ConditionReport",
    "Sunflower",
    "OverlapPartition",
    "StarStructure",
    "KernelContainmentReport",
    "SunflowerNotFoundError",
    "member_overlap",
    "member_contains_core",
    "intersection_matrix",
    "min_tuple_sum",
    "is_weakly_cross_intersecting",
    "find_sunflowers",
    "classify_overlap",
    "extremal_structure",
    "verify_kernel_containment",
    "parse_set_family",
    "format_set_family",
]

Member = Union[int, Subspace]


class SunflowerNotFoundError(ValueError):
    """No sunflower with the required kernel size and petal count exists."""


@dataclass(frozen=True)
class SetFamily:
    """Distinct k-subsets of [n], each stored as a width-n bitmask."""

    n: int
    k: int
    members: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"universe size must be >= 1 (got {self.n})")
        if not 0 <= self.k <= self.n:
            raise ValueError(f"need 0 <= k <= n (got k={self.k}, n={self.n})")
        full = (1 << self.n) - 1
        for m in self.members:
            if not 0 <= m <= full:
                raise ValueError(f"member {m:#x} has bits outside the universe")
            if m.bit_count() != self.k:
                raise ValueError(
                    f"member {m:#x} has {m.bit_count()} elements, expected {self.k}"
                )
        if len(set(self.members)) != len(self.members):
            raise ValueError("family members must be distinct")

    def __len__(self) -> int:
        return len(self.members)

    @classmethod
    def from_element_sets(
        cls, element_sets: Iterable[Iterable[int]], n: int
    ) -> "SetFamily":
        """Build from 1-based element collections."""
        masks = []
        for es in element_sets:
            mask = 0
            for e in es:
                if not 1 <= e <= n:
                    raise ValueError(f"element {e} outside [1, {n}]")
                mask |= 1 << (e - 1)
            masks.append(mask)
        if not masks:
            raise ValueError("cannot infer uniformity from an empty family")
        return cls(n, masks[0].bit_count(), tuple(masks))


def mask_indices(mask: int) -> tuple[int, ...]:
    """0-based indices of the set bits of a mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def mask_elements(mask: int) -> tuple[int, ...]:
    """1-based elements of a bitmask, ascending."""
    return tuple(i + 1 for i in mask_indices(mask))


def mask_from_indices(indices: Iterable[int]) -> int:
    """The mask with bit i set for each 0-based index i."""
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def member_overlap(a: Member, b: Member) -> int:
    """|a ∩ b| for bitmasks, dim(a ∩ b) for subspaces."""
    if isinstance(a, int) and isinstance(b, int):
        return (a & b).bit_count()
    if isinstance(a, Subspace) and isinstance(b, Subspace):
        return dim_intersection(a, b)
    raise TypeError("cannot mix set and subspace members")


def member_contains_core(member: Member, core: Member) -> bool:
    if isinstance(member, int) and isinstance(core, int):
        return member & core == core
    if isinstance(member, Subspace) and isinstance(core, Subspace):
        return contains(member, core)
    raise TypeError("cannot mix set and subspace members")


def _exact_overlap(a: Member, b: Member) -> Member:
    """The actual intersection object (mask or canonical subspace)."""
    if isinstance(a, int):
        return a & b
    return intersect_subspace(a, b)


def _core_sort_key(core: Member):
    return core if isinstance(core, int) else core.rows


Family = Union[SetFamily, SubspaceFamily]


def _check_same_universe(f: Family, g: Family) -> None:
    if isinstance(f, SetFamily) and isinstance(g, SetFamily):
        if f.n != g.n:
            raise ValueError(f"universe mismatch: n={f.n} vs n={g.n}")
        return
    if isinstance(f, SubspaceFamily) and isinstance(g, SubspaceFamily):
        if f.n != g.n or f.q != g.q:
            raise ValueError(
                f"universe mismatch: (n={f.n}, q={f.q}) vs (n={g.n}, q={g.q})"
            )
        return
    raise ValueError("universe mismatch: one family is over sets, the other over subspaces")


@dataclass(frozen=True)
class IntersectionMatrix:
    """w[i][j] = overlap of the i-th member of F with the j-th member of G."""

    rows: int
    cols: int
    w: tuple[tuple[int, ...], ...]


def intersection_matrix(f: Family, g: Family) -> IntersectionMatrix:
    _check_same_universe(f, g)
    w = tuple(
        tuple(member_overlap(a, b) for b in g.members) for a in f.members
    )
    return IntersectionMatrix(len(f.members), len(g.members), w)


def min_tuple_sum(
    matrix: IntersectionMatrix, ell: int
) -> tuple[int, tuple[tuple[int, ...], tuple[int, ...]]]:
    """Exact minimum of sum_{i in S, j in T} w[i][j] over all ell-subsets S of
    rows and T of columns, with the minimizing (S, T) witness.

    The sum separates over the other side once the subset of the smaller side
    is fixed, so for each such subset the optimal complementary subset is the
    ell indices with the smallest restricted sums; picking them by (value,
    index) also yields the lexicographically smallest witness among
    minimizers.  The subsets are walked depth first in lexicographic order,
    each level adding one line to its parent's restricted sums.
    """
    if ell < 1:
        raise ValueError(f"ell must be >= 1 (got {ell})")
    if matrix.rows < ell or matrix.cols < ell:
        raise ValueError(
            f"ell={ell} exceeds matrix shape {matrix.rows}x{matrix.cols}"
        )
    by_cols = matrix.cols <= matrix.rows
    lines = list(zip(*matrix.w)) if by_cols else matrix.w
    count = len(lines)
    other = range(len(lines[0]))
    # best = (sum, S, T); the walked subsets ascend, so a later one with an
    # equal sum can only win when it is T (walking columns) and its S is less
    best: tuple[int, tuple[int, ...], tuple[int, ...]] | None = None

    def leaf(chosen: tuple[int, ...], sums: Sequence[int]) -> None:
        nonlocal best
        total = sum(sorted(sums)[:ell])
        if best is not None and (total > best[0] or (total == best[0] and not by_cols)):
            return
        picked = tuple(sorted(i for _, i in sorted(zip(sums, other))[:ell]))
        cand = (total, picked, chosen) if by_cols else (total, chosen, picked)
        if best is None or cand < best:
            best = cand

    def walk(start: int, chosen: tuple[int, ...], sums: Sequence[int]) -> None:
        last = len(chosen) + 1 == ell
        for j in range(start, count - ell + len(chosen) + 1):
            line_sums = list(map(add, sums, lines[j])) if chosen else lines[j]
            if last:
                leaf(chosen + (j,), line_sums)
            else:
                walk(j + 1, chosen + (j,), line_sums)

    walk(0, (), ())
    assert best is not None
    return best[0], (best[1], best[2])


@dataclass(frozen=True)
class ConditionReport:
    """Verdict of the weak cross intersection check.

    ``vacuous`` is set when either family has fewer than ell members, in which
    case the universally quantified condition holds with no witnesses and
    ``min_sum``/``witness`` are absent.
    """

    satisfied: bool
    vacuous: bool
    threshold: int
    min_sum: int | None
    witness: tuple[tuple[int, ...], tuple[int, ...]] | None

    def to_json_dict(self) -> dict:
        wit = None
        if self.witness is not None:
            wit = {"rows": list(self.witness[0]), "cols": list(self.witness[1])}
        return {
            "satisfied": self.satisfied,
            "vacuous": self.vacuous,
            "threshold": self.threshold,
            "min_sum": self.min_sum,
            "witness": wit,
        }


def is_weakly_cross_intersecting(
    f: Family, g: Family, ell: int, t: int, want_witness: bool = False
) -> ConditionReport:
    """Check that every choice of ell distinct members from each side has
    total pairwise overlap at least ell^2 t - ell + 1.

    The witness is attached whenever the condition fails, and on request when
    it holds.
    """
    threshold = condition_threshold(ell, t)
    if len(f.members) < ell or len(g.members) < ell:
        return ConditionReport(True, True, threshold, None, None)
    matrix = intersection_matrix(f, g)
    min_sum, witness = min_tuple_sum(matrix, ell)
    satisfied = min_sum >= threshold
    keep = witness if (not satisfied or want_witness) else None
    return ConditionReport(satisfied, False, threshold, min_sum, keep)


@dataclass(frozen=True)
class Sunflower:
    """Members (by index) whose pairwise intersections all equal ``kernel``."""

    kernel: Member
    petals: tuple[int, ...]

    @property
    def petal_count(self) -> int:
        return len(self.petals)


def _maximal_cliques(vertices: Sequence[int], adj: dict[int, set[int]]) -> list[list[int]]:
    """Bron-Kerbosch with pivoting; returns every maximal clique."""
    cliques: list[list[int]] = []

    def expand(r: list[int], p: set[int], x: set[int]) -> None:
        if not p and not x:
            cliques.append(sorted(r))
            return
        pivot = max(sorted(p | x), key=lambda v: len(adj[v] & p))
        for v in sorted(p - adj[pivot]):
            expand(r + [v], p & adj[v], x & adj[v])
            p.remove(v)
            x.add(v)

    expand([], set(vertices), set())
    return cliques


def find_sunflowers(f: Family, t: int, u: int) -> list[Sunflower]:
    """All maximal sunflowers in ``f`` with kernel size/dimension exactly t
    and at least u petals.

    Candidate kernels are the pairwise intersections of weight exactly t; for
    each kernel the petals are a maximal clique in the graph whose edges are
    'intersects exactly in the kernel'.
    """
    if u < 2:
        raise ValueError(f"u must be >= 2 (got {u})")
    k = f.k
    if not 0 <= t < k:
        raise ValueError(f"kernel size must satisfy 0 <= t < k (got t={t}, k={k})")
    members = f.members
    kernels: dict = {}
    meet_in_t: set[tuple[int, int]] = set()
    for i, j in combinations(range(len(members)), 2):
        if member_overlap(members[i], members[j]) == t:
            meet_in_t.add((i, j))
            kernel = _exact_overlap(members[i], members[j])
            kernels[_core_sort_key(kernel)] = kernel
    out: list[Sunflower] = []
    for key in sorted(kernels):
        kernel = kernels[key]
        holders = [
            idx
            for idx, m in enumerate(members)
            if member_contains_core(m, kernel)
        ]
        # two holders both contain the t-kernel, so they meet exactly in it
        # iff their overlap is t
        adj: dict[int, set[int]] = {v: set() for v in holders}
        for a, b in combinations(holders, 2):
            if (a, b) in meet_in_t:
                adj[a].add(b)
                adj[b].add(a)
        for clique in _maximal_cliques(holders, adj):
            if len(clique) >= u:
                out.append(Sunflower(kernel, tuple(clique)))
    out.sort(key=lambda s: (_core_sort_key(s.kernel), s.petals))
    return out


@dataclass(frozen=True)
class OverlapPartition:
    """Index classification of a family against ell probe members at level t:

    below      -- every overlap is at most t - 1
    single_hit -- exactly one overlap equals t, the rest are below
    multi_hit  -- no overlap exceeds t and at least two equal t
    above      -- some overlap is at least t + 1
    """

    below: tuple[int, ...]
    single_hit: tuple[int, ...]
    multi_hit: tuple[int, ...]
    above: tuple[int, ...]


def classify_overlap(
    f: Family, probes: Sequence[Member], t: int
) -> OverlapPartition:
    """Partition the members of ``f`` by their overlap pattern with the probe
    tuple.  The four classes are disjoint and cover the family."""
    if not probes:
        raise ValueError("probe tuple must be nonempty")
    keys = set()
    for p in probes:
        key = _core_sort_key(p)
        if key in keys:
            raise ValueError("probe members must be distinct")
        keys.add(key)
    below, single_hit, multi_hit, above = [], [], [], []
    for idx, m in enumerate(f.members):
        overlaps = [member_overlap(m, p) for p in probes]
        peak = max(overlaps)
        if peak <= t - 1:
            below.append(idx)
        elif peak >= t + 1:
            above.append(idx)
        elif overlaps.count(t) == 1:
            single_hit.append(idx)
        else:
            multi_hit.append(idx)
    return OverlapPartition(
        tuple(below), tuple(single_hit), tuple(multi_hit), tuple(above)
    )


@dataclass(frozen=True)
class StarStructure:
    """Common core of a family, with the full-star size comparison."""

    core: Member
    core_size: int
    full_star: bool
    expected_star_size: int


def extremal_structure(f: Family) -> StarStructure | None:
    """Intersection of all members and whether the family is the complete
    star over it.  Returns None when the common core is empty/zero."""
    if not f.members:
        raise ValueError("family must be nonempty")
    if isinstance(f, SetFamily):
        core = f.members[0]
        for m in f.members[1:]:
            core &= m
        size = core.bit_count()
        if size == 0:
            return None
        expected = binomial(f.n - size, f.k - size)
    else:
        core = f.members[0]
        for m in f.members[1:]:
            core = intersect_subspace(core, m)
        size = core.dim
        if size == 0:
            return None
        expected = gaussian_binomial(f.n - size, f.k - size, f.q)
    return StarStructure(core, size, len(f.members) == expected, expected)


@dataclass(frozen=True)
class KernelCheck:
    kernel: Member
    petal_count: int
    violating: tuple[int, ...]


@dataclass(frozen=True)
class KernelContainmentReport:
    """Outcome of checking that every member of G contains the kernel of a
    large sunflower found in F."""

    required_petals: int
    checks: tuple[KernelCheck, ...]
    all_contain: bool
    condition: ConditionReport


def verify_kernel_containment(
    f: Family, g: Family, ell: int, t: int
) -> KernelContainmentReport:
    """Find the sunflowers of F with kernel size t and at least
    (1 + k')ell petals (sets) or ([k',1]_q + 1)ell petals (subspaces), then
    confirm every member of G contains each kernel.

    Meaningful on pairs that satisfy the weak cross intersection condition;
    the recomputed condition verdict is included in the report.
    """
    if isinstance(g, SetFamily):
        required = (1 + g.k) * ell
    else:
        required = (gaussian_binomial(g.k, 1, g.q) + 1) * ell
    flowers = find_sunflowers(f, t, required)
    if not flowers:
        raise SunflowerNotFoundError(
            f"no sunflower with kernel size {t} and at least {required} petals"
        )
    condition = is_weakly_cross_intersecting(f, g, ell, t)
    checks = []
    for flower in flowers:
        violating = tuple(
            j
            for j, m in enumerate(g.members)
            if not member_contains_core(m, flower.kernel)
        )
        checks.append(KernelCheck(flower.kernel, flower.petal_count, violating))
    all_contain = all(not c.violating for c in checks)
    return KernelContainmentReport(required, tuple(checks), all_contain, condition)


# --- family file format ---------------------------------------------------
#
# header line:  n=<n> k=<k>
# then one member per line as comma-separated 1-based elements, e.g. 1,3,5


def parse_set_family(text: str) -> SetFamily:
    lines = text.splitlines()
    header_idx, (n, k) = _read_header(lines, ("n", "k"))
    if n < 1:
        raise FamilyFormatError(f"n must be >= 1 (got {n})", line=header_idx + 1)
    if not 1 <= k <= n:
        raise FamilyFormatError(f"k must be in [1, {n}] (got {k})", line=header_idx + 1)
    masks: list[int] = []
    seen: dict[int, int] = {}
    for idx in range(header_idx + 1, len(lines)):
        raw = lines[idx].strip()
        if not raw:
            continue
        mask = 0
        for part in raw.split(","):
            part = part.strip()
            try:
                e = int(part)
            except ValueError:
                raise FamilyFormatError(f"not an integer: {part!r}", line=idx + 1)
            if not 1 <= e <= n:
                raise FamilyFormatError(
                    f"element {e} outside [1, {n}]", line=idx + 1
                )
            bit = 1 << (e - 1)
            if mask & bit:
                raise FamilyFormatError(f"repeated element {e}", line=idx + 1)
            mask |= bit
        if mask.bit_count() != k:
            raise FamilyFormatError(
                f"member has {mask.bit_count()} elements, expected {k}", line=idx + 1
            )
        if mask in seen:
            raise FamilyFormatError(
                f"duplicate member (same set as line {seen[mask]})", line=idx + 1
            )
        seen[mask] = idx + 1
        masks.append(mask)
    return SetFamily(n, k, tuple(masks))


def format_set_family(family: SetFamily) -> str:
    out = [f"n={family.n} k={family.k}"]
    for m in family.members:
        out.append(",".join(str(e) for e in mask_elements(m)))
    return "\n".join(out) + "\n"
