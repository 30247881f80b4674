"""Prime-field linear algebra and exhaustive subspace enumeration.

A subspace of F_q^n is represented by its reduced row echelon basis, stored
as a tuple of row tuples.  RREF is the unique canonical representative of a
row space, so Subspace values compare and hash structurally; two values are
equal iff they are the same subspace.  Over F_2 elimination runs on rows
packed into ints, and each Subspace keeps its basis keyed by pivot (packed
for q = 2) once an intersection has asked for it.

Enumeration walks the RREF matrices directly (pivot-column pattern plus free
entries), producing every subspace exactly once, then sorts so the returned
order is the lexicographic order of canonical matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations, product
from typing import Iterable, Iterator, Sequence

from .exact_arith import gaussian_binomial

__all__ = [
    "DEFAULT_ENUMERATION_CAP",
    "EnumerationCapExceeded",
    "FamilyFormatError",
    "Subspace",
    "SubspaceFamily",
    "is_prime",
    "rref",
    "enumerate_subspaces",
    "dim_intersection",
    "intersect_subspace",
    "sum_subspace",
    "contains",
    "build_star",
    "parse_subspace_family",
    "format_subspace_family",
]

DEFAULT_ENUMERATION_CAP = 10**6


class EnumerationCapExceeded(RuntimeError):
    """Requested subspace layer is larger than the enumeration cap."""


class FamilyFormatError(ValueError):
    """Malformed family file; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def _read_header(lines: Sequence[str], keys: Sequence[str]) -> tuple[int, tuple[int, ...]]:
    """Read the first non-blank line as the header ``k1=<k1> k2=<k2> ...``
    with exactly ``keys`` in order; returns its 0-based index and the values."""
    expected = "expected header '" + " ".join(f"{key}=<{key}>" for key in keys) + "'"
    header_idx = next((idx for idx, raw in enumerate(lines) if raw.strip()), None)
    if header_idx is None:
        raise FamilyFormatError(f"empty file, {expected}")
    header = lines[header_idx].split()
    if len(header) != len(keys) or not all(
        token.startswith(f"{key}=") for token, key in zip(header, keys)
    ):
        raise FamilyFormatError(expected, line=header_idx + 1)
    try:
        values = tuple(int(token[len(key) + 1 :]) for token, key in zip(header, keys))
    except ValueError:
        raise FamilyFormatError("header values must be integers", line=header_idx + 1)
    return header_idx, values


def is_prime(q: int) -> bool:
    if q < 2:
        return False
    f = 2
    while f * f <= q:
        if q % f == 0:
            return False
        f += 1
    return True


def _require_prime(q: int) -> None:
    if not is_prime(q):
        raise ValueError(f"q must be prime (got {q}); prime powers are not supported")


def _check_entries(row: Sequence[int], q: int) -> None:
    for x in row:
        if not isinstance(x, int) or not 0 <= x < q:
            raise ValueError(f"entries must be integers in [0, {q}) (got {x!r})")


# --- packed rows over F_2 ---------------------------------------------------
#
# A row over F_2 is held as one int with a byte per column, column 0 in the
# most significant byte, so XOR adds two rows and bit_length names the
# leading column.  Packing and unpacking are single bytes conversions.


def _pack2(row: Sequence[int]) -> int:
    return int.from_bytes(bytes(row), "big")


def _rref2(packed: Iterable[int]) -> list[int]:
    """Reduced row echelon form of packed F_2 rows, in row order (leading
    column ascending, so bit_length descending), zero rows dropped."""
    table: dict[int, int] = {}  # bit_length of the leading 1 -> row
    for r in packed:
        while r:
            p = table.get(r.bit_length())
            if p is None:
                table[r.bit_length()] = r
                break
            r ^= p
    # clear each pivot from the rows above it, lowest pivot first, so the
    # rows used for clearing are already fully reduced
    out: list[int] = []
    for length in sorted(table):
        r = table[length]
        for p in out:
            if r >> (p.bit_length() - 1) & 1:
                r ^= p
        out.append(r)
    out.reverse()
    return out


def rref(matrix: Iterable[Sequence[int]], q: int) -> tuple[tuple[int, ...], ...]:
    """Reduced row echelon form over F_q: leading 1s, zeros above and below
    each pivot, pivot columns strictly increasing, zero rows dropped.

    Idempotent; row-equivalent inputs map to the identical output.
    """
    _require_prime(q)
    rows = [list(r) for r in matrix]
    if not rows:
        return ()
    width = len(rows[0])
    for r in rows:
        if len(r) != width:
            raise ValueError("rows must all have the same length")
        _check_entries(r, q)
    if q == 2:
        return tuple(tuple(r.to_bytes(width, "big")) for r in _rref2(map(_pack2, rows)))
    pivot = 0
    for col in range(width):
        src = next((r for r in range(pivot, len(rows)) if rows[r][col]), None)
        if src is None:
            continue
        rows[pivot], rows[src] = rows[src], rows[pivot]
        inv = pow(rows[pivot][col], -1, q)
        rows[pivot] = [(x * inv) % q for x in rows[pivot]]
        lead = rows[pivot]
        for r in range(len(rows)):
            if r != pivot and rows[r][col]:
                f = rows[r][col]
                rows[r] = [(a - f * b) % q for a, b in zip(rows[r], lead)]
        pivot += 1
        if pivot == len(rows):
            break
    return tuple(tuple(r) for r in rows[:pivot])


def _leading_column(row: Sequence[int]) -> int | None:
    return next((c for c, x in enumerate(row) if x), None)


def _is_rref(rows: Sequence[Sequence[int]]) -> bool:
    """Whether rows (entries already in [0, q)) are in reduced row echelon
    form: no zero rows, leading entries 1 in strictly increasing columns, and
    every other row 0 in each pivot column.  The rows below a pivot lead
    further right, so only the rows above it need looking at."""
    last = -1
    for i, r in enumerate(rows):
        lead = _leading_column(r)
        if lead is None or lead <= last or r[lead] != 1:
            return False
        if any(rows[h][lead] for h in range(i)):
            return False
        last = lead
    return True


@dataclass(frozen=True)
class Subspace:
    """A subspace of F_q^n held as its canonical RREF basis.

    ``rows`` may be empty (the zero subspace).  Construction checks that
    ``rows`` is a tuple of tuples in reduced row echelon form, so every live
    Subspace value is in canonical form.
    """

    n: int
    q: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"ambient dimension must be >= 0 (got {self.n})")
        _require_prime(self.q)
        for r in self.rows:
            if len(r) != self.n:
                raise ValueError("basis rows must have length n")
        for r in self.rows:
            _check_entries(r, self.q)
        if not (
            isinstance(self.rows, tuple)
            and all(isinstance(r, tuple) for r in self.rows)
            and _is_rref(self.rows)
        ):
            raise ValueError("basis is not in reduced row echelon form")

    @property
    def dim(self) -> int:
        return len(self.rows)

    @cached_property
    def _pivot_rows(self) -> dict:
        """The basis keyed by pivot, built on first use and kept on the
        instance: {bit_length: packed row} for q = 2, {pivot column: row} for
        odd q."""
        if self.q == 2:
            return {r.bit_length(): r for r in map(_pack2, self.rows)}
        return {_leading_column(r): r for r in self.rows}

    @classmethod
    def from_vectors(cls, vectors: Iterable[Sequence[int]], n: int, q: int) -> "Subspace":
        reduced = rref([tuple(v) for v in vectors], q)
        for r in reduced:
            if len(r) != n:
                raise ValueError("vectors must have length n")
        return cls(n, q, reduced)

    @classmethod
    def zero(cls, n: int, q: int) -> "Subspace":
        return cls(n, q, ())

    @classmethod
    def coordinate(cls, n: int, q: int, axes: Iterable[int]) -> "Subspace":
        """Span of the standard basis vectors e_i for i in ``axes`` (0-based)."""
        vecs = []
        for i in axes:
            v = [0] * n
            v[i] = 1
            vecs.append(v)
        return cls.from_vectors(vecs, n, q)

    def vectors(self) -> Iterator[tuple[int, ...]]:
        """All q^dim vectors of the subspace (small spaces only)."""
        for coeffs in product(range(self.q), repeat=self.dim):
            v = [0] * self.n
            for c, row in zip(coeffs, self.rows):
                if c:
                    v = [(a + c * b) % self.q for a, b in zip(v, row)]
            yield tuple(v)

    def __lt__(self, other: "Subspace") -> bool:
        return self.rows < other.rows


def _check_compatible(u: Subspace, w: Subspace) -> None:
    if u.n != w.n or u.q != w.q:
        raise ValueError(
            f"ambient mismatch: ({u.n}, q={u.q}) vs ({w.n}, q={w.q})"
        )


def dim_intersection(u: Subspace, w: Subspace) -> int:
    """dim(U ∩ W) = dim W - rank of W's basis reduced modulo U.

    Each row of W is reduced against U's pivots and then against the
    residues kept so far, at its leading entry, until that entry's column is
    a new pivot; the residues kept are independent modulo U."""
    _check_compatible(u, w)
    if u.q == 2:
        # U's pivot rows and the residues share one table
        table = dict(u._pivot_rows)
        for r in w._pivot_rows.values():
            while r:
                p = table.get(r.bit_length())
                if p is None:
                    table[r.bit_length()] = r
                    break
                r ^= p
        return w.dim - (len(table) - u.dim)
    q = u.q
    pivots = u._pivot_rows.items()
    residues: dict[int, list[int]] = {}  # leading column -> residue, lead 1
    for r in w.rows:
        # U is canonical, so one pass clears all of its pivot columns
        for c, p in pivots:
            f = r[c]
            if f:
                r = [(a - f * b) % q for a, b in zip(r, p)]
        lead = _leading_column(r)
        while lead is not None:
            p = residues.get(lead)
            if p is None:
                inv = pow(r[lead], -1, q)
                residues[lead] = [x * inv % q for x in r]
                break
            f = r[lead]
            r = [(a - f * b) % q for a, b in zip(r, p)]
            lead = _leading_column(r)
    return w.dim - len(residues)


def sum_subspace(u: Subspace, w: Subspace) -> Subspace:
    """Canonical form of U + W (row space of the stacked bases)."""
    _check_compatible(u, w)
    return Subspace(u.n, u.q, rref(u.rows + w.rows, u.q))


def intersect_subspace(u: Subspace, w: Subspace) -> Subspace:
    """Canonical form of U ∩ W via the block-matrix (Zassenhaus) method."""
    _check_compatible(u, w)
    n, q = u.n, u.q
    block = [r + r for r in u.rows]
    block += [r + (0,) * n for r in w.rows]
    # the reduced rows whose left half is zero span U ∩ W on the right, and
    # their right halves are already in reduced row echelon form
    inter = tuple(row[n:] for row in rref(block, q) if not any(row[:n]))
    return Subspace(n, q, inter)


def contains(u: Subspace, w: Subspace) -> bool:
    """True iff W is a subspace of U."""
    return dim_intersection(u, w) == w.dim


@dataclass(frozen=True)
class SubspaceFamily:
    """A family of distinct subspaces of common dimension k in F_q^n.

    Member order is significant: intersection matrices and search witnesses
    index into it.
    """

    n: int
    q: int
    k: int
    members: tuple[Subspace, ...]

    def __post_init__(self):
        for s in self.members:
            if s.n != self.n or s.q != self.q:
                raise ValueError("family members must share the ambient space")
            if s.dim != self.k:
                raise ValueError(
                    f"family must be uniform: expected dim {self.k}, got {s.dim}"
                )
        if len({s.rows for s in self.members}) != len(self.members):
            raise ValueError("family members must be distinct")

    def __len__(self) -> int:
        return len(self.members)

    @classmethod
    def from_members(cls, members: Iterable[Subspace]) -> "SubspaceFamily":
        ms = tuple(members)
        if not ms:
            raise ValueError("cannot infer ambient parameters from an empty family")
        return cls(ms[0].n, ms[0].q, ms[0].dim, ms)


def enumerate_subspaces(
    n: int, k: int, q: int, cap: int = DEFAULT_ENUMERATION_CAP
) -> SubspaceFamily:
    """All k-dimensional subspaces of F_q^n in lexicographic order of their
    canonical matrices.  Refuses layers larger than ``cap``."""
    _require_prime(q)
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n (got k={k}, n={n})")
    expected = gaussian_binomial(n, k, q)
    if expected > cap:
        raise EnumerationCapExceeded(
            f"layer has {expected} subspaces, above the cap of {cap}"
        )
    members = []
    for pivots in combinations(range(n), k):
        pivot_set = set(pivots)
        free = [
            (i, j)
            for i, c in enumerate(pivots)
            for j in range(c + 1, n)
            if j not in pivot_set
        ]
        for values in product(range(q), repeat=len(free)):
            rows = [[0] * n for _ in range(k)]
            for i, c in enumerate(pivots):
                rows[i][c] = 1
            for (i, j), v in zip(free, values):
                rows[i][j] = v
            members.append(Subspace(n, q, tuple(tuple(r) for r in rows)))
    members.sort(key=lambda s: s.rows)
    return SubspaceFamily(n, q, k, tuple(members))


@lru_cache(maxsize=64)
def _inner_layer(dim: int, t: int, q: int) -> tuple[Subspace, ...]:
    """The t-subspaces of F_q^dim, enumerated once per (dim, t, q) and shared
    by every ``subspaces_of`` call on a dim-dimensional space."""
    return enumerate_subspaces(dim, t, q).members


def subspaces_of(space: Subspace, t: int) -> list[Subspace]:
    """All t-dimensional subspaces of ``space``, as ambient Subspace values.

    Maps the basis rows of the t-subspaces of F_q^dim through the space's
    basis, so the cost depends on dim, never on the ambient n.  The product
    of two canonical matrices is canonical (restricted to the basis's pivot
    columns it is the small matrix, and it is 0 left of each pivot), so the
    mapped rows need no reduction.
    """
    if not 0 <= t <= space.dim:
        return []
    out = []
    for small in _inner_layer(space.dim, t, space.q):
        rows = []
        for coeffs in small.rows:
            vec = [0] * space.n
            for c, basis_row in zip(coeffs, space.rows):
                if c:
                    vec = [(a + c * b) % space.q for a, b in zip(vec, basis_row)]
            rows.append(tuple(vec))
        out.append(Subspace(space.n, space.q, tuple(rows)))
    return out


def build_star(
    n: int, k: int, q: int, core: Subspace, cap: int = DEFAULT_ENUMERATION_CAP
) -> SubspaceFamily:
    """All k-subspaces of F_q^n containing ``core``; size equals
    [n - dim core, k - dim core]_q."""
    if core.n != n or core.q != q:
        raise ValueError("core must live in the requested ambient space")
    if core.dim > k:
        raise ValueError(f"core dimension {core.dim} exceeds k={k}")
    layer = enumerate_subspaces(n, k, q, cap)
    members = tuple(s for s in layer.members if contains(s, core))
    return SubspaceFamily(n, q, k, members)


# --- family file format ---------------------------------------------------
#
# header line:  q=<q> n=<n>
# then one block per subspace: dim lines of n space-separated digits,
# blocks separated by blank lines.  Rows are canonicalized on read.


def parse_subspace_family(text: str) -> SubspaceFamily:
    lines = text.splitlines()
    header_idx, (q, n) = _read_header(lines, ("q", "n"))
    if not is_prime(q):
        raise FamilyFormatError(f"q must be prime (got {q})", line=header_idx + 1)
    if n < 1:
        raise FamilyFormatError(f"n must be >= 1 (got {n})", line=header_idx + 1)

    members: list[Subspace] = []
    seen: dict[tuple, int] = {}
    block: list[tuple[int, ...]] = []
    block_line = None

    def close_block(at_line: int) -> None:
        nonlocal block, block_line
        if not block:
            return
        sub = Subspace.from_vectors(block, n, q)
        if sub.rows in seen:
            raise FamilyFormatError(
                f"duplicate member (same subspace as block at line {seen[sub.rows]})",
                line=block_line,
            )
        seen[sub.rows] = block_line
        members.append(sub)
        block = []
        block_line = None

    for idx in range(header_idx + 1, len(lines)):
        raw = lines[idx]
        if not raw.strip():
            close_block(idx + 1)
            continue
        parts = raw.split()
        row = []
        for p in parts:
            try:
                v = int(p)
            except ValueError:
                raise FamilyFormatError(f"not an integer: {p!r}", line=idx + 1)
            if not 0 <= v < q:
                raise FamilyFormatError(
                    f"entry {v} out of range [0, {q})", line=idx + 1
                )
            row.append(v)
        if len(row) != n:
            raise FamilyFormatError(
                f"expected {n} entries per row, got {len(row)}", line=idx + 1
            )
        if not block:
            block_line = idx + 1
        block.append(tuple(row))
    close_block(len(lines) + 1)

    if not members:
        return SubspaceFamily(n, q, 0, ())
    dims = {s.dim for s in members}
    if len(dims) != 1:
        raise FamilyFormatError(
            f"family must be uniform; found dimensions {sorted(dims)}"
        )
    return SubspaceFamily(n, q, members[0].dim, tuple(members))


def format_subspace_family(family: SubspaceFamily) -> str:
    out = [f"q={family.q} n={family.n}"]
    for s in family.members:
        out.append("")
        for row in s.rows:
            out.append(" ".join(str(x) for x in row))
    return "\n".join(out) + "\n"
