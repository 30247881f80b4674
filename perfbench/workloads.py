"""Seeded job lists for the four workloads, each job with its answer check.

A round is one job list: the shapes (command, universe, n, q, k, k', ell,
t, sizes) are fixed per workload so that rounds cost about the same, and the
seed only picks the members.  Every check recomputes what it needs with the
reference code in ``gfp`` and raises ``Mismatch`` on a wrong answer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Callable

import gfp


class Mismatch(Exception):
    """The program's exit code or answer differs from the expected one."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise Mismatch(message)


@dataclass
class Job:
    argv: list[str]
    check: Callable[[int, str], None]


class Round:
    """Files and jobs of one round; file paths are relative to the checkout
    root so that report bodies do not depend on where it lives."""

    def __init__(self, rng, directory: Path, root: Path):
        self.rng = rng
        self.directory = directory
        self.root = root
        self.files: list[tuple[str, str]] = []
        self.jobs: list[Job] = []
        directory.mkdir(parents=True, exist_ok=True)

    def write(self, stem: str, text: str) -> str:
        path = self.directory / f"{len(self.files):03d}-{stem}.txt"
        path.write_text(text)
        rel = path.relative_to(self.root).as_posix()
        self.files.append((rel, text))
        return rel

    def add(self, argv, check) -> None:
        self.jobs.append(Job([str(a) for a in argv], check))


# --- families ----------------------------------------------------------------


@dataclass
class Fam:
    """A uniform family: set members are masks, subspace members canonical
    bases over F_q (q is None for sets)."""

    n: int
    k: int
    q: int | None
    members: list

    @property
    def kind(self) -> str:
        return "sets" if self.q is None else "subspaces"

    def text(self) -> str:
        if self.q is None:
            lines = [f"n={self.n} k={self.k}"]
            lines += [",".join(str(e + 1) for e in gfp.elements(m)) for m in self.members]
        else:
            lines = [f"q={self.q} n={self.n}"]
            for basis in self.members:
                lines.append("")
                lines += [" ".join(map(str, row)) for row in basis]
        return "\n".join(lines) + "\n"

    def overlap(self, a, b) -> int:
        if self.q is None:
            return (a & b).bit_count()
        return gfp.meet_dim(a, b, self.q)

    def holds(self, member, core) -> bool:
        if self.q is None:
            return member & core == core
        return gfp.holds_core(member, core, self.q)

    def size(self, member) -> int:
        return member.bit_count() if self.q is None else len(member)

    def random_member(self, rng, k: int | None = None):
        k = self.k if k is None else k
        if self.q is None:
            return gfp.random_set(rng, self.n, k)
        return gfp.random_subspace(rng, self.n, k, self.q)

    def render(self, core):
        """A kernel as the sunflower report prints it."""
        if self.q is None:
            return [e + 1 for e in gfp.elements(core)]
        return [list(row) for row in core]


def _fill(fam: Fam, rng, count: int, draw) -> Fam:
    seen = set(fam.members)
    while len(fam.members) < count:
        m = draw()
        if m not in seen:
            seen.add(m)
            fam.members.append(m)
    return fam


class Frame:
    """Disjoint blocks of a random coordinate frame.  A set frame is a random
    ordering of the ground set; a subspace frame is a random basis of F_q^n.
    Members built in disjoint blocks meet only in what they share outside
    them."""

    def __init__(self, rng, n: int, q: int | None):
        self.rng = rng
        self.q = q
        self.vectors = list(range(n)) if q is None else gfp.random_frame(rng, n, q)
        if q is None:
            rng.shuffle(self.vectors)
        self.used = 0

    def take(self, size: int) -> list:
        block = self.vectors[self.used : self.used + size]
        if len(block) != size:
            raise ValueError("frame too small for the planted structure")
        self.used += size
        return block

    def take_choices(self, d: int, count: int) -> list:
        """The smallest block holding ``count`` distinct d-members."""
        size = d
        while (
            gfp.pascal(size, d) if self.q is None else gfp.q_pascal(size, d, self.q)
        ) < count:
            size += 1
        return self.take(size)

    def inside(self, block: list, d: int):
        """A random d-member inside the span of ``block``."""
        if self.q is None:
            return sum(1 << e for e in self.rng.sample(block, d))
        n = len(block[0])
        while True:
            vecs = []
            for _ in range(d):
                coeffs = [self.rng.randrange(self.q) for _ in block]
                vecs.append(
                    tuple(sum(c * b[i] for c, b in zip(coeffs, block)) % self.q for i in range(n))
                )
            basis = gfp.rref(vecs, self.q)
            if len(basis) == d:
                return basis

    def span(self, block: list):
        if self.q is None:
            return sum(1 << e for e in block)
        return gfp.rref(block, self.q)

    def join(self, core: list, member):
        """The span of a core block and a member."""
        if self.q is None:
            return self.span(core) | member
        return gfp.rref(core + list(member), self.q)


def _star_draw(fam: Fam, frame: Frame, core: list, rng):
    """Draws random members of the star over the span of ``core``."""

    def draw():
        while True:
            member = frame.join(core, fam.random_member(rng, fam.k - len(core)))
            if fam.size(member) == fam.k:
                return member

    return draw


def star_pair(rng, n, q, k, kp, ell, t, mf, mg):
    """F and G drawn from stars over one t-core, with a planted ell x ell
    block whose cross overlaps are exactly t, so min_sum = ell^2 t."""
    frame = Frame(rng, n, q)
    core = frame.take(t)
    fams = []
    for size, count in ((k, mf), (kp, mg)):
        block = frame.take_choices(size - t, ell)
        fam = Fam(n, size, q, [])
        _fill(fam, rng, ell, lambda: frame.join(core, frame.inside(block, size - t)))
        _fill(fam, rng, count, _star_draw(fam, frame, core, rng))
        rng.shuffle(fam.members)
        fams.append(fam)
    return fams[0], fams[1]


def violating_pair(rng, n, q, k, kp, ell, mf, mg):
    """Uniformly random F and G with a planted ell x ell block whose cross
    overlaps are all 0, so the condition fails with min_sum = 0."""
    frame = Frame(rng, n, q)
    fams = []
    for size, count in ((k, mf), (kp, mg)):
        block = frame.take_choices(size, ell)
        fam = Fam(n, size, q, [])
        _fill(fam, rng, ell, lambda: frame.inside(block, size))
        _fill(fam, rng, count, lambda: fam.random_member(rng))
        rng.shuffle(fam.members)
        fams.append(fam)
    return fams[0], fams[1]


def sunflower_family(rng, n, q, k, t, u, m, star: bool):
    """A family with a planted sunflower of u petals around a t-kernel; the
    other members come from the star over the kernel or from the whole
    layer.  Returns the family, the kernel and the planted members."""
    frame = Frame(rng, n, q)
    kernel = frame.take(t)
    fam = Fam(n, k, q, [])
    for _ in range(u):
        fam.members.append(frame.join(kernel, frame.inside(frame.take(k - t), k - t)))
    planted = list(fam.members)
    draw = _star_draw(fam, frame, kernel, rng) if star else (lambda: fam.random_member(rng))
    _fill(fam, rng, m, draw)
    rng.shuffle(fam.members)
    return fam, frame.span(kernel), planted


# --- checks --------------------------------------------------------------------


def _document(code: int, out: str, want_code: int) -> dict:
    expect(code == want_code, f"exit code {code}, expected {want_code}")
    return json.loads(out)


def _feasible(fam_f: Fam, fam_g: Fam, f_sel: list, g_sel: list, ell: int, t: int) -> bool:
    if len(f_sel) < ell or len(g_sel) < ell:
        return True
    w = {(a, b): fam_f.overlap(a, b) for a in f_sel for b in g_sel}
    threshold = gfp.condition_threshold(ell, t)
    for s in combinations(f_sel, ell):
        for tt in combinations(g_sel, ell):
            if sum(w[a, b] for a in s for b in tt) < threshold:
                return False
    return True


def _set_star_bound(fam_f: Fam, fam_g: Fam, t: int) -> int:
    """Best product of two sub-stars over a common t-core inside the pool."""
    best = 0
    cores = {
        sum(1 << e for e in combo)
        for m in fam_f.members
        for combo in combinations(gfp.elements(m), t)
    }
    for core in cores:
        f = sum(1 for m in fam_f.members if m & core == core)
        g = sum(1 for m in fam_g.members if m & core == core)
        best = max(best, f * g)
    return best


def check_search(fam_f: Fam, fam_g: Fam, ell: int, t: int, shared: dict, naive: bool):
    def check(code: int, out: str) -> None:
        doc = _document(code, out, 0)
        result = doc["result"]
        expect(doc["certified"] is True, "result not certified")
        expect(result["optimal"] is True, "search did not finish")
        f_idx, g_idx = result["best_F"], result["best_G"]
        for idx, fam in ((f_idx, fam_f), (g_idx, fam_g)):
            expect(len(set(idx)) == len(idx), "repeated witness index")
            expect(all(0 <= i < len(fam.members) for i in idx), "witness index out of range")
        expect(result["best_product"] == len(f_idx) * len(g_idx), "product != |F| * |G|")
        f_sel = [fam_f.members[i] for i in f_idx]
        g_sel = [fam_g.members[i] for i in g_idx]
        expect(_feasible(fam_f, fam_g, f_sel, g_sel, ell, t), "witness violates the condition")
        if fam_f.q is None:
            expect(
                result["best_product"] >= _set_star_bound(fam_f, fam_g, t),
                "product below a star pair inside the pool",
            )
        if naive:
            expect(
                result["best_product"] == shared["product"],
                f"naive {result['best_product']} != branch-and-bound {shared['product']}",
            )
        else:
            shared["product"] = result["best_product"]

    return check


def check_condition_holds(ell: int, t: int):
    def check(code: int, out: str) -> None:
        report = _document(code, out, 0)["report"]
        expect(report["satisfied"] is True and report["vacuous"] is False, "star pair rejected")
        expect(report["threshold"] == gfp.condition_threshold(ell, t), "wrong threshold")
        expect(report["min_sum"] == ell * ell * t, f"min_sum {report['min_sum']} != {ell * ell * t}")

    return check


def check_condition_fails(fam_f: Fam, fam_g: Fam, ell: int, t: int):
    def check(code: int, out: str) -> None:
        report = _document(code, out, 1)["report"]
        expect(report["satisfied"] is False, "planted violation not found")
        rows, cols = report["witness"]["rows"], report["witness"]["cols"]
        expect(len(set(rows)) == ell and len(set(cols)) == ell, "witness is not ell x ell")
        total = sum(fam_f.overlap(fam_f.members[i], fam_g.members[j]) for i in rows for j in cols)
        expect(total == report["min_sum"], f"witness sums to {total}, report says {report['min_sum']}")
        expect(total == 0, f"min_sum {total} above the planted block's 0")
        expect(report["threshold"] == gfp.condition_threshold(ell, t), "wrong threshold")

    return check


def check_input_error(code: int, out: str) -> None:
    expect(code == 2, f"exit code {code}, expected 2")
    expect(out == "", "report printed for a malformed input")


def check_sunflowers(fam: Fam, t: int, u: int, kernel, planted: list):
    def check(code: int, out: str) -> None:
        flowers = _document(code, out, 0)["sunflowers"]
        members = fam.members
        meet: dict = {}

        def exact(a: int, b: int, core) -> bool:
            key = (min(a, b), max(a, b))
            if key not in meet:
                meet[key] = fam.overlap(members[a], members[b])
            return meet[key] == t and fam.holds(members[a], core)

        planted_idx = {members.index(p) for p in planted}
        found = False
        for flower in flowers:
            petals = flower["petals"]
            expect(flower["petal_count"] == len(petals) >= u, "petal count below u")
            if fam.q is None:
                core = sum(1 << (e - 1) for e in flower["kernel"])
                expect(core.bit_count() == t, "kernel has the wrong size")
            else:
                core = tuple(tuple(r) for r in flower["kernel"])
                expect(len(core) == t and gfp.rref(core, fam.q) == core, "kernel not canonical")
            holders = [i for i in range(len(members)) if fam.holds(members[i], core)]
            expect(set(petals) <= set(holders), "petal misses the kernel")
            for a, b in combinations(petals, 2):
                expect(exact(a, b, core), "petals meet outside the kernel")
            for c in set(holders) - set(petals):
                expect(
                    not all(exact(c, p, core) for p in petals), "sunflower is not maximal"
                )
            if flower["kernel"] == fam.render(kernel) and planted_idx <= set(petals):
                found = True
        expect(found, "planted sunflower not reported")

    return check


# --- search ----------------------------------------------------------------------

# Pool sizes are drawn per round from a range, so that job times spread over
# a continuum instead of a few clusters: a percentile that falls between two
# clusters moves with every small change to either one.
# (universe, n, q, k, kp, ell, t, pool size range, also run --naive, G = F)
SEARCH_POOLS = [
    ("sets", 7, None, 3, 3, 1, 1, (10, 13), False, False),
    ("sets", 7, None, 3, 3, 1, 1, (6, 8), True, False),
    ("sets", 7, None, 3, 3, 2, 1, (8, 10), False, True),
    ("sets", 7, None, 3, 3, 2, 1, (6, 8), True, False),
    ("sets", 7, None, 3, 2, 2, 1, (7, 9), False, False),
    ("sets", 6, None, 3, 2, 2, 1, (6, 8), True, False),
    ("sets", 7, None, 3, 3, 3, 1, (7, 9), False, False),
    ("sets", 7, None, 3, 3, 3, 1, (6, 8), True, False),
    ("sets", 7, None, 3, 3, 1, 2, (10, 14), False, True),
    ("sets", 6, None, 3, 3, 2, 2, (6, 8), True, False),
    ("sets", 6, None, 3, 2, 1, 1, (10, 13), False, False),
    ("subspaces", 4, 2, 2, 2, 1, 1, (9, 13), False, False),
    ("subspaces", 4, 2, 2, 2, 2, 1, (7, 9), False, False),
    ("subspaces", 4, 2, 2, 2, 2, 1, (6, 8), True, False),
    ("subspaces", 4, 2, 2, 1, 1, 1, (9, 13), False, False),
    ("subspaces", 5, 2, 2, 2, 1, 1, (9, 13), False, True),
    ("subspaces", 4, 2, 2, 2, 3, 1, (6, 8), True, False),
    ("subspaces", 5, 2, 3, 3, 1, 2, (6, 8), False, False),
    ("subspaces", 3, 3, 2, 2, 1, 1, (8, 11), False, False),
    ("subspaces", 3, 3, 2, 1, 2, 1, (6, 8), True, False),
    ("subspaces", 4, 3, 2, 2, 2, 1, (6, 8), False, False),
    ("subspaces", 4, 3, 2, 2, 1, 1, (8, 11), False, True),
]

# (universe, n, q, k, kp, ell, t, --symmetry)
SEARCH_FULL = [
    ("sets", 5, None, 2, 2, 1, 1, True),
    ("sets", 4, None, 2, 2, 2, 1, False),
    ("sets", 5, None, 3, 2, 1, 1, True),
    ("sets", 6, None, 3, 3, 1, 2, True),
    ("subspaces", 3, 3, 2, 1, 1, 1, False),
    ("subspaces", 3, 3, 2, 2, 2, 1, False),
]


def _search_argv(kind, n, q, k, kp, ell, t):
    argv = ["search", kind, "--n", n]
    if q is not None:
        argv += ["--q", q]
    return argv + ["--k", k, "--kp", kp, "--l", ell, "--t", t]


def _pool(rng, kind, n, q, k, size) -> Fam:
    fam = Fam(n, k, q, [])
    if q is None:
        fam.members = rng.sample(gfp.set_layer(n, k), size)
        return fam
    return _fill(fam, rng, size, lambda: fam.random_member(rng))


def search_round(rnd: Round) -> None:
    rng = rnd.rng
    for kind, n, q, k, kp, ell, t, sizes, naive, same in SEARCH_POOLS:
        fam_f = _pool(rng, kind, n, q, k, rng.randint(*sizes))
        fam_g = fam_f if same else _pool(rng, kind, n, q, kp, rng.randint(*sizes))
        argv = _search_argv(kind, n, q, k, kp, ell, t)
        argv += ["--pool", rnd.write(f"pool-{kind}", fam_f.text())]
        if not same:
            argv += ["--pool-g", rnd.write(f"poolg-{kind}", fam_g.text())]
        shared: dict = {}
        rnd.add(argv, check_search(fam_f, fam_g, ell, t, shared, False))
        if naive:
            rnd.add(argv + ["--naive"], check_search(fam_f, fam_g, ell, t, shared, True))
    for kind, n, q, k, kp, ell, t, symmetry in SEARCH_FULL:
        if q is None:
            fam_f, fam_g = Fam(n, k, q, list(gfp.set_layer(n, k))), Fam(n, kp, q, list(gfp.set_layer(n, kp)))
        else:
            fam_f, fam_g = Fam(n, k, q, list(gfp.full_layer(n, k, q))), Fam(n, kp, q, list(gfp.full_layer(n, kp, q)))
        argv = _search_argv(kind, n, q, k, kp, ell, t) + (["--symmetry"] if symmetry else [])
        rnd.add(argv, check_search(fam_f, fam_g, ell, t, {}, False))


# --- families ------------------------------------------------------------------

# check-family shapes: (n, q, k, kp, ell, t, |F| and |G| range)
CHECK_SHAPES = [
    (16, None, 4, 4, 1, 2, (30, 45)),
    (12, None, 3, 3, 2, 1, (14, 20)),
    (16, None, 4, 3, 2, 1, (24, 32)),
    (20, None, 4, 4, 3, 1, (14, 19)),
    (18, None, 4, 4, 2, 2, (20, 28)),
    (7, 2, 2, 2, 1, 1, (10, 16)),
    (8, 2, 3, 3, 2, 1, (14, 20)),
    (8, 2, 3, 2, 3, 1, (11, 15)),
    (8, 2, 3, 3, 1, 2, (16, 22)),
    (6, 3, 2, 2, 2, 1, (11, 15)),
    (7, 3, 3, 3, 1, 1, (13, 18)),
    (8, 3, 3, 2, 3, 1, (10, 13)),
]

# sunflower shapes: (n, q, k, t, u, family size range)
SUNFLOWER_SHAPES = [
    (14, None, 4, 1, 4, (12, 18)),
    (12, None, 4, 2, 3, (10, 16)),
    (7, 2, 3, 1, 3, (9, 13)),
    (6, 3, 2, 1, 3, (8, 11)),
]


def _check_family_jobs(rnd: Round, star: bool) -> None:
    rng = rnd.rng
    for n, q, k, kp, ell, t, sizes in CHECK_SHAPES:
        mf, mg = rng.randint(*sizes), rng.randint(*sizes)
        if star:
            fam_f, fam_g = star_pair(rng, n, q, k, kp, ell, t, mf, mg)
            check = check_condition_holds(ell, t)
        else:
            fam_f, fam_g = violating_pair(rng, n, q, k, kp, ell, mf, mg)
            check = check_condition_fails(fam_f, fam_g, ell, t)
        path_f = rnd.write(f"F-{fam_f.kind}", fam_f.text())
        path_g = rnd.write(f"G-{fam_g.kind}", fam_g.text())
        rnd.add(["check-family", path_f, path_g, "--l", ell, "--t", t], check)
    for n, q, k, t, u, sizes in SUNFLOWER_SHAPES:
        fam, kernel, planted = sunflower_family(rng, n, q, k, t, u, rng.randint(*sizes), star)
        path = rnd.write(f"S-{fam.kind}", fam.text())
        rnd.add(["sunflower", path, "--t", t, "--u", u], check_sunflowers(fam, t, u, kernel, planted))


def families_star_round(rnd: Round) -> None:
    _check_family_jobs(rnd, star=True)


def _add(u, v) -> tuple[int, ...]:
    return tuple((x + y) % 2 for x, y in zip(u, v))


def _block(rows) -> str:
    return "\n" + "\n".join(" ".join(map(str, r)) for r in rows) + "\n"


def _malformed(rnd: Round) -> None:
    """One file per validation the parsers must keep; each job exits 2."""
    rng = rnd.rng
    sets = Fam(16, 4, None, [])
    _fill(sets, rng, 20, lambda: sets.random_member(rng))
    subs = Fam(6, 3, 2, [])
    _fill(subs, rng, 12, lambda: subs.random_member(rng))
    good_sets = rnd.write("ok-sets", sets.text())
    good_subs = rnd.write("ok-subspaces", subs.text())

    lines = sets.text().splitlines()
    bad_header = "\n".join([f"n={sets.n} k{sets.k}"] + lines[1:]) + "\n"
    row = rng.randrange(1, len(lines))
    out_of_range = lines[:row] + [lines[row] + f",{sets.n + 1}"] + lines[row + 1 :]
    # another basis of an existing member: only a canonicalizing parser can
    # see that it is a duplicate
    a, b, *rest = subs.members[rng.randrange(len(subs.members))]
    duplicate = subs.text() + _block([_add(a, b), b, *rest])
    non_prime = subs.text().replace("q=2", "q=4", 1)
    a, b, *rest = subs.members[rng.randrange(len(subs.members))]
    deficient = subs.text() + _block([a, b, _add(a, b)])

    cases = [
        ("bad-header", good_sets, bad_header),
        ("out-of-range", good_sets, "\n".join(out_of_range) + "\n"),
        ("duplicate", good_subs, duplicate),
        ("non-prime", good_subs, non_prime),
        ("rank-deficient", good_subs, deficient),
    ]
    for stem, good, text in cases:
        bad = rnd.write(stem, text)
        rnd.add(["check-family", good, bad, "--l", 2, "--t", 1], check_input_error)


def families_random_round(rnd: Round) -> None:
    _check_family_jobs(rnd, star=False)
    _malformed(rnd)


# --- lemmas ----------------------------------------------------------------------

# lemma -> (uses ell, uses q, uses m, smallest n at which it is claimed)
LEMMAS = {
    "set-profile-decreasing": (False, False, False, lambda k, kp, ell, t: k * k + 2 * k),
    "set-ratio-bound": (True, False, True, lambda k, kp, ell, t: gfp.halved_threshold(k, ell, t, 3)),
    "set-sum-bound": (True, False, False, lambda k, kp, ell, t: gfp.halved_threshold(k, ell, t, 4)),
    "subspace-profile-decreasing": (False, True, False, lambda k, kp, ell, t: k + kp - t),
    "subspace-ratio-bound": (
        True,
        True,
        True,
        lambda k, kp, ell, t: (2 * k - t) * (t + 1) + k + ell + 2,
    ),
    "subspace-sum-bound": (True, True, False, gfp.subspace_threshold),
}

# per verify-lemmas job: (lemma, largest k, number of n offsets)
SWEEPS = [
    ("set-profile-decreasing", 7, 4),
    ("set-ratio-bound", 5, 2),
    ("set-sum-bound", 6, 3),
    ("subspace-profile-decreasing", 6, 3),
    ("subspace-ratio-bound", 5, 2),
    ("subspace-sum-bound", 6, 3),
] * 2

COUNT_JOBS = 40


def expected_reports(config: dict) -> list[tuple]:
    """Every (lemma, params) the sweep must report, from the stated
    hypotheses t+1 <= kp <= k and 0 <= m <= kp-t-1 and each lemma's n bound."""
    out = []
    (lemma,) = config["lemmas"]
    uses_ell, uses_q, uses_m, min_n = LEMMAS[lemma]
    k_range = range(config["k"]["min"], config["k"]["max"] + 1)
    for t in config["t"]:
        for k in k_range:
            for kp in range(t + 1, k + 1):
                for ell in config["l"] if uses_ell else [2]:
                    for q in config["q"] if uses_q else [None]:
                        for m in range(kp - t) if uses_m else [None]:
                            for off in config["n_policy"]["threshold_plus"]:
                                n = min_n(k, kp, ell, t) + off
                                base = {"n": n, "k": k, "kp": kp, "t": t}
                                if uses_ell:
                                    base["ell"] = ell
                                if m is not None:
                                    base["m"] = m
                                if q is not None:
                                    base["q"] = q
                                if lemma.endswith("profile-decreasing"):
                                    extra = [{"h": h} for h in range(t, kp)]
                                else:
                                    extra = [{"ineq": 1}, {"ineq": 2}]
                                for e in extra:
                                    out.append((lemma, tuple(sorted({**base, **e}.items()))))
    return sorted(out)


def _profile_value(lemma: str, p: dict, h: int) -> int:
    if lemma == "set-profile-decreasing":
        return gfp.set_profile(p["n"], p["k"], p["kp"], h)
    return gfp.overlap_count(p["n"], p["k"], p["kp"], h, p["q"])


def check_sweep(config: dict):
    expected = expected_reports(config)

    def check(code: int, out: str) -> None:
        expect(code == 0, f"exit code {code}, expected 0")
        lines = out.splitlines()
        summary = json.loads(lines[-1])["summary"]
        seen = []
        for line in lines[:-1]:
            r = json.loads(line)
            lemma, p = r["lemma"], r["params"]
            expect(r["holds"] is True, f"{lemma} fails at {p}")
            if lemma.endswith("profile-decreasing"):
                expect(r["lhs"] == _profile_value(lemma, p, p["h"]), "wrong profile value")
                expect(r["rhs"] == _profile_value(lemma, p, p["h"] + 1), "wrong profile value")
                expect(r["lhs"] > r["rhs"] and r["strict"] is True, "profile not decreasing")
            elif lemma.endswith("ratio-bound"):
                expect(r["lhs"] < r["rhs"] and r["strict"] is True, "ratio bound misreported")
            else:
                expect(r["lhs"] >= r["rhs"] and r["strict"] is False, "sum bound misreported")
            seen.append((lemma, tuple(sorted(p.items()))))
        expect(sorted(seen) == expected, "sweep visited other parameter tuples than its grid")
        expect(
            summary == {"total": len(expected), "holds": len(expected), "violations": 0},
            f"summary {summary}, expected {len(expected)} checks without violations",
        )

    return check


def _count_query(rng) -> tuple[list[int], int, str]:
    kind = rng.choice(
        ["binom", "gauss", "overlap-count", "profile-set", "profile-subspace",
         "cond-threshold", "threshold-set", "threshold-subspace"]
    )
    q = rng.choice([2, 3, 5])
    if kind == "binom":
        m = rng.randrange(0, 90)
        i = rng.randrange(0, m + 3)
        return [m, i], gfp.pascal(m, i), kind
    if kind == "gauss":
        a = rng.randrange(0, 30)
        b = rng.randrange(0, a + 2)
        return [a, b, q], gfp.q_pascal(a, b, q), kind
    if kind in ("overlap-count", "profile-subspace"):
        n = rng.randrange(1, 22)
        kw, m = rng.randrange(0, n + 1), rng.randrange(0, n + 1)
        h = rng.randrange(0, min(kw, m) + 2)
        return [n, kw, m, h, q], gfp.overlap_count(n, kw, m, h, q), kind
    if kind == "profile-set":
        n = rng.randrange(1, 70)
        k, kp = rng.randrange(0, n + 1), rng.randrange(0, n + 1)
        h = rng.randrange(0, kp + 2)
        return [n, k, kp, h], gfp.set_profile(n, k, kp, h), kind
    if kind == "cond-threshold":
        ell, t = rng.randrange(1, 7), rng.randrange(1, 6)
        return [ell, t], gfp.condition_threshold(ell, t), kind
    t = rng.randrange(1, 4)
    ell = rng.randrange(2, 6)
    if kind == "threshold-set":
        k = rng.randrange(t + 1, 9)
        return [k, ell, t], gfp.halved_threshold(k, ell, t, 4), kind
    kp = rng.randrange(t + 1, 8)
    k = rng.randrange(kp, 9)
    return [k, kp, ell, t], gfp.subspace_threshold(k, kp, ell, t), kind


def check_count(value: int):
    def check(code: int, out: str) -> None:
        got = _document(code, out, 0)["value"]
        expect(got == value, f"count {got}, expected {value}")

    return check


def lemmas_round(rnd: Round) -> None:
    rng = rnd.rng
    per_sweep = COUNT_JOBS // len(SWEEPS)
    for lemma, k_max, offsets in SWEEPS:
        t = rng.choice([1, 2])
        k_min = rng.randrange(t + 1, k_max)
        config = {
            "lemmas": [lemma],
            "t": [t],
            "k": {"min": k_min, "max": k_max},
            "l": sorted(rng.sample([2, 3, 4], 2)),
            "q": sorted(rng.sample([2, 3, 5], 2)),
            "n_policy": {"threshold_plus": sorted(rng.sample(range(60), offsets))},
        }
        path = rnd.write("sweep", json.dumps(config))
        rnd.add(["verify-lemmas", path], check_sweep(config))
        for _ in range(per_sweep):
            values, expected, kind = _count_query(rng)
            rnd.add(["count", kind] + values, check_count(expected))


WORKLOADS = {
    "search": search_round,
    "families-star": families_star_round,
    "families-random": families_random_round,
    "lemmas": lemmas_round,
}
