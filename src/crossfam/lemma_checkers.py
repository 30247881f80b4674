"""Exact verification of the inequality lemmas behind the product bounds.

Six checkable statements, three per universe kind:

* profile-decreasing  -- the overlap profile f(h) is strictly decreasing on
  h in [t, k'), checked pointwise as f(h) > f(h+1) for h = t .. k'-1;
* ratio-bound         -- an additive expression is strictly below a quotient
  of two binomial (or Gaussian binomial) products;
* sum-bound           -- that quotient in turn dominates ell times the tail
  sum of the overlap profile, plus ell.

Every comparison is exact: quotients are never formed, both sides are scaled
by the denominator and compared as integers, so the reported lhs/rhs of a
ratio comparison are the cross-multiplied values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .exact_arith import (
    _halved_threshold,
    binomial,
    gaussian_binomial,
    set_profile,
    set_threshold,
    subspace_profile,
    subspace_threshold,
)

__all__ = [
    "LEMMA_IDS",
    "PreconditionError",
    "LemmaReport",
    "SweepConfig",
    "SweepSummary",
    "check_set_profile_decreasing",
    "check_set_ratio_bound",
    "check_set_sum_bound",
    "check_subspace_profile_decreasing",
    "check_subspace_ratio_bound",
    "check_subspace_sum_bound",
    "min_valid_n",
    "parse_sweep_config",
    "iter_sweep",
    "run_sweep",
]


class PreconditionError(ValueError):
    """Inputs violate a checker's stated hypotheses.

    Checkers refuse out-of-domain inputs instead of reporting anything, so a
    sweep can never confuse 'inequality fails' with 'inequality not claimed'.
    """


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise PreconditionError(message)


def _require_common(k: int, kp: int, t: int) -> None:
    _require(t >= 1, f"t >= 1 required (t={t})")
    _require(kp >= t + 1, f"kp >= t + 1 required (kp={kp}, t={t})")
    _require(k >= kp, f"k >= kp required (k={k}, kp={kp})")


@dataclass(frozen=True)
class LemmaReport:
    """One exact comparison: ``holds`` is the verdict of the stated
    inequality, ``strict`` records whether strict inequality was required.

    For ratio comparisons lhs and rhs are both scaled by the denominator of
    the quotient so that they are plain integers.
    """

    lemma: str
    params: dict
    lhs: int
    rhs: int
    holds: bool
    strict: bool

    def to_json_dict(self) -> dict:
        return {
            "lemma": self.lemma,
            "params": self.params,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "holds": self.holds,
            "strict": self.strict,
        }


# --- set universe ----------------------------------------------------------


def check_set_profile_decreasing(n: int, k: int, kp: int, t: int) -> list[LemmaReport]:
    """f(h) = C(k, h) C(n-k, kp-h) is strictly decreasing for h in [t, kp)."""
    _require_common(k, kp, t)
    _require(
        n >= min_valid_n("set-profile-decreasing", k, kp, None, t),
        f"n >= k^2 + 2k required (n={n}, k={k})",
    )
    reports = []
    for h in range(t, kp):
        lhs = set_profile(n, k, kp, h)
        rhs = set_profile(n, k, kp, h + 1)
        reports.append(
            LemmaReport(
                "set-profile-decreasing",
                {"n": n, "k": k, "kp": kp, "t": t, "h": h},
                lhs,
                rhs,
                lhs > rhs,
                True,
            )
        )
    return reports


def _set_ratio_lhs(n: int, k: int, kp: int, ell: int, t: int) -> int:
    """Additive bound on a family facing ell probe members: stragglers,
    single-hit members, multi-hit members (near and far kernels), and
    members overshooting the level."""
    pairs = binomial(ell, 2)
    return (
        2 * ell
        - 2
        + (ell + kp * ell - 1)
        * pairs
        * binomial(kp - 1, t)
        * (binomial(n - t, k - t) - binomial(n - k, k - t) + 1)
        + (pairs * binomial(2 * kp, t + 1) + ell * binomial(kp, t + 1))
        * binomial(n - t - 1, k - t - 1)
    )


def check_set_ratio_bound(
    n: int, k: int, kp: int, ell: int, t: int, m: int
) -> tuple[LemmaReport, LemmaReport]:
    """Both displayed strict inequalities (the second with the roles of k and
    kp exchanged), compared by cross-multiplication."""
    _require_common(k, kp, t)
    _require(ell >= 2, f"ell >= 2 required (ell={ell})")
    _require(0 <= m <= kp - t - 1, f"0 <= m <= kp - t - 1 required (m={m})")
    min_n = min_valid_n("set-ratio-bound", k, kp, ell, t)
    _require(
        n >= min_n,
        f"n >= ceil(k^2 ell^3 C(2k,t+1) C(k,t) / 2) + t = {min_n} required (n={n})",
    )
    num = binomial(n - t, kp - t) * binomial(n - t, k - t)
    base = {"n": n, "k": k, "kp": kp, "ell": ell, "t": t, "m": m}

    lhs1 = _set_ratio_lhs(n, k, kp, ell, t) * binomial(n - t - m, kp - t - m)
    first = LemmaReport(
        "set-ratio-bound", {**base, "ineq": 1}, lhs1, num, lhs1 < num, True
    )
    lhs2 = _set_ratio_lhs(n, kp, k, ell, t) * binomial(n - t - m, k - t - m)
    second = LemmaReport(
        "set-ratio-bound", {**base, "ineq": 2}, lhs2, num, lhs2 < num, True
    )
    return first, second


def _set_sum_denominator(n: int, k: int, kp: int, ell: int, t: int) -> int:
    pairs = binomial(ell, 2)
    return (pairs * binomial(kp - 1, t) + 2) * (ell - 1) + (
        pairs * binomial(2 * kp, t + 1) + ell * binomial(kp, t + 1)
    ) * binomial(n - t - 1, k - t - 1)


def check_set_sum_bound(
    n: int, k: int, kp: int, ell: int, t: int
) -> tuple[LemmaReport, LemmaReport]:
    """The binomial product over the additive bound dominates ell times the
    overlap-profile tail sum plus ell (both role assignments)."""
    _require_common(k, kp, t)
    _require(ell >= 2, f"ell >= 2 required (ell={ell})")
    min_n = min_valid_n("set-sum-bound", k, kp, ell, t)
    _require(
        n >= min_n,
        f"n >= ceil(k^2 ell^4 C(2k,t+1) C(k,t) / 2) + t = {min_n} required (n={n})",
    )
    num = binomial(n - t, k - t) * binomial(n - t, kp - t)
    base = {"n": n, "k": k, "kp": kp, "ell": ell, "t": t}

    den1 = _set_sum_denominator(n, k, kp, ell, t)
    tail1 = ell * sum(set_profile(n, k, kp, h) for h in range(t, kp + 1)) + ell
    first = LemmaReport(
        "set-sum-bound", {**base, "ineq": 1}, num, tail1 * den1, num >= tail1 * den1, False
    )
    den2 = _set_sum_denominator(n, kp, k, ell, t)
    tail2 = ell * sum(set_profile(n, kp, k, h) for h in range(t, kp + 1)) + ell
    second = LemmaReport(
        "set-sum-bound", {**base, "ineq": 2}, num, tail2 * den2, num >= tail2 * den2, False
    )
    return first, second


# --- subspace universe ------------------------------------------------------


def check_subspace_profile_decreasing(
    n: int, k: int, kp: int, t: int, q: int
) -> list[LemmaReport]:
    """F(h) = q^((k-h)(kp-h)) [k,h] [n-k,kp-h] is strictly decreasing for
    h in [t, kp)."""
    _require_common(k, kp, t)
    _require(q >= 2, f"q >= 2 required (q={q})")
    _require(
        n >= min_valid_n("subspace-profile-decreasing", k, kp, None, t),
        f"n >= k + kp - t required (n={n})",
    )
    reports = []
    for h in range(t, kp):
        lhs = subspace_profile(n, k, kp, h, q)
        rhs = subspace_profile(n, k, kp, h + 1, q)
        reports.append(
            LemmaReport(
                "subspace-profile-decreasing",
                {"n": n, "k": k, "kp": kp, "t": t, "q": q, "h": h},
                lhs,
                rhs,
                lhs > rhs,
                True,
            )
        )
    return reports


def _subspace_ratio_lhs(n: int, k: int, kp: int, ell: int, t: int, q: int) -> int:
    pairs = binomial(ell, 2)
    return (
        2 * ell
        - 2
        + (gaussian_binomial(kp, 1, q) * ell + ell - 1)
        * pairs
        * gaussian_binomial(kp - 1, t, q)
        * (
            gaussian_binomial(n - t, k - t, q)
            - q ** ((k - t) ** 2) * gaussian_binomial(n - k, k - t, q)
            + 1
        )
        + (
            pairs * gaussian_binomial(2 * kp, t + 1, q)
            + ell * gaussian_binomial(kp, t + 1, q)
        )
        * gaussian_binomial(n - t - 1, k - t - 1, q)
    )


def check_subspace_ratio_bound(
    n: int, k: int, kp: int, ell: int, t: int, m: int, q: int
) -> tuple[LemmaReport, LemmaReport]:
    _require_common(k, kp, t)
    _require(ell >= 2, f"ell >= 2 required (ell={ell})")
    _require(q >= 2, f"q >= 2 required (q={q})")
    _require(0 <= m <= kp - t - 1, f"0 <= m <= kp - t - 1 required (m={m})")
    min_n = min_valid_n("subspace-ratio-bound", k, kp, ell, t)
    _require(
        n >= min_n,
        f"n >= (2k-t)(t+1) + k + ell + 2 = {min_n} required (n={n})",
    )
    num = gaussian_binomial(n - t, kp - t, q) * gaussian_binomial(n - t, k - t, q)
    base = {"n": n, "k": k, "kp": kp, "ell": ell, "t": t, "m": m, "q": q}

    lhs1 = _subspace_ratio_lhs(n, k, kp, ell, t, q) * gaussian_binomial(
        n - t - m, kp - t - m, q
    )
    first = LemmaReport(
        "subspace-ratio-bound", {**base, "ineq": 1}, lhs1, num, lhs1 < num, True
    )
    lhs2 = _subspace_ratio_lhs(n, kp, k, ell, t, q) * gaussian_binomial(
        n - t - m, k - t - m, q
    )
    second = LemmaReport(
        "subspace-ratio-bound", {**base, "ineq": 2}, lhs2, num, lhs2 < num, True
    )
    return first, second


def _subspace_sum_denominator(n: int, k: int, kp: int, ell: int, t: int, q: int) -> int:
    pairs = binomial(ell, 2)
    return (pairs * gaussian_binomial(kp - 1, t, q) + 2) * (ell - 1) + (
        pairs * gaussian_binomial(2 * kp, t + 1, q)
        + ell * gaussian_binomial(kp, t + 1, q)
    ) * gaussian_binomial(n - t - 1, k - t - 1, q)


def check_subspace_sum_bound(
    n: int, k: int, kp: int, ell: int, t: int, q: int
) -> tuple[LemmaReport, LemmaReport]:
    _require_common(k, kp, t)
    _require(ell >= 2, f"ell >= 2 required (ell={ell})")
    _require(q >= 2, f"q >= 2 required (q={q})")
    min_n = min_valid_n("subspace-sum-bound", k, kp, ell, t)
    _require(
        n >= min_n,
        f"n >= (2k-t+1)(t+1) + (k-t+1)kp + k + 2ell - 1 = {min_n} required (n={n})",
    )
    num = gaussian_binomial(n - t, k - t, q) * gaussian_binomial(n - t, kp - t, q)
    base = {"n": n, "k": k, "kp": kp, "ell": ell, "t": t, "q": q}

    den1 = _subspace_sum_denominator(n, k, kp, ell, t, q)
    tail1 = ell * sum(subspace_profile(n, k, kp, h, q) for h in range(t, kp + 1)) + ell
    first = LemmaReport(
        "subspace-sum-bound",
        {**base, "ineq": 1},
        num,
        tail1 * den1,
        num >= tail1 * den1,
        False,
    )
    den2 = _subspace_sum_denominator(n, kp, k, ell, t, q)
    tail2 = ell * sum(subspace_profile(n, kp, k, h, q) for h in range(t, kp + 1)) + ell
    second = LemmaReport(
        "subspace-sum-bound",
        {**base, "ineq": 2},
        num,
        tail2 * den2,
        num >= tail2 * den2,
        False,
    )
    return first, second


# --- sweep machinery --------------------------------------------------------


# lemma id -> (checker, the parameters it takes, smallest claimed n as a
# function of (k, kp, ell, t)); ell is None for lemmas that do not take it
LEMMAS: dict[str, tuple[Callable, tuple[str, ...], Callable[..., int]]] = {
    "set-profile-decreasing": (
        check_set_profile_decreasing,
        ("n", "k", "kp", "t"),
        lambda k, kp, ell, t: k * k + 2 * k,
    ),
    "set-ratio-bound": (
        check_set_ratio_bound,
        ("n", "k", "kp", "ell", "t", "m"),
        lambda k, kp, ell, t: _halved_threshold(k, ell, t, 3),
    ),
    "set-sum-bound": (
        check_set_sum_bound,
        ("n", "k", "kp", "ell", "t"),
        lambda k, kp, ell, t: set_threshold(k, ell, t),
    ),
    "subspace-profile-decreasing": (
        check_subspace_profile_decreasing,
        ("n", "k", "kp", "t", "q"),
        lambda k, kp, ell, t: k + kp - t,
    ),
    "subspace-ratio-bound": (
        check_subspace_ratio_bound,
        ("n", "k", "kp", "ell", "t", "m", "q"),
        lambda k, kp, ell, t: (2 * k - t) * (t + 1) + k + ell + 2,
    ),
    "subspace-sum-bound": (
        check_subspace_sum_bound,
        ("n", "k", "kp", "ell", "t", "q"),
        lambda k, kp, ell, t: subspace_threshold(k, kp, ell, t),
    ),
}

LEMMA_IDS = tuple(LEMMAS)


def min_valid_n(lemma: str, k: int, kp: int, ell: int | None, t: int) -> int:
    """The smallest ambient size at which ``lemma`` is claimed."""
    if lemma not in LEMMAS:
        raise ValueError(f"unknown lemma {lemma!r}; known: {', '.join(LEMMA_IDS)}")
    return LEMMAS[lemma][2](k, kp, ell, t)


@dataclass(frozen=True)
class SweepConfig:
    """A parameter grid.  Dependent ranges (kp, m) default to every value the
    hypotheses allow; explicit values outside them are skipped, so the grid
    only ever visits claimed parameter tuples."""

    lemmas: tuple[str, ...]
    t_values: tuple[int, ...]
    k_values: tuple[int, ...]
    kp_values: tuple[int, ...] | None
    ell_values: tuple[int, ...]
    q_values: tuple[int, ...]
    m_values: tuple[int, ...] | None
    n_offsets: tuple[int, ...]
    n_explicit: tuple[int, ...] | None


@dataclass(frozen=True)
class SweepSummary:
    total: int
    holds: int
    violations: int


def _parse_values(value, key: str) -> tuple[int, ...]:
    if isinstance(value, bool):
        raise ValueError(f"{key}: expected integers")
    if isinstance(value, int):
        return (value,)
    if isinstance(value, dict):
        extra = set(value) - {"min", "max"}
        if extra or "min" not in value or "max" not in value:
            raise ValueError(f"{key}: range object must have exactly min and max")
        return tuple(range(value["min"], value["max"] + 1))
    if isinstance(value, list):
        out = []
        for v in value:
            if isinstance(v, bool) or not isinstance(v, int):
                raise ValueError(f"{key}: expected integers (got {v!r})")
            out.append(v)
        return tuple(sorted(set(out)))
    raise ValueError(f"{key}: expected int, list, or min/max object")


def parse_sweep_config(data: dict) -> SweepConfig:
    known = {"lemmas", "t", "k", "kp", "l", "q", "m", "n_policy"}
    extra = set(data) - known
    if extra:
        raise ValueError(f"unknown config keys: {', '.join(sorted(extra))}")

    lemmas = data.get("lemmas")
    if lemmas is None:
        lemmas = list(LEMMA_IDS)
    if not isinstance(lemmas, list) or not all(isinstance(x, str) for x in lemmas):
        raise ValueError("lemmas: expected a list of lemma names")
    for name in lemmas:
        if name not in LEMMAS:
            raise ValueError(f"unknown lemma {name!r}; known: {', '.join(LEMMA_IDS)}")

    t_values = _parse_values(data.get("t", [1]), "t")
    k_values = _parse_values(data.get("k", []), "k")
    ell_values = _parse_values(data.get("l", [2]), "l")
    q_values = _parse_values(data.get("q", [2]), "q")
    kp_values = _parse_values(data["kp"], "kp") if data.get("kp") is not None else None
    m_values = _parse_values(data["m"], "m") if data.get("m") is not None else None

    for t in t_values:
        if t < 1:
            raise ValueError(f"t values must be >= 1 (got {t})")
    for k in k_values:
        if k < 2:
            raise ValueError(f"k values must be >= 2 (got {k})")
    for ell in ell_values:
        if ell < 2:
            raise ValueError(f"l values must be >= 2 (got {ell})")
    for q in q_values:
        if q < 2:
            raise ValueError(f"q values must be >= 2 (got {q})")
    if kp_values is not None:
        for kp in kp_values:
            if kp < 2:
                raise ValueError(f"kp values must be >= 2 (got {kp})")
    if m_values is not None:
        for m in m_values:
            if m < 0:
                raise ValueError(f"m values must be >= 0 (got {m})")

    policy = data.get("n_policy", "at_threshold")
    n_offsets: tuple[int, ...] = (0,)
    n_explicit: tuple[int, ...] | None = None
    if policy == "at_threshold":
        n_offsets = (0,)
    elif isinstance(policy, dict) and set(policy) == {"threshold_plus"}:
        n_offsets = _parse_values(policy["threshold_plus"], "n_policy.threshold_plus")
        for off in n_offsets:
            if off < 0:
                raise ValueError(f"threshold_plus offsets must be >= 0 (got {off})")
    elif isinstance(policy, dict) and set(policy) == {"explicit"}:
        n_explicit = _parse_values(policy["explicit"], "n_policy.explicit")
        for n in n_explicit:
            if n < 1:
                raise ValueError(f"explicit n values must be >= 1 (got {n})")
    else:
        raise ValueError(
            "n_policy must be 'at_threshold', {'threshold_plus': ...}, or {'explicit': ...}"
        )

    return SweepConfig(
        tuple(lemmas),
        t_values,
        k_values,
        kp_values,
        ell_values,
        q_values,
        m_values,
        n_offsets,
        n_explicit,
    )


def iter_sweep(config: SweepConfig) -> Iterator[LemmaReport]:
    """Evaluate every applicable checker over the grid, in sorted parameter
    order.  Explicit n values below a lemma's own bound raise
    PreconditionError; derived n values are always in range."""
    for lemma_id in config.lemmas:
        checker, params, min_n = LEMMAS[lemma_id]
        for t in config.t_values:
            for k in config.k_values:
                kp_range = (
                    config.kp_values
                    if config.kp_values is not None
                    else tuple(range(t + 1, k + 1))
                )
                for kp in kp_range:
                    if not t + 1 <= kp <= k:
                        continue
                    ells = config.ell_values if "ell" in params else (None,)
                    qs = config.q_values if "q" in params else (None,)
                    for ell in ells:
                        for q in qs:
                            if "m" in params:
                                m_range = (
                                    config.m_values
                                    if config.m_values is not None
                                    else tuple(range(0, kp - t))
                                )
                            else:
                                m_range = (None,)
                            for m in m_range:
                                if m is not None and not 0 <= m <= kp - t - 1:
                                    continue
                                if config.n_explicit is not None:
                                    n_values: Sequence[int] = config.n_explicit
                                else:
                                    floor = min_n(k, kp, ell, t)
                                    n_values = [floor + off for off in config.n_offsets]
                                for n in n_values:
                                    values = dict(n=n, k=k, kp=kp, t=t, ell=ell, q=q, m=m)
                                    yield from checker(**{p: values[p] for p in params})


def run_sweep(config: SweepConfig) -> tuple[list[LemmaReport], SweepSummary]:
    reports = list(iter_sweep(config))
    holds = sum(1 for r in reports if r.holds)
    return reports, SweepSummary(len(reports), holds, len(reports) - holds)
