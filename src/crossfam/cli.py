"""Command-line front end.

Commands: count, verify-lemmas, check-family, sunflower, search.

Exit code contract, uniform across commands: 0 for success (condition holds,
zero violations, search completed), 1 for a semantic negative (condition
unsatisfied, sweep found violations), 2 for input or usage errors.

Every one-shot command prints a single JSON document carrying a run manifest
(command, parameters, input digests, library version, elapsed time); the
lemma sweep streams one JSON line per report and ends with a summary line.
Report bodies are deterministic: repeated runs on identical inputs differ
only in the manifest timing field.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
from pathlib import Path

from . import __version__
from .exact_arith import (
    binomial,
    condition_threshold,
    count_subspaces_by_intersection,
    gaussian_binomial,
    set_profile,
    set_threshold,
    subspace_profile,
    subspace_threshold,
)
from .family_analysis import (
    SetFamily,
    find_sunflowers,
    is_weakly_cross_intersecting,
    mask_elements,
    parse_set_family,
)
from .gf_subspaces import (
    DEFAULT_ENUMERATION_CAP,
    EnumerationCapExceeded,
    FamilyFormatError,
    parse_subspace_family,
)
from .lemma_checkers import PreconditionError, iter_sweep, parse_sweep_config
from .search_engine import (
    CandidatePool,
    GuardExceeded,
    PoolTooLarge,
    SearchOptions,
    certification_failure,
    certify,
    max_product_bb,
    max_product_naive,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2


class CliInputError(Exception):
    """Input problem that maps to exit code 2."""


def _sha256(path: str) -> str:
    digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
    return f"sha256:{digest}"


def _manifest(command: str, parameters: dict, inputs: dict[str, str], started: float) -> dict:
    return {
        "command": command,
        "parameters": parameters,
        "inputs": inputs,
        "version": __version__,
        "elapsed_s": round(time.monotonic() - started, 6),
    }


def _emit(document: dict, out) -> None:
    json.dump(document, out, indent=2)
    out.write("\n")


# --- count ------------------------------------------------------------------

_COUNT_QUERIES = {
    "binom": (("m", "i"), lambda a: binomial(a["m"], a["i"])),
    "gauss": (("a", "b", "q"), lambda a: gaussian_binomial(a["a"], a["b"], a["q"])),
    "overlap-count": (
        ("n", "kw", "m", "h", "q"),
        lambda a: count_subspaces_by_intersection(a["n"], a["kw"], a["m"], a["h"], a["q"]),
    ),
    "profile-set": (
        ("n", "k", "kp", "h"),
        lambda a: set_profile(a["n"], a["k"], a["kp"], a["h"]),
    ),
    "profile-subspace": (
        ("n", "k", "kp", "h", "q"),
        lambda a: subspace_profile(a["n"], a["k"], a["kp"], a["h"], a["q"]),
    ),
    "cond-threshold": (("l", "t"), lambda a: condition_threshold(a["l"], a["t"])),
    "threshold-set": (("k", "l", "t"), lambda a: set_threshold(a["k"], a["l"], a["t"])),
    "threshold-subspace": (
        ("k", "kp", "l", "t"),
        lambda a: subspace_threshold(a["k"], a["kp"], a["l"], a["t"]),
    ),
}


def _cmd_count(args, out) -> int:
    started = time.monotonic()
    names, fn = _COUNT_QUERIES[args.query]
    if len(args.values) != len(names):
        raise CliInputError(
            f"count {args.query} expects {len(names)} integers: {' '.join(names)}"
        )
    params = dict(zip(names, args.values))
    try:
        value = fn(params)
    except (ValueError, ArithmeticError) as exc:
        raise CliInputError(str(exc))
    document = {
        "manifest": _manifest("count", {"query": args.query, **params}, {}, started),
        "value": value,
    }
    _emit(document, out)
    return EXIT_OK


# --- verify-lemmas ----------------------------------------------------------


def _cmd_verify_lemmas(args, out) -> int:
    started = time.monotonic()
    try:
        raw = Path(args.config).read_text()
    except OSError as exc:
        raise CliInputError(f"cannot read config: {exc}")
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise CliInputError(f"config is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise CliInputError("config must be a JSON object")
    try:
        config = parse_sweep_config(data)
    except ValueError as exc:
        raise CliInputError(f"bad config: {exc}")

    total = holds = 0
    try:
        for report in iter_sweep(config):
            total += 1
            holds += report.holds
            out.write(json.dumps(report.to_json_dict()))
            out.write("\n")
    except PreconditionError as exc:
        raise CliInputError(f"precondition violated during sweep: {exc}")
    violations = total - holds
    summary = {
        "summary": {"total": total, "holds": holds, "violations": violations},
        "manifest": _manifest(
            "verify-lemmas", {"config": args.config}, {args.config: _sha256(args.config)}, started
        ),
    }
    out.write(json.dumps(summary))
    out.write("\n")
    return EXIT_OK if violations == 0 else EXIT_NEGATIVE


# --- families on disk -------------------------------------------------------


def _load_family(path: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CliInputError(f"cannot read {path}: {exc}")
    stripped = text.lstrip()
    try:
        if stripped.startswith("q="):
            return parse_subspace_family(text)
        return parse_set_family(text)
    except (FamilyFormatError, ValueError) as exc:
        raise CliInputError(f"{path}: {exc}")


def _cmd_check_family(args, out) -> int:
    started = time.monotonic()
    fam_f = _load_family(args.family_f)
    fam_g = _load_family(args.family_g)
    try:
        report = is_weakly_cross_intersecting(fam_f, fam_g, args.l, args.t)
    except ValueError as exc:
        raise CliInputError(str(exc))
    document = {
        "manifest": _manifest(
            "check-family",
            {"F": args.family_f, "G": args.family_g, "l": args.l, "t": args.t},
            {args.family_f: _sha256(args.family_f), args.family_g: _sha256(args.family_g)},
            started,
        ),
        "report": report.to_json_dict(),
    }
    _emit(document, out)
    return EXIT_OK if report.satisfied else EXIT_NEGATIVE


def _render_core(core) -> object:
    if isinstance(core, int):
        return list(mask_elements(core))
    return [list(row) for row in core.rows]


def _cmd_sunflower(args, out) -> int:
    started = time.monotonic()
    family = _load_family(args.family)
    if len(family.members) == 0:
        raise CliInputError(f"{args.family}: family is empty, nothing to analyze")
    try:
        flowers = find_sunflowers(family, args.t, args.u)
    except ValueError as exc:
        raise CliInputError(str(exc))
    document = {
        "manifest": _manifest(
            "sunflower",
            {"family": args.family, "t": args.t, "u": args.u},
            {args.family: _sha256(args.family)},
            started,
        ),
        "sunflowers": [
            {
                "kernel": _render_core(fl.kernel),
                "petals": list(fl.petals),
                "petal_count": fl.petal_count,
            }
            for fl in flowers
        ],
    }
    _emit(document, out)
    return EXIT_OK


# --- search -------------------------------------------------------------------


def _pool_from_args(args) -> CandidatePool:
    if args.universe == "subspaces" and args.q is None:
        raise CliInputError("search subspaces requires --q")
    if args.pool is None and args.pool_g is not None:
        raise CliInputError("--pool-g without --pool")
    if args.pool is None:
        try:
            if args.universe == "sets":
                return CandidatePool.full_set_layer(args.n, args.k, args.kp)
            return CandidatePool.full_subspace_layer(
                args.n, args.k, args.kp, args.q, cap=args.cap
            )
        except (EnumerationCapExceeded, ValueError) as exc:
            raise CliInputError(str(exc))

    fam_f = _load_family(args.pool)
    if args.pool_g is not None:
        fam_g = _load_family(args.pool_g)
    elif args.k == args.kp:
        fam_g = fam_f
    else:
        raise CliInputError("k != kp: a G-side pool file (--pool-g) is required")

    expect_sets = args.universe == "sets"
    for fam, label in ((fam_f, args.pool), (fam_g, args.pool_g or args.pool)):
        if isinstance(fam, SetFamily) != expect_sets:
            raise CliInputError(f"{label}: family kind does not match '{args.universe}'")
        if fam.n != args.n:
            raise CliInputError(f"{label}: file has n={fam.n}, flags say n={args.n}")
        if not expect_sets and fam.q != args.q:
            raise CliInputError(f"{label}: file has q={fam.q}, flags say q={args.q}")
    if fam_f.k != args.k:
        raise CliInputError(f"{args.pool}: file has k={fam_f.k}, flags say k={args.k}")
    if fam_g.k != args.kp:
        raise CliInputError(
            f"{args.pool_g or args.pool}: file has k={fam_g.k}, flags say kp={args.kp}"
        )
    return CandidatePool.from_candidates(
        args.universe, args.n, args.k, args.kp, fam_f.members, fam_g.members, q=args.q
    )


def _cmd_search(args, out) -> int:
    started = time.monotonic()
    pool = _pool_from_args(args)
    inputs = {}
    if args.pool:
        inputs[args.pool] = _sha256(args.pool)
    if args.pool_g:
        inputs[args.pool_g] = _sha256(args.pool_g)
    try:
        if args.naive:
            result = max_product_naive(pool, args.l, args.t, guard=args.guard)
        else:
            options = SearchOptions(
                max_nodes=args.budget, symmetry_reduction=args.symmetry
            )
            result = max_product_bb(pool, args.l, args.t, options)
    except (GuardExceeded, PoolTooLarge, EnumerationCapExceeded, ValueError) as exc:
        raise CliInputError(str(exc))
    certified = certify(result, pool, args.l, args.t)
    parameters = {
        "universe": args.universe,
        "n": args.n,
        "q": args.q,
        "k": args.k,
        "kp": args.kp,
        "l": args.l,
        "t": args.t,
        "engine": "naive" if args.naive else "branch-and-bound",
        "budget": args.budget,
        "symmetry": args.symmetry,
    }
    document = {
        "manifest": _manifest("search", parameters, inputs, started),
        "result": result.to_json_dict(),
        "certified": certified,
    }
    _emit(document, out)
    if not certified:
        # certify is the check every search runs; the reason is worked out
        # again only on this path
        reason = certification_failure(result, pool, args.l, args.t)
        print(f"internal error: search result failed certification: {reason}", file=sys.stderr)
        return EXIT_NEGATIVE
    return EXIT_OK


# --- wiring -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossfam",
        description="Exact counting, inequality sweeps, family checking, sunflower "
        "detection, and extremal search for weakly cross intersecting families.",
    )
    parser.add_argument("--version", action="version", version=f"crossfam {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="print an exact count or threshold")
    p_count.add_argument("query", choices=sorted(_COUNT_QUERIES))
    p_count.add_argument("values", nargs="*", type=int)

    p_verify = sub.add_parser("verify-lemmas", help="run an inequality sweep from a config file")
    p_verify.add_argument("config")

    p_check = sub.add_parser("check-family", help="check the weak cross intersection condition")
    p_check.add_argument("family_f")
    p_check.add_argument("family_g")
    p_check.add_argument("--l", type=int, required=True)
    p_check.add_argument("--t", type=int, required=True)

    p_sun = sub.add_parser("sunflower", help="list maximal sunflowers of a family")
    p_sun.add_argument("family")
    p_sun.add_argument("--t", type=int, required=True)
    p_sun.add_argument("--u", type=int, required=True)

    p_search = sub.add_parser("search", help="maximize |F|*|G| under the condition")
    p_search.add_argument("universe", choices=["sets", "subspaces"])
    p_search.add_argument("--n", type=int, required=True)
    p_search.add_argument("--q", type=int, default=None)
    p_search.add_argument("--k", type=int, required=True)
    p_search.add_argument("--kp", type=int, required=True)
    p_search.add_argument("--l", type=int, required=True)
    p_search.add_argument("--t", type=int, required=True)
    p_search.add_argument("--naive", action="store_true")
    p_search.add_argument("--pool", default=None, help="F-side family file")
    p_search.add_argument("--pool-g", dest="pool_g", default=None, help="G-side family file")
    p_search.add_argument("--budget", type=int, default=None, help="node budget")
    p_search.add_argument("--guard", type=int, default=24, help="naive-engine size guard")
    p_search.add_argument(
        "--cap",
        type=int,
        default=DEFAULT_ENUMERATION_CAP,
        help="subspace-layer enumeration cap",
    )
    p_search.add_argument("--symmetry", action="store_true")

    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first ``main`` call and reused after it.
    argparse looks up sys.stdout and sys.stderr when it prints, so a reused
    parser still writes to the streams current at each call."""
    return build_parser()


def main(argv: list[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse uses 2 for usage errors; --version/--help exit 0
        return int(exc.code or 0)
    try:
        if args.command == "count":
            return _cmd_count(args, out)
        if args.command == "verify-lemmas":
            return _cmd_verify_lemmas(args, out)
        if args.command == "check-family":
            return _cmd_check_family(args, out)
        if args.command == "sunflower":
            return _cmd_sunflower(args, out)
        if args.command == "search":
            return _cmd_search(args, out)
        raise AssertionError(f"unhandled command {args.command}")
    except CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def main_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
