"""Outside-in tracing of crossfam.

The tracer replaces the public functions of each module by timing wrappers,
at every module that binds them by name, so calls made inside a module (for
example ``rref`` from ``Subspace.__post_init__``) are caught as well.  Every
call is one span: job, span id, parent span id, function, start, end.  Self
time is a span's duration minus the time its child spans cover; totals are
kept as the spans close, and the spans themselves are kept in memory up to a
cap and written out when the run ends.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter

LAYERS = ["cli", "exact_arith", "gf_subspaces", "family_analysis", "lemma_checkers", "search_engine"]

# Functions wrapped per module.  Helpers called once per matrix entry or per
# candidate (member_overlap, member_contains_core, is_prime, mask_elements)
# stay unwrapped: a span would cost more than the call, and their time counts
# toward the caller's layer.
WRAPPED = {
    "cli": ["main"],
    "exact_arith": [
        "binomial",
        "gaussian_binomial",
        "set_profile",
        "count_subspaces_by_intersection",
        "subspace_profile",
        "condition_threshold",
        "set_threshold",
        "subspace_threshold",
    ],
    "gf_subspaces": [
        "rref",
        "dim_intersection",
        "intersect_subspace",
        "sum_subspace",
        "contains",
        "enumerate_subspaces",
        "subspaces_of",
        "build_star",
        "parse_subspace_family",
    ],
    "family_analysis": [
        "intersection_matrix",
        "min_tuple_sum",
        "is_weakly_cross_intersecting",
        "find_sunflowers",
        "classify_overlap",
        "extremal_structure",
        "verify_kernel_containment",
        "parse_set_family",
    ],
    "lemma_checkers": [
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
    ],
    "search_engine": ["max_product_bb", "max_product_naive", "certify", "star_lower_bound"],
}

# CandidatePool constructors, timed together as search_engine pool building
POOL_BUILDERS = ["full_set_layer", "full_subspace_layer", "from_candidates"]

# generator functions: each step of the returned iterator is one span
GENERATORS = {"iter_sweep"}


def _bb_tag(args, result):
    return ("ell1" if args[1] == 1 else "ell2plus"), result.nodes_explored


# name -> (args, result) -> (key, work count) for per-key rates
TAGS = {
    "gf_subspaces.rref": lambda args, result: (f"q{args[1]}", 0),
    "gf_subspaces.dim_intersection": lambda args, result: (f"q{args[0].q}", 0),
    "search_engine.max_product_bb": _bb_tag,
    "search_engine.max_product_naive": lambda args, result: ("all", result.nodes_explored),
    "family_analysis.intersection_matrix": lambda args, result: (
        "all",
        result.rows * result.cols,
    ),
}


class Tracer:
    def __init__(self, span_cap: int):
        self.span_cap = span_cap
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.calls: list[int] = []
        self.incl: list[float] = []
        self.raised = defaultdict(int)
        self.self_s = defaultdict(float)
        self.keyed = defaultdict(lambda: [0, 0.0, 0])  # calls, seconds, work
        self.stack: list[list] = []
        self.spans: list[tuple] = []
        self.dropped = 0
        self.job = 0
        self.next_id = 0
        # seconds are multiplied by this before they are added up; the
        # runner sets it to the round's machine-speed factor
        self.scale = 1.0
        self._wrappers: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
        self._patches: list[tuple] = []
        self._build()

    # --- spans ---------------------------------------------------------------

    def _open(self) -> None:
        self.next_id += 1
        self.stack.append([self.next_id, perf_counter(), 0.0])

    def _close(self, fid: int) -> float:
        end = perf_counter()
        sid, start, child = self.stack.pop()
        dur = (end - start) * self.scale
        self.calls[fid] += 1
        self.incl[fid] += dur
        self.self_s[self.layer_of[fid]] += dur - child
        parent = 0
        if self.stack:
            self.stack[-1][2] += dur
            parent = self.stack[-1][0]
        if len(self.spans) < self.span_cap:
            self.spans.append((self.job, sid, parent, fid, start, end))
        else:
            self.dropped += 1
        return dur

    def _tagged(self, fid: int, tag, args, result, dur: float) -> None:
        key, work = tag(args, result)
        slot = self.keyed[self.names[fid], key]
        slot[0] += 1
        slot[1] += dur
        slot[2] += work

    def _wrap(self, fid: int, fn):
        tracer = self
        tag = TAGS.get(self.names[fid])

        def traced(*args, **kwargs):
            tracer._open()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.raised[tracer.layer_of[fid]] += 1
                tracer._close(fid)
                raise
            dur = tracer._close(fid)
            if tag is not None:
                tracer._tagged(fid, tag, args, result, dur)
            return result

        return traced

    def _wrap_generator(self, fid: int, fn):
        tracer = self

        def steps(inner):
            while True:
                tracer._open()
                try:
                    item = next(inner)
                except StopIteration:
                    tracer._close(fid)
                    return
                except BaseException:
                    tracer.raised[tracer.layer_of[fid]] += 1
                    tracer._close(fid)
                    raise
                tracer._close(fid)
                tracer.keyed[tracer.names[fid], "items"][2] += 1
                yield item

        def traced(*args, **kwargs):
            return steps(fn(*args, **kwargs))

        return traced

    def _register(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layer_of.append(layer)
        self.calls.append(0)
        self.incl.append(0.0)
        return len(self.names) - 1

    def _build(self) -> None:
        layers = {layer: importlib.import_module(f"crossfam.{layer}") for layer in LAYERS}
        self.modules = [importlib.import_module("crossfam"), *layers.values()]
        for layer, names in WRAPPED.items():
            for name in names:
                fn = getattr(layers[layer], name)
                fid = self._register(f"{layer}.{name}", layer)
                wrap = self._wrap_generator if name in GENERATORS else self._wrap
                self._wrappers[id(fn)] = (fn, wrap(fid, fn))
        self.pool_class = layers["search_engine"].CandidatePool
        self.pool_fids = []
        self.pool_wrappers = {}
        for name in POOL_BUILDERS:
            fid = self._register(f"search_engine.CandidatePool.{name}", "search_engine")
            self.pool_fids.append(fid)
            original = self.pool_class.__dict__[name].__func__
            self.pool_wrappers[name] = classmethod(self._wrap(fid, original))

    def install(self) -> None:
        for module in self.modules:
            for attr, value in list(vars(module).items()):
                hit = self._wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])
        for name, wrapper in self.pool_wrappers.items():
            self._patches.append((self.pool_class, name, self.pool_class.__dict__[name]))
            setattr(self.pool_class, name, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- results -------------------------------------------------------------

    def _fid(self, name: str) -> int:
        return self.names.index(name)

    def total(self, name: str) -> tuple[int, float]:
        fid = self._fid(name)
        return self.calls[fid], self.incl[fid]

    def rate_us(self, name: str, key: str) -> float:
        calls, seconds, _ = self.keyed.get((name, key), (0, 0.0, 0))
        return seconds / calls * 1e6 if calls else 0.0

    def metrics(self, rounds: int, jobs: int, out_bytes: int, overhead: float) -> dict:
        """Per-layer figures; counts and seconds are per round (job list)."""
        per = 1.0 / rounds
        m: dict[str, tuple[float, str]] = {}

        def calls(name):
            return self.total(name)[0] * per

        def seconds(name):
            return self.total(name)[1] * per

        m["cli.self_ms_per_job"] = (self.self_s["cli"] / jobs * 1e3, "ms")
        m["cli.out_bytes_per_job"] = (out_bytes / jobs, "count")
        m["exact_arith.calls"] = (
            sum(self.calls[f] for f, layer in enumerate(self.layer_of) if layer == "exact_arith") * per,
            "count",
        )
        m["exact_arith.s"] = (self.self_s["exact_arith"] * per, "s")

        checks = self.keyed.get(("lemma_checkers.iter_sweep", "items"), (0, 0.0, 0))[2]
        sweep_s = self.total("lemma_checkers.iter_sweep")[1]
        m["lemma_checkers.checks"] = (checks * per, "count")
        m["lemma_checkers.self_s"] = (self.self_s["lemma_checkers"] * per, "s")
        m["lemma_checkers.us_per_check"] = (sweep_s / checks * 1e6 if checks else 0.0, "us")

        m["gf_subspaces.rref.calls"] = (calls("gf_subspaces.rref"), "count")
        m["gf_subspaces.rref.us_per_call.q2"] = (self.rate_us("gf_subspaces.rref", "q2"), "us")
        m["gf_subspaces.rref.us_per_call.q3"] = (self.rate_us("gf_subspaces.rref", "q3"), "us")
        m["gf_subspaces.dim_intersection.calls"] = (calls("gf_subspaces.dim_intersection"), "count")
        for q in ("q2", "q3"):
            m[f"gf_subspaces.dim_intersection.us_per_call.{q}"] = (
                self.rate_us("gf_subspaces.dim_intersection", q),
                "us",
            )
        m["gf_subspaces.intersect_subspace.calls"] = (calls("gf_subspaces.intersect_subspace"), "count")
        m["gf_subspaces.enumerate_subspaces.s"] = (seconds("gf_subspaces.enumerate_subspaces"), "s")
        m["gf_subspaces.parse.s"] = (seconds("gf_subspaces.parse_subspace_family"), "s")
        m["gf_subspaces.self_s"] = (self.self_s["gf_subspaces"] * per, "s")

        _, matrix_s, pairs = self.keyed.get(("family_analysis.intersection_matrix", "all"), (0, 0.0, 0))
        m["family_analysis.intersection_matrix.us_per_pair"] = (
            matrix_s / pairs * 1e6 if pairs else 0.0,
            "us",
        )
        m["family_analysis.min_tuple_sum.calls"] = (calls("family_analysis.min_tuple_sum"), "count")
        m["family_analysis.min_tuple_sum.s"] = (seconds("family_analysis.min_tuple_sum"), "s")
        m["family_analysis.find_sunflowers.s"] = (seconds("family_analysis.find_sunflowers"), "s")
        m["family_analysis.parse.s"] = (seconds("family_analysis.parse_set_family"), "s")
        m["family_analysis.self_s"] = (self.self_s["family_analysis"] * per, "s")

        bb_nodes = bb_s = 0.0
        for key in ("ell1", "ell2plus"):
            _, s, nodes = self.keyed.get(("search_engine.max_product_bb", key), (0, 0.0, 0))
            m[f"search_engine.bb.nodes_per_s.{key}"] = (nodes / s if s else 0.0, "1/s")
            bb_nodes += nodes
            bb_s += s
        m["search_engine.bb.nodes"] = (bb_nodes * per, "count")
        m["search_engine.bb.s"] = (bb_s * per, "s")
        _, naive_s, naive_nodes = self.keyed.get(("search_engine.max_product_naive", "all"), (0, 0.0, 0))
        m["search_engine.naive.nodes"] = (naive_nodes * per, "count")
        m["search_engine.naive.s"] = (naive_s * per, "s")
        m["search_engine.certify.s"] = (seconds("search_engine.certify"), "s")
        m["search_engine.pool_build.s"] = (sum(self.incl[f] for f in self.pool_fids) * per, "s")
        m["search_engine.self_s"] = (self.self_s["search_engine"] * per, "s")

        for layer in LAYERS:
            m[f"{layer}.raised"] = (self.raised[layer] * per, "count")
        m["trace.overhead"] = (overhead, "ratio")
        return m

    def shares(self) -> dict[str, float]:
        total = sum(self.self_s.values())
        return {layer: self.self_s[layer] / total if total else 0.0 for layer in LAYERS}

    def write(self, path) -> None:
        """Spans as tab-separated lines, times in microseconds from the first
        span."""
        origin = self.spans[0][4] if self.spans else 0.0
        with open(path, "w") as out:
            out.write("job\tspan\tparent\tname\tstart_us\tend_us\n")
            for job, sid, parent, fid, start, end in self.spans:
                out.write(
                    f"{job}\t{sid}\t{parent}\t{self.names[fid]}\t"
                    f"{(start - origin) * 1e6:.1f}\t{(end - origin) * 1e6:.1f}\n"
                )
