"""crossfam benchmark: seeded CLI job lists, timed end to end, every answer
checked afterwards by code that does not import crossfam.

    python3 perfbench/run.py --workload search --seed 1 --seconds 20 --trace 0

One client runs jobs back to back in one process and thread (a closed loop,
like a library user scripting a study).  Each job is one call to
``crossfam.cli.main(argv, out=buffer)``, so argument parsing, file reads,
digests and JSON output are all timed.  A run repeats rounds, each a freshly
generated job list, until the timed work reaches ``--seconds``.

Times are reported at a fixed machine speed.  Right before each round a
fixed computation of the benchmark's own, the gauge, is timed, and the
round's times are scaled by GAUGE_NOMINAL_S / gauge time; each set-up sample
is scaled the same way by the start-up time of a bare interpreter.  On a
shared machine the speed of one core drifts by tens of percent within
minutes; the scaled times do not.  Raw times are printed alongside.

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` every round runs once untraced and once under the outside-in
tracer (in alternating order) and the last line reports per-layer metrics
and the tracing overhead.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import os
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stderr
from itertools import combinations
from pathlib import Path
from time import perf_counter

import gfp
import spans
from workloads import WORKLOADS, Mismatch, Round

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 9
SPAN_CAP = 50_000
ELAPSED = re.compile(rb'"elapsed_s": [0-9.eE+-]+')

# The gauge's time, and the start-up time of a bare interpreter, on one
# uncontended core of the machine the benchmark was written on; reported
# seconds are seconds at that speed.
GAUGE_NOMINAL_S = 0.005
BARE_START_NOMINAL_S = 0.05


class Gauge:
    """A fixed computation in the same style as the program's inner loops
    (GF(p) row reduction, small tuple sums), timed to measure the current
    speed of the machine."""

    def __init__(self):
        rng = random.Random(0)
        self.matrices = [
            ([gfp.random_vector(rng, 6, p) for _ in range(5)], p) for p in (2, 3) for _ in range(60)
        ]
        self.weights = [[rng.randrange(4) for _ in range(14)] for _ in range(14)]

    def _once(self) -> float:
        start = perf_counter()
        for rows, p in self.matrices:
            gfp.rref(rows, p)
        w = self.weights
        for cols in combinations(range(14), 2):
            sorted(sum(w[i][j] for i in cols) for j in range(14))
        return perf_counter() - start

    def scale(self) -> float:
        """Factor that turns seconds measured now into seconds at nominal
        speed; the median of three gauge timings."""
        return GAUGE_NOMINAL_S / statistics.median(self._once() for _ in range(3))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_cli():
    """Import crossfam from this checkout's source tree, never from an
    installed copy."""
    if not (SRC / "crossfam" / "cli.py").is_file():
        sys.exit(f"perfbench: no crossfam sources under {SRC}")
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("crossfam.cli")
    if Path(cli.__file__).resolve().parent != SRC / "crossfam":
        sys.exit(f"perfbench: crossfam imported from {cli.__file__}, not {SRC}")
    return cli


def measure_setup() -> tuple[list[float], list[float]]:
    """Seconds from starting a fresh interpreter to ``import crossfam.cli``
    done (process exit included), one sample per interpreter, raw and at
    nominal speed.  Each sample is paired with the start of a bare
    interpreter right before it, which scales it: process start-up drifts
    with the machine like the import does, and unlike the in-process gauge.
    A first, untimed import writes the bytecode caches."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))

    def seconds(code: str) -> float:
        start = perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True)
        return perf_counter() - start

    seconds("import crossfam.cli")
    raw, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        bare = seconds("pass")
        raw.append(seconds("import crossfam.cli"))
        scaled.append(raw[-1] * BARE_START_NOMINAL_S / bare)
    return raw, scaled


def build_round(workload: str, seed: int, index: int, work: Path) -> Round:
    rng = random.Random(f"{workload}:{seed}:{index}")
    rnd = Round(rng, work / f"r{index}", ROOT)
    WORKLOADS[workload](rnd)
    return rnd


def run_jobs(cli, rnd: Round, tracer=None):
    """Run the round's jobs; returns job seconds, (exit code, stdout) per
    job, and the wall time of the whole list."""
    times, outputs = [], []
    with redirect_stderr(io.StringIO()):
        start = perf_counter()
        for job in rnd.jobs:
            buf = io.StringIO()
            if tracer is not None:
                tracer.job += 1
            t0 = perf_counter()
            try:
                code = cli.main(job.argv, out=buf)
            except Exception as exc:  # a crash is a wrong answer, not the end of the run
                code = f"raised {type(exc).__name__}: {exc}"
            times.append(perf_counter() - t0)
            outputs.append((code, buf.getvalue()))
        wall = perf_counter() - start
    return times, outputs, wall


def check_answers(rnd: Round, outputs) -> list[str]:
    failures = []
    for job, (code, out) in zip(rnd.jobs, outputs):
        try:
            job.check(code, out)
        except Mismatch as exc:
            failures.append(f"{' '.join(job.argv)}: {exc}")
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            failures.append(f"{' '.join(job.argv)}: unreadable output ({exc!r})")
    return failures


def inputs_digest(rnd: Round) -> str:
    h = hashlib.sha256()
    for path, text in rnd.files:
        h.update(f"{path}\0{text}\0".encode())
    for job in rnd.jobs:
        h.update(("\0".join(job.argv) + "\n").encode())
    return h.hexdigest()


def reports_digest(rnd: Round, outputs) -> str:
    """Exit codes and report bodies with the manifest timing removed: the
    part of the output later changes promise to keep byte-identical."""
    h = hashlib.sha256()
    for job, (code, out) in zip(rnd.jobs, outputs):
        h.update(("\0".join(job.argv) + f"\0{code}\0").encode())
        h.update(ELAPSED.sub(b'"elapsed_s": -', out.encode()))
    return h.hexdigest()


def combined(digests: list[str]) -> str:
    return hashlib.sha256("".join(digests).encode()).hexdigest()[:16]


def run(args, cli) -> dict:
    work = OUT / f"{args.workload}-s{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    gauge = Gauge()
    setup_raw, setup = ([], []) if args.trace else measure_setup()
    tracer = spans.Tracer(SPAN_CAP) if args.trace else None
    walls = {False: [], True: []}
    raw_walls: list[float] = []
    job_times: list[float] = []
    failures: list[str] = []
    in_digests, out_digests = [], []
    attempted = traced_jobs = traced_bytes = 0
    timed = 0.0
    index = 0
    try:
        while timed < args.seconds:
            rnd = build_round(args.workload, args.seed, index, work)
            in_digests.append(inputs_digest(rnd))
            modes = [False] if tracer is None else ([False, True] if index % 2 == 0 else [True, False])
            bodies = {}
            for traced in modes:
                scale = gauge.scale()
                if traced:
                    tracer.scale = scale
                    tracer.install()
                try:
                    times, outputs, wall = run_jobs(cli, rnd, tracer if traced else None)
                finally:
                    if traced:
                        tracer.uninstall()
                timed += wall
                walls[traced].append(wall * scale)
                attempted += len(outputs)
                if traced:
                    traced_jobs += len(outputs)
                    traced_bytes += sum(len(out.encode()) for _, out in outputs)
                else:
                    raw_walls.append(wall)
                    job_times += [t * scale for t in times]
                failures += check_answers(rnd, outputs)
                bodies[traced] = reports_digest(rnd, outputs)
            if len(set(bodies.values())) != 1:
                failures.append(f"round {index}: traced and untraced reports differ")
            out_digests.append(bodies[False])
            shutil.rmtree(rnd.directory)
            index += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload={args.workload} seed={args.seed} rounds={index} "
          f"jobs_per_round={len(rnd.jobs)} jobs={attempted}")
    print(f"inputs sha256: round0={in_digests[0][:16]} all={combined(in_digests)}")
    print(f"reports sha256 (elapsed_s stripped): round0={out_digests[0][:16]} "
          f"all={combined(out_digests)}")
    for message in failures[:10]:
        print(f"FAILED {message}", file=sys.stderr)

    if tracer is None:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "wall_s": (statistics.median(walls[False]), "s"),
            "job_ms_p50": (statistics.median(job_times) * 1e3, "ms"),
            "job_ms_p90": (statistics.quantiles(job_times, n=10)[8] * 1e3, "ms"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (rss_kib / 1024, "MB"),
        }
        shown = dict(metrics)
        shown["failed_frac"] = (len(failures) / attempted, "ratio")
        print(" | ".join(f"{k} {v:.6g} {u}" for k, (v, u) in shown.items())
              + f" | job samples {len(job_times)}")
        print(f"raw (unscaled): wall_s {statistics.median(raw_walls):.6g} s | "
              f"setup_s {statistics.median(setup_raw):.6g} s")
    else:
        overhead = statistics.median(walls[True]) / statistics.median(walls[False])
        metrics = tracer.metrics(len(walls[True]), traced_jobs, traced_bytes, overhead)
        shares = " ".join(f"{k} {v:.1%}" for k, v in tracer.shares().items())
        print(f"self-time shares: {shares}")
        print(f"trace overhead {overhead:.3f} (traced/untraced wall_s); "
              f"spans kept {len(tracer.spans)}, dropped {tracer.dropped}")
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}.tsv")

    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> None:
    args = parse_args(argv)
    os.chdir(ROOT)
    cli = import_cli()
    result = run(args, cli)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
