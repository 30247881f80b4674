"""Run the benchmark once per seed and summarize each metric.

    python3 perfbench/repeat.py --workload search --seeds 1-10 --seconds 20
    python3 perfbench/repeat.py --workload lemmas --workload search \
        --seeds 1-10 --seconds 20 --out perfbench/baseline.json

Runs are sequential.  For every workload and metric it prints the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median, which is what each
metric's bound in BENCHMARK.json is compared against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seed_list(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "values": values,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=seed_list, required=True, help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write the summary as JSON")
    args = parser.parse_args()

    report = {}
    ok = True
    for workload in args.workload:
        metrics: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        failed = attempted = 0
        for seed in args.seeds:
            argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(argv, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
            result = json.loads(proc.stdout.splitlines()[-1])
            ok &= result["correct"]
            failed += result["failed"]
            attempted += result["attempted"]
            for name, m in result["metrics"].items():
                metrics.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        report[workload] = {
            "seeds": args.seeds,
            "attempted": attempted,
            "failed": failed,
            "metrics": {n: {"unit": units[n], **summarize(v)} for n, v in metrics.items()},
        }
        for name, s in report[workload]["metrics"].items():
            print(f"  {name:48s} median {s['median']:.6g} {s['unit']:6s} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.2%}")
    if args.out:
        args.out.write_text(json.dumps({"seconds": args.seconds, "trace": args.trace,
                                        "workloads": report}, indent=1) + "\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
