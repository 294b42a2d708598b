"""Steadiness study: repeat ``run.py`` over seeds and summarize the spread.

    python3 perfbench/study.py --label set1 --seeds 1-10 [--workload all-d2 ...]

For every workload, runs ``run.py --trace 0`` once per seed, one run after
the other, each for BENCHMARK.json's ``run_seconds``, and prints for each
end-to-end metric the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread ``(q3 - q1) / median``.  Every run's result line and the summary are kept
in ``perfbench/out/study-<label>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS, benchmark

HERE = Path(__file__).resolve().parent


def _seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args()
    seconds = benchmark()["run_seconds"]
    runs: dict[str, list[dict]] = {}
    summary: dict[str, dict] = {}
    for name in args.workload or list(WORKLOADS):
        runs[name] = []
        for seed in _seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"]
            done = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, check=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            runs[name].append({"seed": seed, **result})
            print(name, seed, {k: round(v["value"], 4) for k, v in result["metrics"].items()},
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        metrics = runs[name][0]["metrics"]
        summary[name] = {m: summarize([r["metrics"][m]["value"] for r in runs[name]]) for m in metrics}
        summary[name]["failed_share"] = sorted({r["failed"] / r["attempted"] for r in runs[name]})
        for metric, figures in summary[name].items():
            print(name, metric, figures, flush=True)
    out = HERE / "out" / f"study-{args.label}.json"
    out.write_text(json.dumps({"seconds": seconds, "summary": summary, "runs": runs}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
