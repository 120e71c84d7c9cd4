"""Run the benchmark on several seeds and write `BENCH_<label>.json`.

    python3 perfbench/collect.py --label seed

For each workload of BENCHMARK.json it makes `RUNS` untraced runs, each
with another seed, and one traced run, through the command in
BENCHMARK.json.  It records per end-to-end metric the median, the quartiles and their
spread (the distance between the quartiles as a share of the median), the
per-layer medians of the traced run, and every run's raw result, then
prints one line per metric with its spread against its bound.  The file is
written next to this script.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10  # seeds per workload, as many as the acceptance check uses


def one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300,
                          check=True)
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def describe(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "n": len(values), "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args()
    seconds = spec["run_seconds"]
    out = {"label": args.label, "run_seconds": seconds, "workloads": {}}
    for name in (w["name"] for w in spec["workloads"]):
        runs = [one_run(name, seed, seconds, 0) for seed in range(1, RUNS + 1)]
        record, traced = one_run(name, 1, seconds, 1)
        out["machine"] = record["machine"]
        end_to_end = {}
        for metric in spec["end_to_end"]:
            stats = describe([r[1]["metrics"][metric["name"]]["value"] for r in runs])
            end_to_end[metric["name"]] = {"unit": metric["unit"], **stats}
            print(f"{name:10s} {metric['name']:12s} median {stats['median']:10.4f} "
                  f"{metric['unit']:3s} spread {stats['spread']:.4f} "
                  f"(bound {metric['bound']})")
        out["workloads"][name] = {
            "correct": all(r[1]["correct"] for r in runs) and traced["correct"],
            "attempted": sum(r[1]["attempted"] for r in runs) + traced["attempted"],
            "failed": sum(r[1]["failed"] for r in runs) + traced["failed"],
            "end_to_end": end_to_end,
            "per_layer": traced["metrics"],
            "runs": [{"seed": seed, "record": rec, "result": res}
                     for seed, (rec, res) in enumerate(runs, 1)]
                    + [{"seed": 1, "record": record, "result": traced}],
        }
    path = HERE / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
