"""Record `reference.json`: the expected output of every benchmark job.

    python3 perfbench/record_reference.py

Runs each workload once in a child process and stores, per job, the exit
code, the checked output fields and, for every job whose output does not
depend on the seed, the sha256 of its standard output.  Run it only at a
commit whose outputs are known to be right; the benchmark then flags any
later change of output as a failed job.
"""

import json
import sys
import time

import run
import workloads

SEED = 0


def expectations(jobs: list) -> list:
    out = []
    for job in jobs:
        summary = {k: v for k, v in job["summary"].items() if k != "seed"}
        ref = {"argv": job["argv"], "exit": job["exit"], "summary": summary}
        if "--seed" not in job["argv"]:
            ref["sha256"] = job["sha256"]
        out.append(ref)
    return out


def main() -> int:
    reference = {}
    for name in workloads.WORKLOADS:
        result, _ = run.spawn(name, SEED, time.perf_counter() + run.DEADLINE_S)
        if any(job["error"] for job in result["jobs"]):
            print(f"error: a {name} job raised", file=sys.stderr)
            return 1
        reference[name] = expectations(result["jobs"])
    with open(run.HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
