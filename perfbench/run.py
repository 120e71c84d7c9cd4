"""The ribbonvol benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every repetition is a fresh process
(`child.py`) that imports `ribbonvol.cli` from the checkout's `src` and runs
the workload's job list once, so program caches start cold as they do for
every CLI call.  Repetitions run one at a time.  A run first starts one
untimed warm-up process (which also writes the `.pyc` files), then a fixed
number of repetitions (see `repetitions`), each after a few import-only
processes for `setup_s`.  Every job's output is checked against
`reference.json`.

Times are reported in reference seconds (see `calibrate.py`): every timed
job and set-up probe runs next to a fixed calibration loop, and its time is
divided by the loop's and multiplied by `calibrate.REF_S`.  That removes
the host's changes of speed, which are larger than the program's.

With `--trace 0` the run reports the end-to-end metrics of BENCHMARK.json:
wall and CPU seconds of one pass (see `ref_pass`), and the medians of
set-up time and peak RSS.  With `--trace 1` it alternates untraced
and traced repetitions and reports the per-layer metrics as medians over
the traced ones; `bench.trace_overhead_s` is the traced minus the untraced
`wall_s`.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the line before it
records the machine, the commit and every repetition's raw values.

Exit code 2, with no result line, when the program cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 2  # import-only processes before each repetition
DEADLINE_S = 170.0  # a run must end within 180 s
# Seconds of one untraced repetition of each workload, with its set-up
# probe, on the reference machine when the benchmark was added.  They fix
# the number of repetitions per run, so that every commit's estimate is
# taken over the same number of samples whatever its speed.
REP_S = {"enumerate": 1.2, "volumes": 1.3, "formula": 1.9}


def child_env() -> dict:
    """The pinned environment of every child process."""
    env = dict(os.environ)
    env.pop("MODULI_THREADS", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # the warm-up writes the .pyc files
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def machine_stamp(seed: int) -> dict:
    model = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "commit": git_commit(ROOT),
            "seed": seed}


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from `.git` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class ChildFailed(Exception):
    pass


def setup_probe(workload: str, seed: int, deadline: float) -> float:
    """Reference seconds from spawning an import-only child to its CLI being ready."""
    before = calibrate.seconds()
    setup = spawn(workload, seed, deadline, "--setup-only")[1]
    after = calibrate.seconds()
    return setup / ((before + after) / 2) * calibrate.REF_S


def spawn(workload: str, seed: int, deadline: float, *flags) -> tuple:
    """Run one child; return (its result object, seconds from spawn to CLI ready)."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), *flags]
    timeout = max(1.0, deadline - time.perf_counter())
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"child timed out after {timeout:.0f} s") from exc
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    return result, result["ready"] - t0


def check_jobs(jobs: list, expected: list, seed: int, first: list) -> int:
    """Number of failed jobs of one repetition.

    A job fails when it raised, its exit code or a checked output field
    differs from the reference, a deterministic job's sha256 differs from
    the reference, or its output differs from the same job in the run's
    first repetition (which covers seeded jobs and traced repetitions).
    """
    if len(jobs) != len(expected):
        return len(expected)
    failed = 0
    for k, (job, ref) in enumerate(zip(jobs, expected)):
        summary = job["summary"]
        bad = (job["error"] is not None
               or job["exit"] != ref["exit"]
               or ("sha256" in ref and job["sha256"] != ref["sha256"])
               or any(summary.get(key) != value for key, value in ref["summary"].items())
               or ("seed" in summary and summary["seed"] != seed)
               or (bool(first) and job["sha256"] != first[k]["sha256"]))
        failed += bad
    return failed


def repetitions(workload: str, seconds: float, trace: bool) -> int:
    """Repetitions of one run: as many as fit in `seconds` on the reference machine.

    The count depends on `seconds` and the workload only, never on how fast
    the program or the host is.  A traced run needs one repetition of each kind.
    """
    return max(2 if trace else 1, round(seconds / REP_S[workload]))


def load_reference(workload: str) -> list:
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)[workload]


def run(workload: str, seed: int, seconds: float, trace: bool, expected=None) -> dict:
    """Warm up, then make `repetitions(workload, seconds, trace)` repetitions,
    checking each job against `expected` (default: reference.json)."""
    deadline = time.perf_counter() + DEADLINE_S
    if expected is None:
        expected = load_reference(workload)
    # Warm-up: compiles .pyc files so that set-up time excludes compilation.
    spawn(workload, seed, deadline, "--setup-only")
    calibrate.seconds()  # untimed: the loop's first run is slower

    setups = []
    reps = []
    attempted = failed = 0
    first = []
    for k in range(repetitions(workload, seconds, trace)):
        setups += [setup_probe(workload, seed, deadline) for _ in range(SETUP_PROBES)]
        traced = trace and k % 2 == 1
        flags = ("--trace",) if traced else ()
        try:
            result = spawn(workload, seed, deadline, *flags)[0]
        except ChildFailed as exc:
            print(f"repetition failed: {exc}", file=sys.stderr)
            attempted += len(expected)
            failed += len(expected)
            break
        jobs = result["jobs"]
        bad = check_jobs(jobs, expected, seed, first)
        first = first or jobs
        attempted += len(expected)
        failed += bad
        reps.append({"traced": traced, "wall_s": result["wall_s"],
                     "cpu_s": result["cpu_s"], "peak_rss_mb": result["peak_rss_mb"],
                     "job_wall_s": [j["wall_s"] for j in jobs],
                     "job_cpu_s": [j["cpu_s"] for j in jobs],
                     "job_cal_s": [j["cal_s"] for j in jobs],
                     "failed": bad, "layers": result.get("layers")})
    return {"setups": setups, "reps": reps, "attempted": attempted, "failed": failed}


def ref_pass(reps: list, key: str) -> float:
    """Reference seconds of one pass: the sum over jobs of the median over
    repetitions of the job's time divided by its calibration loop's time,
    times `calibrate.REF_S`.

    The host switches between speed modes that differ by up to 1.6x, for a
    fraction of a second to minutes.  The ratio to the loop run next to the
    job stays the same in either mode, and the median over repetitions
    drops the few repetitions in which the mode changed during a job.
    """
    per_job = zip(*([t / c for t, c in zip(r[key], r["job_cal_s"])] for r in reps))
    return sum(statistics.median(ratios) for ratios in per_job) * calibrate.REF_S


def end_to_end(outcome: dict) -> dict:
    plain = [r for r in outcome["reps"] if not r["traced"]]
    return {"wall_s": ref_pass(plain, "job_wall_s"),
            "cpu_s": ref_pass(plain, "job_cpu_s"),
            "setup_s": statistics.median(outcome["setups"]),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain)}


def layer_value(rep: dict, key: str) -> float:
    """A traced repetition's layer metric; times in reference seconds, scaled
    by the median calibration loop of the repetition."""
    value = rep["layers"][key]
    if key.endswith("_s"):
        value *= calibrate.REF_S / statistics.median(rep["job_cal_s"])
    return value


def per_layer(outcome: dict) -> dict:
    plain = [r for r in outcome["reps"] if not r["traced"]]
    traced = [r for r in outcome["reps"] if r["traced"]]
    values = {}
    for key in traced[0]["layers"] if traced else ():
        values[key] = statistics.median(layer_value(r, key) for r in traced)
    if traced and plain:
        values["bench.trace_overhead_s"] = (ref_pass(traced, "job_wall_s")
                                            - ref_pass(plain, "job_wall_s"))
    values["bench.error_rate"] = outcome["failed"] / max(outcome["attempted"], 1)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ribbonvol" / "cli.py").is_file():
        print(f"error: no ribbonvol sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    try:
        outcome = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not outcome["reps"]:
        print("error: no repetition completed", file=sys.stderr)
        return 2

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = per_layer(outcome) if args.trace else end_to_end(outcome)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    record = {"workload": args.workload, "trace": args.trace,
              "machine": machine_stamp(args.seed), **outcome}
    print(json.dumps(record))
    print(json.dumps({"correct": outcome["failed"] == 0, "attempted": outcome["attempted"],
                      "failed": outcome["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
