"""One benchmark repetition: a fresh process that runs a workload's job list once.

    python3 perfbench/child.py --workload NAME --seed N [--trace] [--setup-only]

`run.py` starts it with `PYTHONPATH` pointing at the checkout's `src`.  It
imports `ribbonvol.cli`, notes the moment the CLI is ready, then calls
`ribbonvol.cli.main(argv)` for each job with stdout captured.  The last line
of its standard output is one JSON object: the ready time, the pass's wall
and CPU seconds, peak RSS, and per job its wall and CPU seconds, the
seconds of the calibration loop run next to it (`calibrate.py`), the exit
code, the sha256 and size of the captured output and the fields that
`run.py` checks.  With `--trace` the
pass runs under `spans.Tracer` and the object also carries the per-layer
metrics.  `--setup-only` stops after the import.
"""

import time

import ribbonvol.cli  # set-up ends when this import returns

READY = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import calibrate  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _summary(text: str) -> dict:
    """The checked fields of one JSON output; empty when it is not JSON."""
    try:
        payload = json.loads(text)
    except ValueError:
        return {}
    keys = ("command", "count", "graphs", "trials", "seed", "equal", "ok",
            "intersections")
    return {k: payload[k] for k in keys if k in payload}


def run_jobs(jobs: list) -> tuple:
    """Run every job through the CLI; return (wall seconds, cpu seconds, job results).

    Each job's output is reduced to its digest, size and summary as soon as
    the job returns, so that no output is held across jobs.  The pass's
    seconds are the sums of the jobs', which exclude that reduction and the
    calibration.  The calibration loop runs before the first job and after
    every job; a job's `cal_s` is the mean of the two runs around it.
    """
    out = []
    calibrate.seconds()  # untimed: the loop's first run is slower
    cal_before = calibrate.seconds()
    for argv in jobs:
        buf = io.StringIO()
        error = None
        start, cpu_start = time.perf_counter(), _cpu_seconds()
        try:
            with contextlib.redirect_stdout(buf):
                code = ribbonvol.cli.main(list(argv))
        except Exception:  # a raising job is a failed job, not a failed run
            code = None
            error = traceback.format_exc(limit=3)
        wall, cpu = time.perf_counter() - start, _cpu_seconds() - cpu_start
        text = buf.getvalue()
        del buf  # free each copy of the output before the next job runs
        data = text.encode("utf-8")
        cal_after = calibrate.seconds()
        out.append({
            "argv": argv,
            "wall_s": wall,
            "cpu_s": cpu,
            "cal_s": (cal_before + cal_after) / 2,
            "exit": code,
            "sha256": hashlib.sha256(data).hexdigest(),
            "bytes": len(data),
            "summary": _summary(text),
            "error": error,
        })
        del text, data
        cal_before = cal_after
    return sum(j["wall_s"] for j in out), sum(j["cpu_s"] for j in out), out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    result = {"ready": READY}
    if not args.setup_only:
        tracer = None
        if args.trace:
            tracer = spans.Tracer()
            tracer.install()
        wall, cpu, jobs = run_jobs(workloads.jobs(args.workload, args.seed))
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result.update(wall_s=wall, cpu_s=cpu, peak_rss_mb=rss_mb, jobs=jobs)
        if tracer is not None:
            cache = tracer.original("ribbonvol.volumes", "kontsevich_volume")
            result["layers"] = spans.layer_metrics(
                tracer, cache.cache_info(), sum(j["bytes"] for j in jobs))
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
