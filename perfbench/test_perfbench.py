"""Tests of the benchmark itself: output checks, traced counts, trace coverage.

    python3 -m pytest perfbench

Each (workload, traced) pass runs once per session and is shared by the
tests.
"""

import subprocess
import sys
import time

import pytest

import calibrate
import run
import spans
import workloads

SEED = 11
_PASSES = {}


def one_pass(workload: str, traced: bool) -> dict:
    key = (workload, traced)
    if key not in _PASSES:
        flags = ("--trace",) if traced else ()
        deadline = time.perf_counter() + run.DEADLINE_S
        _PASSES[key] = run.spawn(workload, SEED, deadline, *flags)[0]
    return _PASSES[key]


def reference(workload: str) -> list:
    return run.load_reference(workload)


def cli_count(jobs: list) -> int:
    """Classes the CLI reports: `count` of enumerate, `graphs` elsewhere."""
    return sum(j["summary"].get("count", j["summary"].get("graphs", 0)) for j in jobs)


def test_reference_holds_the_known_answers():
    counts = [r["summary"]["count"] for r in reference("enumerate")]
    assert counts == [9, 29, 236, 540, 432, 8]
    kcf04, kcf13, ident12, ident04, witten = reference("formula")
    assert kcf04["summary"] == {"command": "verify-kcf", "graphs": 64, "trials": 30,
                                "equal": True}
    assert kcf13["summary"]["graphs"] == 236 and kcf13["summary"]["equal"] is True
    assert "sha256" not in kcf04 and "sha256" not in kcf13  # they depend on the seed
    assert ident12["summary"]["graphs"] == 9 and ident12["summary"]["ok"] is True
    assert ident04["summary"]["graphs"] == 64 and ident04["summary"]["ok"] is True
    assert witten["summary"]["ok"] is True
    assert witten["summary"]["intersections"] == {"psi1": "1", "psi2": "1"}
    for name in workloads.WORKLOADS:
        refs = reference(name)
        assert [r["argv"] for r in refs] == workloads.jobs(name, 0)
        assert all(r["exit"] == 0 for r in refs)
        assert all("sha256" in r for r in refs if "--seed" not in r["argv"])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_outputs_match_untraced_and_reference(workload):
    plain = one_pass(workload, False)["jobs"]
    traced = one_pass(workload, True)["jobs"]
    expected = reference(workload)
    assert run.check_jobs(plain, expected, SEED, []) == 0
    assert run.check_jobs(traced, expected, SEED, plain) == 0
    assert [j["sha256"] for j in traced] == [j["sha256"] for j in plain]


def test_ref_pass_cancels_host_speed():
    # The same two jobs in a normal, a 1.5x slower and a 1.25x faster mode of
    # the host, the last with its mode changing during the second job.
    reps = [{"job_wall_s": [0.2, 0.5], "job_cal_s": [0.010, 0.010]},
            {"job_wall_s": [0.3, 0.75], "job_cal_s": [0.015, 0.015]},
            {"job_wall_s": [0.16, 0.6], "job_cal_s": [0.008, 0.009]}]
    expected = (0.2 + 0.5) / 0.010 * calibrate.REF_S
    assert run.ref_pass(reps, "job_wall_s") == pytest.approx(expected)


def test_tampered_reference_raises_error_rate():
    tampered = reference("volumes")
    tampered[2]["sha256"] = "0" * 64
    outcome = run.run("volumes", SEED, 0, False, expected=tampered)
    assert outcome["attempted"] == 5 and outcome["failed"] == 1
    assert run.per_layer(outcome)["bench.error_rate"] > 0


def test_enumerate_counts_and_predicted_zeros():
    result = one_pass("enumerate", True)
    layers = result["layers"]
    assert layers["ribbon.classes"] == cli_count(result["jobs"]) == 1254
    assert layers["ribbon.enumerate_calls"] == 6
    assert layers["exact.poly.integrate_calls"] == 0
    assert layers["exact.linalg.calls"] == 0
    assert layers["volumes.kontsevich_volume_calls"] == 0


def test_volumes_cache_counts_and_predicted_zeros():
    layers = one_pass("volumes", True)["layers"]
    assert layers["volumes.cache_misses"] > 0 and layers["volumes.cache_hits"] > 0
    assert (layers["volumes.cache_hits"] + layers["volumes.cache_misses"]
            == layers["volumes.kontsevich_volume_calls"])
    ribbon = {k: v for k, v in layers.items() if k.startswith("ribbon.")}
    assert ribbon and not any(ribbon.values())
    assert layers["exact.linalg.calls"] == 0
    assert layers["exact.poly.integrate_calls"] > 0


def test_formula_counts():
    result = one_pass("formula", True)
    layers, jobs = result["layers"], result["jobs"]
    assert layers["ribbon.classes"] == cli_count(jobs)
    assert layers["kformula.points"] == sum(j["summary"].get("trials", 0) for j in jobs)
    assert layers["kformula.terms_per_point"] == (64 + 236) / 2
    assert layers["exact.linalg.pfaffian_calls"] > 0
    assert layers["wittencycle.cell_volume_laplace_calls"] == 8
    assert (layers["volumes.cache_hits"] + layers["volumes.cache_misses"]
            == layers["volumes.kontsevich_volume_calls"])


def test_install_replaces_every_binding():
    code = ("import spans, sys\n"
            "t = spans.Tracer(); t.install()\n"
            "originals = {id(f) for f in t._originals.values()}\n"
            "mods = [mod for m, mod in list(sys.modules.items())\n"
            "        if m == 'ribbonvol' or m.startswith('ribbonvol.')]\n"
            "owners = mods + [v for mod in mods for v in vars(mod).values()\n"
            "                 if isinstance(v, type)]\n"
            "left = [f'{o.__name__}.{k}' for o in owners\n"
            "        for k, v in vars(o).items() if id(v) in originals]\n"
            "print(len(t._originals), left)\n")
    proc = subprocess.run([sys.executable, "-c", code], cwd=run.HERE, env=run.child_env(),
                          capture_output=True, text=True, timeout=60, check=True)
    count, left = proc.stdout.split(" ", 1)
    assert int(count) == len(spans.SPANS) + len(spans.COUNTED)
    assert left.strip() == "[]"
