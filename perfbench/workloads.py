"""The benchmark's workloads: fixed lists of `ribbonvol` CLI argument vectors.

Each workload is run as one pass over its job list in a fresh process, in
the order given.  Why each workload exists, which layer it stresses and
which it bypasses, is recorded in README.md next to this file.
"""

from __future__ import annotations


def _threes(k: int) -> str:
    return ",".join(["3"] * k)


def jobs(workload: str, seed: int) -> list:
    """The argv list of every job of `workload`; `seed` reaches only `--seed`."""
    if workload == "enumerate":
        # Genus 2 with one face is pairing-heavy (every pairing is a
        # candidate, few classes); five faces are labelling-heavy (120
        # labellings per unlabelled map).  Together they show a change that
        # helps one regime at the other's cost.
        return [
            ["enumerate", "--g", "2", "--n", "1", "--degrees", _threes(6)],
            ["enumerate", "--g", "2", "--n", "1", "--degrees", "4,3,3,3,3"],
            ["enumerate", "--g", "1", "--n", "3", "--degrees", _threes(6)],
            ["enumerate", "--g", "0", "--n", "5", "--degrees", "4,4,4"],
            ["enumerate", "--g", "0", "--n", "5", "--degrees", "5,5"],
            ["enumerate", "--g", "1", "--n", "2", "--degrees", "5,3"],
        ]
    if workload == "volumes":
        # The order is part of the workload: kontsevich_volume is an
        # lru_cache, so later jobs reuse sub-results of earlier ones.
        return [
            ["volume", "--g", "0", "--n", "6"],
            ["psi", "--g", "1", "--n", "4"],
            ["volume", "--g", "2", "--n", "3"],
            ["psi", "--g", "3", "--n", "1"],
            ["volume", "--g", "1", "--n", "5"],
        ]
    if workload == "formula":
        s = str(seed)
        return [
            ["verify-kcf", "--g", "0", "--n", "4", "--trials", "30", "--seed", s],
            ["verify-kcf", "--g", "1", "--n", "3", "--trials", "30", "--seed", s],
            ["identities", "--g", "1", "--n", "2"],
            ["identities", "--g", "0", "--n", "4"],
            ["witten12"],
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("enumerate", "volumes", "formula")
