"""Checks at sizes the Tier-1 suite cannot afford.  Run them as

    PYTHONPATH=src:tests python -m pytest -q --durations=0 scale/

from the root of the repository.  They sit outside pyproject's `testpaths`,
so the Tier-1 command collects nothing here; tests/test_scripts.py imports
this module, so a renamed helper fails Tier-1 too.

Every command runs in a child process through `child_usage.run_measured`,
which reads that child's own CPU time and peak RSS.  The table `RUNS` holds
each command's argv and what its output must be; `test_command_at_scale`
checks every row.  The rest run in this process: the map counts and calls
of the pairing search, the orbit-counting identity on two mixed-run types,
chi(M_{g,n}) summed over every cell, and the order of the psi numbers.
"""

import hashlib
import json
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, prod

import pytest

import oracle_ribbon
from child_usage import run_measured
from oracle_volumes import kdv_tau
from psi_order import in_lexicographic_order
from ribbon_counts import (
    euler_sum,
    euler_terms,
    harer_zagier,
    rec_calls,
    rooted_unicellular_cubic_maps,
)
from ribbonvol.ribbon import _unlabelled_maps, enumerate_graphs


@pytest.mark.parametrize("n,maps,calls,emitted", [
    (1, 1726, 176262, 50050), (3, 13448, 157200, 32278)])
def test_trivalent_map_counts_and_search_calls(n, maps, calls, emitted):
    """The trivalent (3,1) and (2,3) map counts of ROADMAP's table, which no
    Tier-1 test reaches: a one-face type, where the shortest-face rule
    prunes nothing, and a three-face one, where it prunes most pairings.

    Then the calls of the pairing search's recursion `rec` on both, counted
    as tests/test_ribbon.py counts them: the face-count bound at the
    candidate keeps them at 176 262 and 284 550 (298 208 and 409 402 when
    the callee checked the count), and on (2,3), where every face is a top
    face, the bound on the root path by the open faces' share of the darts
    off closed faces takes them to 157 200.

    The pairings the (3,1) search emits are the rooted one-face cubic maps
    of genus 3, Walsh and Lehman's 2(6g-3)!/(12^g g!(3g-2)!) = 50 050;
    (2,3) emits 32 278, sum e / |Aut U| over its maps (ROADMAP direction
    19).  About 7 CPU s together."""
    degrees = [3] * 10
    assert len(_unlabelled_maps(degrees, n)) == maps
    assert rec_calls(degrees, n) == (calls, emitted)
    if n == 1:
        assert rooted_unicellular_cubic_maps(3) == emitted


@pytest.mark.parametrize("g,n,degrees,classes", [
    (1, 3, [4, 4, 3, 3], 864), (0, 5, [4, 4, 3, 3], 6480)])
def test_mixed_degree_runs_reach_the_orbit_count(g, n, degrees, classes):
    """The orbit-counting identity of tests/test_ribbon.py on the two
    mixed-run layouts too slow for the suite: sum over classes of
    (2E)!/|Aut| against the oracle's count of labelled permutation triples
    over all involutions, which shares no search with `enumerate`.  A
    search that ended a branch once the smallest unpaired slot lay on an
    unused vertex found 738 and 4920 of the 864 and 6480 classes.  About
    6 CPU s, most in the oracle's walk over the 13!! pairings."""
    found = enumerate_graphs(g, n, degrees)
    assert len(found) == classes
    mass = sum(factorial(sum(degrees)) // aut for _, aut in found)
    assert mass == oracle_ribbon.total_labelled_structures(g, n, degrees)


@pytest.mark.parametrize("g,n,chi", [(2, 2, Fraction(-1, 40)), (0, 6, Fraction(-6))])
def test_every_cell_sums_to_the_euler_characteristic(g, n, chi):
    """The orbifold Euler characteristic of M_{g,n} from every cell, as
    tests/test_ribbon.py sums it, on two types too slow for the suite:
    (-1)^V classes / |Aut L| over every map `enumerate_maps` lists, over
    every degree sequence with all degrees >= 3, against Harer and Zagier's
    closed form.  (2,2) has 22 sequences and 43 354 classes, chi = -1/40;
    (0,6) has 22 sequences and 4.62 million classes, chi = -6.  The sum
    shares no cut with the pairing search; a search that lost maps on mixed
    degree runs moved it off on (0,5) and (2,1).  About 3 and 1 CPU s."""
    assert harer_zagier(g, n) == chi
    assert euler_sum(euler_terms(g, n)) == chi


@pytest.mark.parametrize("g,n", [(0, 14), (0, 15)])
def test_psi_numbers_come_in_lexicographic_order(g, n):
    """`psi` prints the psi numbers in the order `_compositions` yields
    them, with no sort: lexicographic, as tests/test_volumes.py checks with
    the same helper on every stable type with 3g - 3 + n <= 12 but (0,14)
    and (0,15), whose 2 496 144 and 9 657 700 compositions are listed here.
    About 2 and 10 CPU s."""
    assert in_lexicographic_order(g, n)


@dataclass(frozen=True)
class Run:
    """A `ribbonvol.cli` command and what its output must be: the sha256 of
    its stdout, or of the file it writes when `out` (through `--out`), and,
    where given, a JSON field that must be true, a count read off a JSON
    field (an int, or the length of a list in a `psi` or `volume` payload,
    the only ones decoded in full), the output's size in bytes or lines,
    and a bound on the child's peak RSS in MB."""
    argv: tuple
    sha256: str
    out: bool = False
    verdict: str | None = None
    count: tuple | None = None  # (field, with dots between keys; its value)
    size: tuple | None = None  # ("bytes" or "lines", the value)
    peak_mb: float | None = None

    @property
    def name(self):
        return " ".join(self.argv + (("--out",) if self.out else ()))


# the line of a top-level field with a scalar value: in an indent=1 payload
# only the top-level fields sit one space in, and a list or object value
# opens with its bracket on its field's line
_TOP_LEVEL_SCALAR = re.compile(rb'^ ("[^"]+"): ([^\[{\n][^\n]*?),?$', re.M)


def top_level_scalars(data):
    """The scalar fields of an indent=1 JSON object, a row's verdict and int
    counts among them, read off the bytes by one regex: a streamed list of
    rows, such as `enumerate`'s `classes`, is never decoded.  The sha256
    pins every other byte."""
    return {json.loads(key): json.loads(value)
            for key, value in _TOP_LEVEL_SCALAR.findall(data)}


def _read_count(payload, field):
    for key in field.split("."):
        payload = payload[key]
    return payload if isinstance(payload, int) else len(payload)


def kdv_mismatches(payload):
    """The exponents whose printed value in a `psi` table or a `volume`
    W_{g,n} differs from KdV's `kdv_tau`, which shares no recursion with the
    DVV that printed it: the psi number <tau_alpha> itself, or the
    coefficient of L^(2 alpha + 1), <tau_alpha> / (2^d prod alpha_k!)."""
    if payload["command"] == "psi":
        values = [(row["alpha"], Fraction(row["value"])) for row in payload["psi"]]
    else:
        d = 3 * payload["g"] - 3 + payload["n"]
        values = [(alpha, Fraction(term["coef"]) * 2 ** d * prod(map(factorial, alpha)))
                  for term in payload["W"]["terms"]
                  for alpha in [[(e - 1) // 2 for e in term["exp"]]]]
    assert values
    return [alpha for alpha, tau in values if tau != kdv_tau(tuple(sorted(alpha, reverse=True)))]


KCF = ("verify-kcf", "--trials", "30", "--seed", "1")

RUNS = [
    # Trivalent (0,6) has 122 880 classes on 191 maps.  `enumerate --out`
    # holds one graph per map and one map's classes at a time, so the
    # child's peak RSS stays under 30 MB (66 MB when every class was a
    # graph), with the recorded count.
    Run(("enumerate", "--g", "0", "--n", "6", "--degrees", "3,3,3,3,3,3,3,3"),
        "2b3202f09ca8b2543792c17b3ffebe09629a4f0d19fcc8ed176b462258df1e31",
        out=True, count=("count", 122880), peak_mb=30),
    # (1,4) 4,3^6, 81 504 classes of a mixed-degree type whose canonical
    # roots are not top darts, with the sha256 recorded before `_rooted`
    # skipped the roots that lose at s0'[1] and before classes were
    # streamed one run of equal |Aut| at a time.
    Run(("enumerate", "--g", "1", "--n", "4", "--degrees", "4,3,3,3,3,3,3"),
        "c9ba5b8bcf119ff5f1cfd2d165561ca9d1f194f07f395c5760e8d5ce25a53de1",
        out=True, count=("count", 81504)),
    # (0,6) 4,4,4,4, 17 010 classes on 33 maps, 16 of whose face orders form
    # cosets of more than one order, so that their classes are picked out of
    # the 720 labellings by comparisons: its JSON and its CSV (a header and
    # a line per class), with the sha256 of each recorded while each class
    # was found as the least image of its labellings over that coset.
    Run(("enumerate", "--g", "0", "--n", "6", "--degrees", "4,4,4,4"),
        "5b909b6dded4736c6cf32483eca3278783ee89e7b814936593b13ed9a9c9463c",
        out=True, count=("count", 17010), size=("bytes", 8215956)),
    Run(("enumerate", "--g", "0", "--n", "6", "--degrees", "4,4,4,4", "--format", "csv"),
        "dcc7a5e557703a23b482dd22eb09a088cc1e7aa3da9e98cd263c041317d82e00",
        out=True, size=("lines", 17011)),
    # W_{0,11}, the largest `volume` the cost guard accepts.  Its terms are
    # sorted and formatted once and streamed one row template per term, so
    # the child's peak RSS stays under 50 MB: it read 58.3-59.3 MB while
    # `volume` returned one dict with a dict per term, and 43.5-43.7 MB
    # streamed.  The sha256 was recorded while it returned that dict.
    Run(("volume", "--g", "0", "--n", "11"),
        "845d1b1e89ad8d8d8defd39c6d30d8f7187622db7a8df6dc465a798faa7e6b68",
        out=True, count=("W.terms", 43758), size=("bytes", 8420951), peak_mb=50),
    # verify-kcf at (0,6): 122 880 labelled classes, 60 171 graph-side
    # groups, the largest side any check evaluates, with the sha256 recorded
    # while the evaluator cut a side into runs of at most 8192 groups with
    # two tries each.  Its peak RSS must stay below 45 MB (39.1-39.7 MB with
    # the runs, 38.7-38.8 with one trie pair per side).  About 2.5 CPU s
    # (3.6-4.9 with the runs).
    Run((*KCF, "--g", "0", "--n", "6"),
        "215310053a89ed482b8d14f371b1c971022c344a555eb0751d82d74054c07fe7",
        verdict="equal", count=("graphs", 122880), peak_mb=45),
    # verify-kcf at (1,4) and (2,2): 14 944 and 713 labelled classes, 4790
    # and 42 graph-side groups, with the sha256 recorded while the graph
    # side was still evaluated group by group, with no prefix product
    # shared.
    Run((*KCF, "--g", "1", "--n", "4"),
        "a129d8b2cc1877f52239859622ded4b4b840f1007f63e52b7daae32959040656",
        verdict="equal"),
    Run((*KCF, "--g", "2", "--n", "2"),
        "a0b83b796746622e0619bf985485c94334dc06fa45858ad95733571ae6d5a2cd",
        verdict="equal"),
    # identities at (2,2), 713 labelled classes on 368 maps, each map's row
    # streamed once per class, and witten12, whose charts' crossing matrices
    # hold int parts, with the sha256 recorded while each class's report was
    # a dict of the generic writer and every crossing entry a pair of
    # Fractions.
    Run(("identities", "--g", "2", "--n", "2"),
        "10e2bf955a09c651e4bbe0a9673463c0d015bc01895cd90b6f898556c23557ad",
        verdict="ok"),
    # identities at (3,1), 1726 maps whose cells have dimension 14, the
    # largest Pfaffians any command takes, with the sha256 recorded while
    # |Pf G| came from the subset-expansion `pfaffian`.  About 9-14 CPU s.
    Run(("identities", "--g", "3", "--n", "1"),
        "4ec9a2fc5f5263851fb6a62522796bb7aa4f62cf76e565f49b576cd68220dc8e",
        verdict="ok"),
    Run(("witten12",),
        "4d518191abc6f9ddf9d61ae8a2388684c68b6347e093f9f413406d2b8755636d",
        verdict="ok"),
    # psi and volume at the largest genus the cost guard accepts at n = 1, 4
    # and 3: <tau_86>_29, the psi table of (17,4) and W_{23,3}.  The sha256
    # of each was recorded while the DVV recursion summed `Fraction`s
    # (1.3-2.1 CPU s each); on the integers 24^g g! prod (2d_i+1)!! <tau>
    # it takes 0.25-0.45 CPU s each.  KdV takes about 0.9 s on (23,3), 4 s
    # on (17,4) and 1 s on (0,11).
    Run(("psi", "--g", "29", "--n", "1"),
        "ab232aa10f16fa38fd481d9853236038256574a0e03d26f7d33ce0ede8e76b28"),
    Run(("psi", "--g", "17", "--n", "4"),
        "387c8bcafc15dc2f0ebc9d162cc51669bdc8ee4a9e5fee75486cc004ec678f20"),
    Run(("volume", "--g", "23", "--n", "3"),
        "c6f3c3f045e0fd96f1ec1614cab06a9bb7b9683ec679394542f8df3437597888"),
]


@pytest.mark.parametrize("run", RUNS, ids=lambda run: run.name)
def test_command_at_scale(run, tmp_path):
    """The command's sha256, then each of its row's checks; the values of a
    `psi` or `volume` payload are also compared with KdV, and every other
    JSON payload is read through `top_level_scalars`.  Prints the child's
    CPU seconds and peak RSS."""
    argv = [sys.executable, "-m", "ribbonvol.cli", *run.argv]
    out = tmp_path / "out"
    data, cpu_s, peak_mb = run_measured(argv + ["--out", str(out)] if run.out else argv)
    if run.out:
        data = out.read_bytes()
    print(f"{run.name}: CPU s {cpu_s:.2f}, peak MB {peak_mb:.1f}")
    assert hashlib.sha256(data).hexdigest() == run.sha256
    if run.argv[0] in ("psi", "volume"):
        payload = json.loads(data)
    else:
        payload = None if "csv" in run.argv else top_level_scalars(data)
    if run.verdict:
        assert payload[run.verdict] is True
    if run.count:
        field, value = run.count
        assert _read_count(payload, field) == value
    if run.size:
        unit, value = run.size
        assert (len(data) if unit == "bytes" else data.count(b"\n")) == value
    if run.peak_mb:
        assert peak_mb < run.peak_mb
    if run.argv[0] in ("psi", "volume"):
        assert kdv_mismatches(payload) == []


@pytest.mark.parametrize("argv", [
    ("enumerate", "--g", "1", "--n", "2", "--degrees", "5,3"),
    (*KCF, "--g", "0", "--n", "4"),
    ("identities", "--g", "0", "--n", "4"),
    ("witten12",),
], ids=lambda argv: argv[0])
def test_top_level_scalars_are_the_payloads_scalar_fields(argv):
    """`top_level_scalars` reads exactly the top-level fields that are not
    lists or objects, on a small payload of each command it reads."""
    data, _, _ = run_measured([sys.executable, "-m", "ribbonvol.cli", *argv])
    payload = json.loads(data)
    assert top_level_scalars(data) == {
        key: value for key, value in payload.items() if not isinstance(value, (list, dict))}
