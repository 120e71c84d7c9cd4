import argparse
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator

from oracle_cli import oracle_enumerate_text, oracle_identities_payload
from ribbonvol.cli import build_parser, cmd_angle, main
from ribbonvol.hypgeom import IdealPolygonChord, chords_cross, crossing_cos
from ribbonvol.ribbon import RibbonGraph, enumerate_graphs


@pytest.fixture()
def run(capsys):
    def _run(*argv):
        code = main(list(argv))
        out = capsys.readouterr().out
        return code, out
    return _run


def _load_schema(name, store=None):
    """Load a schema with cross-file $refs inlined."""
    import importlib.resources

    store = {} if store is None else store
    root = importlib.resources.files("ribbonvol.schemas")
    schema = json.loads((root / f"{name}.json").read_text())

    def inline(node):
        if isinstance(node, dict):
            if set(node) == {"$ref"} and node["$ref"].endswith(".json"):
                ref = node["$ref"].rsplit("/", 1)[-1][:-5]
                if ref not in store:
                    store[ref] = None  # cycle guard
                    store[ref] = _load_schema(ref, store)
                sub = dict(store[ref])
                sub.pop("$schema", None)
                sub.pop("$id", None)
                return sub
            return {k: inline(v) for k, v in node.items()}
        if isinstance(node, list):
            return [inline(x) for x in node]
        return node

    return inline(schema)


def validate(payload, name):
    Draft202012Validator(_load_schema(name)).validate(payload)


def test_volume_base_case(run):
    code, out = run("volume", "--g", "1", "--n", "1")
    assert code == 0
    payload = json.loads(out)
    validate(payload, "volume")
    assert payload["W_str"] == "1/48*L1^3"


def test_volume_latex(run):
    code, out = run("volume", "--g", "0", "--n", "3", "--format", "latex")
    assert code == 0
    assert out.strip() == "W_{0,3} = L1L2L3"


def test_volume_unstable_is_usage_error(capsys):
    for argv in (["volume"], ["psi"], ["verify-kcf", "--seed", "0"], ["identities"]):
        code = main(argv + ["--g", "0", "--n", "2"])
        captured = capsys.readouterr()
        assert code == 2, argv
        assert captured.out == ""
        assert captured.err == "error: (0,2) is unstable\n"


def test_enumerate_counts(run):
    code, out = run("enumerate", "--g", "1", "--n", "2", "--degrees", "5,3")
    assert code == 0
    payload = json.loads(out)
    validate(payload, "enumerate")
    assert payload["count"] == 8
    assert all(row["aut"] == 1 for row in payload["classes"])


# sha256 of `enumerate` stdout for the benchmark's enumerate jobs, recorded
# before enumeration switched to automorphism orbits; the output must not move
ENUMERATE_DIGESTS = [
    (["--g", "2", "--n", "1", "--degrees", "3,3,3,3,3,3"],
     "1a3cd85b8e070b8032e40c8e56a5709bd92a15ce9300683a92b5660b19915f58"),
    (["--g", "2", "--n", "1", "--degrees", "4,3,3,3,3"],
     "b95afbf52e5f8a67cf3fd0e720b518efe7497ac0bbba0c4870036213b8910d9a"),
    (["--g", "1", "--n", "3", "--degrees", "3,3,3,3,3,3"],
     "f3ce41f2c77972f20a57af31a76b004754baa9e86267312936d5c0a2006d1db2"),
    (["--g", "0", "--n", "5", "--degrees", "4,4,4"],
     "910c4290fce339818508beda0757da63c669f5b9b03a5416cbd12cb8b67487c1"),
    (["--g", "0", "--n", "5", "--degrees", "5,5"],
     "3d8db501e71225713eb43dae84dc1789fab68d473dcd3f25b14f945d3e18b822"),
    (["--g", "1", "--n", "2", "--degrees", "5,3"],
     "0e88898b84308b2aaa599febe080d8a4bf33aca4e3417d3fe4585255b571b741"),
    (["--g", "1", "--n", "2", "--degrees", "5,3", "--format", "csv"],
     "be2ab6ceb885bd24c8e9b3dcc737c13d15252cbadd4ed227de48d6d984cf9248"),
    # 918 classes, recorded while classes were still serialised as row dicts
    (["--g", "1", "--n", "3", "--degrees", "4,3,3,3,3"],
     "52f1eeafa996d4fc43012702014a7525a009fb1bbc9f53e88792225f091ecde9"),
    (["--g", "1", "--n", "3", "--degrees", "4,3,3,3,3", "--format", "csv"],
     "dc15dcf4854daf8777491191f98983c7b5812b44e9193b98c47320e4b274c31c"),
    # 713 classes, recorded before the pairing search was pruned by face count
    (["--g", "2", "--n", "2", "--degrees", "3,3,3,3,3,3,3,3"],
     "bc2ad53ccf8bfe28e7e3c0e845025ad857869ab78392dcc07a9d06fd6a294141"),
]


@pytest.mark.parametrize("argv,digest", ENUMERATE_DIGESTS)
def test_enumerate_output_is_byte_identical(run, argv, digest):
    code, out = run("enumerate", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of stdout for the benchmark's volumes jobs and two LaTeX renderings,
# recorded while W_{g,n} still came from the boundary-splitting recursion
VOLUME_DIGESTS = [
    (["volume", "--g", "0", "--n", "6"],
     "d520cc0c53d5de773aa26a5f92663667f483e650f8ab78a634eff1053ba450ad"),
    (["psi", "--g", "1", "--n", "4"],
     "7ebfc8a4eab3355f7a8c506e7954038285f1a0a108013ff89bd8b5e14b588c48"),
    (["volume", "--g", "2", "--n", "3"],
     "406e34016c5a4e0360a2121a6ac54821bd8505ab05c2cf7fb89cbed9ea380183"),
    (["psi", "--g", "3", "--n", "1"],
     "54164068aa616701136c3968306a5a237f3bb5893adffa7aaae545fb3f1869f2"),
    (["volume", "--g", "1", "--n", "5"],
     "ec0224a0e9391fee8fc99f75b473fe4ac9df9a3a605e7ed7bde26b4dbbc5eaf5"),
    (["volume", "--g", "0", "--n", "4", "--format", "latex"],
     "160f259dd992f68d330a1cedd1fc630786f7af34e009ba4a9650cc78b4e8c9eb"),
    (["volume", "--g", "1", "--n", "2", "--format", "latex"],
     "2a4da647df97c69a9c366c8700da46b430c6b027ae72bbbbc83d7e64b3fd74b4"),
]


@pytest.mark.parametrize("argv,digest", VOLUME_DIGESTS)
def test_volume_output_is_byte_identical(run, argv, digest):
    code, out = run(*argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of stdout for the benchmark's formula jobs at seed 1 and two full
# point listings, recorded while the graph side was still summed term by term
# in Fractions; the printed lhs/rhs values must not move
FORMULA_DIGESTS = [
    (["verify-kcf", "--g", "0", "--n", "4", "--trials", "30", "--seed", "1"],
     "ad1c89006a2f7304edcd6622b87c768b6247314e7c424206e27249cefb762540"),
    (["verify-kcf", "--g", "1", "--n", "3", "--trials", "30", "--seed", "1"],
     "51183ca6a624835d31726088f9778e11766db37de86c9788e64216704b41011c"),
    (["identities", "--g", "1", "--n", "2"],
     "3b47c077dbc76105589945a44919baa1df0be579225806ae7429f57a0f49c515"),
    (["identities", "--g", "0", "--n", "4"],
     "a733033c40aff8474a36a58b884f904b68521bf9b6afd3f100228bd70dff0e81"),
    (["witten12"],
     "4d518191abc6f9ddf9d61ae8a2388684c68b6347e093f9f413406d2b8755636d"),
    (["verify-kcf", "--g", "1", "--n", "3", "--trials", "30", "--seed", "1", "--points"],
     "72ade1cdb53af3523c4bc365cb5cbdb0c5ecd338d32a354e9789249bb974cc4b"),
    (["verify-kcf", "--g", "0", "--n", "5", "--trials", "30", "--seed", "2", "--points"],
     "0979c1b4b0ca7f71a7f51b6002b5bdc131306cc79824acb5f18348cfbb9e964e"),
    (["identities", "--g", "1", "--n", "3"],
     "09cc7867e942d52ac47e41e5c758a51b6757eedae2df208f11ef88e510f3228a"),
]


@pytest.mark.parametrize("argv,digest", FORMULA_DIGESTS)
def test_formula_output_is_byte_identical(run, argv, digest):
    code, out = run(*argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# the six types of the benchmark's enumerate workload, a larger type, an
# empty result and a one-class result
ORACLE_CASES = [
    (2, 1, "3,3,3,3,3,3"), (2, 1, "4,3,3,3,3"), (1, 3, "3,3,3,3,3,3"),
    (0, 5, "4,4,4"), (0, 5, "5,5"), (1, 2, "5,3"),
    (1, 3, "4,3,3,3,3"), (0, 1, "3"), (1, 1, "3,3"),
]


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("g,n,degrees", ORACLE_CASES)
def test_enumerate_matches_the_row_dict_oracle(tmp_path, run, g, n, degrees, fmt):
    argv = ["enumerate", "--g", str(g), "--n", str(n), "--degrees", degrees,
            "--format", fmt]
    code, out = run(*argv)
    assert code == 0
    oracle = oracle_enumerate_text(build_parser().parse_args(argv))
    assert out.splitlines(keepends=True) == oracle.splitlines(keepends=True)
    dest = tmp_path / "classes"
    code, printed = run(*argv, "--out", str(dest))
    assert code == 0 and printed == ""
    assert dest.read_bytes() == out.encode()


def _hand_built_classes():
    """Two pairs of (0,4) classes the row cache must tell apart: two maps
    sharing one s0 tuple object, with different s1, and two classes of one
    map built from equal but distinct s0 and s1 tuples."""
    by_s0 = {}
    for graph, aut in enumerate_graphs(0, 4, [3] * 4):
        by_s0.setdefault(graph.s0, {}).setdefault(graph.s1, (graph.face_labels, aut))
    s0, maps = next((s0, maps) for s0, maps in by_s0.items() if len(maps) == 2)
    (s1a, (labels_a, aut_a)), (s1b, (labels_b, aut_b)) = maps.items()
    shared_s0 = [(RibbonGraph(s0, s1a, labels_a), aut_a),
                 (RibbonGraph(s0, s1b, labels_b), aut_b)]
    assert shared_s0[0][0].s0 is shared_s0[1][0].s0
    one_map = [(RibbonGraph(tuple(list(s0)), tuple(list(s1a)), labels), aut_a)
               for labels in (labels_a, labels_a[::-1])]
    assert one_map[0][0].s1 is not one_map[1][0].s1
    return shared_s0, one_map


@pytest.mark.parametrize("case", [0, 1])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_enumerate_rows_are_keyed_on_s0_and_s1(run, monkeypatch, fmt, case):
    """The map's fields are formatted once per run of equal (s0, s1); a
    change of s1 alone must start a new row, and equal tuples reuse it."""
    import ribbonvol.cli as cli

    classes = _hand_built_classes()[case]
    monkeypatch.setattr(cli, "enumerate_graphs", lambda g, n, degrees: classes)
    argv = ["enumerate", "--g", "0", "--n", "4", "--degrees", "3,3,3,3", "--format", fmt]
    code, out = run(*argv)
    assert code == 0
    assert out == oracle_enumerate_text(build_parser().parse_args(argv), classes)


def test_enumerate_refuses_more_than_256_half_edges_up_front(run, monkeypatch):
    import ribbonvol.ribbon as ribbon

    def no_search(degrees, n, emit):
        raise AssertionError("pairing search started")

    monkeypatch.setattr(ribbon, "_search_pairings", no_search)
    code, out = run("enumerate", "--g", "0", "--n", "130", "--degrees", "258")
    assert code == 2
    assert json.loads(out) == {
        "v": 1, "error": "enumeration is limited to 256 half-edges, got 258"}


# every JSON command's bytes are exactly `json.dumps(indent=1)` of what they
# parse to, whichever writer produced them
ROUND_TRIP_ARGV = [
    ["enumerate", "--g", "1", "--n", "2", "--degrees", "5,3"],
    ["volume", "--g", "1", "--n", "2"],
    ["psi", "--g", "1", "--n", "2"],
    ["verify-kcf", "--g", "1", "--n", "1", "--trials", "4", "--seed", "9"],
    ["identities", "--g", "0", "--n", "3"],
    ["witten12"],
    ["angle", "--d", "5", "--chord1", "0,2", "--chord2", "1,3"],
    ["angle", "--d", "7", "--chord1", "0,3", "--chord2", "1,4"],
]


@pytest.mark.parametrize("argv", ROUND_TRIP_ARGV)
def test_json_output_round_trips_through_indent_1(run, argv):
    code, out = run(*argv)
    assert code == 0
    assert json.dumps(json.loads(out), indent=1) + "\n" == out


# sha256 of `psi --g 1 --n 2`, recorded when dict payloads were still
# written through `json.dumps(indent=1)`
PSI_1_2_SHA256 = "3780ba585ab5df5017ab6ef0dc72a5590cfee8849e249b7ead69cc92d9e7c7e3"


def test_dict_payloads_are_streamed_with_the_json_dumps_bytes(tmp_path, run, monkeypatch):
    """A dict payload is encoded chunk by chunk, never through `json.dumps`,
    and gives the same bytes on stdout and in --out."""
    import ribbonvol.cli as cli

    dumps = json.dumps

    def no_dict_dumps(obj, *args, **kwargs):
        if isinstance(obj, dict):
            raise AssertionError("dict payload passed to json.dumps")
        return dumps(obj, *args, **kwargs)

    monkeypatch.setattr(cli.json, "dumps", no_dict_dumps)
    code, out = run("psi", "--g", "1", "--n", "2")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PSI_1_2_SHA256
    dest = tmp_path / "psi.json"
    code, printed = run("psi", "--g", "1", "--n", "2", "--out", str(dest))
    assert code == 0 and printed == ""
    assert dest.read_bytes() == out.encode()
    # a payload of many runs of chunks, the last one partial
    payload = {"v": 1, "rows": [{"i": i, "s": str(i)} for i in range(2000)]}
    buf = io.StringIO()
    cli._write(buf, payload)
    monkeypatch.undo()
    assert buf.getvalue() == json.dumps(payload, indent=1) + "\n"


def test_enumerate_inconsistent_is_empty(run):
    code, out = run("enumerate", "--g", "0", "--n", "1", "--degrees", "3")
    assert code == 0
    assert json.loads(out)["count"] == 0


def test_enumerate_csv(run):
    code, out = run("enumerate", "--g", "0", "--n", "3", "--degrees", "3,3",
                    "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("index,aut")
    assert len(lines) == 5


def test_psi_values(run):
    code, out = run("psi", "--g", "0", "--n", "4")
    assert code == 0
    payload = json.loads(out)
    validate(payload, "psi")
    assert {tuple(e["alpha"]): e["value"] for e in payload["psi"]} == {
        (1, 0, 0, 0): "1", (0, 1, 0, 0): "1", (0, 0, 1, 0): "1", (0, 0, 0, 1): "1"}


def test_dvv_cost_accepts_every_test_and_benchmark_input():
    from ribbonvol.cli import _DVV_BUDGET, _dvv_cost
    from ribbonvol.volumes import psi_numbers

    used = {(int(argv[2]), int(argv[4])) for argv, _ in VOLUME_DIGESTS}
    used |= {(0, 3), (0, 4), (0, 5), (1, 1), (1, 2)}
    assert all(_dvv_cost(g, n) <= _DVV_BUDGET for g, n in used)
    # the tuple term counts the exponent tuples `psi_numbers` returns
    for g, n in [(0, 5), (1, 4), (2, 3), (3, 1)]:
        d = 3 * g - 3 + n
        assert _dvv_cost(g, n) == 46 * len(psi_numbers(g, n)) + d ** 5 * (6 + n * n) / 10_000


def test_dvv_cost_grows_with_genus_and_with_faces():
    from ribbonvol.cli import _DVV_BUDGET, _dvv_cost
    from ribbonvol.volumes import is_stable

    for g in range(12):
        for n in range(1, 14):
            if is_stable(g, n):
                assert _dvv_cost(g + 1, n) > _dvv_cost(g, n)
                assert _dvv_cost(g, n + 1) > _dvv_cost(g, n)
    # the largest accepted and smallest refused case of three families, by
    # `volume`'s CPU: n = 1 (3.6 and 4.4 s), g = 0 (2.5 and 7.8 s) and
    # g = 1 (0.9 and 4.4 s)
    assert _dvv_cost(29, 1) <= _DVV_BUDGET < _dvv_cost(30, 1)
    assert _dvv_cost(0, 11) <= _DVV_BUDGET < _dvv_cost(0, 12)
    assert _dvv_cost(1, 9) <= _DVV_BUDGET < _dvv_cost(1, 10)


def test_out_of_reach_psi_and_volume_exit_2_before_any_dvv_work(monkeypatch, capsys):
    import ribbonvol.cli as cli
    import ribbonvol.volumes as volumes

    def refuse(g, n):
        raise AssertionError("psi_numbers called past the guard")

    monkeypatch.setattr(cli, "psi_numbers", refuse)
    monkeypatch.setattr(volumes, "psi_numbers", refuse)
    for argv in (["psi", "--g", "30", "--n", "1"], ["volume", "--g", "0", "--n", "12"],
                 ["psi", "--g", "1", "--n", "10"]):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "out of reach" in captured.err


def test_verify_kcf_seed_required(run):
    code, _ = run("verify-kcf", "--g", "1", "--n", "1")
    assert code == 2


def test_verify_kcf_runs_and_echoes_seed(run):
    code, out = run("verify-kcf", "--g", "1", "--n", "1", "--trials", "4", "--seed", "9")
    assert code == 0
    payload = json.loads(out)
    validate(payload, "verify_kcf")
    assert payload["equal"] is True
    assert payload["seed"] == 9


def test_identities_command(run):
    code, out = run("identities", "--g", "0", "--n", "3")
    assert code == 0
    payload = json.loads(out)
    validate(payload, "identities")
    assert payload["ok"] is True
    assert payload["expected_density"] == "2"


@pytest.mark.parametrize("g,n", [(0, 4), (1, 3)])
def test_identities_matches_the_per_class_oracle(run, g, n):
    argv = ["identities", "--g", str(g), "--n", str(n)]
    code, out = run(*argv)
    assert code == 0
    oracle = oracle_identities_payload(build_parser().parse_args(argv))
    assert out == json.dumps(oracle, indent=1) + "\n"


def test_identities_builds_one_cell_form_per_map(run, monkeypatch):
    """(0,4) has 64 labelled classes on 6 maps; each map's form is built
    once, and every check runs on the graph's own form."""
    import ribbonvol.cli as cli
    from ribbonvol.kformula import _cell_form

    built = []
    checked = []

    def counted_cell_form(graph):
        built.append(graph)
        return _cell_form(graph)

    def recorded_identities(graph, form):
        checked.append((graph, form))
        return verify_form_identities(graph, form)

    verify_form_identities = cli.verify_form_identities
    monkeypatch.setattr(cli, "_cell_form", counted_cell_form)
    monkeypatch.setattr(cli, "verify_form_identities", recorded_identities)
    code, out = run("identities", "--g", "0", "--n", "4")
    assert code == 0 and json.loads(out)["graphs"] == 64
    assert len(built) == 6
    assert len({(graph.s0, graph.s1) for graph in built}) == 6
    assert [graph for graph, _ in checked] == built
    assert all(form == _cell_form(graph) for graph, form in checked)


def test_witten12_command(run):
    code, out = run("witten12")
    assert code == 0
    payload = json.loads(out)
    validate(payload, "witten12")
    assert payload["intersections"] == {"psi1": "1", "psi2": "1"}
    assert payload["total_laplace"] == "(s1^2 + s2^2)/(2 s1^3 s2^3)"


def test_angle_command(run):
    code, out = run("angle", "--d", "5", "--chord1", "0,2", "--chord2", "1,3")
    assert code == 0
    payload = json.loads(out)
    validate(payload, "angle")
    assert payload["cos_exact"] == {"a": "-2", "b": "1", "D": 5}
    code, _ = run("angle", "--d", "5", "--chord1", "0,1", "--chord2", "2,4")
    assert code == 1
    code, _ = run("angle", "--d", "5", "--chord1", "0,0", "--chord2", "2,4")
    assert code == 2


def test_angle_refuses_a_cosine_lost_to_rounding(capsys):
    """Short chords of a large polygon: 1 - cos(2 pi k / d) cancels.  The
    cosine tends to 1/2, but d = 10^5 and 10^9 printed 0.0, and 10^10
    divided by zero."""
    for d in (10**5, 10**9, 10**10):
        code = main(["angle", "--d", str(d), "--chord1", "0,2", "--chord2", "1,3"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", d
        assert captured.err.startswith("error: the cosine's rounding error may reach")


def test_angle_accepts_every_small_polygon_and_far_diameters():
    """Every crossing with d <= 12, and perpendicular diameters at d = 10^6,
    print `crossing_cos` as before (`cmd_angle` builds the payload `main`
    prints)."""
    cases = [(d, ch1, ch2) for d in range(3, 13)
             for ch1 in itertools.combinations(range(d), 2)
             for ch2 in itertools.combinations(range(d), 2)]
    cases.append((10**6, (0, 500_000), (250_000, 750_000)))
    accepted = 0
    for d, ch1, ch2 in cases:
        c1, c2 = IdealPolygonChord(d, ch1), IdealPolygonChord(d, ch2)
        if not chords_cross(c1, c2):
            continue
        payload, code = cmd_angle(argparse.Namespace(d=d, chord1=ch1, chord2=ch2))
        assert code == 0 and payload["cos"] == crossing_cos(c1, c2)
        accepted += 1
    assert accepted > 1000


def test_byte_identical_reruns(run):
    a = run("verify-kcf", "--g", "0", "--n", "4", "--trials", "3", "--seed", "21")
    b = run("verify-kcf", "--g", "0", "--n", "4", "--trials", "3", "--seed", "21")
    assert a == b
    c = run("enumerate", "--g", "1", "--n", "1", "--degrees", "3,3")
    d = run("enumerate", "--g", "1", "--n", "1", "--degrees", "3,3")
    assert c == d


def test_out_file(tmp_path, run):
    dest = tmp_path / "w.json"
    code, out = run("volume", "--g", "0", "--n", "3", "--out", str(dest))
    assert code == 0 and out == ""
    assert json.loads(dest.read_text())["W_str"] == "L1*L2*L3"


def test_unwritable_out_path_is_usage_error(tmp_path, capsys):
    # a directory cannot be opened for writing; `enumerate` streams its output
    for argv in (["psi", "--g", "1", "--n", "1"],
                 ["enumerate", "--g", "1", "--n", "2", "--degrees", "5,3"]):
        code = main(argv + ["--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", argv
        assert captured.err.startswith(f"error: cannot write {tmp_path}: ")


def test_help_and_bad_usage_exit_codes(run):
    code, _ = run("--help")
    assert code == 0
    code, _ = run("no-such-command")
    assert code == 2
    code, _ = run("enumerate", "--g", "1", "--n", "2", "--degrees", "five,3")
    assert code == 2


def test_a_chord_that_is_not_two_integers_is_a_usage_error(capsys):
    for text in ("1,a", "1,2,3", "1"):
        code = main(["angle", "--d", "5", "--chord1", text, "--chord2", "0,2"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", text
        assert captured.err.endswith(
            f"ribbonvol angle: error: argument --chord1: chord must be i,j; got {text!r}\n")


def test_the_shared_parser_carries_no_state_between_calls(tmp_path, capsys, monkeypatch):
    """Each call through the one cached parser, in two orders, prints the
    bytes and exits with the code of the same call through a parser built
    for it alone."""
    import ribbonvol.cli as cli

    dest = tmp_path / "out.json"
    # every subcommand, `verify-kcf` with and without --points, both formats
    # of `enumerate` and of `volume`, an --out run, --help, and a usage
    # error that sits between valid calls in either order
    calls = [
        ["enumerate", "--g", "1", "--n", "2", "--degrees", "5,3"],
        ["enumerate", "--g", "1", "--n", "2", "--degrees", "5,3", "--format", "csv"],
        ["volume", "--g", "1", "--n", "2"],
        ["volume", "--g", "0", "--n", "4", "--format", "latex"],
        ["angle", "--d", "5", "--chord1", "1,a", "--chord2", "0,2"],
        ["psi", "--g", "1", "--n", "2"],
        ["verify-kcf", "--g", "1", "--n", "1", "--trials", "4", "--seed", "9"],
        ["verify-kcf", "--g", "1", "--n", "1", "--trials", "4", "--seed", "9", "--points"],
        ["identities", "--g", "0", "--n", "3"],
        ["witten12", "--out", str(dest)],
        ["angle", "--d", "5", "--chord1", "0,2", "--chord2", "1,3"],
        ["--help"],
    ]

    def call(argv):
        code = main(argv)
        captured = capsys.readouterr()
        written = dest.read_bytes() if dest.exists() else None
        dest.unlink(missing_ok=True)
        return code, captured.out, captured.err, written

    with monkeypatch.context() as fresh:
        fresh.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        expected = [call(argv) for argv in calls]
    assert [result[0] for result in expected] == [0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0]
    assert expected[9][1] == "" and expected[9][3]
    for order in (range(len(calls)), reversed(range(len(calls)))):
        for i in order:
            assert call(calls[i]) == expected[i], calls[i]


def test_main_builds_the_parser_once(monkeypatch):
    import ribbonvol.cli as cli

    built = []
    init = argparse.ArgumentParser.__init__

    def counted_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    cli.build_parser.cache_clear()
    assert main(["witten12"]) == 0
    assert len(built) == 8  # the top-level parser and one per subcommand
    assert main(["psi", "--g", "1", "--n", "2"]) == 0
    assert main(["angle", "--d", "5", "--chord1", "0,a", "--chord2", "1,3"]) == 2
    assert len(built) == 8


SRC = Path(__file__).resolve().parent.parent / "src"


def _cli_env(unbuffered=False):
    """The environment of a subprocess that imports the package under test,
    with Python's default buffered stdout unless `unbuffered`."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def test_importing_the_cli_builds_no_parser():
    done = subprocess.run(
        [sys.executable, "-c",
         "import ribbonvol.cli as cli; print(cli.build_parser.cache_info().currsize)"],
        env=_cli_env(), capture_output=True, text=True, timeout=60)
    assert done.returncode == 0 and done.stdout == "0\n"


def test_importing_the_cli_loads_no_dataclasses_typing_or_resources():
    """`-S` skips `site`, whose `.pth` files may import these modules on
    some hosts, hiding a regression or failing for no fault of the package."""
    done = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, ribbonvol.cli; print(sorted({'dataclasses', 'inspect', "
         "'typing', 'importlib.resources'} & set(sys.modules)))"],
        env=_cli_env(), capture_output=True, text=True, timeout=60)
    assert done.returncode == 0 and done.stdout == "[]\n", done.stderr


# The first two outputs are larger than the pipe's buffer and the writer's
# together, so the pipe is closed while the command is still writing; the
# others are closed before the command writes, and with a buffered stdout
# they wait in its buffer until `main` flushes them: witten12's 2 kB, the
# help and the version argparse prints, and the error line of a refused
# input.
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv,read", [
    (["enumerate", "--g", "1", "--n", "3", "--degrees", "3,3,3,3,3,3"], 10),  # 117 kB of rows
    (["psi", "--g", "0", "--n", "9"], 10),  # 326 kB from the JSON encoder
    (["witten12"], 0),
    (["--help"], 0),
    (["--version"], 0),
    (["enumerate", "--g", "0", "--n", "130", "--degrees", "258"], 0),
])
def test_a_stdout_pipe_closed_by_its_reader_exits_2_without_a_traceback(argv, read, unbuffered):
    with subprocess.Popen([sys.executable, "-m", "ribbonvol.cli", *argv],
                          env=_cli_env(unbuffered),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert len(os.read(proc.stdout.fileno(), read)) == read
        proc.stdout.close()
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=60)
    assert err == "error: cannot write stdout\n"
    assert code == 2
