import argparse
import ast
import contextlib
import hashlib
import importlib.resources
import importlib.util
import io
import itertools
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator, ValidationError
from referencing import Registry, Resource

import ribbonvol.cli as cli_module
from enumerate_cases import ORACLE_CASES
from oracle_cli import (oracle_class_stream, oracle_enumerate_text, oracle_identities_payload,
                        oracle_json_text, oracle_parser, oracle_psi_payload,
                        oracle_volume_payload)
from oracle_poly import oracle_sorted_terms
from ribbonvol.cli import build_parser, cmd_angle, main
from ribbonvol.exact import Poly
from ribbonvol.hypgeom import IdealPolygonChord, chords_cross, crossing_cos
from ribbonvol.ribbon import (InvalidRibbonGraph, RibbonGraph, _labellings, enumerate_graphs,
                              enumerate_maps)
from ribbonvol.wittencycle import ChartError

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture()
def run(capsys):
    def _run(*argv):
        code = main(list(argv))
        out = capsys.readouterr().out
        return code, out
    return _run


def _schema_registry():
    """The packaged schemas by their `$id`s, `ribbonvol/<name>.json`, so that
    a `$ref` to a sibling file resolves against the referring schema's id."""
    root = importlib.resources.files("ribbonvol.schemas")
    schemas = [json.loads(path.read_text()) for path in root.iterdir()
               if path.name.endswith(".json")]
    return Registry().with_resources(
        (schema["$id"], Resource.from_contents(schema)) for schema in schemas)


SCHEMAS = _schema_registry()


def validate(payload, name):
    schema = SCHEMAS.contents(f"ribbonvol/{name}.json")
    Draft202012Validator(schema, registry=SCHEMAS).validate(payload)


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


def _mask_of(n, classes):
    """The mask of `enumerate_maps` that keeps the labellings `classes`."""
    return [labels in classes for labels in itertools.permutations(range(1, n + 1))]


def _hand_built_maps():
    """Two (0,4) inputs whose rows must come from each map's own graph: two
    maps sharing one s0 tuple object, with different s1, and one map built
    from equal but distinct s0 and s1 tuples, with two classes.  Each is
    given as `enumerate_maps` returns it, `(count, maps)`, each map as
    `(graph, aut, mask)`."""
    by_s0 = {}
    for graph, aut in enumerate_graphs(0, 4, [3] * 4):
        by_s0.setdefault(graph.s0, {}).setdefault(graph.s1, (graph.face_labels, aut))
    s0, maps = next((s0, maps) for s0, maps in by_s0.items() if len(maps) == 2)
    (s1a, (labels_a, aut_a)), (s1b, (labels_b, aut_b)) = maps.items()
    shared_s0 = [(RibbonGraph(s0, s1a, labels_a), aut_a, _mask_of(4, [labels_a])),
                 (RibbonGraph(s0, s1b, labels_b), aut_b, _mask_of(4, [labels_b]))]
    assert shared_s0[0][0].s0 is shared_s0[1][0].s0
    copied = RibbonGraph(tuple(list(s0)), tuple(list(s1a)), labels_a)
    assert copied.s0 is not s0 and copied.s1 is not s1a
    one_map = [(copied, aut_a, _mask_of(4, [labels_a, labels_a[::-1]]))]
    return (2, shared_s0), (2, one_map)


@pytest.mark.parametrize("case", [0, 1])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_enumerate_rows_are_keyed_on_s0_and_s1(run, monkeypatch, fmt, case):
    """Each map's fields are formatted from its own graph: two maps that
    share an s0 object and differ in s1 give two rows, and a map built from
    equal but distinct tuples gives one row per class, as the oracle writes
    the flattened classes."""
    import ribbonvol.cli as cli

    count, maps = _hand_built_maps()[case]
    monkeypatch.setattr(cli, "enumerate_maps", lambda g, n, degrees: (count, iter(maps)))
    argv = ["enumerate", "--g", "0", "--n", "4", "--degrees", "3,3,3,3", "--format", fmt]
    code, out = run(*argv)
    assert code == 0
    classes = [(RibbonGraph(graph.s0, graph.s1, labels), aut)
               for graph, aut, mask in maps for labels in _labellings(4, mask)]
    assert len(classes) == count
    assert out == oracle_enumerate_text(build_parser().parse_args(argv), classes)


# the types of ENUMERATE_DIGESTS and ORACLE_CASES, each once
ENUMERATE_TYPES = sorted({(int(argv[1]), int(argv[3]), argv[5]) for argv, _ in ENUMERATE_DIGESTS}
                         | set(ORACLE_CASES))


@pytest.mark.parametrize("g,n,degrees", ENUMERATE_TYPES)
def test_enumerate_count_is_its_number_of_rows(run, g, n, degrees):
    """The head's count, summed per map before any class is listed, is the
    number of rows written and of classes `enumerate_graphs` lists."""
    argv = ["enumerate", "--g", str(g), "--n", str(n), "--degrees", degrees]
    (code, out), (csv_code, csv) = run(*argv), run(*argv, "--format", "csv")
    assert code == csv_code == 0
    payload = json.loads(out)
    classes = enumerate_graphs(g, n, [int(d) for d in degrees.split(",")])
    assert payload["count"] == len(payload["classes"]) == len(csv.splitlines()) - 1 == len(classes)


def test_enumerate_and_identities_build_one_graph_per_map(run, monkeypatch):
    """`enumerate` (0,5) 4,4,4 writes 540 classes from 7 maps and
    `identities` (0,4) 64 classes from 6: one `RibbonGraph` is built per
    map, and no class is a relabelled graph."""
    built = []
    relabelled = 0
    init, relabel = RibbonGraph.__init__, RibbonGraph._relabelled

    def counted_init(self, *args):
        built.append(args)
        init(self, *args)

    def counted_relabel(self, labels):
        nonlocal relabelled
        relabelled += 1
        return relabel(self, labels)

    monkeypatch.setattr(RibbonGraph, "__init__", counted_init)
    monkeypatch.setattr(RibbonGraph, "_relabelled", counted_relabel)
    for argv, key, classes, maps in [
            (["enumerate", "--g", "0", "--n", "5", "--degrees", "4,4,4"], "count", 540, 7),
            (["identities", "--g", "0", "--n", "4"], "graphs", 64, 6)]:
        built.clear()
        code, out = run(*argv)
        assert code == 0 and json.loads(out)[key] == classes
        assert (len(built), relabelled) == (maps, 0)
        assert len({(s0, s1) for s0, s1, _ in built}) == maps


def test_enumerate_refuses_more_than_256_half_edges_up_front(monkeypatch, capsys):
    monkeypatch.setattr("ribbonvol.ribbon._search_pairings", lambda *args: pytest.fail("searched"))
    assert main(["enumerate", "--g", "0", "--n", "130", "--degrees", "258"]) == 2
    assert capsys.readouterr() == ("", _HALF_EDGES.format(0, 130, 258) + "\n")


def test_enumerate_refusal_is_its_payload(tmp_path, capsys):
    """A refused `enumerate`'s whole output is its stderr line: with --out F,
    stdout is empty and F is not created."""
    dest = tmp_path / "classes.json"
    code = main(["enumerate", "--g", "0", "--n", "130", "--degrees", "258", "--out", str(dest)])
    assert code == 2 and not dest.exists()
    assert capsys.readouterr() == ("", _HALF_EDGES.format(0, 130, 258) + "\n")


def test_handler_faults_are_not_usage_errors(monkeypatch):
    """A fault inside a handler propagates out of `main`: a ChartError from
    the packaged charts, an InvalidRibbonGraph from enumeration."""
    import ribbonvol.wittencycle as wittencycle

    def broken_charts():
        raise ChartError("broken chart")

    def broken_map(g, n, degrees):
        raise InvalidRibbonGraph("broken map")

    monkeypatch.setattr(wittencycle, "example5_charts", broken_charts)
    with pytest.raises(ChartError, match="broken chart"):
        main(["witten12"])
    monkeypatch.setattr(cli_module, "enumerate_maps", broken_map)
    with pytest.raises(InvalidRibbonGraph, match="broken map"):
        main(["enumerate", "--g", "1", "--n", "2", "--degrees", "5,3"])


def test_a_map_that_fails_validation_writes_nothing(tmp_path, monkeypatch, capsys):
    """Every map's graph is validated before the handler returns, so an
    `InvalidRibbonGraph` from the last map in canonical order propagates out
    of `main` before a byte of the earlier maps' rows goes to stdout or a
    --out file is opened."""
    import ribbonvol.ribbon as ribbon

    maps = ribbon._unlabelled_maps

    def with_broken_map(degrees, n):
        found = maps(degrees, n)
        # the reversal is the greatest permutation, and as s0 its vertices
        # have degree 2
        reversal = tuple(range(sum(degrees)))[::-1]
        return found + [((reversal, reversal), found[0][1])]

    monkeypatch.setattr(ribbon, "_unlabelled_maps", with_broken_map)
    dest = tmp_path / "classes"
    for extra in ([], ["--format", "csv"], ["--out", str(dest)]):
        with pytest.raises(InvalidRibbonGraph, match="degree 2 < 3"):
            main(["enumerate", "--g", "1", "--n", "2", "--degrees", "5,3", *extra])
        assert capsys.readouterr().out == ""
    assert not dest.exists()


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
    # a payload of 2000 list elements, each written as a chunk of its own
    payload = {"v": 1, "rows": [{"i": i, "s": str(i)} for i in range(2000)]}
    buf = io.StringIO()
    cli._write(buf, payload)
    monkeypatch.undo()
    assert buf.getvalue() == json.dumps(payload, indent=1) + "\n"


# sha256 of `angle --d 5 --chord1 0,2 --chord2 1,3`, the one payload with
# both a float and a `Surd` dict, recorded while its float cosine was summed
# over a `Surd` cosine table
ANGLE_D5_SHA256 = "917e47f1fdb48d7b741e685020d32c6e43620b1595b38cecedb7af30414dba14"


def test_angle_output_is_byte_identical(run):
    code, out = run("angle", "--d", "5", "--chord1", "0,2", "--chord2", "1,3")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ANGLE_D5_SHA256


def _writer_text(value) -> str:
    """The text of the CLI's indent=1 writer, its chunks joined."""
    return "".join(cli_module._json_chunks(value))


# JSON scalars with the edge cases of each type: escapes, non-ASCII and
# lone surrogates, ints past 64 bits, bool next to int, -0.0, a float near
# the bottom of the normal range and the non-finite floats json writes by name
JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
                | st.text() | st.text(st.characters(exclude_categories=()), max_size=8)
                | st.sampled_from((0, 1, True, False, -0.0, 0.0, 1e-300, float("inf"),
                                   float("-inf"), float("nan"), 2 ** 64, -2 ** 80, "",
                                   '"', "\\", "\x00\x1f\x7f", "\u2028é\U0001F600", "\ud800")))
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: (st.lists(inner, max_size=5) | st.lists(inner, max_size=5).map(tuple)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=5)
                   | st.lists(st.integers(), max_size=5) | st.lists(st.text(max_size=3), max_size=5)),
    max_leaves=25)


@settings(max_examples=400, deadline=None)
@given(JSON_VALUES)
@example([[], (), {}, [[]], {"a": {}}, [{}, ()]])
def test_the_writer_gives_the_bytes_of_json_dumps_indent_1(value):
    expected = oracle_json_text(value)
    assert _writer_text(value) == expected
    assert cli_module._json_text(value, "") == expected


def test_the_writer_gives_the_bytes_of_json_dumps_on_every_payload():
    """Every round-trip argv and benchmark job: a dict payload as it is
    built, and `enumerate`'s streamed text parsed back."""
    for argv in ROUND_TRIP_ARGV + BENCH_ARGV:
        args = cli_module._recognize(argv)
        payload, code = args.func(args)
        assert code == 0, argv
        if not isinstance(payload, dict):
            payload = json.loads("".join(payload))
        assert _writer_text(payload) == oracle_json_text(payload), argv


@pytest.mark.parametrize("value", [
    {"a": Fraction(1, 2)}, {"a": {1, 2}}, {1: "a"}, [Fraction(1)], [1, 2, {3}],
    [{"a": [{2: 1}]}], {"a": [{"b": (Fraction(1),)}]}, Fraction(1), frozenset()],
    ids=repr)
def test_the_writer_refuses_non_json_values_and_non_str_keys(value):
    with pytest.raises(TypeError):
        _writer_text(value)
    with pytest.raises(TypeError):
        cli_module._json_text(value, "")


class _DroppingSink:
    """A file that drops what it is given, chunk by chunk."""

    def write(self, text):
        pass

    def writelines(self, chunks):
        for _ in chunks:
            pass


def test_a_dict_payload_is_written_without_holding_its_text():
    """The dict payload of `volume --g 0 --n 10` from before `volume` was
    streamed (`oracle_volume_payload`: 2.06 MB of text, 0.56 MB of it
    `W_str`) is written to a sink that drops its input while the traced
    peak stays below 0.4 times its text; a writer that joins its chunks in
    runs of 4096 before each write holds 0.58 times."""
    payload = oracle_volume_payload(0, 10)
    size = len(oracle_json_text(payload)) + 1
    tracemalloc.start()
    try:
        cli_module._write(_DroppingSink(), payload)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.4 * size, (peak, size)


def test_a_streamed_volume_is_written_without_holding_its_text():
    """`volume --g 0 --n 10`, written to a sink that drops its input, holds
    its `W_str` once as JSON text beside the rows it fills one by one: the
    traced peak is 0.27 times the text, below the 0.4 a dict payload is
    held to, where joining the rows would hold all of it."""
    args = cli_module._recognize(["volume", "--g", "0", "--n", "10"])
    size = len("".join(args.func(args)[0]))
    payload, _ = args.func(args)
    tracemalloc.start()
    try:
        cli_module._write(_DroppingSink(), payload)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.4 * size, (peak, size)


# Every stable (g, n) of dimension 3g-3+n <= 6, (0,7) and (0,9) among them
SMALL_TYPES = [(g, n) for g in range(3) for n in range(1, 10)
               if 2 * g - 2 + n > 0 and 3 * g - 3 + n <= 6]


@pytest.mark.parametrize("g,n", SMALL_TYPES, ids=str)
def test_volume_and_psi_print_the_bytes_of_their_old_payloads(run, g, n):
    """The streamed `volume` and `psi` give `json.dumps(indent=1)` of the
    dicts they returned before, W's built by `Poly`'s old display routes."""
    for command, oracle in (("volume", oracle_volume_payload), ("psi", oracle_psi_payload)):
        code, out = run(command, "--g", str(g), "--n", str(n))
        assert code == 0
        assert out == oracle_json_text(oracle(g, n)) + "\n", command


@pytest.mark.parametrize("g,n", [(0, 3), (0, 6), (1, 1), (1, 4), (2, 2), (3, 1)], ids=str)
def test_volume_latex_and_out_keep_their_bytes(run, tmp_path, monkeypatch, g, n):
    """`--format latex` reads `Poly._sorted_terms`, whose order is the old
    per-term key's, and `--out` gets the bytes of stdout."""
    argv = ["volume", "--g", str(g), "--n", str(n)]
    latex = run(*argv, "--format", "latex")
    dest = tmp_path / "w.json"
    for fmt in ("json", "latex"):
        assert run(*argv, "--format", fmt, "--out", str(dest)) == (0, "")
        assert dest.read_text(encoding="utf-8") == run(*argv, "--format", fmt)[1]
    monkeypatch.setattr(Poly, "_sorted_terms", oracle_sorted_terms)
    assert run(*argv, "--format", "latex") == latex


def test_the_writer_is_the_only_indent_1_route_in_src():
    """No module under `src/` passes an `indent` to an encoder or builds
    the stdlib's `JSONEncoder`; indent=1 JSON is `_json_chunks` alone."""
    for path in sorted((ROOT / "src" / "ribbonvol").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            assert not (isinstance(node, ast.keyword) and node.arg == "indent"), path.name
            assert not (isinstance(node, ast.Attribute)
                        and node.attr in ("JSONEncoder", "iterencode")), path.name


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
    for g, n in [(0, 5), (1, 4), (2, 3), (3, 1), (0, 7)]:
        d = 3 * g - 3 + n
        assert _dvv_cost(g, n) == 46 * len(psi_numbers(g, n)) + d ** 5 * (
            6 + n * n + n * (n - 1) * (n - 2)) / 10_000


def test_dvv_cost_grows_with_genus_and_with_faces():
    from ribbonvol.cli import _DVV_BUDGET, _dvv_cost
    from ribbonvol.volumes import is_stable

    for g in range(12):
        for n in range(1, 14):
            if is_stable(g, n):
                assert _dvv_cost(g + 1, n) > _dvv_cost(g, n)
                assert _dvv_cost(g, n + 1) > _dvv_cost(g, n)
    # the largest accepted and smallest refused case of five families, by
    # `volume`'s CPU: n = 1 (3.6 and 4.4 s), g = 0 (2.5 and 7.8 s), g = 1
    # (0.9 and 4.4 s), n = 3 (3.2-3.6 and 2.8-3.8 s) and n = 4 (2.8-3.2 and
    # 2.7-4.2 s; (19,4) 3.9-4.5 s)
    assert _dvv_cost(29, 1) <= _DVV_BUDGET < _dvv_cost(30, 1)
    assert _dvv_cost(0, 11) <= _DVV_BUDGET < _dvv_cost(0, 12)
    assert _dvv_cost(1, 9) <= _DVV_BUDGET < _dvv_cost(1, 10)
    assert _dvv_cost(23, 3) <= _DVV_BUDGET < _dvv_cost(24, 3)
    assert _dvv_cost(17, 4) <= _DVV_BUDGET < _dvv_cost(18, 4)


def test_the_reach_check_makes_no_estimate_past_6_cpu_s():
    """From d = 3g-3+n = 100 on, `_check_reach` refuses without calling
    `_dvv_cost` (rows of STDERR_REFUSALS), whose estimate there is over 6
    CPU s at every n: above the budget, so the shortcut refuses nothing the
    estimate would accept."""
    from ribbonvol.volumes import is_stable

    for g in range(40):
        for n in range(1, 110):
            if is_stable(g, n) and 3 * g - 3 + n >= 100:
                assert cli_module._dvv_cost(g, n) > 6e6 > cli_module._DVV_BUDGET, (g, n)


def test_the_half_edge_guard_accepts_252_and_256_half_edges():
    """(0,44) and (21,2) have 252 trivalent half-edges; `enumerate` takes a
    degree sum of 256."""
    for args in [(0, 44), (21, 2), (0, 129, 256)]:
        assert cli_module._check_half_edges(*args) is None


def test_the_trial_guard_accepts_1000_trials():
    assert cli_module._MAX_TRIALS == 1000 and cli_module._check_trials(1000) is None


# Integers of 400 digits, past any float and any list size: each must be
# refused before the arithmetic it would overflow or, for `verify-kcf`, the
# 2^(2g-2+n) it would spend minutes on.
HUGE = "9" * 400


_HALF_EDGES = "error: ({},{}) is out of reach: enumeration is limited to 256 half-edges, got {}"

# What a refusal must not reach, by dotted path: the DVV recursion, the map
# search, and `verify-kcf`'s sampled points with it
_DVV = ("ribbonvol.cli.psi_numbers", "ribbonvol.volumes.psi_numbers")
_SEARCH = ("ribbonvol.cli.enumerate_maps", "ribbonvol.ribbon._search_pairings")
_KCF = ("ribbonvol.cli.verify_kcf", *_SEARCH)

# Each refused input, by name: its argv, its exit code (1 for chords that do
# not cross, else 2), the last line of its stderr, the only one but for
# argparse's usage error, and the functions that must not run
STDERR_REFUSALS = {
    "unstable": (["psi", "--g", "0", "--n", "2"], 2, "error: (0,2) is unstable", _DVV),
    "volume-unstable": (["volume", "--g", "0", "--n", "2"], 2, "error: (0,2) is unstable", _DVV),
    "identities-unstable": (["identities", "--g", "0", "--n", "2"], 2,
                            "error: (0,2) is unstable", _SEARCH),
    "verify-kcf-unstable": (["verify-kcf", "--g", "0", "--n", "2", "--seed", "1"], 2,
                            "error: (0,2) is unstable", _KCF),
    "psi-out-of-reach": (["psi", "--g", "30", "--n", "1"], 2,
                         "error: (30,1) is out of reach: estimated 3.7 CPU s", _DVV),
    "volume-out-of-reach": (["volume", "--g", "0", "--n", "12"], 2,
                            "error: (0,12) is out of reach: estimated 7.7 CPU s", _DVV),
    "psi-1-10": (["psi", "--g", "1", "--n", "10"], 2,
                 "error: (1,10) is out of reach: estimated 4.3 CPU s", _DVV),
    "volume-19-4": (["volume", "--g", "19", "--n", "4"], 2,
                    "error: (19,4) is out of reach: estimated 4.7 CPU s", _DVV),
    # d = 3g-3+n >= 100, refused with no estimate
    **{f"psi-{g_text}-{n_text}": (["psi", "--g", str(g), "--n", str(n)], 2,
                                  f"error: ({g},{n}) is out of reach: estimated over 6 CPU s",
                                  ("ribbonvol.cli._dvv_cost", *_DVV))
       for g, n, g_text, n_text in [(34, 1, "34", "1"), (0, 103, "0", "103"),
                                    (10**50, 2, "10^50", "2"), (2, 10**50, "2", "10^50")]},
    **{f"{command}-{g_text}-{n}-half-edges": ([command, "--g", str(g), "--n", str(n), *seed], 2,
                                              _HALF_EDGES.format(g, n, darts), _KCF)
       for command, seed in [("verify-kcf", ["--seed", "1"]), ("identities", [])]
       for g, n, darts, g_text in [(0, 45, 258, "0"), (22, 2, 264, "22"),
                                   (10**9, 1, 12 * 10**9 - 6, "10^9")]},
    "enumerate-half-edges": (["enumerate", "--g", "0", "--n", "130", "--degrees", "258"], 2,
                             _HALF_EDGES.format(0, 130, 258), _SEARCH),
    "enumerate-csv-half-edges": (["enumerate", "--g", "0", "--n", "130", "--degrees", "258",
                                  "--format", "csv"], 2, _HALF_EDGES.format(0, 130, 258), _SEARCH),
    # an inconsistent type, refused before its count, 0, is read
    "enumerate-5-2-half-edges": (["enumerate", "--g", "5", "--n", "2", "--degrees", "300"], 2,
                                 _HALF_EDGES.format(5, 2, 300), _SEARCH),
    **{f"trials-{text}": (["verify-kcf", "--g", "1", "--n", "1", "--seed", "1", "--trials", trials],
                          2, f"error: --trials is limited to 1000, got {trials}", _KCF)
       for trials, text in [("1001", "1001"), ("100000000", "10^8"), (HUGE, "400-digits")]},
    "bad-chord": (["angle", "--d", "5", "--chord1", "0,0", "--chord2", "2,4"], 2,
                  "error: chord endpoints must be distinct vertices of the 5-gon",
                  ("ribbonvol.cli.chords_cross",)),
    # short chords of a large polygon, where 1 - cos(2 pi k / d) cancels: the
    # cosine tends to 1/2, but d = 10^5 and 10^9 printed 0.0, and 10^10
    # divided by zero
    **{name: (["angle", "--d", d, "--chord1", "0,2", "--chord2", "1,3"], 2,
              f"error: the cosine's rounding error may reach {error}",
              ("ribbonvol.cli.crossing_cos",))
       for name, d, error in [("rounding", "100000", "57"),
                              ("rounding-10^9", "1000000000", "2.9e+17"),
                              ("rounding-10^10", "10000000000", "inf")]},
    "no-crossing": (["angle", "--d", "5", "--chord1", "0,1", "--chord2", "2,4"], 1,
                    "error: chords do not cross", ("ribbonvol.cli.crossing_cos_error",)),
    "usage-error": (["psi", "--g", "x", "--n", "1"], 2,
                    "ribbonvol psi: error: argument --g: invalid int value: 'x'", _DVV),
}


@pytest.mark.parametrize("argv,code,line,not_run", STDERR_REFUSALS.values(),
                         ids=STDERR_REFUSALS)
def test_a_refusal_is_one_stderr_line_before_any_work(argv, code, line, not_run, tmp_path,
                                                      capsys, monkeypatch):
    """The refusal's exit code and stderr, nothing on stdout, and none of
    `not_run` called; with --out F too, and F is not created."""
    for name in not_run:
        monkeypatch.setattr(name, lambda *args, _name=name, **kwargs: pytest.fail(_name))
    dest = tmp_path / "out"
    for extra in ([], ["--out", str(dest)]):
        assert main(argv + extra) == code
        out, err = capsys.readouterr()
        *usage, last = err.splitlines()  # argparse's usage error alone has lines before
        assert out == "" and err.endswith("\n") and last == line
        assert (usage == []) == line.startswith("error: ")
    assert not dest.exists()


@pytest.mark.parametrize("argv", [
    ["psi", "--g", HUGE, "--n", "1"],
    ["volume", "--g", "2", "--n", HUGE],
    ["identities", "--g", HUGE, "--n", "1"],
    ["angle", "--d", HUGE, "--chord1", "0,2", "--chord2", "1,3"],
    ["verify-kcf", "--g", HUGE, "--n", "1", "--seed", "1"],
], ids=["psi", "volume", "identities", "angle", "verify-kcf"])
def test_an_oversized_integer_is_refused_up_front(argv):
    done = subprocess.run([sys.executable, "-m", "ribbonvol.cli", *argv], env=_cli_env(),
                          capture_output=True, text=True, timeout=30)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
    assert "Traceback" not in done.stderr


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


@pytest.mark.parametrize("g,n", [(1, 2), (0, 4), (1, 3), (2, 2)])
def test_identities_matches_the_per_class_oracle(tmp_path, run, g, n):
    """The rows `identities` streams from one template per map are, on
    stdout and in --out, the bytes of `json.dumps(indent=1)` of the oracle's
    payload, one dict per class.  Each type has a map whose face orders
    form a coset of more than one element, so that map's template is filled
    by fewer than n! classes."""
    argv = ["identities", "--g", str(g), "--n", str(n)]
    path = tmp_path / "identities.json"
    (code, out), (out_code, shown) = run(*argv), run(*argv, "--out", str(path))
    assert code == out_code == 0 and shown == ""
    expected = json.dumps(oracle_identities_payload(build_parser().parse_args(argv)),
                          indent=1) + "\n"
    assert out == expected
    assert path.read_text(encoding="utf-8") == expected
    _, maps = enumerate_maps(g, n, [3] * (4 * g - 4 + 2 * n))
    assert any(len(list(_labellings(n, mask))) < factorial(n) for _, _, mask in maps)


def test_identities_builds_one_cell_form_per_map(run, monkeypatch):
    """(0,4) has 64 labelled classes on 6 maps; each map's form is built
    once, and every check runs on the graph's own form."""
    import ribbonvol.cli as cli
    import ribbonvol.kformula as kf

    cell_form = kf._cell_form
    built = []
    checked = []

    def counted_cell_form(graph):
        form = cell_form(graph)
        built.append((graph, form))
        return form

    def recorded_identities(graph, form=None):
        checked.append(graph)
        return verify_form_identities(graph, form)

    verify_form_identities = cli.verify_form_identities
    monkeypatch.setattr(kf, "_cell_form", counted_cell_form)
    monkeypatch.setattr(cli, "verify_form_identities", recorded_identities)
    code, out = run("identities", "--g", "0", "--n", "4")
    assert code == 0 and json.loads(out)["graphs"] == 64
    assert len(built) == 6
    assert len({(graph.s0, graph.s1) for graph, _ in built}) == 6
    assert checked == [graph for graph, _ in built]
    assert all(form == cell_form(graph) for graph, form in built)


@pytest.mark.parametrize("g,n,maps", [(0, 4, 6), (1, 3, 46)])
def test_identities_eliminates_each_maps_g_once(g, n, maps, run, monkeypatch):
    """The density's |Pf G| and check (iii) read one `bareiss` of each
    map's G: the square eliminations of size 6g - 6 + 2n are the maps' G,
    in order, each once."""
    import ribbonvol.kformula as kf

    _, listed = enumerate_maps(g, n, [3] * (4 * g - 4 + 2 * n))
    forms = [kf._cell_form(graph).G for graph, _, _ in listed]
    dim = 6 * g - 6 + 2 * n
    bareiss = kf.bareiss
    eliminated = []

    def recorded_bareiss(M):
        if len(M) == dim == len(M[0]):
            eliminated.append(M)
        return bareiss(M)

    monkeypatch.setattr(kf, "bareiss", recorded_bareiss)
    code, _ = run("identities", "--g", str(g), "--n", str(n))
    assert code == 0 and len(forms) == maps
    assert eliminated == forms


def test_class_stream_matches_the_per_class_fill(monkeypatch, capsys):
    """Every `enumerate` JSON and `identities` payload this file builds,
    the benchmark's among them, has the bytes of the oracle that fills each
    map's template once per class."""
    import ribbonvol.cli as cli

    class_stream = cli._class_stream
    streamed = []

    def compared(head, key, n, rows):
        rows = list(rows)
        text = "".join(class_stream(head, key, n, rows))
        assert text == "".join(oracle_class_stream(head, key, n, rows))
        streamed.append(text)
        return iter([text])

    monkeypatch.setattr(cli, "_class_stream", compared)
    argvs = []
    for argv in (_argv_in_this_file() + BENCH_ARGV
                 + [["enumerate", "--g", str(g), "--n", str(n), "--degrees", degrees]
                    for g, n, degrees in ENUMERATE_TYPES]
                 + [["identities", "--g", str(g), "--n", str(n)]
                    for g, n in [(1, 2), (0, 4), (1, 3), (2, 2)]]):
        if argv[0] in ("enumerate", "identities") and "csv" not in argv and argv not in argvs:
            argvs.append(argv)
    reached = []
    for argv in argvs:
        before = len(streamed)
        main(argv)
        out = capsys.readouterr().out
        if len(streamed) > before:
            assert out == streamed[-1]
            reached.append(argv)
    assert len(reached) == len(ENUMERATE_TYPES) + 5


def test_class_stream_fills_one_row_per_class_from_a_mask():
    """Hand-made masks over the six labellings of three faces: a map of
    one class, one of five, one with none, one of all six (mask None) and
    one whose only class is the last labelling, with |Aut| 1, 2, 5, 3 and
    6: the same bytes as one fill per class, with an `enumerate` row
    template and an `identities` one."""
    import ribbonvol.cli as cli

    labels = list(itertools.permutations(range(1, 4)))
    maps = [(1, [True] + [False] * 5), (2, [False] + [True] * 5), (5, [False] * 6),
            (3, None), (6, [False] * 5 + [True])]
    slot = cli._SLOT
    enumerate_row = cli._row_template(
        {"graph": {"v": 1, "half_edges": slot, "s0": slot, "s1": slot, "face_labels": slot},
         "aut": slot, "genus": slot, "faces": slot}, "  ") % (
        6, cli._int_list([1, 2, 0, 4, 5, 3]), cli._int_list([3, 4, 5, 0, 1, 2]), "%s", "%s",
        1, 3)
    identities_row = cli._row_template({"graph": {"face_labels": cli._SLOT}, "aut": cli._SLOT,
                                        "ok": True}, "  ")
    head = {"v": 1, "classes": 13}
    for row in (enumerate_row, identities_row):
        rows = [(row, aut, mask) for aut, mask in maps]
        text = "".join(cli._class_stream(head, "list", 3, rows))
        assert text == "".join(oracle_class_stream(head, "list", 3, rows))
        payload = json.loads(text)
        kept = [(list(labels[i]), aut) for aut, mask in maps
                for i in range(6) if mask is None or mask[i]]
        assert len(kept) == 13
        assert [(item["graph"]["face_labels"], item["aut"]) for item in payload["list"]] == kept
        assert "".join(cli._class_stream(head, "list", 3, [])) == json.dumps(
            {**head, "list": []}, indent=1) + "\n"


# sha256 of the `enumerate` CSV of (0,5) 5,5, 432 classes on 7 maps, 6 of
# them with a coset of 2 or 10 face orders, recorded while each map's
# classes were the least images of its labellings over that coset
ENUMERATE_CSV_DIGEST_05_55 = "57d9fb56056bcdc3e344a5030278b3afd4c3db522dde640f2be7bc032e11ef5e"


def test_enumerate_csv_of_a_five_face_type_is_byte_identical(run):
    code, out = run("enumerate", "--g", "0", "--n", "5", "--degrees", "5,5", "--format", "csv")
    assert code == 0 and len(out.splitlines()) == 433
    assert hashlib.sha256(out.encode()).hexdigest() == ENUMERATE_CSV_DIGEST_05_55


def test_witten12_command(run):
    code, out = run("witten12")
    assert code == 0
    payload = json.loads(out)
    validate(payload, "witten12")
    assert payload["intersections"] == {"psi1": "1", "psi2": "1"}
    assert payload["total_laplace"] == "(s1^2 + s2^2)/(2 s1^3 s2^3)"


def test_a_nested_graph_that_breaks_graph_json_fails_validation(run):
    """Canary for the registry: `witten12.json` checks its lead chart's graph
    only through its `$ref` to `graph.json`, so each of these edits fails
    validation only if that reference resolves."""
    _, out = run("witten12")
    for key, value in [("v", 2), ("half_edges", 1), ("face_labels", [0, 1])]:
        payload = json.loads(out)
        payload["lead_chart"]["graph"][key] = value
        with pytest.raises(ValidationError):
            validate(payload, "witten12")


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


@pytest.mark.parametrize("argv", [
    ["psi", "--g", "1", "--n", "1"],
    ["enumerate", "--g", "1", "--n", "2", "--degrees", "5,3", "--format", "csv"],
    ["volume", "--g", "1", "--n", "1", "--format", "latex"],
])
def test_an_empty_out_path_is_usage_error(capsys, argv):
    """`--out ""` names a path that cannot be opened: exit 2 and an error
    line, as for any unwritable path, and nothing on stdout."""
    code = main(argv + ["--out", ""])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: cannot write : ")
    assert "Traceback" not in captured.err


def test_help_and_bad_usage_exit_codes(run):
    code, _ = run("--help")
    assert code == 0
    code, _ = run("no-such-command")
    assert code == 2
    code, _ = run("enumerate", "--g", "1", "--n", "2", "--degrees", "five,3")
    assert code == 2


# stdout, stderr and exit code of --help, --version, every subcommand's
# --help and seven usage errors, recorded at 80 columns on Python 3.11 while
# the parser was still built by one hand-written call per option
GOLDEN = json.loads((ROOT / "tests" / "cli_golden.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("call", GOLDEN["calls"],
                         ids=lambda call: " ".join(call["argv"]) or "no arguments")
def test_help_version_and_usage_errors_print_the_recorded_bytes(call, capsys, monkeypatch):
    """The bytes match those of the hand-written parser of `oracle_parser` on
    any Python, and the recorded ones on the Python that recorded them
    (argparse's wording differs between versions)."""
    monkeypatch.setenv("COLUMNS", str(GOLDEN["columns"]))

    def printed():
        code = main(call["argv"])
        captured = capsys.readouterr()
        return {"stdout": captured.out, "stderr": captured.err, "exit": code}

    got = printed()
    with monkeypatch.context() as old:
        old.setattr(cli_module, "build_parser", oracle_parser)
        assert got == printed()
    if "%d.%d" % sys.version_info[:2] == GOLDEN["python"]:
        assert got == {key: call[key] for key in ("stdout", "stderr", "exit")}


def test_a_chord_that_is_not_two_integers_is_a_usage_error(capsys):
    for text in ("1,a", "1,2,3", "1"):
        code = main(["angle", "--d", "5", "--chord1", text, "--chord2", "0,2"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", text
        assert captured.err.endswith(
            f"ribbonvol angle: error: argument --chord1: chord must be i,j; got {text!r}\n")


def test_the_shared_parser_carries_no_state_between_calls(tmp_path, capsys, monkeypatch):
    """Each call, through `_recognize` or the one cached parser, in two
    orders, prints the bytes and exits with the code of the same call
    through argparse alone, on a parser built for it alone."""
    import ribbonvol.cli as cli

    dest = tmp_path / "out.json"
    # every subcommand, `verify-kcf` with and without --points, both formats
    # of `enumerate` and of `volume`, an --out run, --help, two valid calls
    # only argparse reads (--flag=value and an abbreviation), and a usage
    # error that sits between valid calls in either order
    calls = [
        ["enumerate", "--g", "1", "--n", "2", "--degrees", "5,3"],
        ["enumerate", "--g", "1", "--n", "2", "--degrees", "5,3", "--format", "csv"],
        ["volume", "--g", "1", "--n", "2"],
        ["volume", "--g", "0", "--n", "4", "--format", "latex"],
        ["volume", "--g", "0", "--n", "4", "--form", "latex"],
        ["angle", "--d", "5", "--chord1", "1,a", "--chord2", "0,2"],
        ["psi", "--g=1", "--n=2"],
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
        fresh.setattr(cli, "_recognize", lambda argv: None)
        expected = [call(argv) for argv in calls]
    assert [result[0] for result in expected] == [0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0]
    assert expected[4] == expected[3] and expected[6] == expected[7]
    assert expected[11][1] == "" and expected[11][3]
    for order in (range(len(calls)), reversed(range(len(calls)))):
        for i in order:
            assert call(calls[i]) == expected[i], calls[i]


def _bench_argv() -> list:
    """Every job of the benchmark's workloads, `formula` at seeds 1 and 2."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [argv for workload in workloads.WORKLOADS for seed in (1, 2)
            for argv in workloads.jobs(workload, seed)]


BENCH_ARGV = _bench_argv()


# every distinct argv of ROUND_TRIP_ARGV and of the benchmark's jobs
PAYLOAD_ARGV = list({tuple(argv): argv for argv in ROUND_TRIP_ARGV + BENCH_ARGV}.values())


@pytest.mark.parametrize("argv", PAYLOAD_ARGV, ids=" ".join)
def test_every_payload_validates_against_its_commands_schema(run, argv):
    code, out = run(*argv)
    assert code == 0
    validate(json.loads(out), argv[0].replace("-", "_"))


def test_main_builds_the_parser_once(monkeypatch, capsys):
    """Well-formed calls, every benchmark job among them, build no parser;
    the first --help or usage error builds it, and no later call does."""
    import ribbonvol.cli as cli

    built = []
    init = argparse.ArgumentParser.__init__

    def counted_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    well_formed = BENCH_ARGV + ROUND_TRIP_ARGV + [
        ["volume", "--g", "1", "--n", "2", "--format", "latex"],
        ["verify-kcf", "--points", "--seed", "9", "--n", "1", "--g", "1", "--trials", "4"]]
    for first in (["--help"], ["angle", "--d", "5", "--chord1", "0,a", "--chord2", "1,3"]):
        cli.build_parser.cache_clear()
        built.clear()
        for argv in well_formed:
            assert main(argv) == 0, argv
        assert built == []
        main(first)
        assert len(built) == 8  # the top-level parser and one per subcommand
        assert main(["psi", "--g", "1", "--n", "2"]) == 0
        assert main(["psi", "--g=1", "--n=2"]) == 0
        assert main(["angle", "--d", "5", "--chord1", "0,a", "--chord2", "1,3"]) == 2
        assert main(["--help"]) == 0
        assert len(built) == 8
    capsys.readouterr()


SRC = ROOT / "src"


def _cli_env(unbuffered=False):
    """The environment of a subprocess that imports the package under test,
    with Python's default buffered stdout unless `unbuffered`."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def _argv_in_this_file() -> list:
    """Every argv spelled out in this file: each list of str literals, and
    the str arguments of each `run(...)` call."""
    found = []
    for node in ast.walk(ast.parse(Path(__file__).read_text(encoding="utf-8"))):
        if isinstance(node, ast.List):
            tokens = node.elts
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "run":
            tokens = node.args
        else:
            continue
        if tokens and all(isinstance(t, ast.Constant) and isinstance(t.value, str)
                          for t in tokens):
            found.append([t.value for t in tokens])
    found += [["enumerate", *argv] for argv, _ in ENUMERATE_DIGESTS]
    return found


# A value of each option type that passes it, and some that do not or that
# only argparse reads
VALID = {int: ["0", "1", "12", " 3", "1_0"], str: ["x.json", "", "a b", "=x"],
         cli_module._parse_degrees: ["5,3", "3, 3,3"], cli_module._parse_chord: ["0,2", "1, 3"]}
INVALID = ["-1", "-", "1.5", "x", "", "xml", "five,3", "1,a", "--", "-x", "--g", "-h"]


def _plain_argv(rng, name, options, share=0.5) -> list:
    """`name` with its required options and each other one at chance
    `share`, each once with a value that passes, in a random order."""
    picked = [option for option in options if option[4] or rng.random() < share]
    rng.shuffle(picked)
    argv = [name]
    for flag, type_, choices, _, _, _ in picked:
        argv.append(flag)
        if type_ is not bool:
            argv.append(rng.choice(choices or VALID[type_]))
    return argv


def _mutated(rng, argv, options) -> list:
    """`argv` changed once, in a way `_recognize` must leave to argparse or
    read as argparse does."""
    argv = list(argv)
    flags = [option[0] for option in options]
    at = rng.randrange(1, len(argv) + 1)
    kind = rng.randrange(9)
    if kind == 0 and len(argv) > 1:  # drop a token
        del argv[at - 1 if at == len(argv) else at]
    elif kind == 1:  # a flag given twice
        flag = rng.choice(flags)
        argv[at:at] = [flag] if flag == "--points" else [flag, rng.choice(["1", "0,2"])]
    elif kind == 2 and len(argv) > 2 and argv[1].startswith("--"):  # --flag=value
        argv[1:3] = [argv[1] + "=" + argv[2]]
    elif kind == 3 and len(argv) > 1 and argv[1].startswith("--") and len(argv[1]) > 3:
        argv[1] = argv[1][:rng.randrange(3, len(argv[1]))]  # an abbreviation
    elif kind == 4:
        argv.insert(at, rng.choice(["-h", "--help", "--version", "--", "-", "---g"]))
    elif kind == 5:  # a value that fails, starts with "-" or only argparse reads
        values = [i for i in range(2, len(argv)) if not argv[i].startswith("--")]
        if values:
            argv[rng.choice(values)] = rng.choice(INVALID)
    elif kind == 6:  # an unknown flag or a stray token
        argv.insert(at, rng.choice(["--bogus", "-g", "--G", "extra", "psi"]))
    elif kind == 7:  # an unknown or abbreviated command, or none
        argv[0] = rng.choice(["frobnicate", argv[0][:3], "--g", "-h"])
    else:
        rng.shuffle(argv)
    return argv


def _generated_argv(seed=20261019, per_command=60) -> tuple:
    """(plain, mutated): argv lists drawn from the CLI's own table."""
    rng = random.Random(seed)
    plain, mutated = [], []
    for name, _, _, options in cli_module._COMMANDS:
        for _ in range(per_command):
            argv = _plain_argv(rng, name, options)
            plain.append(argv)
            mutated.append(_mutated(rng, argv, options))
            mutated.append(_mutated(rng, mutated[-1], options))
        # each token of a call with every option in turn not a str
        full = _plain_argv(rng, name, options, share=1)
        mutated += [full[:i] + [token] + full[i + 1:]
                    for i in range(len(full)) for token in (1, None, Path("x"))]
    return plain, mutated


PLAIN_ARGV, MUTATED_ARGV = _generated_argv()


def _parsed(parser, argv):
    """What `parser.parse_args(argv)` gives: the namespace's dict, or the
    exit code with all it printed, or the type of the exception raised."""
    shown = io.StringIO()
    try:
        with contextlib.redirect_stdout(shown), contextlib.redirect_stderr(shown):
            return vars(parser.parse_args(argv))
    except SystemExit as exc:
        return exc.code, shown.getvalue()
    except Exception as exc:  # argparse on a token that is not a str
        return type(exc).__name__


@pytest.mark.parametrize("corpus", ["this file", "benchmark jobs", "plain", "mutated"])
def test_recognize_reads_as_argparse_or_leaves_it_to_argparse(corpus, monkeypatch):
    """On every argv, `_recognize` returns None or the namespace argparse
    returns, and the table-built parser reads it as the hand-written one."""
    monkeypatch.setenv("COLUMNS", "80")
    corpus = {"this file": _argv_in_this_file(), "benchmark jobs": BENCH_ARGV,
              "plain": PLAIN_ARGV, "mutated": MUTATED_ARGV}[corpus]
    assert len(corpus) >= 30
    old = oracle_parser()
    recognized = 0
    for argv in corpus:
        expected = _parsed(build_parser(), argv)
        assert _parsed(old, argv) == expected, argv
        args = cli_module._recognize(argv)
        if args is not None:
            assert vars(args) == expected, argv
            recognized += 1
    assert recognized > 0


def test_recognize_reads_every_benchmark_job_and_plain_call():
    for argv in BENCH_ARGV + PLAIN_ARGV:
        assert cli_module._recognize(argv) is not None, argv


def test_a_well_formed_call_builds_no_parser_and_loads_no_locale():
    """`-S` as in the import test below; `--g=1` goes to argparse, which
    builds the parser."""
    script = ("import contextlib, io, sys, ribbonvol.cli as cli\n"
              "for argv in (['psi', '--g', '1', '--n', '2'], ['psi', '--g=1', '--n=2']):\n"
              "    with contextlib.redirect_stdout(io.StringIO()):\n"
              "        code = cli.main(argv)\n"
              "    print(code, cli.build_parser.cache_info().currsize, 'locale' in sys.modules)\n")
    done = subprocess.run([sys.executable, "-S", "-c", script], env=_cli_env(),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0] == "0 0 False"
    assert done.stdout.splitlines()[1].startswith("0 1 ")


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


def test_the_console_script_runs_the_main_of_python_m():
    """The subprocess tests below run `python -m ribbonvol.cli` in place of
    the installed `ribbonvol` script, which calls `sys.exit(main())` on
    the entry point in pyproject's `[project.scripts]`: that entry is
    `ribbonvol.cli:main`, and the module's `__main__` guard makes the same
    call.  Read as text and AST, since Python 3.10 has no `tomllib`."""
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    scripts = pyproject.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    assert scripts.split() == ["ribbonvol", "=", '"ribbonvol.cli:main"']
    tree = ast.parse((SRC / "ribbonvol" / "cli.py").read_text(encoding="utf-8"))
    assert ast.unparse(tree.body[-1]) == "if __name__ == '__main__':\n    sys.exit(main())"
    assert [node.name for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name == "main"] == ["main"]


def _unwritable_stdout_stderr(argv) -> str:
    """The stderr of `argv` with no stdout to write to: its refusal line if
    it is a refused input, else the write error."""
    lines = [line for args, _, line, _ in STDERR_REFUSALS.values() if args == argv]
    return (lines[0] if lines else "error: cannot write stdout") + "\n"


# The first two outputs are larger than the pipe's buffer and the writer's
# together, so the pipe is closed while the command is still writing; the
# others are closed before the command writes, and with a buffered stdout
# they wait in its buffer until `main` flushes them: witten12's 2 kB and
# the help and the version argparse prints.  A refused input writes no
# stdout and exits 2 with its own stderr line.
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv,read", [
    (["enumerate", "--g", "1", "--n", "3", "--degrees", "3,3,3,3,3,3"], 10),  # 117 kB of rows
    (["psi", "--g", "0", "--n", "9"], 10),  # 326 kB from the JSON encoder
    (["witten12"], 0),
    (["--help"], 0),
    (["--version"], 0),
    (STDERR_REFUSALS["enumerate-half-edges"][0], 0),
])
def test_a_stdout_pipe_closed_by_its_reader_exits_2_without_a_traceback(argv, read, unbuffered):
    with subprocess.Popen([sys.executable, "-m", "ribbonvol.cli", *argv],
                          env=_cli_env(unbuffered),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        got = b""  # an unbuffered stdout may send its first bytes in pieces
        while len(got) < read and (chunk := os.read(proc.stdout.fileno(), read - len(got))):
            got += chunk
        assert len(got) == read
        proc.stdout.close()
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=60)
    assert err == _unwritable_stdout_stderr(argv)
    assert code == 2


# A stdout on which every write fails with ENOSPC, and one closed before the
# interpreter starts, which Python leaves as `sys.stdout is None`.
@pytest.mark.parametrize("stdout", ["dev_full", "fd_1_closed"])
@pytest.mark.parametrize("argv", [
    ["psi", "--g", "1", "--n", "1"],  # a dict payload
    ["enumerate", "--g", "1", "--n", "2", "--degrees", "5,3"],  # streamed rows
    ["volume", "--g", "1", "--n", "2", "--format", "latex"],  # a str payload
    ["--help"],
    ["--version"],
    ["witten12"],  # a payload read from the package data
    STDERR_REFUSALS["enumerate-half-edges"][0],  # a refused input
], ids=["psi", "enumerate", "latex", "help", "version", "witten12", "refused"])
def test_an_unwritable_stdout_exits_2_without_a_traceback(argv, stdout):
    if stdout == "dev_full" and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this host")
    with open("/dev/full" if stdout == "dev_full" else os.devnull, "wb") as fh:
        done = subprocess.run(
            [sys.executable, "-m", "ribbonvol.cli", *argv], env=_cli_env(),
            stdout=fh, stderr=subprocess.PIPE, timeout=60,
            preexec_fn=(lambda: os.close(1)) if stdout == "fd_1_closed" else None)
    assert done.stderr.decode() == _unwritable_stdout_stderr(argv)
    assert done.returncode == 2


class _BrokenPipeStream(io.TextIOBase):
    """A stream on a pipe whose reader is gone: every write raises, as
    `sys.stderr`'s does there; `fileno` is `fd`."""

    def __init__(self, fd):
        self._fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self._fd


def _one_refusal_per_kind() -> list:
    """The names of the rows of STDERR_REFUSALS that come first of their
    command and stderr line but for its numbers: `main` writes every refusal
    the same way, so the stream tests would only repeat one on the others."""
    kinds = {}
    for name, (argv, _, line, _) in STDERR_REFUSALS.items():
        kinds.setdefault((argv[0], re.sub(r"\d[\d.e+]*|\binf\b", "", line)), name)
    return list(kinds.values())


ONE_REFUSAL_PER_KIND = _one_refusal_per_kind()
CODE_2_KINDS = [name for name in ONE_REFUSAL_PER_KIND if STDERR_REFUSALS[name][1] == 2]


@pytest.mark.parametrize("stream", ["stderr-broken-pipe", "stderr-closed", "stdout-closed"])
@pytest.mark.parametrize("argv,code", [STDERR_REFUSALS[name][:2] for name in ONE_REFUSAL_PER_KIND],
                         ids=ONE_REFUSAL_PER_KIND)
def test_a_refusal_returns_its_code_whatever_the_streams(argv, code, stream, tmp_path, capsys,
                                                         monkeypatch):
    """In process, with stderr on a pipe whose reader is gone, or with fd 2
    or fd 1 closed when Python started (`sys.stderr` or `sys.stdout` None):
    the refusal's exit code, nothing on stdout and no other error line.
    Across a pipe, exit 1 from a traceback looks like the exit 1 of chords
    that do not cross."""
    with open(tmp_path / "stderr", "w") as fh:
        if stream == "stderr-broken-pipe":
            monkeypatch.setattr(sys, "stderr", _BrokenPipeStream(fh.fileno()))
        else:
            monkeypatch.setattr(sys, stream.split("-")[0], None)
        assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("error: ") == (stream == "stdout-closed")


# stdout and stderr on one pipe whose reader is gone before the command
# starts: the error line cannot be written either, and the exit code must
# still be the usage error's, not 1 from a traceback or 120 from the flush
# at exit.  The chords that do not cross are left out: their designed exit
# 1 looks the same as a traceback's.
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [
    ["witten12"],
    ["--version"],
    *(STDERR_REFUSALS[name][0] for name in CODE_2_KINDS),
], ids=["witten12", "version", *CODE_2_KINDS])
def test_stdout_and_stderr_on_a_closed_pipe_exit_2(argv, unbuffered):
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "ribbonvol.cli", *argv], env=_cli_env(unbuffered),
            stdout=write, stderr=write, timeout=60)
    finally:
        os.close(write)
    assert done.returncode == 2
