"""Command line interface.

Subcommands: enumerate, volume, psi, verify-kcf, identities, witten12,
angle.  Output is UTF-8 JSON (or CSV / LaTeX where noted), written to
stdout or --out.  Exit codes: 0 success, 1 verification failure, 2 usage
error.  Randomised commands require an explicit --seed, echoed in the
output.

JSON is written with the bytes of `json.dumps(payload, indent=1)` by one
recursion, `_json_chunks`, the only code that writes braces, brackets,
separators and indents; its leaf `_list_text` writes a list of scalars of
one type as one `str.join`.  It streams a dict item by item and a list
element by element; the stdlib encoder, pure Python when given an indent,
is left to the tests as its oracle.  A list streamed row by row is a
generator value in the payload, written where it sits, each row filled
from a template that `_row_template` makes of a row dict whose `_SLOT`
values become %s slots.  `enumerate` reads the maps of `enumerate_maps`
one by one and makes one template per payload, filled twice per map, once
with its fields and once with its |Aut|, which all of its classes share,
with no graph built per class: the map's rows are one `str.join` of the
label texts its mask keeps, out of one table of the n! label texts
formatted once per payload.  `identities` checks each map once, formats
the map's report row once with slots for a class's face labels and |Aut|,
and streams its classes the same way: both lists go through
`_class_stream`.  The CSV reads the same masks over its own table of label
texts.  `volume` sorts W's terms once and formats each coefficient once
(`Poly._term_texts`); "terms" is streamed from one row template, filled
per term, and "W_str" is written from the same texts.  `psi` streams its
table from one row template filled per nonzero number.

The grammar is one table, `_COMMANDS`, read two ways.  `main` first tries
`_recognize`, which takes only a subcommand followed by its exact long
flags, each once and with its value as the next token, and returns the
namespace argparse would.  Anything else (--help, --version, -h,
--flag=value, abbreviations, values starting with "-", --, repeated flags,
bad values) goes to the argparse parser `build_parser` makes from the same
table, so argparse prints every help, version and usage-error line.  That
parser is built at most once per process and never at import; a well-formed
call builds none, which saves a one-shot `ribbonvol` process a few
milliseconds, the `locale` import among them.

A handler returns its payload and exit code, or raises `_Refused` with an
error line and code: an unstable (g, n), one past the DVV budget or past
256 half-edges, more than 1000 `verify-kcf` trials, a bad chord, a cosine
lost to rounding (2 each) and chords that do not cross (1).  argparse's
stdout and stderr are captured.  `main` alone writes: the payload once to
stdout or --out, then every stderr line once.  Any write error on the
payload, such as a pipe closed by its reader, a full device or a closed
stdout, exits 2 with an error line; a stderr that cannot be written loses
its line, not the exit code.  Only the 256 half-edge error of `enumerate`
is a payload, one JSON line; any other exception of a handler propagates.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import itertools
import json
import os
import sys
from fractions import Fraction
from math import comb, inf
from types import GeneratorType

from . import __version__
from .exact import Poly
from .hypgeom import (IdealPolygonChord, chords_cross, crossing_cos, crossing_cos_error,
                      crossing_cos_exact)
from .kformula import verify_form_identities, verify_kcf
from .ribbon import _MAX_DARTS, InvalidRibbonGraph, enumerate_maps
from .volumes import kontsevich_volume, psi_numbers, is_stable
from .wittencycle import witten12_report

USAGE_ERROR = 2
VERIFICATION_FAILURE = 1

# `volume` and `psi` refuse a (g, n) whose `_dvv_cost` exceeds this: 3.5
# CPU s on a 2-vCPU Xeon (Python 3.11).
_DVV_BUDGET = 3_500_000

# `verify-kcf` refuses more sampled points than this: each is evaluated
# exactly and kept in the report; 1000 take about 1.5 CPU s at (0,5) and
# 2.5 at (1,4) on a 2-vCPU Xeon (Python 3.11).
_MAX_TRIALS = 1000

# `angle` refuses a crossing whose `crossing_cos_error` exceeds this: short
# chords of a large polygon, from d = 1151 for (0,2) and (1,3).
_ANGLE_MAX_ERROR = 1e-6


def _parse_degrees(text: str):
    try:
        degrees = [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad degree list {text!r}")
    if not degrees:
        raise argparse.ArgumentTypeError("empty degree list")
    return degrees


def _parse_chord(text: str):
    try:
        i, j = (int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"chord must be i,j; got {text!r}")
    return (i, j)


def _poly_latex(p: Poly) -> str:
    if not p.terms:
        return "0"
    pieces = []
    for exp, c in p._sorted_terms():
        mono = "".join(
            (f"{v}" if e == 1 else f"{v}^{{{e}}}")
            for v, e in zip(p.vars, exp) if e)
        if c.denominator == 1:
            cs = str(c.numerator)
        else:
            sign = "-" if c < 0 else ""
            cs = f"{sign}\\tfrac{{{abs(c.numerator)}}}{{{c.denominator}}}"
        if mono and cs == "1":
            cs = ""
        elif mono and cs == "-1":
            cs = "-"
        pieces.append(f"{cs}{mono}")
    out = pieces[0]
    for piece in pieces[1:]:
        out += f" {piece}" if piece.startswith("-") else f" + {piece}"
    return out


class _Refused(Exception):
    """An input a handler refuses, with its error line and exit code, which
    `main` writes and returns."""


def _check_stable(g: int, n: int) -> None:
    if not is_stable(g, n):
        raise _Refused(f"({g},{n}) is unstable", USAGE_ERROR)


def _dvv_cost(g: int, n: int) -> float:
    """Estimated CPU microseconds of `volume` at a stable (g, n), which
    bounds `psi` too, d = 3g-3+n: 46 for each of the C(d+n-1, n-1) exponent
    tuples that `psi_numbers` fills and `volume` prints, plus d^5 (6 + n^2
    + 6 C(n, 3)) / 10^4 for the DVV recursion, which peels the smallest
    index and grows like d^5 at fixed n, and faster than n^2 from n = 3 on.
    Fitted on a 2-vCPU Xeon (Python 3.11) while `volume` formatted each
    term twice and the recursion summed `Fraction`s.  With both gone it is
    conservative, 4-11x over the measured CPU, most where the d^5 term
    dominates: estimated / measured 2.02 / 0.48 s at (0,11), 3.11 / 0.30
    at (29,1), 2.96 / 0.46 at (17,4) and 3.40 / 0.31 at (23,3).
    """
    d = 3 * g - 3 + n
    return 46 * comb(d + n - 1, n - 1) + d ** 5 * (6 + n * n + 6 * comb(n, 3)) / 10_000


def _check_reach(g: int, n: int) -> None:
    """Refuse a (g, n) above `_DVV_BUDGET`, before any DVV work.  From
    d = 3g-3+n = 100 on, the d^5 term alone is over 6 CPU s, and `_dvv_cost`
    is not called: its C(d+n-1, n-1) grows with n and its float overflows."""
    if 3 * g - 3 + n >= 100:
        raise _Refused(f"({g},{n}) is out of reach: estimated over 6 CPU s", USAGE_ERROR)
    cost = _dvv_cost(g, n)
    if cost > _DVV_BUDGET:
        raise _Refused(f"({g},{n}) is out of reach: estimated {cost / 1e6:.2g} CPU s",
                       USAGE_ERROR)


def _check_half_edges(g: int, n: int) -> None:
    """Refuse a (g, n) whose trivalent graphs have more half-edges, 12g-12+6n,
    than enumeration takes, before any degree list or power of 2 is built."""
    darts = 12 * g - 12 + 6 * n
    if darts > _MAX_DARTS:
        raise _Refused(f"({g},{n}) is out of reach: enumeration is limited to "
                       f"{_MAX_DARTS} half-edges, got {darts}", USAGE_ERROR)


def _check_trials(trials: int) -> None:
    if trials > _MAX_TRIALS:
        raise _Refused(f"--trials is limited to {_MAX_TRIALS}, got {trials}", USAGE_ERROR)


def _float_text(x: float) -> str:
    """`x` by json's rule: NaN and the infinities by name, else its repr."""
    if x != x:
        return "NaN"
    return "Infinity" if x == inf else "-Infinity" if x == -inf else float.__repr__(x)


# The text of each JSON scalar type, looked up by exact type.  The str
# encoder raises TypeError on anything but a str, a dict key included.
_encode_str = json.encoder.encode_basestring_ascii
_SCALAR_TEXT = {str: _encode_str, int: int.__repr__, float: _float_text,
                bool: lambda b: "true" if b else "false", type(None): lambda _: "null"}


def _scalar_list_text(items):
    """The text function of the one scalar type of all of `items`, a
    non-empty list or tuple, or None if they are not all of one."""
    kinds = set(map(type, items))
    return _SCALAR_TEXT.get(kinds.pop()) if len(kinds) == 1 else None


def _list_text(items, text, indent: str) -> str:
    """`items`, a non-empty list or tuple of scalars of one type, as a JSON
    list on a line that starts with `indent`, each written by `text`: one
    `str.join`."""
    inner = indent + " "
    return "[\n" + inner + (",\n" + inner).join(map(text, items)) + "\n" + indent + "]"


def _json_chunks(value, indent: str = ""):
    """`value` with the bytes `json.dumps(value, indent=1)` gives it on a
    line that starts with `indent`, in chunks.  This is the one recursion
    that writes braces, brackets, separators and indents: a dict goes item
    by item and a list element by element, but for a list of scalars of one
    type, which is one chunk (`_list_text`).  A generator value is a list
    streamed where it sits.  Its chunks are the list's elements, each after
    its separator ",\n" and indent (filled `_row_template`s), cut wherever
    the generator cuts them, the first chunk non-empty.  The first
    separator opens the list instead, the list closes at `indent`, and with
    no chunk at all it is `[]`.  Keys must be str and values JSON scalars,
    lists, tuples, dicts or such generators, else TypeError."""
    kind = type(value)
    scalar = _SCALAR_TEXT.get(kind)
    inner = indent + " "
    if scalar is not None:
        yield scalar(value)
    elif kind is dict and value:
        sep = "{\n" + inner
        for key, item in value.items():
            yield sep + _encode_str(key) + ": "
            yield from _json_chunks(item, inner)
            sep = ",\n" + inner
        yield "\n" + indent + "}"
    elif (kind is list or kind is tuple) and value:
        text = _scalar_list_text(value)
        if text:
            yield _list_text(value, text, indent)
            return
        sep = "[\n" + inner
        for item in value:
            yield sep
            yield from _json_chunks(item, inner)
            sep = ",\n" + inner
        yield "\n" + indent + "]"
    elif kind is GeneratorType:
        first = next(value, None)
        if first is None:
            yield "[]"
            return
        yield "[\n" + first[2:]
        yield from value
        yield "\n" + indent + "]"
    elif kind is dict or kind is list or kind is tuple:
        yield "{}" if kind is dict else "[]"
    else:
        raise TypeError(f"{kind.__name__} is not JSON serializable")


def _json_text(value, indent: str) -> str:
    """`_json_chunks(value, indent)` as one string."""
    return "".join(_json_chunks(value, indent))


def _stream(payload: dict):
    """The chunks of a JSON payload as `main` writes it, its newline last."""
    yield from _json_chunks(payload)
    yield "\n"


def _int_list(xs) -> str:
    """`xs`, a non-empty list or tuple of ints, as `json.dumps(indent=1)`
    writes a field of a class's graph, at depth 4."""
    return _list_text(xs, int.__repr__, "    ")


# Stands for a value that a row template fills in later; json writes it as
# "\u0000", which no other field contains.
_SLOT = "\0"
_SLOT_TEXT = _encode_str(_SLOT)


def _row_template(row: dict, indent: str) -> str:
    """One streamed row's template: the separator ",\n" and `indent`, then
    `row` as `_json_text` writes it at depth `indent`, each `_SLOT` value of
    it a %s slot and any other "%" escaped.  `volume` and `psi` fill theirs
    once per row; `enumerate` fills its once per map and `identities` makes
    one per map, each leaving the face-label and |Aut| slots to
    `_class_stream`."""
    text = _json_text(row, indent).replace("%", "%%").replace(_SLOT_TEXT, "%s")
    return ",\n" + indent + text


def _class_texts(n, text, rows):
    """For each (row, aut, mask) of `rows`, one per map (`enumerate_maps`),
    `(row, aut, texts)`: `text` of each class the mask keeps, in order.  The
    n! texts, in `itertools.permutations` order, are built once, when the
    first map comes; a mask of None keeps them all."""
    texts = []
    for row, aut, mask in rows:
        texts = texts or list(map(text, itertools.permutations(range(1, n + 1))))
        yield row, aut, texts if mask is None else list(itertools.compress(texts, mask))


def _class_stream(head: dict, key: str, n: int, rows):
    """The chunks of the payload `head` with the list `key` streamed from
    `rows`, one (template, aut, mask) triple per map with n faces.  A
    template is a `_row_template` with slots for the face labels and |Aut|.
    It is filled once per map, with `_SLOT` for the labels, and split
    there; the map's rows are one `str.join` of the label texts of its
    classes (`_class_texts`), written as three chunks, the text before the
    first label, the join and the text after the last, so that no copy of
    the join is made.  A map with no class gives no chunk."""
    def filled():
        for row, aut, texts in _class_texts(n, _int_list, rows):
            if texts:
                before, after = (row % (_SLOT, aut)).split(_SLOT)
                yield before
                yield (after + before).join(texts)
                yield after

    return _stream({**head, key: filled()})


def _enumerate_json(head: dict, maps):
    """The `enumerate` payload `head` with `"classes"` filled from the
    (graph, aut, mask) triples of `enumerate_maps` by `_class_stream`, from
    one `_row_template` built per payload: half_edges, s0, s1, genus and
    faces are filled in once per map, and the face-label and |Aut| slots,
    filled with "%s", stay slots for `_class_stream`."""
    row = _row_template({"graph": {"v": 1, "half_edges": _SLOT, "s0": _SLOT, "s1": _SLOT,
                                   "face_labels": _SLOT},
                         "aut": _SLOT, "genus": _SLOT, "faces": _SLOT}, "  ")
    rows = ((row % (len(graph.s0), _int_list(graph.s0), _int_list(graph.s1), "%s", "%s",
                    graph.genus, graph.num_faces), aut, mask)
            for graph, aut, mask in maps)
    return _class_stream(head, "classes", head["n"], rows)


def _enumerate_csv(n, maps):
    """The `enumerate` CSV of maps with n faces: each map's columns are
    formatted once, and its rows are one chunk over the label texts of its
    classes (`_class_texts`), each row numbered."""
    yield "index,aut,half_edges,s0,s1,face_labels\n"
    index = itertools.count()
    rows = (("%%d,%d,%d,%s,%s,%%s\n" % (aut, len(graph.s0), " ".join(map(str, graph.s0)),
                                        " ".join(map(str, graph.s1))), aut, mask)
            for graph, aut, mask in maps)
    for row, _, texts in _class_texts(n, lambda labels: " ".join(map(str, labels)), rows):
        # texts first: zip stops on them before it draws another index
        yield "".join([row % (i, text) for text, i in zip(texts, index)])


def cmd_enumerate(args) -> tuple:
    try:
        count, maps = enumerate_maps(args.g, args.n, args.degrees)
    except InvalidRibbonGraph:
        raise  # a fault of enumeration, not of the input
    except ValueError as exc:  # more than 256 half-edges
        return json.dumps({"v": 1, "error": str(exc)}) + "\n", USAGE_ERROR
    if args.format == "csv":
        return _enumerate_csv(args.n, maps), 0
    head = {
        "v": 1,
        "command": "enumerate",
        "g": args.g,
        "n": args.n,
        "degrees": sorted(args.degrees, reverse=True),
        "count": count,
    }
    return _enumerate_json(head, maps), 0


def cmd_volume(args) -> tuple:
    """W_{g,n} as LaTeX, or as a stream of JSON chunks: its terms are
    sorted and their coefficients formatted once (`Poly._term_texts`), and
    both "terms", one row template filled per term, and "W_str" are
    written from them."""
    _check_stable(args.g, args.n)
    _check_reach(args.g, args.n)
    W = kontsevich_volume(args.g, args.n)
    if args.format == "latex":
        return f"W_{{{args.g},{args.n}}} = {_poly_latex(W)}\n", 0
    texts = W._term_texts()
    term = _row_template({"exp": [_SLOT] * args.n, "coef": _SLOT}, "   ")
    head = {
        "v": 1,
        "command": "volume",
        "g": args.g,
        "n": args.n,
        "W": {"vars": list(W.vars),
              "terms": (term % (*exp, _encode_str(cs)) for exp, cs in texts)},
        "W_str": W._display(texts),
    }
    return _stream(head), 0


def cmd_psi(args) -> tuple:
    """The nonzero psi numbers of (g, n) by exponent tuple, in lexicographic
    order, as a stream of JSON chunks, one row template filled per number."""
    _check_stable(args.g, args.n)
    _check_reach(args.g, args.n)
    row = _row_template({"alpha": [_SLOT] * args.n, "value": _SLOT}, "  ")
    psi = (row % (*alpha, _encode_str(str(val)))
           for alpha, val in psi_numbers(args.g, args.n).items() if val)
    return _stream({"v": 1, "command": "psi", "g": args.g, "n": args.n, "psi": psi}), 0


def cmd_verify_kcf(args) -> tuple:
    _check_stable(args.g, args.n)
    _check_half_edges(args.g, args.n)
    _check_trials(args.trials)
    report = verify_kcf(args.g, args.n, trials=args.trials, seed=args.seed)
    payload = {"v": 1, "command": "verify-kcf", **report}
    if not args.points:
        payload["points"] = payload["points"][:3]
    return payload, 0 if report["equal"] else VERIFICATION_FAILURE


def cmd_identities(args) -> tuple:
    """Check the matrix identities and the cell density of every trivalent
    class of type (g, n), as a stream of JSON chunks.

    The checks and the density read only K, B, ker A and G, which the face
    labels do not change (they permute the rows of A), so each map's cell
    form is built and checked once, and each class's report is the map's
    with its own face labels.  The report's |Pf G| = isqrt(det G) and check
    (iii) read one `bareiss(G)`, so the cell layer takes no subset-expansion
    Pfaffian.  Each map's row is formatted once by `_json_text`, with its
    graph as the report has it and slots for a class's face labels and
    |Aut|, and filled once per class.  The head's "ok" covers every map, so
    every map is checked before the first chunk."""
    _check_stable(args.g, args.n)
    _check_half_edges(args.g, args.n)
    count, maps = enumerate_maps(args.g, args.n, [3] * (4 * args.g - 4 + 2 * args.n))
    expected_density = Fraction(2) ** (1 - args.g)
    rows = []
    all_ok = True
    for graph, aut, mask in maps:
        rep = verify_form_identities(graph)
        rho = rep["density"]
        ok = rep["ok"] and rho == expected_density
        all_ok &= ok
        rows.append((_row_template({"graph": {**rep["graph"], "face_labels": _SLOT},
                                    "aut": _SLOT, "checks": rep["checks"],
                                    "density": str(rho), "ok": ok}, "  "), aut, mask))
    head = {
        "v": 1,
        "command": "identities",
        "g": args.g,
        "n": args.n,
        "expected_density": str(expected_density),
        "graphs": count,
        "ok": all_ok,
    }
    return _class_stream(head, "reports", args.n, rows), 0 if all_ok else VERIFICATION_FAILURE


def cmd_witten12(args) -> tuple:
    report = witten12_report()
    ok = (report["intersections"] == {"psi1": "1", "psi2": "1"})
    payload = {"v": 1, "command": "witten12", "ok": ok, **report}
    return payload, 0 if ok else VERIFICATION_FAILURE


def cmd_angle(args) -> tuple:
    try:
        c1 = IdealPolygonChord(args.d, args.chord1)
        c2 = IdealPolygonChord(args.d, args.chord2)
    except ValueError as exc:
        raise _Refused(str(exc), USAGE_ERROR)
    if not chords_cross(c1, c2):
        raise _Refused("chords do not cross", VERIFICATION_FAILURE)
    err = crossing_cos_error(c1, c2)
    if err > _ANGLE_MAX_ERROR:
        raise _Refused(f"the cosine's rounding error may reach {err:.2g}", USAGE_ERROR)
    payload = {
        "v": 1,
        "command": "angle",
        "d": args.d,
        "chord1": list(args.chord1),
        "chord2": list(args.chord2),
        "cos": crossing_cos(c1, c2),
    }
    if args.d == 5:
        payload["cos_exact"] = crossing_cos_exact(c1, c2).to_json()
    return payload, 0


# The command line's grammar, read by `build_parser` and by `_recognize`:
# one row per subcommand, its name, help, handler and options in the order
# of its help.  An option is (flag, type, choices, default, required, help);
# its dest is the flag without its dashes, a type of None keeps the value's
# str, and a type of bool marks a flag that takes no value.
_G = ("--g", int, None, None, True, "genus")
_N = ("--n", int, None, None, True, "number of labelled faces")
_OUT = ("--out", str, None, None, False, "output path (default stdout)")
_COMMANDS = (
    ("enumerate", "list ribbon graph classes with a degree sequence", cmd_enumerate, (
        _G, _N, _OUT,
        ("--degrees", _parse_degrees, None, None, True,
         "comma separated vertex degrees, e.g. 5,3"),
        ("--format", None, ("json", "csv"), "json", False, None))),
    ("volume", "Kontsevich volume polynomial W_{g,n}", cmd_volume, (
        _G, _N, _OUT,
        ("--format", None, ("json", "latex"), "json", False, None))),
    ("psi", "psi-class intersection numbers", cmd_psi, (_G, _N, _OUT)),
    ("verify-kcf", "verify the combinatorial formula at random points", cmd_verify_kcf, (
        _G, _N, _OUT,
        ("--trials", int, None, 30, False, None),
        ("--seed", int, None, None, True, None),
        ("--points", bool, None, False, False, "emit every sampled point"))),
    ("identities", "matrix identities and cell densities", cmd_identities, (_G, _N, _OUT)),
    ("witten12", "the (1,2) combinatorial cycle computation", cmd_witten12, (_OUT,)),
    ("angle", "crossing angle of two regular ideal polygon chords", cmd_angle, (
        _OUT,
        ("--d", int, None, None, True, "polygon degree"),
        ("--chord1", _parse_chord, None, None, True, "i,j"),
        ("--chord2", _parse_chord, None, None, True, "i,j"))),
)

# Each subcommand's handler and its options by flag, for `_recognize`.
_GRAMMAR = {name: (func, {option[0]: option for option in options})
            for name, _, func, options in _COMMANDS}


def _recognize(argv: list):
    """The namespace that `build_parser().parse_args(argv)` returns, when
    `argv` is a subcommand followed by its exact long flags, each given once
    and each, but a flag that takes no value, followed by a value that does
    not start with "-" and passes the flag's type and choices, with every
    required flag given.  For any other `argv`, None: argparse decides."""
    if not argv or not all(type(token) is str for token in argv) or argv[0] not in _GRAMMAR:
        return None
    func, options = _GRAMMAR[argv[0]]
    given = {}
    tokens = iter(argv[1:])
    for flag in tokens:
        if flag not in options or flag in given:
            return None
        _, type_, choices, _, _, _ = options[flag]
        if type_ is bool:
            given[flag] = True
            continue
        value = next(tokens, "-")
        if value.startswith("-"):
            return None
        try:
            given[flag] = value if type_ is None else type_(value)
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            return None
        if choices is not None and given[flag] not in choices:
            return None
    values = {"command": argv[0]}
    for flag, (_, _, _, default, required, _) in options.items():
        if required and flag not in given:
            return None
        values[flag.lstrip("-").replace("-", "_")] = given.get(flag, default)
    return argparse.Namespace(**values, func=func)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of `_COMMANDS`, built once per process on first use.

    `main` needs it only for what `_recognize` leaves: help, version, usage
    errors and the spellings argparse accepts beyond the plainest one.
    Sharing it between `main()` calls is safe: argparse parses each call
    into a fresh namespace and looks up `sys.stdout` and `sys.stderr` only
    when it prints.
    """
    parser = argparse.ArgumentParser(
        prog="ribbonvol",
        description="Exact ribbon graph volumes and moduli intersection numbers.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_, func, options in _COMMANDS:
        p = sub.add_parser(name, help=help_)
        for flag, type_, choices, default, required, text in options:
            if type_ is bool:
                p.add_argument(flag, action="store_true", help=text)
            else:
                p.add_argument(flag, type=type_, choices=choices, default=default,
                               required=required, help=text)
        p.set_defaults(func=func)
    return parser


def _write(fh, payload) -> None:
    """Write a command's payload: a dict as indent=1 JSON, a str as is, or
    an iterable of str chunks as they are produced.  A dict goes to the file
    in the chunks of `_stream`, one per dict item or list element and each
    streamed list's rows as their generator cuts them, so neither the whole
    text nor a run of chunks is held at once."""
    if isinstance(payload, str):
        fh.write(payload)
    else:
        fh.writelines(_stream(payload) if isinstance(payload, dict) else payload)


def _to_devnull(stream) -> None:
    """Point the fd under `stream` at devnull, so that what is still
    buffered there cannot fail again at exit, which would make the exit
    code 120."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, stream.fileno())
    os.close(devnull)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    shown, errors = io.StringIO(), io.StringIO()  # argparse's stdout; every stderr line
    out = None  # --out takes only a command's payload
    payload = ""  # a refusal has none
    try:
        args = _recognize(argv)
        if args is None:
            with contextlib.redirect_stdout(shown), contextlib.redirect_stderr(errors):
                args = build_parser().parse_args(argv)
        payload, code = args.func(args)
        out = args.out
    except SystemExit as exc:
        payload, code = shown.getvalue(), USAGE_ERROR if exc.code not in (0, None) else 0
    except _Refused as exc:
        message, code = exc.args
        errors.write(f"error: {message}\n")
    try:
        if payload != "":  # a refusal or usage error needs no stdout and opens no --out
            with (open(out, "w", encoding="utf-8") if out is not None
                  else contextlib.nullcontext(sys.stdout)) as fh:
                if fh is None:  # fd 1 was closed when Python started
                    raise OSError("stdout is closed")
                _write(fh, payload)
                fh.flush()
    except OSError as exc:
        if out is None and sys.stdout is not None:
            _to_devnull(sys.stdout)
        errors.write(f"error: cannot write {out}: {exc.strerror or exc}\n" if out is not None
                     else "error: cannot write stdout\n")
        code = USAGE_ERROR
    try:
        if sys.stderr is not None:  # else fd 2 was closed when Python started
            sys.stderr.write(errors.getvalue())
            sys.stderr.flush()
    except OSError:  # stderr is on a closed pipe, say
        _to_devnull(sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
