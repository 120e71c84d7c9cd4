"""Command line interface.

Subcommands: enumerate, volume, psi, verify-kcf, identities, witten12,
angle.  Output is UTF-8 JSON (or CSV / LaTeX where noted), written to
stdout or --out.  Exit codes: 0 success, 1 verification failure, 2 usage
error.  Randomised commands require an explicit --seed, echoed in the
output.

JSON is written with the bytes of `json.dumps(payload, indent=1)`, streamed
chunk by chunk.  `enumerate` streams its classes from a row template filled
once per map and then once per class, with the same bytes as
`json.dumps(indent=1)` of the whole payload.

The argument parser is built on the first `main()` call and reused by every
later call in the process; a one-shot `ribbonvol` process pays one cold
build, a few milliseconds.  All that `main` writes to stdout, --help,
--version and error lines too, goes through one guarded write: an
unwritable stdout, such as a pipe closed by its reader, exits 2.
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
from math import comb

from . import __version__
from .exact import Poly
from .hypgeom import (IdealPolygonChord, chords_cross, crossing_cos, crossing_cos_error,
                      crossing_cos_exact)
from .kformula import _cell_form, verify_form_identities, verify_kcf
from .ribbon import enumerate_graphs, enumerate_trivalent
from .volumes import kontsevich_volume, psi_numbers, is_stable
from .wittencycle import witten12_report

USAGE_ERROR = 2
VERIFICATION_FAILURE = 1

# `volume` and `psi` refuse a (g, n) whose `_dvv_cost` exceeds this: 3.5
# CPU s on a 2-vCPU Xeon (Python 3.11).
_DVV_BUDGET = 3_500_000

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


def _stable_only(cmd):
    """Refuse an unstable (g, n) with a usage error instead of running `cmd`."""
    @functools.wraps(cmd)
    def checked(args) -> tuple:
        if not is_stable(args.g, args.n):
            print(f"error: ({args.g},{args.n}) is unstable", file=sys.stderr)
            return None, USAGE_ERROR
        return cmd(args)
    return checked


def _dvv_cost(g: int, n: int) -> float:
    """Estimated CPU microseconds of `volume` at a stable (g, n), which
    bounds `psi` too, d = 3g-3+n: 46 for each of the C(d+n-1, n-1) exponent
    tuples that `psi_numbers` fills and `volume` prints, plus d^5 (6 + n^2)
    / 10^4 for the DVV recursion, which peels the smallest index and grows
    like d^5 at n <= 2.  Fitted on a 2-vCPU Xeon (Python 3.11) to within a
    factor 1.5 of every run measured from 0.3 to 18 CPU s.
    """
    d = 3 * g - 3 + n
    return 46 * comb(d + n - 1, n - 1) + d ** 5 * (6 + n * n) / 10_000


def _in_reach(cmd):
    """Refuse a (g, n) above `_DVV_BUDGET` with exit 2, before any DVV work."""
    @functools.wraps(cmd)
    def checked(args) -> tuple:
        cost = _dvv_cost(args.g, args.n)
        if cost > _DVV_BUDGET:
            print(f"error: ({args.g},{args.n}) is out of reach: estimated "
                  f"{cost / 1e6:.2g} CPU s", file=sys.stderr)
            return None, USAGE_ERROR
        return cmd(args)
    return checked


def _int_list(xs, depth: int) -> str:
    """`xs`, a non-empty list of ints, as `json.dumps(indent=1)` writes it
    at `depth`."""
    pad = "\n" + " " * (depth + 1)
    return "[" + pad + ("," + pad).join(map(str, xs)) + "\n" + " " * depth + "]"


# One class of `enumerate` JSON at depth 2.  The map's fields are filled in
# first; the %% slots left are the separator, the face labels and |Aut|.
_CLASS_ROW = """%%s  {
   "graph": {
    "v": 1,
    "half_edges": %d,
    "s0": %s,
    "s1": %s,
    "face_labels": %%s
   },
   "aut": %%d,
   "genus": %d,
   "faces": %d
  }"""


def _map_runs(classes):
    """The (graph, aut) pairs of `enumerate_graphs`, one list per map.

    The classes of one map come consecutively and differ only in their face
    labels, so a map's run ends where the (s0, s1) pair changes.
    """
    for _, run in itertools.groupby(classes, key=lambda c: (c[0].s0, c[0].s1)):
        yield list(run)


def _enumerate_json(head: dict, classes):
    """The `enumerate` payload `head` with `"classes"` filled from the
    (graph, aut) pairs, streamed one class per chunk; half_edges, s0, s1,
    genus and faces are formatted once per map, and each distinct tuple of
    face labels once per payload, since the classes of every map draw their
    labels from the same n! permutations."""
    labels_text = functools.cache(functools.partial(_int_list, depth=4))
    text = json.dumps({**head, "classes": []}, indent=1)
    if not classes:
        yield text + "\n"
        return
    sep = text[:-len("[]\n}")] + "[\n"
    for run in _map_runs(classes):
        first = run[0][0]
        row = _CLASS_ROW % (len(first.s0), _int_list(first.s0, 4),
                            _int_list(first.s1, 4), first.genus, first.num_faces)
        for graph, aut in run:
            yield row % (sep, labels_text(graph.face_labels), aut)
            sep = ",\n"
    yield "\n ]\n}\n"


def _enumerate_csv(classes):
    """The `enumerate` CSV, with the map's columns formatted once per map
    and each distinct tuple of face labels once."""
    labels_text = functools.cache(lambda labels: " ".join(map(str, labels)))
    yield "index,aut,half_edges,s0,s1,face_labels\n"
    index = itertools.count()
    for run in _map_runs(classes):
        first = run[0][0]
        row = "%%d,%%d,%d,%s,%s,%%s\n" % (
            len(first.s0), " ".join(map(str, first.s0)), " ".join(map(str, first.s1)))
        for graph, aut in run:
            yield row % (next(index), aut, labels_text(graph.face_labels))


def cmd_enumerate(args) -> tuple:
    classes = enumerate_graphs(args.g, args.n, args.degrees)
    if args.format == "csv":
        return _enumerate_csv(classes), 0
    head = {
        "v": 1,
        "command": "enumerate",
        "g": args.g,
        "n": args.n,
        "degrees": sorted(args.degrees, reverse=True),
        "count": len(classes),
    }
    return _enumerate_json(head, classes), 0


@_stable_only
@_in_reach
def cmd_volume(args) -> tuple:
    W = kontsevich_volume(args.g, args.n)
    if args.format == "latex":
        return f"W_{{{args.g},{args.n}}} = {_poly_latex(W)}\n", 0
    payload = {
        "v": 1,
        "command": "volume",
        "g": args.g,
        "n": args.n,
        "W": W.to_json(),
        "W_str": str(W),
    }
    return payload, 0


@_stable_only
@_in_reach
def cmd_psi(args) -> tuple:
    table = psi_numbers(args.g, args.n)
    payload = {
        "v": 1,
        "command": "psi",
        "g": args.g,
        "n": args.n,
        "psi": [{"alpha": list(alpha), "value": str(val)}
                for alpha, val in sorted(table.items()) if val != 0],
    }
    return payload, 0


@_stable_only
def cmd_verify_kcf(args) -> tuple:
    report = verify_kcf(args.g, args.n, trials=args.trials, seed=args.seed)
    payload = {"v": 1, "command": "verify-kcf", **report}
    if not args.points:
        payload["points"] = payload["points"][:3]
    return payload, 0 if report["equal"] else VERIFICATION_FAILURE


@_stable_only
def cmd_identities(args) -> tuple:
    graphs = enumerate_trivalent(args.g, args.n)
    expected_density = Fraction(2) ** (1 - args.g)
    out = []
    all_ok = True
    # The checks and the density read only K, B, ker A and G, which the face
    # labels do not change (they permute the rows of A), so each map's cell
    # form is built and checked once.
    for run in _map_runs(graphs):
        first = run[0][0]
        form = _cell_form(first)
        rep = verify_form_identities(first, form)
        rho = form.density()
        ok = rep["ok"] and rho == expected_density
        all_ok &= ok
        for graph, aut in run:
            out.append({"graph": graph.to_json(), "aut": aut, "checks": rep["checks"],
                        "density": str(rho), "ok": ok})
    payload = {
        "v": 1,
        "command": "identities",
        "g": args.g,
        "n": args.n,
        "expected_density": str(expected_density),
        "graphs": len(graphs),
        "ok": all_ok,
        "reports": out,
    }
    return payload, 0 if all_ok else VERIFICATION_FAILURE


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
        print(f"error: {exc}", file=sys.stderr)
        return None, USAGE_ERROR
    if not chords_cross(c1, c2):
        print("error: chords do not cross", file=sys.stderr)
        return None, VERIFICATION_FAILURE
    err = crossing_cos_error(c1, c2)
    if err > _ANGLE_MAX_ERROR:
        print(f"error: the cosine's rounding error may reach {err:.2g}", file=sys.stderr)
        return None, USAGE_ERROR
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process on first use.

    Sharing it between `main()` calls is safe: argparse parses each call
    into a fresh namespace and looks up `sys.stdout` and `sys.stderr` only
    when it prints.  It is not built at import, which would add its cold
    build to the import time.
    """
    parser = argparse.ArgumentParser(
        prog="ribbonvol",
        description="Exact ribbon graph volumes and moduli intersection numbers.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_gn=True):
        if needs_gn:
            p.add_argument("--g", type=int, required=True, help="genus")
            p.add_argument("--n", type=int, required=True, help="number of labelled faces")
        p.add_argument("--out", type=str, default=None, help="output path (default stdout)")

    p = sub.add_parser("enumerate", help="list ribbon graph classes with a degree sequence")
    common(p)
    p.add_argument("--degrees", type=_parse_degrees, required=True,
                   help="comma separated vertex degrees, e.g. 5,3")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("volume", help="Kontsevich volume polynomial W_{g,n}")
    common(p)
    p.add_argument("--format", choices=("json", "latex"), default="json")
    p.set_defaults(func=cmd_volume)

    p = sub.add_parser("psi", help="psi-class intersection numbers")
    common(p)
    p.set_defaults(func=cmd_psi)

    p = sub.add_parser("verify-kcf", help="verify the combinatorial formula at random points")
    common(p)
    p.add_argument("--trials", type=int, default=30)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--points", action="store_true", help="emit every sampled point")
    p.set_defaults(func=cmd_verify_kcf)

    p = sub.add_parser("identities", help="matrix identities and cell densities")
    common(p)
    p.set_defaults(func=cmd_identities)

    p = sub.add_parser("witten12", help="the (1,2) combinatorial cycle computation")
    common(p, needs_gn=False)
    p.set_defaults(func=cmd_witten12)

    p = sub.add_parser("angle", help="crossing angle of two regular ideal polygon chords")
    common(p, needs_gn=False)
    p.add_argument("--d", type=int, required=True, help="polygon degree")
    p.add_argument("--chord1", type=_parse_chord, required=True, help="i,j")
    p.add_argument("--chord2", type=_parse_chord, required=True, help="i,j")
    p.set_defaults(func=cmd_angle)

    return parser


def _write(fh, payload) -> None:
    """Write a command's payload: a dict as indent=1 JSON, a str as is, or
    an iterable of str chunks as they are produced.  A dict is streamed
    from the encoder, so neither all its chunks nor the whole text are held
    at once; the chunks are joined in runs, since one write per chunk costs
    about a third more."""
    if isinstance(payload, dict):
        chunks = json.JSONEncoder(indent=1).iterencode(payload)
        while text := "".join(itertools.islice(chunks, 4096)):
            fh.write(text)
        fh.write("\n")
    elif isinstance(payload, str):
        fh.write(payload)
    else:
        fh.writelines(payload)


def main(argv=None) -> int:
    shown = io.StringIO()  # what --help or --version prints
    out = None  # --out takes only a command's payload
    try:
        with contextlib.redirect_stdout(shown):
            args = build_parser().parse_args(argv)
        payload, code = args.func(args)
        out = args.out
    except SystemExit as exc:
        payload, code = shown.getvalue(), USAGE_ERROR if exc.code not in (0, None) else 0
    except ValueError as exc:
        payload, code = json.dumps({"v": 1, "error": str(exc)}) + "\n", USAGE_ERROR
    if payload is None:
        return code
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                _write(fh, payload)
        except OSError as exc:
            print(f"error: cannot write {out}: {exc.strerror or exc}", file=sys.stderr)
            return USAGE_ERROR
        return code
    try:
        _write(sys.stdout, payload)
        sys.stdout.flush()
    except BrokenPipeError:
        # Send what is still buffered to devnull, so that the flush at exit
        # does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: cannot write stdout", file=sys.stderr)
        return USAGE_ERROR
    return code


if __name__ == "__main__":
    sys.exit(main())
