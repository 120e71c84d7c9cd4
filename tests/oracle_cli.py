"""CLI outputs built the direct way, as oracles.

`oracle_json_text` is the standard library's `json.dumps(indent=1)`, the
encoder the CLI's own indent=1 writer (`_json_chunks`, `_json_text`) must
match byte for byte; the CLI itself never calls it.

`oracle_enumerate_text` turns every class of `enumerate_graphs`, one
relabelled graph per class, into a row dict and serialises the whole
payload with `json.dumps(indent=1)`, or joins the CSV lines from those
dicts.  The CLI reads `enumerate_maps`, of which `enumerate_graphs` is the
flattening, and writes the same bytes from a fixed row template, streamed
class by class with no graph per class; the two routes share only the map
search and the labelled classes of each map.

`oracle_class_stream` fills a map's row template once per class, each
class's labels read off the map's mask by walking all n! labellings, as
`_class_stream` did before it filled it once per map and joined the label
texts its mask keeps; the chunks differ, their bytes must not.

`oracle_identities_payload` builds the cell form, the identity checks and
the density once per labelled class, and one report dict per class, for
`json.dumps(indent=1)` to serialise.  The CLI builds them once per
unlabelled map, reuses them for every labelling of it, and streams each
class's row from a template formatted once per map.

`oracle_volume_payload` and `oracle_psi_payload` are the dicts `volume`
and `psi` returned before they were streamed: W's terms as one dict per
term and `W_str` from `Poly`'s old display routes (`oracle_poly`), which
sort the terms and format every coefficient once per route, and one dict
per nonzero psi number.  The CLI sorts and formats W's terms once and
streams both lists from one row template filled per term.

`oracle_parser` builds the argument parser with one hand-written
`add_argument` call per option, as `build_parser` did before the CLI's
grammar became one table; help, version and usage-error bytes must match.
"""

import argparse
import functools
import itertools
import json
from fractions import Fraction

from oracle_poly import oracle_poly_json, oracle_poly_str
from ribbonvol import __version__
from ribbonvol.cli import (_int_list, _parse_chord, _parse_degrees, _stream, cmd_angle,
                           cmd_enumerate, cmd_identities, cmd_psi, cmd_verify_kcf, cmd_volume,
                           cmd_witten12)
from ribbonvol.kformula import _cell_form, verify_form_identities
from ribbonvol.ribbon import enumerate_graphs, enumerate_trivalent
from ribbonvol.volumes import kontsevich_volume, psi_numbers


def oracle_json_text(value) -> str:
    """`value` as the stdlib encoder writes it with indent=1."""
    return json.dumps(value, indent=1)


def oracle_enumerate_text(args, classes=None) -> str:
    """The text of `enumerate` for parsed CLI `args` (g, n, degrees, format),
    from the (graph, aut) `classes` if given, else from `enumerate_graphs`."""
    if classes is None:
        classes = enumerate_graphs(args.g, args.n, args.degrees)
    rows = [{"graph": graph.to_json(), "aut": aut,
             "genus": graph.genus, "faces": graph.num_faces}
            for graph, aut in classes]
    if args.format == "csv":
        lines = ["index,aut,half_edges,s0,s1,face_labels"]
        for i, row in enumerate(rows):
            gj = row["graph"]
            lines.append(",".join([
                str(i), str(row["aut"]), str(gj["half_edges"]),
                " ".join(map(str, gj["s0"])),
                " ".join(map(str, gj["s1"])),
                " ".join(map(str, gj["face_labels"])),
            ]))
        return "\n".join(lines) + "\n"
    payload = {
        "v": 1,
        "command": "enumerate",
        "g": args.g,
        "n": args.n,
        "degrees": sorted(args.degrees, reverse=True),
        "count": len(rows),
        "classes": rows,
    }
    return json.dumps(payload, indent=1) + "\n"


def oracle_class_stream(head: dict, key: str, n: int, rows):
    """The chunks of the payload `head` with the list `key` streamed from
    `rows`, (template, aut, mask) triples of maps with n faces: one chunk
    per class, its template filled with the class's label text and |Aut|,
    for each labelling of 1..n the mask keeps (all when it is None)."""
    labels_text = functools.cache(_int_list)
    return _stream({**head, key: (
        row % (labels_text(labels), aut)
        for row, aut, mask in rows
        for labels, kept in zip(itertools.permutations(range(1, n + 1)),
                                itertools.repeat(True) if mask is None else mask)
        if kept)})


def oracle_identities_payload(args) -> dict:
    """The `identities` payload for parsed CLI `args` (g, n), one cell
    form per labelled class."""
    graphs = enumerate_trivalent(args.g, args.n)
    expected_density = Fraction(2) ** (1 - args.g)
    out = []
    all_ok = True
    for graph, aut in graphs:
        form = _cell_form(graph)
        rep = verify_form_identities(graph, form)
        rho = form.density()
        ok = rep["ok"] and rho == expected_density
        all_ok &= ok
        out.append({"graph": rep["graph"], "aut": aut, "checks": rep["checks"],
                    "density": str(rho), "ok": ok})
    return {
        "v": 1,
        "command": "identities",
        "g": args.g,
        "n": args.n,
        "expected_density": str(expected_density),
        "graphs": len(graphs),
        "ok": all_ok,
        "reports": out,
    }


def oracle_volume_payload(g: int, n: int) -> dict:
    """The `volume` payload of (g, n) as one dict."""
    W = kontsevich_volume(g, n)
    return {"v": 1, "command": "volume", "g": g, "n": n,
            "W": oracle_poly_json(W), "W_str": oracle_poly_str(W)}


def oracle_psi_payload(g: int, n: int) -> dict:
    """The `psi` payload of (g, n) as one dict."""
    table = psi_numbers(g, n)
    return {"v": 1, "command": "psi", "g": g, "n": n,
            "psi": [{"alpha": list(alpha), "value": str(val)}
                    for alpha, val in sorted(table.items()) if val != 0]}


def oracle_parser() -> argparse.ArgumentParser:
    """A fresh parser of every subcommand, written out call by call."""
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
