"""CLI outputs built the direct way, as oracles.

`oracle_enumerate_text` turns every class into a row dict and serialises
the whole payload with `json.dumps(indent=1)`, or joins the CSV lines from
those dicts.  The CLI writes the same bytes from a fixed row template,
streamed class by class; this route shares only `enumerate_graphs` and
`RibbonGraph.to_json` with it.

`oracle_identities_payload` builds the cell form, the identity checks and
the density once per labelled class.  The CLI builds them once per
unlabelled map and reuses them for every labelling of it.
"""

import json
from fractions import Fraction

from ribbonvol.kformula import _cell_form, verify_form_identities
from ribbonvol.ribbon import enumerate_graphs, enumerate_trivalent


def oracle_enumerate_text(args) -> str:
    """The text of `enumerate` for parsed CLI `args` (g, n, degrees, format)."""
    rows = [{"graph": graph.to_json(), "aut": aut,
             "genus": graph.genus, "faces": graph.num_faces}
            for graph, aut in enumerate_graphs(args.g, args.n, args.degrees)]
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
