"""The `enumerate` command's output built the direct way, as an oracle.

`oracle_enumerate_text` turns every class into a row dict and serialises
the whole payload with `json.dumps(indent=1)`, or joins the CSV lines from
those dicts.  The CLI writes the same bytes from a fixed row template,
streamed class by class; this route shares only `enumerate_graphs` and
`RibbonGraph.to_json` with it.
"""

import json

from ribbonvol.ribbon import enumerate_graphs


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
