"""`Poly`'s display routes as they were before each term was sorted and
formatted once, as oracles.

`oracle_sorted_terms` sorts the terms with a per-term Python key, by total
degree and then by exponent tuple, both descending; `Poly._sorted_exps`
gets the same order from two C-level sorts.  `oracle_poly_str` and
`oracle_poly_json` each sort again and call `str` on every coefficient, and
`oracle_poly_str` grows its text term by term; the package reads one list of
(exp, str(c)) pairs (`Poly._term_texts`) for `str` and for the `volume`
command, whose "W" `oracle_poly_json` rebuilds.
"""


def oracle_sorted_terms(p) -> list:
    """The (exp, c) pairs of `p` by the key (-sum(exp), (-e for e in exp))."""
    return sorted(p.terms.items(), key=lambda kv: (-sum(kv[0]), tuple(-e for e in kv[0])))


def oracle_poly_str(p) -> str:
    """`str(p)`: the terms joined by " + ", or " - " before a negative
    coefficient, each coefficient but 1 and -1 written before its monomial."""
    if not p.terms:
        return "0"
    parts = []
    for exp, c in oracle_sorted_terms(p):
        mono = "*".join(
            f"{v}^{e}" if e > 1 else v
            for v, e in zip(p.vars, exp) if e
        )
        cs = str(c)
        if mono:
            piece = mono if cs == "1" else (f"-{mono}" if cs == "-1" else f"{cs}*{mono}")
        else:
            piece = cs
        parts.append(piece)
    out = parts[0]
    for part in parts[1:]:
        out += f" - {part[1:]}" if part.startswith("-") else f" + {part}"
    return out


def oracle_poly_json(p) -> dict:
    """The "W" of the `volume` payload: the variables and one {"exp", "coef"}
    dict per term."""
    return {
        "vars": list(p.vars),
        "terms": [{"exp": list(e), "coef": str(c)} for e, c in oracle_sorted_terms(p)],
    }
