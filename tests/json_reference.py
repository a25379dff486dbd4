"""Reference JSON objects for the writer in ``gfoperad.symbols``.

The library writes its documents directly; these builders give the objects
whose ``json.dumps(obj, indent=2)`` text the writer must reproduce byte for
byte, and the term lists that ``poly_from_obj`` must read back.
"""


def poly_to_obj(sym):
    terms = []
    for mono, coeff in sym.ordered_terms():
        p_part = sorted([v[1], v[2], e] for v, e in mono if v[0] == "p")
        x_part = sorted([v[1], e] for v, e in mono if v[0] == "x")
        terms.append({"coeff": str(coeff), "p": p_part, "x": x_part})
    return terms


def series_to_obj(series):
    return {
        "arity": series.blocks,
        "dim": series.dim,
        "graded": series.graded,
        "orders": [
            {"order": i, "terms": poly_to_obj(series.orders[i])}
            for i in sorted(series.orders)
        ],
    }


def poisson_to_obj(alpha):
    return {
        "dim": alpha.dim,
        "entries": [
            {"i": i, "j": j, "terms": poly_to_obj(sym)}
            for (i, j), sym in sorted(alpha.entries.items())
        ],
    }
