"""Workload inputs, the CLI command of one operation, and the output check.

Every input is written here as JSON in the library's own file formats, without
importing the library, so a change to the library cannot change the inputs.

The seed does not pick new structures.  It picks, for each input, an exact
rescaling of a fixed base input: epsilon -> c*epsilon and the diagonal linear
symplectic map x_i -> lam_i*x_i, p_i -> p_i/lam_i.  A monomial of order n with
p-degree a_i and x-degree b_i in direction i is multiplied by
c**n * prod(lam_i**(b_i - a_i)).  Composition and the solver commute with this
map (checked exactly for every workload), so every output can be mapped back to
the base output and compared with a pinned digest, whatever the seed.  The cost
of an operation hardly depends on the scaling, while it depends over 20x on
the monomial supports of a random compose triple; drawing only the scaling keeps
the spread between seeds inside the benchmark's bounds.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("solve_so3", "solve_quadratic", "compose_mixed")

#: Powers of two only, so that no seed adds new prime factors to the
#: coefficients and the cost of an operation stays the same across seeds.
SCALE_C = tuple(Fraction(v) for v in ("1", "-1", "2", "-2", "1/2", "-1/2"))
SCALE_LAM = tuple(Fraction(v) for v in ("1", "2", "1/2"))

SO3 = {
    "dim": 3,
    "entries": [
        {"i": 1, "j": 2, "terms": [{"coeff": "1", "p": [], "x": [[3, 1]]}]},
        {"i": 1, "j": 3, "terms": [{"coeff": "-1", "p": [], "x": [[2, 1]]}]},
        {"i": 2, "j": 3, "terms": [{"coeff": "1", "p": [], "x": [[1, 1]]}]},
    ],
}
QUADRATIC = {
    "dim": 2,
    "entries": [{"i": 1, "j": 2, "terms": [{"coeff": "1", "p": [], "x": [[1, 2]]}]}],
}
SOLVE_ORDER = {"solve_so3": 4, "solve_quadratic": 6}

COMPOSE_DIM = 2
COMPOSE_ORDER = 6
#: Seeds of the monomial supports of the compose pool: the five of support
#: seeds 0-44 whose compose time is nearest the median of that sweep (within
#: 0.94x-1.06x of it; 2.2k-2.7k-term results).  README.md says why the pool is chosen by cost and which range it
#: leaves out.  They are ordered so that every prefix of a pass costs about
#: the pool's mean per op, since a timed phase may end within a pass.
COMPOSE_SUPPORT_SEEDS = (28, 42, 29, 9, 12)


@dataclass(frozen=True)
class Case:
    """One operation's input: the CLI argv and where its output lands."""

    index: int  # position in the workload's pool
    argv: tuple
    out_path: str
    c: Fraction
    lam: tuple


def draw_scaling(rng: random.Random, dim: int):
    return rng.choice(SCALE_C), tuple(rng.choice(SCALE_LAM) for _ in range(dim))


def scale_series(obj, c, lam):
    """Apply the rescaling to a series in the library's JSON format."""
    out = copy.deepcopy(obj)
    for entry in out["orders"]:
        for term in entry["terms"]:
            factor = Fraction(c) ** entry["order"]
            for _block, i, e in term["p"]:
                factor /= lam[i - 1] ** e
            for i, e in term["x"]:
                factor *= lam[i - 1] ** e
            term["coeff"] = str(Fraction(term["coeff"]) * factor)
    return out


def scale_poisson(obj, c, lam):
    """The bivector whose first-order term (1/2) p1.alpha.p2 is rescaled as above."""
    out = copy.deepcopy(obj)
    for entry in out["entries"]:
        for term in entry["terms"]:
            factor = Fraction(c) / (lam[entry["i"] - 1] * lam[entry["j"] - 1])
            for i, e in term["x"]:
                factor *= lam[i - 1] ** e
            term["coeff"] = str(Fraction(term["coeff"]) * factor)
    return out


def random_series(rng: random.Random, arity: int, dim: int, orders, terms=4, max_x_degree=2):
    """Graded series: ``terms`` distinct monomials per order, p-degree order+1."""
    p_vars = [(b, i) for b in range(1, arity + 1) for i in range(1, dim + 1)]
    nonzero = [k for k in range(-4, 5) if k]
    out = []
    for order in orders:
        monos = {}
        while len(monos) < terms:
            p_count, x_count = {}, {}
            for _ in range(order + 1):
                v = rng.choice(p_vars)
                p_count[v] = p_count.get(v, 0) + 1
            for _ in range(rng.randint(0, max_x_degree)):
                v = rng.randint(1, dim)
                x_count[v] = x_count.get(v, 0) + 1
            key = (tuple(sorted(p_count.items())), tuple(sorted(x_count.items())))
            if key not in monos:
                monos[key] = Fraction(rng.choice(nonzero), rng.randint(1, 3))
        out.append(
            {
                "order": order,
                "terms": [
                    {
                        "coeff": str(coeff),
                        "p": [[b, i, e] for (b, i), e in p_part],
                        "x": [[i, e] for i, e in x_part],
                    }
                    for (p_part, x_part), coeff in sorted(monos.items())
                ],
            }
        )
    return {"arity": arity, "dim": dim, "graded": True, "orders": out}


def compose_triple(support_seed: int):
    """Outer arity 2 with orders 1-4; inners of arities 2 and 1 with orders 1-3."""
    rng = random.Random(support_seed)
    outer = random_series(rng, 2, COMPOSE_DIM, [1, 2, 3, 4])
    inner_a = random_series(rng, 2, COMPOSE_DIM, [1, 2, 3])
    inner_b = random_series(rng, 1, COMPOSE_DIM, [1, 2, 3])
    return outer, inner_a, inner_b


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(obj, handle, indent=2)


def build(workload: str, seed: int, workdir: str, identity: bool = False):
    """Write the inputs of ``workload`` for ``seed`` and return its pool of cases.

    ``identity`` writes the unscaled base inputs, whose outputs are the pins.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    os.makedirs(workdir, exist_ok=True)
    cases = []
    if workload in SOLVE_ORDER:
        base = SO3 if workload == "solve_so3" else QUADRATIC
        c, lam = draw_scaling(rng, base["dim"])
        if identity:
            c, lam = Fraction(1), (Fraction(1),) * base["dim"]
        path = os.path.join(workdir, "poisson.json")
        _write_json(path, scale_poisson(base, c, lam))
        out = os.path.join(workdir, "out0.json")
        argv = ("solve", "--poisson", path, "--order", str(SOLVE_ORDER[workload]), "--out", out)
        cases.append(Case(0, argv, out, c, lam))
        return cases
    for index, support_seed in enumerate(COMPOSE_SUPPORT_SEEDS):
        c, lam = draw_scaling(rng, COMPOSE_DIM)
        if identity:
            c, lam = Fraction(1), (Fraction(1),) * COMPOSE_DIM
        paths = []
        for role, obj in zip(("outer", "inner_a", "inner_b"), compose_triple(support_seed)):
            path = os.path.join(workdir, f"{role}{index}.json")
            _write_json(path, scale_series(obj, c, lam))
            paths.append(path)
        out = os.path.join(workdir, f"out{index}.json")
        argv = (
            "compose", "--outer", paths[0], "--inner", f"{paths[1]},{paths[2]}",
            "--order", str(COMPOSE_ORDER), "--out", out,
        )
        cases.append(Case(index, argv, out, c, lam))
    return cases


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def unscaled_digest(data: bytes, case: Case) -> str:
    """Digest of the output mapped back to the base input, in the CLI's byte format."""
    obj = scale_series(json.loads(data), 1 / case.c, tuple(1 / v for v in case.lam))
    return digest((json.dumps(obj, indent=2) + "\n").encode("utf-8"))


class OutputCheck:
    """Decides whether one operation's output bytes are correct.

    Every output must map back to the pinned base digest of its pool entry.
    For a seed with pinned raw digests, the bytes must also match those.
    Verdicts are memoized per (pool entry, digest), so a repeated output is
    checked once.
    """

    def __init__(self, pins: dict, workload: str, seed: int):
        self.base = pins["base"][workload]
        self.raw = pins["raw"].get(str(seed), {}).get(workload)
        self._verdicts = {}

    def __call__(self, case: Case, data: bytes) -> bool:
        key = (case.index, digest(data))
        if key not in self._verdicts:
            ok = self.raw is None or self.raw[case.index] == key[1]
            try:
                ok = ok and unscaled_digest(data, case) == self.base[case.index]
            except (ValueError, KeyError, TypeError, ZeroDivisionError):
                ok = False
            self._verdicts[key] = ok
        return self._verdicts[key]


def load_pins(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)
