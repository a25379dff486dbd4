"""Golden gate: the exact bytes `gfoperad solve`, `compose` and `trees enum` write.

Any change to the kernel, the composition pipeline or the solver that alters a
coefficient, a term or the serialized order shows up here as a new digest.
One case also runs in a child interpreter under another hash seed, so the
output cannot depend on set or dict iteration order of hashed keys.
"""

import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from gfoperad.cli import main
from gfoperad.poisson import PoissonStructure, poisson_dumps
from gfoperad.solver import heisenberg_structure, lie_poisson_structure
from gfoperad.symbols import (
    FormalSeries,
    PolySymbol,
    random_graded_series,
    series_dumps,
    x_key,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def so3():
    return lie_poisson_structure(3, {(1, 2, 3): 1, (2, 3, 1): 1, (1, 3, 2): -1})


def quadratic():
    return PoissonStructure(2, {(1, 2): PolySymbol(2, 0, {((x_key(1), 2),): 1})})


#: name -> (structure, order, sha256 of the output file)
GOLDEN = {
    "so3": (so3, 4, "7c95c18fbddbd0ce17b51dc5e529da0f140698222968beeb4967fa39a9ccc6ca"),
    "heisenberg": (heisenberg_structure, 6, "ccf31a75d31e170e809c32a035263917f8302efa4d96460866ff3b699be34a5f"),
    "quadratic": (quadratic, 6, "aacbf40fac5a44cb6d668e0c6bfb615d5ab8634a6a3b50c95b78c5f1d9fb18c1"),
}


def solve_argv(tmp_path, name):
    build, order, _ = GOLDEN[name]
    poisson = tmp_path / f"{name}.json"
    poisson.write_text(poisson_dumps(build()) + "\n")
    out = tmp_path / f"{name}.out.json"
    return ["solve", "--poisson", str(poisson), "--order", str(order), "--out", str(out)], out


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_solve_output_digest(tmp_path, name):
    argv, out = solve_argv(tmp_path, name)
    assert main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[name][2]


def test_solve_output_digest_other_hash_seed(tmp_path):
    argv, out = solve_argv(tmp_path, "heisenberg")
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONHASHSEED="1", PYTHONPATH=pythonpath)
    subprocess.run(
        [sys.executable, "-m", "gfoperad.cli", *argv], env=env, check=True, timeout=300
    )
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN["heisenberg"][2]


def random_series(seed, arity):
    return random_graded_series(random.Random(seed), arity, 2, [1, 2, 3])


#: name -> (outer, inners, order, sha256 of the output file); every input has
#: dim 2.  The cases cover inner arities (2, 1), a nonzero outer with an
#: arity-0 inner in one slot, and every inner of arity 0 (an arity-0 result).
COMPOSE_GOLDEN = {
    "arities-2-1": (
        lambda: random_series(1, 2),
        lambda: [random_series(2, 2), random_series(3, 1)],
        4,
        "b71950598df557c147d388bd43e1d6d738d8909c26791fe38b572ad89faa2ff2",
    ),
    "arity-0-slot": (
        lambda: random_series(12, 2),
        lambda: [FormalSeries.zero(2, 0), random_series(5, 2)],
        4,
        "c0b1859c6c30d884b27f52e6a78edd480aadefe948ff26c176b40332db5cdecd",
    ),
    "all-arity-0": (
        lambda: random_series(6, 2),
        lambda: [FormalSeries.zero(2, 0), FormalSeries.zero(2, 0)],
        4,
        "29867ba2dca503ce9709cc5bef46c11c9578ab1ee8f927d368a04f2ba7a30b21",
    ),
}


@pytest.mark.parametrize("name", sorted(COMPOSE_GOLDEN))
def test_compose_output_digest(tmp_path, name):
    outer, inners, order, digest = COMPOSE_GOLDEN[name]
    outer_path = tmp_path / "outer.json"
    outer_path.write_text(series_dumps(outer()) + "\n")
    inner_paths = []
    for slot, inner in enumerate(inners(), start=1):
        path = tmp_path / f"inner{slot}.json"
        path.write_text(series_dumps(inner) + "\n")
        inner_paths.append(str(path))
    out = tmp_path / "out.json"
    argv = ["compose", "--outer", str(outer_path), "--inner", ",".join(inner_paths)]
    assert main([*argv, "--order", str(order), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


#: argv after ``trees enum`` -> sha256 of stdout.  The unrooted listing pins
#: each class's canonical representative, its sigma and the listing order.
TREES_GOLDEN = {
    ("--max-order", "8"): "f9f315b7d2f38035c0454b0ae380503bc2047d64b7285069b533992a40ac3b5c",
    ("--max-order", "6", "--rooted"): "e1089ddb9dabade9a4437c4a838ac1ce4c53372ffcf7e17a41043a2038365fa3",
}


@pytest.mark.parametrize("args", sorted(TREES_GOLDEN), ids=" ".join)
def test_trees_enum_output_digest(capsys, args):
    assert main(["trees", "enum", *args]) == 0
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode()).hexdigest() == TREES_GOLDEN[args]
