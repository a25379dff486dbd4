"""Golden gate: the exact bytes `gfoperad solve`, `compose`, `trees enum`,
`cobound`, `maps` and `poisson` write.

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

from gfoperad import deformation, solver
from gfoperad.cli import main
from gfoperad.poisson import PoissonStructure, poisson_dumps
from gfoperad.solver import (
    bch_generating_function,
    heisenberg_structure,
    lie_poisson_structure,
    solve_deformation,
)
from gfoperad.symbols import (
    FormalSeries,
    PackedLayout,
    PolySymbol,
    _shared_layout,
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
    # order 5 reaches p-degree 6, so the block maps expand higher binomials
    "so3-order-5": (so3, 5, "68b136a9d7be2c24cd0e302f44a37ce61e19fd46f081c3eae46b547d3e7856cb"),
    "heisenberg": (heisenberg_structure, 6, "ccf31a75d31e170e809c32a035263917f8302efa4d96460866ff3b699be34a5f"),
    "quadratic": (quadratic, 6, "aacbf40fac5a44cb6d668e0c6bfb615d5ab8634a6a3b50c95b78c5f1d9fb18c1"),
    # every order is nonzero up to the cap, so every weight of the tree table is used
    "quadratic-order-8": (quadratic, 8, "9c0349611eef4718718c2f02307a81b4fd3ef598eef6028ec4913cddcee3a3a0"),
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
#: dim 2.  The cases cover inner arities (2, 1), inner arities (1, 3) (an
#: arity-1 slot first, then a three-block sum in the base point), a nonzero
#: outer with an arity-0 inner in one slot, and every inner of arity 0 (an
#: arity-0 result).  Two of them also run at the order cap 8.
COMPOSE_GOLDEN = {
    "arities-2-1": (
        lambda: random_series(1, 2),
        lambda: [random_series(2, 2), random_series(3, 1)],
        4,
        "b71950598df557c147d388bd43e1d6d738d8909c26791fe38b572ad89faa2ff2",
    ),
    "arities-1-3": (
        lambda: random_series(13, 2),
        lambda: [random_series(14, 1), random_series(15, 3)],
        6,
        "9e7ef1522e8f35b87a998ad2d56e75a0620a32de5b7560448265e7d793acc793",
    ),
    "arities-1-3-order-8": (
        lambda: random_series(13, 2),
        lambda: [random_series(14, 1), random_series(15, 3)],
        8,
        "1b2e3f85405ddb6dfb8985214358a0a18510d47fdcaff1975580f9a91ed26ddd",
    ),
    "arity-0-slot": (
        lambda: random_series(12, 2),
        lambda: [FormalSeries.zero(2, 0), random_series(5, 2)],
        4,
        "c0b1859c6c30d884b27f52e6a78edd480aadefe948ff26c176b40332db5cdecd",
    ),
    "arity-0-slot-order-8": (
        lambda: random_series(12, 2),
        lambda: [FormalSeries.zero(2, 0), random_series(5, 2)],
        8,
        "1939d97c8fdf08dc57ba14c3c60b40c422eff7a779d593b6c53bdcfdff9a0dda",
    ),
    "all-arity-0": (
        lambda: random_series(6, 2),
        lambda: [FormalSeries.zero(2, 0), FormalSeries.zero(2, 0)],
        4,
        "29867ba2dca503ce9709cc5bef46c11c9578ab1ee8f927d368a04f2ba7a30b21",
    ),
}


def compose_argv(tmp_path, name):
    outer, inners, order, _ = COMPOSE_GOLDEN[name]
    outer_path = tmp_path / f"{name}.outer.json"
    outer_path.write_text(series_dumps(outer()) + "\n")
    inner_paths = []
    for slot, inner in enumerate(inners(), start=1):
        path = tmp_path / f"{name}.inner{slot}.json"
        path.write_text(series_dumps(inner) + "\n")
        inner_paths.append(str(path))
    out = tmp_path / f"{name}.out.json"
    argv = ["compose", "--outer", str(outer_path), "--inner", ",".join(inner_paths)]
    return [*argv, "--order", str(order), "--out", str(out)], out


@pytest.mark.parametrize("name", sorted(COMPOSE_GOLDEN))
def test_compose_output_digest(tmp_path, name):
    argv, out = compose_argv(tmp_path, name)
    assert main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == COMPOSE_GOLDEN[name][3]


def test_warm_caches_change_no_output(tmp_path, monkeypatch):
    # a compose and two solves, each order starting from cold layouts, order
    # systems and coboundary images, so every later op meets what the earlier built
    ops = {
        "compose": (*compose_argv(tmp_path, "arities-1-3"), COMPOSE_GOLDEN["arities-1-3"][3]),
        "so3": (*solve_argv(tmp_path, "so3"), GOLDEN["so3"][2]),
        "quadratic": (*solve_argv(tmp_path, "quadratic"), GOLDEN["quadratic"][2]),
    }
    for sequence in (("compose", "so3", "quadratic"), ("quadratic", "so3", "compose")):
        _shared_layout.cache_clear()
        solver._order_system.cache_clear()
        deformation._p_coboundary.cache_clear()
        for name in sequence:
            argv, out, digest = ops[name]
            assert main(argv) == 0
            assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, (sequence, name)

    # a warm repeat builds no layout: each comes from the process's cache
    built = []
    init = PackedLayout.__init__

    def counting(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(PackedLayout, "__init__", counting)
    for argv, out, digest in ops.values():
        assert main(argv) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    assert built == []


@pytest.mark.parametrize("name", ["arity-0-slot", "arities-1-3"])
def test_compose_changes_variables_only_by_block_maps(tmp_path, monkeypatch, name):
    # compose maps its inputs and its base point with map_blocks alone
    def refuse(*args, **kwargs):
        raise AssertionError("compose must not call substitute or remap_variables")

    monkeypatch.setattr(PolySymbol, "substitute", refuse)
    monkeypatch.setattr(PolySymbol, "remap_variables", refuse)
    test_compose_output_digest(tmp_path, name)


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


#: name -> (command, input series, extra argv, sha256 of the output file).
#: ``cobound`` runs on random dim-2 graded series of arities 1-3; ``maps`` and
#: ``poisson`` on products that pass the structure conditions: the x.bch series
#: of so(3) and the solved quadratic bracket.
SERIES_GOLDEN = {
    "cobound-arity-1": ("cobound", lambda: random_series(7, 1), (), "2333c34a6488e6843b8759533a1410677e922651d3f69036e2bcb03243eb5fef"),
    "cobound-arity-2": ("cobound", lambda: random_series(8, 2), (), "30a7166a8654ec1b1174ec8be9d662f1d735285a91e00ec0b08605169670d6ce"),
    "cobound-arity-3": ("cobound", lambda: random_series(9, 3), (), "48c105d22414b676bd946407b7d6275f95851d287e05e2d07bf651b9306fc602"),
    "maps-so3-bch": (
        "maps",
        lambda: bch_generating_function(so3(), 4),
        ("--order", "4"),
        "3a47b1ee2cc677f7b0db74007872d6f35eb31dd07ff1ebe69e308a7910333c74",
    ),
    "maps-quadratic": (
        "maps",
        lambda: solve_deformation(quadratic(), 4),
        ("--order", "4"),
        "8adc14609273696700cf3efc6ebdbf73b6893b196251635399566afa782e1d18",
    ),
    "poisson-so3-bch": ("poisson", lambda: bch_generating_function(so3(), 2), (), "af04c895a0ccb35f6cadf600767b7c4af4202bbce54b76eecb00cfb840e985c2"),
    "poisson-quadratic": ("poisson", lambda: solve_deformation(quadratic(), 3), (), "2c3b3ca817b161f67bb7c9a8aafeb70443a341f395f1edb7de63d966eb0ae632"),
}


@pytest.mark.parametrize("name", sorted(SERIES_GOLDEN))
def test_series_command_output_digest(tmp_path, name):
    command, build, extra, digest = SERIES_GOLDEN[name]
    infile = tmp_path / "in.json"
    infile.write_text(series_dumps(build()) + "\n")
    out = tmp_path / "out.json"
    assert main([command, "--in", str(infile), *extra, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
