"""Golden gate: the exact bytes `gfoperad solve` writes for three pinned structures.

Any change to the kernel, the composition pipeline or the solver that alters a
coefficient, a term or the serialized order shows up here as a new digest.
One case also runs in a child interpreter under another hash seed, so the
output cannot depend on set or dict iteration order of hashed keys.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gfoperad.cli import main
from gfoperad.poisson import PoissonStructure, poisson_dumps
from gfoperad.solver import heisenberg_structure, lie_poisson_structure
from gfoperad.symbols import PolySymbol, x_key

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
