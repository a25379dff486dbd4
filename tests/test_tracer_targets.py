"""The benchmark's span tracer finds every target it patches and traces a run through them.

``perfbench/tracer.py`` is loaded read-only from its file.  A traced benchmark
run counts as correct only if every tracer target resolves, no operation
fails and every span's result can be measured; here a ``Tracer`` is installed
on the imported ``gfoperad`` modules, one small ``compose``, one small
``solve`` and the base inputs of the ``solve_quadratic`` and ``solve_so3``
workloads (alpha^{12} = x1^2 to order 6, so(3) to order 4) run through
``cli.main``, each traced output is compared with its untraced bytes, and
the originals are put back.  A renamed
target, or an ``elementary_function`` whose result carries no sized ``terms``
(the tracer counts ``len(result.terms)``), fails here.  ``compose`` keeps
each C_t packed, so the tracer's count of each one must equal the term count
of its decode.
"""

import hashlib
import importlib.util
import random
import sys
from pathlib import Path

from gfoperad import cli, operad
from gfoperad.poisson import poisson_dumps
from gfoperad.solver import lie_poisson_structure
from gfoperad.symbols import random_graded_series, series_dumps
from test_golden import GOLDEN, solve_argv as golden_solve_argv

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

#: spans that the compose and the solves below must record at least once
EXPECTED_SPANS = (
    "cli.main",
    "operad.compose",
    "trees.enumerate_unrooted",
    "elementary.elementary_function",
    "symbols.directional_contract",
    "symbols.contracted_gradient",
    "solver.solve_deformation",
    "deformation.obstruction",
)


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def gfoperad_modules() -> dict:
    return {
        name: module
        for name, module in sys.modules.items()
        if name == "gfoperad" or name.startswith("gfoperad.")
    }


def write_inputs(directory: Path) -> list:
    """The argv of one compose and three solves, on inputs written to ``directory``."""
    rng = random.Random(3)
    paths = {}
    for name, arity in (("outer", 2), ("inner_a", 2), ("inner_b", 1)):
        series = random_graded_series(rng, arity, 2, [1, 2, 3], 2, 2)
        paths[name] = directory / f"{name}.json"
        paths[name].write_text(series_dumps(series), encoding="utf-8")
    so3 = lie_poisson_structure(3, {(1, 2, 3): 1, (2, 3, 1): 1, (1, 3, 2): -1})
    paths["so3"] = directory / "so3.json"
    paths["so3"].write_text(poisson_dumps(so3), encoding="utf-8")
    compose_argv = [
        "compose", "--outer", str(paths["outer"]),
        "--inner", f"{paths['inner_a']},{paths['inner_b']}",
        "--order", "4", "--out", str(directory / "composed.json"),
    ]
    solve_argv = [
        "solve", "--poisson", str(paths["so3"]), "--order", "3",
        "--out", str(directory / "solved.json"),
    ]
    quadratic_argv, _ = golden_solve_argv(directory, "quadratic")
    so3_argv, _ = golden_solve_argv(directory, "so3")
    return [compose_argv, solve_argv, quadratic_argv, so3_argv]


def test_every_tracer_target_resolves_and_a_traced_run_completes(tmp_path, monkeypatch):
    tracing = load_tracer()
    commands = write_inputs(tmp_path)
    untraced = []
    for argv in commands:
        assert cli.main(argv) == 0
        untraced.append(Path(argv[-1]).read_bytes())

    # every C_t of the traced runs, in call order, under the tracer's wrapper
    functions = []
    real = operad.elementary_function

    def recorded(*args):
        functions.append(real(*args))
        return functions[-1]

    monkeypatch.setattr(operad, "elementary_function", recorded)
    original = operad.elementary_function
    tracer = tracing.Tracer()
    try:
        tracer.install(gfoperad_modules())
        assert tracer.missing == []
        for op, argv in enumerate(commands):
            tracer.op = op
            assert cli.main(argv) == 0
            assert Path(argv[-1]).read_bytes() == untraced[op]
    finally:
        tracer.restore()
    assert operad.elementary_function is original
    # the base inputs of the solve workloads keep their golden bytes traced
    assert hashlib.sha256(untraced[2]).hexdigest() == GOLDEN["quadratic"][2]
    assert hashlib.sha256(untraced[3]).hexdigest() == GOLDEN["so3"][2]

    called = {tracer.names[name_id] for name_id in tracer.name_of}
    assert [name for name in EXPECTED_SPANS if name not in called] == []
    # the tracer counted each packed C_t's terms as its decode holds them
    elementary = tracer.names.index("elementary.elementary_function")
    counts = [c for i, c in zip(tracer.name_of, tracer.count) if i == elementary]
    assert any(counts)
    assert counts == [len(value.decode().terms) for value in functions]

