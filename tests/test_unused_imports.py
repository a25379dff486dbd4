"""Every name a library, test or demo module imports is used in that module, and
no private name crosses a library module boundary.

``__init__.py`` is skipped: it imports names to re-export them.  The kernel's
term representation belongs to ``symbols``: no other module imports an
underscore name from a ``gfoperad`` module or names a single-underscore
attribute of ``PolySymbol`` or ``FormalSeries``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gfoperad"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
#: the test and demo modules, held to the unused-import check as well
SCRIPTS = sorted(ROOT.glob("tests/*.py")) + sorted(ROOT.glob("demos/*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_the_check_sees_an_unused_name():
    source = "from fractions import Fraction\nimport math\nimport os.path\nprint(math.pi)\n"
    assert unused_imports(source) == ["line 1: Fraction", "line 3: os"]


@pytest.mark.parametrize(
    "path",
    MODULES + SCRIPTS,
    ids=[p.name for p in MODULES] + [str(p.relative_to(ROOT)) for p in SCRIPTS],
)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


KERNEL_CLASSES = ("PolySymbol", "FormalSeries")


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def kernel_private_methods(source: str) -> set[str]:
    """The single-underscore methods of the kernel classes defined in ``source``."""
    return {
        item.name
        for node in ast.parse(source).body
        if isinstance(node, ast.ClassDef) and node.name in KERNEL_CLASSES
        for item in node.body
        if isinstance(item, ast.FunctionDef) and _is_private(item.name)
    }


KERNEL_PRIVATE = kernel_private_methods((PACKAGE / "symbols.py").read_text(encoding="utf-8"))


def private_reaches(source: str, module: str, kernel_private=KERNEL_PRIVATE) -> list[str]:
    """The private names that library module ``module`` (e.g. "solver") reaches in others.

    Flagged: an underscore name imported from another ``gfoperad`` module or
    read from one imported whole (``from gfoperad import trees``), and,
    outside ``symbols``, a single-underscore attribute of ``PolySymbol`` or
    ``FormalSeries`` or any attribute named like one of their private methods.
    """
    tree = ast.parse(source)
    found = []
    modules = set()  # names bound to gfoperad modules by ``from gfoperad import ...``
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "gfoperad":
            modules.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("gfoperad."):
            if node.module != f"gfoperad.{module}":
                found += [
                    (node.lineno, f"{alias.name} from {node.module}")
                    for alias in node.names
                    if _is_private(alias.name)
                ]
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute) or not _is_private(node.attr):
            continue
        owner = node.value.id if isinstance(node.value, ast.Name) else None
        if owner in modules:
            found.append((node.lineno, f"{owner}.{node.attr}"))
        elif module != "symbols" and (owner in KERNEL_CLASSES or node.attr in kernel_private):
            found.append((node.lineno, f".{node.attr}"))
    return [f"line {line}: {text}" for line, text in sorted(found)]


def test_the_check_sees_a_private_reach():
    source = (
        "from gfoperad import trees as trees_mod\n"
        "from gfoperad.symbols import PolySymbol, _accumulate, p_key\n"
        "from gfoperad.operad import compose as _compose\n"
        "a = PolySymbol._trusted(1, 0, {})\n"
        "b = a._map(None, 1, 0)\n"
        "c = trees_mod._top_tree\n"
        "self._hash = 0\n"
    )
    assert private_reaches(source, "solver", {"_map", "_trusted"}) == [
        "line 2: _accumulate from gfoperad.symbols",
        "line 4: ._trusted",
        "line 5: ._map",
        "line 6: trees_mod._top_tree",
    ]
    # the kernel may use its own private names
    assert private_reaches("x = PolySymbol._trusted(1, 0, {})\n", "symbols") == []


def test_the_kernel_classes_have_private_methods():
    assert {"_trusted", "_require_shape"} <= KERNEL_PRIVATE


#: general substitutions with no library caller, kept off every hot path
FOLDS = ("substitute", "remap_variables")


def fold_calls(source: str) -> list[str]:
    """The calls ``<expr>.substitute(...)`` and ``<expr>.remap_variables(...)`` in ``source``."""
    return [
        f"line {node.lineno}: .{node.func.attr}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in FOLDS
    ]


def test_the_check_sees_a_fold_call():
    source = (
        "a = s.substitute({}, 1, 0)\n"
        "b = s.map_blocks({}, 1)\n"
        "c = f(s).remap_variables({}, 1, 0)\n"
    )
    assert fold_calls(source) == ["line 1: .substitute", "line 3: .remap_variables"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "symbols"], ids=lambda p: p.name)
def test_library_changes_variables_only_by_map_blocks(path):
    assert fold_calls(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_reaches_no_private_name_of_another(path):
    assert private_reaches(path.read_text(encoding="utf-8"), path.stem) == []
