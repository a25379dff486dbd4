"""Every name a library, test or demo module imports is used in that module, no
private name crosses a library module boundary, and every library definition has
a user outside the tests.

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
DEMOS = sorted(ROOT.glob("demos/*.py"))
#: the test and demo modules, held to the unused-import check as well
SCRIPTS = sorted(ROOT.glob("tests/*.py")) + DEMOS


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
    assert "_require_shape" in KERNEL_PRIVATE


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


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def definitions(label: str, tree):
    """(qualified name, is a method, node) of the module-level functions and classes
    of ``tree`` and of the non-dunder methods of its classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{label}.{node.name}", False, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not _is_dunder(item.name):
                    yield f"{label}.{node.name}.{item.name}", True, item


def unreferenced(library: dict, users=()) -> list[str]:
    """The definitions of ``library`` (module name -> source) that no other code references.

    ``users`` holds the sources of further callers (the demos).  A function or
    class is referenced when code outside its own definition, in any of these
    sources, loads its name (``f``), reads it as an attribute (``m.f``) or
    imports it; a method, when such code reads an attribute of its name.
    Names are matched as text, so definitions that share a name keep each
    other.
    """
    trees = [(label, ast.parse(source)) for label, source in library.items()]
    defined = [d for label, tree in trees for d in definitions(label, tree)]
    owners = {node: name for name, _, node in defined}
    loads, attributes = {}, {}  # name -> the definitions whose code references it

    def visit(node, owner):
        if isinstance(node, ast.Name):
            loads.setdefault(node.id, set()).add(owner)
        elif isinstance(node, ast.Attribute):
            attributes.setdefault(node.attr, set()).add(owner)
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                loads.setdefault(alias.name, set()).add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owners.get(child, owner))

    for tree in [tree for _, tree in trees] + [ast.parse(source) for source in users]:
        visit(tree, None)
    unused = []
    for name, is_method, node in defined:
        users_of = set(attributes.get(node.name, ()))
        if not is_method:
            users_of |= loads.get(node.name, set())
        if not users_of - {name}:
            unused.append(name)
    return sorted(unused)


def test_the_check_sees_an_unreferenced_definition():
    library = {
        "kernel": (
            "def used():\n    return helper()\n"
            "def helper():\n    return 1\n"
            "def recursive(n):\n    return recursive(n - 1) if n else 0\n"
            "class Thing:\n"
            "    def __init__(self):\n        self.size = 0\n"
            "    def grow(self):\n        return self.shrink()\n"
            "    def shrink(self):\n        return self.size\n"
        ),
        "cli": "from kernel import used\nused()\n",
    }
    assert unreferenced(library) == ["kernel.Thing", "kernel.Thing.grow", "kernel.recursive"]
    # a demo is a user too
    assert unreferenced(library, ["from kernel import Thing, recursive\nThing().grow()\n"]) == []


def test_every_library_definition_has_a_user_outside_the_tests():
    # the tracer patches the folds by name (ROADMAP item 4), so they stay without a caller
    library = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    demos = [p.read_text(encoding="utf-8") for p in DEMOS]
    folds = {f"symbols.PolySymbol.{name}" for name in FOLDS}
    assert [name for name in unreferenced(library, demos) if name not in folds] == []
