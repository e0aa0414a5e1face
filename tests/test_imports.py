"""Every module of the package reads each name it imports, in the scope
the import binds it in; every public top-level function and class is read
somewhere beyond its own definition; importing the package and its CLI
loads no module that only a process pool or a dataclass needs, and of the
package only cli, errors and perms; each subcommand loads only the modules
it runs; every public name of the package resolves lazily to the object
its module defines; and src/ stays within its line ceiling.

Stdlib stand-ins for a linter's unused-import and dead-code rules.
__init__.py is left out of the first: its imports are the package's public
names.
"""

import ast
import importlib
import os
import re
import subprocess
import symtable
import sys
from pathlib import Path

import pytest

import bruhatpoly

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "bruhatpoly"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
# the most lines src/bruhatpoly/*.py may hold together, as wc -l counts them
LINE_CEILING = 2451
# where a public name of the package may be read: the package itself, the
# demos, and the benchmark, which calls workers by their names in strings
READERS = sorted([*SRC.glob("*.py"), *ROOT.glob("demos/*.py"), *ROOT.glob("bench/*.py")])


def _annotation_names(tree):
    """The names read in annotations, which symtable does not see under
    from __future__ import annotations."""
    notes = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            notes.append(node.returns)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            notes.append(node.annotation)
    return {n.id for note in notes if note for n in ast.walk(note) if isinstance(n, ast.Name)}


def _read_below(table, name):
    """Whether a scope nested in table reads name as table's binding.  A
    function that binds name hides it from itself and its nested scopes; a
    class body that binds it hides it only from itself."""
    for child in table.get_children():
        sym = child.lookup(name) if name in child.get_identifiers() else None
        if sym is not None and sym.is_local():
            if child.get_type() == "function":
                continue
        elif sym is not None and sym.is_referenced():
            return True
        if _read_below(child, name):
            return True
    return False


def unused_imports(source):
    """The names bound by import statements in source that nothing reads
    in the scope the import binds them in, scope by scope in order of
    appearance; __future__ imports are not names, and a name read in any
    annotation counts as read."""
    tree = ast.parse(source)
    future = {
        a.name for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "__future__" for a in node.names
    }
    annotated = _annotation_names(tree)
    unused = []

    def visit(table):
        for sym in table.get_symbols():
            name = sym.get_name()
            if sym.is_imported() and not (
                sym.is_referenced() or name in annotated or _read_below(table, name)
            ):
                unused.append(name)
        for child in table.get_children():
            visit(child)

    visit(symtable.symtable(source, "<source>", "exec"))
    return [name for name in unused if name not in future]


def test_modules_found():
    assert MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_caught():
    source = "import os\nfrom math import gcd, lcm\nfrom x import y as z\nprint(gcd, z)\n"
    assert unused_imports(source) == ["os", "lcm"]
    # a local of the same name does not read the import
    shadowed = "from itertools import chain\ndef f():\n    chain = []\n    return chain\n"
    assert unused_imports(shadowed) == ["chain"]
    # reads in annotations count, and a function reads its own imports
    read = (
        "from __future__ import annotations\n"
        "from typing import Any\n"
        "def f(x: Any) -> None:\n"
        "    from math import gcd\n"
        "    def g():\n"
        "        return gcd\n"
        "    return g\n"
    )
    assert unused_imports(read) == []


def _reads(node):
    """The identifiers read under node: names, attributes, imported names,
    and the words of string constants other than docstrings."""
    docs = {
        id(n.value) for n in ast.walk(node)
        if isinstance(n, ast.Expr) and isinstance(n.value, ast.Constant)
    }
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and id(n) not in docs:
            yield from re.findall(r"\w+", n.value)


def orphans(sources):
    """The public top-level functions and classes of sources, a dict from
    module name to source text, that no source reads outside their own
    definition, as module.name.  Reads are matched by name alone."""
    readers = {}  # name -> the (module, top-level definition or None) reading it
    defined = []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            owner = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
            if owner and not owner.startswith("_"):
                defined.append((module, owner))
            for name in _reads(node):
                readers.setdefault(name, set()).add((module, owner))
    return [
        f"{module}.{name}" for module, name in defined
        if not readers.get(name, set()) - {(module, name)}
    ]


def test_no_orphan_names():
    sources = {f"{p.parent.name}.{p.stem}": p.read_text() for p in READERS}
    assert orphans(sources) == []


def test_orphan_name_is_caught():
    sources = {
        "a": "def used():\n    pass\ndef orphan():\n    return orphan()\ndef _private():\n    pass\n",
        # a docstring is no read; a name in a string is, as the benchmark calls workers
        "b": "'''Not orphan.'''\nimport a\nCALLS = ['a.used']\n",
    }
    assert orphans(sources) == ["a.orphan"]


def _modules_added(*argv):
    """The modules a fresh process adds by importing bruhatpoly and its CLI
    and then, if argv is given, running the command argv in-process (it must
    exit 0).  Whatever the interpreter's site hooks load beforehand does not
    count."""
    code = (
        "import contextlib, io, sys\n"
        "before = set(sys.modules)\n"
        "import bruhatpoly, bruhatpoly.cli\n"
        "if sys.argv[1:]:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert bruhatpoly.cli.main(sys.argv[1:]) == 0\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    return set(subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True, text=True, check=True, timeout=60,
        env={**os.environ, "PYTHONPATH": path},
    ).stdout.split())


def test_import_loads_no_pool_or_dataclasses():
    added = _modules_added()
    assert "bruhatpoly.cli" in added
    assert not {"concurrent.futures", "multiprocessing", "dataclasses", "inspect"} & added


def test_import_loads_only_cli_errors_and_perms():
    added = {m for m in _modules_added() if m.split(".")[0] == "bruhatpoly"}
    assert added == {"bruhatpoly", "bruhatpoly.cli", "bruhatpoly.errors", "bruhatpoly.perms"}


@pytest.mark.parametrize(
    "argv, unloaded",
    [
        (("interval", "12345", "54321", "--lift"), {"polytopes", "rpoly", "parabolic", "checks", "exactlp"}),
        (("rpoly", "12345", "54321", "--tilde"), {"polytopes", "parabolic", "checks", "exactlp"}),
        (("polytope", "12345", "54321", "--dim"), {"rpoly", "parabolic", "checks"}),
        (("parabolic", "12345", "45123", "--J", "2"), {"polytopes", "rpoly", "checks", "exactlp"}),
        (("parabolic", "12345", "45123", "--J", "2", "--faces-check"), {"rpoly", "checks"}),
    ],
    ids=["interval", "rpoly", "polytope", "parabolic", "parabolic-faces-check"],
)
def test_subcommand_loads_only_its_modules(argv, unloaded):
    added = _modules_added(*argv)
    assert "bruhatpoly.intervals" in added  # the command ran
    assert not {f"bruhatpoly.{m}" for m in unloaded} & added


# every name the package exported when __init__.py imported its modules eagerly
EXPORTED = {
    "errors": ["DomainError", "NotComparableError"],
    "intervals": [
        "BruhatInterval", "atoms", "chain_via_atoms", "chain_via_coatoms", "coatoms",
        "generalized_lift", "interval", "inversion_minimal_transpositions",
    ],
    "parabolic": [
        "min_coset_rep", "parabolic_bip_vertices", "parabolic_faces_check", "weight_point",
    ],
    "perms": [
        "bruhat_leq", "compose", "descents", "format_perm", "identity", "inverse",
        "is_cover", "length", "longest_element", "parse_perm",
    ],
    "polytopes": [
        "bip_inequalities", "block_partition", "crown_type", "diameter", "dimension",
        "enumerate_faces", "f_vector", "interval_matroids", "is_face", "is_toric",
        "minkowski_check", "normal_cone", "vertices",
    ],
    "rpoly": [
        "IntPolynomial", "extend_to_special_matching", "find_special_matchings",
        "generalized_r_identity", "is_special_matching", "multiplication_matching",
        "r_polynomial", "r_tilde", "recurrence_counterexample_check",
        "special_matching_r_identity",
    ],
}


@pytest.mark.parametrize("module", sorted(EXPORTED))
def test_lazy_names_are_the_module_objects(module):
    mod = importlib.import_module(f"bruhatpoly.{module}")
    for name in EXPORTED[module]:
        assert getattr(bruhatpoly, name) is getattr(mod, name), name
        assert name in dir(bruhatpoly) and name in bruhatpoly.__all__


def test_lazy_namespace_has_only_these_names_and_its_submodules():
    assert sorted(bruhatpoly.__all__) == sorted(n for names in EXPORTED.values() for n in names)
    with pytest.raises(AttributeError, match="no attribute 'nosuch'"):
        bruhatpoly.nosuch
    from bruhatpoly import checks

    assert checks.__name__ == "bruhatpoly.checks" and callable(checks.run_suite)
    assert bruhatpoly.checks is checks


def test_src_stays_within_its_line_ceiling():
    lines = {p.name: p.read_bytes().count(b"\n") for p in SRC.glob("*.py")}
    assert "__init__.py" in lines
    assert sum(lines.values()) <= LINE_CEILING, sorted(lines.items())
