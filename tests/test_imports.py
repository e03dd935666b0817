"""No module-level import that nothing in its own file uses, no new
public definition that nothing in the program uses, no import from
outside the standard library in the package, no dataclasses (or the
inspect under it) in the package's source or in a cold import of the
command line, and no function that the traced benchmark wraps by name
(bench/spans.py) renamed away.

Checked with the standard library's ast: a name bound by a top-level
import must appear as a name somewhere in the file (attribute bases
count; docstrings and comments do not).  Package __init__ files are
left out of that check, since re-exporting is what their imports are
for.  The package declares dependencies = [], so every import in it,
at any depth, names purcat itself or a standard library module.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for p in (ROOT / "src" / "purcat").glob("*.py") if p.name != "__init__.py")
FILES += sorted((ROOT / "tests").glob("*.py"))

# Public top-level definitions of src/purcat that nothing in src/purcat or
# the code of bench/*.py references; only tests reach them.  A name the
# traced benchmark only wraps by name (spans.TARGETS) is not a use of it.
# Wiring one up or deleting it means removing it here; a new one fails the
# ratchet below.
ORPHANS = frozenset({
    "complexes.complexes_equal",
    "complexes.make_chain_map",
    "complexes.make_complex",
    "complexes.make_homotopy",
    "complexes.tensor_fixed_right_map",
    "exact_linalg.vstack",
    "fpmod.is_isomorphic",
    # Pure is decided by contract_complex; null_homotopy stays because
    # spans.TARGETS wraps it, and the traced bench run needs it to exist
    "homotopy.null_homotopy",
    "monoidal.check_tensor_descends",
    "monoidal.tensor_swap",
    "purity.is_pure_acyclic_at",
    "randgen.null_homotopic_chain_map",
    "resolutions.injective_step_conditions",
    "resolutions.projective_step_conditions",
})


def unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in used:
                unused.append(f"line {node.lineno}: {name}")
    return unused


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_unused_module_level_imports(path):
    assert unused_imports(path) == []


def _public_definitions(tree: ast.Module) -> list:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names.extend(t.id for t in node.targets if isinstance(t, ast.Name))
    return [n for n in names if not n.startswith("_")]


def _references(tree: ast.Module) -> set:
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
    return refs


def orphans() -> set:
    src = sorted((ROOT / "src" / "purcat").glob("*.py"))
    refs, defined = set(), set()
    for path in src:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined.update(f"{path.stem}.{n}" for n in _public_definitions(tree))
        refs |= _references(tree)
    for path in sorted((ROOT / "bench").glob("*.py")):
        # the names bench/spans.py wraps are strings, which do not count;
        # test_every_traced_name_resolves keeps them from being renamed
        refs |= _references(ast.parse(path.read_text(encoding="utf-8")))
    return {d for d in defined if d.split(".", 1)[1] not in refs}


def test_no_new_public_definition_only_tests_reach():
    assert orphans() == ORPHANS


def imported_modules(path: Path) -> list:
    """(line, module) for every absolute import in path, at any depth."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.append((node.lineno, node.module))
    return found


def foreign_imports(path: Path) -> list:
    """Imports in path of a module that is neither purcat nor standard library."""
    found = []
    for line, name in imported_modules(path):
        top = name.split(".")[0]
        if top != "purcat" and top not in sys.stdlib_module_names:
            found.append(f"{path.name} line {line}: {name}")
    return found


def test_the_package_imports_only_the_standard_library():
    paths = sorted((ROOT / "src" / "purcat").glob("*.py"))
    assert paths
    assert [hit for path in paths for hit in foreign_imports(path)] == []


def test_the_package_does_not_import_dataclasses():
    # the value types are exact_linalg.Record subclasses; the dataclasses
    # module and the inspect, ast, dis and tokenize under it would cost
    # every cold start more than most commands' algebra
    hits = [f"{path.name} line {line}"
            for path in sorted((ROOT / "src" / "purcat").glob("*.py"))
            for line, name in imported_modules(path)
            if name.split(".")[0] == "dataclasses"]
    assert hits == []


def test_a_cold_cli_import_loads_neither_dataclasses_nor_inspect():
    # a fresh interpreter without site, as a purcat start sees it
    code = ("import sys, purcat.cli; "
            "print(sorted({'dataclasses', 'inspect', 'ast', 'dis', 'tokenize'} & set(sys.modules)))")
    run = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), check=True)
    assert run.stdout.strip() == "[]"


def traced_targets() -> dict:
    """TARGETS of bench/spans.py, read without importing the bench."""
    tree = ast.parse((ROOT / "bench" / "spans.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/spans.py defines no TARGETS")


def test_every_traced_name_resolves():
    # the traced benchmark wraps these by name; a rename must fail here too
    missing = []
    for module, names in traced_targets().items():
        mod = importlib.import_module(f"purcat.{module}")
        for name in names:
            obj = mod
            for part in name.split("."):
                obj = getattr(obj, part, None)
            if not callable(obj):
                missing.append(f"{module}.{name}")
    assert missing == []
