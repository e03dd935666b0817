"""No module-level import that nothing in its own file uses, no new
public definition that nothing in the program uses, and no import from
outside the standard library in the package.

Checked with the standard library's ast: a name bound by a top-level
import must appear as a name somewhere in the file (attribute bases
count; docstrings and comments do not).  Package __init__ files are
left out of that check, since re-exporting is what their imports are
for.  The package declares dependencies = [], so every import in it,
at any depth, names purcat itself or a standard library module.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for p in (ROOT / "src" / "purcat").glob("*.py") if p.name != "__init__.py")
FILES += sorted((ROOT / "tests").glob("*.py"))

# Public top-level definitions of src/purcat that nothing in src/purcat or
# bench/*.py references; only tests reach them.  Wiring one up or deleting
# it means removing it here; a new one fails the ratchet below.
ORPHANS = frozenset({
    "complexes.complexes_equal",
    "complexes.make_chain_map",
    "complexes.make_complex",
    "complexes.make_homotopy",
    "complexes.tensor_fixed_right_map",
    "complexes.truncate_geq_map",
    "exact_linalg.vstack",
    "fpmod.is_isomorphic",
    "fpmod.short_exact_sequence",
    "monoidal.check_internal_hom_identity",
    "monoidal.check_phom_invariance",
    "monoidal.check_tensor_descends",
    "monoidal.tensor_swap",
    "purity.is_pure_acyclic_at",
    "randgen.null_homotopic_chain_map",
    "resolutions.injective_step_conditions",
    "resolutions.lift_injective",
    "resolutions.lift_projective",
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


def _references(tree: ast.Module, strings: bool) -> set:
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            # bench/spans.py names the functions it wraps as strings
            refs.update(node.value.split("."))
    return refs


def orphans() -> set:
    src = sorted((ROOT / "src" / "purcat").glob("*.py"))
    refs, defined = set(), set()
    for path in src:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined.update(f"{path.stem}.{n}" for n in _public_definitions(tree))
        refs |= _references(tree, strings=False)
    for path in sorted((ROOT / "bench").glob("*.py")):
        refs |= _references(ast.parse(path.read_text(encoding="utf-8")), strings=True)
    return {d for d in defined if d.split(".", 1)[1] not in refs}


def test_no_new_public_definition_only_tests_reach():
    assert orphans() == ORPHANS


def foreign_imports(path: Path) -> list:
    """Imports in path of a module that is neither purcat nor standard library."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.split(".")[0]
            if top != "purcat" and top not in sys.stdlib_module_names:
                found.append(f"{path.name} line {node.lineno}: {name}")
    return found


def test_the_package_imports_only_the_standard_library():
    paths = sorted((ROOT / "src" / "purcat").glob("*.py"))
    assert paths
    assert [hit for path in paths for hit in foreign_imports(path)] == []
