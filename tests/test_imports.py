"""No module-level import that nothing in its own file uses, no
definition in the package that only tests reach, no record field that
only tests read, no import from outside the standard library in the
package, no dataclasses (or the inspect under it) in the package's
source or in a cold import of the command line, and no function that the
traced benchmark wraps by name (bench/spans.py) renamed away.

Checked with the standard library's ast: a name bound by a top-level
import must appear as a name somewhere in the file (attribute bases
count; docstrings and comments do not).  Package __init__ files are
left out of that check, since re-exporting is what their imports are
for.  The package declares dependencies = [], so every import in it,
at any depth, names purcat itself or a standard library module.

Reachability is transitive.  The roots are cli.main with its HANDLERS,
purcat.__all__, every purcat name a bench/*.py file imports or reads,
and every name bench/spans.py wraps.  From a reached definition, each
free name is resolved through its module's scope and its `from purcat.x
import` bindings; a local variable that shadows a module-level name is
not a use of it.  A method counts as reached by its attribute name once
its class is reached.  What nothing reaches must be one of the few
ALLOWED entries, each with its reason, or leave the package.  Likewise
every field of an exact_linalg.Record subclass must be read as an
attribute somewhere in the package or in bench/, by name, or be one of
the ALLOWED_FIELDS.
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


# Definitions of src/purcat that no root reaches, and why each stays.  They
# count as roots themselves, so what only they use needs no entry.  Wiring
# one up or deleting it means removing it here; a new unreached definition
# fails the check below.
ALLOWED = {
    "monoidal.tensor_swap":
        "the symmetry a monoidal command emits (ROADMAP item 11)",
    "monoidal.check_tensor_descends":
        "descent of the tensor product along a pure qis, for that command",
    "complexes.tensor_fixed_right_map":
        "the induced map on a tensor complex that descent and the symmetry use",
    "fpmod.has_retraction":
        "the split cycle inclusions that decide periodic complexes (item 12)",
    "fpmod.HomModule.from_map":
        "the inverse of to_map, read by the map-by-map oracles in tests/helpers.py",
}


def _local_names(fn) -> set:
    """The names local to a function or lambda: its arguments and every
    name its own body stores, imports, catches or defines.  Comprehension
    targets belong to the comprehension."""
    args = fn.args
    local = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    local |= {a.arg for a in (args.vararg, args.kwarg) if a}
    todo = list(fn.body) if isinstance(fn.body, list) else [fn.body]
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            local.add(node.name)
            continue
        if isinstance(node, ast.Lambda):
            continue
        if isinstance(node, ast.comprehension):
            todo += [node.iter, *node.ifs]
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            local.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            local |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ExceptHandler) and node.name:
            local.add(node.name)
        todo += ast.iter_child_nodes(node)
    return local


class _Uses(ast.NodeVisitor):
    """The free names, attribute names and purcat imports of one definition.

    A name bound in an enclosing function, lambda or comprehension is
    local there and not a use of the module-level name it shadows.
    Annotations are not visited: under postponed evaluation they run
    nothing.
    """

    def __init__(self):
        self.names, self.attrs, self.imported = set(), set(), set()
        self.scopes = []

    def visit_Name(self, node):
        if not any(node.id in scope for scope in self.scopes):
            self.names.add(node.id)

    def visit_Attribute(self, node):
        self.attrs.add(node.attr)
        self.visit(node.value)

    def visit_ImportFrom(self, node):
        if node.module and node.module.startswith("purcat."):
            self.imported |= {f"{node.module[7:]}.{a.name}" for a in node.names}

    def _enter(self, local, body):
        self.scopes.append(local)
        for node in body:
            self.visit(node)
        self.scopes.pop()

    def _defaults(self, args):
        for node in args.defaults + [d for d in args.kw_defaults if d]:
            self.visit(node)

    def visit_FunctionDef(self, node):
        for dec in node.decorator_list:
            self.visit(dec)
        self._defaults(node.args)
        self._enter(_local_names(node), node.body)

    def visit_Lambda(self, node):
        self._defaults(node.args)
        self._enter(_local_names(node), [node.body])

    def _comprehension(self, node, results):
        first, *rest = node.generators
        self.visit(first.iter)
        local = {n.id for gen in node.generators for n in ast.walk(gen.target)
                 if isinstance(n, ast.Name)}
        self._enter(local, [cond for gen in node.generators for cond in gen.ifs]
                    + [gen.iter for gen in rest] + results)

    def visit_ListComp(self, node):
        self._comprehension(node, [node.elt])

    visit_SetComp = visit_GeneratorExp = visit_ListComp

    def visit_DictComp(self, node):
        self._comprehension(node, [node.key, node.value])

    def visit_AnnAssign(self, node):
        self.visit(node.target)
        if node.value is not None:
            self.visit(node.value)


def _definitions() -> tuple:
    """({"module.name" or "module.Class.method": (module, node)},
    {module: {bound name: "module.name"}} of its purcat imports)."""
    defs, bindings = {}, {}
    for path in sorted((ROOT / "src" / "purcat").glob("*.py")):
        if path.name == "__init__.py":
            continue
        mod = path.stem
        binds = bindings[mod] = {}
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("purcat."):
                binds.update((a.asname or a.name, f"{node.module[7:]}.{a.name}")
                             for a in node.names)
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[f"{mod}.{node.name}"] = (mod, node)
                if isinstance(node, ast.ClassDef):
                    defs.update((f"{mod}.{node.name}.{item.name}", (mod, item))
                                for item in node.body if isinstance(item, ast.FunctionDef))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defs.update((f"{mod}.{n.id}", (mod, node)) for t in targets
                            for n in ast.walk(t) if isinstance(n, ast.Name))
    return defs, bindings


def _uses(mod: str, node, defs: dict, bindings: dict) -> tuple:
    """(definitions, attribute names) that running node can use."""
    v = _Uses()
    if isinstance(node, ast.ClassDef):
        # the class statement; its methods are definitions of their own
        for part in node.bases + node.keywords + node.decorator_list + [
                item for item in node.body if not isinstance(item, ast.FunctionDef)]:
            v.visit(part)
    else:
        v.visit(node)
    used = set(v.imported)
    for name in v.names:
        if f"{mod}.{name}" in defs:
            used.add(f"{mod}.{name}")
        elif name in bindings[mod]:
            used.add(bindings[mod][name])
    return used, v.attrs


def roots() -> tuple:
    """(definitions, attribute names) the package is entered by.

    cli.main with its HANDLERS, the names of purcat.__all__, every purcat
    name a bench/*.py file imports and every attribute it reads, and every
    name bench/spans.py wraps (TARGETS).
    """
    names, attrs = {"cli.main", "cli.HANDLERS"}, set()
    init = ast.parse((ROOT / "src" / "purcat" / "__init__.py").read_text(encoding="utf-8"))
    exported, where = set(), {}
    for node in init.body:
        if isinstance(node, ast.ImportFrom):
            where.update((a.asname or a.name, f"{node.module[7:]}.{a.name}") for a in node.names)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    names |= {where[name] for name in exported}
    for path in sorted((ROOT / "bench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("purcat."):
                names |= {f"{node.module[7:]}.{a.name}" for a in node.names}
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
    for module, wrapped in traced_targets().items():
        for name in wrapped:
            names.add(f"{module}.{name}")
            names.add(f"{module}.{name.split('.')[0]}")
    return names, attrs


def unreached(extra=()) -> set:
    """The definitions of src/purcat that no root, nor any of extra, reaches.

    A definition reaches what its free names resolve to, through its own
    module's scope and its `from purcat.x import` bindings, and the
    attribute names it reads.  A method is reached once its class is and
    some reached code reads an attribute of its name; dunder methods come
    with their class.
    """
    defs, bindings = _definitions()
    names, attrs = roots()
    todo = [*names, *extra]
    methods = {}
    for name in defs:
        module, *rest = name.split(".")
        if len(rest) == 2:
            methods.setdefault(f"{module}.{rest[0]}", []).append((rest[1], name))
    seen = set()
    while todo:
        while todo:
            name = todo.pop()
            if name in seen or name not in defs:
                continue
            seen.add(name)
            used, read = _uses(*defs[name], defs, bindings)
            todo += used
            attrs |= read
        todo = [m for cls in seen & methods.keys() for attr, m in methods[cls]
                if m not in seen and (attr in attrs or attr.startswith("__"))]
    return set(defs) - seen


def test_every_definition_is_reached_from_a_command_or_the_bench():
    assert len(ALLOWED) <= 5
    # an allowlisted name must need its entry
    assert set(ALLOWED) <= unreached()
    assert unreached(ALLOWED) == set()


# Record fields that nothing in src/purcat or bench/ reads, and why each stays.
ALLOWED_FIELDS = {
    "monoidal.TensorDescentReport.induced":
        "the induced map on tensor complexes, which the monoidal command emits (item 11)",
}


def record_fields() -> set:
    """"module.Class.field" for every field of every Record subclass of the package."""
    for path in FILES:
        if path.parent.name == "purcat":
            importlib.import_module(f"purcat.{path.stem}")
    from purcat.exact_linalg import Record

    found, todo = set(), [Record]
    while todo:
        for cls in todo.pop().__subclasses__():
            todo.append(cls)
            if cls.__module__.startswith("purcat."):
                found |= {f"{cls.__module__[7:]}.{cls.__qualname__}.{name}"
                          for name in cls._fields}
    return found


def unread_fields() -> set:
    """The record fields that no attribute load in src/purcat or bench/ names."""
    read = set()
    for path in [*(ROOT / "src" / "purcat").glob("*.py"), *(ROOT / "bench").glob("*.py")]:
        read |= {node.attr for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                 if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return {field for field in record_fields() if field.rsplit(".", 1)[1] not in read}


def test_every_record_field_is_read_in_the_package_or_the_bench():
    # an allowlisted field must need its entry, as ALLOWED's names must
    assert unread_fields() == set(ALLOWED_FIELDS)


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
