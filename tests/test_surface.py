"""The library's public surface is what its commands, the README and the
benchmark use.  Every public top-level function or class, and every public
method or property, of ``src/plasmonstack`` must be referenced somewhere
other than its own definition: in the library, in ``perfbench/*.py`` or in
a README ``python`` block.  A name that only tests use belongs in
``tests/oracles.py``.  The error classes of numeric checks are raised only
through ``errors.gate``, whose table decides their exit codes, and only the
CLI's exit-code mapping and the geometry-to-config translation catch a
package error.  The mode layers (``npcore``, ``charpoly``, ``spectrum``)
import none of the layers built on them."""

import ast
import glob
import os
import re
from collections import defaultdict

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
SRC = os.path.join(ROOT, "src", "plasmonstack")


def _parse(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=path)


def _readme_blocks():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        return [ast.parse(block) for block in re.findall(r"```python\n(.*?)```", fh.read(), flags=re.DOTALL)]


def _module_aliases(tree, modules):
    """Names that refer to a ``plasmonstack`` module in ``tree``."""
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases |= {(a.asname or a.name).split(".")[0] for a in node.names if a.name.startswith("plasmonstack")}
        elif isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("plasmonstack")):
            aliases |= {a.asname or a.name for a in node.names if a.name in modules}
    return aliases


def _references(trees, modules):
    """{"top": {name: node ids}, "attr": {name: node ids}} over ``trees``: a
    loaded name or a module attribute can reach a top-level function or
    class, and any loaded attribute can reach a method or property."""
    refs = {"top": defaultdict(set), "attr": defaultdict(set)}
    for tree in trees:
        aliases = _module_aliases(tree, modules)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                refs["top"][node.id].add(id(node))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                refs["attr"][node.attr].add(id(node))
                if isinstance(node.value, ast.Name) and node.value.id in aliases:
                    refs["top"][node.attr].add(id(node))
    return refs


def _definitions(tree):
    """(kind, qualified name, name, node) of each public top-level function
    or class, and of each public method or property of a public class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield "top", node.name, node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield "attr", f"{node.name}.{item.name}", item.name, item


def test_every_public_name_is_used():
    paths = sorted(glob.glob(os.path.join(SRC, "*.py")))
    modules = {os.path.splitext(os.path.basename(p))[0] for p in paths} - {"__init__"}
    library = {p: _parse(p) for p in paths}
    users = [_parse(p) for p in sorted(glob.glob(os.path.join(ROOT, "perfbench", "*.py")))] + _readme_blocks()
    refs = _references([*library.values(), *users], modules)
    unused = []
    for path, tree in library.items():
        for kind, qualname, name, definition in _definitions(tree):
            # a use inside the definition itself, such as a recursive call, does not count
            inside = {id(node) for node in ast.walk(definition)}
            if not refs[kind][name] - inside:
                unused.append(f"{os.path.basename(path)}: {qualname}")
    assert unused == [], "public names that nothing outside tests uses: " + ", ".join(unused)


#: error classes that only the gate table in ``errors.py`` raises
GATED = {"CrossValidationError", "ResonanceError", "FieldOverflowError"}


def _named(node):
    return node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None


def test_gated_errors_are_raised_only_by_the_gate():
    raised = []
    for path in sorted(glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True)):
        if os.path.basename(path) == "errors.py":
            continue
        for node in ast.walk(_parse(path)):
            # a call instantiates the class; so does ``raise Class`` without one
            target = node.func if isinstance(node, ast.Call) else node.exc if isinstance(node, ast.Raise) else None
            if target is not None and _named(target) in GATED:
                raised.append(f"{os.path.relpath(path, SRC)}:{node.lineno}: {_named(target)}")
    assert raised == [], "gated errors instantiated outside errors.gate: " + ", ".join(raised)


#: the functions that may catch a package error: ``cli.main`` maps every
#: error to its exit code, ``runconfig.normalize_geometry`` re-raises a
#: ``GeometryError`` as a ``ConfigError``
CATCHERS = {"cli.main", "runconfig.normalize_geometry"}


def _handlers(node, owner):
    """(qualified owner, except clause) under ``node``; the owner is the
    innermost enclosing function or class, prefixed by its outer ones."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ExceptHandler):
            yield owner, child
        scoped = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        yield from _handlers(child, f"{owner}.{child.name}" if scoped else owner)


def test_package_errors_are_caught_only_where_mapped():
    errors = {node.name for node in _parse(os.path.join(SRC, "errors.py")).body if isinstance(node, ast.ClassDef)}
    catching = set()
    for path in sorted(glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True)):
        module = os.path.splitext(os.path.relpath(path, SRC))[0].replace(os.sep, ".")
        for owner, handler in _handlers(_parse(path), module):
            caught = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
            if {_named(node) for node in caught} & errors:
                catching.add(owner)
    assert catching <= CATCHERS, "package errors caught outside the CLI and config mapping: " + ", ".join(
        sorted(catching - CATCHERS))


#: the mode layers, and the modules they must not import: materials, fields,
#: the Nystrom check and the commands all sit on top of them
MODE_LAYERS = ("npcore", "charpoly", "spectrum")
ABOVE_MODES = {"materials", "field", "bie", "runners", "cli"}


def _imported_modules(tree):
    """The ``plasmonstack`` modules that ``tree`` imports, by module name."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.name.split(".")[1] for a in node.names if a.name.startswith("plasmonstack.")}
        elif isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("plasmonstack")):
            module = (node.module or "").removeprefix("plasmonstack").lstrip(".")
            # ``from . import x`` and ``from plasmonstack import x`` import the module x
            imported |= {module.split(".")[0]} if module else {a.name for a in node.names}
    return imported


def test_mode_layers_import_nothing_above_them():
    wrong = []
    for module in MODE_LAYERS:
        above = _imported_modules(_parse(os.path.join(SRC, f"{module}.py"))) & ABOVE_MODES
        wrong += [f"{module} imports {name}" for name in sorted(above)]
    assert wrong == [], "mode layers importing the layers above them: " + ", ".join(wrong)
