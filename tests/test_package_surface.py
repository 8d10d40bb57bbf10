"""Every top-level function, class and assigned name of the package,
private ones included, has a reader outside the tests: another package
module, another statement of its own module, or the benchmark under
perfbench/.  Code that only tests call belongs in tests/helpers.py.  Each
name has one home, its defining module: the package ``__init__`` lists none
of them again."""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "dpp_lab")
PERFBENCH = os.path.join(ROOT, "perfbench")


def _parse(path):
    with open(path, encoding="utf-8") as f:
        return ast.parse(f.read())


def _module_uses(tree, level, package):
    """(module, name) pairs that ``tree`` names as ``m.name``, or as a
    ``(m, "name", ...)`` entry of a patch table, where ``m`` was bound by
    ``from <package> import m``."""
    modules = {a.asname or a.name: a.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level == level
               and node.module == package
               for a in node.names}
    uses = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            uses.add((modules[node.value.id], node.attr))
        elif (isinstance(node, ast.Tuple) and len(node.elts) >= 2
              and isinstance(node.elts[0], ast.Name) and node.elts[0].id in modules
              and isinstance(node.elts[1], ast.Constant)):
            uses.add((modules[node.elts[0].id], node.elts[1].value))
    return uses


def _loaded_elsewhere(tree, name, own):
    """True when a top-level statement of ``tree`` other than ``own`` loads
    ``name`` as a bare name."""
    return any(isinstance(node, ast.Name) and node.id == name
               and isinstance(node.ctx, ast.Load)
               for stmt in tree.body if stmt is not own
               for node in ast.walk(stmt))


def _defined_names(stmt):
    """The function or class that a top-level statement defines, or the
    names that its assignment targets bind."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = (stmt.targets if isinstance(stmt, ast.Assign)
               else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return [node.id for target in targets for node in ast.walk(target)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)]


def unused_names():
    modules = {name[:-3]: _parse(os.path.join(SRC, name))
               for name in os.listdir(SRC)
               if name.endswith(".py") and name != "__init__.py"}
    used = set()
    for tree in modules.values():
        used |= _module_uses(tree, 1, None)  # from . import m; m.name
        used |= {(node.module, a.name) for node in ast.walk(tree)  # from .m import name
                 if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
                 for a in node.names}
    for name in os.listdir(PERFBENCH):
        if name.endswith(".py") and not name.startswith("test_"):
            used |= _module_uses(_parse(os.path.join(PERFBENCH, name)), 0, "dpp_lab")
    return {f"{m}.{name}"
            for m, tree in modules.items()
            for stmt in tree.body
            for name in _defined_names(stmt)
            if (m, name) not in used and not _loaded_elsewhere(tree, name, stmt)}


def test_every_public_name_has_a_caller_outside_the_tests():
    # entrypoint is the console script that pyproject.toml names
    assert unused_names() == {"cli.entrypoint"}


def _bound_names(tree):
    """Names that the top-level statements of ``tree`` bind."""
    names = set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            names |= {(a.asname or a.name).split(".")[0] for a in stmt.names}
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(stmt.name)
        else:
            names |= {node.id for node in ast.walk(stmt)
                      if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
    return names


def test_package_init_binds_only_its_version():
    # tests and callers import each name from its module, e.g.
    # ``from dpp_lab.montecarlo import run_batch``
    assert _bound_names(_parse(os.path.join(SRC, "__init__.py"))) == {"__version__"}
