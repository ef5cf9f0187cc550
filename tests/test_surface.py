"""The library surface is the printed surface: no public object that nothing reaches.

The walk starts at the ``cli`` row functions (those registered with
``@_command``) and at the names that ``perfbench/*.py`` calls, as code or as
a ``module.function`` string.  From each module-level definition it reaches
it follows every name the definition's code refers to, as a bare name or as
an attribute; docstrings and type annotations are not code that runs, and a
re-export in ``__init__`` is not a use.  A public function or class of
``src/cventlab`` that the walk misses is computed for nobody: it goes, moves
into the tests, or sits in ``KEPT`` with its reason.

A public method or property of a public class is read when its name appears
as an attribute (``obj.name``, not a bare name) in the code the walk reaches
or in ``perfbench``; one that is never read goes too.  The package itself
binds only ``__version__``: callers import its modules.
"""

import ast
import pathlib

from cventlab import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cventlab"

KEPT = {
    "np_detection_probability":
        "the tests' reference of acceptance_threshold, which feeds phi_min_ideal",
    "mz_min_phase":
        "the paper's sqrt(2 Q)/N law, which the acceptance test and the N^2/2 xfail check",
}


def _code(node):
    """The nodes under ``node`` that run: no docstring or other bare string, no annotation."""
    stack = [node]
    while stack:
        n = stack.pop()
        if (isinstance(n, ast.Expr) and isinstance(n.value, ast.Constant)
                and isinstance(n.value.value, str)):
            continue
        yield n
        for field, value in ast.iter_fields(n):
            if field not in ("annotation", "returns"):
                children = value if isinstance(value, list) else [value]
                stack.extend(c for c in children if isinstance(c, ast.AST))


def _attributes(node):
    """Attribute names that ``node``'s code reads, as in ``obj.name``."""
    return {n.attr for n in _code(node) if isinstance(n, ast.Attribute)}


def _names(node, strings=False):
    """Names that ``node``'s code refers to; with ``strings``, also dotted string parts."""
    out = set()
    for n in _code(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif strings and isinstance(n, ast.Constant) and isinstance(n.value, str):
            out.update(part for part in n.value.split(".") if part.isidentifier())
    return out


def _modules():
    return {path.stem: ast.parse(path.read_text())
            for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}


def _definitions(modules):
    """Name -> the module-level statements that define it."""
    defs = {}
    for tree in modules.values():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append(node)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for n in ast.walk(target):
                        if isinstance(n, ast.Name):
                            defs.setdefault(n.id, []).append(node)
    return defs


def _roots(modules):
    rows = {node.name for node in modules["cli"].body
            if isinstance(node, ast.FunctionDef) and any(
                isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "_command"
                for d in node.decorator_list)}
    return rows, _names(_bench(), strings=True)


def _bench():
    return ast.Module([node for path in sorted((ROOT / "perfbench").glob("*.py"))
                       for node in ast.parse(path.read_text()).body], [])


def _reached(modules):
    defs = _definitions(modules)
    rows, bench = _roots(modules)
    reached, todo = set(), list(rows | bench)
    while todo:
        name = todo.pop()
        if name in reached or name not in defs:
            continue
        reached.add(name)
        for node in defs[name]:
            todo.extend(_names(node) - reached)
    return rows, defs, reached


def _unreached():
    modules = _modules()
    rows, _, reached = _reached(modules)
    public = {node.name for tree in modules.values() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")}
    return rows, public, public - reached


def test_every_command_is_a_root():
    rows, _, _ = _unreached()
    assert rows == {command.row.__name__ for command in cli._COMMANDS.values()}


def test_every_public_object_is_reached_or_kept():
    _, _, unreached = _unreached()
    assert sorted(unreached - set(KEPT)) == []


def test_kept_names_exist_and_are_unreached():
    # a kept name that a root reaches, or that is gone, is a stale entry
    _, public, unreached = _unreached()
    assert set(KEPT) <= public
    assert set(KEPT) <= unreached


def test_every_public_member_is_read():
    modules = _modules()
    _, defs, reached = _reached(modules)
    read = _attributes(_bench())
    for name in reached:
        for node in defs[name]:
            read |= _attributes(node)
    members = {f"{cls.name}.{node.name}" for tree in modules.values() for cls in tree.body
               if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
               for node in cls.body
               if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    assert sorted(m for m in members if m.split(".")[1] not in read) == []


def test_the_package_binds_only_its_version():
    bound = set()
    for node in ast.parse((PACKAGE / "__init__.py").read_text()).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        else:
            bound |= {n.id for n in ast.walk(node)
                      if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
    assert sorted(bound - {"__version__"}) == []
