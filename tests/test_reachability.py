"""``src/spdcsim`` holds only code that a command runs: every top-level
function and class is reached from ``cli.main``, and so is every function
that the benchmark harness traces (``TRACED`` in ``perfbench/child.py``),
so that its per-layer metrics time what the workloads run.  Code that only
the tests use lives in ``tests/helpers.py``.

The walk reads the sources with ``ast``; it imports neither the package nor
the harness.  Its roots are ``cli.main`` and the module-level statements
other than definitions, assignments and imports (the ``__main__`` guard),
which run on import.  A name is reached when the code of a reached
function, class or module-level assignment uses it, directly, through a
``from . import`` or as an attribute of an imported module.  Annotations
do not count.

A second walk keeps buffer ownership with the worker that passes its
namespace down: no module binds a ``threading.local()`` at module level.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "spdcsim"

#: Unreached on purpose: the single-repetition SNR waits for the paper's
#: definition (ROADMAP.md, "Tier-1 is red", criterion 9).
WAITING = {"estimators.intensity_snr", "estimators.normal_intensities"}

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


class _Module:
    """The top-level definitions, assignments and relative imports of one
    module, and its statements that run on import."""

    def __init__(self, tree: ast.Module):
        self.definitions = {}  # name -> node of a def or class
        self.bindings = {}  # name -> node whose code gives the name its value
        self.imports = {}  # local name -> (module, name or None for a module)
        self.roots = []
        for node in tree.body:
            if isinstance(node, _DEFINITIONS):
                self.definitions[node.name] = self.bindings[node.name] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name):
                            self.bindings[name.id] = node
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    target = ((node.module, alias.name) if node.module
                              else (alias.name, None))
                    self.imports[alias.asname or alias.name] = target
            elif not (isinstance(node, (ast.Import, ast.ImportFrom))
                      or isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)):
                self.roots.append(node)


def _uses(node):
    """(name, attribute or None) of each name the code of ``node`` reads,
    annotations left out."""
    for field, value in ast.iter_fields(node):
        if field in ("annotation", "returns"):
            continue
        for child in value if isinstance(value, list) else [value]:
            if not isinstance(child, ast.AST):
                continue
            if isinstance(child, ast.Name):
                yield child.id, None
            elif isinstance(child, ast.Attribute) and isinstance(child.value, ast.Name):
                yield child.value.id, child.attr
            yield from _uses(child)


def _traced():
    """(module, function) of each entry of the harness's ``TRACED``."""
    tree = ast.parse((ROOT / "perfbench" / "child.py").read_text())
    node = next(n for n in tree.body if isinstance(n, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "TRACED" for t in n.targets))
    return [(module.removeprefix("spdcsim."), name)
            for module, name in ast.literal_eval(node.value)]


def _reached():
    """The modules by name, and (module, name) of every top-level name
    reached from the roots."""
    modules = {path.stem: _Module(ast.parse(path.read_text()))
               for path in PACKAGE.glob("*.py")}
    todo = [("cli", "main")]
    todo += [(name, node) for name, m in modules.items() for node in m.roots]
    seen = set()
    while todo:
        module, item = todo.pop()
        m = modules[module]
        if isinstance(item, str):
            if (module, item) in seen:
                continue
            seen.add((module, item))
            if item in m.imports:  # a re-export: reach what it names
                target = m.imports[item]
                if target[1] is not None:
                    todo.append(target)
                continue
            item = m.bindings.get(item)
            if item is None:
                continue
        for name, attr in _uses(item):
            if name in m.bindings:
                todo.append((module, name))
            elif name in m.imports:
                target_module, target = m.imports[name]
                if target is None and attr is not None:  # theory.x, multimode.x
                    todo.append((target_module, attr))
                elif target is not None:
                    todo.append((target_module, target))
    return modules, seen


def test_every_function_and_class_is_reached_from_a_command():
    modules, seen = _reached()
    unreached = {f"{module}.{name}" for module, m in modules.items()
                 for name in m.definitions if (module, name) not in seen}
    stray = sorted(unreached - WAITING)
    assert not stray, ("not reached from cli.main; move test-only code to "
                       f"tests/helpers.py: {', '.join(stray)}")
    assert unreached == WAITING, ("reached now, so drop from WAITING: "
                                  f"{', '.join(sorted(WAITING - unreached))}")


def test_every_traced_function_is_reached_from_a_command():
    _, seen = _reached()
    idle = [f"{module}.{name}" for module, name in _traced() if (module, name) not in seen]
    assert not idle, ("perfbench's TRACED names functions that no command runs, "
                      f"so their metrics read 0: {', '.join(idle)}")


def _thread_locals(tree: ast.Module):
    """Line numbers of the ``threading.local()`` calls among the module-level
    statements of ``tree``, function and class bodies left out."""
    modules, functions = set(), set()  # local names of threading and its local
    for node in tree.body:
        if isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name == "threading"}
        elif isinstance(node, ast.ImportFrom) and node.module == "threading":
            functions |= {a.asname or a.name for a in node.names if a.name == "local"}
    for node in tree.body:
        if isinstance(node, _DEFINITIONS):
            continue
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            f = call.func
            if (isinstance(f, ast.Attribute) and f.attr == "local"
                    and isinstance(f.value, ast.Name) and f.value.id in modules
                    or isinstance(f, ast.Name) and f.id in functions):
                yield call.lineno


def test_no_module_keeps_thread_local_state():
    bound = [f"{path.name}:{line}" for path in sorted(PACKAGE.glob("*.py"))
             for line in _thread_locals(ast.parse(path.read_text()))]
    assert not bound, ("a draw's buffers belong to the namespace its caller passes "
                       f"down, not to module-level thread-local state: {', '.join(bound)}")


def test_reporting_imports_nothing_from_the_package():
    # the estimators' and multimode's records appear in its annotations only,
    # imported under TYPE_CHECKING, so reporting runs without either module
    tree = ast.parse((PACKAGE / "reporting.py").read_text())
    relative = [node.lineno for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level]
    assert not relative, f"reporting.py imports from the package at lines {relative}"
