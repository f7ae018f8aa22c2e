"""Every library module, function, class and method is reached from an
entry point.

The reach is built statically with :mod:`ast` from these roots:
``repro.__main__``, ``repro.api``, ``repro.pipeline`` and every module
under ``repro.serve`` and ``repro.experiments``, with every public name
they define or list in ``__all__`` and the public methods of those
classes; and every ``.py`` file under ``benchmarks/``, ``scripts/`` and
``examples/``.
Tests are not roots: a name that only its own tests call is surface no
user can reach.

A name is followed by what it refers to:

* a top-level function or class is reached when reached code refers to
  it, by a ``Name`` bound to it (by its definition or an import) or by
  an ``alias.attr`` chain resolved through package re-exports.  A
  docstring, an ``__all__`` entry or the name's own body is no use;
* a method or property of a reached class is reached when reached code
  reads an attribute of that name.  Dunder methods (dataclass hooks
  among them) always are;
* a module's top-level code runs when the module is imported or one of
  its names is reached.  An ordinary module's imports run the modules
  they import from; a package ``__init__``'s re-exports run nothing, so
  an eager re-export alone keeps no module alive.

What stays unreached and is kept is named, with its reason, in
``ALLOWED_UNREACHED`` (modules) or ``ALLOWED_UNREACHED_NAMES``; what an
allowed entry refers to counts as reached.

An import runs its module by design, so the reach cannot see a name that
is imported and never used: every name a module's top-level imports bind
is read in that module, or listed in its ``__all__``.  A package
``__init__`` imports to re-export and is exempt.

The entry points also import no test-only dependency: Hypothesis is for
the property-based suites alone.
"""

from __future__ import annotations

import ast
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = "repro"
ROOT_MODULES = ("repro.__main__", "repro.api", "repro.pipeline")
ROOT_PACKAGES = ("repro.serve", "repro.experiments")
ROOT_DIRS = ("benchmarks", "scripts", "examples")

#: Modules that no root reaches but that stay, each with its reason.
ALLOWED_UNREACHED = {
    "repro.symbolic.crosscheck": (
        "the Theorem 3.1 correctness check: it compares the compositional "
        "structure with the symbolic analyzer's closed form over a grid "
        "of bindings, and its tests run that check"
    ),
}

#: Functions, classes and methods that no root reaches but that stay,
#: each with its reason: ``module.name`` or ``module.Class.method``.
ALLOWED_UNREACHED_NAMES = {
    "repro.ir.builders.word_model": (
        "model (3.5) of the paper as a program; the paper-fidelity tests "
        "expand it and compare with the Theorem 3.1 structure"
    ),
    "repro.ir.builders.model_1d": (
        "model (3.7) of the paper as a program; the paper-fidelity tests "
        "expand it and compare with the Theorem 3.1 structure"
    ),
    "repro.arith.structure.ArithmeticStructure.dependence_matrix": (
        "the paper's D matrix of an arithmetic structure, which the "
        "paper-fidelity tests compare with the published matrices"
    ),
    "repro.machine.simulator.ValueStore.snapshot": (
        "the equivalence suites compare the reference store with the "
        "dense one through it"
    ),
    "repro.compile.plan.DenseValueStore.snapshot": (
        "the equivalence suites compare the dense store with the "
        "reference one through it"
    ),
    "repro.arith.registry.list_structures": (
        "parametrizes the equivalence suites over every registered "
        "arithmetic structure"
    ),
    "repro.depanalysis.diophantine.lattice_intervals": (
        "bounds the brute-force scan of the completeness test of "
        "bounded_lattice_points"
    ),
}


def _absolute(node: ast.ImportFrom, package: str | None) -> str | None:
    """The absolute module name an ``ImportFrom`` reads from."""
    if node.level == 0:
        return node.module
    if package is None:
        return None
    base = package.split(".")[: len(package.split(".")) - node.level + 1]
    return ".".join(base + ([node.module] if node.module else []))


def _chain(node: ast.Attribute) -> tuple[str, list[str]] | None:
    """``a.b.c`` as ``("a", ["b", "c"])``; ``None`` unless rooted at a name."""
    attrs: list[str] = []
    cur: ast.expr = node
    while isinstance(cur, ast.Attribute):
        attrs.append(cur.attr)
        cur = cur.value
    if not isinstance(cur, ast.Name):
        return None
    return cur.id, attrs[::-1]


def _dunder_all(tree: ast.Module) -> list[str]:
    """The names a module lists in ``__all__``."""
    names: list[str] = []
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__"
            for t in node.targets
        ):
            names += [e.value for e in node.value.elts]
    return names


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _always_reached(method: ast.FunctionDef) -> bool:
    """Dunder methods run without a named read; a property (with its
    setter) is reached by a read of its name, as a method is."""
    return method.name.startswith("__") and method.name.endswith("__")


class Reach:
    """What the entry points reach, by module, name and method.

    A unit is ``(kind, module, *names)``: ``("code", m)`` is a module's
    top-level code (for a package ``__init__``, without its imports),
    ``("def", m, name)`` a top-level function or class,
    ``("method", m, cls, name)`` a method of a top-level class and
    ``("value", m)`` a module passed as a value, whose top-level names
    are reached like methods.  What a local name or an attribute
    resolves to is a *target*: a unit, or ``("module", m)`` /
    ``("package", p)`` for a module bound to a name, whose attributes
    resolve further; a module runs its code, a package runs nothing.
    """

    def __init__(self) -> None:
        self.paths: dict[str, pathlib.Path] = {}
        for path in sorted((SRC / PACKAGE).rglob("*.py")):
            parts = path.relative_to(SRC).with_suffix("").parts
            if parts[-1] == "__init__":
                parts = parts[:-1]
            self.paths[".".join(parts)] = path
        self.trees = {
            name: ast.parse(path.read_text(), str(path))
            for name, path in self.paths.items()
        }
        self.defs = {
            name: {n.name: n for n in tree.body if isinstance(n, _DEFS)}
            for name, tree in self.trees.items()
        }
        self.top = {name: self._top(name) for name in self.trees}
        self.unresolved: set[str] = set()
        self.bindings = {
            name: self._bindings(tree, self.package_of(name))
            for name, tree in self.trees.items()
        }
        for name, defs in self.defs.items():
            for local in defs:
                self.bindings[name].setdefault(local, []).append(
                    ("def", name, local)
                )

    def is_package(self, name: str) -> bool:
        return self.paths[name].name == "__init__.py"

    def package_of(self, name: str) -> str:
        return name if self.is_package(name) else name.rpartition(".")[0]

    def kind(self, name: str) -> tuple[str, str]:
        return ("package" if self.is_package(name) else "module", name)

    def _top(self, module: str) -> dict:
        """A module's top-level names: ``(module, attr)`` for an import
        (``attr`` is ``None`` for a whole module), ``None`` for a name
        the module defines itself."""
        out: dict[str, tuple[str, str | None] | None] = {}
        for node in self.trees[module].body:
            if isinstance(node, ast.ImportFrom):
                base = _absolute(node, self.package_of(module))
                for alias in node.names:
                    out[alias.asname or alias.name] = (base, alias.name)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        out[alias.asname] = (alias.name, None)
                    else:
                        head = alias.name.split(".")[0]
                        out[head] = (head, None)
            elif isinstance(node, _DEFS):
                out[node.name] = None
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    for leaf in ast.walk(target):
                        if isinstance(leaf, ast.Name):
                            out[leaf.id] = None
        return out

    def lookup(
        self, owner: str, attr: str, seen: frozenset = frozenset()
    ) -> tuple | None:
        """The target ``owner.attr`` names, or ``None`` if it names none."""
        if f"{owner}.{attr}" in self.paths:
            return self.kind(f"{owner}.{attr}")
        top = self.top[owner]
        if attr not in top or (owner, attr) in seen:
            return None
        source = top[attr]
        if source is None:
            if attr in self.defs[owner]:
                return ("def", owner, attr)
            return ("code", owner)
        module, name = source
        if module not in self.paths:
            return None
        if name is None:
            return self.kind(module)
        return self.lookup(module, name, seen | {(owner, attr)})

    def _bindings(self, tree: ast.Module, package: str | None) -> dict:
        """Every import in ``tree``: local name -> list of targets."""
        out: dict[str, list] = {}
        for node in ast.walk(tree):
            for name, target in self._imported(node, package):
                if name is not None:
                    out.setdefault(name, []).append(target)
        return out

    def _imported(self, node: ast.AST, package: str | None):
        """``(local name, target)`` for each target an import statement
        names; the name is ``None`` where the statement binds none."""
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name not in self.paths:
                    continue
                if alias.asname:
                    yield alias.asname, self.kind(alias.name)
                    continue
                # ``import repro.a.b`` binds ``repro`` and loads ``a.b``.
                yield PACKAGE, ("package", PACKAGE)
                if not self.is_package(alias.name):
                    yield None, ("module", alias.name)
        elif isinstance(node, ast.ImportFrom):
            base = _absolute(node, package)
            if base not in self.paths:
                return
            for alias in node.names:
                target = self.lookup(base, alias.name)
                if target is None:
                    self.unresolved.add(f"{base}.{alias.name}")
                else:
                    yield alias.asname or alias.name, target

    def _resolve_chain(self, node: ast.Attribute, bindings: dict):
        chain = _chain(node)
        if chain is None:
            return
        head, attrs = chain
        for target in bindings.get(head, ()):
            for attr in attrs:
                if target[0] not in ("package", "module"):
                    break
                found = self.lookup(target[1], attr)
                if found is None:
                    break
                target = found
            yield target

    def uses(self, nodes, bindings: dict, package: str | None):
        """The units ``nodes`` use, and the attribute names they read.

        An import runs the module it reads from but uses none of its
        names; a ``Name`` or an attribute chain uses what it resolves to.
        """
        units: set[tuple] = set()
        reads: set[str] = set()
        targets: list[tuple] = []
        for top in nodes:
            heads = {
                id(node.value) for node in ast.walk(top)
                if isinstance(node, ast.Attribute)
            }
            for node in ast.walk(top):
                units.update(
                    ("code", target[1])
                    for _, target in self._imported(node, package)
                    if target[0] != "package"
                )
                if isinstance(node, ast.Name):
                    for target in bindings.get(node.id, ()):
                        targets.append(target)
                        if target[0] == "module" and id(node) not in heads:
                            targets.append(("value", target[1]))
                elif isinstance(node, ast.Attribute):
                    reads.add(node.attr)
                    targets.extend(self._resolve_chain(node, bindings))
        for target in targets:
            if target[0] in ("module", "code"):
                units.add(("code", target[1]))
            elif target[0] in ("def", "value"):
                units.add(target)
        return units, reads

    def body(self, unit: tuple) -> list[ast.AST]:
        """The code a unit runs, apart from the units it defines."""
        kind, module, *names = unit
        if kind == "value":
            return []
        if kind == "code":
            skip = _DEFS + (
                (ast.Import, ast.ImportFrom) if self.is_package(module)
                else ()
            )
            return [n for n in self.trees[module].body
                    if not isinstance(n, skip)]
        node = self.defs[module][names[0]]
        if kind == "method":
            return [self.methods(module, names[0])[names[1]]]
        if isinstance(node, ast.ClassDef):
            return (
                node.bases + node.keywords + node.decorator_list
                + [n for n in node.body if not isinstance(n, _FUNCS)]
            )
        return [node]

    def members(self, unit: tuple):
        """``(name, node, unit)`` for each method of a class, and for each
        top-level name of a module passed as a value: reached code reaches
        one by reading an attribute of its name."""
        kind, module, *names = unit
        if kind == "def":
            for name, node in self.methods(module, names[0]).items():
                yield name, node, ("method", module, names[0], name)
        elif kind == "value":
            for name, node in self.defs[module].items():
                yield name, node, ("def", module, name)

    def methods(self, module: str, cls: str) -> dict:
        node = self.defs[module].get(cls)
        if not isinstance(node, ast.ClassDef):
            return {}
        return {n.name: n for n in node.body if isinstance(n, _FUNCS)}

    def units(self) -> set[tuple]:
        """Every top-level function and class, and every method."""
        out: set[tuple] = set()
        for module, defs in self.defs.items():
            for name in defs:
                out.add(("def", module, name))
                out.update(
                    ("method", module, name, m)
                    for m in self.methods(module, name)
                )
        return out

    def unit_of(self, dotted: str) -> tuple | None:
        """The name or method a dotted name names, if any."""
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            module = ".".join(parts[:cut])
            if module in self.paths:
                break
        else:
            return None
        names = parts[cut:]
        if len(names) == 1 and names[0] in self.defs[module]:
            return ("def", module, names[0])
        if len(names) == 2 and names[1] in self.methods(module, names[0]):
            return ("method", module, *names)
        return None

    def public(self, module: str) -> list[tuple]:
        """A module's code, its public functions and classes (those it
        defines and those its ``__all__`` re-exports) and the public
        methods of those classes."""
        names = [n for n in self.defs[module] if not n.startswith("_")]
        names += _dunder_all(self.trees[module])
        out: list[tuple] = [("code", module)]
        for name in names:
            target = self.lookup(module, name)
            if target is None or target[0] != "def":
                continue
            _, owner, cls = target
            out.append(target)
            out.extend(
                ("method", owner, cls, m)
                for m in self.methods(owner, cls) if not m.startswith("_")
            )
        return out

    def entry_roots(self) -> tuple[list[tuple], set[str]]:
        """The units the entry points use, and the attributes they read."""
        units: list[tuple] = []
        reads: set[str] = set()
        for path in sorted(
            p for d in ROOT_DIRS for p in (ROOT / d).rglob("*.py")
        ):
            tree = ast.parse(path.read_text(), str(path))
            used, read = self.uses(
                [tree], self._bindings(tree, None), None
            )
            units.extend(used)
            reads |= read
        for name in self.paths:
            if name in ROOT_MODULES or any(
                name == pkg or name.startswith(pkg + ".")
                for pkg in ROOT_PACKAGES
            ):
                units.extend(self.public(name))
        return units, reads

    def reach(self, queue: list[tuple], reads: set[str]) -> set[tuple]:
        """Every unit reached from ``queue``, given the attribute names
        its roots read."""
        reads = set(reads)
        seen: set[tuple] = set()
        waiting: dict[str, list[tuple]] = {}
        while queue:
            unit = queue.pop()
            if unit in seen:
                continue
            seen.add(unit)
            kind, module, *names = unit
            if kind != "code":
                queue.append(("code", module))
            for name, node, member in self.members(unit):
                if name in reads or kind == "def" and _always_reached(node):
                    queue.append(member)
                else:
                    waiting.setdefault(name, []).append(member)
            used, read = self.uses(
                self.body(unit), self.bindings[module],
                self.package_of(module),
            )
            queue.extend(used)
            for name in read - reads:
                queue.extend(waiting.pop(name, ()))
            reads |= read
        return seen


@pytest.fixture(scope="module")
def graph():
    return Reach()


@pytest.fixture(scope="module")
def reached(graph):
    """The units the entry points reach, then with the allowed ones."""
    units, reads = graph.entry_roots()
    by_entry_points = graph.reach(list(units), reads)
    allowed = [
        root for name in ALLOWED_UNREACHED for root in graph.public(name)
    ] + [graph.unit_of(name) for name in ALLOWED_UNREACHED_NAMES]
    return by_entry_points, graph.reach(
        list(units) + [u for u in allowed if u is not None], reads
    )


def test_every_module_is_reached_from_an_entry_point(graph, reached):
    by_entry_points, _ = reached
    unreached = sorted(
        name for name in graph.paths
        if not graph.is_package(name)
        and ("code", name) not in by_entry_points
        and name not in ALLOWED_UNREACHED
    )
    assert not unreached, (
        "no entry point reaches these modules; delete them or call "
        "them from an entry point:\n  " + "\n  ".join(unreached)
    )


def test_allowed_modules_exist_and_are_unreached(graph, reached):
    by_entry_points, _ = reached
    for name in ALLOWED_UNREACHED:
        assert name in graph.paths, f"{name} no longer exists"
        assert ("code", name) not in by_entry_points, (
            f"{name} is reached now; drop it from ALLOWED_UNREACHED"
        )


def test_every_name_is_reached_from_an_entry_point(graph, reached):
    # A method of an unreached class is reported with its class.
    _, with_allowed = reached
    unreached = sorted(
        ".".join(unit[1:]) for unit in graph.units() - with_allowed
        if unit[0] == "def" or ("def", *unit[1:3]) in with_allowed
    )
    assert not unreached, (
        "no entry point reaches these functions, classes or methods; "
        "delete them or call them from an entry point:\n  "
        + "\n  ".join(unreached)
    )


def test_allowed_names_exist_and_are_unreached(graph, reached):
    by_entry_points, _ = reached
    for name in ALLOWED_UNREACHED_NAMES:
        unit = graph.unit_of(name)
        assert unit is not None, f"{name} no longer exists"
        assert unit not in by_entry_points, (
            f"{name} is reached now; drop it from ALLOWED_UNREACHED_NAMES"
        )


def test_every_package_import_resolves(graph, reached):
    # A name the graph cannot resolve would drop an edge silently.
    assert not graph.unresolved, sorted(graph.unresolved)


def test_every_import_is_read(graph):
    unread = []
    for module, tree in graph.trees.items():
        if graph.is_package(module):
            continue
        read = set(_dunder_all(tree)) | {
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound = [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and (
                node.module != "__future__"
            ):
                bound = [a.asname or a.name for a in node.names]
            else:
                continue
            unread += [
                f"{module}:{node.lineno} {name}"
                for name in bound if name not in read
            ]
    assert not unread, (
        "these imports bind a name their module never reads; delete "
        "them:\n  " + "\n  ".join(unread)
    )


def test_entry_points_do_not_import_hypothesis():
    code = (
        "import sys, repro, repro.__main__, repro.serve; "
        "print('hypothesis' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, timeout=60, check=True,
    )
    assert run.stdout.strip() == "False"
