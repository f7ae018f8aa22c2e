"""Every library module is reached from an entry point.

The import graph is built statically with :mod:`ast` from these roots:
``repro.__main__``, ``repro.api``, ``repro.pipeline``, every module under
``repro.serve`` and ``repro.experiments``, and every ``.py`` file under
``benchmarks/``, ``scripts/`` and ``examples/``.  Tests are not roots: a
module that only its own tests import is surface no user can reach.

Edges follow absolute and relative imports, by name:

* a name imported from a package resolves through the package's
  ``__init__`` re-exports to the module that defines it, so an eager
  re-export alone keeps no module alive;
* ``alias.attr`` resolves the same way when ``alias`` is bound to a
  package (``from repro import obs`` followed by ``obs.span``);
* a name that an ``__init__`` defines itself makes that ``__init__``'s
  own code a use, and the names its definitions read are followed.

An ordinary module that is reached uses everything it imports.

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


def _absolute(node: ast.ImportFrom, package: str | None) -> str | None:
    """The absolute module name an ``ImportFrom`` reads from."""
    if node.level == 0:
        return node.module
    if package is None:
        return None
    base = package.split(".")[: len(package.split(".")) - node.level + 1]
    return ".".join(base + ([node.module] if node.module else []))


def _exports(tree: ast.Module, package: str) -> dict:
    """An ``__init__``'s top-level names: ``(module, attr)`` for an import
    (``attr`` is ``None`` for a whole module), ``None`` for a name the
    ``__init__`` defines itself."""
    out: dict[str, tuple[str, str | None] | None] = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            base = _absolute(node, package)
            for alias in node.names:
                out[alias.asname or alias.name] = (base, alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    out[alias.asname] = (alias.name, None)
                else:
                    head = alias.name.split(".")[0]
                    out[head] = (head, None)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out[node.name] = None
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        out[leaf.id] = None
    return out


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


class ImportGraph:
    """Name-level import graph of the ``repro`` package.

    A target is ``(kind, module)``: ``"module"`` (an ordinary module, all
    of whose imports are uses), ``"init"`` (a package ``__init__``'s own
    code) or ``"package"`` (a package bound to a name, which uses nothing
    until an attribute of it is read).
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
        self.exports = {
            name: _exports(tree, name)
            for name, tree in self.trees.items()
            if self.is_package(name)
        }
        self.unresolved: set[str] = set()

    def is_package(self, name: str) -> bool:
        return self.paths[name].name == "__init__.py"

    def package_of(self, name: str) -> str:
        return name if self.is_package(name) else name.rpartition(".")[0]

    def kind(self, name: str) -> tuple[str, str]:
        return ("package" if self.is_package(name) else "module", name)

    def lookup(
        self, owner: str, attr: str, seen: frozenset = frozenset()
    ) -> tuple[str, str] | None:
        """The target ``owner.attr`` names, or ``None`` if it names none."""
        if f"{owner}.{attr}" in self.paths:
            return self.kind(f"{owner}.{attr}")
        if not self.is_package(owner):
            return ("module", owner)
        exports = self.exports[owner]
        if attr not in exports or (owner, attr) in seen:
            return None
        source = exports[attr]
        if source is None:
            return ("init", owner)
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

    def uses(
        self, tree: ast.Module, package: str | None, init_code: bool = False
    ) -> set[tuple[str, str]]:
        """The module and ``__init__``-code targets ``tree`` uses.

        With ``init_code``, only the ``__init__``'s own definitions are
        uses: its top-level imports count only where that code reads them.
        """
        bindings = self._bindings(tree, package)
        if init_code:
            body = [
                node for node in tree.body
                if not isinstance(node, (ast.Import, ast.ImportFrom))
            ]
        else:
            body = [tree]
        found: set[tuple[str, str]] = set()
        for top in body:
            for node in ast.walk(top):
                found.update(t for _, t in self._imported(node, package))
                if init_code and isinstance(node, ast.Name):
                    found.update(bindings.get(node.id, ()))
                if isinstance(node, ast.Attribute):
                    found.update(self._resolve_chain(node, bindings))
        return {t for t in found if t[0] != "package"}

    def _resolve_chain(self, node: ast.Attribute, bindings: dict):
        chain = _chain(node)
        if chain is None:
            return
        head, attrs = chain
        for target in bindings.get(head, ()):
            for attr in attrs:
                if target[0] != "package":
                    break
                target = self.lookup(target[1], attr)
                if target is None:
                    break
            if target is not None:
                yield target

    def reached(self) -> set[str]:
        """Every module some root reaches (roots included)."""
        queue: list[tuple[str, str]] = []
        for path in sorted(
            p for d in ROOT_DIRS for p in (ROOT / d).rglob("*.py")
        ):
            tree = ast.parse(path.read_text(), str(path))
            queue.extend(self.uses(tree, None))
        for name in self.paths:
            if name in ROOT_MODULES or any(
                name == pkg or name.startswith(pkg + ".")
                for pkg in ROOT_PACKAGES
            ):
                queue.append(
                    ("init", name) if self.is_package(name)
                    else ("module", name)
                )
        seen: set[tuple[str, str]] = set()
        while queue:
            target = queue.pop()
            if target in seen:
                continue
            seen.add(target)
            kind, name = target
            queue.extend(self.uses(
                self.trees[name], self.package_of(name), kind == "init"
            ))
        return {name for _, name in seen}


@pytest.fixture(scope="module")
def graph():
    return ImportGraph()


@pytest.fixture(scope="module")
def reached(graph):
    return graph.reached()


def test_every_module_is_reached_from_an_entry_point(graph, reached):
    unreached = sorted(
        name for name in graph.paths
        if not graph.is_package(name)
        and name not in reached
        and name not in ALLOWED_UNREACHED
    )
    assert not unreached, (
        "no entry point reaches these modules; delete them or call "
        "them from an entry point:\n  " + "\n  ".join(unreached)
    )


def test_allowed_modules_exist_and_are_unreached(graph, reached):
    for name in ALLOWED_UNREACHED:
        assert name in graph.paths, f"{name} no longer exists"
        assert name not in reached, (
            f"{name} is reached now; drop it from ALLOWED_UNREACHED"
        )


def test_every_package_import_resolves(graph, reached):
    # A name the graph cannot resolve would drop an edge silently.
    assert not graph.unresolved, sorted(graph.unresolved)


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
