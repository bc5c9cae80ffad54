"""Every ``src/repro`` module and public name is reached.

Both walks read source with :mod:`ast` and import nothing. Starting
from the entry points below it follows:

* ``import`` and ``from`` statements, relative ones resolved;
* ``from pkg import Name`` to the submodule that defines ``Name``,
  through ``pkg``'s ``lazy_exports`` map or its eager re-export;
* string literals passed to ``importlib.import_module``.

A package ``__init__`` counts as reached when any of its submodules
is, and its imports of modules outside the package are followed
then. Its re-exports of its own submodules are followed only when
something imports the package itself, so a module that nothing but
its package's re-export list names is not reached, and the test
names it.

The second walk is a ratchet on public names: every public top-level
function and class of ``src/repro``, and every public method of a
top-level class, must be named by code under ``src/``, ``perfbench/``
or ``examples/``, or sit on :data:`KEPT_NAMES` with the reason it
stays. Names match as identifiers, attributes, imported names or
identifier-like string literals, so a method counts as reached when
any code names an attribute of that name. A package's ``__all__``,
its ``lazy_exports`` map and its ``__init__`` re-exports do not count,
and neither do tests: a name only tests reach is dead code or a test
helper that belongs in ``tests/``.
"""

from __future__ import annotations

import ast
import functools
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

#: The CLI, the package, the experiment registry, the sweep worker
#: and the serve daemon. The backend registry's modules are read from
#: ``_BACKEND_MODULES`` in ``repro/backends/base.py``.
ENTRY_POINTS = ("repro", "repro.cli", "repro.experiments.registry",
                "repro.sweeps.worker", "repro.serve")


class ImportGraph:
    """Static module-level import edges of the packages under *src*."""

    def __init__(self, src: Path, top: str) -> None:
        self.files: dict[str, Path] = {}
        for path in sorted((src / top).rglob("*.py")):
            parts = path.relative_to(src).with_suffix("").parts
            if parts[-1] == "__init__":
                parts = parts[:-1]
            self.files[".".join(parts)] = path
        self._trees: dict[str, ast.Module] = {}
        self._exports: dict[str, dict[str, str]] = {}

    def tree(self, module: str) -> ast.Module:
        if module not in self._trees:
            self._trees[module] = ast.parse(self.files[module].read_text())
        return self._trees[module]

    def is_package(self, module: str) -> bool:
        return self.files[module].name == "__init__.py"

    def absolute(self, module: str, node: ast.ImportFrom) -> str:
        """The absolute module a ``from`` statement in *module* names."""
        if not node.level:
            return node.module or ""
        package = (module if self.is_package(module)
                   else module.rpartition(".")[0])
        for _ in range(node.level - 1):
            package = package.rpartition(".")[0]
        return f"{package}.{node.module}" if node.module else package

    def exports(self, package: str) -> dict[str, str]:
        """Public name -> defining module, for *package*'s re-exports."""
        if package not in self._exports:
            owners: dict[str, str] = {}
            self._exports[package] = owners
            tree = self.tree(package)
            for node in tree.body:
                if isinstance(node, ast.ImportFrom):
                    source = self.absolute(package, node)
                    for alias in node.names:
                        owners[alias.asname or alias.name] = self.resolve(
                            source, alias.name)
            for node in ast.walk(tree):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name)
                        and node.func.id == "lazy_exports"):
                    for module, names in ast.literal_eval(
                            node.args[1]).items():
                        for name in names:
                            owners[name] = f"{package}.{module}"
        return self._exports[package]

    def resolve(self, source: str, name: str) -> str:
        """The module that ``from source import name`` depends on."""
        if f"{source}.{name}" in self.files:
            return f"{source}.{name}"
        if source in self.files and self.is_package(source):
            return self.exports(source).get(name, source)
        return source

    def edges(self, module: str) -> set[str]:
        targets: set[str] = set()
        for node in ast.walk(self.tree(module)):
            if isinstance(node, ast.Import):
                targets.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                source = self.absolute(module, node)
                targets.update(self.resolve(source, alias.name)
                               for alias in node.names)
            elif (isinstance(node, ast.Call) and node.args
                  and isinstance(node.args[0], ast.Constant)
                  and isinstance(node.args[0].value, str)
                  and getattr(node.func, "attr",
                              getattr(node.func, "id", None))
                  == "import_module"):
                targets.add(node.args[0].value)
        return targets & self.files.keys()

    def unreached(self, entry_points: list[str]) -> list[str]:
        """Modules no walk from *entry_points* reaches, sorted."""
        imported: set[str] = set()
        parents: set[str] = set()
        stack = list(entry_points)
        while stack:
            module = stack.pop()
            if module in imported:
                continue
            imported.add(module)
            stack.extend(self.edges(module))
            while "." in module:
                module = module.rpartition(".")[0]
                if module in parents:
                    break
                parents.add(module)
                # Re-exports of the package's own submodules are not
                # uses; its other imports run with it.
                stack.extend(target for target in self.edges(module)
                             if not target.startswith(f"{module}."))
        return sorted(self.files.keys() - imported - parents)


def backend_modules(graph: ImportGraph) -> list[str]:
    """``repro.backends.<m>`` for each module in ``_BACKEND_MODULES``."""
    for node in graph.tree("repro.backends.base").body:
        if (isinstance(node, ast.Assign)
                and getattr(node.targets[0], "id", None)
                == "_BACKEND_MODULES"):
            return [f"repro.backends.{module}"
                    for module in ast.literal_eval(node.value).values()]
    raise AssertionError("_BACKEND_MODULES not found")


def test_every_module_is_reached_from_an_entry_point():
    graph = ImportGraph(SRC, "repro")
    entry_points = [*ENTRY_POINTS, *backend_modules(graph)]
    unreached = graph.unreached(entry_points)
    assert unreached == [], f"no entry point reaches {unreached}"


#: Public names no package code names, each kept on purpose; the
#: ratchet fails on a new one and on an entry that has become stale.
KEPT_NAMES = {
    # The README quickstart is written against it.
    "repro.quick_simulation",
    # Registered backends: the registry reaches them by their name.
    "repro.backends.baselines.FilecoinBackend",
    "repro.backends.baselines.FlatRewardBackend",
    "repro.backends.baselines.TitForTatBackend",
    "repro.backends.fast.FastBackend",
    "repro.backends.reference.ReferenceBackend",
    "repro.backends.timed.TimeBackend",
    # Test seams: hand-made tables and overlays, planted tables, cache
    # resets and counters only tests read.
    "repro.backends.fast.clear_caches",
    "repro.kademlia.overlay.Overlay.from_tables",
    "repro.kademlia.table.RoutingTable.add_unbounded",
    "repro.perf.table_cache.EpochCacheStats.resolutions",
    "repro.perf.table_cache.TableCache.install",
    "repro.scenarios.plan.CacheRuntime.cached_count",
    # They go with the rest of repro.engine.
    "repro.engine.des.EventScheduler.schedule_in",
    "repro.engine.des.PeriodicEvent.cancel",
    # http.server calls these by name.
    "repro.sweeps.queue_daemon._QueueHandler.do_GET",
    "repro.sweeps.queue_daemon._QueueHandler.do_POST",
    "repro.sweeps.queue_daemon._QueueHandler.log_message",
}


def public_definitions(tree: ast.Module) -> dict[str, str]:
    """Qualified name -> bare name, for the public names *tree* defines.

    Public top-level functions and classes, and the public methods of
    every top-level class (a private class's included).
    """
    found: dict[str, str] = {}
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            found[node.name] = node.name
        if isinstance(node, ast.ClassDef):
            for method in node.body:
                if (isinstance(method, (ast.FunctionDef,
                                        ast.AsyncFunctionDef))
                        and not method.name.startswith("_")):
                    found[f"{node.name}.{method.name}"] = method.name
    return found


def names_used(tree: ast.Module, is_package: bool) -> set[str]:
    """Every name *tree* uses, less its export lists and re-exports."""
    skipped: set[int] = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(getattr(target, "id", None) == "__all__"
                        for target in node.targets)):
            skipped.update(map(id, ast.walk(node.value)))
        elif (isinstance(node, ast.Call)
              and getattr(node.func, "id", None) == "lazy_exports"):
            for argument in node.args:
                skipped.update(map(id, ast.walk(argument)))
    used: set[str] = set()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias) and not is_package:
            used.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Call):
            used |= attribute_names(node)
    return used


#: Calls whose second argument names an attribute: the builtins, and
#: perfbench's ``patches.method(owner, "name", wrap)``.
ATTRIBUTE_CALLS = {"getattr", "hasattr", "setattr", "delattr", "method"}


def attribute_names(call: ast.Call) -> set[str]:
    """The attribute name *call* passes as a string literal, if any.

    Other string literals (dict keys, option values, messages) name
    nothing, however much they look like an identifier.
    """
    func = call.func
    callee = func.id if isinstance(func, ast.Name) else getattr(
        func, "attr", None)
    if callee not in ATTRIBUTE_CALLS or len(call.args) < 2:
        return set()
    name = call.args[1]
    if isinstance(name, ast.Constant) and isinstance(name.value, str):
        return {name.value}
    return set()


def unnamed_public_names(graph: ImportGraph,
                         naming_dirs: list[Path]) -> set[str]:
    """Qualified public names of *graph* that no file under
    *naming_dirs* names."""
    used: set[str] = set()
    for directory in naming_dirs:
        for path in sorted(directory.rglob("*.py")):
            used |= names_used(ast.parse(path.read_text()),
                               path.name == "__init__.py")
    return {f"{module}.{qualified}"
            for module in graph.files
            for qualified, name in public_definitions(
                graph.tree(module)).items()
            if name not in used}


@functools.cache
def package_unnamed_names() -> frozenset[str]:
    """Public names of ``src/repro`` that no package code names."""
    root = SRC.parent
    return frozenset(unnamed_public_names(ImportGraph(SRC, "repro"), [
        SRC, root / "perfbench", root / "examples"]))


def test_every_public_name_is_named_by_package_code():
    assert sorted(package_unnamed_names() - KEPT_NAMES) == [], (
        "public names only tests (or nothing) reach: delete them, move "
        "them into tests/, or keep them on KEPT_NAMES with a reason")


@pytest.mark.parametrize("name", sorted(KEPT_NAMES))
def test_kept_name_is_defined_and_named_by_no_package_code(name):
    assert name in package_unnamed_names(), (
        f"{name} is gone, or package code now names it: drop it from "
        "KEPT_NAMES")


def test_export_lists_re_exports_and_tests_do_not_name(tmp_path):
    graph = write_tree(tmp_path, {
        "pkg/__init__.py": "from .mod import Exported\n"
                           "__all__ = ['Exported', 'Listed']\n",
        "pkg/_lazy.py": "def lazy_exports(name, table): ...\n",
        "pkg/lazy/__init__.py": "from .._lazy import lazy_exports\n"
                                "x = lazy_exports(__name__, "
                                "{'impl': ['Lazy']})\n",
        "pkg/lazy/impl.py": "class Lazy: ...\n",
        "pkg/mod.py": "class Exported:\n"
                      "    def method(self): ...\n"
                      "    def called(self): ...\n"
                      "def Listed(): ...\n"
                      "def helper(): ...\n"
                      "def uses_helper(): return helper()\n"
                      "class _Private:\n"
                      "    def hook(self): ...\n",
        "pkg/main.py": "from pkg.mod import uses_helper\n"
                       "getattr(object(), 'called')\n",
        "tests/test_mod.py": "from pkg.mod import Exported\n"
                             "Exported().method()\n",
    })
    # Its own module's call reaches `helper`, and a string `called`.
    assert unnamed_public_names(graph, [tmp_path / "pkg"]) == {
        "pkg.mod.Exported", "pkg.mod.Exported.method", "pkg.mod.Listed",
        "pkg.mod._Private.hook", "pkg.lazy.impl.Lazy"}


def write_tree(root: Path, files: dict[str, str]) -> ImportGraph:
    """Write *files* under *root* and return the graph of ``pkg``."""
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return ImportGraph(root, "pkg")


def test_relative_imports_resolve_against_the_package(tmp_path):
    graph = write_tree(tmp_path, {
        "pkg/__init__.py": "",
        "pkg/a/__init__.py": "",
        "pkg/a/main.py": "from ..b import helper\nfrom . import sib\n",
        "pkg/a/sib.py": "",
        "pkg/b.py": "def helper(): ...\n",
        "pkg/c.py": "",
    })
    assert graph.edges("pkg.a.main") == {"pkg.b", "pkg.a.sib"}
    assert graph.unreached(["pkg.a.main"]) == ["pkg.c"]


def test_plain_import_of_a_dotted_module(tmp_path):
    graph = write_tree(tmp_path, {
        "pkg/__init__.py": "",
        "pkg/main.py": "import pkg.tools.fmt\nimport json\n",
        "pkg/tools/__init__.py": "",
        "pkg/tools/fmt.py": "",
        "pkg/tools/other.py": "",
    })
    # Modules outside the walked package (json) are not edges.
    assert graph.edges("pkg.main") == {"pkg.tools.fmt"}
    assert graph.unreached(["pkg.main"]) == ["pkg.tools.other"]


def test_from_package_import_name_reaches_only_its_definer(tmp_path):
    graph = write_tree(tmp_path, {
        "pkg/__init__.py": "from .left import Left\n"
                           "from .right import Right\n",
        "pkg/left.py": "class Left: ...\n",
        "pkg/right.py": "class Right: ...\n",
        "pkg/main.py": "from pkg import Left\n",
    })
    assert graph.edges("pkg.main") == {"pkg.left"}
    assert graph.unreached(["pkg.main"]) == ["pkg.right"]


def test_lazy_exports_map_names_to_submodules(tmp_path):
    graph = write_tree(tmp_path, {
        "pkg/__init__.py": "",
        "pkg/_lazy.py": "def lazy_exports(name, table): ...\n",
        "pkg/lazy/__init__.py": "from .._lazy import lazy_exports\n"
                                "__getattr__, __dir__, __all__ = "
                                "lazy_exports(__name__, {'fast': ['Fast'], "
                                "'slow': ['Slow']})\n",
        "pkg/lazy/fast.py": "class Fast: ...\n",
        "pkg/lazy/slow.py": "class Slow: ...\n",
        "pkg/main.py": "from .lazy import Slow\n",
    })
    assert graph.exports("pkg.lazy") == {
        "lazy_exports": "pkg._lazy",
        "Fast": "pkg.lazy.fast", "Slow": "pkg.lazy.slow"}
    assert graph.edges("pkg.main") == {"pkg.lazy.slow"}
    # pkg._lazy is reached because pkg.lazy runs it.
    assert graph.unreached(["pkg.main"]) == ["pkg.lazy.fast"]


def test_import_module_string_literals_are_edges(tmp_path):
    graph = write_tree(tmp_path, {
        "pkg/__init__.py": "",
        "pkg/main.py": "import importlib\n"
                       "from importlib import import_module\n"
                       "def load(name):\n"
                       "    importlib.import_module('pkg.one')\n"
                       "    import_module('pkg.two')\n"
                       "    import_module(name)\n",
        "pkg/one.py": "",
        "pkg/two.py": "",
        "pkg/three.py": "",
    })
    assert graph.edges("pkg.main") == {"pkg.one", "pkg.two"}
    assert graph.unreached(["pkg.main"]) == ["pkg.three"]


def test_reached_package_runs_its_outside_imports(tmp_path):
    graph = write_tree(tmp_path, {
        "pkg/__init__.py": "",
        "pkg/sub/__init__.py": "from ..config import Config\n"
                               "from .extra import Extra\n",
        "pkg/sub/leaf.py": "",
        "pkg/sub/extra.py": "class Extra: ...\n",
        "pkg/config.py": "class Config: ...\n",
        "pkg/main.py": "from .sub import leaf\n",
    })
    # Importing pkg.sub.leaf runs pkg/sub/__init__.py, so its import
    # of pkg.config counts; its re-export of pkg.sub.extra does not.
    assert graph.unreached(["pkg.main"]) == ["pkg.sub.extra"]


def test_walk_sees_past_package_re_exports(tmp_path):
    files = {
        "pkg/__init__.py": "from .eager import Eager\n"
                           "from .orphan import Orphan\n",
        "pkg/eager.py": "class Eager: ...\n",
        "pkg/orphan.py": "class Orphan: ...\n",
        "pkg/main.py": "from pkg import Eager\n"
                       "from .lazy import Thing\n"
                       "import importlib\n"
                       "importlib.import_module('pkg.plugin')\n",
        "pkg/lazy/__init__.py": "from ..util import lazy_exports\n"
                                "from .unused import Unused\n"
                                "x = lazy_exports(__name__, "
                                "{'impl': ['Thing']})\n",
        "pkg/lazy/impl.py": "Thing = 1\n",
        "pkg/lazy/unused.py": "class Unused: ...\n",
        "pkg/util.py": "def lazy_exports(name, exports): ...\n",
        "pkg/plugin.py": "",
    }
    for name, text in files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    graph = ImportGraph(tmp_path, "pkg")
    # The package itself is not an entry point, so its eager
    # re-export of `orphan` does not count.
    assert graph.unreached(["pkg.main"]) == [
        "pkg.lazy.unused", "pkg.orphan"]
    assert graph.unreached(["pkg", "pkg.main"]) == ["pkg.lazy.unused"]
