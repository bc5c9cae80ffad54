"""Every ``src/repro`` module is reached from an entry point.

The walk reads source with :mod:`ast` and imports nothing. Starting
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
"""

from __future__ import annotations

import ast
from pathlib import Path

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
