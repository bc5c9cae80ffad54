"""PEP 562 lazy exports: a package imports a submodule on first use.

A package ``__init__`` declares which submodule defines each public
name and binds the returned hooks::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        "store": ["SweepStore", "merge_provenance"],
    })

``from package import SweepStore`` then imports ``package.store`` only
at that moment, and the resolved name is cached in the package globals
so later lookups never reach ``__getattr__`` again.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Mapping, Sequence


def lazy_exports(package: str, exports: Mapping[str, Sequence[str]]
                 ) -> tuple[Callable[[str], object], Callable[[], list[str]],
                            list[str]]:
    """``(__getattr__, __dir__, __all__)`` for *package*.

    *exports* maps each submodule name to the public names it defines.
    """
    namespace = sys.modules[package].__dict__
    owners = {name: module for module, names in exports.items()
              for name in names}

    def __getattr__(name: str) -> object:
        try:
            module = owners[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(f"{package}.{module}"), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | owners.keys())

    return __getattr__, __dir__, list(owners)
