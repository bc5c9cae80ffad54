"""The :class:`SimulationBackend` protocol and backend registry.

Every way of executing the paper's download simulation — the batched
numpy engine, the per-file legacy loop, the object-oriented reference
network, and the comparison baselines — implements one small
interface::

    backend = get_backend("fast")
    result = backend.prepare(config).run(workload)

``prepare`` binds a backend instance to a
:class:`~repro.backends.config.FastSimulationConfig` (building or
reusing the overlay, routing tables, reference nodes, ...);
``run`` replays a download workload and returns a
:class:`~repro.backends.result.SimulationResult` whose per-node
vectors every experiment runner, benchmark, and fairness metric
consumes. Backends register themselves with :func:`register_backend`
so runners and the CLI can select them by name — including the
multi-seed sweep engine in :mod:`repro.sweeps`, which fans any
``(config grid x backend x seed replica)`` expansion out over worker
processes through this same interface.
"""

from __future__ import annotations

import abc
import importlib
from typing import TYPE_CHECKING, ClassVar

from ..errors import ConfigurationError

if TYPE_CHECKING:
    from ..kademlia.overlay import Overlay
    from .config import FastSimulationConfig
    from .result import SimulationResult

__all__ = [
    "SimulationBackend",
    "register_backend",
    "get_backend",
    "get_backend_class",
    "available_backends",
    "run_simulation",
]


class SimulationBackend(abc.ABC):
    """One way of executing a download-workload simulation.

    Subclasses set ``name`` (the registry key) and ``description``
    (one line for ``repro-swarm backends``). After :meth:`prepare`
    the ``config`` attribute holds the bound configuration and
    ``overlay`` the overlay instance, when the backend has one
    (the standalone tit-for-tat swarm does not).
    """

    name: ClassVar[str]
    description: ClassVar[str] = ""
    #: Whether :meth:`run` replays the configured download workload
    #: over the overlay. False for self-contained models (the
    #: tit-for-tat swarm), which experiment runners that compare
    #: traffic or read ``overlay`` must not be pointed at.
    replays_workload: ClassVar[bool] = True
    #: Whether prepare() resolves a dense
    #: :class:`~repro.backends.fast.NextHopTable` for its overlay.
    #: The sweep executor publishes shared-memory tables only for
    #: backends that would otherwise rebuild one per worker.
    uses_next_hop_table: ClassVar[bool] = False

    config: "FastSimulationConfig | None" = None
    overlay: "Overlay | None" = None

    @abc.abstractmethod
    def prepare(self, config: "FastSimulationConfig") -> "SimulationBackend":
        """Bind this backend to *config*; returns ``self`` for chaining."""

    @abc.abstractmethod
    def run(self, workload=None) -> "SimulationResult":
        """Replay *workload* (default: the config's own) and report."""

    def _require_prepared(self) -> "FastSimulationConfig":
        if self.config is None:
            raise ConfigurationError(
                f"backend {self.name!r} must be prepare()d before run()"
            )
        return self.config


_BACKENDS: dict[str, type[SimulationBackend]] = {}

#: The module of this package that registers each built-in backend,
#: imported the first time one of its names is looked up.
_BACKEND_MODULES = {
    "fast": "fast",
    "fast-perfile": "fast",
    "time": "timed",
    "reference": "reference",
    "flat": "baselines",
    "filecoin": "baselines",
    "freerider": "baselines",
    "tit_for_tat": "baselines",
}


def register_backend(cls: type[SimulationBackend]) -> type[SimulationBackend]:
    """Class decorator adding a backend to the registry by its name."""
    name = getattr(cls, "name", None)
    if not name or not isinstance(name, str):
        raise ConfigurationError(
            f"backend class {cls.__name__} needs a string 'name' attribute"
        )
    _BACKENDS[name] = cls
    return cls


def get_backend_class(name: str) -> type[SimulationBackend]:
    """The registered backend class for *name* (no instantiation)."""
    if name not in _BACKENDS and name in _BACKEND_MODULES:
        importlib.import_module(f"{__package__}.{_BACKEND_MODULES[name]}")
    try:
        return _BACKENDS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown backend {name!r}; available: {available_backends()}"
        ) from None


def get_backend(name: str, **kwargs) -> SimulationBackend:
    """A fresh backend instance for *name*; raises with the known names.

    Keyword arguments are forwarded to the backend constructor (e.g.
    ``get_backend("freerider", fraction=0.5)``).
    """
    return get_backend_class(name)(**kwargs)


def available_backends() -> list[str]:
    """Registered backend names, sorted (imports every built-in one)."""
    for module in sorted(set(_BACKEND_MODULES.values())):
        importlib.import_module(f"{__package__}.{module}")
    return sorted(_BACKENDS)


def backend_specs() -> list[tuple[str, str]]:
    """(name, description) pairs for the CLI listing."""
    return [
        (name, _BACKENDS[name].description) for name in available_backends()
    ]


def run_simulation(config: "FastSimulationConfig", backend: str = "fast",
                   workload=None, **backend_kwargs) -> "SimulationResult":
    """One-call convenience: prepare the named backend and run it."""
    return get_backend(backend, **backend_kwargs).prepare(config).run(workload)
