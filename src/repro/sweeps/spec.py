"""Declarative sweep specifications.

A :class:`SweepSpec` names everything a multi-point experiment needs:
a base :class:`~repro.backends.config.FastSimulationConfig`, a
parameter grid over its fields, the
:mod:`~repro.backends` registry names to run each cell on, and the
number of seed replicas per cell. :meth:`SweepSpec.points` expands the
spec into the canonical ordered list of :class:`SweepPoint` runnable
units the executors in :mod:`repro.sweeps.executors` consume.

Replica workload seeds are derived with
:class:`numpy.random.SeedSequence` spawning: replica ``r`` draws its
seed from ``SeedSequence(seed_entropy).spawn(r + 1)[r]``, which
depends only on ``(seed_entropy, r)`` — never on execution order or
process layout — so parallel sweeps are reproducible and
order-independent by construction. Every grid cell and backend shares
the same replica seeds: the paper's replay-for-comparison methodology
(one frozen workload re-run across configurations) extended to a
replicated workload set.
"""

from __future__ import annotations

import dataclasses
import types
import typing
from dataclasses import dataclass
from itertools import product
from typing import Any, Mapping, Sequence

import numpy as np

from ..backends.base import get_backend_class
from ..backends.config import FastSimulationConfig
from ..errors import ConfigurationError

__all__ = [
    "SweepSpec",
    "SweepPoint",
    "replica_seeds",
    "sweepable_fields",
    "parse_grid_value",
    "parse_grid_arguments",
]

#: Config fields a grid may not touch: the replica dimension owns the
#: workload seed, and expansion owns nothing else.
RESERVED_FIELDS = ("workload_seed",)


def sweepable_fields() -> dict[str, Any]:
    """``FastSimulationConfig`` field name -> resolved type annotation."""
    hints = typing.get_type_hints(FastSimulationConfig)
    return {
        f.name: hints[f.name]
        for f in dataclasses.fields(FastSimulationConfig)
        if f.name not in RESERVED_FIELDS
    }


def replica_seeds(seed_entropy: int, n: int) -> tuple[int, ...]:
    """Workload seeds for replicas ``0..n-1``.

    Uses :meth:`numpy.random.SeedSequence.spawn`: child ``r`` of
    ``SeedSequence(seed_entropy)`` is fully determined by the entropy
    and ``r``, so the seeds are prefix-stable and each one is the same
    no matter which points run, where, or in what order.
    """
    children = np.random.SeedSequence(seed_entropy).spawn(n)
    seeds = []
    for child in children:
        state = child.generate_state(2, dtype=np.uint32)
        seeds.append((int(state[0]) << 32) | int(state[1]))
    return tuple(seeds)


@dataclass(frozen=True)
class SweepPoint:
    """One runnable ``(backend, grid cell, seed replica)`` unit.

    ``index`` is the position in the spec's canonical expansion order;
    ``point_id`` is a stable, order-independent identity used by the
    JSON result store for resume and diffing.
    """

    index: int
    backend: str
    overrides: tuple[tuple[str, Any], ...]
    replica: int
    workload_seed: int

    @property
    def point_id(self) -> str:
        """Stable store key, independent of expansion order."""
        cell = ",".join(
            f"{name}={value}" for name, value in sorted(self.overrides)
        )
        return f"{self.backend}|{cell}|r{self.replica}"

    def config(self, base: FastSimulationConfig) -> FastSimulationConfig:
        """The fully-bound configuration for this point."""
        return dataclasses.replace(
            base, **dict(self.overrides), workload_seed=self.workload_seed
        )


@dataclass(frozen=True)
class SweepSpec:
    """A parameter grid x scenarios x backends x seed replicas plan.

    ``grid`` maps :class:`FastSimulationConfig` field names to the
    values to sweep (normalized to an ordered tuple of pairs so the
    spec stays hashable); ``scenarios`` is a first-class axis of
    scenario composition strings (the
    :func:`~repro.scenarios.parse.parse_scenario` grammar) crossed
    with the grid — each expands to a ``scenario`` field override, so
    workers, the store, and aggregation treat it like any other cell
    dimension; ``seeds`` is the number of workload-seed replicas per
    cell, each derived from ``seed_entropy`` (see
    :func:`replica_seeds`). Validation looks every backend name up in
    the registry and constructs every grid cell's configuration once,
    so unknown backends and bad fields, values, or scenario specs fail
    at spec-build time, not inside a worker process.
    """

    base: FastSimulationConfig = FastSimulationConfig()
    grid: Any = ()
    backends: tuple[str, ...] = ("fast",)
    seeds: int = 1
    seed_entropy: int = 2022
    scenarios: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        normalized = self._normalize_grid(self.grid)
        object.__setattr__(self, "grid", normalized)
        object.__setattr__(self, "backends", tuple(self.backends))
        object.__setattr__(
            self, "scenarios", tuple(str(s) for s in self.scenarios)
        )
        if not self.backends:
            raise ConfigurationError("a sweep needs at least one backend")
        for name in self.backends:
            get_backend_class(name)  # refuses with the known-backend list
        if self.seeds < 1:
            raise ConfigurationError(
                f"seeds must be >= 1, got {self.seeds}"
            )
        known = sweepable_fields()
        for name, values in normalized:
            if name not in known:
                raise ConfigurationError(
                    f"unknown sweep field {name!r}; sweepable fields: "
                    f"{sorted(known)}"
                )
            if not values:
                raise ConfigurationError(
                    f"sweep field {name!r} has no values"
                )
        if self.scenarios and any(
            name == "scenario" for name, _ in normalized
        ):
            raise ConfigurationError(
                "the scenario axis is given twice: drop the "
                "--grid scenario=... entry or the scenarios= axis"
            )
        for cell in self.cells():
            # Surfaces type/range/scenario-grammar errors via the
            # config's own checks.
            dataclasses.replace(self.base, **dict(cell))

    @staticmethod
    def _normalize_grid(grid: Any) -> tuple[tuple[str, tuple], ...]:
        if isinstance(grid, Mapping):
            items: Sequence = tuple(grid.items())
        else:
            items = tuple(grid)
        normalized = []
        for name, values in items:
            if isinstance(values, (str, bytes)) or not isinstance(
                values, (Sequence, np.ndarray)
            ):
                values = (values,)
            normalized.append((str(name), tuple(values)))
        return tuple(normalized)

    # ------------------------------------------------------------------
    # Expansion

    def cells(self) -> list[tuple[tuple[str, Any], ...]]:
        """Grid x scenario cells (override assignments) in canonical order.

        The scenario axis expands innermost, as a trailing
        ``("scenario", spec)`` override on every grid cell — one more
        config field as far as workers and stores are concerned.
        """
        if not self.grid:
            grid_cells: list[tuple] = [()]
        else:
            names = [name for name, _ in self.grid]
            value_lists = [values for _, values in self.grid]
            grid_cells = [
                tuple(zip(names, combo)) for combo in product(*value_lists)
            ]
        if not self.scenarios:
            return grid_cells
        return [
            cell + (("scenario", scenario),)
            for cell in grid_cells
            for scenario in self.scenarios
        ]

    def workload_seeds(self) -> tuple[int, ...]:
        """The derived per-replica workload seeds (shared by all cells)."""
        return replica_seeds(self.seed_entropy, self.seeds)

    def points(self) -> tuple[SweepPoint, ...]:
        """Canonical expansion: backend-major, then cell, then replica."""
        seeds = self.workload_seeds()
        points = []
        index = 0
        for backend in self.backends:
            for cell in self.cells():
                for replica, seed in enumerate(seeds):
                    points.append(SweepPoint(
                        index=index,
                        backend=backend,
                        overrides=cell,
                        replica=replica,
                        workload_seed=seed,
                    ))
                    index += 1
        return tuple(points)

    def __len__(self) -> int:
        n_cells = 1
        for _, values in self.grid:
            n_cells *= len(values)
        if self.scenarios:
            n_cells *= len(self.scenarios)
        return len(self.backends) * n_cells * self.seeds

    # ------------------------------------------------------------------
    # JSON round-trip (the store persists specs for resume/diff)

    def to_json(self) -> dict:
        """Plain-data form, stable under JSON round-trips.

        ``scenarios`` is omitted when empty, so scenario-free stores
        stay byte-identical with those written before the axis
        existed.
        """
        payload = {
            "base": dataclasses.asdict(self.base),
            "grid": [[name, list(values)] for name, values in self.grid],
            "backends": list(self.backends),
            "seeds": self.seeds,
            "seed_entropy": self.seed_entropy,
        }
        if self.scenarios:
            payload["scenarios"] = list(self.scenarios)
        return payload

    @classmethod
    def from_json(cls, payload: Mapping) -> "SweepSpec":
        """Inverse of :meth:`to_json`."""
        return cls(
            base=FastSimulationConfig(**payload["base"]),
            grid=tuple(
                (name, tuple(values)) for name, values in payload["grid"]
            ),
            backends=tuple(payload["backends"]),
            seeds=int(payload["seeds"]),
            seed_entropy=int(payload["seed_entropy"]),
            scenarios=tuple(payload.get("scenarios", ())),
        )


# ----------------------------------------------------------------------
# Grid-argument parsing (the CLI's ``--grid field=v1,v2`` syntax)


def _parse_scalar(name: str, annotation: Any, text: str) -> Any:
    origin_types = (
        typing.get_args(annotation)
        if isinstance(annotation, types.UnionType)
        else (annotation,)
    )
    if type(None) in origin_types and text.lower() in ("none", "null"):
        return None
    target = next(t for t in origin_types if t is not type(None))
    try:
        return target(text)
    except (TypeError, ValueError):
        raise ConfigurationError(
            f"cannot parse {text!r} as {annotation} for sweep field "
            f"{name!r}"
        ) from None


def parse_grid_value(name: str, text: str) -> tuple:
    """Parse one ``--grid`` value list for *name*, typed by the config."""
    fields = sweepable_fields()
    if name not in fields:
        reserved = [f for f in RESERVED_FIELDS if f == name]
        hint = (
            " (the seed replicas own the workload seed; use --seeds)"
            if reserved else ""
        )
        raise ConfigurationError(
            f"unknown sweep field {name!r}{hint}; sweepable fields: "
            f"{sorted(fields)}"
        )
    values = tuple(
        _parse_scalar(name, fields[name], part.strip())
        for part in text.split(",")
        if part.strip() != ""
    )
    if not values:
        raise ConfigurationError(f"--grid {name}= needs at least one value")
    return values


def parse_grid_arguments(items: Sequence[str]) -> dict[str, tuple]:
    """Parse repeated ``field=v1,v2`` CLI arguments into a grid dict."""
    grid: dict[str, tuple] = {}
    for item in items:
        name, separator, text = item.partition("=")
        name = name.strip()
        if not separator or not name:
            raise ConfigurationError(
                f"malformed --grid argument {item!r}; expected "
                f"field=value[,value...]"
            )
        if name in grid:
            raise ConfigurationError(
                f"sweep field {name!r} given more than once"
            )
        grid[name] = parse_grid_value(name, text)
    return grid
