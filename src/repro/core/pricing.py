"""Request pricing strategies (paper §III-B).

Swarm prices every upload/download request "respective to the distance
between the requester and the destination": serving a chunk you are
far from is worth more accounting units than serving one you are close
to, because the far peer has more forwarding work left to fund. The
paper computes the amount paid to the zero-proximity node "by using
the XOR metric to find the distance to the closest node to the
storer".

This module provides that XOR-distance pricing as the default plus two
alternatives used by the pricing ablation
(:func:`repro.experiments.ablations.run_pricing`):

* :class:`XorDistancePricing` — paper default; price proportional to
  the XOR distance between the serving peer and the chunk address.
* :class:`ProximityStepPricing` — Swarm bee-client style; price falls
  by one base unit per proximity order between peer and chunk.
* :class:`FlatPricing` — every chunk costs the same.

All strategies are pure functions of (server address, chunk address)
and are safe to share between threads and simulations.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from .._validation import require_positive
from ..errors import ConfigurationError
from ..kademlia.address import AddressSpace

__all__ = [
    "PricingStrategy",
    "XorDistancePricing",
    "ProximityStepPricing",
    "FlatPricing",
    "make_pricing",
]


class PricingStrategy(ABC):
    """Price of one chunk transfer served by *server* for *chunk*."""

    @abstractmethod
    def price(self, server: int, chunk: int) -> float:
        """Accounting units owed for this transfer. Always > 0."""

    @property
    @abstractmethod
    def name(self) -> str:
        """Stable identifier used in experiment configs and reports."""


class XorDistancePricing(PricingStrategy):
    """Price proportional to XOR distance between server and chunk.

    The distance is normalized by the address-space size so prices are
    in ``(0, base]`` regardless of bit width, keeping incomes
    comparable across experiments with different spaces. A floor of
    one normalized unit keeps the price strictly positive when the
    server address equals the chunk address.
    """

    def __init__(self, space: AddressSpace, base: float = 1.0) -> None:
        require_positive(base, "base")
        self.space = space
        self.base = base

    def price(self, server: int, chunk: int) -> float:
        distance = self.space.distance(server, chunk)
        return self.base * max(distance, 1) / self.space.size

    @property
    def name(self) -> str:
        return "xor"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"XorDistancePricing(bits={self.space.bits}, base={self.base})"


class ProximityStepPricing(PricingStrategy):
    """Price steps down by one base unit per proximity order.

    ``price = base * (bits - po(server, chunk))``, floored at ``base``:
    the scheme used by the Swarm bee client's pricer, where each
    additional shared prefix bit makes the transfer one unit cheaper.
    """

    def __init__(self, space: AddressSpace, base: float = 1.0) -> None:
        require_positive(base, "base")
        self.space = space
        self.base = base

    def price(self, server: int, chunk: int) -> float:
        po = self.space.proximity(server, chunk)
        return self.base * max(self.space.bits - po, 1)

    @property
    def name(self) -> str:
        return "proximity"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ProximityStepPricing(bits={self.space.bits}, base={self.base})"


class FlatPricing(PricingStrategy):
    """Every transfer costs the same fixed amount."""

    def __init__(self, amount: float = 1.0) -> None:
        require_positive(amount, "amount")
        self.amount = amount

    def price(self, server: int, chunk: int) -> float:
        return self.amount

    @property
    def name(self) -> str:
        return "flat"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FlatPricing(amount={self.amount})"


def make_pricing(name: str, space: AddressSpace,
                 base: float = 1.0) -> PricingStrategy:
    """Factory used by experiment configs ('xor', 'proximity', 'flat')."""
    strategies = {
        "xor": lambda: XorDistancePricing(space, base),
        "proximity": lambda: ProximityStepPricing(space, base),
        "flat": lambda: FlatPricing(base),
    }
    try:
        return strategies[name]()
    except KeyError:
        raise ConfigurationError(
            f"unknown pricing strategy {name!r}; "
            f"expected one of {sorted(strategies)}"
        ) from None
