"""Misbehaving peers (paper §V, second future-work thread).

"For the duration of the experiment, it is assumed that all peers will
adhere to the protocol ... In a second thread of future work, we will
consider what happens when some peers misbehave."

This module implements that thread for the behaviours the paper names:

* **free-riders** — nodes that never pay the zero-proximity node.
  Expressed through the chequebook: a free-rider's deposit is zero,
  so every purchase attempt defaults and the service falls back to
  (amortizing) channel debt.
* **selective free-riders** — pay only a fraction of the time,
  modelled with a probabilistic deposit top-up.

:func:`apply_free_riders` mutates a :class:`SwapIncentives` instance
before a run; the ``freeriders`` experiment compares fairness with and
without them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._validation import require_fraction
from ..core.incentives import SwapIncentives
from ..errors import ConfigurationError

__all__ = ["FreeRiderPlan", "apply_free_riders", "select_free_riders"]


@dataclass(frozen=True)
class FreeRiderPlan:
    """Which nodes misbehave and how severely.

    ``fraction`` of nodes are made free-riders; with ``pay_probability``
    above zero they are *selective*: their chequebook is funded to
    cover roughly that fraction of their obligations.
    """

    fraction: float
    pay_probability: float = 0.0
    seed: int = 13

    def __post_init__(self) -> None:
        require_fraction(self.fraction, "fraction")
        require_fraction(self.pay_probability, "pay_probability")


def select_free_riders(nodes: list[int], plan: FreeRiderPlan) -> list[int]:
    """Deterministically choose the misbehaving subset."""
    if not nodes:
        raise ConfigurationError("cannot select free riders from no nodes")
    count = round(plan.fraction * len(nodes))
    if count == 0:
        return []
    rng = np.random.default_rng(plan.seed)
    chosen = rng.choice(np.asarray(nodes), size=count, replace=False)
    return [int(node) for node in chosen]


def apply_free_riders(incentives: SwapIncentives, nodes: list[int],
                      plan: FreeRiderPlan,
                      expected_spend: float = 0.0) -> list[int]:
    """Configure *incentives* so the selected nodes cannot (fully) pay.

    ``expected_spend`` is the rough total a compliant node would spend
    during the run; selective free-riders get a deposit of
    ``pay_probability * expected_spend`` so they default once that
    budget is exhausted. Full free-riders are handled exactly: with a
    zero deposit every purchase attempt raises inside the mechanism
    and is counted in ``incentives.defaults``.

    Returns the chosen free-rider addresses.
    """
    riders = select_free_riders(nodes, plan)
    for rider in riders:
        if plan.pay_probability == 0.0:
            # Chequebook deposits must be non-negative; zero means the
            # first issued cheque already bounces.
            incentives.set_deposit(rider, 0.0)
        else:
            incentives.set_deposit(
                rider, plan.pay_probability * expected_spend
            )
    return riders
