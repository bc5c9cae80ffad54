"""Standalone comparison and misbehaviour models.

BitTorrent tit-for-tat (a swarm with no overlay routing, behind the
``tit_for_tat`` backend) and the §V chequebook free-rider model
(zero-deposit payers that default, used by the ``freeriders``
experiment). The flat and Filecoin-style mechanisms are simulation
backends (:mod:`repro.backends.baselines`) on the routed traffic, and
never-paying originators on that traffic are the ``freeriding``
scenario.
"""

from .freerider import FreeRiderPlan, apply_free_riders, select_free_riders
from .tit_for_tat import TitForTatConfig, TitForTatPeer, TitForTatSwarm

__all__ = [
    "FreeRiderPlan",
    "TitForTatConfig",
    "TitForTatPeer",
    "TitForTatSwarm",
    "apply_free_riders",
    "select_free_riders",
]
