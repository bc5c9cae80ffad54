"""One replica's workload seed, derived on its own, kept as the oracle.

:func:`repro.sweeps.spec.replica_seeds` spawns ``n`` children of
``SeedSequence(seed_entropy)`` at once. Child ``r`` of a spawn is
``SeedSequence(seed_entropy, spawn_key=(r,))``, so this builds that
one child directly; the tests hold every ``replica_seeds`` entry equal
to it, which is what keeps a point's seed independent of how many
replicas a sweep asks for.
"""

from __future__ import annotations

import numpy as np

__all__ = ["replica_seed"]


def replica_seed(seed_entropy: int, replica: int) -> int:
    """The 64-bit workload seed of replica index *replica*."""
    child = np.random.SeedSequence(seed_entropy, spawn_key=(replica,))
    state = child.generate_state(2, dtype=np.uint32)
    return (int(state[0]) << 32) | int(state[1])
