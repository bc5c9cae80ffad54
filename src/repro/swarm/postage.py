"""Postage stamps: who pays for storage (paper §V, Swarm's design).

The paper simulates only bandwidth incentives and names storage
incentives as the missing half ("having not just the bandwidth
incentives simulated but also the storage incentives appears needed
to complete the simulation"). This module implements the *payer* side
of Swarm's storage incentives, postage stamps:

* an uploader buys a :class:`PostageBatch` — a prepaid balance with a
  *depth* bounding how many chunks it can stamp (``2**depth``);
* every uploaded chunk carries a :class:`PostageStamp` issued from a
  batch; storers only keep stamped chunks;
* batches pay **rent**: each accounting round drains
  ``rent_per_chunk_round`` per issued stamp from the batch balance;
  an empty batch *expires* and its stamps no longer validate.

The drained rent accumulates in a pot that the redistribution game
(:mod:`repro.swarm.redistribution`) pays back out to storage
providers — closing the storage-incentive loop.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .._validation import require_int, require_positive
from ..errors import ConfigurationError, ReproError

__all__ = ["PostageError", "PostageStamp", "PostageBatch", "PostageOffice"]


class PostageError(ReproError):
    """A stamping operation violated batch rules."""


@dataclass(frozen=True)
class PostageStamp:
    """Proof that storage for one chunk was prepaid from a batch."""

    batch_id: int
    chunk_address: int
    index: int

    def __post_init__(self) -> None:
        if self.index < 0:
            raise PostageError(f"stamp index must be >= 0, got {self.index}")


class PostageBatch:
    """A prepaid storage allowance.

    Parameters
    ----------
    batch_id:
        Unique identifier (assigned by the :class:`PostageOffice`).
    owner:
        Overlay address of the purchaser.
    value:
        Prepaid balance in accounting units.
    depth:
        Capacity exponent: the batch can stamp at most ``2**depth``
        chunks (Swarm's bucket-depth capacity rule, simplified to a
        global count).
    """

    def __init__(self, batch_id: int, owner: int, value: float,
                 depth: int) -> None:
        require_positive(value, "value")
        require_int(depth, "depth")
        if not 0 <= depth <= 40:
            raise ConfigurationError(
                f"depth must be in [0, 40], got {depth}"
            )
        self.batch_id = batch_id
        self.owner = owner
        self.balance = value
        self.depth = depth
        self._issued: dict[int, int] = {}  # chunk address -> stamp index
        self._counter = itertools.count()

    @property
    def capacity(self) -> int:
        """Maximum number of stamps this batch can ever issue."""
        return 1 << self.depth

    @property
    def issued(self) -> int:
        """Stamps issued so far."""
        return len(self._issued)

    @property
    def expired(self) -> bool:
        """Whether the balance has been fully consumed by rent."""
        return self.balance <= 0

    def stamp(self, chunk_address: int) -> PostageStamp:
        """Issue a stamp for *chunk_address*.

        Re-stamping the same address returns a stamp with the original
        index (idempotent, like re-uploading the same content).
        """
        if self.expired:
            raise PostageError(
                f"batch {self.batch_id} has expired (balance 0)"
            )
        existing = self._issued.get(chunk_address)
        if existing is not None:
            return PostageStamp(self.batch_id, chunk_address, existing)
        if self.issued >= self.capacity:
            raise PostageError(
                f"batch {self.batch_id} is full "
                f"({self.capacity} stamps at depth {self.depth})"
            )
        index = next(self._counter)
        self._issued[chunk_address] = index
        return PostageStamp(self.batch_id, chunk_address, index)

    def covers(self, stamp: PostageStamp) -> bool:
        """Whether *stamp* was genuinely issued by this batch."""
        return (
            stamp.batch_id == self.batch_id
            and self._issued.get(stamp.chunk_address) == stamp.index
        )

    def charge_rent(self, rent_per_chunk: float) -> float:
        """Drain one round of rent; returns the amount collected.

        Rent is proportional to issued stamps and capped by the
        remaining balance (the final round collects the remainder and
        expires the batch).
        """
        if rent_per_chunk < 0:
            raise ConfigurationError(
                f"rent_per_chunk must be >= 0, got {rent_per_chunk}"
            )
        due = rent_per_chunk * self.issued
        collected = min(due, self.balance)
        self.balance -= collected
        return collected


@dataclass
class PostageOffice:
    """Registry of batches plus the rent pot.

    The office sells batches, validates stamps, and runs the periodic
    rent collection whose proceeds fund the redistribution game.
    """

    rent_per_chunk_round: float = 0.001
    pot: float = 0.0
    rounds_collected: int = 0
    _batches: dict[int, PostageBatch] = field(default_factory=dict)
    _next_id: itertools.count = field(default_factory=itertools.count)

    def __post_init__(self) -> None:
        if self.rent_per_chunk_round < 0:
            raise ConfigurationError(
                "rent_per_chunk_round must be >= 0, got "
                f"{self.rent_per_chunk_round}"
            )

    def buy_batch(self, owner: int, value: float,
                  depth: int) -> PostageBatch:
        """Sell a new batch to *owner*."""
        batch = PostageBatch(next(self._next_id), owner, value, depth)
        self._batches[batch.batch_id] = batch
        return batch

    def batch(self, batch_id: int) -> PostageBatch:
        """Look up a batch; raises :class:`PostageError` if unknown."""
        try:
            return self._batches[batch_id]
        except KeyError:
            raise PostageError(f"unknown batch {batch_id}") from None

    def batches(self) -> list[PostageBatch]:
        """All batches ever sold."""
        return list(self._batches.values())

    def validate(self, stamp: PostageStamp) -> bool:
        """Whether *stamp* is genuine and its batch is still funded."""
        batch = self._batches.get(stamp.batch_id)
        if batch is None:
            return False
        return batch.covers(stamp) and not batch.expired

    def collect_rent(self) -> float:
        """Run one rent round over every live batch; returns the take."""
        collected = sum(
            batch.charge_rent(self.rent_per_chunk_round)
            for batch in self._batches.values()
            if not batch.expired
        )
        self.pot += collected
        self.rounds_collected += 1
        return collected

    def pay_out(self, amount: float) -> float:
        """Withdraw up to *amount* from the pot (redistribution game)."""
        if amount < 0:
            raise ConfigurationError(f"amount must be >= 0, got {amount}")
        paid = min(amount, self.pot)
        self.pot -= paid
        return paid
