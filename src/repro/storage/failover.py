"""The one failover policy: a walk down a request's replica ranking.

Replica choice is the Eq. 6-7 cost ranking; what to do when the chosen
replica cannot serve is the same everywhere — try the next-cheapest,
remember who failed and why, give up with a structured
:class:`~repro.errors.DegradedReadError` when nobody is left.
:class:`RankingWalk` is that policy as a small state object.  The engine
drives one walk per request synchronously
(:meth:`repro.storage.BlotStore.execute_each`); the serving front door
drives the same object across shard round-trips
(``ShardServer._flush_batch``); a shard worker, which must never switch
replicas on its own, is simply a walk over a ranking of length one.
"""

from __future__ import annotations

from typing import Iterable

from repro.errors import DegradedReadError


class RankingWalk:
    """One request's position in its replica ranking (cheapest first).

    ``attempts`` is the trail of ``(replica_name, error)`` pairs, in the
    order replicas were tried — the payload of the
    :class:`~repro.errors.DegradedReadError` raised on exhaustion.  Names
    in a ranking are unique, so the position doubles as the tried set.
    """

    __slots__ = ("ranking", "pos", "attempts")

    def __init__(self, ranking: Iterable[str]):
        self.ranking = tuple(ranking)
        if not self.ranking:
            raise ValueError("a ranking needs at least one replica")
        self.pos = 0
        self.attempts: list[tuple[str, Exception]] = []

    @property
    def current(self) -> str | None:
        """The replica to try now; None once the ranking is exhausted."""
        return self.ranking[self.pos] if self.pos < len(self.ranking) else None

    @property
    def hops(self) -> int:
        """Failovers taken so far: moves onto a *next* replica.  Running
        off the end of the ranking is exhaustion, not a hop."""
        return min(self.pos, len(self.ranking) - 1)

    def fail(self, cause: Exception) -> str | None:
        """Record that :attr:`current` failed with ``cause`` and step
        down the ranking; returns the next replica to try, or None when
        the ranking is exhausted."""
        self.attempts.append((self.ranking[self.pos], cause))
        self.pos += 1
        return self.current

    def degraded(self, message: str) -> DegradedReadError:
        """The structured error for a walk nobody could serve."""
        return DegradedReadError(message, tuple(self.attempts))
