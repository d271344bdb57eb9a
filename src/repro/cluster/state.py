"""Epoch-numbered live cluster membership (docs/ELASTIC.md).

:class:`ClusterState` is the elastic coordinator's authoritative
member table, generalizing the fixed ``WorkerHandle`` list: every
join and leave bumps a monotone **epoch** and records who is present,
in which role, with how much capacity.  Mutations happen only on the
coordinator's control path (under its lock); everyone else —
operators, tests, the soak — reads immutable
:class:`ClusterSnapshot` views, so there is never a torn read of a
half-applied membership change.

Server ids are never reused: a member that leaves keeps its id (and
its :class:`~repro.planner.plan.ServerSpec` slot, holding zero
assignments) forever, which keeps every historical plan's indices
valid and makes stale failure reports for departed members trivially
ignorable.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace

from ..errors import ClusterMembershipError


@dataclass(frozen=True)
class Member:
    """One fleet member's identity, capacity, and membership span."""

    server_id: int
    role: str
    address: tuple
    cores: int
    joined_epoch: int
    left_epoch: int | None = None

    @property
    def present(self) -> bool:
        """Whether the member is still part of the fleet (health is
        the coordinator handle's business; presence is membership)."""
        return self.left_epoch is None

    def describe(self) -> str:
        span = (f"joined @e{self.joined_epoch}" if self.present
                else f"e{self.joined_epoch}..e{self.left_epoch}")
        return (f"member {self.server_id} ({self.role}, "
                f"{self.cores} cores) @ "
                f"{self.address[0]}:{self.address[1]} [{span}]")


@dataclass(frozen=True)
class ClusterSnapshot:
    """An immutable view of the member table at one epoch."""

    epoch: int
    members: tuple[Member, ...]

    def present(self) -> tuple[Member, ...]:
        return tuple(m for m in self.members if m.present)

    def member(self, server_id: int) -> Member:
        for m in self.members:
            if m.server_id == server_id:
                return m
        raise ClusterMembershipError(
            f"no member with server id {server_id}"
        )


class ClusterState:
    """The mutable epoch-numbered membership table.

    Thread-safe, but by design only the coordinator's control path
    calls the ``apply_*`` mutators; every membership event returns the
    new epoch so callers (and announce envelopes) can report it.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._epoch = 0
        self._members: dict[int, Member] = {}

    @property
    def epoch(self) -> int:
        return self._epoch

    def apply_join(self, server_id: int, role: str, address: tuple,
                   cores: int) -> int:
        """Record a member joining; returns the new epoch."""
        with self._lock:
            existing = self._members.get(server_id)
            if existing is not None and existing.present:
                raise ClusterMembershipError(
                    f"server id {server_id} is already a present "
                    f"member ({existing.describe()})"
                )
            self._epoch += 1
            self._members[server_id] = Member(
                server_id=server_id, role=role,
                address=tuple(address), cores=int(cores),
                joined_epoch=self._epoch,
            )
            return self._epoch

    def apply_leave(self, server_id: int) -> int:
        """Record a member leaving; returns the new epoch."""
        with self._lock:
            member = self._members.get(server_id)
            if member is None or not member.present:
                raise ClusterMembershipError(
                    f"server id {server_id} is not a present member"
                )
            self._epoch += 1
            self._members[server_id] = replace(
                member, left_epoch=self._epoch
            )
            return self._epoch

    def has_left(self, server_id: int) -> bool:
        """Whether a member departed (unknown ids have not left —
        the planner's fixed seed fleet predates the table)."""
        with self._lock:
            member = self._members.get(server_id)
            return member is not None and not member.present

    def snapshot(self) -> ClusterSnapshot:
        with self._lock:
            members = tuple(
                self._members[sid] for sid in sorted(self._members)
            )
            return ClusterSnapshot(self._epoch, members)
