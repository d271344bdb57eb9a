"""Elastic worker fleet: membership, live state, explicit re-planning.

Layers two pieces over the fixed-fleet TCP runtime
(docs/ELASTIC.md):

* :class:`~repro.cluster.state.ClusterState` — the epoch-numbered
  member table (identity, role, capacity, membership span), mutated
  only on the coordinator's control path, read as immutable
  snapshots.
* :class:`~repro.cluster.membership.MembershipListener` +
  :class:`~repro.cluster.elastic.ElasticCoordinator` — the
  ``join``/``leave``/``announce`` wire protocol and the coordinator
  that admits, drains, and re-plans a running fleet with zero dead
  letters and bit-identical results.
"""

from .elastic import ElasticCoordinator
from .membership import MembershipListener
from .state import ClusterSnapshot, ClusterState, Member

__all__ = [
    "ClusterSnapshot",
    "ClusterState",
    "ElasticCoordinator",
    "Member",
    "MembershipListener",
]
