"""Cross-run route store, validated by occupancy snapshots.

Each :class:`~repro.routing.router.Router` keeps a private route cache, and
a service worker that maps hundreds of jobs on the same memoised fabric
would otherwise recompute the same routes over and over.  This module adds
the sharing layer that is sound across runs: each entry carries an
**occupancy snapshot** of the channels its search *read* (the channels of
non-turn edges out of settled nodes, plus the endpoint-trap channels; see
:meth:`~repro.routing.compiled.CompiledRoutingGraph.shortest_route`).  A
search is a pure function of those occupancies given the fabric geometry,
the technology's delay parameters and the routing policy, so the entry may
be served to *any* tracker of the same scenario whose current occupancies
all equal the snapshot — the same validity rule as the private cache.  It is
default-on in service workers.

:class:`SharedRouteStore` memoises on the fabric instance, keyed by
``(technology, policy)`` — both frozen dataclasses — so every router on the
same fabric/technology/policy triple shares one table for the lifetime of
the fabric.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from threading import Lock
from typing import TYPE_CHECKING

from repro.fabric.components import TrapId
from repro.fabric.fabric import Fabric
from repro.routing.dijkstra import DijkstraResult
from repro.routing.path import RoutePlan
from repro.technology import TechnologyParams

if TYPE_CHECKING:
    from repro.routing.router import RoutingPolicy


@dataclass(frozen=True)
class SharedRouteEntry:
    """One snapshot-validated entry of the cross-run store.

    Attributes:
        plan: The route plan (``None`` marks an unroutable pair; consumers
            rebind the qubit name on retrieval).
        reads: Sorted ``(channel id, occupancy)`` pairs over every channel
            the search *read*.  The entry is valid for a tracker iff each
            channel's current occupancy equals its snapshot value — the
            search is a pure function of those occupancies, so replaying it
            would return a byte-identical answer.
        result: The kernel's raw search result backing ``plan`` (``None``
            for failures).  Served alongside the
            plan so the borrowing router can warm-start a later
            re-computation when the entry goes stale locally.
    """

    plan: RoutePlan | None
    reads: tuple = ()
    result: DijkstraResult | None = None


@dataclass
class SharedRouteStore:
    """Route plans shared by every run on one fabric.

    Attributes:
        entries: ``(source trap, target trap)`` to an MRU-ordered list of
            :class:`SharedRouteEntry` (one per distinct stored occupancy
            state), each validated by snapshot match.
        hits: Number of plans served from the store.
        stores: Number of plans written into the store.
    """

    entries: "dict[tuple[TrapId, TrapId], list[SharedRouteEntry]]" = field(
        default_factory=dict
    )
    hits: int = 0
    stores: int = 0
    #: Guards concurrent access from a thread-mode worker pool.  Plan
    #: computation stays outside the lock; a racing double-compute writes
    #: the identical plan twice, which is harmless.
    lock: Lock = field(default_factory=Lock, repr=False)

    @classmethod
    def shared(
        cls,
        fabric: Fabric,
        *,
        technology: TechnologyParams,
        policy: RoutingPolicy,
    ) -> "SharedRouteStore":
        """The fabric's store for ``(technology, policy)``, created on demand.

        Memoised on the fabric instance itself (like the fabric's routing
        graphs), so a worker's per-geometry fabric memo automatically scopes
        the store's lifetime.
        """
        stores = fabric.__dict__.setdefault("_shared_route_stores", {})
        key = (technology, policy)
        store = stores.get(key)
        if store is None:
            store = stores[key] = cls()
        return store
