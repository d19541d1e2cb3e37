"""The router: plans the journeys of an instruction's operand qubits.

Given the current placement of qubits, the current channel congestion and a
routing policy, :class:`Router` produces an :class:`InstructionRoute` — the
chosen meeting trap plus a timed :class:`~repro.routing.path.RoutePlan` for
every operand that has to move — or ``None`` when the instruction cannot be
routed right now (the scheduler then parks it in the busy queue, which is
where the paper's ``T_congestion`` comes from).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from operator import itemgetter
from typing import Iterable, NamedTuple

from repro.circuits.circuit import Instruction
from repro.errors import RoutingError
from repro.fabric.components import ChannelId, Trap, TrapId
from repro.fabric.fabric import Fabric
from repro.routing.compiled import CompiledRoutingGraph, RoutingCoreStats
from repro.routing.congestion import CongestionTracker
from repro.routing.graph_model import Node, RoutingGraph
from repro.routing.path import RoutePlan, expand_route, stationary_plan
from repro.routing.trap_selection import nearest_free_traps, select_target_trap
from repro.technology import PAPER_TECHNOLOGY, TechnologyParams


class MeetingPoint(Enum):
    """How the trap hosting a two-qubit gate is chosen.

    * ``MEDIAN`` — QSPR: the free trap nearest the median of the two operand
      positions; both operands move toward it simultaneously.
    * ``DESTINATION`` — QPOS: the destination (target) operand stays in its
      trap and only the source operand travels.
    * ``CENTER`` — gates execute in the free trap nearest the center of the
      fabric; both operands travel there.

    ``MEDIAN`` and ``CENTER`` fall back to an operand's own trap when their
    candidates fail, so they map on capacity-1 channels too.
    """

    MEDIAN = "median"
    DESTINATION = "destination"
    CENTER = "center"


@dataclass(frozen=True)
class RoutingPolicy:
    """Feature switches distinguishing QSPR from the prior-art routers.

    Attributes:
        turn_aware: Use the split-node graph and charge ``T_turn`` during path
            selection (QSPR).  When false, path selection ignores turns, as in
            QUALE/QPOS (turns are still charged in the realised delay).
        meeting_point: How the gate trap of a two-qubit instruction is chosen
            (see :class:`MeetingPoint`).
        channel_capacity: Maximum concurrent qubits per channel (2 for QSPR's
            multiplexed channels, 1 for the prior tools).
        trap_candidates: How many candidate meeting traps the router tries
            before declaring the instruction unroutable.
    """

    turn_aware: bool = True
    meeting_point: MeetingPoint = MeetingPoint.MEDIAN
    channel_capacity: int = 2
    trap_candidates: int = 4

    def __post_init__(self) -> None:
        if self.channel_capacity < 1:
            raise RoutingError("channel_capacity must be at least 1")
        if self.trap_candidates < 1:
            raise RoutingError("trap_candidates must be at least 1")


#: The configuration the paper uses for QSPR.
QSPR_POLICY = RoutingPolicy()


class InstructionRoute(NamedTuple):
    """The routing decision for one instruction.

    Attributes:
        instruction_index: Index of the routed instruction.
        target_trap: Trap where the gate will be executed.
        plans: One plan per operand qubit (stationary operands included),
            so one or two; the totals below read exactly those.
        channels: Every channel the simulator must reserve at issue time.
            For parallel routes this carries multiplicity (one entry per plan
            using the channel); for serial routes it is de-duplicated, since
            the operands traverse shared channels one after the other.
        serial: Whether the operands travel one after the other (used on
            capacity-1 fabrics, where they can never share a channel).
    """

    instruction_index: int
    target_trap: TrapId
    plans: tuple[RoutePlan, ...]
    channels: tuple[ChannelId, ...] = ()
    serial: bool = False

    @property
    def routing_delay(self) -> float:
        """Realised ``T_routing``.

        The travel time of the slowest operand when both move concurrently,
        or the sum of travel times when the movement is serialised.
        """
        plans = self.plans
        if len(plans) == 1:
            return plans[0].duration
        first, second = plans[0].duration, plans[1].duration
        if self.serial:
            return first + second
        return second if second > first else first

    def plan_start_offsets(self) -> tuple[float, ...]:
        """Start time of each plan relative to the instruction's issue time."""
        if len(self.plans) == 1:
            return (0.0,)
        if self.serial:
            return (0.0, 0.0 + self.plans[0].duration)
        return (0.0, 0.0)

    @property
    def total_moves(self) -> int:
        """Total moves over all operands."""
        plans = self.plans
        if len(plans) == 1:
            return plans[0].total_moves
        return plans[0].total_moves + plans[1].total_moves

    @property
    def total_turns(self) -> int:
        """Total turns over all operands."""
        plans = self.plans
        if len(plans) == 1:
            return plans[0].total_turns
        return plans[0].total_turns + plans[1].total_turns


_INF = float("inf")

#: Snapshot entries kept per trap pair in the route table.  Congestion
#: oscillates as instructions issue and complete, so a pair's queries cycle
#: through a small set of recurring occupancy states; keeping the last few
#: snapshots (MRU order) lets a state the fabric *returns to* hit again
#: instead of recomputing.  4 covers the observed working set, also when
#: every pass of an MVFB search shares the table; beyond it the validation
#: scans cost more than the extra hits.  Entries behind the head serve
#: 26,304 of the 85,999 hits of the paper's six MVFB m=25 jobs (seed-1
#: benchmark list), which a one-entry table would turn into searches.
MAX_SNAPSHOTS_PER_PAIR = 4


class _CacheEntry:
    """One route-table record: a plan plus its validity evidence.

    ``getter`` is an :func:`operator.itemgetter` over the sorted channel
    slots the search read, and ``values`` is what it returned on the
    tracker's :attr:`~repro.routing.congestion.CongestionTracker.levels`
    then.  The search is a pure function of those occupancies, so the entry
    is valid exactly when ``getter(levels) == values`` (one C call, one
    tuple compare), *regardless* of what happened in between.  This is what
    keeps the cache hot across the balanced congestion churn of a busy
    fabric.  A failed search is stored like any other, with ``plan`` set to
    ``None``.
    """

    __slots__ = ("plan", "getter", "values")

    def __init__(self, plan: RoutePlan | None, getter: itemgetter, values: tuple) -> None:
        self.plan = plan
        self.getter = getter
        self.values = values


#: Wake-set key standing for "any congestion change whatsoever".  Recorded as
#: the one blocker of a two-qubit plan that fails after trap selection: which
#: meeting traps are free, and which routes reach them, can change with any
#: issue or any release.  The simulator wakes this key on every channel
#: release and every issue, so a parked instruction is retried after every
#: state change that could make it routable.
ANY_CONGESTION_CHANGE = ("congestion", "any")


def channel_key(channel_id: ChannelId) -> tuple[str, ChannelId]:
    """Busy-queue wake-set key of a channel, woken when a release opens capacity in it."""
    return ("ch", channel_id)


class Router:
    """Plans operand journeys under a given routing policy.

    Path selection runs on the
    :class:`~repro.routing.compiled.CompiledRoutingGraph` kernel, which
    returns routes identical to the object-graph reference kernel of the
    test suite's oracle (``tests/reference_oracle.py``).  Planned qubit
    routes are memoised per ``(source trap, target trap)`` pair under one
    validity rule: a cached route is served iff every channel occupancy its
    search read still equals its snapshot.  The table keeps a short MRU list
    of snapshots per pair, because fabric congestion oscillates and a state
    the fabric returns to should hit again.

    There is one route table per ``(fabric, technology, policy)``, memoised
    on the fabric instance like its routing graphs, and every router on
    that triple reads and writes it: the forward and backward passes of an
    MVFB search, and every later job mapped on the same fabric object (a
    service worker's memoised fabrics).  The table takes no lock, because a
    fabric is confined to one thread anyway: its compiled graph owns scratch
    arrays.  The snapshot rule makes sharing sound, so routes, schedules and
    latencies never depend on what ran earlier on the fabric; the work
    counters in :attr:`stats` (hits, misses, kernel searches, heap pops) do.
    The congestion trackers passed in must have the policy's channel
    capacity, as the simulator's do: a snapshot records occupancies, not
    capacities.
    """

    def __init__(
        self,
        fabric: Fabric,
        technology: TechnologyParams = PAPER_TECHNOLOGY,
        policy: RoutingPolicy = QSPR_POLICY,
    ) -> None:
        self.fabric = fabric
        self.technology = technology
        self.policy = policy
        # Both graphs are built once per fabric and shared by every router on
        # it (an MVFB search constructs one per pass).
        self.graph = RoutingGraph.shared(fabric, turn_aware=policy.turn_aware)
        self.compiled = CompiledRoutingGraph.shared(self.graph)
        self._slots = fabric.channel_slots
        #: Selection cost of leaving or entering a trap (one move, one turn).
        self._access_cost = technology.move_delay + technology.turn_delay
        self.stats = RoutingCoreStats()
        #: The fabric's route table for this technology and policy: trap pair
        #: to an MRU-ordered list of :class:`_CacheEntry` records, one per
        #: distinct recent occupancy state.
        tables = fabric.__dict__.setdefault("_route_tables", {})
        self._route_cache: dict[tuple[TrapId, TrapId], list[_CacheEntry]] = (
            tables.setdefault((technology, policy), {})
        )

    # ------------------------------------------------------------------
    # Single-qubit route planning
    # ------------------------------------------------------------------
    def _attachment_costs(
        self, trap: Trap, congestion: CongestionTracker
    ) -> dict[Node, float]:
        """Virtual costs from/to ``trap`` at its channel's endpoint nodes.

        Leaving or entering the trap (one move, one turn) plus Eq. (2) over
        the channel cells between the trap and each endpoint, as
        :func:`~repro.routing.weights.partial_channel_weight` prices them:
        infinite when the channel is full.
        """
        occupancy = congestion.occupancy(trap.channel_id)
        attachments = self.graph.trap_attachments[trap.id]
        if occupancy >= congestion.channel_capacity:
            return {node: _INF for node, _ in attachments}
        access, move_delay = self._access_cost, self.technology.move_delay
        return {
            node: access + (occupancy + 1) * cells * move_delay
            for node, cells in attachments
        }

    def plan_qubit_route(
        self,
        qubit: str,
        source_trap_id: TrapId,
        target_trap_id: TrapId,
        congestion: CongestionTracker,
    ) -> RoutePlan | None:
        """Plan the journey of one qubit between two traps.

        Returns ``None`` when no finite-cost route exists under the current
        congestion (the caller decides whether to retry later).

        Journeys shorter than two hops — staying put, or moving within a
        single channel — bypass the cache entirely: planning them is cheaper
        than the cache bookkeeping, and their only input is one channel's
        fullness.  Every other query is answered by the first entry in the
        pair's MRU list whose snapshot matches, which then moves to the head.
        A miss runs the kernel, which bounds its search from the first pop
        with the congestion-free distances to the target channel's endpoints
        and stores the channels of the nodes it expanded as the entry's
        snapshot.  A hit for a different qubit rebinds the plan's qubit name,
        everything else being qubit-independent.
        """
        if source_trap_id == target_trap_id:
            return stationary_plan(qubit, source_trap_id)
        source = self.fabric.trap(source_trap_id)
        target = self.fabric.trap(target_trap_id)
        if source.channel_id == target.channel_id:
            if congestion.is_full(source.channel_id):
                return None
            return expand_route(
                self.fabric, self.technology, qubit, source, target, None, ()
            )
        key = (source_trap_id, target_trap_id)
        entries = self._route_cache.get(key)
        if entries:
            levels = congestion.levels
            for i, entry in enumerate(entries):
                if entry.getter(levels) == entry.values:
                    if i:
                        entries.insert(0, entries.pop(i))
                    return self._serve(entry, qubit)
        self.stats.cache_misses += 1
        reads: set = set()
        plan = self._search(qubit, source, target, congestion, reads)
        self._store(key, _CacheEntry(plan, *self._snapshot(reads, congestion)))
        return plan

    def _serve(self, entry: _CacheEntry, qubit: str) -> RoutePlan | None:
        """Count a cache hit and answer it from ``entry``."""
        self.stats.cache_hits += 1
        plan = entry.plan
        if plan is not None and plan.qubit != qubit:
            plan = RoutePlan(
                qubit, plan.source_trap, plan.target_trap, plan.steps,
                plan.duration, plan.total_moves, plan.total_turns, plan.channels_used,
            )
        return plan

    def _store(self, key: tuple[TrapId, TrapId], entry: _CacheEntry) -> None:
        """Push ``entry`` onto the pair's MRU snapshot list (bounded)."""
        entries = self._route_cache.get(key)
        if entries is None:
            self._route_cache[key] = [entry]
        else:
            entries.insert(0, entry)
            del entries[MAX_SNAPSHOTS_PER_PAIR:]

    @staticmethod
    def _snapshot(reads: set, congestion: CongestionTracker) -> tuple[itemgetter, tuple]:
        """Freeze a search's slot read set into a getter and its occupancies."""
        getter = itemgetter(*sorted(reads))
        return getter, getter(congestion.levels)

    def _search(
        self,
        qubit: str,
        source: Trap,
        target: Trap,
        congestion: CongestionTracker,
        reads: set,
    ) -> RoutePlan | None:
        """Run the kernel for a journey between two different channels.

        Returns the plan, or ``None`` when unroutable.  ``reads`` receives
        the slot of every channel whose occupancy shaped the outcome.
        """
        # The endpoint channels shape the attachment costs and the trivial
        # failure check below, so every outcome reads them.
        reads.add(self._slots[source.channel_id])
        reads.add(self._slots[target.channel_id])
        if congestion.is_full(source.channel_id) or congestion.is_full(target.channel_id):
            return None
        result = self.compiled.shortest_route(
            self._attachment_costs(source, congestion),
            self._attachment_costs(target, congestion),
            congestion,
            self.technology,
            turn_aware_costing=self.policy.turn_aware,
            stats=self.stats,
            read_out=reads,
        )
        if result is None:
            return None
        return expand_route(
            self.fabric,
            self.technology,
            qubit,
            source,
            target,
            result.entry_node[0],
            result.edges,
        )

    # ------------------------------------------------------------------
    # Instruction-level planning
    # ------------------------------------------------------------------
    def plan_instruction(
        self,
        instruction: Instruction,
        positions: dict[str, TrapId],
        congestion: CongestionTracker,
        *,
        occupied_traps: Iterable[TrapId] = (),
        blockers: set | None = None,
    ) -> InstructionRoute | None:
        """Plan the meeting trap and operand journeys of ``instruction``.

        Args:
            instruction: The instruction to route.  Single-qubit instructions
                execute in place and always succeed.
            positions: Current resting trap of every qubit.
            congestion: Current channel occupancy.
            occupied_traps: Traps that cannot be chosen as the meeting trap
                (resting qubits of other instructions, or traps reserved by
                in-flight instructions).  A set is read as it is, never
                copied.
            blockers: Optional output set.  When planning fails it receives
                the wake-set keys of the state changes that could flip the
                failure.  When the operands rest in different traps and an
                operand's own channel is full, planning fails before any
                meeting trap is tried, and the set holds exactly
                :func:`channel_key` of each full operand channel (see
                :meth:`_full_operand_channels`).  A failure after trap
                selection records :data:`ANY_CONGESTION_CHANGE` alone, which
                the simulator wakes on every issue and every release.  Until
                one of those keys is woken the instruction is provably
                unroutable, so the simulator's busy queue can skip its
                retries.

        Returns:
            The routing decision, or ``None`` when the instruction cannot be
            routed under the current congestion state.
        """
        operand_names = [qubit.name for qubit in instruction.qubits]
        for name in operand_names:
            if name not in positions:
                raise RoutingError(f"qubit {name!r} has no placement")

        if not instruction.is_two_qubit:
            trap_id = positions[operand_names[0]]
            plan = stationary_plan(operand_names[0], trap_id)
            return InstructionRoute(instruction.index, trap_id, (plan,))

        source_name, dest_name = operand_names
        source_trap = positions[source_name]
        dest_trap = positions[dest_name]
        full = self._full_operand_channels(source_trap, dest_trap, congestion)
        if full:
            if blockers is not None:
                blockers.update(channel_key(channel_id) for channel_id in full)
            return None
        occupied = occupied_traps if isinstance(occupied_traps, set) else set(occupied_traps)

        if self.policy.meeting_point is MeetingPoint.DESTINATION:
            # The destination qubit stays put (QPOS/QUALE behaviour) unless its
            # trap already hosts a qubit that is not part of this instruction,
            # in which case meeting there would exceed the trap capacity; the
            # gate then happens in the nearest free trap to the destination.
            if dest_trap not in occupied:
                candidates = [self.fabric.trap(dest_trap)]
            else:
                candidates = nearest_free_traps(
                    self.fabric,
                    self.fabric.trap(dest_trap).cell,
                    occupied,
                    max(2, self.policy.trap_candidates),
                )
        elif self.policy.meeting_point is MeetingPoint.CENTER:
            candidates = nearest_free_traps(
                self.fabric, self.fabric.center, occupied, self.policy.trap_candidates
            )
        else:
            candidates = select_target_trap(
                self.fabric,
                [source_trap, dest_trap],
                occupied=occupied,
                max_candidates=self.policy.trap_candidates,
            )

        if self.policy.meeting_point is not MeetingPoint.DESTINATION:
            # Fallback candidates: meet at an operand's own trap, so only the
            # other operand travels.  This keeps dual-operand policies live on
            # capacity-1 fabrics, where two qubits can never share the meeting
            # trap's channel simultaneously.
            seen = {candidate.id for candidate in candidates}
            for trap_id in (dest_trap, source_trap):
                if trap_id not in occupied and trap_id not in seen:
                    candidates.append(self.fabric.trap(trap_id))
                    seen.add(trap_id)

        for index, candidate in enumerate(candidates):
            if index == 1 and len(candidates) > 2:
                # The first candidate failed, so the loop is committed to
                # probing the rest: batch-prefetch their missing legs in one
                # shared-frontier pass instead of flooding once per probe.
                # Loops that succeed at the first candidate — the common
                # case — never pay for a prefetch.
                self._prefill_candidate_routes(
                    source_name,
                    source_trap,
                    dest_name,
                    dest_trap,
                    candidates[1:],
                    congestion,
                )
            route = self._plan_to_candidate(
                instruction, source_name, source_trap, dest_name, dest_trap,
                candidate, congestion,
            )
            if route is not None:
                return route
        if blockers is not None:
            # Every input of this failure, the free traps and the channel
            # occupancies, changes only at an issue or a release, and the
            # simulator wakes the sentinel on both.
            blockers.add(ANY_CONGESTION_CHANGE)
        return None

    def _full_operand_channels(
        self, source_trap: TrapId, dest_trap: TrapId, congestion: CongestionTracker
    ) -> list[ChannelId]:
        """The full channels of two operands that rest in different traps.

        Any such channel fails every meeting trap.  Meeting away from an
        operand's trap moves that operand out of its channel, meeting in it
        moves the other operand into that channel, and no leg leaves or
        enters a full channel.  A parked instruction's operands stay put,
        so the failure stands until a capacity-opening release of one of
        these channels, which wakes its :func:`channel_key`.
        """
        if source_trap == dest_trap:
            return []
        trap = self.fabric.trap
        channels = dict.fromkeys((trap(source_trap).channel_id, trap(dest_trap).channel_id))
        return [channel_id for channel_id in channels if congestion.is_full(channel_id)]

    def _prefill_candidate_routes(
        self,
        source_name: str,
        source_trap: TrapId,
        dest_name: str,
        dest_trap: TrapId,
        candidates: list[Trap],
        congestion: CongestionTracker,
    ) -> None:
        """Prefetch the candidate legs' missing routes in one batched pass.

        The candidate loop below issues one source-leg query per candidate
        (plus one destination leg each on serial fabrics) against the *same*
        congestion state.  Instead of flooding the fabric once per query,
        this answers, in one
        :meth:`~repro.routing.compiled.CompiledRoutingGraph.shortest_routes_batch`
        pass, every leg whose pair the route table has never seen, and seeds
        the table, so the loop's lookups all hit.

        Prefetches are not charged as cache misses (they are not demand
        lookups); the batch pass itself counts one ``dijkstra_call``.
        Batching requires strictly positive edge weights for byte-identical
        per-group answers, so it is skipped for turn-blind policies (their
        zero-cost turn edges break the argument).  Failure groups are left
        uncached, so the loop's demand query searches and stores a failing
        leg exactly as it would without the prefill: the batch only adds
        routes.
        """
        technology = self.technology
        if not (
            self.policy.turn_aware
            and technology.turn_delay > 0
            and technology.move_delay > 0
        ):
            return
        serial = self.policy.channel_capacity < 2
        legs = [(source_name, source_trap)]
        if serial:
            legs.append((dest_name, dest_trap))
        for qubit, origin_id in legs:
            origin = self.fabric.trap(origin_id)
            jobs: list[tuple[tuple[TrapId, TrapId], Trap]] = []
            seen: set[TrapId] = set()
            for candidate in candidates:
                cand_id = candidate.id
                if cand_id == origin_id or cand_id in seen:
                    continue
                seen.add(cand_id)
                if candidate.channel_id == origin.channel_id:
                    continue
                if congestion.is_full(candidate.channel_id):
                    continue
                key = (origin_id, cand_id)
                if self._route_cache.get(key):
                    # Any entry at all keeps the pair out of the batch: a
                    # valid one will hit, and a stale one's dedicated query
                    # is bounded from its first pop.  Prefetch only
                    # never-seen pairs.
                    continue
                jobs.append((key, candidate))
            if len(jobs) < 2:
                continue
            sources = self._attachment_costs(origin, congestion)
            groups = [
                self._attachment_costs(candidate, congestion) for _, candidate in jobs
            ]
            reads: set = set()
            results = self.compiled.shortest_routes_batch(
                sources,
                groups,
                congestion,
                technology,
                turn_aware_costing=True,
                stats=self.stats,
                read_out=reads,
            )
            reads.add(self._slots[origin.channel_id])
            reads.update(self._slots[candidate.channel_id] for _, candidate in jobs)
            # The union read set over all groups: a superset of each group's
            # own reads, so per-entry validation stays sound (merely a little
            # stricter than a dedicated query's would be).
            snapshot = self._snapshot(reads, congestion)
            for (key, candidate), result in zip(jobs, results):
                if result is None:
                    continue
                plan = expand_route(
                    self.fabric,
                    technology,
                    qubit,
                    origin,
                    candidate,
                    result.entry_node[0],
                    result.edges,
                )
                self._store(key, _CacheEntry(plan, *snapshot))

    def _plan_to_candidate(
        self,
        instruction: Instruction,
        source_name: str,
        source_trap: TrapId,
        dest_name: str,
        dest_trap: TrapId,
        candidate: Trap,
        congestion: CongestionTracker,
    ) -> InstructionRoute | None:
        """Try to route both operands to one candidate meeting trap."""
        source_plan = self.plan_qubit_route(
            source_name, source_trap, candidate.id, congestion
        )
        if source_plan is None:
            return None

        serial = self.policy.channel_capacity < 2
        if serial:
            # On a capacity-1 fabric the two operands can never share a
            # channel concurrently, so they travel one after the other; their
            # path selections therefore see the same congestion state and
            # shared channels are reserved once.
            dest_plan = self.plan_qubit_route(
                dest_name, dest_trap, candidate.id, congestion
            )
            if dest_plan is None:
                return None
            plans = (source_plan, dest_plan)
            channels = tuple(
                dict.fromkeys(
                    channel_id for plan in plans for channel_id in plan.channels_used
                )
            )
            return InstructionRoute(
                instruction.index, candidate.id, plans, channels, serial=True
            )

        # Parallel movement: temporarily account for the source qubit's
        # reservations so the destination qubit's path selection sees the
        # extra congestion and the pair never exceeds channel capacity.  The
        # reserve/release pair is balanced, so every occupancy is back to its
        # pre-scope value afterwards, and with it the validity of every
        # cached route.  The destination leg goes through the same cache:
        # an entry whose snapshot matches the overlay state replays exactly
        # what a fresh search here would return.
        reserved: list[ChannelId] = []
        try:
            for channel_id in source_plan.channels_used:
                if congestion.is_full(channel_id):
                    return None
                congestion.reserve(channel_id)
                reserved.append(channel_id)
            dest_plan = self.plan_qubit_route(
                dest_name, dest_trap, candidate.id, congestion
            )
        finally:
            for channel_id in reversed(reserved):
                congestion.release(channel_id)
        if dest_plan is None:
            return None
        return InstructionRoute(
            instruction.index,
            candidate.id,
            (source_plan, dest_plan),
            source_plan.channels_used + dest_plan.channels_used,
        )
