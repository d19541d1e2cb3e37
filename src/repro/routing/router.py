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
from repro.routing.compiled import CompiledRoutingGraph, Node, RoutingCoreStats
from repro.routing.congestion import CongestionTracker
from repro.routing.path import RoutePlan, expand_route, stationary_plan
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
        trap_candidates: How many candidate meeting traps the router tries
            before declaring the instruction unroutable.

    The channel capacity is no routing feature but a physical parameter: the
    router reads it from the congestion tracker, which the simulator builds
    from the technology's ``channel_capacity``.
    """

    turn_aware: bool = True
    meeting_point: MeetingPoint = MeetingPoint.MEDIAN
    trap_candidates: int = 4

    def __post_init__(self) -> None:
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
    on the fabric instance like its routing graph, and every router on
    that triple reads and writes it: the forward and backward passes of an
    MVFB search, and every later job mapped on the same fabric object (a
    service worker's memoised fabrics).  The table takes no lock, because a
    fabric is confined to one thread anyway: its compiled graph owns scratch
    arrays.  The snapshot rule makes sharing sound, so routes, schedules and
    latencies never depend on what ran earlier on the fabric; the work
    counters in :attr:`stats` (hits, misses, kernel searches, heap pops) do.
    The congestion trackers passed in must have the technology's channel
    capacity, as the simulator's do: a snapshot records occupancies, not
    capacities, and the table is keyed by the technology, which carries the
    capacity.
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
        # Built once per fabric and shared by every router on it (an MVFB
        # search constructs one per pass).
        self.compiled = CompiledRoutingGraph.shared(fabric, turn_aware=policy.turn_aware)
        self._slots = fabric.channel_slots
        self._traps = fabric.traps
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
        attachments = self.compiled.trap_attachments[trap.id]
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
                self.fabric, self.compiled, self.technology, qubit, source, target, None, ()
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
        getter = itemgetter(*sorted(reads))
        entry = _CacheEntry(plan, getter, getter(congestion.levels))
        if entries is None:
            self._route_cache[key] = [entry]
        else:
            entries.insert(0, entry)
            del entries[MAX_SNAPSHOTS_PER_PAIR:]
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
            stats=self.stats,
            read_out=reads,
        )
        if result is None:
            return None
        return expand_route(
            self.fabric,
            self.compiled,
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

        Meeting traps are tried one at a time, the next one ranked only when
        the previous one fails: the free traps nearest the rule's point
        (the operands' midpoint for ``MEDIAN``, the fabric center for
        ``CENTER``), by L1 distance and then trap id, up to
        ``trap_candidates`` of them, then the destination and the source
        operand's own trap if free and not tried yet.  ``DESTINATION``
        tries the destination operand's trap alone when it is free, and
        otherwise the ``max(2, trap_candidates)`` free traps nearest it.

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
        operand_names = instruction.qubit_names
        for name in operand_names:
            if name not in positions:
                raise RoutingError(f"qubit {name!r} has no placement")

        if len(operand_names) == 1:
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

        traps = self._traps
        count = self.policy.trap_candidates
        # Fallback candidates: meet at an operand's own trap, so only the
        # other operand travels.  This keeps dual-operand policies live on
        # capacity-1 fabrics, where two qubits can never share the meeting
        # trap's channel simultaneously.
        fallbacks: tuple[TrapId, ...] = (dest_trap, source_trap)
        meeting_point = self.policy.meeting_point
        if meeting_point is MeetingPoint.MEDIAN:
            # The coordinate-wise median of two cells is their midpoint.
            source_row, source_col = traps[source_trap].cell
            dest_row, dest_col = traps[dest_trap].cell
            ranked = self.fabric.ranked_traps(
                ((source_row + dest_row) / 2.0, (source_col + dest_col) / 2.0)
            )
        elif meeting_point is MeetingPoint.CENTER:
            ranked = self.fabric.ranked_traps(self.fabric.center)
        else:
            # The destination qubit stays put (QPOS/QUALE behaviour) unless its
            # trap already hosts a qubit that is not part of this instruction,
            # in which case meeting there would exceed the trap capacity; the
            # gate then happens in the nearest free trap to the destination.
            # A free destination trap is the one candidate, so it takes the
            # fallback slot, and this rule has no operand-trap fallbacks.
            fallbacks = ()
            if dest_trap not in occupied:
                ranked = ()
                fallbacks = (dest_trap,)
            else:
                ranked = self.fabric.ranked_traps(traps[dest_trap].cell)
                count = max(2, count)

        # Failed candidates; a tuple, so the usual first-candidate success
        # builds nothing.
        tried: tuple[TrapId, ...] = ()
        for candidate in ranked:
            trap_id = candidate.id
            if trap_id in occupied:
                continue
            route = self._plan_to_candidate(
                instruction, source_name, source_trap, dest_name, dest_trap,
                candidate, congestion,
            )
            if route is not None:
                return route
            tried += (trap_id,)
            if len(tried) == count:
                break
        for trap_id in fallbacks:
            if trap_id not in occupied and trap_id not in tried:
                route = self._plan_to_candidate(
                    instruction, source_name, source_trap, dest_name, dest_trap,
                    traps[trap_id], congestion,
                )
                if route is not None:
                    return route
                tried += (trap_id,)
        if blockers is not None:
            # Every input of this failure, the free traps and the channel
            # occupancies, changes only at an issue or a release, and the
            # simulator wakes the sentinel on both.
            blockers.add(ANY_CONGESTION_CHANGE)
        return None

    def _full_operand_channels(
        self, source_trap: TrapId, dest_trap: TrapId, congestion: CongestionTracker
    ) -> tuple[ChannelId, ...]:
        """The full channels of two operands that rest in different traps.

        Any such channel fails every meeting trap.  Meeting away from an
        operand's trap moves that operand out of its channel, meeting in it
        moves the other operand into that channel, and no leg leaves or
        enters a full channel.  A parked instruction's operands stay put,
        so the failure stands until a capacity-opening release of one of
        these channels, which wakes its :func:`channel_key`.
        """
        if source_trap == dest_trap:
            return ()
        levels, slots, capacity = congestion.levels, self._slots, congestion.channel_capacity
        source_channel = self._traps[source_trap].channel_id
        dest_channel = self._traps[dest_trap].channel_id
        full: tuple[ChannelId, ...] = ()
        if levels[slots[source_channel]] >= capacity:
            full = (source_channel,)
        if dest_channel != source_channel and levels[slots[dest_channel]] >= capacity:
            full += (dest_channel,)
        return full

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

        serial = congestion.channel_capacity < 2
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
        overlay = source_plan.channels_used
        try:
            congestion.reserve_all(overlay)
        except RoutingError:
            return None  # the source leg would fill a channel past capacity
        try:
            dest_plan = self.plan_qubit_route(
                dest_name, dest_trap, candidate.id, congestion
            )
        finally:
            congestion.release_all(overlay)
        if dest_plan is None:
            return None
        return InstructionRoute(
            instruction.index,
            candidate.id,
            (source_plan, dest_plan),
            source_plan.channels_used + dest_plan.channels_used,
        )
