"""The event-driven fabric simulator.

:class:`FabricSimulator` executes a circuit on a fabric starting from an
initial placement.  It interleaves scheduling and routing exactly as the
paper describes (Sections III and IV.B):

1. Ready instructions (all QIDG predecessors completed) are considered in
   the order owned by the run's :class:`~repro.scheduling.policies.
   SchedulingPolicy` (a :class:`_PolicyOrderSelector`) — or gated
   level-by-level for barrier scheduling, or in a *forced* total order for
   MVFB backward passes (each a :class:`_CandidateSelector` strategy).
2. For each candidate the router plans the operand journeys under the current
   congestion; if no finite route exists the instruction is parked in the
   busy queue on the wake keys the router names (its waiting time is the
   ``T_congestion`` of Eq. 1).
3. Issued instructions reserve every channel on their routes and push typed
   events, at times known at issue, onto a timestamp-ordered heap:
   ``ChannelReleased`` when an operand exits a channel and
   ``InstructionCompleted`` when the gate finishes.

The loop applies one timestamp's events at a time and re-enters the issue
loop only when an event's handler reports that some instruction became
ready or that a parked instruction's blockers actually changed.  A plan
that fails on a full operand channel is parked on that channel's key, woken
by a release that opens capacity there; every other failure is parked on
the ``ANY_CONGESTION_CHANGE`` sentinel, woken by every release and every
issue.  Completions wake no parked instruction — they can be shown never to
unblock one (the meeting trap stays occupied either way, and an in-flight
instruction never shares qubits with a parked one).  Event timestamps whose
handlers woke nothing skip the issue poll entirely, and a parked
instruction whose blockers all still stand is not retried.  Every run is
gated alike, whichever selector orders its candidates.

The outcome carries the total latency, the realised schedule, the final
placement (needed by the MVFB placer), per-instruction timing records and
routes, and the event loop's own counters
(:class:`~repro.sim.events.EventLoopStats`).  Its micro-command trace is
built on first access, so a placement search pays only for the winner's,
and a job that never reads it pays for none.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field, replace

from repro.circuits.circuit import Instruction, QuantumCircuit
from repro.errors import SimulationError
from repro.fabric.components import TrapId
from repro.fabric.fabric import Fabric
from repro.placement.base import Placement
from repro.qidg.analysis import alap_levels
from repro.qidg.graph import QIDG, build_qidg
from repro.qidg.uidg import reverse_schedule
from repro.routing.compiled import RoutingCoreStats
from repro.routing.congestion import CongestionTracker
from repro.routing.path import RoutePlan
from repro.routing.router import (
    ANY_CONGESTION_CHANGE,
    InstructionRoute,
    QSPR_POLICY,
    Router,
    RoutingPolicy,
    channel_key,
)
from repro.scheduling.busy_queue import BusyQueue
from repro.scheduling.policies import SchedulingPolicy
from repro.scheduling.ready import DependencyTracker
from repro.sim.events import (
    ChannelReleased,
    Event,
    EventLoopStats,
    EventQueue,
    InstructionCompleted,
)
from repro.sim.microcode import CommandKind, MicroCommand
from repro.sim.trace import ControlTrace
from repro.technology import PAPER_TECHNOLOGY, TechnologyParams


@dataclass
class InstructionRecord:
    """Timing record of one instruction (the terms of Eq. 1).

    Attributes:
        index: Instruction index.
        ready_time: Time all dependencies had completed.
        issue_time: Time the instruction was issued (routing started).
        gate_start: Time the gate operation started (operands arrived).
        finish_time: Time the gate operation completed.
        target_trap: Trap the gate executed in.
        routing_delay: ``T_routing`` — slowest operand's travel time.
        congestion_delay: ``T_congestion`` — time spent waiting for routing
            resources after becoming ready.
        gate_delay: ``T_gate``.
        moves: Total operand moves.
        turns: Total operand turns.
    """

    index: int
    ready_time: float = 0.0
    issue_time: float = 0.0
    gate_start: float = 0.0
    finish_time: float = 0.0
    target_trap: TrapId = -1
    routing_delay: float = 0.0
    congestion_delay: float = 0.0
    gate_delay: float = 0.0
    moves: int = 0
    turns: int = 0


@dataclass
class SimulationOutcome:
    """Everything a mapping pass produces; its :attr:`trace` is built on first access.

    The one run record: placement searches return their winner as one, and
    :meth:`forward_equivalent` turns a backward winner into the execution
    the paper reports.

    Attributes:
        latency: Completion time of the last instruction (the execution
            latency the paper reports).
        schedule: Instruction indices in issue order (the total order ``S``).
        initial_placement: The placement the pass started from.
        final_placement: Where each qubit rests after the last instruction
            (the ``P'`` fed into the next MVFB pass).
        records: Per-instruction timing records, keyed by instruction index.
        routes: Per-instruction routing decisions, keyed by instruction index.
        qidg: The dependency graph the pass executed.
        technology: The delay parameters of the pass.
        total_moves: Total qubit moves over the whole run.
        total_turns: Total qubit turns over the whole run.
        total_congestion_delay: Sum of all instructions' busy-queue waits.
        busy_queue_entries: Number of times any instruction was parked.
        cpu_seconds: Wall-clock time spent simulating.
        routing_seconds: Wall-clock time spent inside the router planning
            instruction routes (a subset of ``cpu_seconds``).
        routing_stats: Routing-core counters accumulated by this run (route
            cache hits/misses, Dijkstra calls, heap pops, edge relaxations).
        event_stats: Event-loop counters of this run (events processed, peak
            heap size, wake hits, skipped issue polls).
        direction: ``"forward"``, or ``"backward"`` for an MVFB uncompute
            pass (set by the search, not the simulator).
        placement_runs: Simulator passes behind this outcome: 1 for a single
            pass, the whole search's count for a placement search's winner.
    """

    latency: float
    schedule: list[int]
    initial_placement: Placement
    final_placement: Placement
    records: dict[int, InstructionRecord]
    routes: dict[int, InstructionRoute] = field(repr=False)
    qidg: QIDG = field(repr=False)
    technology: TechnologyParams = field(repr=False)
    total_moves: int = 0
    total_turns: int = 0
    total_congestion_delay: float = 0.0
    busy_queue_entries: int = 0
    cpu_seconds: float = 0.0
    routing_seconds: float = 0.0
    routing_stats: RoutingCoreStats = field(default_factory=RoutingCoreStats)
    event_stats: EventLoopStats = field(default_factory=EventLoopStats)
    direction: str = "forward"
    placement_runs: int = 1
    _trace: ControlTrace | None = field(default=None, init=False, repr=False, compare=False)
    #: The backward pass a forward equivalent mirrors, until its trace is read.
    _mirrored: SimulationOutcome | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def trace(self) -> ControlTrace:
        """The micro-command control trace, built on first access and kept.

        Commands are added in issue order: each operand plan's move and turn
        steps, then the gate.  A backward pass's forward equivalent builds
        the backward pass's trace and mirrors it in time
        (:meth:`~repro.sim.trace.ControlTrace.reversed_trace`).  A pass
        whose trace is never read constructs no micro-command.
        """
        if self._trace is None and self._mirrored is not None:
            self._trace = self._mirrored.trace.reversed_trace()
            self._mirrored = None
        if self._trace is None:
            trace = ControlTrace()
            for index in self.schedule:
                record, route = self.records[index], self.routes[index]
                for plan, offset in zip(route.plans, route.plan_start_offsets()):
                    self._add_plan_commands(trace, plan, record.issue_time + offset, index)
                instruction = self.qidg.program[index]
                trace.add(MicroCommand(
                    CommandKind.GATE, record.gate_start, record.gate_delay,
                    instruction.qubit_names, f"trap {route.target_trap}",
                    index, instruction.gate.name,
                ))
            self._trace = trace
        return self._trace

    def _add_plan_commands(
        self, trace: ControlTrace, plan: RoutePlan, start: float, index: int
    ) -> None:
        move_delay, turn_delay = self.technology.move_delay, self.technology.turn_delay
        clock = start
        for step in plan.steps:
            where = _resource_name(step)
            if step.moves:
                trace.add(MicroCommand(
                    CommandKind.MOVE, clock, step.moves * move_delay,
                    (plan.qubit,), where, index, f"{step.moves} cells",
                ))
            if step.turns:
                trace.add(MicroCommand(
                    CommandKind.TURN, clock + step.moves * move_delay,
                    step.turns * turn_delay, (plan.qubit,), where, index,
                    f"{step.turns} turn(s)",
                ))
            clock += step.duration

    def forward_equivalent(self) -> "SimulationOutcome":
        """The forward execution this pass stands for (Section IV.A).

        A forward pass is its own.  A backward pass ran the uncompute circuit
        from ``P'`` to ``P(k+1)``; the paper reports it as the forward circuit
        run from ``P(k+1)``: the reverse of its schedule over the forward
        instruction indices, the placements swapped and the control trace
        mirrored in time, on its first read.  Everything else (latency,
        direction, records, routes, QIDG and counters) stays the backward
        pass's, so convert a pass once: its equivalent still says
        ``"backward"``.
        """
        if self.direction == "forward":
            return self
        equivalent = replace(
            self,
            schedule=reverse_schedule(self.schedule, len(self.schedule)),
            initial_placement=self.final_placement,
            final_placement=self.initial_placement,
        )
        equivalent._mirrored = self
        return equivalent


class FabricSimulator:
    """Simulates one mapping pass of a circuit on a fabric."""

    def __init__(
        self,
        circuit: QuantumCircuit,
        fabric: Fabric,
        technology: TechnologyParams = PAPER_TECHNOLOGY,
        *,
        routing_policy: RoutingPolicy = QSPR_POLICY,
        scheduler: SchedulingPolicy | str = "qspr",
        forced_order: list[int] | None = None,
        qidg: QIDG | None = None,
        barrier_scheduling: bool = False,
    ) -> None:
        """Create a simulator.

        Args:
            circuit: The circuit to execute.
            fabric: The fabric to execute it on.
            technology: Delay and capacity parameters.
            routing_policy: Router feature switches (QSPR vs the prior tools).
            scheduler: Scheduling policy — a
                :class:`~repro.scheduling.policies.SchedulingPolicy` or a
                registry name from :data:`repro.pipeline.SCHEDULERS`.
                Ignored when a ``forced_order`` is given.
            forced_order: Optional total issue order (a permutation of the
                instruction indices).  Used by MVFB backward passes, which
                replay the reversed schedule of the preceding forward pass.
            qidg: Optionally a pre-built QIDG of ``circuit`` (avoids
                rebuilding it for every pass of an iterative placer).
            barrier_scheduling: Model prior tools (QUALE) that compute a
                level-by-level (ALAP) schedule *before* mapping: an
                instruction only becomes eligible once every instruction of
                earlier ALAP levels has finished, so routing never overlaps
                across levels.  QSPR interleaves scheduling with routing and
                leaves this off.
        """
        self.circuit = circuit
        self.fabric = fabric
        self.technology = technology
        self.routing_policy = routing_policy
        self.scheduler = _resolve_policy(scheduler)
        self.qidg = qidg if qidg is not None else build_qidg(circuit)
        if forced_order is not None and not self.qidg.is_valid_order(forced_order):
            raise SimulationError("forced_order is not a topological order of the QIDG")
        self.forced_order = list(forced_order) if forced_order is not None else None
        self.barrier_scheduling = barrier_scheduling
        self.levels: dict[int, int] | None = (
            alap_levels(self.qidg) if barrier_scheduling else None
        )
        self.router = Router(fabric, technology, routing_policy)
        #: Each instruction's ``T_gate``, shared by every pass over this QIDG.
        self.gate_delays = self.qidg.gate_delays(technology)
        # A forced order is replayed as given, so it reads no priorities.
        self.priorities = (
            None if forced_order is not None else self.scheduler.priorities(self.qidg, technology)
        )

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(self, initial_placement: Placement) -> SimulationOutcome:
        """Execute the circuit starting from ``initial_placement``."""
        started = _time.perf_counter()
        initial_placement.validate(self.circuit, self.fabric)

        state = _RunState(self, initial_placement)
        stats = state.stats
        state.attempt_issue(0.0)
        stats.issue_polls += 1
        # Apply every event of the earliest timestamp before re-issuing, so
        # simultaneous channel exits are all visible to the router.
        while (batch := state.events.apply_earliest(state.process_event)) is not None:
            event_time, applied, wake = batch
            stats.events_processed += applied
            if not wake:
                # No instruction became ready and no parked one's blockers
                # changed: every retry the issue loop could make is known to
                # fail, so skip it.
                stats.skipped_polls += 1
                continue
            state.attempt_issue(event_time)
            stats.issue_polls += 1

        if not state.deps.all_completed:
            outstanding = state.deps.outstanding
            raise SimulationError(
                f"simulation stalled with {len(outstanding)} unfinished instructions: "
                f"{outstanding[:10]}"
            )

        cpu_seconds = _time.perf_counter() - started
        return state.build_outcome(cpu_seconds)


def _resolve_policy(selector: SchedulingPolicy | str) -> SchedulingPolicy:
    """The :class:`SchedulingPolicy` behind a policy object or registry name."""
    # Imported lazily: repro.pipeline imports this module (through the
    # pipeline context), so a module-level import would be circular.
    from repro.pipeline.schedulers import resolve_scheduler

    return resolve_scheduler(selector, error=SimulationError)


# ----------------------------------------------------------------------
# Candidate selection strategies
# ----------------------------------------------------------------------
class _CandidateSelector:
    """Which pool instructions the issue loop may try next, in which order.

    One strategy instance per run; the three concrete selectors split what
    used to be a single branching candidate computation inside the issue
    loop.  All mutations of pool membership flow through the notification
    hooks, so each strategy maintains exactly the view it needs.

    A selector holds the simulator and the run's pool set, never the run
    state itself, so a finished run's state is freed by reference counting
    rather than left for the cycle collector.
    """

    def __init__(self, sim: FabricSimulator, pool: set[int]) -> None:
        self.sim = sim
        self.pool = pool

    def candidates(self) -> list[int]:
        """Issueable instructions, most preferred first."""
        raise NotImplementedError

    def on_pool_changed(self) -> None:
        """The candidate pool gained or lost a member."""

    def on_issued(self, index: int) -> None:
        """``index`` was issued."""

    def on_completed(self, index: int) -> None:
        """``index`` finished executing."""

    @property
    def stop_on_blocked_head(self) -> bool:
        """Whether an unroutable head candidate blocks the whole issue loop."""
        return False


class _PolicyOrderSelector(_CandidateSelector):
    """Standard mode: the scheduling policy owns the candidate ordering.

    The pool (ready ∪ busy) and its policy-ordered view are maintained
    incrementally: parking keeps pool membership, issuing removes, completion
    adds the newly ready.  The ordered view is only rebuilt after a
    membership change, instead of re-deriving set and order from scratch on
    every issue attempt.
    """

    def __init__(self, sim: FabricSimulator, pool: set[int]) -> None:
        super().__init__(sim, pool)
        self._dirty = True
        self._ordered: list[int] = []

    def candidates(self) -> list[int]:
        if self._dirty:
            self._ordered = self.sim.scheduler.order(self.pool, self.sim.priorities)
            self._dirty = False
        return self._ordered

    def on_pool_changed(self) -> None:
        self._dirty = True


class _BarrierLevelSelector(_CandidateSelector):
    """Barrier mode (QUALE): only the lowest unfinished ALAP level may issue.

    The open level is tracked incrementally: instructions only ever issue
    from the current level, so completions drain the levels strictly in
    order and the cursor simply advances when the current level's last
    instruction finishes.  Opening the next level needs no wake of its own.
    Under ALAP levels every non-sink instruction at level L has a successor
    at level L+1, and all of that successor's predecessors sit at levels
    <= L.  So the completion that drains level L makes a level-L+1
    instruction newly ready, which wakes the loop at that completion's own
    time.
    """

    def __init__(self, sim: FabricSimulator, pool: set[int]) -> None:
        super().__init__(sim, pool)
        assert sim.levels is not None
        self.levels = sim.levels
        self.level_remaining: dict[int, int] = {}
        for level in self.levels.values():
            self.level_remaining[level] = self.level_remaining.get(level, 0) + 1
        self._level_order = sorted(self.level_remaining)
        self._cursor = 0
        self._dirty = True
        self._ordered: list[int] = []

    @property
    def current_level(self) -> int | None:
        """The lowest ALAP level with unfinished instructions."""
        if self._cursor < len(self._level_order):
            return self._level_order[self._cursor]
        return None

    def candidates(self) -> list[int]:
        if self._dirty:
            level = self.current_level
            pool = self.pool
            if level is not None:
                pool = {index for index in pool if self.levels[index] == level}
            self._ordered = self.sim.scheduler.order(pool, self.sim.priorities)
            self._dirty = False
        return self._ordered

    def on_pool_changed(self) -> None:
        self._dirty = True

    def on_completed(self, index: int) -> None:
        level = self.levels[index]
        self.level_remaining[level] -= 1
        if level != self.current_level or self.level_remaining[level] > 0:
            return
        while (
            self._cursor < len(self._level_order)
            and self.level_remaining[self._level_order[self._cursor]] == 0
        ):
            self._cursor += 1
        self._dirty = True


class _ForcedOrderSelector(_CandidateSelector):
    """Forced mode (MVFB backward passes): replay a fixed total order."""

    def __init__(self, sim: FabricSimulator, pool: set[int]) -> None:
        super().__init__(sim, pool)
        assert sim.forced_order is not None
        self.order = sim.forced_order
        self.position = 0

    def candidates(self) -> list[int]:
        if self.position >= len(self.order):
            return []
        head = self.order[self.position]
        return [head] if head in self.pool else []

    def on_issued(self, index: int) -> None:
        self.position += 1

    @property
    def stop_on_blocked_head(self) -> bool:
        # A forced schedule cannot skip its head instruction.
        return True


class _RunState:
    """Mutable state of one simulation run (internal)."""

    def __init__(self, sim: FabricSimulator, initial_placement: Placement) -> None:
        self.sim = sim
        self.initial_placement = initial_placement
        self.positions: dict[str, TrapId] = initial_placement.as_dict()
        self.resting: dict[TrapId, set[str]] = {}
        for qubit, trap in self.positions.items():
            self.resting.setdefault(trap, set()).add(qubit)
        self.reserved_traps: set[TrapId] = set()
        #: Traps no meeting trap may be chosen in: reserved ∪ resting, kept
        #: at every issue (a completion turns its reserved trap into a
        #: resting one, which leaves the set as it is).
        self.occupied_traps: set[TrapId] = set(self.resting)
        self.congestion = CongestionTracker(sim.fabric, sim.technology.channel_capacity)
        self.deps = DependencyTracker(sim.qidg)
        self.busy = BusyQueue()
        self.events = EventQueue()
        self.schedule: list[int] = []
        ready = self.deps.initially_ready()
        self.records: dict[int, InstructionRecord] = {
            index: InstructionRecord(index=index, ready_time=0.0) for index in ready
        }
        self.routes: dict[int, InstructionRoute] = {}
        # Issueable instructions: the ready ones and the parked ones.
        self.pool: set[int] = set(ready)
        self.stats = EventLoopStats()
        if sim.forced_order is not None:
            self.selector: _CandidateSelector = _ForcedOrderSelector(sim, self.pool)
        elif sim.levels is not None:
            self.selector = _BarrierLevelSelector(sim, self.pool)
        else:
            self.selector = _PolicyOrderSelector(sim, self.pool)
        self.routing_seconds = 0.0
        # The run counts its routing work on counters of its own.
        sim.router.stats = RoutingCoreStats()

    def _occupied_traps_for(self, instruction: Instruction) -> set[TrapId]:
        """Traps the router must not pick as the meeting trap: reserved or
        resting ones, less each unreserved operand trap holding only operands.

        This is the run's kept set itself, not a copy, with those operand
        traps taken out; :meth:`attempt_issue` puts them back after the plan.
        """
        names = instruction.qubit_names
        reserved, resting, positions = self.reserved_traps, self.resting, self.positions
        occupied = self.occupied_traps
        for qubit in names:
            trap = positions[qubit]
            residents = resting[trap]
            # The operand itself rests there, so one resident is the operand.
            if trap not in reserved and (len(residents) == 1 or residents.issubset(names)):
                occupied.discard(trap)
        return occupied

    def attempt_issue(self, now: float) -> None:
        """Issue as many eligible instructions as the fabric state allows."""
        busy = self.busy
        needs_retry = busy.needs_retry
        instructions = self.sim.qidg.program
        plan_instruction = self.sim.router.plan_instruction
        occupied_traps_for = self._occupied_traps_for
        kept, positions = self.occupied_traps, self.positions
        while True:
            issued_any = False
            for index in self.selector.candidates():
                if not needs_retry(index):
                    # Parked with every recorded blocker still standing:
                    # planning is pure, so the retry would fail exactly as it
                    # did last time.  Skip the router call.
                    continue
                instruction = instructions[index]
                # Ask the router *why* planning failed: the returned keys
                # (full operand channels, or the congestion-change sentinel)
                # are this instruction's wake-set.
                blockers: set = set()
                plan_started = _time.perf_counter()
                try:
                    route = plan_instruction(
                        instruction,
                        positions,
                        self.congestion,
                        occupied_traps=occupied_traps_for(instruction),
                        blockers=blockers,
                    )
                finally:
                    # Every operand rests in its trap, so each operand trap
                    # belongs to the kept set.
                    for name in instruction.qubit_names:
                        kept.add(positions[name])
                self.routing_seconds += _time.perf_counter() - plan_started
                if route is None:
                    busy.park(index)
                    busy.block_on(index, blockers)
                    if self.selector.stop_on_blocked_head:
                        return
                    continue
                self._issue(instruction, route, now)
                issued_any = True
                break
            if not issued_any:
                return

    def _issue(self, instruction: Instruction, route: InstructionRoute, now: float) -> None:
        index = instruction.index
        busy = self.busy
        if index in busy:
            busy.remove(index)
        self.pool.discard(index)
        self.selector.on_pool_changed()
        self.selector.on_issued(index)
        self.deps.mark_issued(index)
        self.schedule.append(index)

        record = self.records[index]
        routing_delay = route.routing_delay
        record.issue_time = now
        record.congestion_delay = max(0.0, now - record.ready_time)
        record.target_trap = target = route.target_trap
        record.routing_delay = routing_delay
        record.gate_delay = self.sim.gate_delays[index]
        record.moves = route.total_moves
        record.turns = route.total_turns
        record.gate_start = now + routing_delay
        record.finish_time = record.gate_start + record.gate_delay
        self.routes[index] = route

        # Reserve routing resources and the meeting trap.
        self.congestion.reserve_all(route.channels)
        reserved = self.reserved_traps
        reserved.add(target)
        self.occupied_traps.add(target)

        # Operands leave their traps, and each channel is released when its
        # qubit exits it: the step durations summed left to right from the
        # plan's start.
        push = self.events.push
        serial = route.serial
        channel_exits: dict = {}
        for plan, offset in zip(route.plans, route.plan_start_offsets()):
            qubit = plan.qubit
            origin = self.positions[qubit]
            residents = self.resting.get(origin)
            if residents is not None:
                residents.discard(qubit)
                if not residents:
                    del self.resting[origin]
                    if origin not in reserved:
                        self.occupied_traps.discard(origin)
            clock = now + offset
            for step in plan.steps:
                clock += step.duration
                channel_id = step.channel_id
                if channel_id is None:
                    continue
                if serial:
                    # Shared channels are reserved once; release them when the
                    # last operand leaves.
                    previous = channel_exits.get(channel_id)
                    if previous is None or clock > previous[1]:
                        channel_exits[channel_id] = (qubit, clock)
                else:
                    push(clock, ChannelReleased(qubit, channel_id))
        for channel_id, (qubit, exit_time) in channel_exits.items():
            push(exit_time, ChannelReleased(qubit, channel_id))
        push(record.finish_time, InstructionCompleted(index, target))

        # Issuing vacates the operands' traps and reserves the meeting trap
        # and the route's channels: any of it can change a failure that got
        # past trap selection, and those are parked on the sentinel.
        if busy.has_sleepers:
            self.stats.wake_hits += len(busy.wake(ANY_CONGESTION_CHANGE))

    # ------------------------------------------------------------------
    # Event handling
    # ------------------------------------------------------------------
    def process_event(self, now: float, event: Event) -> bool:
        """Apply ``event`` to the run state.

        Returns whether the event made an instruction ready or may have
        changed a parked one's routability — the run only re-enters the
        issue loop when a handler in the current timestamp's batch reports
        ``True``.
        """
        if isinstance(event, ChannelReleased):
            was_full = self.congestion.release(event.channel_id)
            busy = self.busy
            if not busy.has_sleepers:
                return False
            # A capacity-opening release retries the instructions parked on
            # this full operand channel; any release also retries the
            # instructions parked on the sentinel, since lowering a channel's
            # weight can change which route a leg takes and so flip a
            # failure.
            woken = busy.wake(channel_key(event.channel_id)) if was_full else []
            woken += busy.wake(ANY_CONGESTION_CHANGE)
            self.stats.wake_hits += len(woken)
            return bool(woken)
        # InstructionCompleted
        index = event.instruction_index
        route = self.routes[index]
        for plan in route.plans:
            qubit = plan.qubit
            self.positions[qubit] = route.target_trap
            self.resting.setdefault(route.target_trap, set()).add(qubit)
        # Completions never unblock a parked instruction: the meeting trap
        # stays occupied — reserved before, holding the finished operands
        # after — and an in-flight instruction never shares a qubit with a
        # parked one, so no blocker state changes.
        self.reserved_traps.discard(route.target_trap)
        self.selector.on_completed(index)
        woke = False
        for newly_ready in self.deps.mark_completed(index):
            self.pool.add(newly_ready)
            self.selector.on_pool_changed()
            self.records[newly_ready] = InstructionRecord(index=newly_ready, ready_time=now)
            woke = True
        return woke

    # ------------------------------------------------------------------
    # Outcome
    # ------------------------------------------------------------------
    def build_outcome(self, cpu_seconds: float) -> SimulationOutcome:
        latency = max(
            (record.finish_time for record in self.records.values()), default=0.0
        )
        final_placement = Placement(
            {qubit: trap for qubit, trap in self.positions.items()}
        )
        self.stats.peak_heap_size = self.events.peak_size
        return SimulationOutcome(
            latency=latency,
            schedule=self.schedule,
            initial_placement=self.initial_placement,
            final_placement=final_placement,
            records=self.records,
            routes=self.routes,
            qidg=self.sim.qidg,
            technology=self.sim.technology,
            total_moves=sum(record.moves for record in self.records.values()),
            total_turns=sum(record.turns for record in self.records.values()),
            total_congestion_delay=sum(
                record.congestion_delay for record in self.records.values()
            ),
            busy_queue_entries=self.busy.total_entries,
            cpu_seconds=cpu_seconds,
            routing_seconds=self.routing_seconds,
            routing_stats=self.sim.router.stats,
            event_stats=self.stats,
        )


def _resource_name(step) -> str:
    if step.channel_id is not None:
        return f"channel {step.channel_id}"
    return f"junction {step.junction_id}"
