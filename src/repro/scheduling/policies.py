"""Scheduling policies as first-class strategy objects.

A :class:`SchedulingPolicy` owns everything the simulator needs from the
scheduler side of a mapping run:

* the *static* priority of every instruction (:meth:`SchedulingPolicy.priorities`),
  computed once per run from the QIDG and the technology's gate delays;
* the *candidate ordering* of the issue loop
  (:meth:`SchedulingPolicy.order`): given the current pool of issueable
  instructions (ready plus busy-parked), return them most-preferred first.
  The default orders by descending priority and breaks ties in program
  order, keeping runs deterministic; policies with dynamic tie-breaking
  override it.

The four paper policies are implemented here and registered in
:data:`repro.pipeline.schedulers.SCHEDULERS`, which is how every layer
(options, specs, sweeps, CLI, service) selects them by name.  Third-party
policies subclass :class:`SchedulingPolicy` and register the same way::

    from repro.pipeline import SCHEDULERS
    from repro.scheduling.policies import SchedulingPolicy

    @SCHEDULERS.register("fifo")
    class FifoPolicy(SchedulingPolicy):
        name = "fifo"

        def priorities(self, qidg, technology):
            return {node: 0.0 for node in range(len(qidg))}
"""

from __future__ import annotations

from typing import Iterable

from repro.qidg.analysis import alap_levels, descendant_counts, longest_path_to_sink
from repro.qidg.graph import QIDG
from repro.technology import PAPER_TECHNOLOGY, TechnologyParams


class SchedulingPolicy:
    """Strategy protocol of a scheduling policy.

    Attributes:
        name: Registry name of the policy (what specs, sweeps and the CLI
            select it by; also what reports print).
    """

    name: str = "?"

    def priorities(
        self, qidg: QIDG, technology: TechnologyParams = PAPER_TECHNOLOGY
    ) -> dict[int, float]:
        """Static priority of every instruction (higher issues first).

        Priorities only depend on the dependency graph and the gate delays,
        so they are computed once per mapping run.
        """
        raise NotImplementedError

    def order(self, pool: Iterable[int], priorities: dict[int, float]) -> list[int]:
        """Candidate issue order over ``pool``, most preferred first.

        The simulator calls this whenever the pool's membership changes; the
        default is a static sort by descending priority, ties in program
        order.
        """
        return sorted(pool, key=lambda index: (-priorities[index], index))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class QsprPolicy(SchedulingPolicy):
    """The paper's policy (Section III): dependents plus longest path delay."""

    name = "qspr"

    def priorities(
        self, qidg: QIDG, technology: TechnologyParams = PAPER_TECHNOLOGY
    ) -> dict[int, float]:
        counts = descendant_counts(qidg)
        paths = longest_path_to_sink(qidg, technology)
        return {node: counts[node] + paths[node] for node in range(len(qidg))}


class QualeAlapPolicy(SchedulingPolicy):
    """QUALE: backward (as-late-as-possible) extraction from the QIDG.

    Instructions with the smallest ALAP level (the least slack before they
    hold up the circuit) come first.
    """

    name = "quale-alap"

    def priorities(
        self, qidg: QIDG, technology: TechnologyParams = PAPER_TECHNOLOGY
    ) -> dict[int, float]:
        levels = alap_levels(qidg)
        return {node: -float(level) for node, level in levels.items()}


class QposDependentsPolicy(SchedulingPolicy):
    """QPOS: ASAP issue with priority = number of dependent instructions."""

    name = "qpos-dependents"

    def priorities(
        self, qidg: QIDG, technology: TechnologyParams = PAPER_TECHNOLOGY
    ) -> dict[int, float]:
        return {node: float(count) for node, count in descendant_counts(qidg).items()}


class QposPathDelayPolicy(SchedulingPolicy):
    """The tweak of reference [5]: priority = total delay of the dependents."""

    name = "qpos-path-delay"

    def priorities(
        self, qidg: QIDG, technology: TechnologyParams = PAPER_TECHNOLOGY
    ) -> dict[int, float]:
        paths = longest_path_to_sink(qidg, technology)
        # "Total delay of dependent instructions": the downstream path delay,
        # excluding the instruction's own delay.
        return {
            node: paths[node] - delay
            for node, delay in enumerate(qidg.gate_delays(technology))
        }


#: The paper's four policies, in the order the paper discusses them.
PAPER_POLICIES: tuple[SchedulingPolicy, ...] = (
    QsprPolicy(),
    QualeAlapPolicy(),
    QposDependentsPolicy(),
    QposPathDelayPolicy(),
)
