"""The scheduler registry: named scheduling-policy strategies.

Entries are :class:`~repro.scheduling.policies.SchedulingPolicy` instances
(stateless strategy objects).  Built-ins are the paper's four policies:

* ``qspr`` — dependents + longest downstream path delay (Section III).
* ``quale-alap`` — QUALE's backward as-late-as-possible extraction.
* ``qpos-dependents`` — QPOS's ASAP issue by dependent count.
* ``qpos-path-delay`` — the reference-[5] tweak (downstream path delay).

A third-party policy registers like any plugin and is then selectable by
name everywhere — ``MapperOptions(scheduler=...)``, experiment specs and
sweeps, ``qspr-map run/sweep --scheduler(s)`` and the service API::

    from repro.pipeline import SCHEDULERS
    from repro.scheduling.policies import SchedulingPolicy

    @SCHEDULERS.register("fifo")
    class FifoPolicy(SchedulingPolicy):
        name = "fifo"

        def priorities(self, qidg, technology):
            return {node: 0.0 for node in range(len(qidg))}

Registering a *class* stores the class; :func:`resolve_scheduler` hands back
an instance either way, so both styles work.
"""

from __future__ import annotations

from repro.errors import SchedulingError
from repro.pipeline.registry import Registry
from repro.scheduling.policies import PAPER_POLICIES, SchedulingPolicy

#: The scheduler registry.  Built-ins: the paper's four policies.
SCHEDULERS = Registry("scheduler")

for _policy in PAPER_POLICIES:
    SCHEDULERS.register(_policy.name, _policy)


def resolve_scheduler(
    selector: str | SchedulingPolicy,
    *,
    error: type[Exception] = SchedulingError,
) -> SchedulingPolicy:
    """The :class:`SchedulingPolicy` selected by ``selector``.

    Accepts a registry name or an already-built policy object.

    Raises:
        SchedulingError: On an unknown registry name (with a did-you-mean
            suggestion) or an unsupported selector type.  Pass ``error`` to
            raise a different domain error (specs raise ``MappingError``).
    """
    if isinstance(selector, SchedulingPolicy):
        return selector
    if not isinstance(selector, str):
        raise error(
            f"scheduler must be a registry name or a SchedulingPolicy, "
            f"got {selector!r}"
        )
    entry = SCHEDULERS.resolve(selector, error=error)
    if isinstance(entry, type):  # a registered class: instantiate fresh
        entry = entry()
    return entry
