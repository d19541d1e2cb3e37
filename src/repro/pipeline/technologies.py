"""The technology registry: named physical machine descriptions (PMDs).

Entries are frozen :class:`~repro.technology.TechnologyParams` instances.
Built-ins:

* ``paper`` — the PMD every experiment in the paper uses (Section V.A).
* ``fast-turn`` — turns cost the same as a straight move (the optimistic end
  of the paper's 5x-30x turn-cost range).
* ``slow-turn`` — turns at 30x a move (the pessimistic end of that range).
* ``slow-2q`` — two-qubit gates at 300 us instead of 100 us, shifting the
  gate/routing balance toward gate delay.
* ``cap-1`` — the paper delays on the prior tools' channels: no ion
  multiplexing (channel capacity 1), isolating the capacity mechanism from
  the prior tools' other differences.

A fully custom PMD is built with
:meth:`~repro.technology.TechnologyParams.from_dict` and registered like any
plugin, after which it is selectable by name everywhere — options, specs,
sweeps, ``qspr-map run/sweep --technology/--technologies`` and the service
API::

    from repro.pipeline import TECHNOLOGIES
    from repro.technology import TechnologyParams

    TECHNOLOGIES.register(
        "my-pmd", TechnologyParams.from_dict({"turn_delay": 3.0})
    )
"""

from __future__ import annotations

from dataclasses import replace

from repro.errors import MappingError
from repro.pipeline.registry import Registry
from repro.technology import PAPER_TECHNOLOGY, TechnologyParams

#: The technology registry.  Built-ins: the paper PMD and named variants.
TECHNOLOGIES = Registry("technology")

TECHNOLOGIES.register("paper", PAPER_TECHNOLOGY)
TECHNOLOGIES.register("fast-turn", replace(PAPER_TECHNOLOGY, turn_delay=1.0))
TECHNOLOGIES.register("slow-turn", replace(PAPER_TECHNOLOGY, turn_delay=30.0))
TECHNOLOGIES.register("slow-2q", replace(PAPER_TECHNOLOGY, two_qubit_gate_delay=300.0))
TECHNOLOGIES.register("cap-1", replace(PAPER_TECHNOLOGY, channel_capacity=1))


def resolve_technology(
    selector: "str | TechnologyParams | dict",
    *,
    error: type[Exception] = MappingError,
) -> TechnologyParams:
    """The :class:`TechnologyParams` selected by ``selector``.

    Accepts a registry name, an already-built :class:`TechnologyParams` or a
    plain dict of parameter overrides (a fully custom PMD, see
    :meth:`TechnologyParams.from_dict`).

    Raises:
        MappingError: On an unknown registry name (with a did-you-mean
            suggestion), an invalid custom-PMD dict or an unsupported
            selector type.
    """
    if isinstance(selector, TechnologyParams):
        return selector
    if isinstance(selector, dict):
        try:
            return TechnologyParams.from_dict(selector)
        except ValueError as exc:
            raise error(f"invalid custom technology: {exc}") from exc
    if not isinstance(selector, str):
        raise error(
            f"technology must be a registry name, a TechnologyParams or a "
            f"parameter dict, got {selector!r}"
        )
    return TECHNOLOGIES.resolve(selector, error=error)
