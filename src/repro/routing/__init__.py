"""Routing of qubits across the ion-trap fabric.

The router answers one question for the scheduler: *given the current
congestion state, how do the operand qubit(s) of an instruction reach a trap
where the gate can be performed, and how long does that take?*

Components:

* :mod:`repro.routing.graph_model` — the weighted routing graph.  In the
  turn-aware model (paper Figure 5.c) every junction is split into a
  horizontal-plane and a vertical-plane vertex joined by a *turn edge*.
* :mod:`repro.routing.weights` — the edge weight function of Eq. (2).
* :mod:`repro.routing.congestion` — channel occupancy bookkeeping.
* :mod:`repro.routing.compiled` — the CSR-array routing core the router
  uses: a multi-source/multi-target Dijkstra kernel whose routes are
  identical to the object-graph reference kernel of the test suite's oracle
  (``tests/reference_oracle.py``).
* :mod:`repro.routing.path` — expansion of a graph path into a timed
  :class:`RoutePlan` (per-channel occupancy intervals, moves and turns).
* :mod:`repro.routing.router` — the :class:`Router` facade used by the
  simulator.
"""

from repro.routing.graph_model import RoutingGraph, GraphEdge, EdgeKind
from repro.routing.weights import channel_weight, edge_weight
from repro.routing.compiled import CompiledRoutingGraph, DijkstraResult, RoutingCoreStats
from repro.routing.congestion import CongestionTracker
from repro.routing.path import PathStep, RoutePlan, StepKind
from repro.routing.router import (
    InstructionRoute,
    MeetingPoint,
    Router,
    RoutingPolicy,
    QSPR_POLICY,
)

__all__ = [
    "RoutingGraph",
    "GraphEdge",
    "EdgeKind",
    "channel_weight",
    "edge_weight",
    "CompiledRoutingGraph",
    "RoutingCoreStats",
    "CongestionTracker",
    "DijkstraResult",
    "PathStep",
    "RoutePlan",
    "StepKind",
    "InstructionRoute",
    "MeetingPoint",
    "Router",
    "RoutingPolicy",
    "QSPR_POLICY",
]
