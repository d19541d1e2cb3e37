"""A job builds no object graph, leaves no cyclic garbage, and a fabric
dies with its last holder.

Jobs search the routing graph built from the fabric; the object
``RoutingGraph`` is the test oracle's reference alone.  Every per-fabric
memo points one way: the fabric holds its routing graph and route tables,
and none of them points back.  So reference counting frees a job's
fabric, with everything built on it, as soon as the job returns, and an
evicted fabric as soon as its holder drops it.  Nothing is left for the
cycle collector, which would otherwise charge each job a full collection
of its fabric.
"""

from __future__ import annotations

import contextlib
import gc
import weakref

import pytest

from repro.routing.graph_model import GraphEdge, RoutingGraph
from repro.runner import ExperimentSpec, FabricCell, execute_cell
from repro.service import execute_job

SMALL = FabricCell(junction_rows=4, junction_cols=4)

#: One job of each kind, each mapped on a fresh fabric.
JOBS = {
    "qspr-mvfb": ExperimentSpec("[[5,1,3]]", placer="mvfb", num_seeds=3, fabric=SMALL),
    "qspr-monte-carlo": ExperimentSpec(
        "[[5,1,3]]", placer="monte-carlo", num_seeds=3, fabric=SMALL
    ),
    "qspr-center-cap-1": ExperimentSpec(
        "[[7,1,3]]", placer="center", technology="cap-1", fabric=SMALL
    ),
    "quale": ExperimentSpec("[[5,1,3]]", mapper="quale", placer=None, fabric=SMALL),
    "qpos": ExperimentSpec("[[5,1,3]]", mapper="qpos", placer=None, fabric=SMALL),
}


@contextlib.contextmanager
def no_automatic_collection():
    """Collect what is already garbage, then keep the collector off."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("kind", list(JOBS))
def test_a_job_builds_no_object_graph(kind, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a job built the reference object graph")

    monkeypatch.setattr(RoutingGraph, "__init__", refuse)
    monkeypatch.setattr(GraphEdge, "__init__", refuse)
    assert execute_cell(JOBS[kind]).latency > 0


@pytest.mark.parametrize("kind", list(JOBS))
def test_a_job_leaves_no_cyclic_garbage(kind):
    with no_automatic_collection():
        result = execute_cell(JOBS[kind])
        assert result.latency > 0
        del result
        assert gc.collect() == 0


def test_a_memoised_fabric_dies_when_the_memo_drops_it():
    fabrics: dict = {}
    with no_automatic_collection():
        execute_job(JOBS["qspr-mvfb"], fabrics)
        execute_job(JOBS["quale"], fabrics)
        (fabric,) = fabrics.values()
        assert fabric.__dict__["_route_tables"], "the jobs memoised no routing state"
        ref = weakref.ref(fabric)
        del fabric
        assert ref() is not None, "the memo did not hold the fabric"
        fabrics.clear()
        assert ref() is None, "something besides the memo kept the fabric alive"
        assert gc.collect() == 0
