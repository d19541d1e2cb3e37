"""Tests for the routing graph model and the Eq. 2 weight function."""

import math

import pytest

from repro.routing.congestion import CongestionTracker
from repro.routing.graph_model import (
    ANY_PLANE,
    HORIZONTAL_PLANE,
    VERTICAL_PLANE,
    EdgeKind,
    RoutingGraph,
)
from repro.routing.weights import channel_weight, edge_weight, partial_channel_weight, turn_weight
from repro.technology import PAPER_TECHNOLOGY


class TestTurnAwareGraph:
    def test_two_nodes_per_junction(self, small_fabric_4x4):
        graph = RoutingGraph(small_fabric_4x4, turn_aware=True)
        assert graph.num_nodes == 2 * len(small_fabric_4x4.junctions)

    def test_turn_edges_connect_planes(self, small_fabric_4x4):
        graph = RoutingGraph(small_fabric_4x4, turn_aware=True)
        edges = graph.edges_from(((1, 1), HORIZONTAL_PLANE))
        turn_edges = [e for e in edges if e.kind is EdgeKind.TURN]
        assert len(turn_edges) == 1
        assert turn_edges[0].target == ((1, 1), VERTICAL_PLANE)

    def test_channels_stay_in_their_plane(self, small_fabric_4x4):
        graph = RoutingGraph(small_fabric_4x4, turn_aware=True)
        for node in graph.nodes:
            for edge in graph.edges_from(node):
                if edge.kind is EdgeKind.CHANNEL:
                    assert edge.source[1] == edge.target[1]

    def test_edge_count(self, small_fabric_4x4):
        graph = RoutingGraph(small_fabric_4x4, turn_aware=True)
        expected = 2 * len(small_fabric_4x4.channels) + 2 * len(small_fabric_4x4.junctions)
        assert graph.num_edges == expected

    def test_channel_endpoints(self, small_fabric_4x4):
        graph = RoutingGraph(small_fabric_4x4, turn_aware=True)
        a, b = graph.channel_endpoints(("v", 0, 0))
        assert a == ((0, 0), VERTICAL_PLANE)
        assert b == ((1, 0), VERTICAL_PLANE)


class TestTurnObliviousGraph:
    def test_one_node_per_junction(self, small_fabric_4x4):
        graph = RoutingGraph(small_fabric_4x4, turn_aware=False)
        assert graph.num_nodes == len(small_fabric_4x4.junctions)

    def test_no_turn_edges(self, small_fabric_4x4):
        graph = RoutingGraph(small_fabric_4x4, turn_aware=False)
        for node in graph.nodes:
            assert all(e.kind is EdgeKind.CHANNEL for e in graph.edges_from(node))

    def test_any_plane_label(self, small_fabric_4x4):
        graph = RoutingGraph(small_fabric_4x4, turn_aware=False)
        assert graph.channel_plane(("h", 0, 0)) == ANY_PLANE


class TestWeights:
    def test_empty_channel(self):
        assert channel_weight(0, 3, 2, PAPER_TECHNOLOGY) == pytest.approx(3.0)

    def test_weight_grows_with_occupancy(self):
        assert channel_weight(1, 3, 2, PAPER_TECHNOLOGY) == pytest.approx(6.0)

    def test_full_channel_is_infinite(self):
        assert math.isinf(channel_weight(2, 3, 2, PAPER_TECHNOLOGY))
        assert math.isinf(channel_weight(1, 3, 1, PAPER_TECHNOLOGY))

    def test_partial_weight(self):
        assert partial_channel_weight(0, 2, 2, PAPER_TECHNOLOGY) == pytest.approx(2.0)
        assert math.isinf(partial_channel_weight(2, 2, 2, PAPER_TECHNOLOGY))

    def test_turn_weight(self):
        assert turn_weight(PAPER_TECHNOLOGY) == pytest.approx(10.0)

    def test_edge_weight_dispatch(self, small_fabric_4x4):
        graph = RoutingGraph(small_fabric_4x4, turn_aware=True)
        congestion = CongestionTracker(small_fabric_4x4, 2)
        node = ((0, 0), HORIZONTAL_PLANE)
        channel_edges = [e for e in graph.edges_from(node) if e.kind is EdgeKind.CHANNEL]
        turn_edges = [e for e in graph.edges_from(node) if e.kind is EdgeKind.TURN]
        assert edge_weight(channel_edges[0], congestion, PAPER_TECHNOLOGY) == pytest.approx(3.0)
        assert edge_weight(turn_edges[0], congestion, PAPER_TECHNOLOGY) == pytest.approx(10.0)

    def test_edge_weight_reflects_congestion(self, small_fabric_4x4):
        graph = RoutingGraph(small_fabric_4x4, turn_aware=True)
        congestion = CongestionTracker(small_fabric_4x4, 2)
        node = ((0, 0), HORIZONTAL_PLANE)
        edge = next(e for e in graph.edges_from(node) if e.kind is EdgeKind.CHANNEL)
        congestion.reserve(edge.channel_id)
        assert edge_weight(edge, congestion, PAPER_TECHNOLOGY) == pytest.approx(6.0)
        congestion.reserve(edge.channel_id)
        assert math.isinf(edge_weight(edge, congestion, PAPER_TECHNOLOGY))
