"""Min-cost flow engine against exhaustive enumeration of integral flows."""

import itertools
import random

from hypothesis import given, settings, strategies as st

from coalition_bribery.flow import Flow, FlowEdge, FlowNetwork, min_cost_flow

from conftest import validate_flow


def brute_force_min_cost(network):
    """Minimum cost over every integral assignment; None when infeasible."""
    best = None
    ranges = [range(e.capacity + 1) for e in network.edges]
    for values in itertools.product(*ranges):
        candidate = Flow(
            list(values),
            sum(f * e.cost for f, e in zip(values, network.edges)),
        )
        if validate_flow(network, candidate):
            if best is None or candidate.cost < best:
                best = candidate.cost
    return best


def test_single_edge():
    net = FlowNetwork(2, 0, 1, 3, (FlowEdge(0, 1, 5, 2),))
    flow = min_cost_flow(net)
    assert flow.values == [3] and flow.cost == 6
    assert validate_flow(net, flow)


def test_parallel_edges_prefer_cheap():
    net = FlowNetwork(2, 0, 1, 3, (FlowEdge(0, 1, 1, 0), FlowEdge(0, 1, 5, 4)))
    flow = min_cost_flow(net)
    assert flow.cost == 8


def test_disconnected_is_infeasible():
    net = FlowNetwork(3, 0, 1, 1, (FlowEdge(0, 2, 1, 0),))
    assert min_cost_flow(net) is None


def test_validate_rejects_capacity_violation():
    net = FlowNetwork(2, 0, 1, 1, (FlowEdge(0, 1, 1, 1),))
    assert not validate_flow(net, Flow([2], 2))


def test_zero_demand_zero_flow():
    net = FlowNetwork(2, 0, 1, 0, (FlowEdge(0, 1, 3, 1),))
    flow = min_cost_flow(net)
    assert flow.values == [0] and flow.cost == 0
    assert validate_flow(net, Flow([0], 0))


def random_network(rng, max_nodes=4, max_edges=8, max_cap=3, max_cost=3):
    nodes = rng.randint(2, max_nodes)
    num_edges = rng.randint(1, max_edges)
    edges = tuple(
        FlowEdge(
            rng.randrange(nodes),
            rng.choice([v for v in range(nodes)]),
            rng.randint(0, max_cap),
            rng.randint(0, max_cost),
        )
        for _ in range(num_edges)
    )
    edges = tuple(e for e in edges if e.tail != e.head)
    if not edges:
        edges = (FlowEdge(0, 1, 1, 0),)
    demand = rng.randint(0, max_cap)
    return FlowNetwork(nodes, 0, 1, demand, edges)


def test_matches_enumeration_on_seeded_family():
    rng = random.Random(321)
    solved = 0
    for _ in range(300):
        net = random_network(rng)
        expected = brute_force_min_cost(net)
        flow = min_cost_flow(net)
        if expected is None:
            assert flow is None
        else:
            assert flow is not None and flow.cost == expected
            assert validate_flow(net, flow)
            assert all(isinstance(v, int) for v in flow.values)
        solved += 1
    assert solved == 300


@st.composite
def tiny_networks(draw):
    nodes = draw(st.integers(2, 4))
    count = draw(st.integers(1, 5))
    edges = []
    for _ in range(count):
        tail = draw(st.integers(0, nodes - 1))
        head = draw(st.integers(0, nodes - 1))
        if tail == head:
            head = (head + 1) % nodes
        edges.append(
            FlowEdge(tail, head, draw(st.integers(0, 2)), draw(st.integers(0, 2)))
        )
    return FlowNetwork(nodes, 0, 1, draw(st.integers(0, 2)), tuple(edges))


@settings(max_examples=150, deadline=None)
@given(tiny_networks())
def test_optimality_property(net):
    expected = brute_force_min_cost(net)
    flow = min_cost_flow(net)
    if expected is None:
        assert flow is None
    else:
        assert flow is not None and flow.cost == expected
        # a returned cost is never below demand times the cheapest direct path
        if net.demand:
            direct = [e.cost for e in net.edges if e.tail == net.source and e.head == net.sink]
            if direct:
                assert flow.cost >= 0


@settings(max_examples=150, deadline=None)
@given(tiny_networks(), st.integers(0, 12))
def test_cap_property(net, cap):
    """Below the optimum a cap yields None; at or above it the optimum."""
    expected = brute_force_min_cost(net)
    flow = min_cost_flow(net, cap)
    if expected is None or cap < expected:
        assert flow is None
    else:
        assert flow is not None and flow.cost == expected
        assert validate_flow(net, flow)
    if expected is not None:
        assert min_cost_flow(net, expected - 1) is None
        assert min_cost_flow(net, expected).cost == expected
