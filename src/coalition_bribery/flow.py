"""Integral min-cost flow via successive shortest augmenting paths.

Inputs are non-negative integers, so Dijkstra with node potentials keeps all
reduced costs non-negative and every returned flow is integral.  A network
whose maximum flow falls short of the demand is reported as infeasible rather
than routed partially.

Successive shortest paths never get cheaper, so once the cost so far plus the
open demand times the latest path's cost exceeds a cost cap, no flow within
the cap exists and the search stops early.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from math import inf


@dataclass(frozen=True)
class FlowEdge:
    tail: int
    head: int
    capacity: int
    cost: int


@dataclass(frozen=True)
class FlowNetwork:
    num_nodes: int
    source: int
    sink: int
    demand: int
    edges: tuple[FlowEdge, ...]

    def __post_init__(self):
        if self.source == self.sink:
            raise ValueError("source and sink must differ")
        if self.demand < 0:
            raise ValueError("demand must be non-negative")
        for e in self.edges:
            if e.capacity < 0 or e.cost < 0:
                raise ValueError("capacities and costs must be non-negative")
            if not (0 <= e.tail < self.num_nodes and 0 <= e.head < self.num_nodes):
                raise ValueError("edge endpoint out of range")


@dataclass
class Flow:
    """Edge flows (indexed like the network's edge list) and their total cost."""

    values: list[int]
    cost: int


def min_cost_flow(network: FlowNetwork, cap: float = inf) -> Flow | None:
    """Cheapest integral flow meeting the demand exactly, or None when there
    is none or it costs more than `cap` (inf: no limit)."""
    if cap < 0:
        return None
    n = network.num_nodes
    # Residual graph: per node a list of [head, capacity, cost, index of twin].
    adj: list[list[list[int]]] = [[] for _ in range(n)]
    edge_slots = []
    for e in network.edges:
        edge_slots.append((e.tail, len(adj[e.tail])))
        adj[e.tail].append([e.head, e.capacity, e.cost, len(adj[e.head])])
        adj[e.head].append([e.tail, 0, -e.cost, len(adj[e.tail]) - 1])

    potential = [0] * n
    remaining = network.demand
    total_cost = 0
    while remaining > 0:
        dist = [inf] * n
        dist[network.source] = 0
        prev: list[tuple[int, int] | None] = [None] * n
        heap = [(0, network.source)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for idx, arc in enumerate(adj[u]):
                v, residual, cost, _ = arc
                if residual <= 0:
                    continue
                nd = d + cost + potential[u] - potential[v]
                if nd < dist[v]:
                    dist[v] = nd
                    prev[v] = (u, idx)
                    heapq.heappush(heap, (nd, v))
        if dist[network.sink] == inf:
            return None
        for v in range(n):
            if dist[v] < inf:
                potential[v] += dist[v]
        # Bottleneck and cost of the shortest path; the open demand costs at
        # least its cost per unit.
        push = remaining
        path_cost = 0
        v = network.sink
        while prev[v] is not None:
            u, idx = prev[v]
            push = min(push, adj[u][idx][1])
            path_cost += adj[u][idx][2]
            v = u
        if total_cost + remaining * path_cost > cap:
            return None
        v = network.sink
        while prev[v] is not None:
            u, idx = prev[v]
            arc = adj[u][idx]
            arc[1] -= push
            adj[v][arc[3]][1] += push
            total_cost += push * arc[2]
            v = u
        remaining -= push

    values = []
    for (tail, slot), e in zip(edge_slots, network.edges):
        values.append(e.capacity - adj[tail][slot][1])
    return Flow(values=values, cost=total_cost)
