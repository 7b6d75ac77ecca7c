"""Zero-threshold plurality under swap and shift bribery, via min-cost flow.

Only the top of each order matters here, so a voter has three interesting
replacements: the cheapest orders putting the leader, some other coalition
member, or an outsider on top.  With a zero threshold all parties are seated,
and a plan with C coalition tops, R of them not the leader's, meets the targets
iff `core.goals_met(C, C - R, n)`.  A leader top in place of any other keeps
them met, so a plan meets them iff, for some size s, it has at most n - s
outsider tops and at most r(s) rest tops, r(s) being the largest r with
`goals_met(s, s - r, n)`.  Per s, a bipartite network feeds one hub per class
from the source within those bounds and each voter from the hubs; its cheapest
flow of value n is the cheapest bribe in that box.  Scanning the n + 1 sizes,
with the cap tightened below the best flow so far, yields the cheapest bribe.
The flow is integral and each voter -> sink edge has capacity 1, so the one
hub -> voter edge with flow into a voter names its replacement's class.
"""

from __future__ import annotations

from typing import Optional

from .core import ProblemInstance, goals_met
from .costs import BribePlan, bribe_cost, lift_to_top
from .flow import FlowEdge, FlowNetwork, min_cost_flow

LEADER, REST, OUTSIDE = 0, 1, 2


def min_bribe_to_top(
    instance: ProblemInstance, voter: int, which: int
) -> Optional[tuple]:
    """Cheapest replacement giving voter `voter` a top in the named class.

    Classes are LEADER (the preferred party), REST (the rest of the
    coalition) and OUTSIDE.  Returns (order, cost) or None when no admissible
    replacement exists, e.g. an outsider top under shift bribery for a voter
    currently topped by a coalition member.
    """
    election = instance.election
    order = election.orders[voter]
    model = instance.cost_model
    if which == LEADER:
        targets = (instance.leader,)
    elif which == REST:
        targets = instance.coalition_rest
    else:
        targets = instance.outsiders
    if order.top() in targets:
        return order, 0
    best = None
    for party in targets:
        lifted = lift_to_top(order, party)
        cost = bribe_cost(model, voter, order, lifted, instance.coalition)
        if cost is None:
            continue
        if best is None or cost < best[1]:
            best = (lifted, cost)
    return best


def build_top_signature_network(
    max_rest: int,
    max_outside: int,
    options: list[list[Optional[tuple]]],
) -> FlowNetwork:
    """The network for at most `max_rest` rest and `max_outside` outsider tops.

    Nodes: source 0, sink 1, the hub of class c at 2 + c, and voter i at
    5 + i.  The source gives each hub its class's bound on the n tops, each
    admissible replacement is one hub -> voter edge (capacity 1, its price),
    and each voter sends one unit to the sink.
    """
    n = len(options)
    shares = (n, max_rest, max_outside)
    edges = [FlowEdge(0, 2 + which, share, 0) for which, share in enumerate(shares)]
    for i, row in enumerate(options):
        for which, option in enumerate(row):
            if option is not None:
                edges.append(FlowEdge(2 + which, 5 + i, 1, option[1]))
        edges.append(FlowEdge(5 + i, 1, 1, 0))
    return FlowNetwork(num_nodes=5 + n, source=0, sink=1, demand=n, edges=tuple(edges))


def solve_plurality_zero(
    instance: ProblemInstance, cap: float
) -> Optional[BribePlan]:
    """Cheapest bribe costing at most `cap` (inf: no limit) for a
    zero-threshold plurality instance under swap/shift bribery, or None."""
    n = instance.election.num_voters
    options = [
        [min_bribe_to_top(instance, i, which) for which in (LEADER, REST, OUTSIDE)]
        for i in range(n)
    ]
    best = None
    for size in range(n, -1, -1):
        fits = [r for r in range(size + 1) if goals_met(size, size - r, n, instance)]
        if fits:
            network = build_top_signature_network(fits[-1], n - size, options)
            flow = min_cost_flow(network, cap)
            if flow is not None:
                best, cap = (network, flow), flow.cost - 1
    if best is None:
        return None
    network, flow = best
    orders = instance.election.orders
    chosen = {
        edge.head - 5: options[edge.head - 5][edge.tail - 2][0]
        for value, edge in zip(flow.values, network.edges) if value and edge.head >= 5
    }
    return BribePlan({i: o for i, o in chosen.items() if o != orders[i]}, flow.cost)
