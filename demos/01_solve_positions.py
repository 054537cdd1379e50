#!/usr/bin/env python3
"""Solving parity vertex-removal games position by position.

Players alternate removing a vertex whose degree has the required parity
(odd by default), deleting its incident edges; whoever cannot move loses.
This walks through a few small games and reads off the solver's reports. A
report's node count is the positions the search visited plus, for a
component of 8 to 18 vertices with a movable vertex, the 2**k subsets its
lattice valued at once; these games have fewer than 8 vertices, so they are
searched outright.
"""

from vertexnim import (
    Graph,
    MoveRule,
    complete_graph,
    cycle_graph,
    grundy,
    iter_bits,
    path_graph,
    star_graph,
)


def show(name, graph, rule=MoveRule.ODD):
    report = grundy(graph, rule)
    print(f"{name}: grundy {report.grundy}", end="")
    if report.optimal_move is not None:
        print(f", winning move: remove vertex {report.optimal_move}", end="")
    print(f"  ({report.nodes_visited} nodes visited)")
    return report


print("== odd rule: remove only odd-degree vertices ==")
show("path on 4 vertices  ", path_graph(4))
show("path on 5 vertices  ", path_graph(5))
show("star, 6 vertices    ", star_graph(6))
show("complete graph K5   ", complete_graph(5))
show("4-cycle             ", cycle_graph(4))

print()
print("A 4-cycle has no odd-degree vertex, so it is already terminal:")
p = cycle_graph(4).full_position()
print(f"  movable vertices: {sorted(iter_bits(p.movable_vertices(MoveRule.ODD)))}")
print(f"  terminal: {p.is_terminal(MoveRule.ODD)}")

print()
print("== playing out an optimal line on the 'paw' (triangle + pendant) ==")
paw = Graph(4, [(0, 1), (0, 2), (1, 2), (0, 3)])
position = paw.full_position()
player = 0
while not position.is_terminal(MoveRule.ODD):
    report = grundy(position)
    moves = sorted(iter_bits(position.movable_vertices(MoveRule.ODD)))
    chosen = report.optimal_move if report.optimal_move is not None else moves[0]
    print(
        f"  player {player}: grundy {report.grundy}, "
        f"moves {moves}, takes {chosen}"
    )
    position = position.remove_vertex(chosen)
    player ^= 1
print(f"  player {player} has no move and loses")

print()
print("== even rule: remove only even-degree vertices ==")
print("Here the game is forced: the value only depends on the vertex count.")
for n in (3, 4, 5):
    show(f"complete graph K{n}  ", complete_graph(n), MoveRule.EVEN)
