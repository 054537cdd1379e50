#!/usr/bin/env python3
"""Closed forms against brute force.

Paths, complete graphs, and stars share one parity formula; complete
bipartite graphs have their own; and every bipartite graph's value is just
its edge-count parity. Each formula is replayed against the search engine.
"""

from vertexnim import (
    MoveRule,
    closed_form_complete_bipartite,
    closed_form_path,
    complete_bipartite_graph,
    complete_graph,
    grid_graph,
    grundy_even_even,
    grundy_value,
    path_graph,
    replace_isolated_with_p3,
    solve,
    star_graph,
    add_isolated_vertices,
)

print("== one parity formula for three families (odd rule) ==")
print(" n | path | complete | star | formula")
for n in range(1, 11):
    values = (
        grundy_value(path_graph(n)),
        grundy_value(complete_graph(n)),
        grundy_value(star_graph(n)),
    )
    formula = closed_form_path(n)
    assert set(values) == {formula}
    print(f"{n:>2} | {values[0]:>4} | {values[1]:>8} | {values[2]:>4} | {formula:>7}")

print()
print("== complete bipartite graphs: 1 iff both sides odd ==")
for a in range(1, 5):
    row = []
    for b in range(1, 5):
        got = grundy_value(complete_bipartite_graph(a, b))
        assert got == closed_form_complete_bipartite(a, b)
        row.append(str(got))
    print(f"  K_{{{a},b}} for b=1..4: {' '.join(row)}")

print()
print("== any bipartite graph: value = |E| mod 2 ==")
for name, g in [
    ("2x3 grid", grid_graph(2, 3)),
    ("3x3 grid", grid_graph(3, 3)),
    ("path on 9", path_graph(9)),
    ("K_{2,5}", complete_bipartite_graph(2, 5)),
]:
    fast = solve(g)
    brute = grundy_value(g)
    print(f"  {name:<10} |E|={g.edge_count():>2}  fast={fast.grundy}  brute={brute}")
    assert fast.grundy == brute == g.edge_count() % 2
    assert fast.method == "bipartite edge-parity fast path"

print()
print("== isolated vertices are interchangeable with 3-paths ==")
g = add_isolated_vertices(complete_graph(2), 2)
replaced = replace_isolated_with_p3(g)
print(f"  edge + 2 isolated vertices: grundy {grundy_value(g)}")
print(f"  edge + 2 fresh 3-paths:     grundy {grundy_value(replaced)}")
print(f"  ({g.n} vertices grew to {replaced.n}, value unchanged)")

print()
print("== even rule closed form: vertex-count parity ==")
for n in (4, 5):
    g = grid_graph(1, n)
    assert grundy_value(g, MoveRule.EVEN) == grundy_even_even(g) == n % 2
    print(f"  {n}-vertex path under the even rule: {grundy_even_even(g)}")
