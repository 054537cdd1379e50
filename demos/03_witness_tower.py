#!/usr/bin/env python3
"""Connected graphs exist for every Grundy value; here is the tower.

The assembly: take parts realizing the values 0..K, add one apex vertex per
part joined to all of that part's odd-degree vertices, and join the apexes
into a clique (adding a 3-path padding part when K is even so the apex count
is even). Original vertices end up all-even, apexes all-odd, so the first
move must pick an apex, and picking apex i hands over exactly the value-i
part. The root value is mex{0..K} = K+1.
"""

import json

from vertexnim import (
    MoveRule,
    Position,
    grundy_value,
    MAX_VERTICES,
    iter_bits,
    tower_size,
    witness,
    witness_record,
)

print(f"tower sizes: {[tower_size(k) for k in range(8)]} vertices")
print()

for k in range(5):
    w = witness(k)
    g = w.graph
    print(
        f"witness({k}): {g.n:>2} vertices, {g.edge_count():>2} edges, "
        f"certified grundy {w.k}"
    )
    if w.recipe is None:
        continue
    full = (1 << g.n) - 1
    movable = sorted(iter_bits(g.full_position().movable_vertices(MoveRule.ODD)))
    print(f"   apexes (the only legal first moves): {movable}")
    for part in w.recipe.parts:
        apex = w.recipe.apex_vertex(part.index)
        child = grundy_value(Position(g, full ^ (1 << apex)))
        label = "padding" if part.index < 0 else f"part {part.index}"
        print(
            f"   remove apex {apex:>2} -> revives {label:<7} "
            f"({part.graph.n} vertices), child value {child}"
        )

print()
print("the recipe is a machine-readable audit record:")
print(json.dumps(witness_record(witness(2)), indent=2, sort_keys=True))

print()
for k in (5, 6):
    w = witness(k)
    print(f"witness({k}): {w.graph.n} vertices, certified grundy {w.k}")
try:
    witness(7)
except ValueError as exc:
    print(f"witness(7) is refused at the {MAX_VERTICES}-vertex input limit: {exc}")
