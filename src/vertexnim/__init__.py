"""vertexnim: exact solving, verification, and witness construction for
parity vertex-removal games on undirected graphs.

Both players remove vertices of a prescribed degree parity (odd by default),
deleting incident edges; the last player to move wins. The package computes
Sprague-Grundy values exactly by memoized search with component
decomposition, provides proved closed forms as fast paths, constructs
connected witness graphs for every achievable Grundy value, and ships the
exhaustive suites that check each closed form against brute force.
"""

from .construction import (
    ConstructionError,
    ConstructionRecipe,
    ConstructionSoundnessError,
    RecipePart,
    Witness,
    certify,
    construct_next,
    witness,
    witness_record,
)
from .exhaustive import (
    SWEEP_MAX_N,
    CensusReport,
    CensusRow,
    bipartite_table,
    census,
    grundy_tables,
)
from .families import (
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    grid_graph,
    path_graph,
    star_graph,
)
from .formats import (
    MAX_VERTICES,
    GraphFormatError,
    from_graph6,
    load_graph,
    parse_graph,
    serialize_graph,
    to_graph6,
)
from .graph import (
    Graph,
    MoveRule,
    Position,
    add_isolated_vertices,
    disjoint_union,
    edge_slots,
    from_edge_mask,
    iter_bits,
    to_edge_mask,
)
from .solver import (
    DEFAULT_NODE_BUDGET,
    MemoTable,
    NodeBudgetExceeded,
    SolveReport,
    enumerate_labeled_graphs,
    grundy,
    grundy_even_even,
    grundy_value,
    mex,
    nim_sum,
    solve,
)
from .theorems import (
    CheckFailure,
    TheoremBudgetError,
    TheoremCheckResult,
    TheoremId,
    check_bipartite_parity,
    check_closed_forms,
    check_euler_terminal,
    check_even_even,
    check_isolated_substitution,
    check_nim_sum,
    check_witness_construction,
    closed_form_complete,
    closed_form_complete_bipartite,
    closed_form_path,
    closed_form_star,
    random_bipartite_graph,
    random_graph,
    replace_isolated_with_p3,
    verify_theorem,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
