import pytest
from hypothesis import strategies as st

from vertexnim import MoveRule, Position, from_edge_mask, grundy_tables


@st.composite
def graphs(draw, max_n=7):
    """Arbitrary labeled graph via a random edge mask."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    mask = draw(st.integers(min_value=0, max_value=(1 << (n * (n - 1) // 2)) - 1))
    return from_edge_mask(n, mask)


@st.composite
def positions(draw, max_n=7):
    g = draw(graphs(max_n=max_n))
    alive = draw(st.integers(min_value=0, max_value=(1 << g.n) - 1))
    return Position(g, alive)


rules = st.sampled_from([MoveRule.ODD, MoveRule.EVEN])


@pytest.fixture
def witness_lie(monkeypatch):
    """``plant(n, kind)`` flips the value that certification solves for every
    ``kind`` on the ``n``-vertex witness graph: its root for ``Graph``, each
    apex child for ``Position``."""
    from vertexnim import construction

    solve = construction.grundy_value

    def plant(n, kind=Position):
        def lie(position, **kwargs):
            host = position.graph if isinstance(position, Position) else position
            flip = isinstance(position, kind) and host.n == n
            return solve(position, **kwargs) ^ flip

        monkeypatch.setattr(construction, "grundy_value", lie)

    return plant


@pytest.fixture(scope="session")
def odd_tables():
    return grundy_tables(7, MoveRule.ODD)


@pytest.fixture(scope="session")
def even_tables():
    return grundy_tables(7, MoveRule.EVEN)
