import numpy as np
import pytest

from expander_cutoff import ConstructionParams, build
from expander_cutoff.graphs import GraphBuilder


def graph_from_edges(n, edges):
    b = GraphBuilder()
    b.add_vertices(n)
    b.add_edge_array([u for u, _ in edges], [v for _, v in edges])
    return b.finish()


def adjacency_dense(g):
    a = np.zeros((g.vertex_count,) * 2)
    a[np.repeat(np.arange(len(a)), g.degrees()), g.indices] = 1.0
    return a


def dense_extremes(g):
    """(second largest, smallest) adjacency eigenvalues by dense eigvalsh:
    the reference the Lanczos eigensolve is held to."""
    w = np.linalg.eigvalsh(adjacency_dense(g))
    return float(w[-2]), float(w[0])


def complete_graph(n):
    return graph_from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def cycle_graph(n):
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def hypercube_graph(k):
    return graph_from_edges(1 << k, [(u, u | 1 << i) for u in range(1 << k)
                                     for i in range(k) if not u >> i & 1])


def complete_bipartite_graph(a, b):
    return graph_from_edges(a + b, [(u, a + v) for u in range(a)
                                    for v in range(b)])


def petersen_graph():
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return graph_from_edges(10, edges)


@pytest.fixture(scope="session")
def k4():
    return complete_graph(4)


@pytest.fixture(scope="session")
def petersen():
    return petersen_graph()


@pytest.fixture(scope="session")
def five_reg_h1():
    return build(ConstructionParams(h=1, L=2))


@pytest.fixture(scope="session")
def five_reg_h2():
    return build(ConstructionParams(h=2, L=2))


@pytest.fixture(scope="session")
def cubic_h2():
    return build(ConstructionParams(h=2, L=2, variant="cubic"))


@pytest.fixture(scope="session")
def cubic_h3():
    return build(ConstructionParams(h=3, L=2, variant="cubic"))


@pytest.fixture(scope="session")
def cubic_h4():
    return build(ConstructionParams(h=4, L=3, variant="cubic"))


@pytest.fixture(scope="session")
def no_cutoff_h2():
    return build(ConstructionParams(h=2, L=2, L_prime=4, variant="no_cutoff"))
