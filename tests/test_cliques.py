import itertools
import random

import networkx as nx
import pytest

from satrank import BudgetError
from satrank.cliques import _maximal_cliques


def test_self_bits_are_ignored():
    # satrank.lie passes its commuting masks, which contain each class's own
    # bit; the cliques must be those of the graph without loops
    rng = random.Random(5)
    for n in range(1, 12):
        for _ in range(6):
            edges = {(i, j) for i, j in itertools.combinations(range(n), 2) if rng.random() < 0.6}
            adj = [sum(1 << j for j in range(n) if (min(i, j), max(i, j)) in edges)
                   for i in range(n)]
            loops = [m | 1 << i for i, m in enumerate(adj)]
            assert sorted(_maximal_cliques(loops)) == sorted(_maximal_cliques(adj))


def _adj(n, edges, loops):
    """Neighbour bitsets of the graph on range(n), each with its own bit if loops."""
    adj = [1 << i if loops else 0 for i in range(n)]
    for i, j in edges:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return adj


def _check_against_networkx(n, edges):
    """The engine's cliques are networkx's, each once, with and without self bits."""
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from(edges)
    expected = {frozenset(c) for c in nx.find_cliques(graph)}
    for loops in (False, True):
        found = [frozenset(i for i in range(n) if c >> i & 1)
                 for c in _maximal_cliques(_adj(n, edges, loops))]
        assert len(found) == len(set(found)) and set(found) == expected


# densities up to 0.7 at n = 60 stay within about 13k maximal cliques; 0.9
# has 661k there, so the densest graphs stop at 30 vertices
@pytest.mark.parametrize("density", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_random_graphs_match_networkx(density):
    rng = random.Random(f"cliques:{density}")
    for n in (1, 2, 3, 7, 15, 30) + ((45, 60) if density < 0.9 else ()):
        for _ in range(3):
            edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < density]
            _check_against_networkx(n, edges)


def _complete(vertices):
    return list(itertools.combinations(vertices, 2))


def _multipartite(sizes):
    part = [k for k, size in enumerate(sizes) for _ in range(size)]
    return len(part), [(i, j) for i, j in _complete(range(len(part))) if part[i] != part[j]]


def _disjoint_cliques(sizes):
    starts = list(itertools.accumulate(sizes, initial=0))
    return starts[-1], [e for a, b in zip(starts, starts[1:]) for e in _complete(range(a, b))]


def _with_twins(n, edges, twins, adjacent):
    """The graph with a twin n + t of each vertex v = twins[t] (pairwise
    non-adjacent): the same neighbours, and v too if adjacent."""
    extra = [(u, n + t) for t, v in enumerate(twins) for e in edges if v in e
             for u in e if u != v]
    extra += [(v, n + t) for t, v in enumerate(twins) if adjacent]
    return n + len(twins), edges + extra


def _with_universal(n, edges, count):
    """The graph with count more vertices, each adjacent to every other vertex."""
    return n + count, edges + [(v, n + u) for u in range(count) for v in range(n + u)]


def _path(n):
    return n, [(i, i + 1) for i in range(n - 1)]


_STRUCTURED = {
    "complete_1": (1, []),
    "complete_9": (9, _complete(range(9))),
    "multipartite_3_3_3": _multipartite([3, 3, 3]),
    "multipartite_2x6": _multipartite([2] * 6),
    "multipartite_1_2_4": _multipartite([1, 2, 4]),
    "disjoint_cliques_4x5": _disjoint_cliques([4] * 5),
    "disjoint_cliques_1_2_3_6": _disjoint_cliques([1, 2, 3, 6]),
    "path_twins_joined": _with_twins(*_path(7), [0, 3, 6], adjacent=True),
    "path_twins_apart": _with_twins(*_path(7), [0, 3, 6], adjacent=False),
    "multipartite_twins": _with_twins(*_multipartite([2, 3]), [0, 2], adjacent=True),
    "path_universal_2": _with_universal(*_path(6), 2),
    "disjoint_cliques_universal_3": _with_universal(*_disjoint_cliques([3, 3, 2]), 3),
    "multipartite_universal": _with_universal(*_multipartite([2, 2, 3]), 1),
}


@pytest.mark.parametrize("name", sorted(_STRUCTURED))
def test_structured_graphs_match_networkx(name):
    # universal candidates are absorbed on all but the equal-part multipartite
    # graphs, and dominated nodes are dropped on the disjoint cliques and the
    # joined twins
    _check_against_networkx(*_STRUCTURED[name])


def test_complete_graph_is_absorbed_at_the_root():
    # every vertex is universal at the root, so the root and the one reduced
    # node are all that is visited
    for loops in (False, True):
        adj = _adj(300, _complete(range(300)), loops)
        assert _maximal_cliques(adj, 2) == [(1 << 300) - 1]
        with pytest.raises(BudgetError, match=r"maximal cliques: 2 nodes visited > budget 1, "
                                              r"0 cliques found so far"):
            _maximal_cliques(adj, 1)


def _check_roots_against_networkx(n, edges, roots):
    """With roots, the engine finds networkx's cliques that meet roots, each
    once, and reads adj only at the roots and their neighbours: the other
    bitsets are zeroed here."""
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from(edges)
    expected = {frozenset(c) for c in nx.find_cliques(graph) if roots & set(c)}
    reach = set(roots).union(*(graph[v] for v in roots))
    for loops in (False, True):
        adj = [m if v in reach else 0 for v, m in enumerate(_adj(n, edges, loops))]
        found = [frozenset(i for i in range(n) if c >> i & 1)
                 for c in _maximal_cliques(adj, None, sum(1 << v for v in roots))]
        assert len(found) == len(set(found)) and set(found) == expected


@pytest.mark.parametrize("density", [0.1, 0.3, 0.5, 0.7])
def test_root_restricted_random_graphs_match_networkx(density):
    rng = random.Random(f"roots:{density}")
    for n in (1, 2, 3, 7, 15, 30, 45):
        for _ in range(3):
            edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < density]
            for count in sorted({0, 1, rng.randint(1, n), n}):
                _check_roots_against_networkx(n, edges, set(rng.sample(range(n), count)))


@pytest.mark.parametrize("name", sorted(_STRUCTURED))
def test_root_restricted_structured_graphs_match_networkx(name):
    n, edges = _STRUCTURED[name]
    rng = random.Random(name)
    for count in sorted({c for c in (1, 2, n // 2, n - 1, n) if 0 < c <= n}):
        _check_roots_against_networkx(n, edges, set(rng.sample(range(n), count)))


def test_node_limit_reports_progress():
    n, edges = _disjoint_cliques([3] * 40)
    adj = _adj(n, edges, False)
    assert len(_maximal_cliques(adj)) == 40
    with pytest.raises(BudgetError) as exc:
        _maximal_cliques(adj, 30)
    message = str(exc.value)
    assert message.startswith("maximal cliques: 31 nodes visited > budget 30, ")
    found = int(message.rsplit(", ", 1)[1].split()[0])
    assert 0 < found < 40


def test_node_limit_holds_with_roots():
    # one root per triangle: every clique is found, each from its root's node,
    # and the limit counts those nodes too
    n, edges = _disjoint_cliques([3] * 40)
    adj = _adj(n, edges, False)
    roots = sum(1 << v for v in range(0, n, 3))
    assert sorted(_maximal_cliques(adj, None, roots)) == sorted(_maximal_cliques(adj))
    with pytest.raises(BudgetError, match=r"^maximal cliques: 31 nodes visited > budget 30, "):
        _maximal_cliques(adj, 30, roots)
