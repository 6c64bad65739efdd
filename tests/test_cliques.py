import itertools
import random

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

