"""Maximal cliques of a graph given by neighbour bitsets, by Bron-Kerbosch
with Tomita's pivot (CACM 1973; Theor. Comp. Sci. 2006).  satrank.groups finds
the maximal elementary abelian p-subgroups with it, satrank.lie the maximal
elementary subalgebras.
"""

from __future__ import annotations


def _bits(mask):
    """Indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _maximal_cliques(adj):
    """Maximal cliques, as bitsets, of the graph with neighbour bitsets adj, by
    Bron-Kerbosch with Tomita's pivot on an explicit stack (no recursion limit).
    Bit v of adj[v] is ignored, so a reflexive relation can be passed as is."""
    cliques = []
    stack = [(0, (1 << len(adj)) - 1, 0)]
    while stack:
        clique, cand, done = stack.pop()
        if not cand:
            if not done:
                cliques.append(clique)
            continue
        u = max(_bits(cand | done), key=lambda w: (adj[w] & cand).bit_count())
        for v in _bits(cand & ~(adj[u] & ~(1 << u))):
            cand &= ~(1 << v)
            stack.append((clique | 1 << v, cand & adj[v], done & adj[v]))
            done |= 1 << v
    return cliques
