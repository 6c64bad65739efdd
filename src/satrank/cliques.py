"""Maximal cliques of a graph given by neighbour bitsets, by Bron-Kerbosch
with Tomita's pivot (CACM 1973; Theor. Comp. Sci. 2006).  satrank.groups finds
the maximal elementary abelian p-subgroups with it, satrank.lie the maximal
elementary subalgebras.

Two standard reductions cut the search tree, and both hold for any graph.  A
node with a `done` vertex adjacent to every candidate is dropped: each clique
below it extends by that vertex, so none is maximal.  A candidate adjacent to
every other candidate lies in every maximal clique below the node, so all
such candidates join the clique in one step; on the commuting graphs of
satrank.lie this replaces a chain of single-child nodes per vertex of a
subspace.

A search can be restricted to the maximal cliques that meet a set of roots.
Its top node then branches over the roots instead of over the pivot's
non-neighbours, as Bron-Kerbosch's own top loop does over every vertex: root
v's node has the roots before v as done, so a clique is found once, under its
least root.  That search reads adj only at the roots and their neighbours,
and its callers build only those rows: satrank.lie passes one root per
automorphism orbit of classes, satrank.groups one per conjugacy class of
elements of order p, both from _orbit_labels.
"""

from __future__ import annotations

import numpy as np

from .errors import BudgetError


def _bits(mask):
    """Indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _maximal_cliques(adj, limit=None, roots=None):
    """Maximal cliques, as bitsets, of the graph with neighbour bitsets adj, by
    Bron-Kerbosch with Tomita's pivot on an explicit stack (no recursion limit).
    Bit v of adj[v] is ignored, so a reflexive relation can be passed as is.
    With a roots bitset that leaves out some vertex, only the maximal cliques
    that meet roots are found, each once, and adj is read only at the roots
    and their neighbours.

    A node (clique, cand, done) is dropped when a done vertex x is adjacent to
    every candidate: every clique below it extends by x.  A candidate w with
    no non-neighbour in cand but itself lies in every maximal clique below, so
    all such w move into the clique at once and done keeps only their common
    neighbours; the reduced node is pushed again, since its pivot comes from
    the smaller cand | done (no new universal candidate appears there: one
    would have been adjacent to the moved ones too).  The cliques come in no
    particular order.  Past limit visited nodes, BudgetError.
    """
    everything = (1 << len(adj)) - 1
    cliques = []
    nodes, limit = 0, float("inf") if limit is None else limit
    tops = [(0, everything, 0)] if roots in (None, everything) else _root_nodes(adj, roots)
    for top in tops:
        stack = [top]
        while stack:
            clique, cand, done = stack.pop()
            nodes += 1
            if nodes > limit:
                raise BudgetError(f"maximal cliques: {nodes} nodes visited > budget {limit}, "
                                  f"{len(cliques)} cliques found so far")
            if not cand:
                if not done:
                    cliques.append(clique)
                continue
            rest = done  # highest vertex first: half the tests of lowest first on h_7/F_3
            while rest:
                x = rest.bit_length() - 1
                if not cand & ~adj[x]:
                    break
                rest ^= 1 << x
            if rest:  # x is adjacent to every candidate
                continue
            least, best, u, universal = cand.bit_count() - 1, -1, 0, 0
            for w in _bits(cand | done):
                k = (adj[w] & cand).bit_count()
                if k > best:
                    best, u = k, w
                if k >= least and not cand & ~adj[w] & ~(1 << w):  # never a done w: dropped above
                    universal |= 1 << w
            if universal:
                for w in _bits(universal):
                    done &= adj[w]
                stack.append((clique | universal, cand & ~universal, done))
                continue
            for v in _bits(cand & ~(adj[u] & ~(1 << u))):
                cand &= ~(1 << v)
                stack.append((clique | 1 << v, cand & adj[v], done & adj[v]))
                done |= 1 << v
    return cliques


def _root_nodes(adj, roots):
    """The top node's children, one per root v in ascending order: the clique
    {v}, the neighbours of v after it as candidates, those before it as done."""
    earlier = 0
    for v in _bits(roots):
        nbrs = adj[v] & ~(1 << v)
        yield 1 << v, nbrs & ~earlier, nbrs & earlier
        earlier |= 1 << v


def _orbit_labels(n, images):
    """labels[i], the least vertex in the orbit of vertex i under the
    permutations images (index arrays on range(n)).

    Each label takes the least label of its vertex's images until nothing
    changes.  The labels then hold the least vertex reachable by words in the
    images: in a finite permutation group, the orbit.  The vertices with
    labels[i] == i are roots for _maximal_cliques when the images preserve
    the graph.
    """
    labels = np.arange(n)
    while True:
        old = labels
        for image in images:
            labels = np.minimum(labels, labels[image])
        if (labels == old).all():
            return labels
