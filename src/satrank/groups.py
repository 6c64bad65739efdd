"""Finite permutation groups and their maximal elementary abelian p-subgroups.

A permutation is an image tuple on {0..degree-1}; composition is
(a * b)(i) = a[b[i]], i.e. b acts first.  Groups are materialized by
breadth-first closure over the generators, capped by element_bound, and every
listing is sorted lexicographically on image tuples so output is reproducible.

The saturation rank of the associated constant group scheme is the minimal
rank of a maximal elementary abelian p-subgroup; the dimension of the support
variety is the maximal such rank.  For p prime, the maximal ones are exactly
the sets C | {e} for C a maximal clique of the commuting graph on the elements
of order p: pairwise commuting elements of order p generate a group whose
other elements also have order p and commute with all of C, so maximality of
the clique and of the subgroup each give the other.  The cliques come from
satrank.cliques, the engine that satrank.lie shares.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .cliques import _bits, _maximal_cliques
from .errors import BudgetError, PreconditionError, expect
from .fields import is_prime

Perm = tuple

DEFAULT_ELEMENT_BOUND = 20000
_GATHER_CAP = 1 << 18  # entries per block of products in the commuting test


def perm_mul(a: Perm, b: Perm) -> Perm:
    """The composite a . b, i -> a[b[i]]."""
    return tuple([a[i] for i in b])  # a list comprehension: half the cost of a generator


def perm_inv(a: Perm) -> Perm:
    out = [0] * len(a)
    for i, ai in enumerate(a):
        out[ai] = i
    return tuple(out)


def perm_order(a: Perm) -> int:
    e = tuple(range(len(a)))
    n, x = 1, a
    while x != e:
        x = perm_mul(x, a)
        n += 1
    return n


def _check_perm(images, degree):
    t = tuple(int(i) for i in images)
    if len(t) != degree or sorted(t) != list(range(degree)):
        raise PreconditionError(f"not a permutation of degree {degree}: {images}")
    return t


class PermGroup:
    """Finite group given by permutation generators; elements cached on demand."""

    def __init__(self, degree: int, generators, element_bound: int = DEFAULT_ELEMENT_BOUND):
        self.degree = int(degree)
        self.generators = [_check_perm(g, self.degree) for g in generators]
        self.element_bound = element_bound
        self._elements = None

    def identity(self) -> Perm:
        return tuple(range(self.degree))

    def elements(self):
        """Sorted tuple of all elements (BFS closure, deterministic)."""
        if self._elements is None:
            members = _closure(self.degree, self.generators, self.element_bound)
            self._elements = tuple(sorted(members))
        return self._elements


def _closure(degree, gens, bound=None):
    """Subgroup generated by gens, as a frozenset; BudgetError past bound elements
    (bound None: unbounded, caller-scale only).  x o g is itemgetter(*g)(x),
    built in C; degrees 0 and 1 have only the identity, and there itemgetter
    would not return a tuple."""
    e = tuple(range(degree))
    seen = {e}
    if degree < 2:
        return frozenset(seen)
    frontier = [e]
    right = [itemgetter(*g) for g in gens]
    while frontier:
        nxt = []
        for x in frontier:
            for g in right:
                y = g(x)
                if y not in seen:
                    if bound is not None and len(seen) >= bound:
                        raise BudgetError(f"group closure exceeds element bound {bound}")
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return frozenset(seen)


@dataclass(frozen=True)
class ElemAbSubgroup:
    """Elementary abelian p-subgroup: rank, generating set, full element set."""

    rank: int
    generators: tuple
    elements: frozenset

    def validate(self, p: int):
        e = tuple(range(len(next(iter(self.elements)))))
        assert len(self.elements) == p ** self.rank
        for x in self.elements:
            assert x == e or perm_order(x) == p
            for y in self.elements:
                assert perm_mul(x, y) == perm_mul(y, x)
                assert perm_mul(x, y) in self.elements
        # generator independence: dropping any generator shrinks the group
        for i in range(len(self.generators)):
            rest = self.generators[:i] + self.generators[i + 1:]
            sub = _closure(len(e), rest) if rest else frozenset({e})
            assert self.generators[i] not in sub


def _subgroup_from_elements(degree, p, elems):
    """Wrap a known elementary abelian element set with a minimal generator chain:
    the greedy chain over the sorted elements, each new generator x growing the
    span H to H | Hx | ... | Hx^(p-1)."""
    gens = []
    have = {tuple(range(degree))}
    for x in sorted(elems):
        if x not in have:
            gens.append(x)
            times_x, coset = itemgetter(*x), list(have)
            for _ in range(p - 1):
                coset = list(map(times_x, coset))
                have.update(coset)
    rank = len(gens)
    assert len(elems) == p ** rank
    return ElemAbSubgroup(rank=rank, generators=tuple(gens), elements=frozenset(elems))


class MaximalElemAb(NamedTuple):
    representatives: list  # one ElemAbSubgroup per conjugacy class, sorted
    all_subgroups: list    # every maximal elementary abelian subgroup, sorted


def maximal_elemab(g: PermGroup, p: int) -> MaximalElemAb:
    """All maximal elementary abelian p-subgroups, plus conjugacy representatives:
    the sets C | {e} for the maximal cliques C of the commuting graph (module
    docstring).  Classes are orbits under conjugation by the generators, each
    represented by its least member in sorted-element order."""
    if not is_prime(p):
        raise PreconditionError(f"p={p} is not prime")
    els = g.elements()
    if p > g.degree:  # an element of order p is a product of p-cycles
        return MaximalElemAb([], [])
    x = y = np.array(els, dtype=np.min_scalar_type(g.degree))  # uint8 below degree 256
    for _ in range(p - 1):
        y = np.take_along_axis(x, y, axis=1)  # x o x^k = x^(k+1)
    ident = np.arange(g.degree)
    t = x[(y == ident).all(axis=1) & (x != ident).any(axis=1)]  # sorted, as els is
    if not len(t):
        return MaximalElemAb([], [])
    adj = []
    step = max(1, _GATHER_CAP // (len(t) * g.degree))
    for lo in range(0, len(t), step):  # neighbours of x_i: the x_j != x_i with x_i x_j == x_j x_i
        blk = t[lo:lo + step]
        commute = (blk[:, t] == t[:, blk].swapaxes(0, 1)).all(axis=2)
        rows = np.packbits(commute, axis=1, bitorder="little")
        adj += [int.from_bytes(r.tobytes(), "little") ^ 1 << i for i, r in enumerate(rows, lo)]
    cliques = sorted(_maximal_cliques(adj), key=lambda c: list(_bits(c)))  # as sorted elements
    torsion = [tuple(r) for r in t.tolist()]
    index = {z: i for i, z in enumerate(torsion)}
    conj = [[index[tuple(r)] for r in np.array(h)[t[:, perm_inv(h)]].tolist()]
            for h in g.generators]  # (h x h^-1)(j) = h[x[h^-1[j]]]
    reps, seen = [], set()
    for c in cliques:  # ascending, so the first unseen clique is least in its class
        if c not in seen:
            reps.append(c)
            seen.add(c)
            orbit = [c]
            for s in orbit:  # grows as new conjugates are found
                for perm in conj:
                    image = sum(1 << perm[i] for i in _bits(s))
                    if image not in seen:
                        seen.add(image)
                        orbit.append(image)
    subs = {c: _subgroup_from_elements(
        g.degree, p, frozenset([g.identity()] + [torsion[i] for i in _bits(c)])) for c in cliques}
    return MaximalElemAb([subs[c] for c in reps], [subs[c] for c in cliques])


class GroupRanks(NamedTuple):
    srk: int
    quillen_dim: int
    equidimensional: bool
    elemab: MaximalElemAb


def group_ranks(g: PermGroup, p: int):
    """GroupRanks from one maximal_elemab call, or None if G has no element of order p.

    srk is the minimal rank of a maximal elementary abelian p-subgroup,
    quillen_dim the maximal one (the support variety dimension), and
    equidimensional whether they agree.
    """
    res = maximal_elemab(g, p)
    ranks = {s.rank for s in res.all_subgroups}
    return GroupRanks(min(ranks), max(ranks), len(ranks) == 1, res) if ranks else None


# ---------------------------------------------------------------------------
# constructors for common test groups
# ---------------------------------------------------------------------------

def cyclic(n: int) -> PermGroup:
    return PermGroup(n, [tuple((i + 1) % n for i in range(n))])

def dihedral_square() -> PermGroup:
    """D8 acting on the vertices of a square: a = rotation, b = diagonal flip."""
    a = (1, 2, 3, 0)
    b = (0, 3, 2, 1)
    return PermGroup(4, [a, b])

def quaternion8() -> PermGroup:
    # regular representation on {1,-1,i,-i,j,-j,k,-k}; left multiplication by i, j
    i = (2, 3, 1, 0, 6, 7, 5, 4)
    j = (4, 5, 7, 6, 1, 0, 2, 3)
    return PermGroup(8, [i, j])

def symmetric(n: int) -> PermGroup:
    swap = tuple([1, 0] + list(range(2, n)))
    cyc = tuple(list(range(1, n)) + [0])
    return PermGroup(n, [swap, cyc] if n > 2 else [swap])

def direct_product(a: PermGroup, b: PermGroup) -> PermGroup:
    d = a.degree + b.degree
    gens = []
    for g in a.generators:
        gens.append(tuple(list(g) + [a.degree + i for i in range(b.degree)]))
    for g in b.generators:
        gens.append(tuple(list(range(a.degree)) + [a.degree + x for x in g]))
    return PermGroup(d, gens)

def elementary_abelian(p: int, r: int) -> PermGroup:
    g = cyclic(p)
    for _ in range(r - 1):
        g = direct_product(g, cyclic(p))
    return g


# ---------------------------------------------------------------------------
# JSON interface
# ---------------------------------------------------------------------------

def load_group(data) -> tuple:
    """Parse {"degree": n, "generators": [[...], ...], "p": p}; returns (group, p).

    degree, p, element_bound and every generator entry must be JSON integers,
    and p must be prime, and degree and element_bound must be >= 0.  A degree above
    element_bound raises BudgetError before any permutation is built: every
    permutation has degree entries.
    """
    if isinstance(data, str):
        with open(data) as fp:
            data = json.load(fp)
    try:
        degree = expect(data["degree"], int, "degree")
        gens = [[expect(i, int, "generator entry") for i in gen] for gen in data["generators"]]
        p = expect(data["p"], int, "p")
        bound = expect(data.get("element_bound", DEFAULT_ELEMENT_BOUND), int, "element_bound")
    except (KeyError, TypeError) as exc:
        raise PreconditionError(f"malformed group input: {exc}")
    if not is_prime(p):
        raise PreconditionError(f"p={p} is not prime")
    if bound < 0:
        raise PreconditionError(f"element_bound must be >= 0, got {bound}")
    if degree < 0:
        raise PreconditionError(f"degree must be >= 0, got {degree}")
    if degree > bound:
        raise BudgetError(f"degree {degree} exceeds element bound {bound}")
    return PermGroup(degree, gens, element_bound=bound), p


def group_report(g: PermGroup, p: int) -> dict:
    ranks = group_ranks(g, p)
    if ranks is None:
        return {"srk": None, "quillen_dim": None, "classes": [],
                "equidimensional": None, "note": f"no {p}-torsion"}
    return {
        "srk": ranks.srk,
        "quillen_dim": ranks.quillen_dim,
        "classes": [
            {"rank": s.rank, "generators": [list(x) for x in s.generators]}
            for s in ranks.elemab.representatives
        ],
        "equidimensional": ranks.equidimensional,
    }
