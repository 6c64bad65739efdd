"""Finite permutation groups and their maximal elementary abelian p-subgroups.

A permutation is an image tuple on {0..degree-1}; composition is
(a * b)(i) = a[b[i]], i.e. b acts first.  Groups are materialized by
breadth-first closure over the generators, capped by element_bound, and every
listing is sorted lexicographically on image tuples so output is reproducible.

The saturation rank of the associated constant group scheme is the minimal
rank of a maximal elementary abelian p-subgroup; the dimension of the support
variety is the maximal such rank.  Enumeration works by extension: a set of
pairwise commuting order-p elements generates an elementary abelian group, so
growing seeds by commuting order-p elements (in canonical order) reaches every
maximal subgroup exactly once from its least member.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple

from .errors import BudgetError, PreconditionError
from .fields import is_prime

Perm = tuple

DEFAULT_ELEMENT_BOUND = 20000


def perm_mul(a: Perm, b: Perm) -> Perm:
    return tuple(a[b[i]] for i in range(len(b)))


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
            e = self.identity()
            seen = {e}
            frontier = [e]
            while frontier:
                nxt = []
                for x in frontier:
                    for g in self.generators:
                        y = perm_mul(x, g)
                        if y not in seen:
                            if len(seen) >= self.element_bound:
                                raise BudgetError(
                                    f"group closure exceeds element bound {self.element_bound}")
                            seen.add(y)
                            nxt.append(y)
                frontier = nxt
            self._elements = tuple(sorted(seen))
        return self._elements

    def order(self) -> int:
        return len(self.elements())

    def __contains__(self, perm):
        return tuple(perm) in set(self.elements())


def group_elements(g: PermGroup):
    return g.elements()


def _closure(degree, gens):
    """Subgroup generated by gens, as a frozenset (no bound; caller-scale only)."""
    e = tuple(range(degree))
    seen = {e}
    frontier = [e]
    gens = list(gens)
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = perm_mul(x, g)
                if y not in seen:
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

    def __lt__(self, other):
        return sorted(self.elements) < sorted(other.elements)


def _subgroup_from_elements(degree, p, elems):
    """Wrap a known elementary abelian element set with a minimal generator chain."""
    e = tuple(range(degree))
    gens = []
    have = frozenset({e})
    for x in sorted(elems):
        if x not in have:
            gens.append(x)
            have = _closure(degree, gens)
    rank = len(gens)
    assert len(elems) == p ** rank
    return ElemAbSubgroup(rank=rank, generators=tuple(gens), elements=frozenset(elems))


class MaximalElemAb(NamedTuple):
    representatives: list  # one ElemAbSubgroup per conjugacy class, sorted
    all_subgroups: list    # every maximal elementary abelian subgroup, sorted


def maximal_elemab(g: PermGroup, p: int) -> MaximalElemAb:
    """All maximal elementary abelian p-subgroups, plus conjugacy representatives.

    Complete by construction: any maximal subgroup E is reached from the seed
    min(E) by adjoining the least order-p element of E outside the running
    closure, and such adjoin chains are strictly increasing.
    """
    if not 0 < p:
        raise PreconditionError("p must be a positive prime")
    els = g.elements()
    torsion = sorted(x for x in els if perm_order(x) == p)
    if not torsion:
        return MaximalElemAb([], [])
    idx = {x: i for i, x in enumerate(torsion)}
    n = len(torsion)
    commutes = [0] * n
    for i, x in enumerate(torsion):
        mask = 0
        for j, y in enumerate(torsion):
            if perm_mul(x, y) == perm_mul(y, x):
                mask |= 1 << j
        commutes[i] = mask

    found = {}

    def extend(cur_set, cur_gens, last, allowed):
        # allowed: bitset of torsion elements commuting with everything chosen
        candidates = allowed
        fresh = []
        i = 0
        while candidates:
            b = candidates & -candidates
            i = b.bit_length() - 1
            candidates ^= b
            if torsion[i] not in cur_set:
                fresh.append(i)
        if not fresh:
            key = frozenset(cur_set)
            if key not in found:
                found[key] = _subgroup_from_elements(g.degree, p, cur_set)
            return
        progressed = False
        for i in fresh:
            if i <= last:
                continue
            progressed = True
            x = torsion[i]
            new_set = _closure(g.degree, cur_gens + [x])
            extend(new_set, cur_gens + [x], i, allowed & commutes[i])
        if not progressed:
            # candidates exist but all precede the last adjoin: this chain is a
            # subgroup of a maximal one found along the increasing chain; drop it
            return

    for i in range(n):
        x = torsion[i]
        seed = _closure(g.degree, [x])
        extend(seed, [x], i, commutes[i])

    subs = sorted(found.values())

    # conjugacy classes by brute force over all group elements
    remaining = {frozenset(s.elements): s for s in subs}
    reps = []
    while remaining:
        key = min(remaining, key=lambda fs: sorted(fs))
        rep = remaining.pop(key)
        for h in els:
            hinv = perm_inv(h)
            conj = frozenset(perm_mul(perm_mul(h, x), hinv) for x in key)
            remaining.pop(conj, None)
        reps.append(rep)
    return MaximalElemAb(sorted(reps), subs)


def conjugate_subgroup(sub: ElemAbSubgroup, h: Perm, p: int) -> ElemAbSubgroup:
    hinv = perm_inv(h)
    elems = frozenset(perm_mul(perm_mul(h, x), hinv) for x in sub.elements)
    return _subgroup_from_elements(len(h), p, elems)


def srk_group(g: PermGroup, p: int) -> int:
    """Minimal rank of a maximal elementary abelian p-subgroup."""
    res = maximal_elemab(g, p)
    if not res.all_subgroups:
        raise PreconditionError(f"no element of order {p}: saturation rank undefined at this prime")
    return min(s.rank for s in res.all_subgroups)


def quillen_dim(g: PermGroup, p: int) -> int:
    """Maximal rank of an elementary abelian p-subgroup (support variety dimension)."""
    res = maximal_elemab(g, p)
    if not res.all_subgroups:
        raise PreconditionError(f"no element of order {p}: rank undefined at this prime")
    return max(s.rank for s in res.all_subgroups)


def is_equidimensional(g: PermGroup, p: int) -> bool:
    res = maximal_elemab(g, p)
    if not res.all_subgroups:
        raise PreconditionError(f"no element of order {p}")
    ranks = {s.rank for s in res.all_subgroups}
    return len(ranks) == 1


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
    and p must be prime.
    """
    if isinstance(data, str):
        with open(data) as fp:
            data = json.load(fp)
    try:
        degree = _integer(data["degree"], "degree")
        gens = [[_integer(i, "generator entry") for i in gen] for gen in data["generators"]]
        p = _integer(data["p"], "p")
        bound = _integer(data.get("element_bound", DEFAULT_ELEMENT_BOUND), "element_bound")
    except (KeyError, TypeError) as exc:
        raise PreconditionError(f"malformed group input: {exc}")
    if not is_prime(p):
        raise PreconditionError(f"p={p} is not prime")
    return PermGroup(degree, gens, element_bound=bound), p


def _integer(value, what):
    if isinstance(value, bool) or not isinstance(value, int):
        raise PreconditionError(f"{what} must be an integer, got {value!r}")
    return value


def group_report(g: PermGroup, p: int) -> dict:
    res = maximal_elemab(g, p)
    if not res.all_subgroups:
        return {"srk": None, "quillen_dim": None, "classes": [],
                "equidimensional": None, "note": f"no {p}-torsion"}
    return {
        "srk": min(s.rank for s in res.all_subgroups),
        "quillen_dim": max(s.rank for s in res.all_subgroups),
        "classes": [
            {"rank": s.rank, "generators": [list(x) for x in s.generators]}
            for s in res.representatives
        ],
        "equidimensional": len({s.rank for s in res.all_subgroups}) == 1,
    }
