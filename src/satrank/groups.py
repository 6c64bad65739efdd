"""Finite permutation groups and their maximal elementary abelian p-subgroups.

A permutation is an image tuple on {0..degree-1}; composition is
(a * b)(i) = a[b[i]], i.e. b acts first.  Groups are materialized from a
stabilizer chain (deterministic Schreier-Sims) as one product of its
transversals, capped by element_bound, and every listing is sorted
lexicographically on image tuples so output is reproducible.

The saturation rank of the associated constant group scheme is the minimal
rank of a maximal elementary abelian p-subgroup; the dimension of the support
variety is the maximal such rank.  For p prime, the maximal ones are exactly
the sets C | {e} for C a maximal clique of the commuting graph on the elements
of order p: pairwise commuting elements of order p generate a group whose
other elements also have order p and commute with all of C, so maximality of
the clique and of the subgroup each give the other.  The cliques come from
satrank.cliques, the engine that satrank.lie shares, in one search through
one root per conjugacy class of elements of order p.
"""

from __future__ import annotations

import functools
import json
import math
import operator
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .cliques import _bits, _maximal_cliques, _orbit_labels
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
        self._rows = None
        self._elements = None

    def identity(self) -> Perm:
        return tuple(range(self.degree))

    def element_rows(self):
        """All elements as the rows of a read-only uint array, sorted."""
        if self._rows is None:
            self._rows = _element_rows(self.degree, self.generators, self.element_bound)
            self._rows.flags.writeable = False
        return self._rows

    def elements(self):
        """Sorted tuple of all elements."""
        if self._elements is None:
            self._elements = tuple(_tuples(self.element_rows()))
        return self._elements


def _closure(degree, gens, bound=None):
    """Subgroup generated by gens, as a frozenset; BudgetError past bound elements
    (bound None: unbounded, caller-scale only)."""
    return frozenset(_tuples(_element_rows(degree, gens, bound)))


def _tuples(rows):
    """The rows as image tuples, in order, a block of at most _GATHER_CAP
    entries at a time.  Every tuple refers to one shared int object per point:
    above 256, where Python caches no ints, tolist() on the rows themselves
    would make a new int object per entry."""
    points = np.array(range(rows.shape[1]), dtype=object)
    step = max(1, _GATHER_CAP // max(1, rows.shape[1]))
    for lo in range(0, len(rows), step):
        yield from map(tuple, points[rows[lo:lo + step]].tolist())


def _element_rows(degree, gens, bound=None):
    """The subgroup generated by gens as the rows of a uint array, sorted
    lexicographically: one product of the transversals of a stabilizer chain.
    An element is determined by its images of the base points, all below
    max(base) + 1, so the columns up to there sort the rows."""
    base, transversals = _schreier_sims(degree, gens, bound)
    rows = np.arange(degree, dtype=np.min_scalar_type(degree))[None]
    for u in transversals:  # rows[i] o u[j] at i * len(u) + j
        rows = rows[:, u].reshape(-1, degree)
    if base:
        rows = rows[np.lexsort(rows[:, :max(base) + 1].T[::-1])]
    return rows


class _Level(NamedTuple):
    """One level of a stabilizer chain: the orbit of its base point b under its
    generators gens (s x degree), in breadth-first order, with where[x] the
    index of point x in it (-1 off the orbit), transversal rows u with u(b) the
    orbit point, their inverses, and the codes k * s + j of the pairs (orbit
    point k, generator j) off the breadth-first tree, whose Schreier
    generators need checking."""

    gens: np.ndarray
    where: np.ndarray
    u: np.ndarray
    u_inv: np.ndarray
    pairs: np.ndarray


def _basic_orbit(b, gens):
    """The _Level of base point b under gens: the orbit by breadth-first search
    on points, then the transversal rows by one array gather per layer."""
    s, degree = gens.shape
    where = [-1] * degree
    where[b] = 0
    orbit, tree, ends = [b], [], []
    images = gens.tolist()
    lo = 0
    while lo < len(orbit):
        hi = len(orbit)
        for k in range(lo, hi):
            x = orbit[k]
            for j, image in enumerate(images):
                y = image[x]
                if where[y] < 0:
                    where[y] = len(orbit)
                    orbit.append(y)
                    tree.append(k * s + j)
        ends.append(hi)
        lo = hi
    u = np.empty((len(orbit), degree), dtype=gens.dtype)
    u[0] = np.arange(degree)
    tree = np.array(tree, dtype=np.int64)
    k, j = np.divmod(tree, s)
    offset = (j * degree)[:, None]  # of gens[j] in gens flattened
    for lo, hi in zip(ends, ends[1:]):  # s_j o u[k], a layer at a time
        np.take(gens, u[k[lo - 1:hi - 1]] + offset[lo - 1:hi - 1], out=u[lo:hi])
    u_inv = np.empty_like(u)
    u_inv[np.arange(len(u))[:, None], u] = np.arange(degree, dtype=u.dtype)
    return _Level(gens, np.array(where), u, u_inv, np.delete(np.arange(len(u) * s), tree))


def _schreier_sims(degree, gens, bound=None):
    """(base, transversals) of the group generated by gens, by deterministic
    Schreier-Sims (Sims 1970; Holt, Eick and O'Brien, Handbook of Computational
    Group Theory, ch. 4).  Every element is one product u_0 o u_1 o ... of
    transversal rows, one row from each level, so |G| is the product of the
    orbit lengths.

    Levels are verified from the deepest up.  Level i holds when every
    Schreier generator u_{s(x)}^-1 o s o u_x sifts to the identity through
    the levels below it; the tree edges give the identity and are skipped.
    One that does not joins the generators of the levels from i + 1 to where
    its sift stopped (a new base point, its least moved point, past
    the last level), and checking resumes there.  Each orbit lies in the final
    basic orbit of its base point, so the product of the orbit lengths so far
    is a lower bound on |G|: BudgetError as soon as it passes
    max(bound, 1), before any element is listed.
    """
    ident = np.arange(degree, dtype=np.min_scalar_type(degree))
    cap = None if bound is None else max(bound, 1)
    strong = list(dict.fromkeys(g for g in map(tuple, gens) if g != tuple(range(degree))))
    strong = np.array(strong, dtype=ident.dtype).reshape(len(strong), degree)
    base = []
    for g in strong:
        if (g[base] == base).all():
            base.append(int(np.flatnonzero(g != ident)[0]))
    levels = []

    def rebuild(i, gens):
        level = _basic_orbit(base[i], gens)
        if i == len(levels):
            levels.append(level)
        else:
            levels[i] = level
        if cap is not None and math.prod(len(lv.u) for lv in levels) > cap:
            raise BudgetError(f"group closure exceeds element bound {bound}")

    for i in range(len(base)):
        rebuild(i, strong[(strong[:, base[:i]] == base[:i]).all(axis=1)])
    i = len(levels) - 1
    while i >= 0:
        failed = _unsifted_schreier_generator(levels, base, i)
        if failed is None:
            i -= 1
            continue
        h, j = failed
        if j == len(levels):
            base.append(int(np.flatnonzero(h != ident)[0]))
        for l in range(i + 1, j + 1):
            rebuild(l, h[None] if l == len(levels) else np.vstack([levels[l].gens, h]))
        i = j
    return base, [lv.u for lv in levels]


def _unsifted_schreier_generator(levels, base, i):
    """(residue, level) for a non-tree Schreier generator of level i that does
    not sift to the identity through the levels below it, or None when every
    one does.  The generators sift together, a block of at most _GATHER_CAP
    entries at a time: the first to leave the orbit of a level is returned
    with that level, and one that passes them all but is not the identity,
    with len(levels)."""
    level = levels[i]
    s, degree = level.gens.shape
    step = max(1, _GATHER_CAP // degree)
    for lo in range(0, len(level.pairs), step):
        k, j = np.divmod(level.pairs[lo:lo + step], s)
        h = level.gens[j[:, None], level.u[k]]  # s_j o u_k
        h = level.u_inv[level.where[h[:, base[i]]][:, None], h]
        for l in range(i + 1, len(levels)):
            at = levels[l].where[h[:, base[l]]]
            off = np.flatnonzero(at < 0)
            if len(off):
                return h[off[0]], l
            h = levels[l].u_inv[at[:, None], h]
        moved = np.flatnonzero((h != np.arange(degree)).any(axis=1))
        if len(moved):
            return h[moved[0]], len(levels)
    return None


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
    represented by its least member in sorted-element order.

    Every maximal clique is conjugate to one through a root, the least element
    of its conjugacy class, so one clique search through the roots, which
    reads the commuting rows of the roots and their neighbours only, and the
    conjugation orbits of what it finds give them all.  The least clique of a
    class meets a root (its least element is one: conjugating the clique to
    that element's root gives a clique no greater), so it is among those found.
    """
    if not is_prime(p):
        raise PreconditionError(f"p={p} is not prime")
    x = g.element_rows()
    if p > g.degree:  # an element of order p is a product of p-cycles
        return MaximalElemAb([], [])
    y = x
    for _ in range(p - 1):
        y = np.take_along_axis(x, y, axis=1)  # x o x^k = x^(k+1)
    ident = np.arange(g.degree)
    t = x[(y == ident).all(axis=1) & (x != ident).any(axis=1)]  # sorted, as x is
    if not len(t):
        return MaximalElemAb([], [])
    conj = _conjugations(t, g.generators)
    labels = _orbit_labels(len(t), conj)
    roots = np.flatnonzero(labels == np.arange(len(t))).tolist()
    adj = [0] * len(t)
    _commuting_rows(t, roots, adj)
    reach = functools.reduce(operator.or_, (adj[i] for i in roots), 0)
    _commuting_rows(t, [i for i in _bits(reach) if not adj[i]], adj)
    found = sorted(tuple(_bits(c)) for c in _maximal_cliques(adj, None, sum(1 << i for i in roots)))
    perms = [c.tolist() for c in conj]
    reps, seen = [], set()
    for c in found:  # ascending, so the first unseen clique is least in its class
        if c not in seen:
            reps.append(c)
            seen.add(c)
            orbit = [c]
            for s in orbit:  # grows as new conjugates are found
                for perm in perms:
                    image = tuple(sorted([perm[i] for i in s]))
                    if image not in seen:
                        seen.add(image)
                        orbit.append(image)
    cliques = sorted(seen)
    torsion = [tuple(r) for r in t.tolist()]
    subs = {c: _subgroup_from_elements(
        g.degree, p, frozenset([g.identity()] + [torsion[i] for i in c])) for c in cliques}
    return MaximalElemAb([subs[c] for c in reps], [subs[c] for c in cliques])


def _conjugations(t, generators):
    """For each generator h, the index array of h x h^-1 over the rows x of t,
    a union of conjugacy classes: (h x h^-1)(j) = h[x[h^-1[j]]]."""
    width = t.shape[1] * t.itemsize
    index = {r: i for i, r in enumerate(t.view((np.void, width)).ravel().tolist())}
    out = []
    for h in generators:
        image = np.ascontiguousarray(np.array(h, dtype=t.dtype)[t[:, perm_inv(h)]])
        out.append(np.array([index[r] for r in image.view((np.void, width)).ravel().tolist()]))
    return out


def _commuting_rows(t, which, adj):
    """Set adj[i], for i in which, to the bitset of the rows of t that commute
    with row i (i itself included), in blocks of at most _GATHER_CAP entries;
    each product row is compared as one void item."""
    m, n = t.shape
    which = np.asarray(which, dtype=np.int64)
    every = np.arange(m)[None, :, None]
    step = max(1, _GATHER_CAP // (m * n))
    for lo in range(0, len(which), step):
        part = which[lo:lo + step]
        blk = t[part]
        xy = blk[np.arange(len(part))[:, None, None], t]  # [a, j] = x_a o x_j
        yx = t[every, blk[:, None, :]]                    # [a, j] = x_j o x_a
        commute = xy.view((np.void, n * t.itemsize)) == yx.view((np.void, n * t.itemsize))
        rows = np.packbits(commute[..., 0], axis=1, bitorder="little")
        for i, r in zip(part.tolist(), rows):
            adj[i] = int.from_bytes(r.tobytes(), "little")


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
    """S_n on {0..n-1}; S_0 and S_1 are the trivial group."""
    if n < 0:
        raise PreconditionError(f"degree must be >= 0, got {n}")
    if n < 2:
        return PermGroup(n, [])
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
    """(Z/p)^r acting on r disjoint p-cycles; the trivial group at r = 0."""
    if not is_prime(p):
        raise PreconditionError(f"p={p} is not prime")
    if r < 0:
        raise PreconditionError(f"rank must be >= 0, got {r}")
    g = PermGroup(0, [])
    for _ in range(r):
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
