"""Naive engines used only to cross-check the structured computations.

These deliberately take the slow road: the group-side oracle enumerates the
full subgroup lattice by closing cyclic subgroups under joins before
filtering; the Lie-side oracle enumerates elementary subalgebras as explicit
point sets of subspaces, checking membership and commutativity pointwise
instead of on bases.  Agreement with the optimized modules is the evidence.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import BudgetError, PreconditionError
from .fields import FieldSpec, Mat, mat_is_p_nilpotent
from .groups import PermGroup, _closure, _subgroup_from_elements, perm_mul, perm_order
from .lie import RestrictedLieAlgebra


@dataclass(frozen=True)
class SearchBudget:
    max_points: int = 10 ** 6
    max_depth: int = 8
    deterministic_seed: int = 0

    def __post_init__(self):
        if self.max_points <= 0 or self.max_depth <= 0:
            raise PreconditionError("budget caps must be positive")


def all_subgroups(g: PermGroup, cap: int = 5000):
    """Every subgroup, by joining cyclic subgroups until the lattice closes."""
    els = g.elements()
    if len(els) > cap:
        raise BudgetError(f"group order {len(els)} exceeds oracle cap {cap}")
    e = g.identity()
    cyclics = {}
    for x in els:
        c = _closure(g.degree, [x])
        cyclics[c] = min(cyclics.get(c, x), x)
    lattice = {frozenset({e})} | set(cyclics)
    frontier = list(cyclics)
    while frontier:
        new = []
        for h in list(lattice):
            for c in cyclics:
                if c <= h:
                    continue
                j = _closure(g.degree, [cyclics[c]] + sorted(h))
                if j not in lattice:
                    lattice.add(j)
                    new.append(j)
        frontier = new
    return sorted(lattice, key=lambda s: (len(s), sorted(s)))


def oracle_maximal_elemab(g: PermGroup, p: int, cap: int = 5000):
    """Maximal elementary abelian p-subgroups from the full subgroup lattice."""
    e = g.identity()
    elem_ab = []
    for h in all_subgroups(g, cap=cap):
        members = sorted(h)
        if not all(x == e or perm_order(x) == p for x in members):
            continue
        if any(perm_mul(x, y) != perm_mul(y, x) for x in members for y in members):
            continue
        elem_ab.append(h)
    maximal = [h for h in elem_ab if not any(h < other for other in elem_ab)]
    if maximal == [frozenset({e})]:
        return []
    return sorted(_subgroup_from_elements(g.degree, p, h) for h in maximal)


def _vec_add(f, u, v):
    return tuple(f.add(a, b) for a, b in zip(u, v))


def _vec_scale(f, c, u):
    return tuple(f.mul(c, a) for a in u)


def _canonical_projective(f, v):
    """Scale v so its first nonzero coordinate is 1."""
    for c in v:
        if c:
            return _vec_scale(f, f.inv(c), v)
    return v


def _nullcone_points(g: RestrictedLieAlgebra, budget: SearchBudget):
    total = g.element_count()
    if total > budget.max_points:
        raise BudgetError(f"{total} points exceed the oracle cap {budget.max_points}")
    pts = []
    for x in g.iter_elements():
        if not any(g.pmap_eval(x)):
            pts.append(x)
    return pts


def oracle_srk_lie(g: RestrictedLieAlgebra, budget: SearchBudget = SearchBudget()) -> int:
    """Minimum over nonzero nullcone points of the largest elementary subalgebra
    dimension containing the point, by enumerating subalgebras as subspaces.

    Subspaces are grown one projective point at a time and kept only if every
    point lies in the nullcone and every pair of points commutes.
    """
    f = g.field
    pts = _nullcone_points(g, budget)
    vset = set(pts)
    nonzero = [v for v in pts if any(v)]
    if not nonzero:
        return 0
    reps = sorted({_canonical_projective(f, v) for v in nonzero})

    def span_points(basis):
        acc = [g.zero()]
        for v in basis:
            acc = acc + [_vec_add(f, w, _vec_scale(f, c, v))
                         for w in acc for c in range(1, f.q)]
        return acc

    def is_elementary_pointwise(points):
        for u in points:
            if u not in vset:
                return False
        for i, u in enumerate(points):
            for v in points[i + 1:]:
                if any(g.bracket(u, v)):
                    return False
        return True

    best = {v: 1 for v in reps}
    seen = set()
    examined = 0
    stack = [((), (g.zero(),))]
    while stack:
        basis, points = stack.pop()
        start = reps.index(basis[-1]) + 1 if basis else 0
        for idx in range(start, len(reps)):
            y = reps[idx]
            if y in points:
                continue
            nb = basis + (y,)
            np_ = span_points(nb)
            examined += 1
            if examined > budget.max_points:
                raise BudgetError("oracle subspace enumeration exceeded its cap")
            if not is_elementary_pointwise(np_):
                continue
            key = frozenset(np_)
            if key in seen:
                continue
            seen.add(key)
            d = len(nb)
            for w in np_:
                if any(w):
                    r = _canonical_projective(f, w)
                    if best[r] < d:
                        best[r] = d
            if d < budget.max_depth:
                stack.append((nb, tuple(np_)))
    return min(best.values())


@dataclass(frozen=True)
class CommutingPairsResult:
    count: int | None     # exact count in exhaustive mode, None when sampled
    samples: tuple        # NilPair-compatible (Mat, Mat) tuples
    exhaustive: bool


def oracle_commuting_pairs(n: int, field: FieldSpec, cap: int = 10 ** 6,
                           budget: SearchBudget = SearchBudget()) -> CommutingPairsResult:
    """Count (n = 2, exhaustive) or sample (n >= 3) commuting p-nilpotent pairs."""
    f = field
    if n == 2:
        import itertools
        nilpotents = []
        for a, b, c in itertools.product(f.elements(), repeat=3):
            m = Mat.from_rows(f, [[a, b], [c, f.neg(a)]])
            if mat_is_p_nilpotent(m, f.p):
                nilpotents.append(m)
        if len(nilpotents) ** 2 > cap:
            raise BudgetError("exhaustive pair count exceeds the cap")
        count = 0
        samples = []
        for x in nilpotents:
            for y in nilpotents:
                if (x @ y - y @ x).is_zero():
                    count += 1
                    if len(samples) < 8:
                        samples.append((x, y))
        return CommutingPairsResult(count=count, samples=tuple(samples), exhaustive=True)
    rng = random.Random(budget.deterministic_seed)
    samples = []
    attempts = 0
    import numpy as np
    while len(samples) < 16 and attempts < 4000:
        attempts += 1
        a0 = np.zeros((n, n), dtype=np.int64)
        for i in range(n):
            for j in range(i + 1, n):
                a0[i, j] = rng.randrange(f.q)
        m0 = Mat(f, a0)
        if not mat_is_p_nilpotent(m0, f.p):
            continue
        m1 = Mat.zeros(f, n, n)
        power = m0
        for _ in range(n - 1):
            m1 = m1 + power.scale(rng.randrange(f.q))
            power = power @ m0
        if not mat_is_p_nilpotent(m1, f.p):
            continue
        # conjugate by a random product of transvections (determinant one)
        gmat = Mat.identity(f, n)
        ginv = Mat.identity(f, n)
        for _ in range(2 * n):
            i, j = rng.randrange(n), rng.randrange(n)
            if i == j:
                continue
            c = rng.randrange(f.q)
            t = np.eye(n, dtype=np.int64)
            t[i, j] = c
            tinv = np.eye(n, dtype=np.int64)
            tinv[i, j] = f.neg(c)
            gmat = gmat @ Mat(f, t)
            ginv = Mat(f, tinv) @ ginv
        x = gmat @ m0 @ ginv
        y = gmat @ m1 @ ginv
        if (x @ y - y @ x).is_zero() and x.trace() == 0 and y.trace() == 0:
            samples.append((x, y))
    return CommutingPairsResult(count=None, samples=tuple(samples), exhaustive=False)
