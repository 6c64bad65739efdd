import ast

import pytest

from satrank import BudgetError, PreconditionError, oracle
from satrank.fields import field_make, mat_is_p_nilpotent
from satrank.groups import (
    cyclic,
    dihedral_square,
    direct_product,
    elementary_abelian,
    maximal_elemab,
    perm_inv,
    perm_mul,
    quaternion8,
    symmetric,
)
from satrank.lie import (
    RestrictedLieAlgebra,
    abelian_p_trivial,
    heisenberg,
    special_linear,
    srk_brute,
)
from satrank.oracle import (
    SearchBudget,
    all_subgroups,
    oracle_commuting_pairs,
    oracle_maximal_elemab,
    oracle_srk_lie,
)

F3 = field_make(3, 1)
F5 = field_make(5, 1)

_LIE_CASES = {
    "sl2_F3": lambda: special_linear(2, F3),
    "sl2_F5": lambda: special_linear(2, F5),
    "sl2_F7": lambda: special_linear(2, field_make(7, 1)),
    "sl2_F9": lambda: special_linear(2, field_make(3, 2)),
    "sl3_F2": lambda: special_linear(3, field_make(2, 1)),
    "h3_F3": lambda: heisenberg(1, F3),
    "h3_F5": lambda: heisenberg(1, F5),
    "abelian2_F3": lambda: abelian_p_trivial(2, F3),
    # h_3 + F_3 in the basis x, y, z, w: a two-dimensional centre
    "h3_plus_abelian1_F3": lambda: RestrictedLieAlgebra(
        F3, {(0, 1): {2: 1}, (1, 0): {2: 2}}, [(0,) * 4] * 4),
}


def test_search_budget_validation():
    SearchBudget()
    with pytest.raises(PreconditionError):
        SearchBudget(max_points=0)


def test_all_subgroups_counts():
    # classical lattice sizes
    assert len(all_subgroups(dihedral_square())) == 10
    assert len(all_subgroups(quaternion8())) == 6
    assert len(all_subgroups(symmetric(4))) == 30
    assert len(all_subgroups(cyclic(12))) == 6
    # 1 + 15 + 35 + 15 + 1 and 1 + 13 + 13 + 1 subspaces
    assert len(all_subgroups(elementary_abelian(2, 4))) == 67
    assert len(all_subgroups(elementary_abelian(3, 3))) == 28


def test_all_subgroups_cap():
    with pytest.raises(BudgetError):
        all_subgroups(symmetric(4), cap=10)


def test_oracle_matches_structured_group_search():
    cases = [
        (dihedral_square(), 2),
        (quaternion8(), 2),
        (elementary_abelian(3, 2), 3),
        (symmetric(4), 2),
        (symmetric(4), 3),
        (direct_product(symmetric(4), cyclic(2)), 2),
    ]
    for g, p in cases:
        oracle = oracle_maximal_elemab(g, p)
        structured = maximal_elemab(g, p)
        assert {s.elements for s in oracle} == {s.elements for s in structured.all_subgroups}


def test_oracle_q8_fixture():
    subs = oracle_maximal_elemab(quaternion8(), 2)
    assert len(subs) == 1 and subs[0].rank == 1
    g = quaternion8()
    minus_one = perm_mul(g.generators[0], g.generators[0])
    assert subs[0].elements == frozenset({g.identity(), minus_one})


def test_oracle_zp_squared():
    g = elementary_abelian(2, 2)
    subs = oracle_maximal_elemab(g, 2)
    assert len(subs) == 1
    assert subs[0].elements == frozenset(g.elements())


def test_oracle_representative_completeness():
    # every oracle subgroup conjugate to exactly one structured representative
    for g, p in [(dihedral_square(), 2), (symmetric(4), 2)]:
        oracle = oracle_maximal_elemab(g, p)
        reps = maximal_elemab(g, p).representatives
        els = g.elements()
        for s in oracle:
            hits = 0
            for rep in reps:
                if any(frozenset(perm_mul(perm_mul(h, x), perm_inv(h)) for x in rep.elements)
                       == s.elements for h in els):
                    hits += 1
            assert hits == 1


def test_oracle_srk_lie_fixtures():
    assert oracle_srk_lie(special_linear(2, F3)) == 1
    assert oracle_srk_lie(special_linear(2, F5)) == 1
    assert oracle_srk_lie(heisenberg(1, F3)) == 2
    assert oracle_srk_lie(abelian_p_trivial(2, F3)) == 2


def test_oracle_agrees_with_srk_brute():
    for name in ("sl2_F3", "sl2_F5", "sl2_F7", "sl2_F9", "sl3_F2", "h3_F3", "h3_F5"):
        g = _LIE_CASES[name]()
        assert oracle_srk_lie(g) == srk_brute(g).srk, name


def test_oracle_srk_lie_cap():
    with pytest.raises(BudgetError):
        oracle_srk_lie(special_linear(2, F5), SearchBudget(max_points=10))


def test_commuting_pairs_exhaustive_sl2_f3():
    res = oracle_commuting_pairs(2, F3)
    assert res.exhaustive
    # 9 nilpotents; (0, y) and (x, 0) pairs always count, centralizer lines otherwise
    assert res.count == 33
    for x, y in res.samples:
        assert (x @ y - y @ x).is_zero()


def test_commuting_pairs_zero_counted():
    res = oracle_commuting_pairs(2, F3)
    found_zero = any(x.is_zero() and y.is_zero() for x, y in res.samples)
    assert found_zero  # (0, 0) appears among the first recorded samples


def test_commuting_pairs_sampled_n3():
    res = oracle_commuting_pairs(3, F5, budget=SearchBudget(deterministic_seed=1))
    assert not res.exhaustive and res.count is None
    assert len(res.samples) > 0
    for x, y in res.samples:
        assert x.trace() == 0 and y.trace() == 0
        assert mat_is_p_nilpotent(x, 5) and mat_is_p_nilpotent(y, 5)
        assert (x @ y - y @ x).is_zero()


def test_commuting_pairs_deterministic():
    a = oracle_commuting_pairs(3, F5, budget=SearchBudget(deterministic_seed=9))
    b = oracle_commuting_pairs(3, F5, budget=SearchBudget(deterministic_seed=9))
    assert [(x.tolist(), y.tolist()) for x, y in a.samples] == \
        [(x.tolist(), y.tolist()) for x, y in b.samples]


def test_oracle_matches_clique_search_on_order_16_and_48():
    # and Z_3^3, of order 27
    for g, p in [(direct_product(dihedral_square(), cyclic(2)), 2),
                 (direct_product(symmetric(4), cyclic(2)), 2),
                 (elementary_abelian(2, 4), 2),
                 (elementary_abelian(3, 3), 3)]:
        oracle = oracle_maximal_elemab(g, p)
        structured = maximal_elemab(g, p).all_subgroups
        assert [s.elements for s in oracle] == [s.elements for s in structured]
        assert [s.generators for s in oracle] == [s.generators for s in structured]


def test_oracle_takes_only_the_algebra_type_from_lie():
    # the oracles are evidence only while they share no code with the
    # optimized search: from satrank.lie they may take the algebra type alone
    with open(oracle.__file__) as fp:
        tree = ast.parse(fp.read())
    from_lie = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module in ("lie", "satrank.lie"):
                from_lie += [a.name for a in node.names]
            else:
                assert "lie" not in [a.name for a in node.names], ast.dump(node)
        elif isinstance(node, ast.Import):
            assert not any(a.name.endswith("lie") for a in node.names), ast.dump(node)
    assert from_lie == ["RestrictedLieAlgebra"]


def test_oracle_takes_only_permutation_primitives_from_groups():
    # the group oracle lists elements and generator chains with its own naive
    # closure: from satrank.groups it may take the group type and the
    # permutation product and order alone
    with open(oracle.__file__) as fp:
        tree = ast.parse(fp.read())
    from_groups = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module in ("groups", "satrank.groups"):
                from_groups += [a.name for a in node.names]
            else:
                assert "groups" not in [a.name for a in node.names], ast.dump(node)
        elif isinstance(node, ast.Import):
            assert not any(a.name.endswith("groups") for a in node.names), ast.dump(node)
    assert from_groups == ["PermGroup", "perm_mul", "perm_order"]


def _every_round_all_subgroups(g, cap=5000):
    """all_subgroups before frontier-only joins: each round joins every
    subgroup found so far with every cyclic subgroup, generated by all of its
    elements; kept as a reference."""
    els = sorted(oracle._closure(g.degree, g.generators, g.element_bound))
    if len(els) > cap:
        raise BudgetError(f"group order {len(els)} exceeds oracle cap {cap}")
    cyclics = {}
    for x in els:
        c = oracle._closure(g.degree, [x])
        cyclics[c] = min(cyclics.get(c, x), x)
    lattice = {frozenset({g.identity()})} | set(cyclics)
    frontier = list(cyclics)
    while frontier:
        new = []
        for h in list(lattice):
            for c in cyclics:
                if c <= h:
                    continue
                j = oracle._closure(g.degree, [cyclics[c]] + sorted(h))
                if j not in lattice:
                    lattice.add(j)
                    new.append(j)
        frontier = new
    return sorted(lattice, key=lambda s: (len(s), sorted(s)))


def _check_then_dedupe_srk_lie(g, budget=SearchBudget()):
    """oracle_srk_lie before each subspace was checked once: every span is
    rebuilt from its basis and checked pointwise before the repeat test, and
    only elementary spans are remembered; kept as a reference."""
    f = g.field
    pts = oracle._nullcone_points(g, budget)
    vset = set(pts)
    nonzero = [v for v in pts if any(v)]
    if not nonzero:
        return 0
    reps = sorted({oracle._canonical_projective(f, v) for v in nonzero})

    def span_points(basis):
        acc = [g.zero()]
        for v in basis:
            acc = acc + [oracle._vec_add(f, w, oracle._vec_scale(f, c, v))
                         for w in acc for c in range(1, f.q)]
        return acc

    def is_elementary_pointwise(points):
        if any(u not in vset for u in points):
            return False
        return not any(any(g.bracket(u, v)) for i, u in enumerate(points)
                       for v in points[i + 1:])

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
            for w in np_:
                if any(w):
                    r = oracle._canonical_projective(f, w)
                    best[r] = max(best[r], len(nb))
            if len(nb) < budget.max_depth:
                stack.append((nb, tuple(np_)))
    return min(best.values())


_LATTICE_CASES = {
    "D8": dihedral_square,
    "Q8": quaternion8,
    "Z3xZ3": lambda: elementary_abelian(3, 2),
    "S4": lambda: symmetric(4),
    "S4xC2": lambda: direct_product(symmetric(4), cyclic(2)),
    "Z2^4": lambda: elementary_abelian(2, 4),
    "C12": lambda: cyclic(12),
}


@pytest.mark.parametrize("name", sorted(_LATTICE_CASES))
def test_lattice_matches_the_every_round_join(monkeypatch, name):
    # the same list in the same order, and so the same generator chains
    g = _LATTICE_CASES[name]()
    lattice = all_subgroups(g)
    elemab = {p: oracle_maximal_elemab(g, p) for p in (2, 3)}
    reference = _every_round_all_subgroups(g)
    assert reference == lattice
    monkeypatch.setattr(oracle, "all_subgroups", lambda g, cap: reference)
    assert {p: oracle_maximal_elemab(g, p) for p in (2, 3)} == elemab


@pytest.mark.parametrize("name", ["sl2_F3", "sl2_F5", "h3_F3", "abelian2_F3",
                                  "h3_plus_abelian1_F3"])
def test_srk_lie_matches_the_check_then_dedupe_loop(name):
    g = _LIE_CASES[name]()
    assert oracle_srk_lie(g) == _check_then_dedupe_srk_lie(g)


def test_srk_lie_budget_counts_the_same_subspaces():
    # h_3/F_3 examines 108 spans: the cap stops both loops at the same one
    g = heisenberg(1, F3)
    outcomes = []
    for srk in (oracle_srk_lie, _check_then_dedupe_srk_lie):
        for cap in (108, 109):
            try:
                outcomes.append(srk(g, SearchBudget(max_points=cap)))
            except BudgetError:
                outcomes.append(None)
    assert outcomes == [None, 2] * 2


def test_oracle_work_is_pinned(monkeypatch):
    # 2055 brackets and 45835 products before each subspace was checked once
    # and each subgroup joined once, by its generators
    calls = {"bracket": 0, "perm_mul": 0}
    g, s4 = heisenberg(1, F3), symmetric(4)
    bracket = RestrictedLieAlgebra.bracket

    def counted_bracket(self, x, y):
        calls["bracket"] += 1
        return bracket(self, x, y)

    def counted_perm_mul(x, y):
        calls["perm_mul"] += 1
        return perm_mul(x, y)

    monkeypatch.setattr(RestrictedLieAlgebra, "bracket", counted_bracket)
    monkeypatch.setattr(oracle, "perm_mul", counted_perm_mul)
    assert oracle_srk_lie(g) == 2
    assert len(all_subgroups(s4)) == 30
    assert calls == {"bracket": 307, "perm_mul": 15367}
