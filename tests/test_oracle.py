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
from satrank.lie import abelian_p_trivial, heisenberg, special_linear, srk_brute
from satrank.oracle import (
    SearchBudget,
    all_subgroups,
    oracle_commuting_pairs,
    oracle_maximal_elemab,
    oracle_srk_lie,
)

F3 = field_make(3, 1)
F5 = field_make(5, 1)


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
    for g in (special_linear(2, F3), special_linear(2, F5), heisenberg(1, F3)):
        assert oracle_srk_lie(g) == srk_brute(g).srk


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
    for g in [direct_product(dihedral_square(), cyclic(2)),
              direct_product(symmetric(4), cyclic(2)),
              elementary_abelian(2, 4)]:
        oracle = oracle_maximal_elemab(g, 2)
        structured = maximal_elemab(g, 2).all_subgroups
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
