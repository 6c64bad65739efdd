import ast
import hashlib
import itertools
import json
import pathlib
import random
import time
from operator import itemgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satrank import BudgetError, PreconditionError, groups, oracle
from satrank.cliques import _bits
from satrank.groups import (
    PermGroup,
    cyclic,
    dihedral_square,
    direct_product,
    elementary_abelian,
    _closure,
    _maximal_cliques,
    _subgroup_from_elements,
    group_ranks,
    group_report,
    load_group,
    maximal_elemab,
    perm_inv,
    perm_mul,
    perm_order,
    quaternion8,
    symmetric,
)


def test_d8_presentation():
    # a^4 = 1 = b^2, aba = b
    g = dihedral_square()
    a, b = g.generators
    assert perm_order(a) == 4 and perm_order(b) == 2
    assert perm_mul(perm_mul(a, b), a) == b
    assert len(g.elements()) == 8


def test_perm_mul_small_degrees():
    # tuples at every degree, also below the two indices itemgetter needs
    assert perm_mul((), ()) == ()
    assert perm_mul((0,), (0,)) == (0,)
    assert perm_mul((1, 0), (0, 1)) == perm_mul((0, 1), (1, 0)) == (1, 0)
    assert perm_mul((1, 0), (1, 0)) == (0, 1)
    assert perm_mul((1, 2, 0), (0, 2, 1)) == (1, 0, 2)  # i -> a[b[i]]


def test_group_elements_examples():
    assert PermGroup(1, []).elements() == ((0,),)
    assert len(dihedral_square().elements()) == 8
    assert len(PermGroup(3, [(1, 2, 0)]).elements()) == 3


def test_element_bound():
    with pytest.raises(BudgetError):
        PermGroup(7, symmetric(7).generators, element_bound=100).elements()


def test_quaternion_fixture():
    g = quaternion8()
    i, j = g.generators
    assert len(g.elements()) == 8
    assert perm_order(i) == 4 and perm_order(j) == 4
    i2 = perm_mul(i, i)
    assert i2 == perm_mul(j, j)  # i^2 = j^2 = -1
    assert perm_mul(perm_mul(j, i), perm_inv(j)) == perm_inv(i)  # jij^-1 = i^-1


def test_d8_maximal_elemab_matches_known_subgroups():
    g = dihedral_square()
    res = maximal_elemab(g, 2)
    assert len(res.representatives) == 2
    assert [s.rank for s in res.representatives] == [2, 2]
    assert len(res.all_subgroups) == 2
    a, b = g.generators
    a2 = perm_mul(a, a)
    e = g.identity()
    ab = perm_mul(a, b)
    a2b = perm_mul(a2, b)
    a3b = perm_mul(perm_mul(a2, a), b)
    expected = {frozenset({e, a2, b, a2b}), frozenset({e, a2, ab, a3b})}
    assert {s.elements for s in res.all_subgroups} == expected
    for s in res.all_subgroups:
        s.validate(2)


def test_maximal_elemab_cyclic_p():
    res = maximal_elemab(cyclic(5), 5)
    assert len(res.all_subgroups) == 1
    assert res.all_subgroups[0].rank == 1


def test_maximal_elemab_q8():
    # exhaustive enumeration of the 8-element group: only {1, -1}
    res = maximal_elemab(quaternion8(), 2)
    assert len(res.all_subgroups) == 1
    sub = res.all_subgroups[0]
    assert sub.rank == 1
    g = quaternion8()
    i = g.generators[0]
    assert sub.elements == frozenset({g.identity(), perm_mul(i, i)})


def test_srk_group_examples():
    assert group_ranks(dihedral_square(), 2).srk == 2
    assert group_ranks(elementary_abelian(3, 2), 3).srk == 2
    assert group_ranks(quaternion8(), 2).srk == 1


def test_srk_no_torsion():
    assert group_ranks(cyclic(5), 3) is None


def test_quillen_dim_examples():
    assert group_ranks(dihedral_square(), 2).quillen_dim == 2
    assert group_ranks(cyclic(4), 2).quillen_dim == 1
    assert group_ranks(symmetric(4), 2).quillen_dim == 2


def test_is_equidimensional_examples():
    assert group_ranks(dihedral_square(), 2).equidimensional
    assert group_ranks(cyclic(7), 7).equidimensional
    # record the computed outcome for S4 and S4 x Z/2 at p = 2
    assert group_ranks(symmetric(4), 2).equidimensional
    assert group_ranks(direct_product(symmetric(4), cyclic(2)), 2).equidimensional


def test_srk_le_quillen_dim():
    for g, p in [(dihedral_square(), 2), (symmetric(4), 2), (symmetric(4), 3),
                 (quaternion8(), 2), (elementary_abelian(2, 3), 2)]:
        ranks = group_ranks(g, p)
        assert ranks.srk <= ranks.quillen_dim


def test_subgroup_invariants_exhaustive():
    for g, p in [(dihedral_square(), 2), (symmetric(4), 2), (symmetric(4), 3)]:
        res = maximal_elemab(g, p)
        for s in res.all_subgroups:
            s.validate(p)


def test_maximality_no_commuting_extension():
    for g, p in [(dihedral_square(), 2), (symmetric(4), 2), (quaternion8(), 2)]:
        els = g.elements()
        for s in maximal_elemab(g, p).all_subgroups:
            for x in els:
                if x in s.elements or perm_order(x) != p:
                    continue
                assert any(perm_mul(x, y) != perm_mul(y, x) for y in s.elements)


def _conjugate(sub, h, p):
    """h sub h^-1, with the greedy generator chain of its sorted elements."""
    hinv = perm_inv(h)
    elems = frozenset(perm_mul(perm_mul(h, x), hinv) for x in sub.elements)
    return _subgroup_from_elements(len(h), p, elems)


def test_conjugation_preserves_rank_and_maximality():
    rng = random.Random(42)
    for g, p in [(dihedral_square(), 2), (symmetric(4), 2)]:
        res = maximal_elemab(g, p)
        all_sets = {s.elements for s in res.all_subgroups}
        for s in res.representatives:
            for _ in range(5):
                h = rng.choice(g.elements())
                c = _conjugate(s, h, p)
                c.validate(p)
                assert c.rank == s.rank
                assert c.elements in all_sets  # conjugates of maximal stay maximal


def test_representatives_cover_all_classes():
    for g, p in [(dihedral_square(), 2), (symmetric(4), 2)]:
        res = maximal_elemab(g, p)
        els = g.elements()
        for s in res.all_subgroups:
            hits = []
            for rep in res.representatives:
                if any(frozenset(perm_mul(perm_mul(h, x), perm_inv(h)) for x in rep.elements)
                       == s.elements for h in els):
                    hits.append(rep)
            assert len(hits) == 1  # conjugate to exactly one representative


def test_s4_classes():
    res = maximal_elemab(symmetric(4), 2)
    # the normal Klein four group plus the <(01),(23)> shape
    assert len(res.representatives) == 2
    assert sorted(s.rank for s in res.representatives) == [2, 2]
    assert len(res.all_subgroups) == 4


def test_json_roundtrip(tmp_path):
    g = dihedral_square()
    data = {"degree": 4, "generators": [list(x) for x in g.generators], "p": 2}
    path = tmp_path / "d8.json"
    path.write_text(__import__("json").dumps(data))
    loaded, p = load_group(str(path))
    assert len(loaded.elements()) == 8 and p == 2
    rep = group_report(loaded, p)
    assert rep["srk"] == 2 and rep["quillen_dim"] == 2
    assert rep["equidimensional"] is True
    assert len(rep["classes"]) == 2


def test_load_group_malformed():
    with pytest.raises(PreconditionError):
        load_group({"degree": 4})


def test_maximal_elemab_rejects_non_prime_p():
    # Z4 is not elementary abelian, and the clique argument needs p prime
    for g, p in [(cyclic(4), 4), (symmetric(4), 4), (symmetric(4), 1), (cyclic(2), 0)]:
        with pytest.raises(PreconditionError, match="not prime"):
            group_report(g, p)


def test_element_bound_shares_closure():
    g = PermGroup(7, symmetric(7).generators, element_bound=100)
    with pytest.raises(BudgetError, match="group closure exceeds element bound 100"):
        g.elements()
    with pytest.raises(BudgetError, match="group closure exceeds element bound 100"):
        _closure(7, symmetric(7).generators, 100)
    assert len(_closure(4, symmetric(4).generators, 24)) == 24  # a bound of exactly |G| holds
    assert len(_closure(7, symmetric(7).generators)) == 5040   # no bound


@st.composite
def _generator_sets(draw):
    """(degree, generators, bound): up to three permutations of degree 0-9,
    each moving at most five points, and an element bound up to 3000."""
    degree = draw(st.integers(0, 9))
    gens = []
    for _ in range(draw(st.integers(0, 3))):
        moved = draw(st.lists(st.integers(0, degree - 1), unique=True, max_size=5)) if degree else []
        g = list(range(degree))
        for i, j in zip(moved, draw(st.permutations(moved))):
            g[i] = j
        gens.append(tuple(g))
    return degree, gens, draw(st.integers(0, 3000))


@settings(max_examples=200, deadline=None)
@given(case=_generator_sets())
def test_closure_matches_the_oracle_closure(case):
    degree, gens, bound = case

    def close(closure, b):
        try:
            return closure(degree, gens, b)
        except BudgetError:
            return None

    fast = close(_closure, bound)
    assert fast == close(oracle._closure, bound)
    if fast is not None:
        assert PermGroup(degree, gens, bound).elements() == tuple(sorted(fast))
        # both refuse one element fewer (the identity alone fits any bound)
        tight = len(fast) - 1
        assert (close(_closure, tight) is None) == (close(oracle._closure, tight) is None) \
            == (len(fast) > 1)


def test_generator_chains_match_the_oracle_chains():
    # the greedy chain over the sorted elements, grown by cosets here and by
    # re-closing the chain in the oracle
    for g, p in [(elementary_abelian(3, 3), 3), (symmetric(7), 3), (symmetric(6), 2),
                 (direct_product(dihedral_square(), dihedral_square()), 2)]:
        subs = maximal_elemab(g, p).all_subgroups
        for s in subs:
            o = oracle._subgroup_from_elements(g.degree, p, s.elements)
            assert (o.rank, o.generators, o.elements) == (s.rank, s.generators, s.elements)
        h = g.generators[-1]
        c = _conjugate(subs[-1], h, p)
        o = oracle._subgroup_from_elements(g.degree, p, c.elements)
        assert (o.rank, o.generators) == (c.rank, c.generators)


def test_contains():
    g = dihedral_square()
    a, b = g.generators
    els = g.elements()
    assert a in els and perm_mul(a, b) in els
    assert (1, 0, 2, 3) not in els


def test_maximal_cliques_match_brute_force():
    rng = random.Random(11)
    for n in range(9):
        for _ in range(6):
            edges = {(i, j) for i, j in itertools.combinations(range(n), 2) if rng.random() < 0.6}
            adj = [sum(1 << j for j in range(n) if (min(i, j), max(i, j)) in edges)
                   for i in range(n)]
            cliques = [set(s) for r in range(n + 1) for s in itertools.combinations(range(n), r)
                       if all(pair in edges for pair in itertools.combinations(s, 2))]
            maximal = {frozenset(c) for c in cliques if not any(c < d for d in cliques)}
            found = [frozenset(i for i in range(n) if c >> i & 1) for c in _maximal_cliques(adj)]
            assert len(found) == len(set(found)) and set(found) == maximal


def _relabelled(g, seed):
    """g with its points renamed by a seeded permutation sigma: sigma o x o sigma^-1."""
    sigma = list(range(g.degree))
    random.Random(seed).shuffle(sigma)
    gens = []
    for gen in g.generators:
        img = [0] * g.degree
        for i, gi in enumerate(gen):
            img[sigma[i]] = sigma[gi]
        gens.append(tuple(img))
    return PermGroup(g.degree, gens)


# sha256 of json.dumps(group_report(g, p), sort_keys=True), recorded before the
# clique search replaced the extension search; relabelled groups use
# _relabelled(g, "pin:<name>")
_GOLDEN_REPORTS = {
    "Z2^4": (lambda: elementary_abelian(2, 4), 2, True,
             "7c1cd862eed994713620060f78ba0aaa76fa977bcc6295c2ccef2fc308abcb78"),
    "Z3^3": (lambda: elementary_abelian(3, 3), 3, True,
             "59d08820a38787982a27e289c41619a43d567616a17fa2bf67d817ac287b88fa"),
    "D8xD8": (lambda: direct_product(dihedral_square(), dihedral_square()), 2, True,
              "b1c1910a313d53f998f175711d28ecfb9c9d8cb18cc3ef9d5bb25746512c56df"),
    "S7_p3": (lambda: symmetric(7), 3, True,
              "72c7ca23a91ad0b5c4b58ee71605f6a58150c24dc9415073ba83f78568977300"),
    "S7_p2": (lambda: symmetric(7), 2, True,
              "afe3d09ca5e53e3cac8ff5221ca90caf6aae81759383bcd2070773725ef5c058"),
    "S4xS4": (lambda: direct_product(symmetric(4), symmetric(4)), 2, True,
              "a01c6eade5418fdbf903525ca2854b929cd79b662094640bb02915a50f5d9f49"),
    "Z2^5": (lambda: elementary_abelian(2, 5), 2, False,
             "e19745c3f3cc67e22fe1d43b844e0658ac5f6f545afedf783c70a0403dc99d2d"),
    "S6_p2": (lambda: symmetric(6), 2, False,
              "193b5649f2f0b26c93417c7d41b6c21f0e8db4dfb0b60d798d1b33129d2222d5"),
    "S6_p3": (lambda: symmetric(6), 3, False,
              "0da2457e6492a14f57978bd551e258cc2e92836050d79cb23bb928b81fe925c0"),
}


@pytest.mark.parametrize("name", sorted(_GOLDEN_REPORTS))
def test_group_report_golden(name):
    build, p, relabel, digest = _GOLDEN_REPORTS[name]
    g = _relabelled(build(), f"pin:{name}") if relabel else build()
    payload = json.dumps(group_report(g, p), sort_keys=True)
    assert hashlib.sha256(payload.encode()).hexdigest() == digest


_POOLS = {
    2: [lambda: cyclic(2), lambda: cyclic(4), dihedral_square, quaternion8,
        lambda: symmetric(3), lambda: symmetric(4), lambda: elementary_abelian(2, 2)],
    3: [lambda: cyclic(3), lambda: cyclic(9), lambda: symmetric(3), lambda: symmetric(4),
        lambda: elementary_abelian(3, 2)],
}


def _answers(g, p):
    r = group_ranks(g, p)
    return (r.srk, r.quillen_dim, len(r.elemab.representatives), r.equidimensional)


def test_metamorphic_direct_products_and_relabelling():
    # a maximal elementary abelian subgroup of A x B is a product of maximal
    # ones, and conjugacy in A x B is conjugacy in each factor
    rng = random.Random(2017)
    for trial in range(12):
        p = rng.choice([2, 3])
        a, b = rng.choice(_POOLS[p])(), rng.choice(_POOLS[p])()
        ra, rb = group_ranks(a, p), group_ranks(b, p)
        g = direct_product(a, b)
        rg = group_ranks(g, p)
        assert rg.srk == ra.srk + rb.srk
        assert rg.quillen_dim == ra.quillen_dim + rb.quillen_dim
        assert rg.equidimensional == (ra.equidimensional and rb.equidimensional)
        for field in ("all_subgroups", "representatives"):
            assert len(getattr(rg.elemab, field)) == \
                len(getattr(ra.elemab, field)) * len(getattr(rb.elemab, field))
        assert _answers(_relabelled(g, trial), p) == _answers(g, p)


@pytest.mark.parametrize("build, order, exponent", [
    (lambda: symmetric(0), 1, 1),
    (lambda: symmetric(1), 1, 1),
    (lambda: symmetric(2), 2, 2),
    (lambda: symmetric(5), 120, 60),
    (lambda: elementary_abelian(2, 0), 1, 1),
    (lambda: elementary_abelian(3, 0), 1, 1),
    (lambda: elementary_abelian(5, 1), 5, 5),
    (lambda: elementary_abelian(3, 3), 27, 3),
], ids=["S0", "S1", "S2", "S5", "Z2^0", "Z3^0", "Z5^1", "Z3^3"])
def test_constructors_build_the_named_group(build, order, exponent):
    g = build()
    orders = [perm_order(x) for x in g.elements()]
    assert len(orders) == order
    assert max(orders) <= exponent and all(exponent % k == 0 for k in orders)


@pytest.mark.parametrize("build", [
    lambda: symmetric(-1),
    lambda: elementary_abelian(3, -1),
    lambda: elementary_abelian(4, 2),
    lambda: elementary_abelian(1, 2),
    lambda: elementary_abelian(0, 1),
], ids=["S-1", "Z3^-1", "Z4^2", "Z1^2", "Z0^1"])
def test_constructors_refuse_what_is_not_the_named_group(build):
    with pytest.raises(PreconditionError):
        build()


def _bfs_closure(degree, gens):
    """Breadth-first closure over itemgetter products: the element listing
    before stabilizer chains, kept as a reference."""
    e = tuple(range(degree))
    seen, frontier = {e}, [e]
    right = [itemgetter(*g) for g in gens] if degree > 1 else []
    while frontier:
        nxt = []
        for x in frontier:
            for g in right:
                y = g(x)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def _whole_graph_maximal_elemab(g, p):
    """maximal_elemab before the root query: every commuting row, one clique
    search over the whole graph, classes as conjugation orbits of the sorted
    cliques."""
    els = sorted(_bfs_closure(g.degree, g.generators))
    if p > g.degree:
        return [], []
    x = y = np.array(els, dtype=np.min_scalar_type(g.degree))
    for _ in range(p - 1):
        y = np.take_along_axis(x, y, axis=1)
    ident = np.arange(g.degree)
    t = x[(y == ident).all(axis=1) & (x != ident).any(axis=1)]
    if not len(t):
        return [], []
    products = t[:, t]  # [i, j] = x_i o x_j
    commute = (products == products.swapaxes(0, 1)).all(axis=2)
    adj = [sum(1 << j for j in np.flatnonzero(row).tolist()) for row in commute]
    cliques = sorted(_maximal_cliques(adj), key=lambda c: list(_bits(c)))
    torsion = [tuple(r) for r in t.tolist()]
    index = {z: i for i, z in enumerate(torsion)}
    conj = [[index[perm_mul(perm_mul(h, z), perm_inv(h))] for z in torsion] for h in g.generators]
    reps, seen = [], set()
    for c in cliques:
        if c not in seen:
            reps.append(c)
            seen.add(c)
            orbit = [c]
            for s in orbit:
                for perm in conj:
                    image = sum(1 << perm[i] for i in _bits(s))
                    if image not in seen:
                        seen.add(image)
                        orbit.append(image)
    subs = {c: _subgroup_from_elements(
        g.degree, p, frozenset([g.identity()] + [torsion[i] for i in _bits(c)])) for c in cliques}
    return [subs[c] for c in reps], [subs[c] for c in cliques]


_ROOT_QUERY_CASES = [(f"S{n}", lambda n=n: symmetric(n), p) for n in range(2, 8) for p in (2, 3, 5)] + [
    ("S4xS4", lambda: direct_product(symmetric(4), symmetric(4)), 2),
    ("D8xD8", lambda: direct_product(dihedral_square(), dihedral_square()), 2),
    ("Q8", quaternion8, 2),
    ("Z2^5", lambda: elementary_abelian(2, 5), 2),
    ("Z3^3", lambda: elementary_abelian(3, 3), 3),
    ("Z5^2", lambda: elementary_abelian(5, 2), 5),
    ("S3xS5_p2", lambda: direct_product(symmetric(3), symmetric(5)), 2),
    ("S3xS5_p3", lambda: direct_product(symmetric(3), symmetric(5)), 3),
    ("S4xC257", lambda: direct_product(symmetric(4), cyclic(257)), 2),  # uint16 rows
]


@pytest.mark.parametrize("name, build, p", _ROOT_QUERY_CASES, ids=[c[0] + f"_{c[2]}" for c in _ROOT_QUERY_CASES])
def test_root_query_matches_the_whole_graph(name, build, p):
    g = _relabelled(build(), f"roots:{name}")
    assert g.elements() == tuple(sorted(_bfs_closure(g.degree, g.generators)))
    res = maximal_elemab(g, p)
    reps, subs = _whole_graph_maximal_elemab(g, p)
    assert res.representatives == reps
    assert res.all_subgroups == subs
    found = res.all_subgroups
    assert all(found[found.index(r)] is r for r in res.representatives)


def test_root_query_builds_fewer_commuting_rows(monkeypatch):
    # S7 at p = 3: 350 elements of order 3 in two classes; the search reads
    # the rows of the two roots and of their neighbours only
    built = []
    real = groups._commuting_rows
    monkeypatch.setattr(groups, "_commuting_rows",
                        lambda t, which, adj: built.extend(which) or real(t, which, adj))
    res = maximal_elemab(symmetric(7), 3)
    assert len(built) == len(set(built)) < 350
    assert len(res.all_subgroups) == 70 and len(res.representatives) == 1


def _counting_subgroups(monkeypatch):
    """A list that grows by one entry per _subgroup_from_elements call."""
    built, real = [], groups._subgroup_from_elements
    monkeypatch.setattr(groups, "_subgroup_from_elements",
                        lambda degree, p, elems: built.append(elems) or real(degree, p, elems))
    return built


def test_group_report_builds_only_the_representatives(monkeypatch):
    # S7 at p = 2: 2 classes of maximal elementary abelian 2-subgroups out of
    # many; the report reads one subgroup per class
    built = _counting_subgroups(monkeypatch)
    report = group_report(symmetric(7), 2)
    assert len(report["classes"]) == 2 and len(built) == 2


def test_all_subgroups_are_built_on_first_read(monkeypatch):
    g = symmetric(7)
    built = _counting_subgroups(monkeypatch)
    res = maximal_elemab(g, 2)
    assert len(built) == len(res.representatives) == 2
    subs = res.all_subgroups
    assert len(built) == len(subs) > 2  # the conjugates, once each
    assert res.all_subgroups is subs and len(built) == len(subs)
    # the eager reference: every clique's subgroup built up front in a dict
    reps, eager = _whole_graph_maximal_elemab(g, 2)
    assert subs == eager
    assert res.representatives == reps
    assert all(subs[subs.index(r)] is r for r in res.representatives)


@pytest.mark.parametrize("build, p", [(lambda: cyclic(5), 3), (lambda: symmetric(3), 5)],
                         ids=["no_3_torsion", "p_above_degree"])
def test_maximal_elemab_without_torsion_is_empty(monkeypatch, build, p):
    built = _counting_subgroups(monkeypatch)
    res = maximal_elemab(build(), p)
    assert res.representatives == [] and res.all_subgroups == [] and not built


def test_one_clique_query_in_groups():
    # maximal_elemab makes the module's one clique search, through its roots
    tree = ast.parse(pathlib.Path(groups.__file__).read_text())
    calls = [(f.name, len(node.args)) for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
             for node in ast.walk(f) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "_maximal_cliques"]
    assert calls == [("maximal_elemab", 3)]


def test_the_bound_stops_the_stabilizer_chain():
    # |S_30| is about 2.7e32: the orbits so far pass 20000 after three levels
    gens = symmetric(30).generators
    start = time.perf_counter()
    with pytest.raises(BudgetError, match="^group closure exceeds element bound 20000$"):
        PermGroup(30, gens).elements()
    assert time.perf_counter() - start < 0.1
    with pytest.raises(BudgetError, match="^group closure exceeds element bound 20000$"):
        groups._schreier_sims(30, gens, 20000)  # refused before any element row exists


def _best_of(runs, f):
    best = float("inf")
    for _ in range(runs):
        start = time.perf_counter()
        f()
        best = min(best, time.perf_counter() - start)
    return best


def test_wide_group_rows_no_slower_than_the_bfs_closure():
    # cyclic(2000): one level whose orbit is 2000 breadth-first layers deep
    g = cyclic(2000)
    rows = groups._element_rows(g.degree, g.generators, g.element_bound)
    assert rows.tolist() == [[(i + k) % 2000 for i in range(2000)] for k in range(2000)]
    chain = _best_of(3, lambda: groups._element_rows(g.degree, g.generators, g.element_bound))
    bfs = _best_of(3, lambda: np.array(sorted(_bfs_closure(g.degree, g.generators)),
                                       dtype=np.uint16))
    assert chain <= bfs
