import hashlib
import itertools
import json
import random

import numpy as np
import pytest

from satrank import BudgetError, PreconditionError, lie
from satrank.fields import Mat, field_make, mat_rank
from satrank.lie import (
    CommutingTuple,
    RestrictedLieAlgebra,
    abelian_p_trivial,
    centralizer,
    from_matrix_basis,
    heisenberg,
    is_elementary,
    lie_report,
    load_lie,
    local_rank,
    nullcone,
    special_linear,
    srk_brute,
    srk_sampled,
    toral,
)

F3 = field_make(3, 1)
F5 = field_make(5, 1)


def sl2_structure_only(field):
    """sl2 by structure constants alone (no matrix model), basis e, f, h."""
    one = field.one
    two = field.add(one, one)
    brackets = {
        (0, 1): {2: one},                 # [e,f] = h
        (1, 0): {2: field.neg(one)},
        (2, 0): {0: two},                 # [h,e] = 2e
        (0, 2): {0: field.neg(two)},
        (2, 1): {1: field.neg(two)},      # [h,f] = -2f
        (1, 2): {1: two},
    }
    pmap = [(0, 0, 0), (0, 0, 0), (0, 0, field.one)]  # h^[p] = h
    return RestrictedLieAlgebra(field, brackets, pmap, labels=["e", "f", "h"])


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------

def test_heisenberg_examples():
    h = heisenberg(1, F3)
    assert h.dim == 3
    h.validate("full")
    h2 = heisenberg(2, F5)
    assert h2.dim == 5
    x1, y2 = h2.basis_vec(0), h2.basis_vec(3)
    assert not any(h2.bracket(x1, y2))       # [x1, y2] = 0
    x1b, y1 = h2.basis_vec(0), h2.basis_vec(2)
    z = h2.basis_vec(4)
    assert h2.bracket(x1b, y1) == z
    for i in range(h2.dim):
        assert not any(h2.bracket(z, h2.basis_vec(i)))  # z central


def test_heisenberg_rejects_p2():
    with pytest.raises(PreconditionError):
        heisenberg(1, field_make(2, 1))


def test_sl2_validates_fully():
    for f in (F3, F5, field_make(3, 2)):
        special_linear(2, f).validate("full")
    sl2_structure_only(F3).validate("full")


def test_bad_structure_constants_rejected():
    one = F3.one
    with pytest.raises(PreconditionError):
        # not antisymmetric
        RestrictedLieAlgebra(F3, {(0, 1): {2: one}, (1, 0): {2: one}},
                             [(0,) * 3] * 3)
    with pytest.raises(PreconditionError):
        # breaks restrictedness: abelian but pmap hits a non-central direction
        RestrictedLieAlgebra(F3, {(0, 1): {2: one}, (1, 0): {2: F3.neg(one)}},
                             [(0, 1, 0)] + [(0,) * 3] * 2)



def test_validation_names_the_broken_identity():
    one, neg = F3.one, F3.neg(F3.one)
    # antisymmetric, but [[b0, b1], b2] + [[b1, b2], b0] + [[b2, b0], b1] = b0 != 0
    with pytest.raises(PreconditionError, match="Jacobi"):
        RestrictedLieAlgebra(F3, {(0, 1): {2: one}, (1, 0): {2: neg},
                                  (0, 2): {0: one}, (2, 0): {0: neg}}, [(0,) * 3] * 3)
    # [b0, b0] != 0 passes the antisymmetry test in characteristic 2
    with pytest.raises(PreconditionError, match=r"\[b_0, b_0\] != 0"):
        RestrictedLieAlgebra(field_make(2, 1), {(0, 0): {1: 1}}, [(0, 0), (0, 0)])
    # a matrix model that contradicts the bracket table or the p-map
    sl2 = special_linear(2, F3)
    table = {(i, j): {k: int(sl2._adb[i][k, j]) for k in range(3) if sl2._adb[i][k, j]}
             for i in range(3) for j in range(3)}
    flipped = dict(table)
    flipped[(0, 1)], flipped[(1, 0)] = table[(1, 0)], table[(0, 1)]  # [e, f] = -h
    with pytest.raises(PreconditionError, match="commutator disagrees"):
        RestrictedLieAlgebra(F3, flipped, sl2.pmap, matrix_model=sl2.matrix_model)
    with pytest.raises(PreconditionError, match="p-th power disagrees"):
        RestrictedLieAlgebra(F3, table, [(0, 0, 0)] * 3, matrix_model=sl2.matrix_model)


@pytest.mark.parametrize("field", [F3, field_make(3, 2)], ids=["F3", "F9"])
def test_zero_dimensional_algebra(field):
    g = abelian_p_trivial(0, field)
    assert g.pmap_eval(()) == () and nullcone(g) == [()]
    assert srk_brute(g).srk == 0

def test_pmap_examples():
    h = heisenberg(1, F3)
    for x in h.iter_elements():
        assert not any(h.pmap_eval(x))  # [p]-trivial
    sl2 = special_linear(2, F5)
    e, hvec = sl2.basis_vec(0), sl2.basis_vec(2)
    assert not any(sl2.pmap_eval(e))
    assert sl2.pmap_eval(hvec) == hvec  # diag(1,-1)^5 = diag(1,-1) over F_5


def test_jacobson_agrees_with_matrix_powers():
    for field in (F3, F5):
        with_model = special_linear(2, field)
        bare = sl2_structure_only(field)
        for x in with_model.iter_elements():
            assert bare.pmap_eval(x) == with_model.pmap_eval(x)


def test_jacobson_p2_matrix_algebra():
    # gl_2 over F_2 from its matrix basis; Jacobson fold must match squaring
    f2 = field_make(2, 1)
    mats = []
    for i in range(2):
        for j in range(2):
            m = np.zeros((2, 2), dtype=np.int64)
            m[i, j] = 1
            mats.append(Mat(f2, m))
    gl2 = from_matrix_basis(f2, mats)
    bare = RestrictedLieAlgebra(
        f2,
        {(i, j): {k: int(gl2._adb[i][k, j]) for k in range(4) if gl2._adb[i][k, j]}
         for i in range(4) for j in range(4)},
        gl2.pmap)
    for x in gl2.iter_elements():
        assert bare.pmap_eval(x) == gl2.pmap_eval(x)



def _without_model(g):
    """g rebuilt from its bracket table and p-map alone, so x^[p] goes through
    Jacobson's formula instead of the matrix power."""
    d = g.dim
    brackets = {(i, j): {k: int(g._adb[i][k, j]) for k in range(d) if g._adb[i][k, j]}
                for i in range(d) for j in range(d)}
    return RestrictedLieAlgebra(g.field, brackets, g.pmap, labels=g.labels)


@pytest.mark.parametrize("n,p,k", [(2, 3, 2), (3, 3, 1)], ids=["sl2_F9", "sl3_F3"])
def test_jacobson_agrees_with_matrix_model_everywhere(n, p, k):
    with_model = special_linear(n, field_make(p, k))
    bare = _without_model(with_model)
    assert bare.matrix_model is None
    for x in with_model.iter_elements():
        assert bare.pmap_eval(x) == with_model.pmap_eval(x)
    assert nullcone(bare) == nullcone(with_model)

def test_pmap_semilinear():
    rng = random.Random(5)
    for g in (special_linear(2, F5), heisenberg(2, F3), sl2_structure_only(F3)):
        f = g.field
        for _ in range(25):
            lam = rng.randrange(f.q)
            x = tuple(rng.randrange(f.q) for _ in range(g.dim))
            lhs = g.pmap_eval(tuple(f.mul(lam, c) for c in x))
            rhs = tuple(f.mul(f.pow(lam, f.p), c) for c in g.pmap_eval(x))
            assert lhs == rhs


# ---------------------------------------------------------------------------
# nullcone / centralizer
# ---------------------------------------------------------------------------

def test_nullcone_examples():
    assert len(nullcone(abelian_p_trivial(2, F3))) == 9
    assert len(nullcone(special_linear(2, F3))) == 9  # 0 plus the cone a^2+bc=0
    assert len(nullcone(heisenberg(1, F3))) == 27


def test_nullcone_matches_direct_check():
    sl2 = special_linear(2, F3)
    expect = {x for x in sl2.iter_elements() if not any(sl2.pmap_eval(x))}
    assert set(nullcone(sl2)) == expect


def test_nullcone_budget():
    with pytest.raises(BudgetError):
        nullcone(special_linear(2, F5), budget=10)


def test_toral_nullcone_trivial():
    t = toral(2, F3)
    assert nullcone(t) == [(0, 0)]
    res = srk_brute(t)
    assert res.srk == 0 and "0" in res.note


def test_centralizer_examples():
    sl2 = special_linear(2, F5)
    assert len(centralizer(sl2, sl2.zero())) == sl2.dim
    e = sl2.basis_vec(0)
    assert centralizer(sl2, e) == [e]
    # regular nilpotent in sl3, p = 5: centralizer is span{e, e^2}
    sl3 = special_linear(3, F5)
    ereg = Mat.from_rows(F5, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    x = sl3.coords_of_matrix(ereg)
    basis = centralizer(sl3, x)
    assert len(basis) == 2
    span_mats = [sl3.matrix_of(v) for v in basis]
    for m in span_mats:
        assert (m @ ereg) == (ereg @ m)
    # e and e^2 lie in that kernel
    for target in (ereg, ereg @ ereg):
        assert sl3.coords_of_matrix(target) is not None


# ---------------------------------------------------------------------------
# is_elementary / local rank / srk
# ---------------------------------------------------------------------------

def test_is_elementary_examples():
    sl2 = special_linear(2, F5)
    e, f_, h = sl2.basis_vec(0), sl2.basis_vec(1), sl2.basis_vec(2)
    assert is_elementary(sl2, [e])
    assert not is_elementary(sl2, [e, f_])   # [e,f] = h != 0
    assert not is_elementary(sl2, [e, h])    # h^[p] = h != 0
    assert not is_elementary(sl2, [e, e])    # dependent


def test_local_rank_examples():
    sl2 = special_linear(2, F3)
    assert local_rank(sl2, sl2.basis_vec(0)).rank == 1
    h = heisenberg(1, F3)
    z = h.basis_vec(2)
    assert local_rank(h, z).rank == 2
    ab = abelian_p_trivial(4, F3)
    assert local_rank(ab, ab.basis_vec(1)).rank == 4


def test_local_rank_witness_contains_x_and_is_elementary():
    for g, x in [
        (special_linear(2, F3), special_linear(2, F3).basis_vec(0)),
        (heisenberg(1, F3), (1, 2, 0)),
        (heisenberg(2, F3), (0, 0, 0, 0, 1)),
    ]:
        res = local_rank(g, x)
        assert is_elementary(g, res.witness.basis)
        assert res.witness.basis[0] == x
        # x in the span: rank does not grow when x is appended
        rows = [list(v) for v in res.witness.basis]
        r0 = mat_rank(Mat(g.field, np.array(rows, dtype=np.int64)))
        r1 = mat_rank(Mat(g.field, np.array(rows + [list(x)], dtype=np.int64)))
        assert r0 == r1 == res.rank


def _captured_search(monkeypatch, run):
    """The _TupleSearch that run() builds."""
    made = []

    class Spy(lie._TupleSearch):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(lie, "_TupleSearch", Spy)
    run()
    return made[0]


def _naive_span_mask(f, index, vecs):
    """Classes hit by every sum c_1 v_1 + ... + c_r v_r, scaled by hand so the
    first nonzero coordinate is 1."""
    mask = 0
    for cs in itertools.product(range(f.q), repeat=len(vecs)):
        u = [0] * len(vecs[0])
        for c, v in zip(cs, vecs):
            u = [f.add(a, f.mul(c, b)) for a, b in zip(u, v)]
        lead = next((a for a in u if a), 0)
        if lead:
            j = index.get(tuple(f.mul(f.inv(lead), a) for a in u))
            if j is not None:
                mask |= 1 << j
    return mask


@pytest.mark.parametrize("case", ["h3_F5", "sl2_F9", "local_h3_F5", "local_sl3_F3"])
def test_search_span_masks_and_commuting_masks(monkeypatch, case):
    # srk_brute searches F_q^dim itself; local_rank searches the centralizer in
    # its own basis, so its masks go through ker(ad u . B)
    if case == "h3_F5":
        g = heisenberg(1, F5)
        run = lambda: srk_brute(g)
    elif case == "sl2_F9":
        g = special_linear(2, field_make(3, 2))
        run = lambda: srk_brute(g)
    elif case == "local_h3_F5":
        g = heisenberg(1, F5)
        run = lambda: local_rank(g, (1, 2, 0))
    else:
        g = special_linear(3, F3)
        x = g.coords_of_matrix(Mat(F3, [[0, 1, 0], [0, 0, 0], [0, 0, 0]]))
        run = lambda: local_rank(g, x)
    search = _captured_search(monkeypatch, run)
    f, pts = g.field, search.points
    assert search.n > 3
    rng = random.Random(case)
    for _ in range(12):
        chosen = rng.sample(range(search.n), rng.randint(1, 3))
        naive = _naive_span_mask(f, search.index, [pts[i] for i in chosen])
        assert search._span_mask([search.coords[i] for i in chosen]) == naive
        # the search's incremental form: one broadcast extension per point
        span, mask = np.zeros((1, len(search.basis)), dtype=np.int64), 0
        for i in chosen:
            if not mask >> i & 1:
                add_mask, span = search._extend_span(span, i)
                mask |= add_mask
        assert mask == naive
    for i, u in enumerate(pts):
        direct = sum(1 << j for j, v in enumerate(pts) if not any(g.bracket(u, v)))
        assert search.commuting[i] == direct


def test_commuting_masks_across_batches(monkeypatch):
    # sl_3/F_3 has 364 classes, more than one stacked elimination and one
    # span-closure batch hold, so masks on both sides of a batch boundary
    # are checked against direct brackets
    g = special_linear(3, F3)
    search = _captured_search(monkeypatch, lambda: srk_brute(g))
    pts = search.points
    assert search.n == 364
    for i, u in enumerate(pts):
        direct = sum(1 << j for j, v in enumerate(pts) if not any(g.bracket(u, v)))
        assert search.commuting[i] == direct
    rng = random.Random(3)
    for _ in range(12):
        chosen = rng.sample(range(search.n), rng.randint(1, 3))
        naive = _naive_span_mask(g.field, search.index, [pts[i] for i in chosen])
        assert search._span_mask([search.coords[i] for i in chosen]) == naive


def test_local_rank_preconditions():
    sl2 = special_linear(2, F3)
    with pytest.raises(PreconditionError):
        local_rank(sl2, sl2.zero())
    with pytest.raises(PreconditionError):
        local_rank(sl2, sl2.basis_vec(2))  # h is not p-nilpotent


def test_srk_brute_examples():
    assert srk_brute(special_linear(2, F3)).srk == 1
    assert srk_brute(heisenberg(1, F3)).srk == 2
    assert srk_brute(heisenberg(2, F3)).srk == 3


# Pinned srk_brute results: srk, r_min, o_rmin and the witness must not move
# by a byte when the search changes.  The digest covers the whole payload,
# o_rmin included.
_GOLDEN_BRUTE = {
    "h5_F3": (3, 3, 242, [[0, 0, 0, 0, 1], [0, 0, 0, 1, 0], [0, 0, 1, 0, 0]],
              "ba0247d032d19b82b1518412c10de5fe7ac2359d3dd7149d8cc0df1c6a6f171e"),
    "sl3_F3": (2, 2, 728, [[0, 0, 0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0, 0, 0]],
               "924b3c325064a4808ff7823a2b6790264019c3bf5f3d4aef6fe48ff76254baf6"),
    "h3_F9": (2, 2, 728, [[0, 0, 1], [0, 1, 0]],
              "5d3395d2c4c37e313e4ad1bb2e8be6f3a755f9973bbac053e1dc96c66c75f4ed"),
    "sl2_struct_F5": (1, 1, 24, [[0, 1, 0]],
                      "1858ad66d9a9c452050ee4c278151055b997e22701233e6aa5ec0a1f12bde2fa"),
}


@pytest.mark.parametrize("name", sorted(_GOLDEN_BRUTE))
def test_srk_brute_golden(name):
    g = {
        "h5_F3": lambda: heisenberg(2, F3),
        "sl3_F3": lambda: special_linear(3, F3),
        "h3_F9": lambda: heisenberg(1, field_make(3, 2)),
        "sl2_struct_F5": lambda: sl2_structure_only(F5),
    }[name]()
    res = srk_brute(g)
    payload = {"srk": res.srk, "r_min": res.r_min, "o_rmin_count": res.o_rmin_count,
               "o_rmin": [list(v) for v in res.o_rmin],
               "witness": [list(v) for v in res.witness.basis]}
    srk, r_min, count, witness, digest = _GOLDEN_BRUTE[name]
    assert (res.srk, res.r_min, res.o_rmin_count) == (srk, r_min, count)
    assert payload["witness"] == witness
    assert hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest() == digest


def test_local_rank_golden_witnesses():
    sl4 = special_linear(4, F5)
    sub = sl4.coords_of_matrix(Mat(F5, [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0]]))
    assert sub == (1, 0, 0, 0, 1) + (0,) * 10
    res = local_rank(sl4, sub)
    assert res.rank == 3
    assert [list(v) for v in res.witness.basis] == [
        [1, 0, 0, 0, 1] + [0] * 10, [0] * 11 + [1, 0, 0, 0], [0, 1] + [0] * 13]
    h = heisenberg(1, field_make(3, 2))
    res = local_rank(h, h.basis_vec(2))  # z is central: the centralizer is all of h
    assert res.rank == 2
    assert [list(v) for v in res.witness.basis] == [[0, 0, 1], [0, 1, 0]]



def test_srk_brute_golden_sl2_f25_matrix_model():
    # extension field with a matrix model: x^[p] is a matrix power over F_25
    res = srk_brute(special_linear(2, field_make(5, 2)))
    payload = {"srk": res.srk, "r_min": res.r_min, "o_rmin_count": res.o_rmin_count,
               "o_rmin": [list(v) for v in res.o_rmin],
               "witness": [list(v) for v in res.witness.basis]}
    assert (res.srk, res.r_min, res.o_rmin_count) == (1, 1, 624)
    assert payload["witness"] == [[0, 1, 0]]
    assert hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest() == \
        "da130b5a39210934e29dd6502cba4fac7ce7632c613b467d55c96f4432067bfb"


def test_nullcone_golden_h3_f27_jacobson():
    # structure constants only, k = 3: x^[p] goes through Jacobson's formula
    pts = nullcone(heisenberg(1, field_make(3, 3)))
    assert len(pts) == 27 ** 3
    assert hashlib.sha256(json.dumps([list(v) for v in pts]).encode()).hexdigest() == \
        "37b8691d6ccd431bec492b03bbb8acb49d41253f84b5bb219a8e417312f8e8af"

def test_srk_brute_o_rmin_sl2():
    res = srk_brute(special_linear(2, F3))
    assert res.o_rmin_count == 8  # every nonzero nullcone point
    assert res.r_min == res.srk == 1
    assert res.witness is not None and res.witness.rank == 1


def test_srk_brute_o_rmin_heisenberg():
    res = srk_brute(heisenberg(1, F3))
    assert res.o_rmin_count == 26
    assert is_elementary(heisenberg(1, F3), res.witness.basis)


def test_srk_brute_min_le_max():
    for g in (special_linear(2, F3), heisenberg(1, F3)):
        res = srk_brute(g)
        ranks = [local_rank(g, x).rank for x in res.o_rmin[:3]]
        assert all(r == res.srk for r in ranks)


def test_srk_le_max_local_rank():
    # the minimum over the nullcone never exceeds the largest witness rank
    for g in (special_linear(2, F3), heisenberg(1, F3)):
        res = srk_brute(g)
        ranks = [local_rank(g, x).rank for x in nullcone(g) if any(x)]
        assert res.srk == min(ranks) <= max(ranks)
    g = heisenberg(2, F3)
    res = srk_brute(g)
    sample = [x for x in nullcone(g) if any(x)][::40]
    ranks = [local_rank(g, x).rank for x in sample]
    assert res.srk <= max(ranks) and res.srk == min(ranks)


def test_adjoint_invariance_sl2():
    """Conjugation by SL2 fixes local ranks on the nullcone."""
    sl2 = special_linear(2, F3)
    f = sl2.field
    rng = random.Random(11)

    def random_sl2():
        # product of elementary transvections has determinant 1
        m = Mat.identity(f, 2)
        for _ in range(4):
            t = np.eye(2, dtype=np.int64)
            t[rng.choice([(0, 1), (1, 0)])] = rng.randrange(f.q)
            m = m @ Mat(f, t)
        return m

    pts = [v for v in nullcone(sl2) if any(v)]
    for x in pts[:6]:
        rx = local_rank(sl2, x).rank
        for _ in range(3):
            gmat = random_sl2()
            ginv_coeffs = np.array([[gmat.a[1, 1], (-gmat.a[0, 1]) % f.p],
                                    [(-gmat.a[1, 0]) % f.p, gmat.a[0, 0]]])
            ginv = Mat(f, ginv_coeffs)
            assert (gmat @ ginv) == Mat.identity(f, 2)
            y = sl2.coords_of_matrix(gmat @ sl2.matrix_of(x) @ ginv)
            assert local_rank(sl2, y).rank == rx


def test_commuting_tuple_wrapper():
    h = heisenberg(1, F3)
    t = CommutingTuple.of(h, [h.basis_vec(0), h.basis_vec(2)])
    assert t.independent
    with pytest.raises(PreconditionError):
        CommutingTuple.of(h, [h.basis_vec(0), h.basis_vec(1)])  # [x,y] = z


def test_srk_sampled_is_upper_bound():
    g = heisenberg(1, F3)
    res = srk_sampled(g, samples=8, seed=3)
    assert not res.certified
    assert res.srk_upper_bound >= srk_brute(g).srk


# ---------------------------------------------------------------------------
# JSON interface
# ---------------------------------------------------------------------------

def heisenberg_json():
    return {
        "p": 3, "k": 1, "dim": 3,
        "labels": ["x", "y", "z"],
        "brackets": [{"i": 0, "j": 1, "out": [{"k": 2, "c": [1]}]}],
        "pmap": [{"i": 0, "out": []}, {"i": 1, "out": []}, {"i": 2, "out": []}],
    }


def test_load_lie_roundtrip(tmp_path):
    path = tmp_path / "h3.json"
    path.write_text(json.dumps(heisenberg_json()))
    g = load_lie(str(path))
    assert g.dim == 3
    assert g.bracket(g.basis_vec(0), g.basis_vec(1)) == g.basis_vec(2)
    rep = lie_report(g)
    assert rep["srk"] == 2
    assert rep["r_min"] == 2
    assert rep["o_rmin_count"] == 26
    assert rep["witnesses"]


def test_load_lie_with_model():
    data = {
        "p": 3, "k": 1, "dim": 3,
        "labels": ["e", "f", "h"],
        "brackets": [
            {"i": 0, "j": 1, "out": [{"k": 2, "c": [1]}]},
            {"i": 2, "j": 0, "out": [{"k": 0, "c": [2]}]},
            {"i": 2, "j": 1, "out": [{"k": 1, "c": [1]}]},
        ],
        "pmap": [{"i": 2, "out": [{"k": 2, "c": [1]}]}],
        "matrix_model": [[0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 2]],
    }
    g = load_lie(data)
    assert g.matrix_model is not None
    assert srk_brute(g).srk == 1


def test_load_lie_malformed():
    with pytest.raises(PreconditionError):
        load_lie({"p": 3})
    bad = heisenberg_json()
    bad["brackets"][0]["out"][0]["k"] = 5  # out of range index
    with pytest.raises((PreconditionError, IndexError)):
        load_lie(bad)
