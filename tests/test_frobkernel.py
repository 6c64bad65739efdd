import itertools
import random

import numpy as np
import pytest

from satrank import BudgetError, PreconditionError, frobkernel
from satrank.fields import Mat, field_make, mat_det, mat_is_p_nilpotent
from satrank.frobkernel import (
    ElemAbComplexity,
    NilPair,
    complexity,
    eval_one_param,
    frob2_report,
    homomorphism_sweep,
    srk_height_bound,
    srk_sln2,
    trunc_exp,
)
from satrank.slnorbits import Partition, jordan_matrix, regular_powers, srk_sln

F5 = field_make(5, 1)
F7 = field_make(7, 1)


def test_trunc_exp_zero():
    assert trunc_exp(Mat.zeros(F5, 3, 3)) == Mat.identity(F5, 3)


def test_trunc_exp_regular_sl3_p5():
    e = jordan_matrix(Partition((3,)), F5)
    # I + e + e^2 / 2 with 1/2 = 3 mod 5
    assert trunc_exp(e) == Mat.from_rows(F5, [[1, 1, 3], [0, 1, 1], [0, 0, 1]])


def test_trunc_exp_inverse():
    for n in (2, 3, 4):
        e = jordan_matrix(Partition((n,)), F5)
        x = e + (e @ e).scale(2)
        assert trunc_exp(x) @ trunc_exp(-x) == Mat.identity(F5, n)


def test_trunc_exp_rejects_non_nilpotent():
    with pytest.raises(PreconditionError):
        trunc_exp(Mat.identity(F5, 2))
    # regular nilpotent of size 4 is not 3-nilpotent
    with pytest.raises(PreconditionError):
        trunc_exp(jordan_matrix(Partition((4,)), field_make(3, 1)))


def test_trunc_exp_takes_p_from_the_field():
    e = jordan_matrix(Partition((3,)), F5)
    f25 = field_make(5, 2)
    e25 = jordan_matrix(Partition((3,)), f25)
    assert trunc_exp(e25).a.tolist() == trunc_exp(e).a.tolist()


def test_trunc_exp_unipotent_det_one():
    rng = random.Random(2)
    for n, p in [(3, 5), (4, 5), (4, 7)]:
        f = field_make(p, 1)
        e = jordan_matrix(Partition((n,)), f)
        for _ in range(6):
            x = Mat.zeros(f, n, n)
            power = e
            for _ in range(n - 1):
                x = x + power.scale(rng.randrange(f.q))
                power = power @ e
            u = trunc_exp(x)
            assert mat_det(u) == f.one
            assert mat_is_p_nilpotent(u - Mat.identity(f, n), p)
            assert trunc_exp(-x) @ u == Mat.identity(f, n)


def test_eval_one_param_lands_in_sl():
    e = jordan_matrix(Partition((4,)), F5)
    pair = NilPair(e, e + (e @ e))
    for s in F5.elements():
        assert mat_det(eval_one_param(pair, s)) == F5.one


def test_trunc_exp_additive_on_commuting_exhaustive():
    """exp(x+y) = exp(x)exp(y) over u_e, exhaustive for n <= 4, p <= 7, pair
    by pair, as an independent reference for criterion 9's stacked sweep.
    (4, 7), 117649 of its 136468 pairs, is left to criterion 9 alone."""
    for n, p in [(2, 2), (2, 3), (3, 3), (3, 5), (4, 5), (2, 7), (3, 7)]:
        if p < n:
            continue
        f = field_make(p, 1)
        basis = [Mat(f, m) for m in regular_powers(n, f)]
        d = len(basis)
        pts = []
        for coeffs in itertools.product(range(f.q), repeat=d):
            x = Mat.zeros(f, n, n)
            for c, b in zip(coeffs, basis):
                x = x + b.scale(c)
            pts.append(x)
        exps = [trunc_exp(x) for x in pts]
        index = {x: i for i, x in enumerate(pts)}
        for i, x in enumerate(pts):
            for j, y in enumerate(pts):
                assert exps[index[x + y]] == exps[i] @ exps[j]


def test_nilpair_validation():
    e = jordan_matrix(Partition((3,)), F5)
    NilPair(e, e @ e).validate()
    with pytest.raises(PreconditionError):
        NilPair(e, Mat.identity(F5, 3)).validate()  # not nilpotent
    f3 = field_make(3, 1)
    a = Mat.from_rows(f3, [[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    b = Mat.from_rows(f3, [[0, 0, 0], [0, 0, 1], [0, 0, 0]])
    with pytest.raises(PreconditionError):
        NilPair(a, b).validate()  # do not commute
    # the pair is checked before it is evaluated
    with pytest.raises(PreconditionError):
        eval_one_param(NilPair(a, b), 1)
    with pytest.raises(PreconditionError):
        homomorphism_sweep(NilPair(a, b))


def test_eval_one_param_degenerate():
    e = jordan_matrix(Partition((3,)), F5)
    pair = NilPair(e, Mat.zeros(F5, 3, 3))
    assert eval_one_param(pair, 0) == Mat.identity(F5, 3)
    for s in F5.elements():
        assert eval_one_param(pair, s) == trunc_exp(e.scale(s))


def test_homomorphism_sweep_f25():
    f25 = field_make(5, 2)
    e = jordan_matrix(Partition((4,)), f25)
    assert homomorphism_sweep(NilPair(e, e @ e)) == 625


def test_conjugation_equivariance():
    rng = random.Random(17)
    n, p = 3, 5
    f = field_make(p, 1)
    e = jordan_matrix(Partition((n,)), f)
    pair = NilPair(e, e + (e @ e))
    for _ in range(5):
        g = Mat.identity(f, n)
        ginv = Mat.identity(f, n)
        for _ in range(4):
            i, j = rng.sample(range(n), 2)
            c = rng.randrange(f.q)
            t = np.eye(n, dtype=np.int64)
            t[i, j] = c
            tinv = np.eye(n, dtype=np.int64)
            tinv[i, j] = f.neg(c)
            g = g @ Mat(f, t)
            ginv = Mat(f, tinv) @ ginv
        assert (g @ ginv) == Mat.identity(f, n)
        gpair = NilPair(g @ pair.alpha0 @ ginv, g @ pair.alpha1 @ ginv)
        for s in f.elements():
            assert eval_one_param(gpair, s) == g @ eval_one_param(pair, s) @ ginv


def test_regular_powers_span_u_e():
    # the shift maps of (n) are the powers of the Jordan matrix
    for n, f in [(2, F5), (5, F5), (6, F7)]:
        e = jordan_matrix(Partition((n,)), f)
        assert [Mat(f, m) for m in regular_powers(n, f)] == [e ** s for s in range(1, n)]
    basis = [Mat(F5, m) for m in regular_powers(3, F5)]
    assert len(basis) == 2
    with pytest.raises(PreconditionError):
        regular_powers(4, field_make(3, 1))
    # every pair from u_e x u_e is a valid commuting p-nilpotent pair
    for a in basis:
        for b in basis:
            NilPair(a, b).validate()


def test_srk_sln2_examples():
    assert srk_sln2(3, F5).value == 4
    assert srk_sln2(5, F7).value == 8
    res = srk_sln2(4, F5)
    assert res.value == 6
    res.pair.validate()
    assert complexity(res.datum) == 6
    with pytest.raises(PreconditionError):
        srk_sln2(4, field_make(3, 1))
    with pytest.raises(PreconditionError):
        srk_sln2(1, F5)


def test_srk_height_bound():
    assert srk_height_bound(2, 3) == 6
    assert srk_height_bound(1, 7) == 7
    assert srk_height_bound(3, 2) == 6
    with pytest.raises(PreconditionError):
        srk_height_bound(0, 1)


def test_bound_attained_at_height_two():
    for n, p in [(2, 3), (3, 5), (4, 5), (5, 7)]:
        assert srk_sln2(n, field_make(p, 1)).value == srk_height_bound(2, srk_sln(n, p).value)


def test_complexity_examples():
    assert complexity(ElemAbComplexity((2, 1))) == 4
    assert complexity(ElemAbComplexity((7,))) == 7
    assert complexity(ElemAbComplexity((0, 3), etale_rank=2)) == 8
    with pytest.raises(PreconditionError):
        ElemAbComplexity((-1,))
    # height-1 restriction bounds: sum l_i <= cx <= r * sum l_i
    for mults in [(2, 1), (0, 4), (1, 1, 1)]:
        e = ElemAbComplexity(mults)
        r = len(mults)
        assert sum(mults) <= complexity(e) <= r * sum(mults)


def test_srk_sln2_budget_bounds_the_rank_sequence(monkeypatch):
    # the check that e + e^2 is regular stacks its n powers, n^3 entries
    assert srk_sln2(5, F7, budget=5 ** 3).value == 8
    with pytest.raises(BudgetError, match="e \\+ e\\^2 has 125 matrix entries, over the budget 124$"):
        srk_sln2(5, F7, budget=5 ** 3 - 1)
    with pytest.raises(PreconditionError):  # invalid input before the budget
        srk_sln2(8, F7, budget=0)
    with pytest.raises(PreconditionError):
        srk_sln2(1, F7, budget=0)
    assert frob2_report(3, 5, budget=27)["srk_sln2"] == 4
    with pytest.raises(BudgetError):
        frob2_report(3, 5, budget=26)

    def built(*args):
        raise RuntimeError("a matrix was built")

    # at the default budget of 10^7, n <= 215 is admitted, before any matrix
    monkeypatch.setattr(frobkernel, "jordan_matrix", built)
    f = field_make(223, 1)
    with pytest.raises(RuntimeError):
        srk_sln2(215, f, budget=10 ** 7)
    with pytest.raises(BudgetError):
        srk_sln2(216, f, budget=10 ** 7)


def test_frob2_report():
    rep = frob2_report(3, 5)
    assert rep["srk_sln2"] == 4
    assert rep["bound_attained"] is True
    assert len(rep["witness_pair"]) == 2
