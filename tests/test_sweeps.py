"""The stacked homomorphism sweeps of frobkernel and of criteria 7 and 9.

Each check is compared with the pairwise loop it replaces: the same pairs,
the same identity, and on failure the same first pair in row-major order.
"""

import ast
import inspect
import itertools
import re

import numpy as np
import pytest

from satrank import acceptance, frobkernel
from satrank.fields import Mat, field_make
from satrank.frobkernel import NilPair, _check_rows, eval_one_param, homomorphism_sweep
from satrank.slnorbits import (
    Partition,
    XiCombination,
    jordan_matrix,
    regular_powers,
    xi_basis,
    xi_bracket,
    xi_compose,
    xi_product_table,
    xi_to_matrix,
)

F5 = field_make(5, 1)


def _pair(n, f):
    e = jordan_matrix(Partition((n,)), f)
    return NilPair(e, e + (e @ e))


def _corrupt(m: Mat) -> Mat:
    """m with one added to its top right entry."""
    a = m.a.copy()
    a[0, -1] = m.field.add(int(a[0, -1]), m.field.one)
    return Mat(m.field, a)


def _first_failure(pts, exps):
    """The first (i, j) in row-major order with exps[x_i + x_j] != exps[i] @ exps[j],
    found pair by pair with a dict from matrices to indices."""
    index = {x: i for i, x in enumerate(pts)}
    for i, x in enumerate(pts):
        for j, y in enumerate(pts):
            if exps[index[x + y]] != exps[i] @ exps[j]:
                return i, j
    return None


def test_pair_counts_are_pinned():
    nine = acceptance.run_criterion(9)
    assert nine.passed, nine.error
    assert nine.details == {"dominance_pairs": 918, "hom_pairs": 5671,
                            "exp_pairs": 136468, "algebras_validated": 10}
    seven = acceptance.run_criterion(7)
    assert seven.passed, seven.error
    assert {k: v for k, v in seven.details.items() if k.endswith("_pairs")} == {
        "n3_p5_k1_pairs": 25, "n3_p5_k2_pairs": 625,
        "n4_p5_k1_pairs": 25, "n4_p5_k2_pairs": 625,
        "n5_p7_k1_pairs": 49, "n5_p7_k2_pairs": 2401,
    }


@pytest.mark.parametrize("n,p,k", [(3, 5, 1), (4, 5, 2), (5, 7, 1), (2, 3, 2)])
def test_sweep_counts_every_pair(n, p, k):
    f = field_make(p, k)
    assert homomorphism_sweep(_pair(n, f)) == f.q ** 2


def _first_sweep_failure(f, table):
    """The first (s, t) of the pairwise loop that homomorphism_sweep ran before."""
    for s in f.elements():
        for t in f.elements():
            if table[f.add(s, t)] != table[s] @ table[t]:
                return s, t
    return None


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("bad", [0, 1, 3, 4])
def test_sweep_names_the_pairwise_first_failure(monkeypatch, k, bad):
    f = field_make(5, k)
    pair = _pair(3, f)
    table = [eval_one_param(pair, s) for s in f.elements()]
    table[bad] = _corrupt(table[bad])
    expect = _first_sweep_failure(f, table)
    assert expect is not None
    monkeypatch.setattr(frobkernel, "_one_param_images",
                        lambda pair, codes: np.array([table[s].a for s in codes]))
    with pytest.raises(AssertionError, match=rf"fails at \({expect[0]}, {expect[1]}\)$"):
        homomorphism_sweep(pair)


def test_check_rows_checks_every_row():
    f = field_make(7, 1)
    pair = _pair(4, f)
    table = np.array([eval_one_param(pair, s).a for s in f.elements()])
    codes = np.arange(f.q)
    assert _check_rows(f, table, lambda rows: f.varr_add(rows, codes)) == f.q ** 2
    for row in range(f.q):
        for col in (0, f.q - 1):
            def sums(rows, row=row, col=col):
                out = f.varr_add(rows, codes)
                at = rows[:, 0] == row  # a wrong index at (row, col) alone
                out[at, col] = f.varr_add(out[at, col], 1)
                return out

            with pytest.raises(AssertionError, match=rf"\({row}, {col}\)$"):
                _check_rows(f, table, sums)


def test_check_rows_names_a_failure_in_the_second_block():
    # 49 images of 5 x 5 matrices: rows 0, ..., step - 1 make the first block
    f = field_make(7, 2)
    codes = np.arange(f.q)
    table = frobkernel._one_param_images(_pair(5, f), codes)
    step = frobkernel._CHECK_BLOCK // (f.q * 25)
    assert 3 < step < f.q
    for row, col in [(step, 0), (step + 3, 17), (f.q - 1, f.q - 1)]:
        def sums(rows, row=row, col=col):
            out = f.varr_add(rows, codes)
            for r, c in [(row, col), (f.q - 1, f.q - 1)]:  # and the last pair
                at = rows[:, 0] == r
                out[at, c] = f.varr_add(out[at, c], 1)
            return out

        with pytest.raises(AssertionError, match=rf"\({row}, {col}\)$"):
            _check_rows(f, table, sums)


@pytest.mark.parametrize("bad", range(7))
def test_check_rows_names_the_pairwise_first_failure(bad):
    f = field_make(7, 1)
    table = np.array([eval_one_param(_pair(5, f), s).a for s in f.elements()])
    table[bad] = _corrupt(Mat(f, table[bad])).a
    s, t = _first_sweep_failure(f, [Mat(f, m) for m in table])
    codes = np.arange(f.q)
    with pytest.raises(AssertionError, match=rf"\({s}, {t}\)$"):
        _check_rows(f, table, lambda rows: f.varr_add(rows, codes))


def _u_e_points(n, f):
    basis = [Mat(f, m) for m in regular_powers(n, f)]
    pts = []
    for coeffs in itertools.product(range(f.q), repeat=len(basis)):
        x = Mat.zeros(f, n, n)
        for c, b in zip(coeffs, basis):
            x = x + b.scale(c)
        pts.append(x)
    return pts


@pytest.mark.parametrize("n,p,bad", [(3, 5, 0), (3, 5, 7), (3, 5, 24), (2, 7, 3), (4, 5, 60)])
def test_exp_law_names_the_pairwise_first_failure(monkeypatch, n, p, bad):
    f = field_make(p, 1)
    pts = _u_e_points(n, f)
    exps = [frobkernel.trunc_exp(x) for x in pts]
    exps[bad] = _corrupt(exps[bad])
    expect = _first_failure(pts, exps)
    assert expect is not None
    images = {x: e for x, e in zip(pts, exps)}

    def corrupted(stack):  # the field's stacked exponential, one image wrong
        return np.array([images[Mat(f, x)].a for x in stack])

    monkeypatch.setattr(f, "trunc_exp", corrupted)
    with pytest.raises(AssertionError, match=rf"fails at \({expect[0]}, {expect[1]}\)$"):
        acceptance._check_exp_law(n, f)


@pytest.mark.parametrize("n,p", [(n, p) for n in (2, 3, 4) for p in (2, 3, 5, 7) if p >= n])
def test_exp_law_sums_are_the_sorted_key_lookup(monkeypatch, n, p):
    # the index of x_i + x_j read off the coefficients, against a lookup by
    # matrix: each point keyed by its entries read as base-q digits, and the
    # sum found by binary search among the sorted keys
    f = field_make(p, 1)
    seen, trunc_exp = {}, f.trunc_exp

    def points(stack):
        seen["pts"] = stack.reshape(len(stack), -1)
        return trunc_exp(stack)

    def sums(field, table, row_sums):
        seen["sums"] = row_sums(np.arange(len(table))[:, None])
        return len(table) ** 2

    monkeypatch.setattr(f, "trunc_exp", points)
    monkeypatch.setattr(acceptance, "_check_rows", sums)
    assert acceptance._check_exp_law(n, f) == f.q ** (2 * (n - 1))
    pts = seen["pts"]
    weights = f.q ** np.arange(n * n, dtype=np.int64)
    keys = pts @ weights
    order = np.argsort(keys)
    assert (np.diff(keys[order]) != 0).all()  # the points are distinct
    want = f.varr_add(pts[:, None], pts[None]) @ weights
    at = np.minimum(np.searchsorted(keys[order], want), len(keys) - 1)
    assert (keys[order][at] == want).all()  # x + y lies in u_e
    assert (order[at] == seen["sums"]).all()


def test_every_pair_sweep_runs_through_check_rows():
    # one blocked loop, in _check_rows, for the sweeps of criteria 7 and 9;
    # no bracket, key sort or binary search besides it
    for fn in (acceptance._check_shift_maps, acceptance._check_exp_law, homomorphism_sweep):
        nodes = list(ast.walk(ast.parse(inspect.getsource(fn))))
        called = [getattr(node.func, "id", getattr(node.func, "attr", None))
                  for node in nodes if isinstance(node, ast.Call)]
        assert called.count("_check_rows") == 1, fn.__name__
        assert not any(isinstance(node, (ast.For, ast.While)) for node in nodes), fn.__name__
        assert not set(called) & {"argsort", "searchsorted", "sort", "varr_neg"}, fn.__name__


def test_exp_law_counts_every_pair():
    for n, p in [(2, 2), (3, 3), (3, 7)]:
        f = field_make(p, 1)
        assert acceptance._check_exp_law(n, f) == f.q ** (2 * (n - 1))


def _first_shift_failure(lam, f, compose):
    """The first (a, b) in row-major order at which the matrix of
    compose(a, b) is not the product of the matrices of a and b, found pair
    by pair."""
    basis = xi_basis(lam)
    mats = {el: xi_to_matrix(lam, el, f) for el in basis}
    for a in basis:
        for b in basis:
            if xi_to_matrix(lam, compose(a, b), f) != mats[a] @ mats[b]:
                return a, b
    return None


def _table_calculus(lam, table):
    """compose and bracket of the shift basis read from a product table, as
    xi_compose and xi_bracket read xi_product_table."""
    basis = xi_basis(lam)
    at = {el: k for k, el in enumerate(basis)}

    def compose(a, b):
        k = table[at[a], at[b]]
        return basis[k] if k >= 0 else XiCombination(lam)

    return compose, lambda a, b: compose(a, b) + compose(b, a).scale(-1)


def test_table_calculus_is_the_library_calculus():
    for parts in [(3, 2, 1), (2, 2), (4, 1, 1)]:
        lam = Partition(parts)
        compose, bracket = _table_calculus(lam, xi_product_table(lam))
        for a in xi_basis(lam):
            for b in xi_basis(lam):
                assert compose(a, b) == xi_compose(a, b)
                assert bracket(a, b) == xi_bracket(a, b)
        assert _first_shift_failure(lam, F5, compose) is None


# A fault in the calculus is a fault in its product table: "compose" corrupts
# the entry of a0 . b0, "bracket" the entry of b0 . a0, a term of the bracket
# a0 . b0 - b0 . a0, which the composition law catches at (b0, a0).  The
# corrupted entry points at another basis element, or at one where the
# product was zero.
@pytest.mark.parametrize("which", ["compose", "bracket"])
@pytest.mark.parametrize("parts,at", [((3, 2, 1), 5), ((2, 2), 0), ((4, 1, 1), 13)])
def test_shift_maps_name_the_pairwise_first_failure(monkeypatch, which, parts, at):
    lam = Partition(parts)
    basis = xi_basis(lam)
    a0, b0 = at % len(basis), (3 * at + 1) % len(basis)
    row, col = (a0, b0) if which == "compose" else (b0, a0)
    table = xi_product_table(lam).copy()
    table[row, col] = 1 if table[row, col] == 0 else 0
    a, b = _first_shift_failure(lam, F5, _table_calculus(lam, table)[0])
    assert (basis.index(a), basis.index(b)) == (row, col)
    monkeypatch.setattr(acceptance, "xi_product_table", lambda lam: table)
    with pytest.raises(AssertionError, match=re.escape(f"fail at ({a}, {b})") + "$"):
        acceptance._check_shift_maps(lam, F5)


def test_shift_maps_catch_a_flipped_bracket(monkeypatch):
    # every product taken in the wrong order: a . b read as b . a, which
    # flips every bracket and fails the composition law at the first
    # noncommuting pair
    lam = Partition((3, 1))
    table = xi_product_table(lam).T
    expect = _first_shift_failure(lam, F5, _table_calculus(lam, table)[0])
    assert expect is not None
    monkeypatch.setattr(acceptance, "xi_product_table", lambda lam: table)
    with pytest.raises(AssertionError) as info:
        acceptance._check_shift_maps(lam, F5)
    assert str(info.value).endswith(f"({expect[0]}, {expect[1]})")


@pytest.mark.parametrize("parts", [(1, 1, 1, 1, 1, 1), (2, 1, 1, 1, 1)])
def test_shift_maps_name_a_failure_in_a_later_block(monkeypatch, parts):
    lam = Partition(parts)
    basis = xi_basis(lam)
    # _check_rows takes the basis images and a zero matrix: N + 1 rows
    step = frobkernel._CHECK_BLOCK // ((len(basis) + 1) * lam.n ** 2)
    assert 1 < step < len(basis)  # the rows take more than one block
    for row, col in [(step, 0), (step + 1, 7), (len(basis) - 1, len(basis) - 1)]:
        table = xi_product_table(lam).copy()
        table[row, col] = 1 if table[row, col] == 0 else 0
        a, b = _first_shift_failure(lam, F5, _table_calculus(lam, table)[0])
        assert basis.index(a) >= step or basis.index(b) >= step
        monkeypatch.setattr(acceptance, "xi_product_table", lambda lam: table)
        with pytest.raises(AssertionError, match=re.escape(f"fail at ({a}, {b})") + "$"):
            acceptance._check_shift_maps(lam, F5)


def test_shift_maps_count_every_pair():
    for parts in [(1,), (2, 1), (3, 3), (2, 2, 1, 1)]:
        lam = Partition(parts)
        assert acceptance._check_shift_maps(lam, F5) == len(xi_basis(lam)) ** 2


@pytest.mark.parametrize("n,p,k", [(3, 5, 1), (4, 5, 2), (5, 7, 2), (2, 1009, 1)])
def test_sweep_images_are_the_per_point_exponentials(n, p, k):
    f = field_make(p, k)
    pair = _pair(n, f)
    table = frobkernel._one_param_images(pair, np.arange(f.q))
    for s in (0, 1, f.q // 2, f.q - 1):
        want = (frobkernel.trunc_exp(pair.alpha0.scale(s))
                @ frobkernel.trunc_exp(pair.alpha1.scale(f.pow(s, p))))
        assert table[s].tolist() == want.a.tolist()
