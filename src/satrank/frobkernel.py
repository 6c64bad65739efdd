"""Height-2 data for SL_n: truncated exponentials and commuting nilpotent pairs.

An infinitesimal one-parameter subgroup of the second Frobenius kernel is a
commuting pair of p-nilpotent traceless matrices (a0, a1), evaluated at a
field point s as exp(s a0) . exp(s^p a1) with the truncated exponential
exp(x) = sum_{i<p} x^i / i!.  Since (s+t)^p = s^p + t^p and the pair commutes,
these maps are homomorphisms, and the regular nilpotent e together with
e0 = e + e^2 realizes the extreme value srk(SL_n(2)) = 2(n-1) = 2 srk(sl_n):
the pair lives in u_e x u_e for u_e = span{e, ..., e^(n-1)}, an abelian
unipotent of dimension n-1 whose height-2 kernel has complexity 2(n-1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import PreconditionError
from .fields import FieldSpec, Mat, field_make, mat_is_p_nilpotent
from .slnorbits import Partition, _charge, jordan_matrix, partition_of_nilpotent


def trunc_exp(x: Mat) -> Mat:
    """exp(x) = 1 + x + x^2/2 + ... + x^(p-1)/(p-1)! for p-nilpotent x over a
    field of characteristic p (FieldSpec.trunc_exp)."""
    if not mat_is_p_nilpotent(x, x.field.p):
        raise PreconditionError("truncated exponential needs a p-nilpotent argument")
    return Mat._wrap(x.field, x.field.trunc_exp(x.a))


@dataclass(frozen=True)
class NilPair:
    """Commuting pair of p-nilpotent traceless matrices over a field of
    characteristic p: the datum of an infinitesimal one-parameter subgroup."""

    alpha0: Mat
    alpha1: Mat

    def validate(self):
        for m in (self.alpha0, self.alpha1):
            if m.rows != m.cols:
                raise PreconditionError("pair entries must be square")
            if m.trace() != 0:
                raise PreconditionError("pair entries must be traceless")
            if not mat_is_p_nilpotent(m, m.field.p):
                raise PreconditionError("pair entries must be p-nilpotent")
        if not (self.alpha0 @ self.alpha1 - self.alpha1 @ self.alpha0).is_zero():
            raise PreconditionError("pair entries must commute")
        return self


def _one_param_images(pair: NilPair, codes) -> np.ndarray:
    """The (len(codes), n, n) stack of exp(s a0) . exp(s^p a1) over the field
    codes s, from one stacked exponential of each factor (pair not checked)."""
    f = pair.alpha0.field
    s = np.asarray(codes, dtype=np.int64)[:, None, None]
    return f.matmul(f.trunc_exp(f.varr_mul(s, pair.alpha0.a)),
                    f.trunc_exp(f.varr_mul(f.varr_pow(s, f.p), pair.alpha1.a)))


def eval_one_param(pair: NilPair, s: int) -> Mat:
    """exp(s a0) . exp(s^p a1) at the field code s."""
    pair.validate()
    return Mat._wrap(pair.alpha0.field, _one_param_images(pair, [s])[0])


@dataclass(frozen=True)
class ElemAbComplexity:
    """Multiplicities of height-i infinitesimal factors, plus an etale rank."""

    multiplicities: tuple
    etale_rank: int = 0

    def __post_init__(self):
        if any(m < 0 for m in self.multiplicities) or self.etale_rank < 0:
            raise PreconditionError("multiplicities must be nonnegative")


def complexity(e: ElemAbComplexity) -> int:
    """sum_i l_i * i over the factor multiplicities, plus the etale rank."""
    return sum(l * (i + 1) for i, l in enumerate(e.multiplicities)) + e.etale_rank


def srk_height_bound(r: int, srk1: int) -> int:
    """Upper bound r * srk at height r from the height-1 saturation rank."""
    if r < 1 or srk1 < 0:
        raise PreconditionError("need r >= 1 and srk1 >= 0")
    return r * srk1


class Sln2Result(NamedTuple):
    value: int
    pair: NilPair
    datum: ElemAbComplexity


def srk_sln2(n: int, field: FieldSpec, budget: Optional[int] = None) -> Sln2Result:
    """srk of the second Frobenius kernel of SL_n over field: 2(n-1) for p >= n.

    The witness pair is (e, e + e^2) with e regular nilpotent; e + e^2 is
    again regular (Jordan type (n), checked), and the elementary abelian
    subgroup carrying the value is the height-2 kernel of u_e, i.e. n-1
    height-2 factors of complexity 2(n-1).  That check stacks the n powers
    of e + e^2: with a budget, BudgetError before any matrix is built when
    their n^3 entries exceed it; None means unbounded.
    """
    if n < 2:
        raise PreconditionError("n must be >= 2")
    if field.p < n:
        raise PreconditionError(f"srk of SL_n(2) needs p >= n = {n}, got {field.p}")
    _charge("the rank sequence of e + e^2", n, n, budget)
    e = jordan_matrix(Partition((n,)), field)
    e0 = e + (e @ e)
    pair = NilPair(alpha0=e, alpha1=e0).validate()
    if partition_of_nilpotent(e0) != Partition((n,)):
        raise PreconditionError("witness e + e^2 is not regular")
    datum = ElemAbComplexity(multiplicities=(0, n - 1))
    assert complexity(datum) == 2 * (n - 1)
    return Sln2Result(value=2 * (n - 1), pair=pair, datum=datum)


# product entries per block of _check_rows.  Small blocks keep the
# temporaries in cache and FieldSpec._reduce on its libdivide path; criterion
# 9's exp-law sweeps took 21.9, 17.9, 20.4 and 22.7 ms in blocks of 2**13,
# 2**14, 2**15 and 2**16 entries (25.6 ms one row at a time; 2-vCPU VM).
_CHECK_BLOCK = 1 << 14


def _check_rows(field: FieldSpec, table, row_sums,
                fails=lambda i, j: f"homomorphism fails at ({i}, {j})") -> int:
    """Check table[x_i + x_j] = table[i] @ table[j] for every pair; returns the pair count.

    table is the (N, n, n) code stack of the images of the points x_0, ...,
    x_{N-1}, and row_sums(rows), for a column of row indices i, the
    (len(rows), N) index array of the points x_i + x_j.  The rows are taken
    in blocks of at most _CHECK_BLOCK product entries; a block's products
    table[i] @ table[j] are one 2-D product of its matrices stacked by rows
    with the side-by-side table [T_0 | T_1 | ...].  A failure raises
    AssertionError with the message fails(i, j) for the first failing pair
    (i, j) in row-major order.
    """
    count, n = len(table), table.shape[-1]
    rows = table.reshape(count * n, n)
    side = np.swapaxes(table, 0, 1).reshape(n, count * n)  # [T_0 | T_1 | ...]
    step = max(1, _CHECK_BLOCK // (count * n * n))
    for start in range(0, count, step):
        stop = min(start + step, count)
        prod = field.matmul(rows[start * n:stop * n], side).reshape(stop - start, n, count, n)
        want = table[row_sums(np.arange(start, stop)[:, None])]  # want[i, j]: image of x_i + x_j
        bad = prod != want.transpose(0, 2, 1, 3)
        if bad.any():  # one reduction over the block; the pairs only on failure
            i, j = np.argwhere(bad.any(axis=(1, 3)))[0]
            raise AssertionError(fails(start + i, j))
    return count * count


def homomorphism_sweep(pair: NilPair) -> int:
    """Exhaustively confirm eval(s+t) = eval(s) eval(t); returns pair count.

    The images of all q codes are one stacked evaluation, and _check_rows
    compares them in blocks of rows of pairs.
    """
    pair.validate()
    f = pair.alpha0.field
    codes = np.arange(f.q, dtype=np.int64)  # f.elements() in order: code s is row s
    table = _one_param_images(pair, codes)
    return _check_rows(f, table, lambda rows: f.varr_add(rows, codes))


def frob2_report(n: int, p: int, budget: Optional[int] = None) -> dict:
    """The witness pair and value of srk_sln2(n, F_p, budget)."""
    res = srk_sln2(n, field_make(p, 1), budget)
    return {
        "n": n,
        "p": p,
        "srk_sln2": res.value,
        "witness_pair": [res.pair.alpha0.tolist(), res.pair.alpha1.tolist()],
        "bound_attained": res.value == srk_height_bound(2, n - 1),
    }
