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
from typing import NamedTuple

import numpy as np

from .errors import PreconditionError
from .fields import FieldSpec, Mat, field_make, mat_is_p_nilpotent
from .slnorbits import Partition, partition_of_nilpotent, regular_powers


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


def srk_sln2(n: int, field: FieldSpec) -> Sln2Result:
    """srk of the second Frobenius kernel of SL_n over field: 2(n-1) for p >= n.

    The witness pair is (e, e + e^2) with e regular nilpotent; e + e^2 is
    again regular (Jordan type (n), checked), and the elementary abelian
    subgroup carrying the value is the height-2 kernel of u_e, i.e. n-1
    height-2 factors of complexity 2(n-1).
    """
    if n < 2:
        raise PreconditionError("n must be >= 2")
    e = regular_powers(n, field)[0]  # refuses p < n
    e0 = e + (e @ e)
    pair = NilPair(alpha0=e, alpha1=e0).validate()
    if partition_of_nilpotent(e0) != Partition((n,)):
        raise PreconditionError("witness e + e^2 is not regular")
    datum = ElemAbComplexity(multiplicities=(0, n - 1))
    assert complexity(datum) == 2 * (n - 1)
    return Sln2Result(value=2 * (n - 1), pair=pair, datum=datum)


def _check_rows(field: FieldSpec, table, row_sums) -> int:
    """Check table[x_i + x_j] = table[i] @ table[j] for every pair; returns the pair count.

    table is the (N, n, n) code stack of the images of the points x_0, ...,
    x_{N-1}, and row_sums(i) the length-N index array of the points
    x_i + x_j.  Each row i is one stacked product table[i] @ table; a failure
    raises AssertionError naming the first failing pair (i, j) in row-major
    order.
    """
    checked = 0
    for i in range(len(table)):
        bad = (table[row_sums(i)] != field.matmul(table[i], table)).any(axis=(1, 2))
        if bad.any():
            raise AssertionError(f"homomorphism fails at ({i}, {int(bad.argmax())})")
        checked += len(bad)
    return checked


def homomorphism_sweep(pair: NilPair) -> int:
    """Exhaustively confirm eval(s+t) = eval(s) eval(t); returns pair count.

    The images of all q codes are one stacked evaluation, and _check_rows
    compares them one row of pairs at a time.
    """
    pair.validate()
    f = pair.alpha0.field
    codes = np.arange(f.q, dtype=np.int64)  # f.elements() in order: code s is row s
    table = _one_param_images(pair, codes)
    return _check_rows(f, table, lambda s: f.varr_add(s, codes))


def frob2_report(n: int, p: int) -> dict:
    res = srk_sln2(n, field_make(p, 1))
    return {
        "n": n,
        "p": p,
        "srk_sln2": res.value,
        "witness_pair": [res.pair.alpha0.tolist(), res.pair.alpha1.tolist()],
        "bound_attained": res.value == srk_height_bound(2, n - 1),
    }
