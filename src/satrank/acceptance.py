"""The reproduction table: every headline number, re-derived and checked.

Each criterion is a callable returning a details dict; a failed check raises
AssertionError.  run_all drives them and is shared by the test suite and the
`satrank reproduce-paper` subcommand.

Criteria 4 and 5 check every sl_n witness with one stacked routine,
_check_witnesses: each basis spans an elementary subalgebra that holds its
own point, x_tau at the subregular orbit, x_lambda below it.

Every sweep of criteria 7 and 9 asks whether a map of points is a
homomorphism, image(x_i + x_j) = image(x_i) image(x_j) for every pair, and
asks it through frobkernel._check_rows: the one-parameter subgroups of
criterion 7 (homomorphism_sweep), and criterion 9's shift maps under
composition and truncated exponentials on u_e.
"""

from __future__ import annotations

import itertools
import time
import traceback
from typing import Callable, NamedTuple

import numpy as np

from .fields import _rref, field_make, is_prime
from .frobkernel import _CHECK_BLOCK, _check_rows, homomorphism_sweep, srk_height_bound, srk_sln2
from .groups import dihedral_square, group_ranks
from .lie import (
    _elementary_conditions,
    abelian_p_trivial,
    heisenberg,
    sl_coords,
    special_linear,
    srk_brute,
    toral,
)
from .oracle import oracle_srk_lie
from .slnorbits import (
    Partition,
    dominance_leq,
    jordan_matrix,
    lower_orbit_min_p,
    lower_orbit_witness,
    o_rmin_sln,
    partitions,
    rank_sequences,
    regular_powers,
    srk_sln,
    subregular_witnesses,
    xi_basis,
    xi_product_table,
    xi_to_matrices,
)


def _smallest_prime_geq(n):
    p = max(2, n)
    while not is_prime(p):
        p += 1
    return p


def criterion_1_dihedral():
    """srk(D8, p=2) = 2 = quillen_dim with exactly two rank-2 classes."""
    ranks = group_ranks(dihedral_square(), 2)
    res = ranks.elemab
    assert ranks.srk == 2
    assert ranks.quillen_dim == 2
    assert len(res.representatives) == 2
    assert all(s.rank == 2 for s in res.representatives)
    assert len(res.all_subgroups) == 2
    return {"srk": 2, "quillen_dim": 2, "classes": 2}


def criterion_2_heisenberg():
    """srk(h_{2n+1}) = n+1 for (n,p) in {(1,3),(1,5),(2,3)}; oracle check at (1,3)."""
    out = {}
    for n, p in [(1, 3), (1, 5), (2, 3)]:
        f = field_make(p, 1)
        res = srk_brute(heisenberg(n, f))
        assert res.srk == n + 1, (n, p, res.srk)
        out[f"h{2*n+1}_p{p}"] = res.srk
    assert oracle_srk_lie(heisenberg(1, field_make(3, 1))) == 2
    # stability re-run over the quadratic extension
    f9 = field_make(3, 2)
    assert srk_brute(heisenberg(1, f9)).srk == 2
    out["oracle_h3_p3"] = 2
    out["h3_over_F9"] = 2
    return out


def criterion_3_srk_sln():
    """srk(sl_n) = n-1 closed form; brute-force agreement at desk scale."""
    out = {}
    for n, p in [(2, 3), (2, 5), (3, 3), (3, 5), (4, 5), (5, 5), (6, 7)]:
        res = srk_sln(n, p)
        assert res.value == n - 1 and res.exact, (n, p, res)
        out[f"sl{n}_p{p}"] = res.value
    for n, p in [(2, 3), (2, 5), (3, 3)]:
        f = field_make(p, 1)
        brute = srk_brute(special_linear(n, f))
        assert brute.srk == n - 1, (n, p, brute.srk)
        out[f"brute_sl{n}_p{p}"] = brute.srk
    # stability re-run over the quadratic extension
    assert srk_brute(special_linear(2, field_make(3, 2))).srk == 1
    out["brute_sl2_over_F9"] = 1
    return out


def criterion_4_subregular():
    """Subregular witnesses: dimension n-1, elementary, centralizing x_tau."""
    out = {}
    cases = [(3, 2), (3, 3), (4, 3), (4, 5), (5, 5), (6, 5), (6, 7)]
    for n, p in cases:
        f = field_make(p, 1)
        subs = subregular_witnesses(n, f)
        expected = 2 if (n, p) == (3, 2) else f.q + 1
        assert len(subs) == expected, (n, p, len(subs))
        assert all(s.rank == n - 1 for s in subs)
        xj = sl_coords(f, jordan_matrix(Partition((n - 1, 1)), f).a)
        names = [f"subregular witness {w} of sl_{n} over F_{p}" for w in range(len(subs))]
        _check_witnesses(special_linear(n, f), np.array([s.basis for s in subs], dtype=np.int64),
                         np.broadcast_to(xj, (len(subs), len(xj))), names, "x_tau")
        out[f"n{n}_p{p}"] = len(subs)
    return out


def _check_witnesses(alg, bases, points, names, point):
    """Every basis of the (W, k, dim) stack spans an elementary subalgebra
    of alg that holds its row of the (W, dim) points, which the conditions
    call point; the rows commute, so it centralizes that point too.
    Witnesses are checked on alg's matrix model (sl_n's n x n matrices), in
    blocks of at most _CHECK_BLOCK entries of the products X_a X_b, k^2 n^2
    per witness; a failure names the first failing witness, by its entry of
    names, and its first failing condition.
    """
    f, (count, k, _) = alg.field, bases.shape
    conditions = ["dependent rows", "non-commuting rows", "nonzero p-map", f"{point} outside the span"]
    step = max(1, _CHECK_BLOCK // (k * k * alg._model[0].size))
    for start in range(0, count, step):
        b, x = bases[start:start + step], points[start:start + step]
        with_x = np.concatenate([b, x[:, None]], axis=1)
        ok = np.array([*_elementary_conditions(alg, b),
                       # rank [B; x] = k, read off the transpose: k + 1 pivot columns at most
                       _rref(f, with_x.transpose(0, 2, 1))[1].sum(axis=1) == k])
        if not ok.all():
            w = ok.all(axis=0).argmin()
            raise AssertionError(f"{names[start + w]}: {conditions[ok[:, w].argmin()]}")


def criterion_5_lower_orbits():
    """Lower-orbit witnesses of dimension >= n; floor(n^2/4) at (2,1^(n-2))."""
    out, maxima = {}, {}
    for n in (4, 5, 6, 7):
        p = _smallest_prime_geq(lower_orbit_min_p(n))
        f = field_make(p, 1)
        cases = [(lam, False) for lam in partitions(n)
                 if dominance_leq(lam, Partition((n - 2, 2))) and lam.parts[0] <= p]
        out[f"n{n}_p{p}_orbits"] = len(cases)
        if n in (4, 5):  # and the floor(n^2/4) nilradical witness at (2,1^(n-2))
            cases.append((Partition((2,) + (1,) * (n - 2)), True))
        subs = [lower_orbit_witness(lam, f, maximal) for lam, maximal in cases]
        assert all(w.rank >= n for w in subs), (n, p, [w.rank for w in subs])
        if n in (4, 5):
            assert subs[-1].rank == n * n // 4
            maxima[f"max_witness_n{n}"] = subs[-1].rank
        alg = special_linear(n, f)
        points = sl_coords(f, np.array([jordan_matrix(lam, f).a for lam, _ in cases]))
        names = [f"{'maximal' if maximal else 'lower-orbit'} witness {lam.parts} of sl_{n} "
                 f"over F_{p}" for lam, maximal in cases]
        ranks = [w.rank for w in subs]
        for k in sorted(set(ranks)):  # one stacked check per rank
            group = [i for i, r in enumerate(ranks) if r == k]
            _check_witnesses(alg, np.array([subs[i].basis for i in group], dtype=np.int64),
                             points[group], [names[i] for i in group], "x_lambda")
    return {**out, **maxima}


def criterion_6_o_rmin():
    """O_rmin = regular + subregular for (3,5), (4,5), (5,7)."""
    out = {}
    for n, p in [(3, 5), (4, 5), (5, 7)]:
        got = o_rmin_sln(n, p)
        assert [lam.parts for lam in got] == [(n,), (n - 1, 1)]
        f = field_make(p, 1)
        # consistency: members carry dimension n-1 witnesses, everything else >= n
        assert all(s.rank == n - 1 for s in subregular_witnesses(n, f))
        for lam in partitions(n):
            if lam in got or lam.parts[0] > p or n < 4:
                continue
            assert lower_orbit_witness(lam, f).rank >= n > n - 1
        out[f"n{n}_p{p}"] = [list(lam.parts) for lam in got]
    return out


def criterion_7_frobenius_height_two():
    """srk(SL_n(2)) = 2(n-1): witness pair and exhaustive exp sweeps."""
    out = {}
    for n, p in [(3, 5), (4, 5), (5, 7)]:
        res = srk_sln2(n, field_make(p, 1))
        assert res.value == 2 * (n - 1)
        res.pair.validate()
        for k in (1, 2):
            f = field_make(p, k)
            checked = homomorphism_sweep(srk_sln2(n, f).pair)
            assert checked == f.q ** 2
            out[f"n{n}_p{p}_k{k}_pairs"] = checked
        out[f"n{n}_p{p}"] = res.value
    return out


def criterion_8_bound_attained():
    """srk_height_bound(2, srk(sl_n)) equals srk(SL_n(2)) on all tested pairs."""
    out = {}
    for n, p in [(3, 5), (4, 5), (5, 7)]:
        lhs = srk_height_bound(2, srk_sln(n, p).value)
        rhs = srk_sln2(n, field_make(p, 1)).value
        assert lhs == rhs == 2 * (n - 1)
        out[f"n{n}_p{p}"] = lhs
    return out


def _check_shift_maps(lam, field):
    """The matrix map of the shift maps (xi_to_matrices) is a homomorphism
    for compose on the shift basis of lam, with the products of the basis
    read from xi_product_table, the calculus of xi_compose; returns the
    number of basis pairs.  The bracket a . b - b . a needs no check of its
    own: both of its terms are compared here, at (a, b) and at (b, a).

    _check_rows takes the basis images and one zero matrix, appended last,
    with the table padded by -1 for its row and column: -1 is where a
    product is zero, and indexes that zero matrix.
    """
    basis = xi_basis(lam)
    count = len(basis)
    assert count == sum(min(a, b) for a in lam.parts for b in lam.parts)
    images = np.pad(xi_to_matrices(lam, basis, field), ((0, 1), (0, 0), (0, 0)))  # images[-1] = 0
    table = np.pad(xi_product_table(lam), (0, 1), constant_values=-1)
    _check_rows(field, images, lambda rows: table[rows[:, 0]],
                lambda a, b: f"shift maps of {lam.parts} fail at ({basis[a]}, {basis[b]})")
    return count * count


def _check_exp_law(n, field):
    """exp(x + y) = exp(x) exp(y) for every pair of points of u_e; returns the
    number of pairs.

    The points are the coefficient vectors c, in itertools.product order,
    times the stacked basis of u_e, so x_i + x_j is the point numbered by
    (c_i + c_j) . (q^(n-2), ..., q, 1); the basis is independent, so the
    q^(n-1) points are distinct.
    """
    basis = regular_powers(n, field).reshape(n - 1, -1)
    assert _rref(field, basis[None])[1].sum() == n - 1
    coeffs = np.array(list(itertools.product(range(field.q), repeat=n - 1)))
    pts = field.matmul(coeffs, basis).reshape(-1, n, n)
    digits = field.q ** np.arange(n - 2, -1, -1)
    assert not field.matpow(pts, field.p).any()  # exp(x) is the truncated exponential
    return _check_rows(field, field.trunc_exp(pts),
                       lambda rows: field.varr_add(coeffs[rows], coeffs) @ digits)


def criterion_9_property_suites():
    """Exhaustive structural identities at the stated scales."""
    f5 = field_make(5, 1)
    # dominance <-> rank sequences, n <= 8
    pairs = 0
    for n in range(1, 9):
        pts = list(partitions(n))
        ranks = rank_sequences(f5, [jordan_matrix(lam, f5).a for lam in pts])
        below = (ranks[:, None] <= ranks[None]).all(axis=2)  # below[a, b]: every rank of a <= b's
        for (a, mu), (b, lam) in itertools.product(enumerate(pts), repeat=2):
            assert dominance_leq(mu, lam) == below[a, b]
            pairs += 1
    # shift-map count identity and matrix homomorphism, n <= 6
    hom_pairs = 0
    for n in range(1, 7):
        for lam in partitions(n):
            hom_pairs += _check_shift_maps(lam, f5)
    # truncated exponential group law over u_e, n <= 4, p <= 7
    exp_pairs = 0
    for n in (2, 3, 4):
        for p in (2, 3, 5, 7):
            if p < n:
                continue
            exp_pairs += _check_exp_law(n, field_make(p, 1))
    # restrictedness (full validation) on every constructed algebra family
    f3 = field_make(3, 1)
    validated = 0
    for alg in (heisenberg(1, f3), heisenberg(2, f3), heisenberg(1, f5),
                special_linear(2, f3), special_linear(2, f5),
                special_linear(3, f3), special_linear(3, f5),
                abelian_p_trivial(3, f3), toral(2, f3),
                special_linear(2, field_make(3, 2))):
        alg.validate()
        validated += 1
    return {"dominance_pairs": pairs, "hom_pairs": hom_pairs,
            "exp_pairs": exp_pairs, "algebras_validated": validated}


class CriterionResult(NamedTuple):
    cid: int
    description: str
    passed: bool
    details: dict
    seconds: float
    error: str


CRITERIA: list[tuple[int, str, Callable]] = [
    (1, "srk(D8, p=2) = 2 with two rank-2 maximal classes", criterion_1_dihedral),
    (2, "srk(Heisenberg h_{2n+1}) = n+1 at (1,3), (1,5), (2,3)", criterion_2_heisenberg),
    (3, "srk(sl_n) = n-1 closed form + brute-force agreement", criterion_3_srk_sln),
    (4, "subregular witnesses: dim n-1, elementary, centralizing", criterion_4_subregular),
    (5, "lower-orbit witnesses: dim >= n; floor(n^2/4) maxima", criterion_5_lower_orbits),
    (6, "O_rmin = regular + subregular at (3,5), (4,5), (5,7)", criterion_6_o_rmin),
    (7, "srk(SL_n(2)) = 2(n-1) with exhaustive exp sweeps", criterion_7_frobenius_height_two),
    (8, "height-2 bound 2*srk(sl_n) is attained", criterion_8_bound_attained),
    (9, "property suites: dominance, shift maps, exp laws, axioms", criterion_9_property_suites),
]


def run_criterion(cid: int) -> CriterionResult:
    for num, desc, fn in CRITERIA:
        if num == cid:
            start = time.perf_counter()
            try:
                details = fn()
                return CriterionResult(num, desc, True, details,
                                       time.perf_counter() - start, "")
            except Exception as exc:  # one broken criterion must not stop the table
                return CriterionResult(num, desc, False, {"traceback": traceback.format_exc()},
                                       time.perf_counter() - start, f"{type(exc).__name__}: {exc}")
    raise ValueError(f"no criterion {cid}")


def run_all():
    return [run_criterion(num) for num, _, _ in CRITERIA]
