"""Cross-module agreement: closed forms vs the brute-force engines."""

import itertools

import numpy as np
import pytest

from satrank.fields import Mat, field_make, mat_rank
from satrank.lie import (
    centralizer,
    is_elementary,
    local_rank,
    nullcone,
    special_linear,
    srk_brute,
)
from satrank.oracle import _canonical_projective
from satrank.slnorbits import (
    Partition,
    jordan_matrix,
    o_rmin_sln,
    partition_of_nilpotent,
    srk_sln,
    subregular_witnesses,
)


@pytest.mark.parametrize("n,p", [(2, 3), (2, 5), (3, 3), (3, 5)])
def test_srk_sln_matches_brute(n, p):
    f = field_make(p, 1)
    assert srk_sln(n, p).value == srk_brute(special_linear(n, f)).srk


@pytest.mark.parametrize("n,p", [(3, 3), (3, 5)])
def test_o_rmin_points_are_regular_or_subregular(n, p):
    """The brute O_rmin locus carries exactly the Jordan types (n), (n-1,1)."""
    f = field_make(p, 1)
    alg = special_linear(n, f)
    res = srk_brute(alg)
    assert res.srk == n - 1
    expected = {lam.parts for lam in o_rmin_sln(n, p)}
    got = {partition_of_nilpotent(alg.matrix_of(v)).parts for v in res.o_rmin}
    assert got == expected
    # and the locus is everything here: every nonzero nullcone point is
    # regular or subregular for these (n, p)
    total = len(nullcone(alg)) - 1  # the codes of the nonzero points
    assert res.o_rmin_count == total


def _span_points(field, basis, dim):
    pts = [(0,) * dim]
    for v in basis:
        pts = pts + [tuple(field.add(w[t], field.mul(c, v[t])) for t in range(dim))
                     for w in pts for c in range(1, field.q)]
    return frozenset(pts)


@pytest.mark.parametrize("n,p", [(3, 3), (3, 5)])
def test_subregular_family_is_complete(n, p):
    """Brute force: the projective-line family lists every maximal elementary
    subalgebra containing the subregular representative."""
    f = field_make(p, 1)
    alg = special_linear(n, f)
    lam = Partition((n - 1, 1))
    x = alg.coords_of_matrix(jordan_matrix(lam, f))
    assert local_rank(alg, x).rank == n - 1
    # candidates: nullcone points centralizing x
    zbasis = centralizer(alg, x)
    cand = []
    for coeffs in itertools.product(range(f.q), repeat=len(zbasis)):
        v = [0] * alg.dim
        for c, w in zip(coeffs, zbasis):
            for t in range(alg.dim):
                v[t] = f.add(v[t], f.mul(c, w[t]))
        v = tuple(v)
        if any(v) and not any(alg.pmap_eval(v)):
            cand.append(v)
    reps = sorted({_canonical_projective(f, v) for v in cand})
    found = set()
    for a, b in itertools.combinations(reps, 2):
        rows = np.array([a, b, x], dtype=np.int64)
        if mat_rank(Mat(f, rows)) != 2:
            continue  # not 2-dimensional or x outside
        if mat_rank(Mat(f, rows[:2])) != 2:
            continue
        if not is_elementary(alg, [a, b]):
            continue
        found.add(_span_points(f, [a, b], alg.dim))
    emitted = {_span_points(f, s.basis, alg.dim)
               for s in subregular_witnesses(n, f)}
    assert found == emitted
    assert len(emitted) == f.q + 1
