import tracemalloc

import numpy as np
import pytest

from satrank import BudgetError, PreconditionError, slnorbits
from satrank.fields import Mat, _rref, field_make, mat_kernel_basis, mat_rank
from satrank.lie import is_elementary, special_linear
from satrank.slnorbits import (
    OrbitClass,
    Partition,
    XiCombination,
    centralizer_sl_basis,
    dominance_leq,
    highest_root_witness,
    jordan_matrix,
    lower_orbit_witness,
    nullcone_top_partition,
    o_rmin_sln,
    partition_count,
    partition_of_nilpotent,
    partitions,
    rank_sequence,
    rank_sequences,
    regular_witness,
    sln_report,
    srk_sln,
    subregular_witnesses,
    xi,
    xi_basis,
    xi_bracket,
    xi_compose,
    xi_product_table,
    xi_term,
    xi_to_matrix,
)

F3 = field_make(3, 1)
F5 = field_make(5, 1)


# ---------------------------------------------------------------------------
# partitions and dominance
# ---------------------------------------------------------------------------

def test_partition_validation():
    with pytest.raises(PreconditionError):
        Partition((1, 2))
    with pytest.raises(PreconditionError):
        Partition((2, 0))
    with pytest.raises(PreconditionError):
        Partition(())


def test_dominance_examples():
    assert dominance_leq(Partition((2, 2)), Partition((3, 1)))
    assert not dominance_leq(Partition((3, 1)), Partition((2, 2)))
    for lam in partitions(4):
        assert dominance_leq(Partition((1, 1, 1, 1)), lam)
    with pytest.raises(PreconditionError):
        dominance_leq(Partition((2,)), Partition((3,)))


def test_dominance_iff_rank_sequences():
    """mu below lam iff rank(jordan(mu)^k) <= rank(jordan(lam)^k) for all k; n <= 8."""
    for n in range(1, 9):
        pts = list(partitions(n))
        ranks = {}
        for lam in pts:
            ranks[lam] = rank_sequence(jordan_matrix(lam, F5))
        for mu in pts:
            for lam in pts:
                lhs = dominance_leq(mu, lam)
                rhs = all(a <= b for a, b in zip(ranks[mu], ranks[lam]))
                assert lhs == rhs, (mu, lam)


def test_jordan_matrix_examples():
    assert jordan_matrix(Partition((1, 1, 1)), F3).is_zero()
    j = jordan_matrix(Partition((4,)), F5)
    assert mat_rank(j) == 3
    # rank of jordan(lam)^k = sum max(lam_i - k, 0)
    for parts in [(3, 1), (2, 2, 1), (4, 3, 1)]:
        lam = Partition(parts)
        j = jordan_matrix(lam, F5)
        x = Mat.identity(F5, lam.n)
        for k in range(1, lam.n + 1):
            x = x @ j
            assert mat_rank(x) == sum(max(part - k, 0) for part in parts)
        assert rank_sequence(j) == [sum(max(part - k, 0) for part in parts)
                                    for k in range(1, lam.n + 1)]


def test_stacked_rank_sequences_match_one_matrix_at_a_time():
    rng = np.random.default_rng(5)
    for n in range(1, 9):
        pts = list(partitions(n))
        mats = [jordan_matrix(lam, F5) for lam in pts]
        ranks = rank_sequences(F5, [m.a for m in mats])
        assert ranks.shape == (len(pts), n)
        for lam, m, row in zip(pts, mats, ranks.tolist()):
            assert row == rank_sequence(m)
            assert row == [sum(max(part - k, 0) for part in lam.parts) for k in range(1, n + 1)]
    # matrices that are not nilpotent, against mat_rank of each power
    for n in (1, 2, 4, 5):
        stack = rng.integers(0, 3, size=(6, n, n))
        for m, row in zip(stack, rank_sequences(F3, stack).tolist()):
            m = Mat(F3, m)
            assert row == [mat_rank(m ** k) for k in range(1, n + 1)] == rank_sequence(m)



def _peak(fn):
    """(fn(), the tracemalloc peak in bytes while it ran)."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_rank_sequences_hold_one_stack_of_powers():
    # the powers go straight into one (count, n, n, n) stack: the same ranks
    # as a list of powers joined by np.stack, at a peak lower by about that
    # stack's size
    mats = np.random.default_rng(2).integers(0, 7, size=(3, 40, 40))
    f, (count, n, _) = field_make(7, 1), mats.shape

    def listed():
        powers = [mats]
        for _ in range(n - 1):
            powers.append(f.matmul(powers[-1], mats))
        stack = np.stack(powers, axis=1).reshape(count * n, n, n)
        return _rref(f, stack)[1].sum(axis=1).reshape(count, n)

    want, listed_peak = _peak(listed)
    got, peak = _peak(lambda: rank_sequences(f, mats))
    assert np.array_equal(got, want) and got.shape == (count, n)
    assert peak <= listed_peak - count * n ** 3 * 8 // 2

def test_partition_of_nilpotent_roundtrip():
    for n in range(1, 7):
        for lam in partitions(n):
            assert partition_of_nilpotent(jordan_matrix(lam, F5)) == lam


def test_nullcone_top_partition():
    assert nullcone_top_partition(5, 3).parts == (3, 2)
    assert nullcone_top_partition(4, 5).parts == (4,)
    assert nullcone_top_partition(6, 3).parts == (3, 3)
    # dominates every partition with parts <= p, exhaustive n <= 8
    for n in range(1, 9):
        for p in (2, 3, 5, 7):
            top = nullcone_top_partition(n, p)
            for mu in partitions(n):
                if mu.parts[0] <= p:
                    assert dominance_leq(mu, top)


# ---------------------------------------------------------------------------
# the shift-map calculus
# ---------------------------------------------------------------------------

def test_xi_basis_counts():
    lam = Partition((1,))
    assert xi_basis(lam) == [xi(lam, 1, 1, 0)]
    assert len(xi_basis(Partition((2, 1)))) == 5
    for n in (3, 4, 6):
        lam = Partition((n - 1, 1))
        basis = set(xi_basis(lam))
        expect = {xi(lam, 1, 1, s) for s in range(n - 1)}
        expect |= {xi(lam, 1, 2, 0), xi(lam, 2, 1, n - 2), xi(lam, 2, 2, 0)}
        assert basis == expect and len(basis) == n + 2
    # count identity: |basis| = sum min(lam_i, lam_j) = dim ker(ad x_lam on gl_n)
    for n in range(1, 8):
        for lam in partitions(n):
            count = sum(min(a, b) for a in lam.parts for b in lam.parts)
            assert len(xi_basis(lam)) == count
            x = jordan_matrix(lam, F5).a
            ad = np.kron(x, np.eye(n, dtype=np.int64)) - np.kron(np.eye(n, dtype=np.int64), x.T)
            assert len(mat_kernel_basis(Mat(F5, ad % 5))) == count


def test_xi_element_bounds():
    lam = Partition((3, 1))
    assert xi(lam, 2, 1, 2).terms == {(2, 1, 2): 1}  # max(3-1, 0) = 2 <= s < 3
    with pytest.raises(PreconditionError):
        xi(lam, 2, 1, 1)
    with pytest.raises(PreconditionError):
        xi(lam, 1, 2, 1)  # s < lam_2 = 1
    with pytest.raises(PreconditionError):
        xi(lam, 3, 1, 0)  # block index out of range
    assert xi_term(lam, 2, 1, 1).is_zero()
    assert xi_term(lam, 3, 1, 0).is_zero()


def test_xi_compose_examples():
    lam = Partition((4,))
    a = xi(lam, 1, 1, 1)
    assert xi_compose(a, a) == xi_term(lam, 1, 1, 2)
    n = 5
    lam = Partition((n - 1, 1))
    assert xi_compose(xi(lam, 2, 1, n - 2), xi(lam, 1, 2, 0)) == \
        xi_term(lam, 1, 1, n - 2)
    c = xi(lam, 1, 2, 0)
    assert xi_compose(c, c).is_zero()
    with pytest.raises(PreconditionError):
        xi_compose(a, c)
    # bilinear on combinations: the matrices multiply
    lam = Partition((3, 2, 1))
    x = xi_term(lam, 1, 1, 1, 2) + xi_term(lam, 2, 1, 1) + xi_term(lam, 3, 2, 1, -1)
    y = xi_term(lam, 1, 2, 0) + xi_term(lam, 2, 2, 1, 3) + xi_term(lam, 1, 3, 0)
    assert len(x.terms) == len(y.terms) == 3
    assert xi_to_matrix(lam, xi_compose(x, y), F5) == \
        xi_to_matrix(lam, x, F5) @ xi_to_matrix(lam, y, F5)


def test_xi_bracket_examples():
    n = 6
    lam = Partition((n - 1, 1))
    for s in range(1, n - 1):
        for s2 in range(1, n - 1):
            assert xi_bracket(xi(lam, 1, 1, s), xi(lam, 1, 1, s2)).is_zero()
    br = xi_bracket(xi(lam, 1, 2, 0), xi(lam, 2, 1, n - 2))
    assert not br.is_zero()
    assert br == xi_term(lam, 1, 1, n - 2, -1)
    for el in xi_basis(lam):
        assert xi_bracket(el, el).is_zero()


def test_xi_to_matrix_examples():
    # sum of diagonal shifts is the Jordan matrix
    for parts in [(3,), (3, 2), (2, 2, 1), (4, 1)]:
        lam = Partition(parts)
        total = XiCombination(lam)
        for i, part in enumerate(parts):
            if part >= 2:
                total = total + xi_term(lam, i + 1, i + 1, 1)
        assert xi_to_matrix(lam, total, F5) == jordan_matrix(lam, F5)
    lam = Partition((4,))
    assert xi_to_matrix(lam, xi(lam, 1, 1, 0), F5) == Mat.identity(F5, 4)
    # over F_9 the integer coefficients land on F_p codes: -1 is 2, 4 is 1
    f9 = field_make(3, 2)
    lam = Partition((3, 2))
    expect = np.zeros((5, 5), dtype=np.int64)
    expect[0, 1] = expect[1, 2] = 2  # -xi_1^(1,1), the Jordan block of size 3
    expect[3, 1] = expect[4, 2] = 1  # 4 xi_1^(2,0)
    combo = xi_term(lam, 1, 1, 1, -1) + xi_term(lam, 1, 2, 0, 4)
    assert xi_to_matrix(lam, combo, f9) == Mat(f9, expect)


def test_xi_matrix_homomorphism_exhaustive():
    """Matrix realization intertwines compose/bracket, all pairs, n <= 6."""
    for n in range(1, 7):
        for lam in partitions(n):
            basis = xi_basis(lam)
            mats = {el: xi_to_matrix(lam, el, F5) for el in basis}
            for a in basis:
                for b in basis:
                    assert xi_to_matrix(lam, xi_compose(a, b), F5) == mats[a] @ mats[b]
                    comm = mats[a] @ mats[b] - mats[b] @ mats[a]
                    assert xi_to_matrix(lam, xi_bracket(a, b), F5) == comm


def test_product_table_is_the_closed_rule():
    """xi_i^(j,s) . xi_p^(q,r) = delta(q,i) xi_p^(j,s+r) within bounds, n <= 6."""
    for n in range(1, 7):
        for lam in partitions(n):
            keys = [next(iter(el.terms)) for el in xi_basis(lam)]
            want = np.full((len(keys), len(keys)), -1)
            for a, (i, j, s) in enumerate(keys):
                for b, (p, q, r) in enumerate(keys):
                    if q == i and s + r in slnorbits._shifts(lam, p, j):
                        want[a, b] = keys.index((p, j, s + r))
            table = xi_product_table(lam)
            assert table.tolist() == want.tolist()
            assert table.dtype == np.int32 and not table.flags.writeable
            assert xi_product_table(lam) is table


def test_xi_matrices_commute_with_jordan():
    for parts in [(3, 1), (3, 2, 2), (2, 1, 1)]:
        lam = Partition(parts)
        j = jordan_matrix(lam, F5)
        for el in xi_basis(lam):
            m = xi_to_matrix(lam, el, F5)
            assert (m @ j) == (j @ m)


# ---------------------------------------------------------------------------
# centralizer basis
# ---------------------------------------------------------------------------

def _reduced(c, p):
    """c with its coefficients normalized into [0, p)."""
    return XiCombination(c.lam, {key: v % p for key, v in c.terms.items()})


def test_centralizer_sl_basis_subregular():
    n = 5
    lam = Partition((n - 1, 1))
    res = centralizer_sl_basis(lam, F5)
    assert not res.degenerate
    expect = {xi_term(lam, 1, 1, s) for s in range(1, n - 1)}
    expect |= {xi_term(lam, 1, 2, 0), xi_term(lam, 2, 1, n - 2)}
    expect.add(_reduced(xi_term(lam, 1, 1, 0) + xi_term(lam, 2, 2, 0, -(n - 1)), 5))
    assert {_reduced(c, 5) for c in res.basis} == {_reduced(c, 5) for c in expect}


def test_centralizer_sl_basis_regular():
    n = 4
    lam = Partition((n,))
    res = centralizer_sl_basis(lam, F5)
    assert not res.degenerate
    assert {_reduced(c, 5) for c in res.basis} == \
        {xi_term(lam, 1, 1, s) for s in range(1, n)}


def test_centralizer_sl_basis_degenerate():
    # all block sizes divisible by p: the trace functional vanishes
    lam = Partition((3, 3))
    res = centralizer_sl_basis(lam, F3)
    assert res.degenerate
    assert len(res.basis) == sum(min(a, b) for a in lam.parts for b in lam.parts)


def test_centralizer_dimension_vs_kernel():
    for n, p in [(3, 3), (4, 5), (5, 5), (4, 3)]:
        f = field_make(p, 1)
        alg = special_linear(n, f)
        for lam in partitions(n):
            res = centralizer_sl_basis(lam, f)
            x = alg.coords_of_matrix(jordan_matrix(lam, f))
            kern = mat_kernel_basis(Mat(f, alg.ad(x)))
            assert len(res.basis) == len(kern), (n, p, lam)
            # every returned combination is traceless and centralizes x_lam
            j = jordan_matrix(lam, f)
            for c in res.basis:
                m = xi_to_matrix(lam, c, f)
                assert m.trace() == 0
                assert (m @ j) == (j @ m)


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------

def _contains(field, basis, x):
    rows = [list(v) for v in basis]
    r0 = mat_rank(Mat(field, np.array(rows, dtype=np.int64)))
    r1 = mat_rank(Mat(field, np.array(rows + [list(x)], dtype=np.int64)))
    return r0 == r1


def test_regular_witness():
    w = regular_witness(3, F5)
    assert w.rank == 2
    alg = special_linear(3, F5)
    assert is_elementary(alg, w.basis)
    with pytest.raises(PreconditionError):
        regular_witness(4, F3)
    with pytest.raises(PreconditionError, match="n must be >= 2"):
        regular_witness(1, F3)


@pytest.mark.parametrize("n,p", [(3, 3), (4, 5), (4, 3), (5, 5), (6, 7)])
def test_subregular_witnesses_validated(n, p):
    f = field_make(p, 1)
    lam = Partition((n - 1, 1))
    alg = special_linear(n, f)
    xj = alg.coords_of_matrix(jordan_matrix(lam, f))
    subs = subregular_witnesses(n, f)
    assert len(subs) == f.q + 1
    for s in subs:
        assert s.rank == n - 1
        assert is_elementary(alg, s.basis)
        assert _contains(f, s.basis, xj)
        for v in s.basis:
            assert not any(alg.bracket(v, xj))


def test_subregular_witnesses_special_branch():
    f2 = field_make(2, 1)
    subs = subregular_witnesses(3, f2)
    assert len(subs) == 2
    alg = special_linear(3, f2)
    for s in subs:
        assert s.rank == 2
        assert is_elementary(alg, s.basis)


def test_subregular_preconditions():
    with pytest.raises(PreconditionError):
        subregular_witnesses(2, F3)
    with pytest.raises(PreconditionError):
        subregular_witnesses(5, F3)  # p = 3 < n-1 = 4


def test_lower_orbit_witnesses_examples():
    f3 = field_make(3, 1)
    w22 = lower_orbit_witness(Partition((2, 2)), f3)
    assert w22.rank == 4
    w211 = lower_orbit_witness(Partition((2, 1, 1)), f3)
    assert w211.rank == 4
    alg = special_linear(4, f3)
    for lam, w in [(Partition((2, 2)), w22), (Partition((2, 1, 1)), w211)]:
        assert is_elementary(alg, w.basis)
        xj = alg.coords_of_matrix(jordan_matrix(lam, f3))
        assert _contains(f3, w.basis, xj)


def test_lower_orbit_maximal_witness():
    for n, expect in [(4, 4), (5, 6)]:
        p = 3 if n == 4 else 3
        f = field_make(p, 1)
        lam = Partition((2,) + (1,) * (n - 2))
        w = lower_orbit_witness(lam, f, maximal=True)
        assert w.rank == expect == n * n // 4
        alg = special_linear(n, f)
        assert is_elementary(alg, w.basis)
        xj = alg.coords_of_matrix(jordan_matrix(lam, f))
        assert _contains(f, w.basis, xj)


def test_highest_root_witness_contains_corner():
    f = field_make(3, 1)
    w = highest_root_witness(5, f)
    alg = special_linear(5, f)
    corner = np.zeros((5, 5), dtype=np.int64)
    corner[0, 4] = 1
    assert _contains(f, w.basis, alg.coords_of_matrix(Mat(f, corner)))
    assert w.rank == 6


def test_lower_orbit_preconditions():
    f = field_make(3, 1)
    with pytest.raises(PreconditionError):
        lower_orbit_witness(Partition((3, 1)), f)  # subregular, not lower
    with pytest.raises(PreconditionError):
        lower_orbit_witness(Partition((2, 2, 2)), f)  # p < n-2 = 4
    with pytest.raises(PreconditionError):
        lower_orbit_witness(Partition((2, 2)), f, maximal=True)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_srk_sln_examples():
    assert srk_sln(4, 5) == (3, True, "")
    assert srk_sln(4, 3) == (3, True, "")  # p = n-1 branch
    assert srk_sln(2, 3).value == 1
    assert srk_sln(6, 7).value == 5


def test_srk_sln_small_p_flags():
    res = srk_sln(5, 3)  # p = n-2
    assert res.value == 5 and not res.exact and res.note == "strict_inequality"
    res = srk_sln(7, 3)  # p < n-2: witness-derived bound
    assert res.value == 7 and not res.exact and res.note == "derived-not-paper"


@pytest.mark.parametrize("n,p", [(5, 2), (7, 3), (8, 3), (9, 2), (11, 5), (12, 7)])
def test_srk_sln_budget_counts_the_witness_commutators(n, p):
    # the top-orbit witness has n basis matrices, so its check forms n^4
    # commutator entries, and the budget gate counts exactly those
    top = nullcone_top_partition(n, p)
    assert len(slnorbits._case_split_witness(top, field_make(p, 1))) == n
    assert srk_sln(n, p, budget=n ** 4) == srk_sln(n, p)
    with pytest.raises(BudgetError, match="top-orbit witness"):
        srk_sln(n, p, budget=n ** 4 - 1)
    assert srk_sln(n, 13, budget=0).exact  # p >= n - 1: the closed form takes no work


@pytest.mark.parametrize("witness,build,first", [
    ("nilradical", lambda n, f, b: lower_orbit_witness(Partition((1,) * n), f, budget=b), 80),
    ("regular", regular_witness, 216),
    ("case-split", lambda n, f, b: lower_orbit_witness(Partition((n - 2, 2)), f, budget=b), 216),
])
def test_witness_budget_refuses_from_the_stated_n(witness, build, first):
    # at the default budget 10^7; each refusal comes before any matrix is
    # built and names the entries, so the last admitted n is read from one
    # with the budget 0
    f = field_make(223, 1)
    with pytest.raises(BudgetError, match=f"^the {witness} witness has") as err:
        build(first, f, 10 ** 7)
    with pytest.raises(BudgetError, match=f"^the {witness} witness has") as below:
        build(first - 1, f, 0)
    entries = [int(e.value.args[0].split()[4]) for e in (err, below)]
    assert entries[1] <= 10 ** 7 < entries[0]


def test_orbit_table_builds_no_lower_orbit_matrices(monkeypatch):
    # at p = n - 2 the regular and subregular orbits lie outside the
    # nullcone, so every witness row is a lower orbit: their dimensions are
    # read off the constructions, and no matrix or coordinate is built
    want = {(9, 7): sln_report(9, 7), (7, 5): sln_report(7, 5)}

    def built(*args):
        raise AssertionError("a witness matrix was built")

    monkeypatch.setattr(slnorbits, "xi_to_matrices", built)
    monkeypatch.setattr(slnorbits, "sl_coords", built)
    for (n, p), report in want.items():
        assert sln_report(n, p) == report
        lower = [o for o in report["orbits"] if o.get("witness_dims")]
        assert lower and all(o["kind"] == "lower" for o in lower)


def test_orbit_table_dims_are_the_witness_ranks():
    f = field_make(7, 1)
    for n in (4, 5, 6, 7, 8):
        for row in sln_report(n, 7)["orbits"]:
            lam = Partition(row["partition"])
            if row["kind"] != "lower" or not row["in_nullcone"]:
                continue
            ranks = [lower_orbit_witness(lam, f).rank]
            if slnorbits._nilradical_orbit(lam):
                ranks.append(lower_orbit_witness(lam, f, maximal=True).rank)
            assert row["witness_dims"] == ranks, (n, lam)


def test_cells_cache_stays_bounded():
    # a sweep over the lower-orbit witnesses of n = 12 visits each partition
    # once, so the cache of cell positions keeps a bounded number of them,
    # not all p(n)
    slnorbits._cells.cache_clear()
    f = field_make(11, 1)
    for lam in partitions(12):
        if dominance_leq(lam, Partition((10, 2))):
            lower_orbit_witness(lam, f)
    info = slnorbits._cells.cache_info()
    assert info.misses > info.maxsize >= info.currsize


def test_partition_count_is_the_number_of_partitions():
    for n in range(0, 21):
        assert partition_count(n, 10 ** 9) == (sum(1 for _ in partitions(n)) if n else 1)
    assert partition_count(100, 10 ** 9) == 190569292
    # the recurrence stops at the first count above the cap, p(29) = 4565
    assert partition_count(50, 4000) == 4565
    assert partition_count(50, 204226) == 204226
    assert partition_count(11, 42) == 56  # p(10) = 42 is not above the cap
    assert partition_count(10 ** 9, 0) == 1


def test_orbit_table_counts_against_the_budget(monkeypatch):
    # p(6) = 11 rows of 6^2 entries, refused before any row is built
    assert sln_report(6, 7, budget=11 * 36)["orbits"]

    def no_rows(lam, p):
        raise AssertionError("a row was built")

    monkeypatch.setattr(OrbitClass, "of", no_rows)
    with pytest.raises(BudgetError, match=r"^orbit table: p\(6\) rows of 6\^2 entries, "
                                          r"p\(6\) > budget 395 // 6\^2 = 10$"):
        sln_report(6, 7, budget=11 * 36 - 1)
    # the default budget admits p(30) = 5604 and p(32) = 8349 rows of n^2
    # entries, not p(33) = 10143 rows of 1089
    for n in (30, 32):
        with pytest.raises(AssertionError, match="a row was built"):
            sln_report(n, 31)
    with pytest.raises(BudgetError, match=r"p\(33\) > budget 10000000 // 33\^2 = 9182$"):
        sln_report(33, 37)


def test_srk_sln_preconditions():
    with pytest.raises(PreconditionError):
        srk_sln(1, 5)
    with pytest.raises(PreconditionError):
        srk_sln(4, 4)


def test_o_rmin_sln():
    assert [lam.parts for lam in o_rmin_sln(3, 5)] == [(3,), (2, 1)]
    assert [lam.parts for lam in o_rmin_sln(4, 5)] == [(4,), (3, 1)]
    with pytest.raises(PreconditionError):
        o_rmin_sln(4, 3)
    # every orbit outside the set admits a witness of dimension >= n > n-1
    n, p = 5, 7
    f = field_make(p, 1)
    inside = set(o_rmin_sln(n, p))
    for lam in partitions(n):
        if lam in inside:
            continue
        w = lower_orbit_witness(lam, f)
        assert w.rank >= n > n - 1


def test_orbit_class():
    oc = OrbitClass.of(Partition((4,)), 5)
    assert oc.kind == "regular" and oc.local_rank.value == 3 and oc.local_rank.exact
    oc = OrbitClass.of(Partition((3, 1)), 5)
    assert oc.kind == "subregular" and oc.local_rank.value == 3
    oc = OrbitClass.of(Partition((2, 2)), 5)
    assert oc.kind == "lower" and oc.local_rank.value == 4 and not oc.local_rank.exact
    oc = OrbitClass.of(Partition((2, 1, 1)), 5)
    assert oc.local_rank.value == 4 and oc.local_rank.exact  # floor(16/4)
    oc = OrbitClass.of(Partition((4,)), 3)  # not in the restricted nullcone
    assert oc.local_rank is None
    for n, p in [(2, 3), (4, 5), (6, 3)]:  # the zero orbit has no local rank
        assert OrbitClass.of(Partition((1,) * n), p).local_rank is None


@pytest.mark.parametrize("p", [2, 3, 5])
def test_orbit_class_of_sl2_zero_orbit_is_lower(p):
    # (n - 1, 1) is subregular only from n = 3 on; at n = 2 it is the zero
    # orbit, "lower" as (1, 1, 1) is at n = 3
    assert OrbitClass.of(Partition((1, 1)), p).kind == "lower"
    assert OrbitClass.of(Partition((1, 1, 1)), p).kind == "lower"
    assert OrbitClass.of(Partition((2, 1)), p).kind == "subregular"


def test_sln_report_shape():
    rep = sln_report(4, 5)
    assert rep["srk"] == 3 and rep["exact"] is True
    assert rep["o_rmin"] == [[4], [3, 1]]
    parts = {tuple(o["partition"]): o for o in rep["orbits"]}
    assert parts[(4,)]["local_rank"] == 3
    assert parts[(2, 2)]["local_rank"] == ">=4"
    assert parts[(2, 1, 1)]["witness_dims"] == [4, 4]
    # local rank is defined at nonzero points only; 0 is in the nullcone
    assert parts[(1, 1, 1, 1)]["local_rank"] is None
    assert parts[(1, 1, 1, 1)]["in_nullcone"] is True
