import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satrank import BudgetError, PreconditionError
from satrank.fields import (
    _BLAS_MIN,
    FieldSpec,
    Mat,
    _blas_matmul,
    _blas_shape,
    _is_irreducible,
    _kernels,
    _rref,
    field_make,
    is_prime,
    mat_det,
    mat_is_p_nilpotent,
    mat_kernel_basis,
    mat_rank,
    mat_solve,
)

SMALL_FIELDS = [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (2, 3), (3, 4), (2, 4)]


def naive_irreducible_quadratics(p):
    # independent scan: monic x^2+bx+c with no root in F_p
    out = []
    for b in range(p):
        for c in range(p):
            if all((x * x + b * x + c) % p != 0 for x in range(p)):
                out.append((c, b, 1))
    return out


def test_field_make_prime_field_trivial_modulus():
    f = field_make(2, 1)
    assert (f.p, f.k, f.q) == (2, 1, 2)
    assert f.modulus == (0, 1)


def test_field_make_f9_smallest_irreducible():
    # oracle: exhaustive irreducibility scan over the 9 monic degree-2 candidates,
    # ordered lexicographically on (b, c) for x^2 + b x + c
    cands = []
    for b in range(3):
        for c in range(3):
            cands.append((c, b, 1))
    irred = [m for m in cands if m in naive_irreducible_quadratics(3)]
    assert field_make(3, 2).modulus == irred[0] == (1, 0, 1)  # x^2 + 1


def _divides(g, f, p):
    """Whether monic g divides f over F_p, by long division."""
    r = list(f)
    dg = len(g) - 1
    while len(r) - 1 >= dg:
        lead = r[-1] % p
        if lead:
            shift = len(r) - 1 - dg
            for i in range(dg + 1):
                r[shift + i] = (r[shift + i] - lead * g[i]) % p
        r.pop()
    return all(c % p == 0 for c in r)


def _irreducible_by_scan(modulus, p, k):
    """The exhaustive test field_make ran before Rabin's: no monic factor of
    degree <= k/2."""
    for d in range(1, k // 2 + 1):
        for m in range(p ** d):
            if _divides([(m // p ** i) % p for i in range(d)] + [1], modulus, p):
                return False
    return True


_PRIMES_TO_23 = [2, 3, 5, 7, 11, 13, 17, 19, 23]


@pytest.mark.parametrize("p", _PRIMES_TO_23)
def test_rabin_irreducibility_is_the_factor_scan(p):
    # every monic candidate for p <= 7 and for k <= 2; for larger p and k the
    # candidates field_make scans up to its modulus and a seeded sample
    rng = np.random.default_rng(p)
    for k in range(1, 5):
        candidates = [tuple((m // p ** i) % p for i in range(k)) + (1,) for m in range(p ** k)]
        if p > 7 and k > 2:
            first = next(i for i, m in enumerate(candidates) if _irreducible_by_scan(m, p, k))
            picks = set(range(first + 1)) | set(rng.choice(len(candidates), 60).tolist())
            candidates = [candidates[i] for i in sorted(picks)]
        for m in candidates:
            assert _is_irreducible(m, p, k) == _irreducible_by_scan(m, p, k), m


@pytest.mark.parametrize("p", _PRIMES_TO_23)
def test_field_make_modulus_is_the_first_scanned_irreducible(p):
    for k in range(1, 5):
        first = next(m for m in (tuple((m // p ** i) % p for i in range(k)) + (1,)
                                 for m in range(p ** k))
                     if k == 1 or _irreducible_by_scan(m, p, k))
        assert field_make(p, k).modulus == first


def test_extension_moduli_are_pinned():
    assert {(p, k): field_make(p, k).modulus for p, k in [(3, 2), (5, 2), (3, 3), (3, 4)]} == {
        (3, 2): (1, 0, 1), (5, 2): (2, 0, 1), (3, 3): (1, 2, 0, 1), (3, 4): (2, 1, 0, 0, 1)}


def test_irreducibility_of_a_huge_prime_is_fast():
    import time
    p = 2 ** 61 - 1  # p = 3 mod 4, so -1 is not a square mod p
    start = time.perf_counter()
    assert _is_irreducible((1, 0, 1), p, 2)
    assert not _is_irreducible((p - 4, 0, 1), p, 2)  # x^2 - 4 = (x - 2)(x + 2)
    assert time.perf_counter() - start < 1.0


def test_field_make_rejects_non_prime():
    with pytest.raises(PreconditionError):
        field_make(4, 1)
    with pytest.raises(PreconditionError):
        field_make(5, 0)
    with pytest.raises(PreconditionError):
        field_make(5, 5)


def test_fieldspec_rejects_reducible_modulus():
    with pytest.raises(PreconditionError):
        FieldSpec(3, 2, (0, 0, 1))  # x^2 = x * x
    with pytest.raises(PreconditionError):
        FieldSpec(2, 2, (1, 0, 1))  # x^2 + 1 = (x+1)^2 over F_2


@pytest.mark.parametrize("p,k", SMALL_FIELDS)
def test_field_axioms_exhaustive_small(p, k):
    """Associativity/distributivity/inverses, exhaustive for |F| <= 81."""
    f = field_make(p, k)
    assert f.q <= 81
    els = list(f.elements())
    arr = np.arange(f.q)
    # commutativity + associativity of * via vector ops
    a, b = np.meshgrid(arr, arr, indexing="ij")
    assert (f.varr_mul(a, b) == f.varr_mul(b, a)).all()
    assert (f.varr_add(a, b) == f.varr_add(b, a)).all()
    for x in els:
        row_mul = f.varr_mul(np.full(f.q, x), arr)
        for y in els:
            assert f.varr_mul(np.full(f.q, f.mul(x, y)), arr).tolist() == \
                f.varr_mul(np.full(f.q, x), f.varr_mul(np.full(f.q, y), arr)).tolist()
            # distributivity x*(y+z) = x*y + x*z
            lhs = f.varr_mul(x, f.varr_add(np.full(f.q, y), arr))
            rhs = f.varr_add(np.full(f.q, f.mul(x, y)), f.varr_mul(x, arr))
            assert (lhs == rhs).all()
    for x in els[1:]:
        assert f.mul(x, f.inv(x)) == f.one


@pytest.mark.parametrize("p,k", SMALL_FIELDS)
def test_frobenius_additive_exhaustive(p, k):
    f = field_make(p, k)
    for a in f.elements():
        for b in f.elements():
            assert f.pow(f.add(a, b), f.p) == f.add(f.pow(a, f.p), f.pow(b, f.p))


@given(st.integers(0, 124), st.integers(0, 124), st.integers(0, 124))
@settings(max_examples=200, deadline=None)
def test_field_axioms_sampled_f125(a, b, c):
    f = field_make(5, 3)  # |F| = 125 > 81: sampled
    assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    if a:
        assert f.mul(a, f.inv(a)) == f.one
    assert f.pow(f.add(a, b), f.p) == f.add(f.pow(a, f.p), f.pow(b, f.p))


def jordan_block(field, n):
    m = np.zeros((n, n), dtype=np.int64)
    for i in range(n - 1):
        m[i, i + 1] = 1
    return Mat(field, m)


def test_mat_rank_trivial():
    f = field_make(3, 1)
    assert mat_rank(Mat.zeros(f, 3, 3)) == 0
    for n in (1, 2, 5):
        assert mat_rank(Mat.identity(f, n)) == n


def test_mat_rank_jordan3():
    # hand elimination: two independent rows
    f = field_make(5, 1)
    assert mat_rank(jordan_block(f, 3)) == 2


def test_mat_kernel_basis():
    f = field_make(3, 1)
    assert mat_kernel_basis(Mat.identity(f, 4)) == []
    z = Mat.zeros(f, 3, 3)
    assert mat_kernel_basis(z) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    j2 = jordan_block(f, 2)
    assert mat_kernel_basis(j2) == [(1, 0)]


def test_mat_is_p_nilpotent():
    f = field_make(7, 1)
    j3 = jordan_block(f, 3)
    assert mat_is_p_nilpotent(Mat.zeros(f, 4, 4), 2)
    assert mat_is_p_nilpotent(j3, 3)
    assert not mat_is_p_nilpotent(j3, 2)  # J3^2 has the corner entry
    assert not mat_is_p_nilpotent(Mat.identity(f, 3), 5)
    with pytest.raises(PreconditionError):
        mat_is_p_nilpotent(Mat.zeros(f, 2, 3), 2)


def random_mat(field, rng, n):
    return Mat(field, rng.integers(0, field.q, size=(n, n)))


def random_invertible(field, rng, n):
    while True:
        m = random_mat(field, rng, n)
        if mat_rank(m) == n:
            return m


@pytest.mark.parametrize("p,k", [(3, 1), (5, 1), (3, 2)])
def test_rank_nullity_and_invariance(p, k):
    f = field_make(p, k)
    rng = np.random.default_rng(1234)
    for n in (2, 3, 4, 6):
        for _ in range(8):
            m = random_mat(f, rng, n)
            r = mat_rank(m)
            assert r + len(mat_kernel_basis(m)) == n
            # invariance under row/col permutation
            perm = rng.permutation(n)
            assert mat_rank(Mat(f, m.a[perm])) == r
            assert mat_rank(Mat(f, m.a[:, perm])) == r
            # invariance under invertible multiply
            g = random_invertible(f, rng, n)
            assert mat_rank(g @ m) == r
            assert mat_rank(m @ g) == r


def test_matmul_extension_field_agrees_with_scalar_loop():
    f = field_make(3, 2)
    rng = np.random.default_rng(7)
    a = random_mat(f, rng, 3)
    b = random_mat(f, rng, 3)
    c = a @ b
    for i in range(3):
        for j in range(3):
            s = 0
            for t in range(3):
                s = f.add(s, f.mul(int(a.a[i, t]), int(b.a[t, j])))
            assert s == int(c.a[i, j])


def test_mat_det():
    f = field_make(5, 1)
    assert mat_det(Mat.identity(f, 3)) == 1
    assert mat_det(Mat.zeros(f, 2, 2)) == 0
    assert mat_det(Mat.from_rows(f, [[1, 2], [3, 4]])) == (4 - 6) % 5
    # multiplicative on random samples, also over an extension field
    for fld in (f, field_make(3, 2)):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = random_mat(fld, rng, 3)
            b = random_mat(fld, rng, 3)
            assert mat_det(a @ b) == fld.mul(mat_det(a), mat_det(b))
    with pytest.raises(PreconditionError):
        mat_det(Mat.zeros(f, 2, 3))


def test_mat_solve():
    f = field_make(5, 1)
    m = Mat.from_rows(f, [[1, 2], [3, 4]])
    x = mat_solve(m, (1, 1))
    assert x is not None
    mx = m @ Mat(f, np.array(x).reshape(-1, 1))
    assert mx.a.ravel().tolist() == [1, 1]
    inconsistent = Mat.from_rows(f, [[1, 1], [2, 2]])
    assert mat_solve(inconsistent, (0, 1)) is None


def test_kernel_vectors_are_killed():
    f = field_make(3, 2)
    rng = np.random.default_rng(99)
    for _ in range(10):
        m = random_mat(f, rng, 4)
        for v in mat_kernel_basis(m):
            col = Mat(f, np.array(v, dtype=np.int64).reshape(-1, 1))
            assert (m @ col).is_zero()


def test_is_prime():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]


def test_is_prime_matches_sympy():
    sympy = pytest.importorskip("sympy")
    assert [n for n in range(2, 10 ** 4 + 1) if is_prime(n)] == list(sympy.primerange(2, 10 ** 4 + 1))
    # Carmichael numbers fool the Fermat test to every coprime base
    for n in (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185,
              5394826801, 232250619601, 9746347772161):
        factors = sympy.factorint(n)
        assert len(factors) > 1 and set(factors.values()) == {1}  # Korselt's criterion
        assert all((n - 1) % (f - 1) == 0 for f in factors) and not is_prime(n)
    # strong pseudoprimes to the bases 2..23 and 2..37
    for n in (3825123056546413051, 318665857834031151167461):
        assert not sympy.isprime(n) and not is_prime(n)
    near = range(10 ** 18 - 200, 10 ** 18 + 200)
    assert [n for n in near if is_prime(n)] == [n for n in near if sympy.isprime(n)]
    assert is_prime(2 ** 61 - 1) and is_prime(10 ** 13 + 37)


def test_field_element_roundtrip():
    f = field_make(3, 4)
    for a in itertools.islice(f.elements(), 0, 81, 7):
        assert f.from_coeffs(f.coeffs(a)) == a


# ---------------------------------------------------------------------------
# the batched kernel, above-cap fields included
# ---------------------------------------------------------------------------

KERNEL_FIELDS = [(5, 1), (3, 2), (2, 4), (5, 3), (7, 4)]  # F_{7^4} is above _TABLE_CAP


def naive_matmul(f, a, b):
    """Scalar triple loop over 2-D code lists."""
    return [[_naive_dot(f, row, [r[j] for r in b]) for j in range(len(b[0]))] for row in a]


def _naive_dot(f, u, v):
    s = 0
    for x, y in zip(u, v):
        s = f.add(s, f.mul(int(x), int(y)))
    return s


@pytest.mark.parametrize("p,k", KERNEL_FIELDS)
def test_kernel_matmul_agrees_with_scalar_triple_loop(p, k):
    f = field_make(p, k)
    rng = np.random.default_rng(p * 10 + k)
    a = rng.integers(0, f.q, size=(3, 4, 5))
    b = rng.integers(0, f.q, size=(3, 5, 2))
    c = f.matmul(a, b)
    assert c.shape == (3, 4, 2)
    for s in range(3):
        assert c[s].tolist() == naive_matmul(f, a[s].tolist(), b[s].tolist())
    # broadcasting a single matrix against the stack
    assert f.matmul(a[0], b).tolist() == [naive_matmul(f, a[0].tolist(), b[s].tolist())
                                          for s in range(3)]
    # 1-D operands follow np.matmul: vector @ matrix, matrix @ vector, dot product
    u, v = a[0, 0], b[0, :, 0]
    assert f.matmul(u, b[0]).tolist() == naive_matmul(f, [u.tolist()], b[0].tolist())[0]
    assert f.matmul(a[0], v).tolist() == [r[0] for r in naive_matmul(
        f, a[0].tolist(), [[x] for x in v.tolist()])]
    assert int(f.matmul(u, v)) == _naive_dot(f, u.tolist(), v.tolist())


@pytest.mark.parametrize("p,k", KERNEL_FIELDS + [(1000003, 1)])
def test_kernel_quadratic_agrees_with_scalar_loop(p, k):
    # one value per row of a stack, x . form . x^T; p = 1000003 has p^3 > 2^63
    f = field_make(p, k)
    rng = np.random.default_rng(p + k)
    x = rng.integers(0, f.q, size=(2, 3, 5))
    form = rng.integers(0, f.q, size=(5, 5))
    values = f.quadratic(x, form)
    assert values.shape == (2, 3)
    for s, t in itertools.product(range(2), range(3)):
        row = x[s, t].tolist()
        assert values[s, t] == _naive_dot(f, naive_matmul(f, [row], form.tolist())[0], row)


@pytest.mark.parametrize("p,k", KERNEL_FIELDS)
def test_kernel_matpow_agrees_with_repeated_products(p, k):
    f = field_make(p, k)
    rng = np.random.default_rng(k)
    a = rng.integers(0, f.q, size=(2, 3, 3))
    acc = np.broadcast_to(np.eye(3, dtype=np.int64), a.shape)
    for e in range(7):
        assert (f.matpow(a, e) == acc).all()
        assert (Mat(f, a[1]) ** e).a.tolist() == acc[1].tolist()
        acc = f.matmul(acc, a)


@pytest.mark.parametrize("p,k", KERNEL_FIELDS)
def test_matpow_shapes_and_fresh_results(p, k):
    # e = 0 is an identity stack of the input's shape, e = 1 a copy that
    # shares no memory with the input, and every power of a (4, 2, 3, 3)
    # stack is the repeated product slice by slice
    f = field_make(p, k)
    a = np.random.default_rng(p + k).integers(0, f.q, size=(4, 2, 3, 3))
    eye = f.matpow(a, 0)
    assert eye.shape == a.shape and eye.dtype == np.int64
    assert (eye == np.eye(3, dtype=np.int64)).all()
    eye[0, 0, 0, 0] = 5 % f.q  # writable, and no view of a shared identity
    assert f.matpow(a, 0)[0, 0, 0, 0] == 1
    for source in (a, a.astype(np.int32), a[1]):
        once = f.matpow(source, 1)
        assert once.dtype == np.int64 and (once == source).all()
        assert not np.shares_memory(once, source)
    acc = a.copy()
    for e in range(1, 6):
        power = f.matpow(a, e)
        assert not np.shares_memory(power, a)
        assert (power == acc).all()
        for s, t in itertools.product(range(4), range(2)):
            slice_acc = np.eye(3, dtype=np.int64)
            for _ in range(e):
                slice_acc = f.matmul(slice_acc, a[s, t])
            assert (power[s, t] == slice_acc).all()
        acc = f.matmul(acc, a)


def _naive_trunc_exp(f, m):
    """sum_{t<p} m^t / t! for one matrix, by scalar ops and naive_matmul."""
    n = len(m)
    out = power = [[f.one if i == j else f.zero for j in range(n)] for i in range(n)]
    fact = 1
    for t in range(1, f.p):
        power = naive_matmul(f, power, m)
        fact = fact * t % f.p
        c = f.inv(f.from_int(fact))
        out = [[f.add(x, f.mul(c, y)) for x, y in zip(ro, rp)] for ro, rp in zip(out, power)]
    return out


@pytest.mark.parametrize("p,k", [(2, 1), (5, 1), (3, 2), (7, 2)])
def test_trunc_exp_matches_a_per_slice_loop(p, k):
    f = field_make(p, k)
    rng = np.random.default_rng(10 * p + k)
    n = min(p, 4)
    m = np.triu(rng.integers(0, f.q, size=(6, n, n)), 1)  # m^n = 0 with n <= p
    exp = f.trunc_exp(m)
    assert [e.tolist() for e in exp] == [_naive_trunc_exp(f, x.tolist()) for x in m]
    eye = np.broadcast_to(np.eye(n, dtype=np.int64), m.shape)
    assert (f.matmul(exp, f.trunc_exp(f.varr_neg(m))) == eye).all()
    if p == 2:
        assert (exp == f.varr_add(eye, m)).all()
    # the sum is truncated whatever m is: no nilpotency check at this level
    a = rng.integers(0, f.q, size=(2, 3, 3))
    assert [e.tolist() for e in f.trunc_exp(a)] == [_naive_trunc_exp(f, x.tolist()) for x in a]
    assert f.trunc_exp(a[0]).tolist() == _naive_trunc_exp(f, a[0].tolist())


@pytest.mark.parametrize("p,k", [(5, 1), (7, 1), (3, 2)])
def test_trunc_exp_stops_at_the_first_zero_power(monkeypatch, p, k):
    f = field_make(p, k)
    rng = np.random.default_rng(p + k)
    n = p
    top = np.zeros((n, n), dtype=np.int64)
    top[0, n - 1] = f.one  # index 2: top @ top = 0
    full = np.triu(rng.integers(0, f.q, size=(n, n)), 1)
    full[np.arange(n - 1), np.arange(1, n)] = rng.integers(1, f.q, size=n - 1)  # index p
    stack = np.array([np.zeros((n, n), dtype=np.int64), top, full])
    assert f.matpow(full, p - 1).any() and not f.matpow(full, p).any()
    assert [e.tolist() for e in f.trunc_exp(stack)] == [
        _naive_trunc_exp(f, x.tolist()) for x in stack]
    products = []
    matmul = f.matmul
    monkeypatch.setattr(f, "matmul", lambda a, b: products.append(1) or matmul(a, b))
    assert [e.tolist() for e in f.trunc_exp(stack[:2])] == [
        _naive_trunc_exp(f, x.tolist()) for x in stack[:2]]
    assert len(products) == 2  # the zero second power ends the sum


def test_elimination_above_table_cap():
    # F_{7^4}: q = 2401 > _TABLE_CAP, so no q x q tables back the arithmetic
    f = field_make(7, 4)
    rng = np.random.default_rng(74)
    for rank in (12, 9, 5):
        # random 12 x 12 of the given rank: (12 x rank) @ (rank x 12)
        left, right = rng.integers(0, f.q, size=(12, rank)), rng.integers(0, f.q, size=(rank, 12))
        m = Mat(f, left) @ Mat(f, right)
        r = mat_rank(m)
        kernel = mat_kernel_basis(m)
        assert r == rank and r + len(kernel) == 12
        for v in kernel:
            assert (m @ Mat(f, np.array(v, dtype=np.int64).reshape(-1, 1))).is_zero()
        x = rng.integers(0, f.q, size=12)
        rhs = (m @ Mat(f, x.reshape(-1, 1))).a.ravel().tolist()
        sol = mat_solve(m, rhs)
        assert sol is not None
        assert (m @ Mat(f, np.array(sol, dtype=np.int64).reshape(-1, 1))).a.ravel().tolist() == rhs


@given(st.integers(0, 2400), st.integers(0, 2400), st.integers(0, 2400))
@settings(max_examples=200, deadline=None)
def test_field_axioms_sampled_f2401(a, b, c):
    f = field_make(7, 4)  # |F| = 2401 > _TABLE_CAP: sampled
    assert f.mul(a, b) == f.mul(b, a)
    assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.add(a, f.neg(a)) == 0
    if a:
        assert f.mul(a, f.inv(a)) == f.one
    assert f.pow(f.add(a, b), f.p) == f.add(f.pow(a, f.p), f.pow(b, f.p))


# ---------------------------------------------------------------------------
# stacked elimination
# ---------------------------------------------------------------------------

def _stack_of_every_rank(f, rng, rows, cols):
    """A shuffled stack with a zero slice, random slices, a product
    (rows x r) @ (r x cols) for every r below full rank, and a repeated slice."""
    slices = [np.zeros((rows, cols), dtype=np.int64)]
    slices += [rng.integers(0, f.q, size=(rows, cols)) for _ in range(3)]
    for r in range(1, min(rows, cols)):
        slices.append(f.matmul(rng.integers(0, f.q, size=(rows, r)),
                               rng.integers(0, f.q, size=(r, cols))))
    slices.append(slices[-1])
    return np.stack(slices)[rng.permutation(len(slices))]


@pytest.mark.parametrize("rows,cols", [(4, 7), (7, 4), (6, 6)])
@pytest.mark.parametrize("p,k", [(5, 1), (3, 2), (7, 4)])  # F_{7^4} is above _TABLE_CAP
def test_stacked_elimination_matches_each_slice_alone(p, k, rows, cols):
    f = field_make(p, k)
    rng = np.random.default_rng(100 * p + 10 * rows + cols)
    a = _stack_of_every_rank(f, rng, rows, cols)
    r, pivots = _rref(f, a)
    vectors, free = _kernels(f, a)
    ranks = pivots.sum(axis=1)
    assert set(ranks.tolist()) == set(range(min(rows, cols) + 1))
    for s in range(len(a)):
        alone = _rref(f, a[s:s + 1])
        assert (r[s] == alone[0][0]).all() and (pivots[s] == alone[1][0]).all()
        basis = vectors[s][free[s]]
        assert ranks[s] + len(basis) == cols
        assert not f.matmul(a[s], basis.T).any()
        assert [tuple(v) for v in basis.tolist()] == mat_kernel_basis(Mat(f, a[s]))


def test_mat_copies_its_source_and_operators_return_fresh_arrays():
    f = field_make(5)
    source = np.array([[1, 2], [3, 4]])
    m = Mat(f, source)
    source[0, 0] = 0
    assert m.tolist() == [[1, 2], [3, 4]]
    for result in (m + m, m - m, -m, m @ m, m.scale(2), m ** 0, m ** 1, m ** 3,
                   m.t(), m.copy()):
        assert not np.shares_memory(result.a, m.a)
    assert (m + m).tolist() == [[2, 4], [1, 3]] and m.tolist() == [[1, 2], [3, 4]]


def test_is_prime_above_the_exact_bound():
    assert 10 ** 25 + 1 > 3317044064679887385961981
    assert is_prime(10 ** 25 + 1) is False  # 11 divides it
    # no factor below 43, so a Miller-Rabin base is the witness: proof at any size
    assert is_prime((2 ** 89 - 1) * (2 ** 61 - 1)) is False
    for n in (2 ** 89 - 1, 3317044064679887385961981):
        with pytest.raises(BudgetError, match=f"p={n} "):
            is_prime(n)
    # 3317044064679887385961981 = 1287836182261 * 2575672364521 passes every base
    assert 1287836182261 * 2575672364521 == 3317044064679887385961981


def test_prime_matmul_holds_one_result():
    # a stacked F_p product is reduced mod p in place, so its peak memory is
    # the result itself, not the result and a reduced copy
    f = field_make(5, 1)
    m = np.random.default_rng(0).integers(0, 5, size=(36, 6, 6))
    tracemalloc.start()
    try:
        out = f.matmul(m[:, None], m[None])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (36, 36, 6, 6)
    assert ((out >= 0) & (out < 5)).all()
    assert peak <= 1.1 * out.nbytes


# ---------------------------------------------------------------------------
# exactness regimes of the integer kernel
# ---------------------------------------------------------------------------

def _python_matmul(f, a, b):
    """a @ b mod p with Python ints, for a prime field."""
    return (np.asarray(a, dtype=object) @ np.asarray(b, dtype=object)) % f.p


def test_products_past_int64_are_exact():
    # int64 wraps once (p - 1)**2 or inner * (p - 1)**2 passes 2**63: the
    # kernel then takes Python ints
    p = 3037000493  # 2 (p - 1)**2 > 2**63 > (p - 1)**2
    f = field_make(p)
    assert f.matmul([[p - 1, p - 1]], [[p - 1], [p - 1]]).tolist() == [[2]]
    p = 4294967311  # (p - 1)**2 > 2**63
    f = field_make(p)
    top = np.int64(p - 1)
    assert f.varr_mul(top, top) == 1 and f.varr_mul(p - 1, p - 1) == 1
    assert f.mul(top, top) == 1 and f.pow(top, 3) == p - 1 and f.inv(top) == p - 1
    assert f.varr_mul(np.array([p - 1, 2]), np.array([p - 1, p - 1])).tolist() == [1, p - 2]
    assert f.varr_mul(p - 1, np.array([p - 1, 2])).tolist() == [1, p - 2]
    assert f.quadratic(np.array([[p - 1, p - 1]]), np.array([[p - 1, 0], [0, p - 1]])).tolist() \
        == [p - 2]  # -1 - 1
    rng = np.random.default_rng(0)
    a, b = rng.integers(p - 3, p, size=(5, 4)), rng.integers(p - 3, p, size=(4, 3))
    assert f.matmul(a, b).tolist() == _python_matmul(f, a, b).tolist()
    assert f.matmul(a, b).dtype == np.int64
    p = 9223372036854775783  # the largest prime below 2**63: even p + p wraps
    f = field_make(p)
    assert f.varr_add(np.array([p - 1]), np.array([p - 1])).tolist() == [p - 2]
    assert f.add(np.int64(p - 1), np.int64(p - 1)) == p - 2
    assert f.varr_neg(np.array([1, 0])).tolist() == [p - 1, 0]
    assert (f.matpow(np.array([[p - 1, 1], [0, p - 1]]), 3).tolist()
            == [[p - 1, 3], [0, p - 1]])


def test_codes_past_int64_are_refused():
    # q > 2**63: the scalar ops stay exact, the array ops raise
    p = 9223372036854775837
    f = field_make(p)
    assert f.mul(p - 1, p - 1) == 1 and f.add(p - 1, 2) == 1
    for op in (lambda: f.matmul([[1]], [[1]]), lambda: f.varr_add(np.ones(2, dtype=np.int64), 1),
               lambda: f.varr_mul(np.ones(2, dtype=np.int64), 1),
               lambda: f.varr_neg(np.ones(2, dtype=np.int64)),
               lambda: f.quadratic(np.ones((1, 1), dtype=np.int64), np.ones((1, 1), dtype=np.int64))):
        with pytest.raises(PreconditionError, match="do not fit in int64"):
            op()


def test_mat_refuses_codes_past_int64():
    # a Mat holds int64 codes: the code p - 1 of F_p, p > 2**63, is refused
    # as a precondition, not an OverflowError
    p = 9223372036854775837
    with pytest.raises(PreconditionError, match="do not fit in int64"):
        Mat(field_make(p), [[p - 1]])


def test_kernel_regimes():
    # float64 for BLAS-sized products whose sums stay below 2**53, int64
    # below 2**63, Python ints above
    f = field_make(5)
    assert f._dtype(2 ** 53 - 1, blas=True) is np.float64
    assert f._dtype(2 ** 53, blas=True) is np.int64
    assert f._dtype(2 ** 53 - 1) is np.int64
    assert f._dtype(2 ** 63 - 1) is np.int64 and f._dtype(2 ** 63) is object

    def blas(a, b):
        return _blas_shape(np.empty(a), np.empty(b))

    assert blas((2048, 8), (8, 9)) and blas((256, 8, 8), (8, 8))
    assert not blas((834, 3, 3), (834, 3, 3))  # stacked right operands
    assert not blas((8, 8), (8, 8))  # below _BLAS_MIN multiply-adds
    assert not blas((1, 4096), (4096, 2)) and not blas((4096, 8), (8, 1))
    assert not blas((8,), (8, 4096))


# (k, inner, the largest prime below the float64 bound, a prime above it):
# inner * k (p - 1)**2 (1 + (k - 1)(p - 1)) < 2**53 holds for the first; for
# the second it is 16 times 2**53, where float64 would round odd sums
_FLOAT_BOUND_PRIMES = [(1, 64, 11863279, 47453149), (2, 64, 41281, 104047)]


@settings(max_examples=12, deadline=None)
@given(case=st.sampled_from(_FLOAT_BOUND_PRIMES), above=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1), extreme=st.booleans())
def test_float64_products_equal_int64_products(case, above, seed, extreme):
    # on both sides of the float64 exactness bound: below it the float64 and
    # the int64 kernels agree, above it the product takes int64, and both
    # agree with Python ints
    k, inner, below_p, above_p = case
    f = field_make(above_p if above else below_p, k)
    rng = np.random.default_rng(seed)
    shape = (3, _BLAS_MIN // inner, inner)
    if extreme:  # codes whose digits are all p - 1 maximise every sum
        a = np.full(shape, f.q - 1, dtype=np.int64)
        b = np.full((inner, 2), f.q - 1, dtype=np.int64)
        a[rng.random(shape) < 0.2] = 0
    else:
        a, b = rng.integers(0, f.q, size=shape), rng.integers(0, f.q, size=(inner, 2))
    bound = inner * f._digit_bound
    assert (bound < 2 ** 53) != above
    assert _blas_shape(a, b)
    got = f.matmul(a, b)
    assert got.dtype == np.int64
    want = f._product(a, b, np.matmul, np.int64)
    assert np.array_equal(got, want)
    if not above:
        assert np.array_equal(f._product(a, b, _blas_matmul, np.float64), want)
    if k == 1:
        assert got.tolist() == _python_matmul(f, a, b).tolist()
    else:  # every slice against the scalar loop would be slow: one row
        assert got[0, 0].tolist() == naive_matmul(f, a[0, :1].tolist(), b.tolist())[0]
