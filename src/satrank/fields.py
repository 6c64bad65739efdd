"""Arithmetic over F_{p^k} and dense matrices on top of it.

A field element is encoded as a plain int in [0, p**k): the base-p digits of
the code are the coefficients of the residue polynomial, least significant
digit first, so code = sum(c_i * p**i) for the element sum(c_i * x**i) in
F_p[x]/(modulus) (Lidl & Niederreiter, Finite Fields, ch. 2).

Multiplication has one definition (FieldSpec._product): split both operands
into their k base-p digit planes, combine every pair of planes i, j with an
integer op (elementwise product for a * b, matrix product for a @ b, row dot
product for FieldSpec.quadratic), add the result into the output planes with
the coefficients of x^(i+j) modulo the modulus, and reduce mod p.  For
k == 1 that is ordinary arithmetic mod p.  Addition and negation work plane
by plane.  The q x q add/mul tables of fields with q <= _TABLE_CAP are a
cache filled from these functions and serve elementwise ops, as does the
length-q inverse table (built for k == 1 too); above the cap the digit-plane
functions are the arithmetic.  Matrix products and powers, stacked or not,
always take the digit planes (FieldSpec.matmul, FieldSpec.matpow).

The integer op runs in the narrowest exact regime for the largest sum it can
build (FieldSpec._dtype): float64 through BLAS for matrix products whose
sums stay below 2**53 and whose shape pays for the casts (_blas_shape),
int64 below 2**63, and object arrays of Python ints above that.  Results are
int64 codes in every regime.  A field whose codes do not fit in int64
(q > 2**63) takes scalar ops only; its array ops raise PreconditionError.

Matrices are numpy int64 arrays of codes wrapped in Mat.  Rank, kernel and
solve all go through one Gaussian elimination, _rref, which takes a stack of
matrices and row-reduces every slice; a single matrix is a stack of one.
_kernels reads every slice's kernel basis off its RREF, so callers with many
small matrices (the commuting masks of satrank.lie) make one call for all of
them.  The determinant comes from the single-matrix elimination
(_rref_matrix) alone, the one place that tracks it.  Nothing here is sparse.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

from .errors import BudgetError, PreconditionError

_TABLE_CAP = 2048  # largest q for which the q*q tables are cached
_F64_EXACT = 1 << 53  # float64 holds every integer below this exactly
_I64_EXACT = 1 << 63  # int64 holds every integer below this
# A float64 matrix product pays a cast of each operand and of the result.
# Below _BLAS_MIN multiply-adds int64 is faster ((8 x 8) @ (8 x 8): 1.7 us in
# int64, 2.8 us in float64; (64 x 8) @ (8 x 8): 6.4 against 4.8 us; 2-vCPU
# VM).  OpenBLAS keeps a call of at most _BLAS_CALL multiply-adds on one
# thread (more wakes workers that then spin between calls), so larger
# products are cut into blocks of that size.
_BLAS_MIN = 1 << 12
_BLAS_CALL = 1 << 18
# numpy divides int64 by a scalar with libdivide, but x % p and np.divmod take
# a hardware division per entry: x - p * (x // p) reduces 2048 x 8 codes in
# 23 us, x % p in 62 us.  It takes three numpy calls, which pay off from about
# 512 entries (1024: 2.5 against 3.4 us; 64: 1.3 against 0.8 us), and a
# temporary of x's size, so _reduce and _planes take it for sizes in
# _LIBDIVIDE only.
_LIBDIVIDE = range(1 << 9, (1 << 15) + 1)
_INT64 = np.dtype(np.int64)


# the first 13 primes as Miller-Rabin bases decide every n < _MR_EXACT
# (Sorenson and Webster 2017); 2..37 alone fail at 318665857834031151167461
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin to the bases _MR_BASES.

    A base that witnesses n composite decides n at any size.  Passing every
    base proves n prime only below _MR_EXACT; above it BudgetError is raised
    rather than running a primality proof (trial division up to sqrt(n)
    would take hours).
    """
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2**s, d odd
    d = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_EXACT:
        raise BudgetError(f"p={n} passes Miller-Rabin to the bases 2..41, which proves "
                          f"primality only below {_MR_EXACT}")
    return True


# ---------------------------------------------------------------------------
# polynomial helpers over F_p (coefficient tuples, little endian)
# ---------------------------------------------------------------------------

def _poly_mulmod(a, b, f, p):
    """a * b mod the monic f over F_p, for a and b of degree < deg f."""
    k = len(f) - 1
    prod = [0] * (2 * k - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
    for d in range(2 * k - 2, k - 1, -1):  # x^d = x^(d-k) (x^k - f)
        c = prod[d] % p
        if c:
            for i in range(k):
                prod[d - k + i] -= c * f[i]
    return [c % p for c in prod[:k]]


def _poly_gcd_degree(a, b, p):
    """The degree of gcd(a, b) over F_p, for a nonzero (gcd(a, 0) = a)."""
    def trim(c):
        c = [x % p for x in c]
        while c and not c[-1]:
            c.pop()
        return c

    a, b = trim(a), trim(b)
    while b:  # a, b = b, a mod b
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            c, shift = a[-1] * inv % p, len(a) - len(b)
            for i, bi in enumerate(b):
                a[shift + i] = (a[shift + i] - c * bi) % p
            a = trim(a)
        a, b = b, a
    return len(a) - 1


def _is_irreducible(modulus, p, k):
    """Rabin's test: the monic modulus f of degree k is irreducible over F_p
    exactly when f divides x^(p^k) - x and gcd(f, x^(p^(k/r)) - x) = 1 for
    every prime r dividing k.  The powers x^(p^i) are taken mod f, p-th power
    after p-th power, so the cost is O(k^3 log p) whatever p."""
    if k == 1:
        return True
    mul = functools.partial(_poly_mulmod, f=modulus, p=p)
    x = [0, 1] + [0] * (k - 2)
    frobenius = [x]  # frobenius[i] = x^(p^i) mod f
    for _ in range(k):
        frobenius.append(_power(frobenius[-1], p, mul, [1] + [0] * (k - 1)))
    if frobenius[k] != x:
        return False
    for r in range(2, k + 1):
        if k % r or not is_prime(r):
            continue
        shifted = list(frobenius[k // r])
        shifted[1] -= 1
        if _poly_gcd_degree(modulus, shifted, p) > 0:
            return False
    return True


@functools.lru_cache(maxsize=None)
def field_make(p: int, k: int = 1) -> "FieldSpec":
    """F_{p^k} with the lexicographically smallest irreducible monic modulus.

    Candidates x^k + c_{k-1}x^{k-1} + ... + c_0 are scanned in ascending
    lexicographic order on (c_{k-1}, ..., c_0); the first irreducible one
    wins, so the modulus (and hence every code) is reproducible.  Fields are
    cached per (p, k).
    """
    if not is_prime(p):
        raise PreconditionError(f"p={p} is not prime")
    if not 1 <= k <= 4:
        raise PreconditionError(f"extension degree k={k} out of range [1, 4]")
    if k == 1:
        return FieldSpec(p, 1, (0, 1))
    for m in range(p ** k):
        coeffs = tuple((m // p ** i) % p for i in range(k))
        modulus = coeffs + (1,)
        if _is_irreducible(modulus, p, k):
            return FieldSpec(p, k, modulus)
    raise AssertionError("no irreducible polynomial found")  # unreachable


def _power(x, e, mul, one):
    """x**e for e >= 0 by square-and-multiply under mul; one when e == 0."""
    result = None
    while e:
        if e & 1:
            result = x if result is None else mul(result, x)
        e >>= 1
        if e:
            x = mul(x, x)
    return one if result is None else result


class FieldSpec:
    """The field F_{p^k} = F_p[x]/(modulus) acting on int codes."""

    def __init__(self, p: int, k: int, modulus):
        if not is_prime(p):
            raise PreconditionError(f"p={p} is not prime")
        if not 1 <= k <= 4:
            raise PreconditionError(f"extension degree k={k} out of range [1, 4]")
        modulus = tuple(int(c) % p for c in modulus)
        if len(modulus) != k + 1 or modulus[k] != 1:
            raise PreconditionError("modulus must be monic of degree k")
        if not _is_irreducible(modulus, p, k):
            raise PreconditionError(f"modulus {modulus} is reducible over F_{p}")
        self.p = p
        self.k = k
        self.modulus = modulus
        self.q = p ** k
        self.zero = 0
        self.one = 1 % self.q
        # _xpow[d] = coefficients of x^d mod the modulus, for the degrees
        # d <= 2k - 2 of a product of two residues
        self._xpow = []
        xd = [1] + [0] * (k - 1)
        for _ in range(2 * k - 1):
            self._xpow.append(tuple(xd))
            top = xd[-1]
            xd = [(c - top * m) % p for c, m in zip([0] + xd[:-1], modulus)]
        # a sum over `inner` products of two digit planes, folded into one
        # output plane by _product, is below inner * _digit_bound; for k == 1
        # that is inner * (p - 1)**2
        self._digit_bound = k * (p - 1) ** 2 * (1 + (k - 1) * (p - 1))
        # elementwise ops of F_p run as one int64 op and one reduction
        self._int64 = k == 1 and self._digit_bound < _I64_EXACT
        self._add_t = self._mul_t = self._neg_t = self._inv_t = None
        if k > 1 and self.q <= _TABLE_CAP:
            codes = np.arange(self.q, dtype=np.int64)
            self._add_t = self._sum(codes[:, None], codes)
            self._mul_t = self._product(codes[:, None], codes, operator.mul,
                                        self._dtype(self._digit_bound))
            self._neg_t = self._negative(codes)
        if self.q <= _TABLE_CAP:  # for k == 1 too: varr_inv reads it
            self._inv_t = self.varr_pow(np.arange(self.q, dtype=np.int64), self.q - 2)
            self._inv_t[0] = 0

    # -- the digit-plane arithmetic --------------------------------------------

    def _dtype(self, bound, blas=False):
        """The dtype in which integer sums below bound are exact: float64 (BLAS)
        when blas and bound < 2**53, int64 when bound < 2**63, else object
        arrays of Python ints.  PreconditionError when the codes themselves do
        not fit in int64."""
        if self.q > _I64_EXACT:
            raise PreconditionError(f"the codes of {self!r} do not fit in int64 (q > 2**63): "
                                    f"array arithmetic is not supported")
        if blas and bound < _F64_EXACT:
            return np.float64
        return np.int64 if bound < _I64_EXACT else object

    def _planes(self, a, dtype):
        """The k base-p digits of a code array, least significant first, as
        dtype arrays."""
        a = np.asarray(a, dtype=np.int64)
        planes = []
        for _ in range(self.k - 1):
            if a.size in _LIBDIVIDE:
                high = a // self.p
                digit = a - self.p * high
            else:
                high, digit = np.divmod(a, self.p)
            planes.append(digit.astype(dtype, copy=False))
            a = high
        # codes are < p**k, so the last quotient is the top digit
        planes.append(a.astype(dtype, copy=False))
        return planes

    def _reduce(self, x):
        """x mod p: int64 codes for an array, reduced in place when x is an
        int64 array; a scalar for a scalar."""
        if not isinstance(x, np.ndarray):
            return x % self.p
        if x.dtype is not _INT64:
            if x.dtype == object:
                return (x % self.p).astype(np.int64)
            x = x.astype(np.int64)  # float64 % is several times slower than int64 %
        if x.size in _LIBDIVIDE:
            high = x // self.p
            high *= self.p
            x -= high
        else:
            x %= self.p
        return x

    def _join(self, planes):
        """The int64 codes whose base-p digits are the planes reduced mod p."""
        out = self._reduce(planes[-1])
        for c in reversed(planes[:-1]):
            out *= self.p
            out += self._reduce(c)
        return out

    def _sum(self, a, b):
        dtype = self._dtype(2 * self.p)
        return self._join([x + y for x, y in zip(self._planes(a, dtype), self._planes(b, dtype))])

    def _negative(self, a):
        return self._join([-x for x in self._planes(a, self._dtype(self.p))])

    def _product(self, a, b, op, dtype):
        """a * b, a @ b or the row dot products of a and b over F_q, for op
        one of operator.mul, a matrix product or _rowdot that is exact in
        dtype (_dtype of inner * _digit_bound, inner the length of op's sums).

        The integer sum of op(plane i of a, plane j of b) over i + j = d is
        the coefficient of x^d; the degrees d >= k are folded into the low
        ones with the coefficients of x^d mod the modulus, then every plane is
        reduced mod p.
        """
        k, pa, pb = self.k, self._planes(a, dtype), self._planes(b, dtype)
        if k == 1:  # a code is its only digit plane
            return self._reduce(op(pa[0], pb[0]))
        out = []
        for d in range(2 * k - 1):
            coeff = None
            for i in range(max(0, d - k + 1), min(d, k - 1) + 1):
                xy = op(pa[i], pb[d - i])
                if coeff is None:
                    coeff = xy
                else:
                    coeff += xy
            if d < k:
                out.append(coeff)
                continue
            for t, r in enumerate(self._xpow[d]):
                if r:
                    out[t] += coeff if r == 1 else r * coeff
        return self._join(out)

    # -- scalar ops ----------------------------------------------------------
    #
    # For k == 1 the operands are made Python ints first: numpy integers would
    # wrap past 2**63.

    def add(self, a: int, b: int) -> int:
        if self.k == 1:
            return (int(a) + int(b)) % self.p
        return int(self.varr_add(a, b))

    def neg(self, a: int) -> int:
        if self.k == 1:
            return (-a) % self.p
        return int(self.varr_neg(a))

    def mul(self, a: int, b: int) -> int:
        if self.k == 1:
            return (int(a) * int(b)) % self.p
        return int(self.varr_mul(a, b))

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        if self.k == 1:
            return pow(int(a), self.p - 2, self.p)
        if self._inv_t is not None:
            return int(self._inv_t[a])
        return self.pow(a, self.q - 2)

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        return _power(a, e, self.mul, self.one)

    def coeffs(self, a: int):
        """Little-endian coefficient tuple of a code."""
        return tuple((a // self.p ** i) % self.p for i in range(self.k))

    def from_coeffs(self, cs) -> int:
        cs = list(cs)
        if len(cs) != self.k:
            raise PreconditionError(f"coefficient vector must have length {self.k}")
        return sum((int(c) % self.p) * self.p ** i for i, c in enumerate(cs))

    def from_int(self, n: int) -> int:
        """Image of an integer under Z -> F_p <= F_q."""
        return n % self.p

    def elements(self):
        return range(self.q)

    # -- vectorized ops on numpy code arrays ----------------------------------
    #
    # For k == 1 a code is its only digit plane and the digit-plane functions
    # reduce to one integer op mod p; while that op cannot leave int64
    # (_int64), these ops, like the scalar ones, take it directly.

    def varr_add(self, a, b):
        if self._int64:
            return self._reduce(a + b)
        return self._sum(a, b) if self._add_t is None else self._add_t[a, b]

    def varr_mul(self, a, b):
        if self._int64:
            return self._reduce(a * b)
        if self._mul_t is not None:
            return self._mul_t[a, b]
        return self._product(a, b, operator.mul, self._dtype(self._digit_bound))

    def varr_neg(self, a):
        if self._int64:
            return self._reduce(-a)
        return self._negative(a) if self._neg_t is None else self._neg_t[a]

    def varr_inv(self, a):
        """Elementwise inverse, with 0 sent to 0."""
        if self._inv_t is not None:
            return self._inv_t[a]
        return self.varr_pow(a, self.q - 2)

    def varr_pow(self, a, e: int):
        """Elementwise a**e for e >= 0."""
        a = np.array(a, dtype=np.int64)
        return _power(a, e, self.varr_mul, np.ones_like(a))

    def matmul(self, a, b):
        """a @ b over F_q, with np.matmul shape rules (stacks, 1-D operands).

        The one F_q matrix product: float64 through BLAS where _blas_shape
        says it pays and every sum stays below 2**53, else int64 (reduced in
        place, one result-sized array) or Python ints (_dtype).
        """
        a, b = np.asarray(a), np.asarray(b)
        dtype = self._dtype(a.shape[-1] * self._digit_bound, _blas_shape(a, b))
        if dtype is np.int64 and self.k == 1:  # the common case, without _product's calls
            return self._reduce(np.matmul(a, b))
        return self._product(a, b, _blas_matmul if dtype is np.float64 else np.matmul, dtype)

    def quadratic(self, x, form):
        """x . form . x^T over F_q for every row x of x (the last axis): the
        quadratic form with Gram matrix form, evaluated row by row; form need
        not be symmetric."""
        x = np.asarray(x)
        return self._product(self.matmul(x, form), x, _rowdot,
                             self._dtype(x.shape[-1] * self._digit_bound))

    def matpow(self, a, e: int):
        """a**e for e >= 0, for a square matrix or a stack of them; never a
        itself (e = 1 returns a copy)."""
        a = np.asarray(a, dtype=np.int64)
        if e == 0:
            return np.broadcast_to(np.eye(a.shape[-1], dtype=np.int64), a.shape).copy()
        return a.copy() if e == 1 else _power(a, e, self.matmul, None)

    def trunc_exp(self, m):
        """sum_{t<p} m^t / t! for a square matrix or a stack of them: the
        truncated exponential, exp(m) when m^p = 0 (not checked here).  The
        sum stops at the first power that is zero on every slice, since all
        later terms are zero too."""
        m = np.asarray(m, dtype=np.int64)
        power = np.broadcast_to(np.eye(m.shape[-1], dtype=np.int64), m.shape).copy()
        exp, inv_fact = power.copy(), 1
        for t in range(1, self.p):
            power = self.matmul(power, m)
            if not power.any():
                break
            inv_fact = inv_fact * pow(t, -1, self.p) % self.p
            exp = self.varr_add(exp, self.varr_mul(inv_fact, power))
        return exp

    def __eq__(self, other):
        return (isinstance(other, FieldSpec)
                and (self.p, self.k, self.modulus) == (other.p, other.k, other.modulus))

    def __hash__(self):
        return hash((self.p, self.k, self.modulus))

    def __repr__(self):
        if self.k == 1:
            return f"F_{self.p}"
        return f"F_{self.p}^{self.k}(mod={self.modulus})"


def _blas_shape(a, b):
    """Whether the product of an (..., n, m) stack a by an (m, l) matrix b is
    worth a float64 round trip through BLAS: b is 2-D, the product has at
    least two rows and two columns (fewer take BLAS's vector kernels), and it
    takes at least _BLAS_MIN multiply-adds (a.size * l).  Stacked right
    operands stay in int64: numpy runs them as one small BLAS call per slice,
    which loses to int64 on 3 x 3 slices (834 of them: 58 against 49 us)."""
    if b.ndim != 2 or a.ndim < 2 or a.size * b.shape[1] < _BLAS_MIN:
        return False
    return b.shape[1] > 1 and a.size > a.shape[-1]


def _blas_matmul(a, b):
    """a @ b for a float64 (..., n, m) stack a and an (m, l) matrix b, as one
    2-D product in blocks of at most _BLAS_CALL multiply-adds: blocks of
    rows by all of b, or, where two rows by all of b would pass that, by a
    block of b's columns."""
    flat = a.reshape(-1, a.shape[-1])
    out = np.empty((len(flat), b.shape[1]))
    width = min(b.shape[1], max(1, _BLAS_CALL // (2 * len(b))))  # columns per call
    step = max(1, _BLAS_CALL // (len(b) * width))  # rows per call
    for col in range(0, b.shape[1], width):
        cols = slice(col, col + width)
        for start in range(0, len(flat), step):
            rows = slice(start, start + step)
            np.matmul(flat[rows], b[:, cols], out=out[rows, cols])
    return out.reshape(a.shape[:-1] + b.shape[1:])


def _rowdot(x, y):
    """The dot products of matching rows (last axis) of x and y."""
    return np.einsum("...i,...i->...", x, y)


class Mat:
    """Dense matrix of field codes; all operations return new matrices.

    Mat(field, array) copies array; the operators wrap their fresh results.
    """

    __slots__ = ("field", "a")

    def __init__(self, field: FieldSpec, array):
        self.field = field
        try:
            a = np.array(array, dtype=np.int64)
        except OverflowError:  # codes of a field with q > 2**63, or raw ints past int64
            raise PreconditionError(f"matrix entries over {field!r} do not fit in int64") from None
        if a.ndim != 2:
            raise PreconditionError("matrix data must be 2-dimensional")
        self.a = a

    @classmethod
    def _wrap(cls, field, a):
        """A Mat around a fresh 2-D int64 array that nothing else holds, uncopied."""
        m = cls.__new__(cls)
        m.field, m.a = field, a
        return m

    @classmethod
    def zeros(cls, field, rows, cols):
        return cls(field, np.zeros((rows, cols), dtype=np.int64))

    @classmethod
    def identity(cls, field, n):
        m = np.zeros((n, n), dtype=np.int64)
        np.fill_diagonal(m, field.one)
        return cls(field, m)

    @classmethod
    def from_rows(cls, field, rows):
        a = np.array([[int(c) % field.q for c in row] for row in rows], dtype=np.int64)
        return cls(field, a)

    @property
    def rows(self):
        return self.a.shape[0]

    @property
    def cols(self):
        return self.a.shape[1]

    def copy(self):
        return Mat._wrap(self.field, self.a.copy())

    def __add__(self, other):
        return Mat._wrap(self.field, self.field.varr_add(self.a, other.a))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Mat._wrap(self.field, self.field.varr_neg(self.a))

    def __matmul__(self, other):
        return Mat._wrap(self.field, self.field.matmul(self.a, other.a))

    def scale(self, c: int):
        return Mat._wrap(self.field, self.field.varr_mul(c % self.field.q, self.a))

    def __pow__(self, e: int):
        if self.rows != self.cols:
            raise PreconditionError("matrix power needs a square matrix")
        if e < 0:
            raise PreconditionError("negative matrix powers not supported")
        return Mat._wrap(self.field, self.field.matpow(self.a, e))

    def t(self):
        return Mat._wrap(self.field, self.a.T.copy())

    def trace(self) -> int:
        f = self.field
        t = 0
        for i in range(min(self.rows, self.cols)):
            t = f.add(t, int(self.a[i, i]))
        return t

    def is_zero(self) -> bool:
        return not self.a.any()

    def __eq__(self, other):
        return (isinstance(other, Mat) and self.field == other.field
                and self.a.shape == other.a.shape and bool((self.a == other.a).all()))

    def __hash__(self):
        return hash((self.field, self.a.shape, self.a.tobytes()))

    def __repr__(self):
        return f"Mat({self.a.tolist()})"

    def tolist(self):
        return self.a.tolist()


# ---------------------------------------------------------------------------
# elimination
# ---------------------------------------------------------------------------

def _rref(field, a):
    """Reduced row echelon forms of the slices of an (N, R, C) code array.

    Returns (rref, pivots): the (N, R, C) forms and the (N, C) bool array of
    each slice's pivot columns.  A stack of one takes a loop over that
    matrix alone, any other stack one column loop over all slices; both give
    the unique RREF.  The stacked loop pays for its per-slice bookkeeping
    with several times the numpy calls per column, which a single small
    matrix would feel.
    """
    if len(a) == 1:
        r, pivots, _ = _rref_matrix(field, a[0])
        mask = np.zeros((1, a.shape[2]), dtype=bool)
        mask[0, pivots] = True
        return r[None], mask
    return _rref_stack(field, a)


def _rref_matrix(field, a):
    """_rref of one matrix: (rref, pivot column list, det), where det is the
    determinant when the matrix is square of full rank (the product of the
    pivots, negated for each row swap).

    Rows are swapped into place, and each pivot column is cleared by one
    rank-1 update of the whole array, skipped where the pivot is the
    column's only nonzero entry (the update would add zeros).  A nearly
    reduced matrix, such as [B | I_d] for sl_n's basis, then costs a scaling
    per pivot.
    """
    a = a.copy()
    rows, cols = a.shape
    pivots = []
    det = field.one
    for c in range(cols):
        r = len(pivots)
        nonzero = np.flatnonzero(a[r:, c])
        if not nonzero.size:
            continue
        piv = r + int(nonzero[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
            det = field.neg(det)
        lead = int(a[r, c])
        det = field.mul(det, lead)
        row = field.varr_mul(field.inv(lead), a[r])
        factors = field.varr_neg(a[:, c])
        factors[r] = 0
        if factors.any():
            a = field.varr_add(a, field.varr_mul(factors[:, None], row))
        a[r] = row
        pivots.append(c)
        if r + 1 == rows:
            break
    return a, pivots, det


def _rref_stack(field, a):
    """_rref of a stack, one column loop over every slice.

    Rows stay in place during the loop: in each slice the first row without
    a pivot that is nonzero in column c becomes the pivot row, is scaled to
    1 there, and column c is cleared from the other rows by one rank-1 update
    of the stack (all zero for slices without a pivot in c).  Pivot rows are
    moved to the top, in pivot column order, at the end.
    """
    a = np.array(a, dtype=np.int64)
    n, rows, cols = a.shape
    at = np.arange(n)
    free = np.ones((n, rows), dtype=bool)  # rows not yet holding a pivot
    pivots = np.zeros((n, cols), dtype=bool)
    for c in range(cols):
        col = a[:, :, c]
        cand = (col != 0) & free
        has = cand.any(axis=1)
        if not has.any():
            continue
        piv = cand.argmax(axis=1)
        lead = col[at, piv]
        # a free row is zero left of c, so only columns c: change
        row = field.varr_mul((field.varr_inv(lead) * has)[:, None], a[at, piv, c:])
        a[:, :, c:] = field.varr_add(
            a[:, :, c:], field.varr_mul(field.varr_neg(col)[:, :, None], row[:, None, :]))
        a[at, piv, c:] += row  # the update zeroed the pivot row; 0 + row, or + 0
        free[at, piv] &= ~has
        pivots[:, c] = has
        if not free.any():
            break
    if not pivots.any():
        return a, pivots
    # a pivot row's first nonzero entry is its pivot
    key = np.where(free, cols + np.arange(rows), (a != 0).argmax(axis=2))
    order = np.argsort(key, axis=1, kind="stable")
    return np.take_along_axis(a, order[:, :, None], axis=1), pivots


def _kernels(field, a):
    """Right null spaces of the slices of an (N, R, C) code array: (vectors, free).

    With M the C x C array holding each RREF row at its pivot column's row,
    column j of I - M is zero for a pivot column j and, for a free column j,
    the kernel vector with 1 at j and minus the RREF entries of column j at
    the pivot columns.  vectors[s] is (I - M)^T of slice s and free[s] marks
    its free columns, so vectors[s][free[s]] is slice s's kernel basis in
    free column order.
    """
    r, pivots = _rref(field, a)
    n, _, cols = r.shape
    s, c = np.nonzero(pivots)
    m = np.zeros((n, cols, cols), dtype=np.int64)
    m[s, c] = r[s, np.cumsum(pivots, axis=1)[s, c] - 1]
    eye = np.eye(cols, dtype=np.int64) * field.one
    return np.swapaxes(field.varr_add(eye, field.varr_neg(m)), 1, 2), ~pivots


def mat_rank(m: Mat) -> int:
    _, pivots = _rref(m.field, m.a[None])
    return int(pivots.sum())


def mat_kernel_basis(m: Mat):
    """Basis of the right null space as coordinate tuples; [] iff full column rank."""
    vectors, free = _kernels(m.field, m.a[None])
    return [tuple(v) for v in vectors[0][free[0]].tolist()]


def mat_det(m: Mat) -> int:
    """Determinant by Gaussian elimination over the field."""
    if m.rows != m.cols:
        raise PreconditionError("determinant needs a square matrix")
    _, pivots, det = _rref_matrix(m.field, m.a)
    return int(det) if len(pivots) == m.rows else 0


def mat_is_p_nilpotent(m: Mat, p: int) -> bool:
    """Whether m**p == 0 (membership in the restricted nullcone of gl_n)."""
    if m.rows != m.cols:
        raise PreconditionError("p-nilpotency is only defined for square matrices")
    return (m ** p).is_zero()


def mat_solve(m: Mat, rhs):
    """One solution x of m @ x = rhs as a tuple, or None if inconsistent."""
    aug = np.concatenate([m.a, np.array(rhs, dtype=np.int64).reshape(-1, 1)], axis=1)
    r, pivots = _rref(m.field, aug[None])
    if pivots[0, m.cols]:
        return None
    x = np.zeros(m.cols, dtype=np.int64)
    pcs = np.flatnonzero(pivots[0])
    x[pcs] = r[0, : len(pcs), m.cols]
    return tuple(x.tolist())
