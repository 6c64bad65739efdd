"""Restricted Lie algebras by structure constants and p-map.

An algebra of dimension n over F_q keeps, per basis pair, the bracket
coordinates [b_i, b_j] and, per basis vector, the p-map image b_i^[p]; an
optional matrix model realizes the basis inside gl_m and must agree with both
tables.  Elements are coordinate tuples of field codes.

x^[p] is evaluated for a whole array of elements at once.  Matrix models take
the batched p-th matrix power and solve back to coordinates; otherwise
Jacobson's formula folds the coordinate expansion pairwise, reading the
correction terms s_i(x, y) off as t-coefficients of (ad(tx+y))^(p-1)(x) over
g[t].  All field arithmetic, batched or not, goes through satrank.fields.

The saturation rank machinery works over the restricted nullcone
V(g) = {x : x^[p] = 0}.  It is a cone, (cx)^[p] = c^p x^[p], so it is
enumerated by lines: one p-th power per projective class, then each
p-nilpotent line expanded by the nonzero scalars.  The local rank r(x) is
the largest dimension of an elementary subalgebra through x, and srk(g) is
the minimum of the local ranks over nonzero nullcone points.  Pairwise
commuting p-nilpotent vectors span an elementary subalgebra (the Jacobson
terms of a sum are iterated brackets), so the maximal cliques of the
commuting graph on projective nullcone classes are exactly the maximal
elementary subalgebras, and a clique of (q^r - 1)/(q - 1) classes has rank
r.  One enumeration (satrank.cliques, shared with satrank.groups) gives r(x)
for every class at once.

The graph lives on integer coordinates in the space that was enumerated:
F_q^dim for srk_brute, F_q^d in the centralizer basis for local_rank.  The
callers' budget checks bound q^dim and q^d, so a dense int32 table with one
entry per coordinate code maps every nonzero scalar multiple of a class to
the class index.  The classes commuting with u are the span closure of
ker ad(u): one vector per line of the kernel, looked up in the table.  Those
commuting masks are built for a batch of classes at a time: one stacked
product ad(u) . basis^T, one stacked elimination (fields._kernels), and span
closures batched by kernel dimension.  A witness is a greedy basis of a
maximal clique, read off as pivot columns: one more stacked elimination per
batch of the maximal-rank cliques through the class.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import random
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .cliques import _bits, _maximal_cliques
from .errors import BudgetError, PreconditionError, expect
from .fields import FieldSpec, Mat, _kernels, _rref

DEFAULT_BUDGET = 10_000_000

Vec = tuple


def _vec_add(f, u, v):
    return tuple(f.add(a, b) for a, b in zip(u, v))


def _vec_scale(f, c, u):
    return tuple(f.mul(c, a) for a in u)


def _canonical_projective(f, v):
    """Scale v so its first nonzero coordinate is 1."""
    for c in v:
        if c:
            return _vec_scale(f, f.inv(c), v)
    return v


def _vec_is_zero(u):
    return not any(u)


class RestrictedLieAlgebra:
    """Basis-indexed bracket table, p-map, and optional matrix model.

    brackets maps (i, j) to {k: c} with [b_i, b_j] = sum_k c b_k; pmap lists
    the coordinates of b_i^[p].  Coefficients are field codes (use
    field.neg/from_int rather than raw negative ints over extension fields).
    """

    def __init__(self, field: FieldSpec, brackets, pmap, labels=None,
                 matrix_model=None, validate="auto"):
        self.field = field
        self.dim = len(pmap)
        self.labels = list(labels) if labels else [f"b{i}" for i in range(self.dim)]
        if len(self.labels) != self.dim:
            raise PreconditionError("label count must match dimension")
        # ad tensor: _adb[i][:, j] = coords of [b_i, b_j]
        self._adb = np.zeros((self.dim, self.dim, self.dim), dtype=np.int64)
        for (i, j), out in brackets.items():
            for k, c in out.items():
                self._adb[i, k, j] = c % field.q
        self.pmap = [tuple(int(c) % field.q for c in row) for row in pmap]
        self._pmap = np.array(self.pmap, dtype=np.int64).reshape(self.dim, self.dim)
        self.matrix_model = self._coord_solver = None
        if matrix_model:
            if len(matrix_model) != self.dim:
                raise PreconditionError("matrix model must have one matrix per basis vector")
            self._set_model(_CoordSolver(field, matrix_model))
        if validate == "auto":
            validate = "model" if self.matrix_model else "full"
        if validate != "none":
            self.validate(validate)

    def _set_model(self, solver):
        self.matrix_model = solver.mats
        self._coord_solver = solver
        self._model = solver.model

    # -- structure access ----------------------------------------------------

    def ad(self, x) -> np.ndarray:
        """Matrix of ad(x) on the basis, as a code array; x may be a stack of rows."""
        x = np.asarray(x, dtype=np.int64)
        ad = self.field.matmul(x, self._adb.reshape(self.dim, self.dim * self.dim))
        return ad.reshape(x.shape[:-1] + (self.dim, self.dim))

    def bracket(self, x: Vec, y: Vec) -> Vec:
        # sum of x_i y_j [b_i, b_j] over the supports of x and y only
        f = self.field
        x, y = np.asarray(x, dtype=np.int64), np.asarray(y, dtype=np.int64)
        i, j = np.flatnonzero(x), np.flatnonzero(y)
        return tuple(f.matmul(x[i], f.matmul(self._adb[i][:, :, j], y[j])).tolist())

    def basis_vec(self, i: int) -> Vec:
        v = [0] * self.dim
        v[i] = self.field.one
        return tuple(v)

    def zero(self) -> Vec:
        return (0,) * self.dim

    def matrix_of(self, x: Vec) -> Mat:
        if not self.matrix_model:
            raise PreconditionError("algebra has no matrix model")
        return Mat(self.field, self._matrices(np.asarray(x, dtype=np.int64)))

    def _matrices(self, x):
        """The model matrices of the rows of x, stacked."""
        m = self.field.matmul(x, self._model.reshape(self.dim, -1))
        return m.reshape(x.shape[:-1] + self._model.shape[1:])

    def coords_of_matrix(self, m: Mat) -> Vec:
        if not self._coord_solver:
            raise PreconditionError("algebra has no matrix model")
        coords = self._coord_solver.solve(m)
        if coords is None:
            raise PreconditionError("matrix lies outside the span of the model basis")
        return coords

    # -- p-map ----------------------------------------------------------------

    def pmap_eval(self, x: Vec) -> Vec:
        """x^[p], via the matrix model when present, else Jacobson's formula."""
        return tuple(self._pmap_rows(np.array([x], dtype=np.int64))[0].tolist())

    def _pmap_rows(self, x):
        """x^[p] for every row of the code array x (N x dim)."""
        f, p = self.field, self.field.p
        if self.matrix_model:
            powers = f.matpow(self._matrices(x), p).reshape(len(x), -1)
            coords, inside = self._coord_solver.solve_rows(powers)
            if not inside.all():
                raise PreconditionError("p-th power lies outside the span of the model basis")
            return coords
        # Jacobson: (u + v)^[p] = u^[p] + v^[p] + sum_i s_i(u, v), folded over
        # u = x_i b_i, v = x_(i+1) b_(i+1) + ... from the last coordinate down.
        # The u^[p] terms sum to sum_i x_i^p b_i^[p]; i * s_i(u, v) is the
        # t^(i-1) coefficient of (ad(tu + v))^(p-1)(u), and w[:, d] holds the
        # t^d coefficient (d < p - 1; the t^(p-1) one is ad(u)^(p-1)(u) = 0).
        acc = f.matmul(f.varr_pow(x, p), self._pmap)
        inverses = [f.inv(i) for i in range(1, p)]
        for i in range(self.dim - 2, -1, -1):
            if not (x[:, i].any() and x[:, i + 1:].any()):
                continue  # s_i(0, v) = s_i(u, 0) = 0
            u = np.zeros_like(x)
            u[:, i] = x[:, i]
            v = np.zeros_like(x)
            v[:, i + 1:] = x[:, i + 1:]
            ad_u, ad_v = (np.swapaxes(self.ad(y), 1, 2) for y in (u, v))
            w = np.zeros((len(x), p - 1, self.dim), dtype=np.int64)
            w[:, 0] = u
            for _ in range(p - 1):
                nw = f.matmul(w, ad_v)
                nw[:, 1:] = f.varr_add(nw[:, 1:], f.matmul(w[:, :-1], ad_u))
                w = nw
            acc = f.varr_add(acc, f.matmul(inverses, w))
        return acc

    # -- validation ------------------------------------------------------------

    def validate(self, level="full"):
        f = self.field
        if level == "model" and not self.matrix_model:
            level = "full"
        # antisymmetry on the stored table: [b_i, b_j] = -[b_j, b_i], [b_i, b_i] = 0
        for i in range(self.dim):
            # column j of _adb[i] is [b_i, b_j], row j of _adb[:, :, i] is [b_j, b_i]
            bad = (self._adb[i] != f.varr_neg(self._adb[:, :, i].T)).any(axis=0)
            if bad.any():
                raise PreconditionError(
                    f"bracket table is not antisymmetric at ({i},{np.flatnonzero(bad)[0]})")
            if self._adb[i][:, i].any():
                raise PreconditionError(f"[b_{i}, b_{i}] != 0")
        if self.matrix_model:
            self._validate_model()
        if level == "full":
            self._validate_jacobi()
            self._validate_restricted()

    def _validate_jacobi(self):
        # given antisymmetry, the Jacobi identity on all basis triples says
        # ad([b_i, b_j]) = ad(b_i) ad(b_j) - ad(b_j) ad(b_i); column k of
        # either side is the triple (i, j, k)
        f = self.field
        for i in range(self.dim):
            lhs = self.ad(self._adb[i].T)  # row j of _adb[i].T is [b_i, b_j]
            rhs = f.varr_add(f.matmul(self._adb[i], self._adb),
                             f.varr_neg(f.matmul(self._adb, self._adb[i])))
            bad = (lhs != rhs).any(axis=1)
            if bad.any():
                j, k = np.argwhere(bad)[0]
                raise PreconditionError(f"Jacobi fails on basis triple ({i},{j},{k})")

    def _validate_restricted(self):
        # ad(b_i^[p]) == ad(b_i)^p as matrices; ad(b_i) is _adb[i]
        lhs = self.ad(self._pmap)
        rhs = self.field.matpow(self._adb, self.field.p)
        for i in range(self.dim):
            if (lhs[i] != rhs[i]).any():
                raise PreconditionError(f"restrictedness fails: ad(b_{i}^[p]) != ad(b_{i})^p")

    def _validate_model(self):
        f, solver = self.field, self._coord_solver
        for i, (coords, inside) in enumerate(solver.commutator_rows()):
            bad = ~inside | (coords != self._adb[i].T).any(axis=1)  # row j: [b_i, b_j]
            if bad.any():
                raise PreconditionError(
                    f"model commutator disagrees with table at ({i},{np.flatnonzero(bad)[0]})")
        powers, inside = solver.solve_rows(f.matpow(self._model, f.p).reshape(self.dim, -1))
        bad = ~inside | (powers != self._pmap).any(axis=1)
        if bad.any():
            raise PreconditionError(f"model p-th power disagrees with p-map at {np.flatnonzero(bad)[0]}")

    # -- element enumeration ----------------------------------------------------

    def element_count(self) -> int:
        return self.field.q ** self.dim

    def iter_elements(self):
        return itertools.product(range(self.field.q), repeat=self.dim)

    def __repr__(self):
        return f"RestrictedLieAlgebra(dim={self.dim}, field={self.field!r})"


class _CoordSolver:
    """Precomputed elimination expressing matrices in a fixed matrix basis.

    Row-reducing [B | I], with the raveled basis matrices as the columns of B,
    gives E with E @ vec(m) = (coordinates of m, residual); m lies in the span
    exactly when the residual is zero.
    """

    def __init__(self, field, basis_mats):
        self.field = field
        self.mats = list(basis_mats)
        self.dim = len(self.mats)
        self.model = np.stack([m.a for m in self.mats])
        b = self.model.reshape(self.dim, -1).T  # n2 x dim
        aug = np.concatenate([b, np.eye(b.shape[0], dtype=np.int64)], axis=1)
        r, pivots, _ = _rref(field, aug[None])
        if not pivots[0, : self.dim].all():
            raise PreconditionError("matrix model basis is linearly dependent")
        self._e_t = r[0, :, self.dim:].T

    def solve_rows(self, flat):
        """(coordinates, inside span) for raveled matrices, one per row of flat."""
        t = self.field.matmul(flat, self._e_t)
        return t[..., : self.dim], ~t[..., self.dim:].any(axis=-1)

    def solve(self, m: Mat) -> Optional[Vec]:
        coords, inside = self.solve_rows(m.a.ravel())
        return tuple(coords.tolist()) if inside else None

    def commutator_rows(self):
        """For each i, solve_rows of the commutators [m_i, m_j] of the basis
        matrices over all j."""
        f, model = self.field, self.model
        for m in model:
            comm = f.varr_add(f.matmul(m, model), f.varr_neg(f.matmul(model, m)))
            yield self.solve_rows(comm.reshape(self.dim, -1))


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def heisenberg(n: int, field: FieldSpec) -> RestrictedLieAlgebra:
    """Heisenberg algebra of dimension 2n+1: [x_i, y_i] = z, p-map zero (p >= 3)."""
    if field.p < 3:
        raise PreconditionError("the Heisenberg construction requires p >= 3")
    if n < 1:
        raise PreconditionError("n must be >= 1")
    dim = 2 * n + 1
    one = field.one
    brackets = {}
    for i in range(n):
        brackets[(i, n + i)] = {2 * n: one}
        brackets[(n + i, i)] = {2 * n: field.neg(one)}
    labels = [f"x{i+1}" for i in range(n)] + [f"y{i+1}" for i in range(n)] + ["z"]
    pmap = [(0,) * dim] * dim
    return RestrictedLieAlgebra(field, brackets, pmap, labels=labels, validate="full")


def abelian_p_trivial(dim: int, field: FieldSpec) -> RestrictedLieAlgebra:
    return RestrictedLieAlgebra(field, {}, [(0,) * dim] * dim, validate="full")


def toral(dim: int, field: FieldSpec) -> RestrictedLieAlgebra:
    """Abelian with b_i^[p] = b_i; its restricted nullcone is {0}."""
    pmap = []
    for i in range(dim):
        row = [0] * dim
        row[i] = field.one
        pmap.append(tuple(row))
    return RestrictedLieAlgebra(field, {}, pmap, validate="full")


def from_matrix_basis(field: FieldSpec, mats, labels=None) -> RestrictedLieAlgebra:
    """Algebra spanned by commutator-closed, p-power-closed matrices."""
    solver = _CoordSolver(field, mats)
    brackets = {}
    for i, (coords, inside) in enumerate(solver.commutator_rows()):
        if not inside.all():
            raise PreconditionError("matrix span is not closed under commutators")
        for j in np.flatnonzero(coords.any(axis=1)).tolist():
            brackets[(i, j)] = {k: c for k, c in enumerate(coords[j].tolist()) if c}
    pmap, inside = solver.solve_rows(field.matpow(solver.model, field.p).reshape(solver.dim, -1))
    if not inside.all():
        raise PreconditionError("matrix span is not closed under p-th powers")
    # the tables are this solve: checking the model against them would repeat it
    g = RestrictedLieAlgebra(field, brackets, pmap.tolist(), labels=labels, validate="none")
    g._set_model(solver)
    return g


@functools.lru_cache(maxsize=None)
def special_linear(n: int, field: FieldSpec) -> RestrictedLieAlgebra:
    """sl_n as a restricted matrix algebra: basis E_ij (i != j) then h_i = E_ii - E_(i+1)(i+1)."""
    if n < 2:
        raise PreconditionError("n must be >= 2")
    one = field.one
    mats = []
    labels = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            m = np.zeros((n, n), dtype=np.int64)
            m[i, j] = one
            mats.append(Mat(field, m))
            labels.append(f"E{i}{j}")
    for i in range(n - 1):
        m = np.zeros((n, n), dtype=np.int64)
        m[i, i] = one
        m[i + 1, i + 1] = field.neg(one)
        mats.append(Mat(field, m))
        labels.append(f"h{i+1}")
    return from_matrix_basis(field, mats, labels=labels)


# ---------------------------------------------------------------------------
# nullcone, centralizers, elementary subalgebras
# ---------------------------------------------------------------------------

def nullcone(g: RestrictedLieAlgebra, budget: int = DEFAULT_BUDGET):
    """All x with x^[p] = 0, in lexicographic coordinate order (zero first)."""
    total = g.element_count()
    if total > budget:
        raise BudgetError(
            f"nullcone needs {total} points > budget {budget}; use srk_sampled for a non-certified bound")
    _, vecs = _nilpotent_span(g, np.eye(g.dim, dtype=np.int64))
    # _CHUNK rows at a time: no list-of-lists copy of the whole array
    return [t for s in range(0, len(vecs), _CHUNK) for t in map(tuple, vecs[s:s + _CHUNK].tolist())]


_CHUNK = 1 << 11  # combinations per batch; bounds the p-th power temporaries


def _nilpotent_span(g: RestrictedLieAlgebra, basis):
    """The F_q-combinations of the rows of basis whose p-th power is zero.

    Combination number r has coefficients _digits(r), so ascending r is
    lexicographic coefficient order.  Returns (codes, vecs): the ascending
    numbers r of the p-nilpotent combinations, zero first, and those
    combinations in g's coordinates.  (cx)^[p] = c^p x^[p], so the p-th
    power is taken once per line, on the _line_codes combinations in batches
    of _CHUNK, and each p-nilpotent one is expanded by the q - 1 nonzero
    scalars.
    """
    f, d = g.field, len(basis)
    place = _place_values(f.q, d)
    codes, vecs = [np.zeros(1, dtype=np.int64)], [np.zeros((1, basis.shape[1]), dtype=np.int64)]
    for r in _line_codes(f.q, d):
        v = _combinations(f, r, basis)
        nil = ~g._pmap_rows(v).any(axis=1)
        digits, v = _digits(r[nil], f.q, d), v[nil]
        for c in range(1, f.q):
            codes.append(f.varr_scale(c, digits) @ place)
            vecs.append(f.varr_scale(c, v))
    codes, vecs = np.concatenate(codes), np.concatenate(vecs)  # drops the pieces
    order = np.argsort(codes)
    return codes[order], vecs[order]


def _code_chunks(total):
    """0, 1, ..., total - 1 as ascending arrays of at most _CHUNK codes."""
    for start in range(0, total, _CHUNK):
        yield np.arange(start, min(start + _CHUNK, total), dtype=np.int64)


def _line_codes(q, d):
    """The codes whose digit vectors have first nonzero digit 1, one per line
    of F_q^d, as ascending arrays of at most _CHUNK codes.  They serve the
    nullcone (_nilpotent_span) and the span closures of the commuting masks.

    They fill the ranges [q**t, 2 q**t) for t < d; entry i of the listing
    lies in range t with (q**t - 1) / (q - 1) <= i.
    """
    offsets = (q ** np.arange(d, dtype=np.int64) - 1) // (q - 1)
    for i in _code_chunks((q ** d - 1) // (q - 1)):
        t = np.searchsorted(offsets, i, side="right") - 1
        yield q ** t + i - offsets[t]


def _place_values(q, d):
    """q**(d-1), ..., q, 1: a digit vector's dot product with these is its code."""
    return q ** np.arange(d - 1, -1, -1, dtype=np.int64)


def _digits(codes, q, d):
    """The length-d base-q digit vectors (most significant first) of codes."""
    return (codes[:, None] // _place_values(q, d)) % q


def _combinations(f, codes, basis):
    """The combinations of the rows of basis with coefficient vectors _digits(codes)."""
    return f.matmul(_digits(codes, f.q, len(basis)), basis)


def centralizer(g: RestrictedLieAlgebra, x: Vec):
    """Basis of ker(ad x) as coordinate tuples."""
    from .fields import mat_kernel_basis
    return mat_kernel_basis(Mat(g.field, g.ad(x)))


def is_elementary(g: RestrictedLieAlgebra, basis) -> bool:
    """Independent, pairwise commuting, p-map zero."""
    basis = [tuple(v) for v in basis]
    if not basis:
        return True
    from .fields import mat_rank
    if mat_rank(Mat(g.field, np.array(basis, dtype=np.int64))) != len(basis):
        return False
    for i, u in enumerate(basis):
        for v in basis[i + 1:]:
            if not _vec_is_zero(g.bracket(u, v)):
                return False
    return all(_vec_is_zero(g.pmap_eval(v)) for v in basis)


@dataclass(frozen=True)
class ElementarySubalgebra:
    rank: int
    basis: tuple  # tuple of coordinate tuples


@dataclass(frozen=True)
class CommutingTuple:
    entries: tuple
    independent: bool

    @classmethod
    def of(cls, g: RestrictedLieAlgebra, entries):
        from .fields import mat_rank
        entries = tuple(tuple(v) for v in entries)
        for u in entries:
            if not _vec_is_zero(g.pmap_eval(u)):
                raise PreconditionError("tuple entry outside the restricted nullcone")
        for i, u in enumerate(entries):
            for v in entries[i + 1:]:
                if not _vec_is_zero(g.bracket(u, v)):
                    raise PreconditionError("tuple entries do not commute")
        indep = mat_rank(Mat(g.field, np.array(entries, dtype=np.int64))) == len(entries)
        return cls(entries=entries, independent=indep)


# ---------------------------------------------------------------------------
# local rank search
# ---------------------------------------------------------------------------

class _TupleSearch:
    """Local ranks and witnesses over a fixed projective point set.

    Points are projective classes of p-nilpotent elements inside a subspace
    of g with basis rows `basis` (d x dim): the identity for srk_brute, the
    centralizer basis for local_rank.  Row i of coords holds class i's
    coordinates in that basis and row i of points (n x dim) the same vector
    in g's coordinates.  A coordinate vector's code is its dot product with
    q**(d-1), ..., q, 1, and _table sends the code of every nonzero multiple
    of class i to i and every other code to n.  commuting[i] is the bitmask
    of the classes in ker(ad(points[i]) . basis^T), built batch by batch in
    _commuting_masks.  cliques holds (rank, bitmask) for each maximal clique
    of the commuting graph, a maximal elementary subalgebra, and ranks[i] is
    the largest rank of a clique through class i, that is r(points[i]).
    """

    def __init__(self, g: RestrictedLieAlgebra, coords, basis):
        self.g = g
        self.f = f = g.field
        self.n = len(coords)
        self.basis = basis
        self.coords = coords
        self.points = f.matmul(coords, basis)
        d = len(basis)
        scalars = np.arange(1, f.q, dtype=np.int64)
        multiples = f.varr_mul(scalars[:, None, None], coords[None])  # [c - 1, i] = c * coords[i]
        self._place = _place_values(f.q, d)
        self._table = np.full(f.q ** d, self.n, dtype=np.int32)  # n: no class
        self._table[multiples @ self._place] = np.arange(self.n, dtype=np.int32)
        self.commuting = self._commuting_masks()
        # a maximal clique of rank r has (q**r - 1) / (q - 1) classes
        rank_of = {(f.q ** r - 1) // (f.q - 1): r for r in range(d + 1)}
        self.cliques = [(rank_of[c.bit_count()], c) for c in _maximal_cliques(self.commuting)]
        self.ranks = [0] * self.n
        for r, c in self.cliques:
            for i in _bits(c):
                self.ranks[i] = max(self.ranks[i], r)

    def _commuting_masks(self):
        """commuting[i] for every class i, batch by batch.

        A batch of classes takes one stacked product ad(u) . basis^T and one
        stacked elimination for all its u; the kernels of equal dimension
        then go through _span_masks together.
        """
        f, g, d = self.f, self.g, len(self.basis)
        step = max(1, (_CHUNK << 2) // (g.dim * d))  # (step, dim, d) stacks: <= 4 * _CHUNK codes
        masks = []
        for start in range(0, self.n, step):
            points = self.points[start:start + step]
            vectors, free = _kernels(f, f.matmul(g.ad(points), self.basis.T))
            dims = free.sum(axis=1)
            batch = [0] * len(dims)
            for k in np.flatnonzero(np.bincount(dims)).tolist():
                rows = np.flatnonzero(dims == k)
                kernels = vectors[rows][free[rows]].reshape(len(rows), k, d)
                for i, mask in zip(rows.tolist(), self._span_masks(kernels)):
                    batch[i] = mask
            masks += batch
        return masks

    def _span_mask(self, vectors):
        """Bitmask of the classes in the span of coordinate vectors."""
        return self._span_masks(np.array(vectors, dtype=np.int64)[None])[0]

    def _span_masks(self, kernels):
        """Bitmasks of the classes in the span of the rows of each kernels[s] (k x d).

        The table sends every nonzero multiple of a class to it, so one vector
        per line of the span is enough: the combinations whose first nonzero
        coefficient is 1.  A batch holds at most _CHUNK span vectors and at
        most about 128 * _CHUNK mask bits, so neither q**k nor the class count
        sets the memory taken.
        """
        f = self.f
        count, k, _ = kernels.shape
        lines = (f.q ** k - 1) // (f.q - 1)
        size = max(1, _CHUNK // max(min(lines, _CHUNK), (self.n >> 7) + 1))
        masks = []
        for start in range(0, count, size):
            part = kernels[start:start + size]
            bits = [0] * len(part)
            for r in _line_codes(f.q, k):
                vecs = f.matmul(_digits(r, f.q, k), part)
                bits = [a | b for a, b in zip(bits, self._masks_of(vecs))]
            masks += bits
        return masks

    def _masks_of(self, vecs):
        """Bitmasks of the classes among the coordinate rows of each vecs[s]."""
        bits = np.zeros((len(vecs), self.n + 1), dtype=bool)
        bits[np.arange(len(vecs))[:, None], self._table[vecs @ self._place]] = True
        packed = np.packbits(bits[:, :-1], axis=1, bitorder="little")
        data, w = packed.tobytes(), packed.shape[1]
        return [int.from_bytes(data[i * w:(i + 1) * w], "little") for i in range(len(vecs))]

    def max_tuple_containing(self, xi):
        """(r, witness, True) for r = ranks[xi].  The witness is the least,
        in class index order, of the greedy bases of the rank-r cliques
        through class xi: the pivot columns of the matrix whose columns are
        class xi and the clique's classes in ascending order.  That is the
        least maximal commuting tuple through xi, as points.  The cliques all
        have (q**r - 1) / (q - 1) classes, so one stacked elimination serves
        a batch of them, with a running minimum across batches.  The constant
        third entry keeps the (r, witness, exhausted) shape that
        bench/layers.py reads.
        """
        r, q = self.ranks[xi], self.f.q
        through = [c for rank, c in self.cliques if rank == r and c >> xi & 1]
        # classes ahead of the last pick lie in the span of x and the other
        # picks, which has (q**(r-1) - 1) / (q - 1) classes: only the first
        # head classes of a clique can be picked
        head = (q ** (r - 1) - 1) // (q - 1) + 1
        step = max(1, (_CHUNK << 2) // (len(self.basis) * (head + 1)))  # <= 4 * _CHUNK entries
        best = None
        for start in range(0, len(through), step):
            members = np.array([list(itertools.islice(_bits(c), head))
                                for c in through[start:start + step]], dtype=np.int64)
            cols = np.concatenate([np.full((len(members), 1), xi), members], axis=1)
            _, pivots, _ = _rref(self.f, np.swapaxes(self.coords[cols], 1, 2))
            # column 0 is a pivot of every slice, and r - 1 columns follow it
            picks = np.nonzero(pivots[:, 1:])[1].reshape(len(members), r - 1)
            least = min(np.take_along_axis(members, picks, axis=1).tolist())
            best = least if best is None else min(best, least)
        return r, [tuple(v) for v in self.points[[xi] + best].tolist()], True


class LocalRank(NamedTuple):
    rank: int
    witness: ElementarySubalgebra


def _projective_reps(f, vecs):
    """Rows of vecs whose first nonzero coordinate is 1, in lexicographic order.

    vecs must be closed under F_q^x scaling (a nullcone is), so these rows
    are exactly one representative per projective class.
    """
    lead = vecs[np.arange(len(vecs)), (vecs != 0).argmax(axis=1)]
    rows = np.nonzero(lead == f.one)[0]
    return rows[np.lexsort(vecs[rows].T[::-1])]


def local_rank(g: RestrictedLieAlgebra, x: Vec, budget: int = DEFAULT_BUDGET) -> LocalRank:
    """Largest elementary-subalgebra dimension at x, with a witness containing x.

    The cliques run over the nullcone of the centralizer z(x); x commutes
    with all of it, so every maximal clique there contains x.
    """
    x = tuple(x)
    if _vec_is_zero(x):
        raise PreconditionError("local rank is defined for nonzero nullcone points")
    if not _vec_is_zero(g.pmap_eval(x)):
        raise PreconditionError("x is outside the restricted nullcone")
    f = g.field
    zbasis = centralizer(g, x)
    d = len(zbasis)
    if f.q ** d > budget:
        raise BudgetError(f"centralizer has {f.q ** d} points > budget {budget}")
    basis = np.array(zbasis, dtype=np.int64)
    codes, vecs = _nilpotent_span(g, basis)
    rows = _projective_reps(f, vecs)
    search = _TupleSearch(g, _digits(codes[rows], f.q, d), basis)
    xi = int(search._table[codes[(vecs == x).all(axis=1)][0]])
    r, witness, _ = search.max_tuple_containing(xi)
    witness[0] = x  # report the caller's point, not its projective representative
    return LocalRank(rank=r, witness=ElementarySubalgebra(rank=r, basis=tuple(witness)))


class SrkBrute(NamedTuple):
    srk: int
    r_min: int
    o_rmin_count: int
    o_rmin: tuple       # all nonzero nullcone points of minimal local rank, sorted
    witness: Optional[ElementarySubalgebra]
    note: str


def srk_brute(g: RestrictedLieAlgebra, budget: int = DEFAULT_BUDGET) -> SrkBrute:
    """Exact saturation rank by exhausting the restricted nullcone.

    Local ranks are scalar-invariant, so they are found per projective class
    and expanded back to points.  Every class's local rank comes from one
    enumeration of the maximal cliques (_TupleSearch.ranks); the witness is
    the least maximal tuple through the least class of minimal rank.
    """
    points = nullcone(g, budget=budget)
    if len(points) == 1:  # just 0
        return SrkBrute(srk=0, r_min=0, o_rmin_count=0, o_rmin=(),
                        witness=None, note="restricted nullcone is {0}; srk reported as 0")
    vecs = np.array(points, dtype=np.int64)
    rows = _projective_reps(g.field, vecs)
    search = _TupleSearch(g, vecs[rows], np.eye(g.dim, dtype=np.int64))
    m = min(search.ranks)
    # the points come in lexicographic order; code 0 has no class, rank -1
    keep = np.array(search.ranks + [-1])[search._table[vecs @ search._place]] == m
    o_rmin = tuple(itertools.compress(points, keep.tolist()))
    _, wit, _ = search.max_tuple_containing(search.ranks.index(m))
    witness = ElementarySubalgebra(rank=m, basis=tuple(wit))
    return SrkBrute(srk=m, r_min=m, o_rmin_count=len(o_rmin), o_rmin=o_rmin,
                    witness=witness, note="")


class SampledBound(NamedTuple):
    srk_upper_bound: int
    certified: bool
    samples: int


def srk_sampled(g: RestrictedLieAlgebra, samples: int = 32, seed: int = 0,
                budget: int = DEFAULT_BUDGET) -> SampledBound:
    """Non-certified bound: min of exact local ranks over sampled nullcone points.

    Each sampled local rank is >= srk(g), so the reported minimum is an upper
    bound for the saturation rank, not a certificate.
    """
    rng = random.Random(seed)
    f = g.field
    best = None
    found = 0
    attempts = 0
    while found < samples and attempts < 1000 * samples:
        attempts += 1
        x = tuple(rng.randrange(f.q) for _ in range(g.dim))
        if _vec_is_zero(x) or not _vec_is_zero(g.pmap_eval(x)):
            continue
        found += 1
        r = local_rank(g, x, budget=budget).rank
        if best is None or r < best:
            best = r
    if best is None:
        raise PreconditionError("no nonzero nullcone point found by sampling")
    return SampledBound(srk_upper_bound=best, certified=False, samples=found)


# ---------------------------------------------------------------------------
# JSON interface
# ---------------------------------------------------------------------------

def _coeff(field, payload):
    """A coefficient: an integer mod p, or the list of a residue's digits."""
    if isinstance(payload, list):
        digits = [expect(c, int, "coefficient digit") for c in payload]
        return field.from_coeffs(digits + [0] * (field.k - len(digits)))
    return field.from_int(expect(payload, int, "coefficient"))


def load_lie(data, budget: Optional[int] = None) -> RestrictedLieAlgebra:
    """Parse the structure-constant JSON schema into an algebra.

    p, k, dim, every index and every coefficient must be JSON integers (a
    coefficient may also be a list of integer digits), labels a list of
    strings, and matrix_model a list of flat square matrices of one size;
    anything else raises PreconditionError.  With a budget, an algebra of
    more than budget elements raises BudgetError before any table is built.
    """
    if isinstance(data, str):
        with open(data) as fp:
            data = json.load(fp)
    data = expect(data, dict, "Lie algebra input")
    try:
        p = expect(data["p"], int, "p")
        k = expect(data.get("k", 1), int, "k")
        dim = expect(data["dim"], int, "dim")
        if dim < 1:
            raise PreconditionError(f"dim must be >= 1, got {dim}")
        from .fields import field_make
        field = field_make(p, k)
        if budget is not None and (dim >= budget.bit_length() or field.q ** dim > budget):
            raise BudgetError(f"the algebra has {field.q}**{dim} elements > budget {budget}")

        def index(entry, key):
            i = expect(entry[key], int, f"index {key}")
            if not 0 <= i < dim:
                raise PreconditionError(f"index {key}={i} outside [0, {dim})")
            return i

        def entries(container, key, what):
            return [expect(e, dict, what) for e in expect(container.get(key, []), list, key)]

        labels = data.get("labels")
        if labels is not None:
            labels = [expect(label, str, "label") for label in expect(labels, list, "labels")]
        declared = {}
        for entry in entries(data, "brackets", "bracket entry"):
            i, j = index(entry, "i"), index(entry, "j")
            declared[(i, j)] = {index(t, "k"): _coeff(field, t["c"])
                                for t in entries(entry, "out", "bracket term")}
        brackets = dict(declared)
        for (i, j), out in declared.items():
            if (j, i) not in declared:
                brackets[(j, i)] = {kk: field.neg(c) for kk, c in out.items()}
        pmap = [(0,) * dim for _ in range(dim)]
        for entry in entries(data, "pmap", "pmap entry"):
            i = index(entry, "i")
            row = [0] * dim
            for t in entries(entry, "out", "pmap term"):
                row[index(t, "k")] = _coeff(field, t["c"])
            pmap[i] = tuple(row)
        model = None
        if data.get("matrix_model"):
            flats = [expect(flat, list, "model matrix")
                     for flat in expect(data["matrix_model"], list, "matrix_model")]
            if len({len(flat) for flat in flats}) != 1:
                raise PreconditionError("matrix model matrices must all have one size")
            n = math.isqrt(len(flats[0]))
            if n * n != len(flats[0]):
                raise PreconditionError("matrix model entries must form square matrices")
            model = [Mat(field, np.array([_coeff(field, e) for e in flat],
                                         dtype=np.int64).reshape(n, n)) for flat in flats]
    except KeyError as exc:
        raise PreconditionError(f"malformed Lie algebra input: missing key {exc}")
    return RestrictedLieAlgebra(field, brackets, pmap, labels=labels,
                                matrix_model=model, validate="full")


def lie_report(g: RestrictedLieAlgebra, budget: int = DEFAULT_BUDGET) -> dict:
    res = srk_brute(g, budget=budget)
    report = {
        "srk": res.srk,
        "r_min": res.r_min,
        "o_rmin_count": res.o_rmin_count,
        "witnesses": [] if res.witness is None else
            [[list(g.field.coeffs(c)) for c in v] for v in res.witness.basis],
    }
    if res.note:
        report["note"] = res.note
    return report
