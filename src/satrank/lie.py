"""Restricted Lie algebras by structure constants and p-map.

An algebra of dimension n over F_q keeps, per basis pair, the bracket
coordinates [b_i, b_j] and, per basis vector, the p-map image b_i^[p]; an
optional matrix model realizes the basis inside gl_m and must agree with both
tables.  Elements are coordinate tuples of field codes.  A point set, such
as the nullcone, is one ascending int64 array of codes, a point's code being
its coordinates read as base-q digits, most significant first; point_rows
expands codes to coordinate rows where a caller reads coordinates (the
classes of a search, a witness, srk_brute's o_rmin).

x^[p] is evaluated for a whole array of elements at once.  Matrix models take
the batched p-th matrix power and solve back to coordinates; otherwise
Jacobson's formula folds the coordinate expansion pairwise, reading the
correction terms s_i(x, y) off as t-coefficients of (ad(tx+y))^(p-1)(x) over
g[t].  All field arithmetic, batched or not, goes through satrank.fields.

The saturation rank machinery works over the restricted nullcone
V(g) = {x : x^[p] = 0}, a cone since (cx)^[p] = c^p x^[p].  _nilpotent_span
takes at most one p-th power per line, and only where sigma_2, the sum of
the principal 2 x 2 minors of the line's model matrix X (else of ad(x)),
vanishes, as it does on every nilpotent matrix; with a model the power is
read as X^p = 0.
The local rank r(x) is the largest dimension of an elementary subalgebra
through x, and srk(g) is the minimum of the local ranks over nonzero
nullcone points.  Pairwise commuting p-nilpotent vectors span an elementary
subalgebra (the Jacobson terms of a sum are iterated brackets), so the
maximal cliques of the commuting graph on projective nullcone classes are
exactly the maximal elementary subalgebras, and a clique of
(q^r - 1)/(q - 1) classes has rank r.  One enumeration (satrank.cliques,
shared with satrank.groups) gives r(x) for every class at once.

The graph lives on integer coordinates of a coordinate subspace F_q^d of
the searched algebra (span B below).  The callers' budget checks bound
q^dim, so a dense table with one entry per coordinate code, in the least
unsigned dtype that holds the class count, maps every nonzero scalar
multiple of a class to the class index.  The classes
commuting with u are the span closure of ker ad(u), built for a batch of
classes at a time (_TupleSearch._build_masks).  A witness is the least
basis of a maximal-rank subalgebra through the point, picked greedily
against the maximal cliques through the picks (max_tuple_containing).

Every maximal elementary subalgebra holds the central elementary ideal
C = {x central : x^[p] = 0} (_central_elementary): adding C keeps a subalgebra
abelian and p-nilpotent.  With B the standard basis vectors off C's pivot
columns, g = span B + C, and (b + c)^[p] = b^[p], [b + c, b' + c'] = [b, b'].
So the nullcone is (V(g) n span B) + C, the maximal elementary subalgebras
are W + C for the maximal cliques W on the classes of V(g) n span B, and
srk_brute searches that graph only: r(b + c) = dim C + r_B(b) for b != 0.
_nullcone adds C once, giving each point's b as an index into V(g) n span B,
held in B-codes (coordinates in B read in base q) that give the classes.
local_rank runs the same search on the centralizer z(x) (r(x) = T(z(x)),
_subalgebra).  Local rank is invariant under automorphisms of (g, [p]), so
srk_brute needs it at one class per orbit of the verified automorphisms
(_automorphisms); the clique search starts from the orbit roots only.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .cliques import _bits, _maximal_cliques, _orbit_labels
from .errors import BudgetError, PreconditionError, expect, expect_each
from .fields import FieldSpec, Mat, _kernels, _rref, field_make, mat_kernel_basis

DEFAULT_BUDGET = 10_000_000
# commutator entries per block of _commutator_blocks.  Small blocks
# keep the temporaries small and FieldSpec._reduce on its libdivide path:
# twelve cold sl_n tensor builds (n <= 7) took 9.4, 8.7, 9.4, 11.1 and
# 11.8 ms in blocks of 2**13, 2**14, 2**15 and 2**16 entries and unblocked
# (2-vCPU VM).
_COMMUTATOR_BLOCK = 1 << 14

Vec = tuple


class RestrictedLieAlgebra:
    """Basis-indexed bracket table, p-map, and optional matrix model.

    brackets maps (i, j) to {k: c} with [b_i, b_j] = sum_k c b_k; pmap lists
    the coordinates of b_i^[p].  Coefficients are field codes (use
    field.neg/from_int rather than raw negative ints over extension fields).
    validate="full" runs validate(); "none" skips it, for tables that are
    right by construction.  An algebra made with a matrix model but no ad
    tensor (special_linear) solves the tensor from the model on first read
    of _adb and keeps it, with which commutators lie in the model's span,
    so that validate() does not solve them again.
    """

    def __init__(self, field: FieldSpec, brackets, pmap, labels=None,
                 matrix_model=None, validate="full"):
        dim = len(pmap)
        # the ad tensor: adb[i][:, j] holds the coordinates of [b_i, b_j]
        terms = [(i, j, k, c) for (i, j), out in brackets.items() for k, c in out.items()]
        i, j, k, c = _int64(terms, "bracket term (i, j, k, c)").reshape(-1, 4).T
        self._init(field, _scatter(dim, (i, k, j), c % field.q),
                   _int64(pmap, "p-map entry {}").reshape(dim, dim) % field.q, labels,
                   matrix_model and _CoordSolver(field, matrix_model))
        if validate == "full":
            self.validate()
        elif validate != "none":
            raise PreconditionError(f"validate must be 'full' or 'none', got {validate!r}")

    @classmethod
    def _from_arrays(cls, field, adb, pmap, labels=None, solver=None):
        """The algebra with ad tensor adb (adb[i][:, j] the coordinates of
        [b_i, b_j]), p-map rows pmap and, when given, the matrix model of the
        _CoordSolver solver, all as reduced code arrays.  adb may be None
        when a solver is given: _adb is then its commutators, on first read.
        Nothing is validated."""
        g = cls.__new__(cls)
        g._init(field, adb, pmap, labels, solver)
        return g

    def _init(self, field, adb, pmap, labels, solver=None):
        self.field = field
        self.dim = len(pmap)
        self.labels = list(labels) if labels else [f"b{i}" for i in range(self.dim)]
        if len(self.labels) != self.dim:
            raise PreconditionError("label count must match dimension")
        if adb is not None:
            self._adb = np.ascontiguousarray(adb)
        self._solved_inside = None  # set when _adb is solved from the model
        self._pmap = np.ascontiguousarray(pmap)  # not a view that keeps a solve's array alive
        self.pmap = list(map(tuple, pmap.tolist()))
        self._central = None  # _central_elementary's basis, once asked for
        self._form = None  # _trace_form's Gram matrix, once asked for
        self._cone = None  # the last nullcone's _nullcone
        self.matrix_model = self._coord_solver = None
        if solver:
            if solver.dim != self.dim:
                raise PreconditionError("matrix model must have one matrix per basis vector")
            self.matrix_model, self._coord_solver, self._model = solver.mats, solver, solver.model

    @functools.cached_property
    def _adb(self):
        adb, self._solved_inside = self._coord_solver.commutators()
        return adb

    # -- structure access ----------------------------------------------------

    def ad(self, x) -> np.ndarray:
        """Matrix of ad(x) on the basis, as a code array; x may be a stack of rows."""
        x = np.asarray(x, dtype=np.int64)
        ad = self.field.matmul(x, self._adb.reshape(self.dim, self.dim * self.dim))
        return ad.reshape(x.shape[:-1] + (self.dim, self.dim))

    def bracket(self, x: Vec, y: Vec) -> Vec:
        # sum_i x_i ad(b_i)(y): contract y against the tensor first, then x
        f = self.field
        return tuple(f.matmul(x, f.matmul(self._adb, y)).tolist())

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
            powers = f.matpow(self._matrices(x), p).reshape(len(x), self._model[0].size)
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

    def validate(self):
        """Antisymmetry, then the matrix model against the tables when there
        is one, else the Jacobi identity and restrictedness.

        A model that passes implies both: its basis is independent
        (_CoordSolver), so the table bracket is the commutator of gl_m pulled
        back through an injective linear map, and ad(X^p) = ad(X)^p in
        characteristic p (ad X = L_X - R_X, and L_X, R_X commute), which is
        restrictedness (Jacobson, Lie Algebras, ch. V)."""
        # on the stored table, bad[i, j] for [b_i, b_j] != -[b_j, b_i] and
        # bad[i, dim] for [b_i, b_i] != 0, which p = 2 does not exclude
        adb = self._adb  # adb[i][:, j] is [b_i, b_j]
        bad = np.column_stack([(adb != self.field.varr_neg(adb.transpose(2, 1, 0))).any(axis=1),
                               np.diagonal(adb, axis1=0, axis2=2).any(axis=0)])
        for i, j in np.argwhere(bad)[:1]:  # the first in row-major order
            if j < self.dim:
                raise PreconditionError(f"bracket table is not antisymmetric at ({i},{j})")
            raise PreconditionError(f"[b_{i}, b_{i}] != 0")
        if self.matrix_model:
            self._validate_model()
        else:
            self._validate_jacobi()
            self._validate_restricted()

    def _validate_jacobi(self):
        # given antisymmetry, the Jacobi identity on all basis triples says
        # ad([b_i, b_j]) = ad(b_i) ad(b_j) - ad(b_j) ad(b_i), and column k of
        # either side is the triple (i, j, k)
        for start, comm in _commutator_blocks(self.field, self._adb):
            lhs = self.ad(np.swapaxes(self._adb[start:start + len(comm)], 1, 2))
            bad = (lhs != comm).any(axis=2)  # [i, j, k]
            if bad.any():
                i, j, k = np.argwhere(bad)[0]
                raise PreconditionError(f"Jacobi fails on basis triple ({start + i},{j},{k})")

    def _validate_restricted(self):
        # ad(b_i^[p]) == ad(b_i)^p as matrices; ad(b_i) is _adb[i]
        bad = (self.ad(self._pmap) != self.field.matpow(self._adb, self.field.p)).any(axis=(1, 2))
        for i in np.flatnonzero(bad)[:1]:
            raise PreconditionError(f"restrictedness fails: ad(b_{i}^[p]) != ad(b_{i})^p")

    def _validate_model(self):
        f, solver = self.field, self._coord_solver
        adb = self._adb
        if self._solved_inside is None:  # given tables: solve the model against them
            commutators, inside = solver.commutators()
            bad = ~inside | (commutators != adb).any(axis=1)  # bad[i, j]: at [b_i, b_j]
        else:  # adb is the model's own solve: only its closure is left to check
            bad = ~self._solved_inside
        if bad.any():
            i, j = np.argwhere(bad)[0]  # the first in row-major order
            raise PreconditionError(f"model commutator disagrees with table at ({i},{j})")
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

    Row-reducing [B | I_d], with the d raveled basis matrices (N entries
    each) as the rows of B, gives R = E . B in RREF with pivot columns P and
    R[:, P] = I.  A raveled matrix m lies in the span exactly when
    m = m[P] . R, and then its coordinates are m[P] . E; the residual
    m - m[P] . R is zero on P, so only its other columns are checked.  One
    d x N matrix [E | -R[:, rest]] gives both from the d entries m[P]:
    coordinates in its first d columns, the residual less m[rest] after
    them.  The elimination takes d pivot steps, not N.
    """

    def __init__(self, field, basis_mats):
        self.field = field
        self.mats = list(basis_mats)
        self.dim = d = len(self.mats)
        self.model = np.stack([m.a for m in self.mats])
        b = self.model.reshape(d, -1)
        n = b.shape[1]
        r, pivots = _rref(field, np.concatenate([b, np.eye(d, dtype=np.int64)], axis=1)[None])
        if pivots[0, :n].sum() != d:
            raise PreconditionError("matrix model basis is linearly dependent")
        self._pcs, self._rest = np.flatnonzero(pivots[0, :n]), np.flatnonzero(~pivots[0, :n])
        self._e_t = np.concatenate([r[0, :, n:], field.varr_neg(r[0][:, self._rest])], axis=1)

    def solve_rows(self, flat):
        """(coordinates, inside span) for raveled matrices, one per row of flat."""
        f = self.field
        t = f.matmul(flat[..., self._pcs], self._e_t)
        residual = f.varr_add(t[..., self.dim:], flat[..., self._rest])
        return t[..., : self.dim], ~residual.any(axis=-1)

    def solve(self, m: Mat) -> Optional[Vec]:
        coords, inside = self.solve_rows(m.a.ravel())
        return tuple(coords.tolist()) if inside else None

    def commutators(self):
        """(adb, inside) for the commutators [m_i, m_j] of the basis matrices:
        adb[i][:, j] holds the coordinates of [m_i, m_j] (the ad tensor of
        RestrictedLieAlgebra) and inside[i, j] whether it lies in the span;
        one solve_rows per block of _commutator_blocks."""
        adb = np.empty((self.dim,) * 3, dtype=np.int64)
        inside = np.empty((self.dim, self.dim), dtype=bool)
        for start, comm in _commutator_blocks(self.field, self.model):
            stop = start + len(comm)
            coords, inside[start:stop] = self.solve_rows(comm.reshape(len(comm), self.dim, -1))
            adb[start:stop] = np.swapaxes(coords, 1, 2)
        return adb, inside


def _int64(rows, entry):
    """rows as an int64 array.  Where numpy would raise OverflowError,
    PreconditionError names the first row i with a value past int64 as
    entry.format(i) and the row."""
    try:
        return np.asarray(rows, dtype=np.int64)
    except OverflowError:
        i = next(i for i, row in enumerate(rows) if not all(-2 ** 63 <= v < 2 ** 63 for v in row))
        raise PreconditionError(f"{entry.format(i)} = {tuple(rows[i])} does not fit in int64") from None


def _commutator_blocks(f, mats):
    """(start, comm) with comm[i - start, j] = m_i m_j - m_j m_i for the
    (d, n, n) stack mats, the i in blocks of at most _COMMUTATOR_BLOCK
    commutator entries, so that the temporaries stay small whatever d.  A
    block's products m_i m_j and m_j m_i are two 2-D products, of its
    matrices stacked by rows with every m_j side by side and the other way
    round."""
    d, n = len(mats), mats.shape[-1]
    rows, cols = mats.reshape(d * n, n), np.swapaxes(mats, 0, 1).reshape(n, d * n)
    step = max(1, _COMMUTATOR_BLOCK // max(1, d * n * n))
    for start in range(0, d, step):
        block = slice(start * n, (start + step) * n)
        ij = f.matmul(rows[block], cols).reshape(-1, n, d, n)  # [i, :, j]: m_i m_j
        ji = f.matmul(rows, cols[:, block]).reshape(d, n, -1, n)  # [j, :, i]: m_j m_i
        yield start, f.varr_add(ij.transpose(0, 2, 1, 3), f.varr_neg(ji.transpose(2, 0, 1, 3)))


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
    return RestrictedLieAlgebra(field, brackets, pmap, labels=labels)


def abelian_p_trivial(dim: int, field: FieldSpec) -> RestrictedLieAlgebra:
    return RestrictedLieAlgebra(field, {}, [(0,) * dim] * dim)


def toral(dim: int, field: FieldSpec) -> RestrictedLieAlgebra:
    """Abelian with b_i^[p] = b_i; its restricted nullcone is {0}."""
    return RestrictedLieAlgebra(field, {}, np.eye(dim, dtype=np.int64))


def from_matrix_basis(field: FieldSpec, mats, labels=None) -> RestrictedLieAlgebra:
    """Algebra spanned by commutator-closed, p-power-closed matrices."""
    solver = _CoordSolver(field, mats)
    adb, inside = solver.commutators()
    if not inside.all():
        raise PreconditionError("matrix span is not closed under commutators")
    return _model_algebra(field, solver, labels, adb)


def _model_algebra(field, solver, labels, adb=None):
    """The algebra of the _CoordSolver solver's matrices with ad tensor adb
    (None: solved on first read), its p-map solved here."""
    pmap, inside = solver.solve_rows(field.matpow(solver.model, field.p).reshape(solver.dim, -1))
    if not inside.all():
        raise PreconditionError("matrix span is not closed under p-th powers")
    # the tables are this solve: checking the model against them would repeat it
    return RestrictedLieAlgebra._from_arrays(field, adb, pmap, labels, solver)


def sl_coords(field: FieldSpec, mats) -> np.ndarray:
    """Coordinates in the basis of special_linear(n, field) of traceless
    matrices, for an (..., n, n) code array: the off-diagonal entries in
    row-major order, then the prefix sums of the diagonal, which are the
    coefficients of the h_i.  The last prefix sum is the trace."""
    mats = np.asarray(mats, dtype=np.int64)
    n = mats.shape[-1]
    sums = field.matmul(np.diagonal(mats, axis1=-2, axis2=-1),
                        np.triu(np.ones((n, n), dtype=np.int64)))
    if sums[..., -1].any():
        raise PreconditionError("matrix lies outside sl_n: its trace is nonzero")
    return np.concatenate([mats[..., ~np.eye(n, dtype=bool)], sums[..., :-1]], axis=-1)


def sl_matrices(n: int, field: FieldSpec, coords) -> np.ndarray:
    """The traceless matrices with the given coordinates, for an (..., n*n - 1)
    code array; the inverse of sl_coords."""
    coords = np.asarray(coords, dtype=np.int64)
    mats = np.zeros(coords.shape[:-1] + (n, n), dtype=np.int64)
    mats[..., ~np.eye(n, dtype=bool)] = coords[..., : n * n - n]
    # row i of steps is the diagonal of h_i = E_ii - E_(i+1)(i+1)
    steps = np.eye(n - 1, n, dtype=np.int64) + field.neg(1) * np.eye(n - 1, n, 1, dtype=np.int64)
    mats[..., range(n), range(n)] = field.matmul(coords[..., n * n - n:], steps)
    return mats


@functools.lru_cache(maxsize=None)
def special_linear(n: int, field: FieldSpec) -> RestrictedLieAlgebra:
    """sl_n as a restricted matrix algebra: basis E_ij (i != j) in row-major
    order, then h_i = E_ii - E_(i+1)(i+1), as sl_matrices lays them out.
    sl_n is closed under commutators, so only the d p-th powers are solved
    here; the (d, d, d) ad tensor is solved on first use (_adb)."""
    if n < 2:
        raise PreconditionError("n must be >= 2")
    mats = sl_matrices(n, field, np.eye(n * n - 1, dtype=np.int64))
    labels = ([f"E{i}{j}" for i in range(n) for j in range(n) if i != j]
              + [f"h{i+1}" for i in range(n - 1)])
    return _model_algebra(field, _CoordSolver(field, [Mat(field, m) for m in mats]), labels)


# ---------------------------------------------------------------------------
# nullcone, centralizers, elementary subalgebras
# ---------------------------------------------------------------------------

def nullcone(g: RestrictedLieAlgebra, budget: int = DEFAULT_BUDGET) -> np.ndarray:
    """All x with x^[p] = 0, as the ascending int64 array of their codes, zero
    first.  x's code is its dot product with q**(dim-1), ..., q, 1, so the
    order is lexicographic; point_rows expands codes to coordinate rows.
    PreconditionError when g's q**dim codes pass int64.  All of _nullcone is
    left in g._cone, where srk_brute and local_rank take it: they call
    nullcone by name, which bench/layers.py traces.
    """
    g._cone = _nullcone(g, budget)
    return g._cone[0]


def _nullcone(g: RestrictedLieAlgebra, budget):
    """(codes, span, part): nullcone's codes, the ascending B-codes span of
    V(g) n span B, and part[i], the index in span of the b with
    codes[i] = b + c, c in C, in the least unsigned dtype that holds len(span).

    V(g) = (V(g) n span B) + C for the central elementary ideal C and the
    standard basis vectors B off its pivot columns (_central_elementary), so
    p-th powers are taken on span B only (_nilpotent_span), and C is added
    here, one digit column of g at a time: b is zero on C's pivots, where
    the digit is c's.
    """
    total = g.element_count()
    if total > budget:
        raise BudgetError(f"nullcone needs {total} points > budget {budget}")
    if total >= 2 ** 63:
        raise PreconditionError(f"nullcone codes of {g!r}: q**dim = {total} does not fit in int64")
    f, centre = g.field, _central_elementary(g)
    keep = _off_pivots(centre)
    span = _nilpotent_span(g, keep)
    dtype = np.min_scalar_type(len(span))
    if not len(centre):
        return span, span, np.arange(len(span), dtype=dtype)
    shifts = _combinations(f, np.arange(f.q ** len(centre), dtype=np.int64), centre)
    digits = _digit_columns(span, f.q, int(keep.sum()))
    codes = 0  # [i, s]: the code of span[i] + shifts[s]
    for kept, shift in zip(keep.tolist(), shifts.T):
        codes = codes * f.q + (f.varr_add(next(digits)[:, None], shift) if kept else shift)
    part = np.argsort(codes, axis=None)
    codes = codes.ravel()
    codes.sort()  # in place: with part, two arrays of the nullcone's size
    part //= len(shifts)
    return codes, span, part.astype(dtype)


def point_rows(g: RestrictedLieAlgebra, codes) -> np.ndarray:
    """The (N, dim) int64 coordinate rows of the points of g with the given
    codes (as nullcone returns them)."""
    return _digits(np.asarray(codes, dtype=np.int64), g.field.q, g.dim)


def _central_elementary(g: RestrictedLieAlgebra) -> np.ndarray:
    """Basis rows, in RREF, of the ideal C = {x central : x^[p] = 0}; computed
    once per algebra.

    The centre is the left kernel of the bracket table, whose row i is
    ad(b_i) raveled.  On it the p-map is p-semilinear, since the Jacobson
    terms are brackets: (sum c_i z_i)^[p] = sum c_i^p z_i^[p].  So the sum
    lies in C exactly when (c_i^p) lies in the left kernel K of the matrix
    of the z_i^[p], and C is spanned by the combinations of the z_i whose
    coefficients are the Frobenius preimages c -> c^(q/p) of a basis of K.
    """
    if g._central is None:
        f = g.field
        centre = _left_kernel(f, g._adb.reshape(g.dim, g.dim * g.dim))
        if len(centre):
            twisted = f.varr_pow(_left_kernel(f, g._pmap_rows(centre)), f.q // f.p)
            centre = _rref(f, f.matmul(twisted, centre)[None])[0][0]
        g._central = centre
    return g._central


def _left_kernel(f, a):
    """Basis rows of {y : y . a = 0}."""
    vectors, free = _kernels(f, a.T[None])
    return vectors[0][free[0]]


def _off_pivots(rref):
    """The bool mask of the columns that are no pivot of the RREF rows rref."""
    nonzero = rref != 0  # a pivot is its row's first nonzero entry
    return ~(nonzero & (nonzero.cumsum(axis=1) == 1)).any(axis=0)


_CHUNK = 1 << 11  # combinations per batch; bounds the p-th power temporaries
# commuting-mask bits allowed per unit of budget: the default budget admits
# 3.2e8 bits (40 MB), sl_3/F_5's full graph takes 1.5e7 and h_7/F_3's 1.2e6
_MASK_BITS_PER_BUDGET = 32
# _TupleSearch._build_masks' cost model, in ns of a 2.1 GHz Xeon core: a row
# test per entry of its (dim, n) product, a span closure per coefficient of
# its line vectors (lines * k * d), and a stacked elimination of a (b, dim, d)
# stack as fixed + d * (per column + per entry * b * dim * d).  Fitted on
# per-batch timings of h_7/F_5, h_9/F_3, sl_4/F_3, sl_5/F_2 and the lie-ext
# inputs; with _ROW_NS at 10, sl_5/F_2's k = 12 kernels took the slower test
_ROW_NS = 4.5
_SPAN_NS = 1.3
_ELIM_NS = (100_000, 25_000, 5)
# row-test product entries per block: fields._reduce takes up to 2**15 of them
# by libdivide, and larger blocks ran slower on sl_5/F_2
_ROW_BLOCK = _CHUNK << 4


def _nilpotent_span(g: RestrictedLieAlgebra, keep):
    """The p-nilpotent vectors of span B, for B the standard basis vectors of
    g at the columns where the bool mask keep holds: the ascending int64
    array of their B-codes (read from their d entries at keep), zero first.

    Those d entries are a high half a (d - d // 2 digits) over a low half b,
    so the B-code is the sum of the codes of a and b placed at their digits.
    (cx)^[p] = c^p x^[p]: one p-th power per line at most, on the pairs with
    a = 0 and b a line representative (first nonzero digit 1), or a a line
    representative.  Those pass sigma_2 (_trace_form) first, for a block of
    a's against every b as one _split_form table, unless it vanishes
    identically (Heisenberg and abelian algebras).  That rejects no p-nilpotent x: x^[p] = 0 forces
    ad(x)^p = ad(x^[p]) = 0 and, with a model, X^p = 0, and sigma_2 vanishes
    on nilpotent matrices.  The survivors take their p-th powers in batches
    of at most _CHUNK: X^min(p, n) = 0 on X = X_a + X_b with a model (it is
    faithful and its p-th powers are the p-map's, as _CoordSolver and
    validate check, and X^p = 0 gives X^n = 0), tested on X's first row
    before the whole matrix (_nilpotent_matrices), else _pmap_rows.  Nilpotent
    lines are expanded by the q - 1 nonzero scalars in code space, and the
    codes are sorted once, in place.
    """
    f, d = g.field, int(keep.sum())
    d1, d2 = d - d // 2, d // 2
    a, b = (_digits(np.arange(f.q ** h, dtype=np.int64), f.q, h) for h in (d1, d2))
    a = a[np.append(0, _projective_reps(f.q, np.arange(len(a)), d1))]  # 0, then one a per line
    lines = np.zeros(len(b), dtype=bool)  # the b that are line representatives
    lines[_projective_reps(f.q, np.arange(len(b)), d2)] = True
    scalars = np.arange(1, f.q, dtype=np.int64)[:, None, None]
    # [c - 1, i]: the share of a[i] (of b[i]) in the code of c * (a, b)
    place = _place_values(f.q, d)
    high, low = f.varr_mul(scalars, a) @ place[:d1], f.varr_mul(scalars, b) @ place[d1:]
    form = _trace_form(g)[np.ix_(keep, keep)]
    # Q(x) = x . form . x^T vanishes identically when its coefficients do:
    # the diagonal and form[i, j] + form[j, i] off it
    tested = form.diagonal().any() or f.varr_add(form, form.T).any()
    if tested:
        left, right = _split_form(f, form, a, b)
    if g.matrix_model:
        n = g._model.shape[-1]
        model = g._model.reshape(g.dim, -1)[keep]  # the matrices of B
        xa, xb = f.matmul(a, model[:d1]), f.matmul(b, model[d1:])
    codes, step = [np.zeros(1, dtype=np.int64)], max(1, (_CHUNK << 3) // len(b))
    for start in range(0, len(a), step):  # tables of 8 * _CHUNK entries, or one row
        rows = slice(start, start + step)
        ok = f.matmul(left[rows], right) == 0 if tested else np.ones((len(a[rows]), len(b)), bool)
        if not start:
            ok[0] &= lines
        ia, ib = np.nonzero(ok)
        ia += start
        for s in range(0, len(ia), _CHUNK):
            i, j = ia[s:s + _CHUNK], ib[s:s + _CHUNK]
            if g.matrix_model:
                zero = _nilpotent_matrices(f, f.varr_add(xa[i], xb[j]).reshape(-1, n, n), min(f.p, n))
            else:
                zero = ~g._pmap_rows(_placed(np.hstack([a[i], b[j]]), keep)).any(axis=1)
            codes.append((high[:, i[zero]] + low[:, j[zero]]).ravel())
    codes = np.concatenate(codes)
    codes.sort()
    return codes


def _nilpotent_matrices(f, m, e):
    """Whether X^e = 0, for each X of the (c, n, n) stack m.  From n = 3 on,
    the first row e_0^T X^e goes first, as e - 1 stacked row-by-matrix
    products, and the full power is taken only where it is zero: X^e = 0
    forces e_0^T X^e = 0.  At n = 2 a row is half the matrix, and the power
    is taken at once."""
    zero = np.ones(len(m), dtype=bool)
    if m.shape[-1] > 2:
        row = m[:, :1]
        for _ in range(e - 1):
            row = f.matmul(row, m)
        zero = ~row.any(axis=(1, 2))
        m = m[zero]
    zero[zero] = ~f.matpow(m, e).any(axis=(1, 2))
    return zero


def _split_form(f, form, a, b):
    """(left, right) with left[i] . right[:, j] = Q(a[i] + b[j]), for the
    quadratic form Q(x) = x . form . x^T and x split into a high part a and
    a low part b: Q(a + b) = Q_11(a) + Q_22(b) + a . (G_12 + G_21^T) . b^T is
    [a . (G_12 + G_21^T), Q_11(a), 1] . [b^T; 1; Q_22(b)]."""
    h = a.shape[1]
    left = np.hstack([f.matmul(a, f.varr_add(form[:h, h:], form[h:, :h].T)),
                      f.quadratic(a, form[:h, :h])[:, None], np.ones((len(a), 1), dtype=np.int64)])
    return left, np.vstack([b.T, np.ones(len(b), dtype=np.int64), f.quadratic(b, form[h:, h:])])


def _placed(coeffs, keep):
    """The rows that hold the rows of coeffs at the columns where the bool
    mask keep holds and zero elsewhere."""
    out = np.zeros((len(coeffs), len(keep)), dtype=np.int64)
    out[:, keep] = coeffs
    return out


def _trace_form(g: RestrictedLieAlgebra) -> np.ndarray:
    """The Gram matrix G of sigma_2 on g's basis, computed once per algebra:
    x . G . x^T is sigma_2(X), the sum of the principal 2 x 2 minors of X, the
    model matrix of x when g has a matrix model, else ad(x).

    sigma_2 is the coefficient of t^(n-2) in det(t - X), so it vanishes on
    every nilpotent matrix in every characteristic; on traceless X with
    p != 2 it is -tr(X^2)/2.  G[a, b] is the sum over i < j of
    M_a[i, i] M_b[j, j] - M_a[i, j] M_b[j, i]; it is not symmetric, which
    FieldSpec.quadratic allows (in characteristic 2 no symmetric G exists).
    """
    if g._form is None:
        f = g.field
        mats = g._model if g.matrix_model else g._adb
        n = mats.shape[-1]
        upper = np.triu(np.ones((n, n), dtype=np.int64), 1)  # the pairs i < j
        diagonals = np.diagonal(mats, axis1=1, axis2=2)
        minors = f.matmul(f.matmul(diagonals, upper), diagonals.T)
        # M_a[i, j] M_b[j, i] over i < j: the dot product of M_a's strict
        # upper triangle with M_b^T, both raveled
        swaps = f.matmul((mats * upper).reshape(g.dim, n * n),
                         np.swapaxes(mats, 1, 2).reshape(g.dim, n * n).T)
        g._form = f.varr_add(minors, f.varr_neg(swaps))
    return g._form


def _line_digits(q, d):
    """The digit vectors with first nonzero digit 1, one per line of F_q^d,
    in ascending code order as arrays of at most _CHUNK rows: the lines of
    a kernel whose span closure is a commuting mask (_span_masks).

    Their codes fill the ranges [q**t, 2 q**t) for t < d; entry i of the
    listing lies in range t with (q**t - 1) / (q - 1) <= i.
    """
    offsets = (q ** np.arange(d, dtype=np.int64) - 1) // (q - 1)
    total = (q ** d - 1) // (q - 1)
    for start in range(0, total, _CHUNK):
        i = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        t = np.searchsorted(offsets, i, side="right") - 1
        yield _digits(q ** t + i - offsets[t], q, d)


def _place_values(q, d):
    """q**(d-1), ..., q, 1: a digit vector's dot product with these is its code."""
    return q ** np.arange(d - 1, -1, -1, dtype=np.int64)


def _digits(codes, q, d):
    """The length-d base-q digit vectors (most significant first) of codes.

    One column at a time: numpy divides int64 by a scalar with libdivide,
    while % and division by an array take a hardware division per entry
    (2048 codes, d = 8: 37 against 126 us).
    """
    out = np.empty((d, len(codes)), dtype=np.int64)
    for i in range(d - 1, -1, -1):
        high = codes // q
        np.subtract(codes, q * high, out=out[i])
        codes = high
    return out.T


def _digit_columns(codes, q, d):
    """The base-q digits of codes, most significant first, one array per
    digit, so that a caller holds one column at a time (_digits holds all)."""
    for place in _place_values(q, d).tolist():
        digit = codes // place
        codes = codes - digit * place
        yield digit


def _combinations(f, codes, basis):
    """The combinations of the rows of basis with coefficient vectors _digits(codes)."""
    return f.matmul(_digits(codes, f.q, len(basis)), basis)


def centralizer(g: RestrictedLieAlgebra, x: Vec):
    """Basis of ker(ad x) as coordinate tuples."""
    return mat_kernel_basis(Mat(g.field, g.ad(x)))


def is_elementary(g: RestrictedLieAlgebra, basis) -> bool:
    """Independent, pairwise commuting, p-map zero.

    The rows B of basis are independent when every row of their RREF holds
    a pivot.  With a matrix model they commute when their model matrices do
    and are p-nilpotent when each matrix's p-th power is zero; otherwise
    every [b_i, b_j], read off ad(B) . B^T, and every b_i^[p] is zero.
    """
    b = np.array(basis, dtype=np.int64).reshape(-1, g.dim)
    return not len(b) or all(bool(c[0]) for c in _elementary_conditions(g, b[None]))


def _elementary_conditions(g: RestrictedLieAlgebra, bases):
    """is_elementary's three conditions on each basis of a (W, k, dim) code
    stack, yielded in turn as (W,) bool arrays, so that a caller may stop at
    the first that fails: independent rows, pairwise commuting rows, zero
    p-maps.

    With a matrix model the last two read the (W, k, n, n) model matrices:
    a validated model is an injective map that carries the bracket to the
    commutator and x^[p] to X^p, so [x_a, x_b] = 0 exactly when
    X_a X_b = X_b X_a, and x^[p] = 0 exactly when X^p = 0.  That takes
    k^2 n^2 entries per basis, where ad(B) takes k dim^2 = k (n^2 - 1)^2 for
    sl_n."""
    f = g.field
    count, k, dim = bases.shape
    yield _rref(f, bases)[1].sum(axis=1) == k
    if g.matrix_model:
        m = g._matrices(bases)
        products = f.matmul(m[:, :, None], m[:, None])  # [w, a, b]: X_a X_b
        yield (products == products.swapaxes(1, 2)).reshape(count, -1).all(axis=1)
        yield ~f.matpow(m, f.p).reshape(count, -1).any(axis=1)
        return
    rows = bases.reshape(-1, dim)
    brackets = f.matmul(g.ad(rows).reshape(count, k, dim, dim), bases.transpose(0, 2, 1)[:, None])
    yield ~brackets.reshape(count, -1).any(axis=1)
    yield ~g._pmap_rows(rows).reshape(count, -1).any(axis=1)


@dataclass(frozen=True)
class ElementarySubalgebra:
    basis: tuple  # tuple of coordinate tuples

    @property
    def rank(self) -> int:
        return len(self.basis)


# ---------------------------------------------------------------------------
# automorphisms
# ---------------------------------------------------------------------------

_GENERATOR_SOURCES = 4  # classes whose exponentials are the candidates
# searched classes from which on automorphism candidates are built.  Below it
# the whole graph costs less.  Derivations on a quotient: srk_brute takes
# 1.8 ms without them and 2.8 ms with them on h_5/F_3 (40 classes), 4.9 and
# 8.3 ms on h_3/F_27 (28), but 12.5 and 8.2 ms on h_5/F_5 (156) and 241 and
# 24 ms on h_7/F_3 (364).  Inner candidates (C = {0}): 0.8 and 1.6 ms on
# sl_2/F_9 (10), 1.2 and 1.9 ms on sl_2/F_25 (26), 9.3 and 12.3 ms on
# sl_2/F_81 (82), 12.9 and 12.5 ms on sl_2/F_121 (122), but 9.4 and 4.1 ms
# on sl_3/F_3 (364) and 137 and 46 ms on sl_3/F_5 (3906)
_ORBIT_MIN_CLASSES = 100


def _automorphisms(g: RestrictedLieAlgebra, classes):
    """Verified automorphisms of (g, [p]), as an (N, d, d) stack of matrices
    A acting on the coordinate rows of srk_brute's search, x -> x . A: g's
    own coordinates when the central elementary ideal C is {0}, else B's
    coordinates on g/C (_central_elementary).  classes holds the search's
    classes in those coordinates.

    With C = {0} the candidates come from x = c * classes[j] for
    _GENERATOR_SOURCES evenly spaced classes j and c in the F_p-basis 1, w,
    ..., w^(k-1) of F_q: with a matrix model, conjugation by the truncated
    exponential exp(x), whose inverse is exp(-x) because x^p = 0; without
    one, the truncated exp(ad x).  (The first classes in lexicographic order
    lie in a small coordinate subspace: in the standard basis of sl_3 over
    F_5 the first four give 186 orbits on the 3906 classes, four spaced ones
    the 2 nilpotent orbits.)  With C != {0} inner automorphisms may act
    trivially on g/C (they do on Heisenberg algebras), so the candidates are
    the truncated exponentials of the basis derivations with D^p = 0
    (_derivation_exps).  Either way candidates are built only for at least
    _ORBIT_MIN_CLASSES classes, and _verified keeps the ones that are
    automorphisms.
    """
    if len(classes) < _ORBIT_MIN_CLASSES:
        return np.zeros((0,) + classes.shape[1:] * 2, dtype=np.int64)
    f, centre = g.field, _central_elementary(g)
    if len(centre):
        keep = _off_pivots(centre)
        a = _verified(g, _derivation_exps(g))[:, keep]
        # the image of b in B's coordinates drops its part in C
        return f.varr_add(a[:, :, keep], f.varr_neg(f.matmul(a[:, :, ~keep], centre[:, keep])))
    picks = sorted({j * len(classes) // _GENERATOR_SOURCES for j in range(_GENERATOR_SOURCES)})
    xs = np.concatenate([f.varr_mul(f.p ** i, classes[picks]) for i in range(f.k)])
    if g.matrix_model:
        m = g._matrices(xs)
        exp, exp_neg = np.split(f.trunc_exp(np.concatenate([m, f.varr_neg(m)])), 2)
        images = f.matmul(f.matmul(exp[:, None], g._model[None]), exp_neg[:, None])
        a, inside = g._coord_solver.solve_rows(images.reshape(len(xs), g.dim, -1))
        return _verified(g, a[inside.all(axis=1)])
    exp = f.trunc_exp(g.ad(xs))  # column j of exp(ad x): the image of b_j
    return _verified(g, np.swapaxes(exp, 1, 2))


def _derivation_exps(g: RestrictedLieAlgebra):
    """Truncated exponentials of c * D, for the basis derivations D of g with
    D^p = 0 and c in the F_p-basis 1, w, ..., w^(k-1) of F_q, as (N, dim,
    dim) matrices acting on coordinate rows.

    D, with row i the image of b_i, is a derivation when
    D[b_i, b_j] = [D b_i, b_j] + [b_i, D b_j] for all i, j: linear in D's
    entries, so Der(g) is the left kernel of one dim^2 x dim^3 matrix M,
    with M[(a, b), (i, j, l)] the coefficient of D[a, b] in coordinate l of
    the left side less the right.  Not every such exponential is an
    automorphism in characteristic p; _verified decides.
    """
    f, n = g.field, g.dim
    adb, eye = g._adb, np.eye(n, dtype=np.int64)  # adb[i, l, j]: coordinate l of [b_i, b_j]
    lhs = np.einsum("iaj,bl->abijl", adb, eye)
    rhs = f.varr_add(np.einsum("ai,blj->abijl", eye, adb), np.einsum("aj,ilb->abijl", eye, adb))
    ders = _left_kernel(f, f.varr_add(lhs, f.varr_neg(rhs)).reshape(n * n, -1)).reshape(-1, n, n)
    ders = ders[~f.matpow(ders, f.p).any(axis=(1, 2))]
    return f.trunc_exp(np.concatenate([f.varr_mul(f.p ** i, ders) for i in range(f.k)]))


def _verified(g: RestrictedLieAlgebra, a):
    """The matrices of the stack a that are automorphisms of (g, [p]).

    A with rows a_i = A(b_i) is one when it is invertible, [a_i, a_j] is the
    image of [b_i, b_j] and a_i^[p] the image of b_i^[p], for all basis
    indices: then A keeps every bracket by bilinearity and every p-th power
    by Jacobson's formula, whose correction terms are brackets, and by
    (cx)^[p] = c^p x^[p].  One stacked check covers every matrix.
    """
    f, n, dim = g.field, len(a), g.dim
    at = np.swapaxes(a, 1, 2)
    ad = g.ad(a.reshape(n * dim, dim)).reshape(n, dim, dim, dim)  # [s, i]: ad(a_i)
    brackets = f.matmul(ad, at[:, None])  # [s, i][:, j]: [a_i, a_j]
    ok = (brackets == f.matmul(at[:, None], g._adb[None])).all(axis=(1, 2, 3))
    powers = g._pmap_rows(a.reshape(n * dim, dim)).reshape(n, dim, dim)
    ok &= (powers == f.matmul(g._pmap[None], a)).all(axis=(1, 2))
    ok &= _rref(f, a)[1].all(axis=1)
    return a[ok]


# ---------------------------------------------------------------------------
# local rank search
# ---------------------------------------------------------------------------

class _TupleSearch:
    """Local ranks and witnesses over a fixed projective point set.

    Points are projective classes of p-nilpotent elements of span B, for B
    the d standard basis vectors of g at the columns where the bool mask keep
    holds: the columns off the pivots of the central elementary ideal (all
    of them when that is {0}).  Row i of coords (n x d) holds class i's
    coordinates in B, its entries at those columns; x_i is the same vector
    in g's coordinates, _placed(coords, keep)[i].  A coordinate vector's
    B-code is its dot product with q**(d-1), ..., q, 1, and _table sends
    the B-code of every nonzero multiple of class i to i and
    every other code to n; the codes of the q - 1 multiples are summed one
    column of coords at a time.

    automorphisms are verified automorphisms of (g, [p]) as d x d matrices
    acting on coordinate rows (srk_brute passes _automorphisms(g, coords)).
    labels[i] is the least class of class i's orbit under the group they
    generate, and the roots are the classes with labels[i] == i; without
    automorphisms every class is a root.  One clique query,
    _cliques_through, serves the ranks and the witnesses: commuting[i] is the
    bitmask of the classes in ker(ad(x_i) . B^T), built batch by batch
    for the classes a query starts from and their neighbours, and 0 for the
    others; _build_masks takes each from a row test or from the span of a
    kernel basis, whichever its cost model says is cheaper, and both give
    the same bits.  cliques holds (rank, bitmask) for each maximal clique of the
    commuting graph that meets a root, a maximal elementary subalgebra of
    the subspace, and ranks[i] is the largest rank of a clique through
    labels[i], that is r(x_i) there: local rank is invariant under
    automorphisms.  Each clique enumeration visits at most budget nodes, and
    the masks hold at most _MASK_BITS_PER_BUDGET * budget bits.
    """

    def __init__(self, g: RestrictedLieAlgebra, coords, keep, budget, automorphisms=()):
        self.g = g
        self.f = f = g.field
        self.n, d = coords.shape
        self.keep = keep
        self.coords = coords
        self._budget = budget
        self._place = _place_values(f.q, d)
        # [c - 1, i]: the code of c * coords[i], one column at a time
        multiples = sum((f.varr_mul(np.arange(1, f.q)[:, None], column) * place
                         for column, place in zip(coords.T, self._place.tolist())),
                        np.zeros((f.q - 1, self.n), dtype=np.int64))
        self._table = np.full(f.q ** d, self.n, dtype=np.min_scalar_type(self.n))  # n: no class
        self._table[multiples] = np.arange(self.n)
        # each automorphism permutes the classes (image codes through _table);
        # 4 to 6 label rounds on sl_3 over F_5 and F_7
        self.labels = _orbit_labels(self.n, [self._table[f.matmul(coords, a) @ self._place]
                                             for a in automorphisms])
        self.commuting, self._built = [0] * self.n, 0
        self._roots = _bitset(np.flatnonzero(self.labels == np.arange(self.n)), self.n)
        self.cliques = self._cliques_through(self._roots)
        best = [0] * self.n
        for r, c in self.cliques:
            for i in _bits(c & self._roots):
                best[i] = max(best[i], r)
        self.ranks = [best[i] for i in self.labels.tolist()]

    def _cliques_through(self, members):
        """(rank, bitmask) of the maximal cliques of the commuting graph that
        meet the classes in the bitmask members; a maximal clique of rank r
        has (q**r - 1) / (q - 1) classes.  The search reads the masks of those
        classes and of their neighbours only, and builds them first."""
        which = np.flatnonzero(_flags(members, self.n))
        self._build_masks(which)
        reach = functools.reduce(operator.or_, (self.commuting[i] for i in which.tolist()), 0)
        self._build_masks(np.flatnonzero(_flags(reach, self.n)))
        q = self.f.q
        rank_of = {(q ** r - 1) // (q - 1): r for r in range(self.coords.shape[1] + 1)}
        return [(rank_of[c.bit_count()], c)
                for c in _maximal_cliques(self.commuting, self._budget, members)]

    def _build_masks(self, which):
        """Fill commuting[i] for the classes i in which that have none yet,
        batch by batch; a built mask has its own bit, so it is never 0.

        BudgetError first when the masks built by the end would hold more
        than _MASK_BITS_PER_BUDGET * budget bits.  A batch of classes u takes
        one stacked ad(u), whose columns at keep are ad(u) . B^T, and each
        mask comes from one of two exact tests, whichever the cost model
        (_ROW_NS, _SPAN_NS, _ELIM_NS) says is cheaper: _row_masks, which needs
        ad(u) . B^T only, or _span_masks on a basis of its kernel.  A batch
        whose row tests cost less than its stacked elimination is row-tested
        whole; otherwise one stacked elimination gives every kernel, and the
        kernels of each dimension k go through _span_masks together when their
        (q**k - 1) / (q - 1) lines are cheaper to close than the row tests.
        """
        masks, built = self.commuting, self._built
        which = np.array([i for i in which.tolist() if not masks[i]], dtype=np.int64)
        total, bound = (built + len(which)) * self.n, _MASK_BITS_PER_BUDGET * self._budget
        if total > bound:
            raise BudgetError(
                f"commuting masks: {built + len(which)} masks of {self.n} classes are {total} bits "
                f"> budget {bound} bits ({_MASK_BITS_PER_BUDGET} per budget unit); "
                f"{built} masks built so far")
        f, g, d = self.f, self.g, self.coords.shape[1]
        row = _ROW_NS * g.dim * self.n  # one class's row test
        fixed, per_column, per_entry = _ELIM_NS
        step = (_CHUNK << 2) // max(1, g.dim * d)  # (step, dim, d) stacks: <= 4 * _CHUNK codes
        for start in range(0, len(which), step):
            part = which[start:start + step]
            ads = g.ad(_placed(self.coords[part], self.keep))[..., self.keep]
            if len(part) * row < fixed + d * (per_column + per_entry * ads.size):
                done = [(part, self._row_masks(ads))]
            else:
                vectors, free = _kernels(f, ads)
                dims = free.sum(axis=1)
                done = []
                for k in np.flatnonzero(np.bincount(dims)).tolist():
                    rows = np.flatnonzero(dims == k)
                    if _SPAN_NS * k * d * ((f.q ** k - 1) // (f.q - 1)) < row:
                        kernels = vectors[rows][free[rows]].reshape(len(rows), k, d)
                        done.append((part[rows], self._span_masks(kernels)))
                    else:
                        done.append((part[rows], self._row_masks(ads[rows])))
            for classes, found in done:
                for i, mask in zip(classes.tolist(), found):
                    masks[i] = mask
        self._built = built + len(which)

    def _row_masks(self, ads):
        """Bitmasks of the classes j with ads[s] . coords[j] = 0, for a stack
        of (dim, d) matrices ads[s] = ad(u_s) . B^T: the classes that commute
        with u_s, the same set as _span_masks of a basis of ker ads[s].

        Every product takes the whole stack by a block of columns of
        coords^T, a multiple of 8 of them, so that a block of about
        _ROW_BLOCK entries packs into whole bytes and the class count does
        not set the memory taken.  One class by many columns would spend as
        long converting coords as multiplying.
        """
        f, n = self.f, self.n
        width = max(8, _ROW_BLOCK // (len(ads) * ads.shape[1]) >> 3 << 3)
        return _packed_ints(np.concatenate(
            [np.packbits(~f.matmul(ads, self.coords[lo:lo + width].T).any(axis=1), axis=1,
                         bitorder="little") for lo in range(0, n, width)], axis=1))

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
        masks = [0] * count
        for digits in _line_digits(f.q, k):
            for start in range(0, count, size):
                batch = slice(start, start + size)
                found = self._masks_of(f.matmul(digits, kernels[batch]))
                masks[batch] = [a | b for a, b in zip(masks[batch], found)]
        return masks

    def _masks_of(self, vecs):
        """Bitmasks of the classes among the coordinate rows of each vecs[s]."""
        bits = np.zeros((len(vecs), self.n + 1), dtype=bool)
        bits[np.arange(len(vecs))[:, None], self._table[vecs @ self._place]] = True
        return _packed_ints(np.packbits(bits[:, :-1], axis=1, bitorder="little"))

    def max_tuple_containing(self, xi, codes=None, classes=None, centre_dim=0):
        """(r, witness, True): the largest rank r of an elementary subalgebra
        through candidate xi, and the least basis, in candidate order, of
        such a subalgebra that starts with the candidate.

        The candidates are the points of g with the ascending codes codes
        (nullcone's, so their order is the one that defines "least"), and
        classes[j] is the class of candidate j modulo an ideal of dimension
        centre_dim that lies in every maximal elementary subalgebra, or n
        when candidate j lies in that ideal.  srk_brute and local_rank pass
        the classes of the searched algebra's nullcone and its central
        elementary ideal; by default the candidates are the search's own
        classes.  So r is centre_dim plus s, the largest rank of a clique
        through classes[xi] (through any class when that is n).

        The witness is picked greedily: each pick is the least candidate
        outside the span of the picks so far whose class, with the classes
        of those picks, lies in a clique of rank s (_allowed); the span is
        read as the codes of its q**len(picks) points.  In srk_brute and
        local_rank the first pick outside the ideal is a root, so their
        picks read cliques only; a pick of another class enumerates the
        cliques through the least class picked.  A candidate passed over at
        one pick lies in no rank-r subalgebra over the picks, so none later
        either: the greedy basis is the lexicographically least tuple that
        spans one.  Only the picks are expanded to rows.  The constant third
        entry keeps the (r, witness, exhausted) shape that bench/layers.py
        reads.
        """
        f, g, n = self.f, self.g, self.n
        place = _place_values(f.q, g.dim)
        if codes is None:
            codes, classes = _placed(self.coords, self.keep) @ place, np.arange(n)
        ranks = np.array(self.ranks + [max(self.ranks, default=0)], dtype=np.int64)
        s = int(ranks[classes[xi]])
        picks, members = [xi], 0 if classes[xi] == n else 1 << int(classes[xi])
        for _ in range(centre_dim + s - 1):
            span = _combinations(f, np.arange(f.q ** len(picks)), point_rows(g, codes[picks])) @ place
            at = np.searchsorted(codes, span) % len(codes)  # a span code past them all meets codes[0]
            allowed = self._allowed(members, s)[classes]
            allowed[at[codes[at] == span]] = False  # the candidates inside the span
            j = int(np.argmax(allowed))
            picks.append(j)
            if classes[j] < n:
                members |= 1 << int(classes[j])
        return centre_dim + s, [tuple(v) for v in point_rows(g, codes[picks]).tolist()], True

    def _allowed(self, members, s):
        """Flags over the classes, and a last True for "in the ideal": class
        v lies with the classes in members in a clique of rank s.

        With no members, the rank of v decides.  Otherwise the maximal
        cliques through members are among those through any one member:
        cliques when members holds a root, else those through the least
        member, enumerated on demand.
        """
        if not members:
            return np.append(np.array(self.ranks, dtype=np.int64) == s, True)
        if members & self._roots:
            cliques = self.cliques
        else:
            cliques = self._cliques_through(members & -members)
        union = functools.reduce(operator.or_, (c for r, c in cliques
                                                if r == s and c & members == members), 0)
        return np.append(_flags(union, self.n), True)


def _packed_ints(packed):
    """The ints whose little-endian bytes are the rows of the 2-D uint8 array
    packed: np.packbits(bits, axis=1, bitorder="little") gives the bitmasks
    of the rows of the bool array bits."""
    data, w = packed.tobytes(), packed.shape[1]
    return [int.from_bytes(data[i * w:(i + 1) * w], "little") for i in range(len(packed))]


def _bitset(indices, n):
    """The int with bits indices set, for indices < n."""
    flags = np.zeros(n, dtype=bool)
    flags[indices] = True
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


def _flags(mask, n):
    """The bool array of the bits 0, ..., n - 1 of the int mask."""
    data = np.frombuffer(mask.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(data, count=n, bitorder="little").astype(bool)


class LocalRank(NamedTuple):
    rank: int
    witness: ElementarySubalgebra


def _projective_reps(q, codes, d):
    """The ascending indices of the entries of the ascending codes of
    length-d digit vectors whose first nonzero digit is 1: the codes in
    [q**t, 2 q**t) for t < d.

    codes must be closed under F_q^x scaling (a nullcone's are), so these
    are exactly one representative per projective class.
    """
    powers = q ** np.arange(d, dtype=np.int64)
    bounds = zip(np.searchsorted(codes, powers), np.searchsorted(codes, 2 * powers))
    return np.concatenate([np.arange(0)] + [np.arange(lo, hi) for lo, hi in bounds])


def local_rank(g: RestrictedLieAlgebra, x: Vec, budget: int = DEFAULT_BUDGET) -> LocalRank:
    """Largest elementary-subalgebra dimension at x, with a witness containing x.

    Every elementary subalgebra through x lies in the centralizer z(x), a
    restricted subalgebra (ad(y^[p]) = ad(y)^p) in which x is central and
    p-nilpotent, so x lies in its central elementary ideal C(z(x)) and
    r(x) = T(z(x)), the largest rank of an elementary subalgebra of z(x):
    dim C(z(x)) plus the largest clique rank of srk_brute's search on z(x)
    (_subalgebra, _quotient_search), run with no automorphisms.  The
    centralizer's basis rows are in RREF, so a point's coordinates in z(x)
    are its entries at their pivots, and the lexicographic order and the
    projective representatives of z(x) are g's: the witness is the least
    one in g's order.  budget caps the points of z(x), the commuting-mask
    bits and the nodes of the clique search.
    """
    x = tuple(x)
    if not any(x):
        raise PreconditionError("local rank is defined for nonzero nullcone points")
    if any(g.pmap_eval(x)):
        raise PreconditionError("x is outside the restricted nullcone")
    f = g.field
    zbasis = np.array(centralizer(g, x), dtype=np.int64)
    if f.q ** len(zbasis) > budget:
        raise BudgetError(f"centralizer has {f.q ** len(zbasis)} points > budget {budget}")
    zbasis = _rref(f, zbasis[None])[0][0]
    h = _subalgebra(g, zbasis)
    codes = nullcone(h, budget=budget)
    search, reps, of = _quotient_search(h, h._cone, budget, orbits=False)
    lead = next(c for c in x if c)  # x's projective representative is x / lead
    rep = f.varr_mul(f.inv(lead), np.array(x, dtype=np.int64))[~_off_pivots(zbasis)]
    codes = codes[reps]
    xi = int(np.searchsorted(codes, rep @ _place_values(f.q, h.dim)))
    r, witness, _ = search.max_tuple_containing(xi, codes, of[reps], len(_central_elementary(h)))
    witness = f.matmul(np.array(witness), zbasis).tolist()  # in g's coordinates
    # report the caller's point, not its projective representative
    return LocalRank(rank=r, witness=ElementarySubalgebra((x,) + tuple(map(tuple, witness[1:]))))


def _subalgebra(g: RestrictedLieAlgebra, rows) -> RestrictedLieAlgebra:
    """The restricted subalgebra spanned by rows, the RREF basis rows of a
    subspace of g closed under the bracket and the p-map, in that basis.

    A vector of the span has as coordinates its entries at the pivot columns
    of rows, so the structure constants are read there off ad(rows) . rows^T
    and the p-map off g's p-th powers of the rows.  g's matrix model, when
    it has one, restricts to the model matrices of the rows, so the sigma_2
    filter and the X^p = 0 test of _nilpotent_span apply to the subalgebra
    too.  The tables are right by construction and are not validated.
    """
    f, pivots = g.field, ~_off_pivots(rows)
    adb = f.matmul(g.ad(rows), rows.T)[:, pivots]  # adb[i][:, j]: [rows[i], rows[j]]
    solver = _CoordSolver(f, [Mat(f, m) for m in g._matrices(rows)]) if g.matrix_model else None
    return RestrictedLieAlgebra._from_arrays(f, adb, g._pmap_rows(rows)[:, pivots], solver=solver)


class SrkBrute(NamedTuple):
    """srk_brute's result.  o_rmin is an (o_rmin_count, dim) int64 array of
    the nonzero nullcone points of minimal local rank, in lexicographic order."""

    srk: int
    r_min: int
    o_rmin_count: int
    o_rmin: np.ndarray
    witness: Optional[ElementarySubalgebra]
    note: str


def srk_brute(g: RestrictedLieAlgebra, budget: int = DEFAULT_BUDGET) -> SrkBrute:
    """Exact saturation rank by exhausting the restricted nullcone.

    Every maximal elementary subalgebra is W + C, for the central elementary
    ideal C (_central_elementary) and W a maximal clique on the classes of
    V(g) n span B, B the standard basis vectors off C's pivots.  So one
    search over those classes (_quotient_search) gives every
    local rank: r(b + c) = dim C + r_B(b) for b != 0, and r(c) = dim C plus
    the largest clique rank for c in C, nonzero.  Local ranks are
    scalar-invariant, so they are found per projective class and expanded
    back to points, and they are constant on the orbits of the verified
    automorphisms (_automorphisms), so the cliques are enumerated through
    the orbit roots only.  The least local rank is dim C plus the least
    clique rank (dim C alone when V(g) = C).  The witness is the least maximal tuple through the
    least point of minimal rank, in g's lexicographic order.  The points
    stay codes until the search is done; only o_rmin is expanded to rows.
    budget caps the nullcone points, the commuting-mask bits and the nodes
    of each clique search.
    """
    codes = nullcone(g, budget=budget)
    cone, g._cone = g._cone, None
    if len(codes) == 1:  # just 0
        return SrkBrute(srk=0, r_min=0, o_rmin_count=0, o_rmin=point_rows(g, codes[1:]),
                        witness=None, note="restricted nullcone is {0}; srk reported as 0")
    search, reps, of = _quotient_search(g, cone, budget, orbits=True)
    centre_dim = len(_central_elementary(g))
    ranks = search.ranks + [max(search.ranks, default=0)]  # a point of C has the largest
    least = (np.array(ranks) == min(ranks))[of]
    _, wit, _ = search.max_tuple_containing(int(np.argmax(least[reps])), codes[reps], of[reps],
                                            centre_dim)
    codes = codes[1:][least[1:]]
    del search, reps, of, least, cone  # o_rmin's rows take the place of the search
    m = centre_dim + min(ranks)
    return SrkBrute(srk=m, r_min=m, o_rmin_count=len(codes), o_rmin=point_rows(g, codes),
                    witness=ElementarySubalgebra(tuple(wit)), note="")


def _quotient_search(g: RestrictedLieAlgebra, cone, budget, orbits):
    """The search on the classes of V(g) n span B, B the standard basis
    vectors off the pivots of the central elementary ideal C, and where it
    puts each nullcone point.

    cone is _nullcone(g)'s (codes, span, part).  Returns (search, reps, of):
    the _TupleSearch in B's coordinates, with the verified automorphisms
    (_automorphisms) when orbits; the ascending indices of the codes that are
    one point per projective class of g (_projective_reps); and of[i], the
    class of point codes[i] modulo C, or search.n when it lies in C.  The
    classes are span's projective representatives, in B's order, which is
    g's on span B.  Rows are built for the classes only.
    """
    codes, span, part = cone
    f, keep = g.field, _off_pivots(_central_elementary(g))
    d = int(keep.sum())
    classes = _digits(span[_projective_reps(f.q, span, d)], f.q, d)
    search = _TupleSearch(g, classes, keep, budget, _automorphisms(g, classes) if orbits else ())
    return search, _projective_reps(f.q, codes, g.dim), search._table[span][part]


# ---------------------------------------------------------------------------
# JSON interface
# ---------------------------------------------------------------------------

def _scatter(dim, index, codes):
    """The int64 array of shape (dim,) * len(index) that holds codes at the
    index arrays index and zeros elsewhere."""
    out = np.zeros((dim,) * len(index), dtype=np.int64)
    out[tuple(index)] = codes
    return out


def _last(keys):
    """Whether each position of the key array holds its key's last occurrence:
    every one when the keys strictly increase, as they do in a file written
    in index order, without np.unique's sort."""
    if (keys[1:] > keys[:-1]).all():
        return np.ones(len(keys), dtype=bool)
    return _scatter(len(keys), [len(keys) - 1 - np.unique(keys[::-1], return_index=True)[1]], 1) > 0


def _indices(values, key, dim):
    """The JSON indices values as an int64 array, each checked to lie in
    [0, dim) before numpy could wrap a negative one."""
    for i in (min(expect_each(values, int, f"index {key}"), default=0), max(values, default=0)):
        if not 0 <= i < dim:
            raise PreconditionError(f"index {key}={i} outside [0, {dim})")
    return np.array(values, dtype=np.int64)


def _codes(field, payloads):
    """The codes of a list of JSON coefficients: an integer n is the digit
    list [n], and a list holds the little-endian base-p digits of a residue,
    at most k of them, each read mod p (so an integer maps by Z -> F_p)."""
    # plane t holds digit t of every coefficient, zero past a list's end
    planes = [expect_each(plane, int, "coefficient") for plane in itertools.zip_longest(
        *[c if isinstance(c, list) else [c] for c in payloads], fillvalue=0)]
    if len(planes) > field.k:
        raise PreconditionError(f"a coefficient has more than k = {field.k} digits")
    planes = (np.array(planes, dtype=object) % field.p).astype(np.int64)  # integers of any size
    return field.p ** np.arange(len(planes)) @ planes.reshape(len(planes), len(payloads))


def _terms(field, dim, data, key, heads):
    """The table of the JSON list data[key] of entries, objects with the
    indices heads and an "out" list of {"k": index, "c": coefficient} terms:
    table[heads..., k] is the term's code, from the last entry of each head
    and in it the last term of each k.  Also the table of 1 at the heads
    that have an entry."""
    entries = expect_each(expect(data.get(key, []), list, key), dict, f"{key} entry")
    outs = [expect(e.get("out", []), list, "out") for e in entries]
    terms = expect_each(list(itertools.chain.from_iterable(outs)), dict, f"{key} term")
    hs = [_indices([e[h] for e in entries], h, dim) for h in heads]
    ks = _indices([t["k"] for t in terms], "k", dim)
    owner = np.repeat(np.arange(len(entries)), list(map(len, outs)))
    keep = _last(np.ravel_multi_index(hs, (dim,) * len(hs)))[owner] & _last(owner * dim + ks)
    index = [h[owner][keep] for h in hs] + [ks[keep]]
    return _scatter(dim, index, _codes(field, [t["c"] for t in terms])[keep]), _scatter(dim, hs, 1)


def load_lie(data, budget: Optional[int] = None) -> RestrictedLieAlgebra:
    """Parse the structure-constant JSON schema into an algebra.

    p, k, dim, every index and every coefficient must be JSON integers (a
    coefficient may also be a list of at most k integer digits), labels a
    list of strings, and matrix_model a list of flat square matrices of one
    size; anything else raises PreconditionError.  With a budget, an algebra
    of more than budget elements raises BudgetError before any table is
    built.

    Every list of indices and of coefficients is checked in one pass and
    reduced to codes at once.  Where an (i, j) bracket entry or a p-map
    entry i repeats, the last one counts, and in an entry the last term of
    each k; [b_j, b_i] = -[b_i, b_j] wherever (j, i) has no entry.  The
    tables then pass validate(): antisymmetry, then the model check when
    there is a model, else the Jacobi identity and restrictedness.
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
        field = field_make(p, k)
        if budget is not None and (dim >= budget.bit_length() or field.q ** dim > budget):
            raise BudgetError(f"the algebra has {field.q}**{dim} elements > budget {budget}")
        field._dtype(0)  # refuses a field whose codes do not fit in int64
        labels = data.get("labels")
        if labels is not None:
            labels = expect_each(expect(labels, list, "labels"), str, "label")
        brackets, declared = _terms(field, dim, data, "brackets", ("i", "j"))
        pmap = _terms(field, dim, data, "pmap", ("i",))[0]
        model = data.get("matrix_model")
        if model:
            flats = expect_each(expect(model, list, "matrix_model"), list, "model matrix")
            n = math.isqrt(len(flats[0]))
            if set(map(len, flats)) != {n * n}:
                raise PreconditionError("matrix model matrices must be square and of one size")
            stack = _codes(field, list(itertools.chain.from_iterable(flats)))
            model = _CoordSolver(field, [Mat._wrap(field, m) for m in stack.reshape(-1, n, n)])
    except KeyError as exc:
        raise PreconditionError(f"malformed Lie algebra input: missing key {exc}")
    # brackets[i, j] is [b_i, b_j] where (i, j) has an entry, else -brackets[j, i]
    brackets = np.where(declared[:, :, None], brackets, field.varr_neg(brackets.swapaxes(0, 1)))
    g = RestrictedLieAlgebra._from_arrays(field, brackets.transpose(0, 2, 1), pmap, labels, model)
    g.validate()
    return g


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
