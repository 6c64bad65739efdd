"""Restricted Lie algebras by structure constants and p-map.

An algebra of dimension n over F_q keeps, per basis pair, the bracket
coordinates [b_i, b_j] and, per basis vector, the p-map image b_i^[p]; an
optional matrix model realizes the basis inside gl_m and must agree with both
tables.  Elements are coordinate tuples of field codes; point sets, such as
the nullcone and srk_brute's o_rmin, are int64 arrays with one coordinate
row per point.

x^[p] is evaluated for a whole array of elements at once.  Matrix models take
the batched p-th matrix power and solve back to coordinates; otherwise
Jacobson's formula folds the coordinate expansion pairwise, reading the
correction terms s_i(x, y) off as t-coefficients of (ad(tx+y))^(p-1)(x) over
g[t].  All field arithmetic, batched or not, goes through satrank.fields.

The saturation rank machinery works over the restricted nullcone
V(g) = {x : x^[p] = 0}.  It is a cone, (cx)^[p] = c^p x^[p], so it is
enumerated by lines: at most one p-th power per projective class, then each
p-nilpotent line expanded by the nonzero scalars.  A line gets its p-th
power only where sigma_2, the sum of the principal 2 x 2 minors, of its
model matrix X (else of ad(x)) vanishes, as it does on every nilpotent
matrix in every characteristic.  With a model the power is read as X^p = 0,
with no solve back to coordinates.
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
q^dim, so a dense int32 table with one entry per coordinate code maps every
nonzero scalar multiple of a class to the class index.  The classes
commuting with u are the span closure of ker ad(u): one vector per line of
the kernel, looked up in the table.  Those commuting masks are built for a
batch of classes at a time: one stacked ad(u) restricted to the subspace's
columns, one stacked elimination (fields._kernels), and span closures
batched by kernel dimension.  A witness is the least basis of a
maximal-rank subalgebra through the point, picked greedily against the
maximal cliques through the picks (_TupleSearch.max_tuple_containing); one
clique query, _TupleSearch._cliques_through, gives the ranks and the picks.

Every maximal elementary subalgebra holds the central elementary ideal
C = {x central : x^[p] = 0} (_central_elementary): adding C keeps a subalgebra
abelian and p-nilpotent.  With B the standard basis vectors off C's pivot
columns, g = span B + C, and (b + c)^[p] = b^[p], [b + c, b' + c'] = [b, b'].
So the nullcone is (V(g) n span B) + C, the maximal elementary subalgebras
are W + C for the maximal cliques W on the classes of V(g) n span B, and
srk_brute searches that graph only: r(b + c) = dim C + r_B(b) for b != 0.
C = {0} leaves the whole graph.

Every elementary subalgebra through x lies in the centralizer z(x), a
restricted subalgebra since ad(y^[p]) = ad(y)^p, and x is central and
p-nilpotent there, so x lies in C(z(x)).  So r(x) = T(z(x)), the largest
rank of an elementary subalgebra of z(x): dim C(z(x)) plus the largest
clique rank of the same search run on z(x), which _subalgebra builds with
its own structure constants (and g's matrix model restricted to it).

Local rank is invariant under automorphisms of (g, [p]), so srk_brute needs
it at one class per orbit.  On a search of at least _ORBIT_MIN_CLASSES
classes, _automorphisms builds a few candidates and keeps those that pass
one stacked check on the basis brackets and p-th powers: truncated
exponentials of nullcone classes when C = {0}, and on the quotient the
truncated exponentials of the nilpotent basis derivations, acting on g/C in
B's coordinates (inner automorphisms fix g/C pointwise on Heisenberg
algebras).  The orbits come from label propagation over the code -> class
table, and the least class of each is its root.  Masks are built for the
roots and their neighbours only, and the clique search starts from the roots
(satrank.cliques), so it finds exactly the maximal cliques that meet a root;
every class takes its root's rank.  Without automorphisms every class is a
root.
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
from .errors import BudgetError, PreconditionError, expect
from .fields import FieldSpec, Mat, _kernels, _rref, field_make, mat_kernel_basis

DEFAULT_BUDGET = 10_000_000
# commutator entries per block of _CoordSolver.commutators.  Small blocks
# keep the temporaries small and FieldSpec._reduce on its libdivide path:
# twelve cold special_linear builds (n <= 7) took 9.4, 8.7, 9.4, 11.1 and
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
    right by construction.
    """

    def __init__(self, field: FieldSpec, brackets, pmap, labels=None,
                 matrix_model=None, validate="full"):
        dim = len(pmap)
        # ad tensor: adb[i][:, j] = coords of [b_i, b_j]
        adb = np.zeros((dim, dim, dim), dtype=np.int64)
        for (i, j), out in brackets.items():
            for k, c in out.items():
                adb[i, k, j] = c % field.q
        pmap = np.array([[int(c) % field.q for c in row] for row in pmap],
                        dtype=np.int64).reshape(dim, dim)
        self._init(field, adb, pmap, labels)
        if matrix_model:
            if len(matrix_model) != self.dim:
                raise PreconditionError("matrix model must have one matrix per basis vector")
            self._set_model(_CoordSolver(field, matrix_model))
        if validate == "full":
            self.validate()
        elif validate != "none":
            raise PreconditionError(f"validate must be 'full' or 'none', got {validate!r}")

    @classmethod
    def _from_arrays(cls, field, adb, pmap, labels=None, solver=None):
        """The algebra with ad tensor adb (adb[i][:, j] the coordinates of
        [b_i, b_j]), p-map rows pmap and, when given, the matrix model of the
        _CoordSolver solver, all as reduced code arrays.  For tables that are
        right by construction: nothing is validated."""
        g = cls.__new__(cls)
        g._init(field, adb, pmap, labels)
        if solver is not None:
            g._set_model(solver)
        return g

    def _init(self, field, adb, pmap, labels):
        self.field = field
        self.dim = len(pmap)
        self.labels = list(labels) if labels else [f"b{i}" for i in range(self.dim)]
        if len(self.labels) != self.dim:
            raise PreconditionError("label count must match dimension")
        self._adb = adb
        self._pmap = np.ascontiguousarray(pmap)  # not a view that keeps a solve's array alive
        self.pmap = [tuple(row) for row in pmap.tolist()]
        self._central = None  # _central_elementary's basis, once asked for
        self._form = None  # _trace_form's Gram matrix, once asked for
        self.matrix_model = self._coord_solver = None

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
        """Antisymmetry, then the matrix model against the tables (when there
        is one), then the Jacobi identity and restrictedness."""
        f = self.field
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
        adb, inside = solver.commutators()
        bad = ~inside | (adb != self._adb).any(axis=1)  # bad[i, j]: at [b_i, b_j]
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
        RestrictedLieAlgebra) and inside[i, j] whether it lies in the span.

        The i are taken in blocks of at most _COMMUTATOR_BLOCK commutator
        entries, so that the temporaries stay small whatever d.  A block's
        products m_i m_j and m_j m_i are two 2-D products, of its matrices
        stacked by rows with every m_j side by side and the other way round,
        and its commutators take one solve_rows.
        """
        f, model, d = self.field, self.model, self.dim
        n = model.shape[-1]
        rows = model.reshape(d * n, n)  # m_0 over m_1 over ...
        cols = np.swapaxes(model, 0, 1).reshape(n, d * n)  # [m_0 | m_1 | ...]
        adb = np.empty((d, d, d), dtype=np.int64)
        inside = np.empty((d, d), dtype=bool)
        step = max(1, _COMMUTATOR_BLOCK // (d * n * n))
        for start in range(0, d, step):
            stop = min(start + step, d)
            b = stop - start
            ij = f.matmul(rows[start * n:stop * n], cols).reshape(b, n, d, n)  # [i, :, j]: m_i m_j
            ji = f.matmul(rows, cols[:, start * n:stop * n]).reshape(d, n, b, n)  # [j, :, i]: m_j m_i
            comm = f.varr_add(ij.transpose(0, 2, 1, 3), f.varr_neg(ji.transpose(2, 0, 1, 3)))
            coords, inside[start:stop] = self.solve_rows(comm.reshape(b, d, n * n))
            adb[start:stop] = np.swapaxes(coords, 1, 2)
        return adb, inside


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
    adb, inside = solver.commutators()
    if not inside.all():
        raise PreconditionError("matrix span is not closed under commutators")
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
    order, then h_i = E_ii - E_(i+1)(i+1), as sl_matrices lays them out."""
    if n < 2:
        raise PreconditionError("n must be >= 2")
    mats = sl_matrices(n, field, np.eye(n * n - 1, dtype=np.int64))
    labels = ([f"E{i}{j}" for i in range(n) for j in range(n) if i != j]
              + [f"h{i+1}" for i in range(n - 1)])
    return from_matrix_basis(field, [Mat(field, m) for m in mats], labels=labels)


# ---------------------------------------------------------------------------
# nullcone, centralizers, elementary subalgebras
# ---------------------------------------------------------------------------

def nullcone(g: RestrictedLieAlgebra, budget: int = DEFAULT_BUDGET) -> np.ndarray:
    """All x with x^[p] = 0: an (N, dim) int64 array of coordinate rows in
    lexicographic order, zero first.

    It is (V(g) n span B) + C for the central elementary ideal C and the
    standard basis vectors B off its pivot columns (_central_elementary), so
    p-th powers are taken on span B only and the sums with C are array adds.
    Within span B they are taken only on the lines where sigma_2 (_trace_form)
    vanishes: x^[p] = 0 forces ad(x)^p = ad(x^[p]) = 0 and, with a matrix
    model, X^p = 0, and sigma_2 of a nilpotent matrix is 0, so the form
    rejects no nullcone point (_nilpotent_span).
    """
    total = g.element_count()
    if total > budget:
        raise BudgetError(f"nullcone needs {total} points > budget {budget}")
    f, centre = g.field, _central_elementary(g)
    vecs = _nilpotent_span(g, _off_pivots(centre))
    if not len(centre):
        return vecs
    shifts = _combinations(f, np.arange(f.q ** len(centre), dtype=np.int64), centre)
    vecs = f.varr_add(vecs[:, None], shifts[None]).reshape(-1, g.dim)
    return np.take(vecs, np.argsort(vecs @ _place_values(f.q, g.dim)), axis=0)


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


def _nilpotent_span(g: RestrictedLieAlgebra, keep):
    """The p-nilpotent vectors of span B, for B the standard basis vectors of
    g at the columns where the bool mask keep holds: an (N, dim) int64 array
    of coordinate rows in lexicographic order, zero first.

    A vector of span B is zero off keep, so combination number r of B, with
    coefficients _digits(r) at keep, comes in lexicographic order in
    ascending r.  (cx)^[p] = c^p x^[p], so the p-th power is taken at most
    once per line, on the _line_codes combinations in batches of _CHUNK, and
    each p-nilpotent one is expanded by the q - 1 nonzero scalars.

    A line is first tested against sigma_2 (_trace_form), restricted to B;
    only the lines with sigma_2 = 0 get a p-th power.  That rejects no
    p-nilpotent x: x^[p] = 0 forces ad(x)^p = ad(x^[p]) = 0 and, with a
    matrix model, X^p = 0, and sigma_2 vanishes on nilpotent matrices.  Where
    it vanishes identically as a quadratic form (Heisenberg and abelian
    algebras) the test is skipped.

    With a matrix model x^[p] = 0 is read as X^p = 0 on the model matrices of
    the combinations, taken straight from those of B.  That needs the model
    to be faithful (_CoordSolver checks it) and its p-th powers to be the
    p-map's (from_matrix_basis builds the p-map from them, and
    RestrictedLieAlgebra.validate checks them in _validate_model, so a model
    whose p-th powers leave its span is refused there).  An n x n matrix
    with X^p = 0 is nilpotent, and a nilpotent one has X^n = 0, so
    X^min(p, n) = 0 is the same test.  Without a model the p-th power is
    _pmap_rows (Jacobson's formula).
    """
    f, d = g.field, int(keep.sum())
    place = _place_values(f.q, d)
    form = _trace_form(g)[np.ix_(keep, keep)]
    # Q(x) = x . form . x^T vanishes identically when its coefficients do:
    # the diagonal and form[i, j] + form[j, i] off it
    if not (form.diagonal().any() or f.varr_add(form, form.T).any()):
        form = None
    if g.matrix_model:
        shape = g._model.shape[1:]
        model = g._model.reshape(g.dim, -1)[keep]  # the matrices of B
    scalars = np.arange(1, f.q, dtype=np.int64)[:, None, None]
    codes, coeffs = [np.zeros(1, dtype=np.int64)], [np.zeros((1, d), dtype=np.int64)]
    for r in _line_codes(f.q, d):
        digits = _digits(r, f.q, d)
        if form is not None:
            digits = digits[f.quadratic(digits, form) == 0]
        if g.matrix_model:
            m = f.matmul(digits, model).reshape((-1,) + shape)
            digits = digits[~f.matpow(m, min(f.p, shape[0])).any(axis=(1, 2))]
        else:
            digits = digits[~g._pmap_rows(_placed(digits, keep)).any(axis=1)]
        multiples = f.varr_mul(scalars, digits).reshape(-1, d)
        codes.append(multiples @ place)
        coeffs.append(multiples)
    codes, coeffs = np.concatenate(codes), np.concatenate(coeffs)  # drops the pieces
    return _placed(coeffs[np.argsort(codes)], keep)


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


def _combinations(f, codes, basis):
    """The combinations of the rows of basis with coefficient vectors _digits(codes)."""
    return f.matmul(_digits(codes, f.q, len(basis)), basis)


def centralizer(g: RestrictedLieAlgebra, x: Vec):
    """Basis of ker(ad x) as coordinate tuples."""
    return mat_kernel_basis(Mat(g.field, g.ad(x)))


def is_elementary(g: RestrictedLieAlgebra, basis) -> bool:
    """Independent, pairwise commuting, p-map zero.

    The rows B of basis are independent when every row of their RREF holds
    a pivot, commute when every [b_i, b_j], read off ad(B) . B^T, is zero,
    and are p-nilpotent when every b_i^[p] is zero.
    """
    b = np.array(basis, dtype=np.int64).reshape(-1, g.dim)
    if not len(b):
        return True
    f = g.field
    return bool(_rref(f, b[None])[1].sum() == len(b)
                and not f.matmul(g.ad(b), b.T).any()
                and not g._pmap_rows(b).any())


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
    xs = np.concatenate([f.varr_scale(f.p ** i, classes[picks]) for i in range(f.k)])
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
    return f.trunc_exp(np.concatenate([f.varr_scale(f.p ** i, ders) for i in range(f.k)]))


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
    of them when that is {0}; _quotient_search).  Row i of coords (n x d)
    holds class i's coordinates in B, its entries at those columns, and row i
    of points (n x dim) the same vector in g's coordinates.  A coordinate
    vector's code is its dot product with q**(d-1), ..., q, 1, and _table
    sends the code of every nonzero multiple of class i to i and every other
    code to n.

    automorphisms are verified automorphisms of (g, [p]) as d x d matrices
    acting on coordinate rows (srk_brute passes _automorphisms(g, coords)).
    labels[i] is the least class of class i's orbit under the group they
    generate, and the roots are the classes with labels[i] == i; without
    automorphisms every class is a root.  One clique query,
    _cliques_through, serves the ranks and the witnesses: commuting[i] is the
    bitmask of the classes in ker(ad(points[i]) . B^T), built batch by batch
    for the classes a query starts from and their neighbours, and 0 for the
    others.  cliques holds (rank, bitmask) for each maximal clique of the
    commuting graph that meets a root, a maximal elementary subalgebra of
    the subspace, and ranks[i] is the largest rank of a clique through
    labels[i], that is r(points[i]) there: local rank is invariant under
    automorphisms.  Each clique enumeration visits at most budget nodes, and
    the masks hold at most _MASK_BITS_PER_BUDGET * budget bits.
    """

    def __init__(self, g: RestrictedLieAlgebra, coords, keep, budget, automorphisms=()):
        self.g = g
        self.f = f = g.field
        self.n, d = coords.shape
        self.keep = keep
        self.coords = coords
        self.points = _placed(coords, keep)
        self._budget = budget
        scalars = np.arange(1, f.q, dtype=np.int64)
        multiples = f.varr_mul(scalars[:, None, None], coords[None])  # [c - 1, i] = c * coords[i]
        self._place = _place_values(f.q, d)
        self._table = np.full(f.q ** d, self.n, dtype=np.int32)  # n: no class
        self._table[multiples @ self._place] = np.arange(self.n, dtype=np.int32)
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
        than _MASK_BITS_PER_BUDGET * budget bits.  A batch of classes takes
        one stacked ad(u), whose columns at keep are ad(u) . B^T, and one
        stacked elimination for all its u; the kernels of equal dimension then
        go through _span_masks together.
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
        step = (_CHUNK << 2) // max(1, g.dim * d)  # (step, dim, d) stacks: <= 4 * _CHUNK codes
        for start in range(0, len(which), step):
            part = which[start:start + step]
            vectors, free = _kernels(f, g.ad(self.points[part])[..., self.keep])
            dims = free.sum(axis=1)
            for k in np.flatnonzero(np.bincount(dims)).tolist():
                rows = np.flatnonzero(dims == k)
                kernels = vectors[rows][free[rows]].reshape(len(rows), k, d)
                for i, mask in zip(part[rows].tolist(), self._span_masks(kernels)):
                    masks[i] = mask
        self._built = built + len(which)

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

    def max_tuple_containing(self, xi, points=None, classes=None, centre_dim=0):
        """(r, witness, True): the largest rank r of an elementary subalgebra
        through candidate xi, and the least basis, in candidate order, of
        such a subalgebra that starts with the candidate.

        The candidates are the rows of points (in g's coordinates, in the
        order that defines "least"), and classes[j] is the class of points[j]
        modulo an ideal of dimension centre_dim that lies in every maximal
        elementary subalgebra, or n when points[j] lies in that ideal.
        srk_brute and local_rank pass the classes of the searched algebra's
        nullcone and its central elementary ideal; by default the candidates
        are the search's own classes.  So r is
        centre_dim plus s, the largest rank of a clique through classes[xi]
        (through any class when that is n).

        The witness is picked greedily: each pick is the least candidate
        outside the span of the picks so far whose class, with the classes
        of those picks, lies in a clique of rank s (_allowed).  In srk_brute
        and local_rank the first pick outside the ideal is a root, so their
        picks read cliques only; a pick of another class enumerates the
        cliques through the least class picked.  A candidate passed over at
        one pick lies in no rank-r subalgebra over the picks, so none later
        either: the greedy basis is the lexicographically least tuple that
        spans one.  The constant third entry keeps the (r, witness,
        exhausted) shape that bench/layers.py reads.
        """
        f, n = self.f, self.n
        if points is None:
            points, classes = self.points, np.arange(n)
        ranks = np.array(self.ranks + [max(self.ranks, default=0)], dtype=np.int64)
        s = int(ranks[classes[xi]])
        picks, members = [xi], 0 if classes[xi] == n else 1 << int(classes[xi])
        for _ in range(centre_dim + s - 1):
            span, pivots = _rref(f, points[picks][None])
            cols = np.flatnonzero(pivots[0])
            residual = f.varr_add(points, f.varr_neg(f.matmul(points[:, cols], span[0])))
            outside = residual.any(axis=1)
            j = int(np.flatnonzero(outside & self._allowed(members, s)[classes])[0])
            picks.append(j)
            if classes[j] < n:
                members |= 1 << int(classes[j])
        return centre_dim + s, [tuple(v) for v in points[picks].tolist()], True

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


def _projective_reps(f, vecs):
    """The ascending indices of the rows of vecs whose first nonzero
    coordinate is 1.

    vecs must be closed under F_q^x scaling (a nullcone is), so these rows
    are exactly one representative per projective class.
    """
    if not vecs.shape[1]:  # F_q^0 has no nonzero vector
        return np.zeros(0, dtype=np.int64)
    lead = vecs[np.arange(len(vecs)), (vecs != 0).argmax(axis=1)]
    return np.flatnonzero(lead == f.one)


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
    vecs = nullcone(h, budget=budget)
    search, reps, of = _quotient_search(h, vecs, budget, orbits=False)
    points = f.matmul(vecs[reps], zbasis)
    lead = next(c for c in x if c)  # x's projective representative is x / lead
    rep = f.varr_scale(f.inv(lead), np.array(x, dtype=np.int64))
    xi = int(np.flatnonzero((points == rep).all(axis=1))[0])
    r, witness, _ = search.max_tuple_containing(xi, points, of[reps], len(_central_elementary(h)))
    witness[0] = x  # report the caller's point, not its projective representative
    return LocalRank(rank=r, witness=ElementarySubalgebra(tuple(witness)))


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
    the orbit roots only.  The witness is the least maximal tuple through the
    least point of minimal rank, in g's lexicographic order.  budget caps
    the nullcone points, the commuting-mask bits and the nodes of each
    clique search.
    """
    vecs = nullcone(g, budget=budget)
    if len(vecs) == 1:  # just 0
        return SrkBrute(srk=0, r_min=0, o_rmin_count=0, o_rmin=vecs[1:],
                        witness=None, note="restricted nullcone is {0}; srk reported as 0")
    search, reps, of = _quotient_search(g, vecs, budget, orbits=True)
    centre_dim = len(_central_elementary(g))
    ranks = centre_dim + np.array(search.ranks + [max(search.ranks, default=0)])[of]
    m = int(ranks[1:].min())
    o_rmin = vecs[1:][ranks[1:] == m]
    _, wit, _ = search.max_tuple_containing(int(np.argmax(ranks[reps] == m)), vecs[reps],
                                            of[reps], centre_dim)
    return SrkBrute(srk=m, r_min=m, o_rmin_count=len(o_rmin), o_rmin=o_rmin,
                    witness=ElementarySubalgebra(tuple(wit)), note="")


def _quotient_search(g: RestrictedLieAlgebra, vecs, budget, orbits):
    """The search on the classes of V(g) n span B, B the standard basis
    vectors off the pivots of the central elementary ideal C, and where it
    puts each nullcone point.

    vecs is nullcone(g).  Returns (search, reps, of): the _TupleSearch in B's
    coordinates, with the verified automorphisms (_automorphisms) when
    orbits; the ascending indices of the rows of vecs that are one point per
    projective class (_projective_reps); and of[i], the class of vecs[i]
    modulo C, or search.n when vecs[i] lies in C.
    """
    f, centre = g.field, _central_elementary(g)
    keep = _off_pivots(centre)
    reps = _projective_reps(f, vecs)  # one point per class of g, in lexicographic order
    # the classes of V(g) n span B are those zero on C's pivots, and their
    # coordinates in B are their entries off the pivots
    classes = vecs[np.ix_(reps[~vecs[np.ix_(reps, ~keep)].any(axis=1)], keep)]
    search = _TupleSearch(g, classes, keep, budget, _automorphisms(g, classes) if orbits else ())
    return search, reps, search._table[_part_in_span(f, vecs, centre, keep) @ search._place]


def _part_in_span(f, vecs, centre, keep):
    """The coordinates in B of b, for each row x = b + c of vecs with b in
    span B and c in C: c = x[pivots] . centre, since centre is in RREF, and
    B's coordinates are the entries off the pivots.  One elementwise product
    per row of centre keeps the temporaries at the size of the result."""
    part, negated = vecs[:, keep], f.varr_neg(centre[:, keep])
    for t, col in enumerate(np.flatnonzero(~keep).tolist()):
        part = f.varr_add(part, f.varr_mul(vecs[:, col, None], negated[t]))
    return part


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
