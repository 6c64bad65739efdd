import ast
import functools
import hashlib
import itertools
import json
import math
import pathlib
import random
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satrank import BudgetError, PreconditionError, lie, slnorbits
from satrank.fields import Mat, _rref, field_make, mat_rank, mat_solve
from satrank.lie import (
    RestrictedLieAlgebra,
    abelian_p_trivial,
    centralizer,
    from_matrix_basis,
    heisenberg,
    is_elementary,
    lie_report,
    load_lie,
    local_rank,
    nullcone,
    point_rows,
    sl_coords,
    sl_matrices,
    special_linear,
    srk_brute,
    toral,
)
from satrank.oracle import oracle_srk_lie

F3 = field_make(3, 1)
F5 = field_make(5, 1)


def sl2_structure_only(field):
    """sl2 by structure constants alone (no matrix model), basis e, f, h."""
    one = field.one
    two = field.add(one, one)
    brackets = {
        (0, 1): {2: one},                 # [e,f] = h
        (1, 0): {2: field.neg(one)},
        (2, 0): {0: two},                 # [h,e] = 2e
        (0, 2): {0: field.neg(two)},
        (2, 1): {1: field.neg(two)},      # [h,f] = -2f
        (1, 2): {1: two},
    }
    pmap = [(0, 0, 0), (0, 0, 0), (0, 0, field.one)]  # h^[p] = h
    return RestrictedLieAlgebra(field, brackets, pmap, labels=["e", "f", "h"])


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------

def test_heisenberg_examples():
    h = heisenberg(1, F3)
    assert h.dim == 3
    h.validate()
    h2 = heisenberg(2, F5)
    assert h2.dim == 5
    x1, y2 = h2.basis_vec(0), h2.basis_vec(3)
    assert not any(h2.bracket(x1, y2))       # [x1, y2] = 0
    x1b, y1 = h2.basis_vec(0), h2.basis_vec(2)
    z = h2.basis_vec(4)
    assert h2.bracket(x1b, y1) == z
    for i in range(h2.dim):
        assert not any(h2.bracket(z, h2.basis_vec(i)))  # z central


def test_heisenberg_rejects_p2():
    with pytest.raises(PreconditionError):
        heisenberg(1, field_make(2, 1))


def test_sl2_validates_fully():
    for f in (F3, F5, field_make(3, 2)):
        special_linear(2, f).validate()
    sl2_structure_only(F3).validate()
    with pytest.raises(PreconditionError, match="validate must be 'full' or 'none'"):
        RestrictedLieAlgebra(F3, {}, [(0,)], validate="model")


def test_matrix_model_solved_once(monkeypatch):
    # special_linear solves the 8 p-th powers of sl_3 with one solver, and
    # the 8 x 8 commutators once, on the first read of the ad tensor, which
    # validate() makes and then checks without solving them again;
    # from_matrix_basis solves both at construction, d^2 + d rows in all,
    # and does not check the tables it got against that same solve again
    made, rows = [], []
    init, solve_rows = lie._CoordSolver.__init__, lie._CoordSolver.solve_rows

    def counting_init(self, *args):
        made.append(self)
        init(self, *args)

    def counting_solve_rows(self, flat):
        rows.append(flat.size // flat.shape[-1])
        return solve_rows(self, flat)

    monkeypatch.setattr(lie._CoordSolver, "__init__", counting_init)
    monkeypatch.setattr(lie._CoordSolver, "solve_rows", counting_solve_rows)
    g = special_linear.__wrapped__(3, F5)
    assert len(made) == 1 and sum(rows) == 8
    assert g.coords_of_matrix(g.matrix_of(g.basis_vec(2))) == g.basis_vec(2)
    rows.clear()
    x = g.ad(g.basis_vec(0))
    assert sum(rows) == 8 * 8
    assert g.bracket(g.basis_vec(0), g.basis_vec(1)) == tuple(x[:, 1].tolist())
    assert np.array_equal(g.ad(g.basis_vec(0)), x) and sum(rows) == 8 * 8
    rows.clear()
    h = special_linear.__wrapped__(3, F5)
    h.bracket(h.basis_vec(0), h.basis_vec(1))
    h.ad(h.basis_vec(1))
    assert sum(rows) == 8 + 8 * 8
    k = special_linear.__wrapped__(3, F5)
    rows.clear()
    k.validate()
    assert sum(rows) == 8 * 8 + 8
    k.validate()
    assert sum(rows) == 8 * 8 + 8 + 8
    rows.clear()
    from_matrix_basis(F5, g.matrix_model)
    assert len(made) == 4 and sum(rows) == 8 * 8 + 8


def _reference_solve(field, mats, flat):
    """(coordinates, inside span) of the raveled matrices flat by row-reducing
    the N x (d + N) matrix [B^T | I_N], whose first d columns are the d
    raveled basis matrices: the first d rows of the identity block give the
    coordinates, the other rows the residual."""
    b = np.stack([m.a for m in mats]).reshape(len(mats), -1).T
    n, d = b.shape
    r, pivots = _rref(field, np.concatenate([b, np.eye(n, dtype=np.int64)], axis=1)[None])
    assert pivots[0, :d].all()
    t = field.matmul(flat, r[0, :, d:].T)
    return t[:, :d], ~t[:, d:].any(axis=1)


def _random_basis(field, rng, d, m):
    """d independent random m x m matrices."""
    while True:
        a = rng.integers(0, field.q, size=(d, m * m))
        if mat_rank(Mat(field, a)) == d:
            return [Mat(field, row.reshape(m, m)) for row in a]


@pytest.mark.parametrize("field", [F5, field_make(3, 2)], ids=["F5", "F9"])
@pytest.mark.parametrize("shape", ["5_of_6x6", "sl3"])
def test_coord_solver_matches_full_elimination(field, shape):
    # d much smaller than N (5 matrices in a space of 36) and d = N - 1 (sl_3)
    rng = np.random.default_rng(7 * field.q)
    mats = (_random_basis(field, rng, 5, 6) if shape == "5_of_6x6"
            else special_linear(3, field).matrix_model)
    solver = lie._CoordSolver(field, mats)
    d, n = len(mats), mats[0].a.size
    c = rng.integers(0, field.q, size=(40, d))
    inside_rows = field.matmul(c, solver.model.reshape(d, -1))
    flat = np.concatenate([inside_rows, rng.integers(0, field.q, size=(40, n))])
    coords, inside = solver.solve_rows(flat)
    ref_coords, ref_inside = _reference_solve(field, mats, flat)
    assert (inside == ref_inside).all()
    assert inside[:40].all() and not inside[40:].all()
    assert (coords[inside] == ref_coords[inside]).all()
    assert (coords[:40] == c).all()
    one, one_inside = solver.solve_rows(flat[0])  # one raveled matrix, as coords_of_matrix asks
    assert one_inside and one.tolist() == c[0].tolist()


@pytest.mark.parametrize("field", [F5, field_make(3, 2)], ids=["F5", "F9"])
def test_coord_solver_rejects_a_dependent_basis(field):
    mats = _random_basis(field, np.random.default_rng(field.q), 4, 3)
    for extra in (mats[0] + mats[1].scale(2), Mat.zeros(field, 3, 3), mats[2]):
        with pytest.raises(PreconditionError):
            lie._CoordSolver(field, mats + [extra])


@pytest.mark.parametrize("build", [
    lambda: from_matrix_basis(F3, []),
    lambda: from_matrix_basis(F3, np.zeros((0, 2, 2), dtype=np.int64)),
    lambda: from_matrix_basis(F3, [Mat.identity(F3, 2), Mat.identity(F3, 3)]),
    lambda: from_matrix_basis(F3, np.zeros((1, 0, 0), dtype=np.int64)),
    lambda: from_matrix_basis(F3, np.eye(2, dtype=np.int64)),
    lambda: RestrictedLieAlgebra(F3, {}, [(0,)], matrix_model=[Mat(F3, [[1, 0, 0]])]),
], ids=["empty", "empty_stack", "ragged", "zero_size", "one_matrix", "non_square"])
def test_a_model_that_is_no_stack_of_square_matrices_is_refused(build):
    with pytest.raises(PreconditionError, match="nonempty list of square matrices of one size"):
        build()


def test_an_empty_model_list_is_no_model():
    g = RestrictedLieAlgebra(F3, {}, [(0,)], matrix_model=[])
    assert g.matrix_model is None and g._coord_solver is None


def test_a_mat_reads_as_its_codes_and_refuses_numpy_operators():
    m = Mat(F3, [[1, 2], [0, 1]])
    # NumPy 1 calls __array__ with no copy argument, or with a dtype only
    assert m.__array__() is m.a and m.__array__(np.int64) is m.a
    assert m.__array__(np.float64).tolist() == [[1.0, 2.0], [0.0, 1.0]]
    assert m.__array__(copy=True) is not m.a and np.array_equal(m.__array__(copy=True), m.a)
    assert np.asarray([m, m], dtype=np.int64).shape == (2, 2, 2)
    # numpy arithmetic would give unreduced codes: it raises instead
    for op in (lambda: np.int64(2) * m, lambda: np.add(m.a, m), lambda: m.a * m):
        with pytest.raises(TypeError):
            op()


def test_from_matrix_basis_copies_a_code_stack():
    g = special_linear(2, F3)
    stack = g._model.copy()
    h = from_matrix_basis(F3, stack)
    stack[0, 0, 1] = 2
    assert h._model is not stack and np.array_equal(h._model, g._model)
    model = [Mat(F3, m) for m in g._model]
    k = RestrictedLieAlgebra(F3, {}, g.pmap, matrix_model=model, validate="none")
    model[0].a[0, 1] = 2
    assert np.array_equal(k._model, g._model)


@pytest.mark.parametrize("n,field", [(2, F3), (3, F5), (2, field_make(3, 2))],
                         ids=["sl2_F3", "sl3_F5", "sl2_F9"])
def test_from_matrix_basis_reads_a_code_stack_as_its_mats(n, field):
    g = special_linear(n, field)
    from_mats = from_matrix_basis(field, g.matrix_model)
    from_stack = from_matrix_basis(field, g._model.copy())
    for name in ("_adb", "_pmap", "_model"):
        assert np.array_equal(getattr(from_mats, name), getattr(from_stack, name)), name
    assert from_mats.pmap == from_stack.pmap == g.pmap


def test_the_model_is_held_once():
    # one (d, n, n) stack, shared with the solver; matrix_model hands out copies
    g = special_linear(3, F5)
    assert g._coord_solver.model is g._model and g._model.shape == (8, 3, 3)
    assert not hasattr(g._coord_solver, "mats") and not hasattr(lie._CoordSolver, "solve")
    before = g._model.copy()
    mats = g.matrix_model
    assert [m.tolist() for m in mats] == before.tolist()
    mats[0].a[0, 1] = 2
    mats[1] = mats[1] + mats[1]
    assert np.array_equal(g._model, before) and g.matrix_model[0].tolist() == before[0].tolist()
    assert heisenberg(1, F5).matrix_model is None and heisenberg(1, F5)._model is None


def test_coords_of_matrix_refuses_another_shape():
    # 2 x 2 once raised IndexError; a 4 x 4 E_03 read its flat index 3 as
    # E_10 of a 3 x 3 matrix, and a 4 x 4 E_33 came out as zero
    g = special_linear(3, F3)
    for shape, entry in [((2, 2), (0, 1)), ((4, 4), (0, 3)), ((4, 4), (3, 3))]:
        m = np.zeros(shape, dtype=np.int64)
        m[entry] = 1
        with pytest.raises(PreconditionError, match=r"shape \(\d, \d\), model matrices of \(3, 3\)"):
            g.coords_of_matrix(Mat(F3, m))
    e01 = np.zeros((3, 3), dtype=np.int64)
    e01[0, 1] = 1
    assert g.coords_of_matrix(Mat(F3, e01)) == g.coords_of_matrix(e01) == g.basis_vec(0)


def _support_bracket(g, x, y):
    """[x, y] as the ad tensor contracted over the supports of x and y only."""
    f = g.field
    x, y = np.asarray(x, dtype=np.int64), np.asarray(y, dtype=np.int64)
    i, j = np.flatnonzero(x), np.flatnonzero(y)
    return tuple(f.matmul(x[i], f.matmul(g._adb[i][:, :, j], y[j])).tolist())


_BRACKET_CASES = {
    "sl3_F3": lambda: special_linear(3, F3),
    "h5_F3": lambda: heisenberg(2, F3),
    "sl2_F9": lambda: special_linear(2, field_make(3, 2)),
    "h3_F27": lambda: heisenberg(1, field_make(3, 3)),
}


@pytest.mark.parametrize("name", sorted(_BRACKET_CASES))
def test_bracket_is_the_support_restricted_contraction(name):
    g = _BRACKET_CASES[name]()
    rng = np.random.default_rng(g.dim * g.field.q)
    vecs = ([g.zero()] + [g.basis_vec(i) for i in range(g.dim)]
            + [tuple(v) for v in rng.integers(0, g.field.q, (10, g.dim)).tolist()])
    for x in vecs:
        for y in vecs:
            got = g.bracket(x, y)
            assert got == _support_bracket(g, x, y)
            assert all(type(c) is int for c in got)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("n", [3, 4])
def test_from_matrix_basis_tensor_is_the_dict_built_one(n, seed):
    # the tables of a random GL basis, once from the commutator tensor and
    # once from brackets solved pair by pair and handed over as a dict
    g = _gl_based(special_linear(n, F5), seed)
    f, mats = g.field, g.matrix_model
    flat = np.stack([(a @ b - b @ a).a.ravel() for a in mats for b in mats])
    coords, inside = _reference_solve(f, mats, flat)
    assert inside.all()
    pairs = itertools.product(range(g.dim), repeat=2)
    brackets = {ij: {k: c for k, c in enumerate(row) if c} for ij, row in zip(pairs, coords.tolist())}
    ref = RestrictedLieAlgebra(f, brackets, g.pmap, labels=g.labels, matrix_model=mats)
    assert g._adb.dtype == ref._adb.dtype and np.array_equal(g._adb, ref._adb)
    assert np.array_equal(g._pmap, ref._pmap) and g.pmap == ref.pmap


def _commutator_rows(solver, i):
    """solve_rows of the commutators [m_i, m_j] over all j, one row of i alone."""
    f, model = solver.field, solver.model
    comm = f.varr_add(f.matmul(model[i], model), f.varr_neg(f.matmul(model, model[i])))
    return solver.solve_rows(comm.reshape(solver.dim, -1))


def test_commutators_across_blocks():
    g = special_linear(7, F5)  # d = 48 and 49 entries per matrix: several blocks
    solver = g._coord_solver
    assert 1 < lie._PRODUCT_BLOCK // (g.dim * 49) < g.dim // 3
    adb, inside = solver.commutators()
    assert inside.all() and np.array_equal(adb, g._adb)
    for i in range(g.dim):
        coords, row_inside = _commutator_rows(solver, i)
        assert row_inside.all() and np.array_equal(adb[i], coords.T)


def test_a_model_leaving_its_span_in_a_late_block_is_named():
    # sl_7 in the top left 7 x 7 block of 9 x 9 matrices, then E_78 and E_87:
    # [E_78, E_87] = E_77 - E_88 leaves the span, and every other commutator
    # lies in it, so the first bad pair is (48, 49), in the last block
    g = special_linear(7, F5)
    mats = np.zeros((50, 9, 9), dtype=np.int64)
    mats[:48, :7, :7] = g._model
    mats[48, 7, 8] = mats[49, 8, 7] = 1
    model = [Mat(F5, m) for m in mats]
    solver = lie._CoordSolver(F5, model)
    step = lie._PRODUCT_BLOCK // (50 * 81)
    assert 48 // step == 49 // step == (50 - 1) // step > 1  # the last of several blocks
    first = next((i, int(np.flatnonzero(~inside)[0]))
                 for i, (_, inside) in enumerate(_commutator_rows(solver, i) for i in range(50))
                 if not inside.all())
    assert first == (48, 49)
    brackets = {(i, j): {k: c for k, c in enumerate(g._adb[i][:, j].tolist()) if c}
                for i in range(48) for j in range(48)}
    with pytest.raises(PreconditionError, match=r"disagrees with table at \(48,49\)$"):
        RestrictedLieAlgebra(F5, brackets, [(0,) * 50] * 50, matrix_model=model)
    # the same first pair when the tables are the model's own solve, on first read
    lazy = lie._model_algebra(F5, solver, None)
    with pytest.raises(PreconditionError, match=r"disagrees with table at \(48,49\)$"):
        lazy.validate()
    with pytest.raises(PreconditionError, match="not closed under commutators"):
        from_matrix_basis(F5, model)


@pytest.mark.parametrize("field", [F5, field_make(3, 2)], ids=["F5", "F9"])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_sl_maps_agree_with_special_linear(n, field):
    g = special_linear(n, field)
    coords = np.random.default_rng(n).integers(0, field.q, (16, g.dim))
    mats = sl_matrices(n, field, coords)
    assert [m.tolist() for m in mats] == [g.matrix_of(tuple(x)).tolist() for x in coords]
    assert [tuple(x) for x in sl_coords(field, mats).tolist()] == \
        [g.coords_of_matrix(Mat(field, m)) for m in mats]
    assert (sl_coords(field, mats) == coords).all()


def test_sl_coords_rejects_a_nonzero_trace():
    with pytest.raises(PreconditionError, match="trace"):
        sl_coords(F5, np.diag([1, 0, 0]))
    f9 = field_make(3, 2)  # codes 1, 2 are 1, -1; code 3 is x, so diag(x, x) has trace 2x
    assert sl_coords(f9, np.diag([1, 2])).tolist() == [0, 0, 1]
    with pytest.raises(PreconditionError, match="trace"):
        sl_coords(f9, np.diag([3, 3]))


def test_bad_structure_constants_rejected():
    one = F3.one
    with pytest.raises(PreconditionError):
        # not antisymmetric
        RestrictedLieAlgebra(F3, {(0, 1): {2: one}, (1, 0): {2: one}},
                             [(0,) * 3] * 3)
    with pytest.raises(PreconditionError):
        # breaks restrictedness: abelian but pmap hits a non-central direction
        RestrictedLieAlgebra(F3, {(0, 1): {2: one}, (1, 0): {2: F3.neg(one)}},
                             [(0, 1, 0)] + [(0,) * 3] * 2)



def test_validation_names_the_broken_identity():
    one, neg = F3.one, F3.neg(F3.one)
    # antisymmetric, but [[b0, b1], b2] + [[b1, b2], b0] + [[b2, b0], b1] = b0 != 0
    with pytest.raises(PreconditionError, match="Jacobi"):
        RestrictedLieAlgebra(F3, {(0, 1): {2: one}, (1, 0): {2: neg},
                                  (0, 2): {0: one}, (2, 0): {0: neg}}, [(0,) * 3] * 3)
    # [b0, b0] != 0 passes the antisymmetry test in characteristic 2
    with pytest.raises(PreconditionError, match=r"\[b_0, b_0\] != 0"):
        RestrictedLieAlgebra(field_make(2, 1), {(0, 0): {1: 1}}, [(0, 0), (0, 0)])
    # a matrix model that contradicts the bracket table or the p-map
    sl2 = special_linear(2, F3)
    table = {(i, j): {k: int(sl2._adb[i][k, j]) for k in range(3) if sl2._adb[i][k, j]}
             for i in range(3) for j in range(3)}
    flipped = dict(table)
    flipped[(0, 1)], flipped[(1, 0)] = table[(1, 0)], table[(0, 1)]  # [e, f] = -h
    with pytest.raises(PreconditionError, match="commutator disagrees"):
        RestrictedLieAlgebra(F3, flipped, sl2.pmap, matrix_model=sl2.matrix_model)
    with pytest.raises(PreconditionError, match="p-th power disagrees"):
        RestrictedLieAlgebra(F3, table, [(0, 0, 0)] * 3, matrix_model=sl2.matrix_model)


def _pointwise_jacobi_failure(g):
    """The first basis triple (i, j, k) in row-major order where
    [[b_i, b_j], b_k] differs from [b_i, [b_j, b_k]] - [b_j, [b_i, b_k]],
    with every bracket read off the table coefficient by coefficient; None
    when the identity holds on every triple."""
    f, n = g.field, g.dim

    def bracket(x, y):
        out = [0] * n
        for a, b in itertools.product(range(n), repeat=2):
            c = f.mul(x[a], y[b])
            for t in range(n) if c else ():
                out[t] = f.add(out[t], f.mul(c, int(g._adb[a, t, b])))
        return out

    basis = [list(g.basis_vec(i)) for i in range(n)]
    for i, j, k in itertools.product(range(n), repeat=3):
        u, v, w = basis[i], basis[j], basis[k]
        rhs = [f.add(x, f.neg(y))
               for x, y in zip(bracket(u, bracket(v, w)), bracket(v, bracket(u, w)))]
        if bracket(bracket(u, v), w) != rhs:
            return i, j, k
    return None


_JACOBI_ALGEBRAS = {
    "sl2_F5": lambda: special_linear(2, F5),
    "sl2_F9": lambda: special_linear(2, field_make(3, 2)),
    "sl2_struct_F5": lambda: sl2_structure_only(F5),
    "h5_F3": lambda: heisenberg(2, F3),
    "sl3_F3": lambda: special_linear(3, F3),
}


def _looped_antisymmetry_failure(g):
    """The message of the per-basis-vector antisymmetry loop that validate's
    stacked comparison replaced, or None when the table passes it."""
    for i in range(g.dim):
        # column j of _adb[i] is [b_i, b_j], row j of _adb[:, :, i] is [b_j, b_i]
        bad = (g._adb[i] != g.field.varr_neg(g._adb[:, :, i].T)).any(axis=0)
        if bad.any():
            return f"bracket table is not antisymmetric at ({i},{np.flatnonzero(bad)[0]})"
        if g._adb[i][:, i].any():
            return f"[b_{i}, b_{i}] != 0"
    return None


_ANTISYMMETRY_ALGEBRAS = {
    "sl3_F3": lambda: special_linear(3, F3),
    "sl2_F9": lambda: special_linear(2, field_make(3, 2)),
    # antisymmetry does not imply [b_i, b_i] = 0 in characteristic 2
    "sl4_F2": lambda: special_linear(4, field_make(2, 1)),
    "h5_F3": lambda: heisenberg(2, F3),
}


@pytest.mark.parametrize("name", sorted(_ANTISYMMETRY_ALGEBRAS))
def test_antisymmetry_check_names_the_looped_first_failure(name):
    # a valid table with a few entries overwritten, one in three times on
    # the diagonal [b_i, b_i]: validate names what the loop finds first, and
    # passes on to the Jacobi identity when the loop finds nothing
    g = _ANTISYMMETRY_ALGEBRAS[name]()
    f, n = g.field, g.dim
    rng, kinds = random.Random(name), set()
    for trial in range(24):
        adb = g._adb.copy()
        for _ in range(1 + trial % 3):
            i, j, k = (rng.randrange(n) for _ in range(3))
            adb[i, k, i if trial % 3 == 0 else j] = rng.randrange(f.q)
        h = RestrictedLieAlgebra._from_arrays(f, adb, g._pmap)
        want = _looped_antisymmetry_failure(h)
        try:
            h.validate()
            got = None
        except PreconditionError as err:
            got = str(err)
        if want is None:
            assert got is None or not re.match(r"bracket table|\[b_\d+, b_\d+\] != 0", got)
        else:
            assert got == want
            kinds.add("antisymmetry" if want.startswith("bracket") else "diagonal")
    # in odd characteristic a nonzero [b_i, b_i] is not antisymmetric at (i, i)
    assert kinds == ({"antisymmetry", "diagonal"} if f.p == 2 else {"antisymmetry"})


@pytest.mark.parametrize("block", ["default", "one", "two"])
@pytest.mark.parametrize("name", sorted(_JACOBI_ALGEBRAS))
def test_jacobi_check_names_the_pointwise_first_failure(monkeypatch, name, block):
    # antisymmetric changes to a valid table: the blocked check must name
    # the triple that the pointwise reference finds first, whatever the
    # block size (one or two i per block, or _PRODUCT_BLOCK's default)
    g = _JACOBI_ALGEBRAS[name]()
    f, n = g.field, g.dim
    if block != "default":
        monkeypatch.setattr(lie, "_PRODUCT_BLOCK", {"one": 1, "two": 2 * n ** 3}[block])
    assert _pointwise_jacobi_failure(g) is None
    g._validate_jacobi()
    rng, failures = random.Random(f"{name}-{block}"), 0
    for trial in range(3):
        adb = g._adb.copy()
        for _ in range(1 + trial % 2):
            i, j = rng.sample(range(n), 2)
            k, c = rng.randrange(n), rng.randrange(1, f.q)
            adb[i, k, j] = f.add(int(adb[i, k, j]), c)
            adb[j, k, i] = f.add(int(adb[j, k, i]), f.neg(c))
        h = RestrictedLieAlgebra._from_arrays(f, adb, g._pmap)
        want = _pointwise_jacobi_failure(h)
        if want is None:
            h._validate_jacobi()
            continue
        failures += 1
        with pytest.raises(PreconditionError) as err:
            h.validate()
        assert str(err.value) == "Jacobi fails on basis triple ({},{},{})".format(*want)
    assert failures


@pytest.mark.parametrize("field", [F3, field_make(3, 2)], ids=["F3", "F9"])
def test_zero_dimensional_algebra(field):
    g = abelian_p_trivial(0, field)
    assert g.pmap_eval(()) == () and nullcone(g).tolist() == [0]
    assert point_rows(g, nullcone(g)).shape == (1, 0)
    assert srk_brute(g).srk == 0

def test_pmap_examples():
    h = heisenberg(1, F3)
    for x in h.iter_elements():
        assert not any(h.pmap_eval(x))  # [p]-trivial
    sl2 = special_linear(2, F5)
    e, hvec = sl2.basis_vec(0), sl2.basis_vec(2)
    assert not any(sl2.pmap_eval(e))
    assert sl2.pmap_eval(hvec) == hvec  # diag(1,-1)^5 = diag(1,-1) over F_5


def test_jacobson_agrees_with_matrix_powers():
    for field in (F3, F5):
        with_model = special_linear(2, field)
        bare = sl2_structure_only(field)
        for x in with_model.iter_elements():
            assert bare.pmap_eval(x) == with_model.pmap_eval(x)


def test_jacobson_p2_matrix_algebra():
    # gl_2 over F_2 from its matrix basis; Jacobson fold must match squaring
    f2 = field_make(2, 1)
    mats = []
    for i in range(2):
        for j in range(2):
            m = np.zeros((2, 2), dtype=np.int64)
            m[i, j] = 1
            mats.append(Mat(f2, m))
    gl2 = from_matrix_basis(f2, mats)
    bare = RestrictedLieAlgebra(
        f2,
        {(i, j): {k: int(gl2._adb[i][k, j]) for k in range(4) if gl2._adb[i][k, j]}
         for i in range(4) for j in range(4)},
        gl2.pmap)
    for x in gl2.iter_elements():
        assert bare.pmap_eval(x) == gl2.pmap_eval(x)



def _without_model(g):
    """g rebuilt from its bracket table and p-map alone, so x^[p] goes through
    Jacobson's formula instead of the matrix power."""
    d = g.dim
    brackets = {(i, j): {k: int(g._adb[i][k, j]) for k in range(d) if g._adb[i][k, j]}
                for i in range(d) for j in range(d)}
    return RestrictedLieAlgebra(g.field, brackets, g.pmap, labels=g.labels)


@pytest.mark.parametrize("n,p,k", [(2, 3, 2), (3, 3, 1)], ids=["sl2_F9", "sl3_F3"])
def test_jacobson_agrees_with_matrix_model_everywhere(n, p, k):
    with_model = special_linear(n, field_make(p, k))
    bare = _without_model(with_model)
    assert bare.matrix_model is None
    for x in with_model.iter_elements():
        assert bare.pmap_eval(x) == with_model.pmap_eval(x)
    assert np.array_equal(nullcone(bare), nullcone(with_model))

def test_pmap_semilinear():
    rng = random.Random(5)
    for g in (special_linear(2, F5), heisenberg(2, F3), sl2_structure_only(F3)):
        f = g.field
        for _ in range(25):
            lam = rng.randrange(f.q)
            x = tuple(rng.randrange(f.q) for _ in range(g.dim))
            lhs = g.pmap_eval(tuple(f.mul(lam, c) for c in x))
            rhs = tuple(f.mul(f.pow(lam, f.p), c) for c in g.pmap_eval(x))
            assert lhs == rhs


_SEMILINEAR_ALGEBRAS = {
    "h3_F9": lambda: heisenberg(1, field_make(3, 2)),
    "h5_F9": lambda: heisenberg(2, field_make(3, 2)),
    "h3_F27": lambda: heisenberg(1, field_make(3, 3)),
    "h5_F27": lambda: heisenberg(2, field_make(3, 3)),
    "sl2_F25": lambda: special_linear(2, field_make(5, 2)),
    "sl2_bare_F9": lambda: _without_model(special_linear(2, field_make(3, 2))),
}


@functools.lru_cache(maxsize=None)
def _semilinear_algebra(name):
    return _SEMILINEAR_ALGEBRAS[name]()


@pytest.mark.parametrize("name", sorted(_SEMILINEAR_ALGEBRAS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_pmap_is_p_semilinear_over_extension_fields(name, data):
    # (cx)^[p] = c^p x^[p]: the premise of enumerating the nullcone by lines
    g = _semilinear_algebra(name)
    f = g.field
    x = tuple(data.draw(st.lists(st.integers(0, f.q - 1), min_size=g.dim, max_size=g.dim)))
    c = data.draw(st.integers(1, f.q - 1))
    lhs = g.pmap_eval(tuple(f.mul(c, a) for a in x))
    assert lhs == tuple(f.mul(f.pow(c, f.p), a) for a in g.pmap_eval(x))


# ---------------------------------------------------------------------------
# nullcone / centralizer
# ---------------------------------------------------------------------------

def test_nullcone_examples():
    assert len(nullcone(abelian_p_trivial(2, F3))) == 9
    assert len(nullcone(special_linear(2, F3))) == 9  # 0 plus the cone a^2+bc=0
    assert len(nullcone(heisenberg(1, F3))) == 27


_NULLCONE_FILTER_CASES = {
    "sl2_F3": lambda: special_linear(2, F3),
    "h3_F9": lambda: heisenberg(1, field_make(3, 2)),
    "dim0_F3": lambda: abelian_p_trivial(0, F3),
}


@pytest.mark.parametrize("name", sorted(_NULLCONE_FILTER_CASES))
def test_nullcone_is_the_pointwise_filter_as_an_array(name):
    # iter_elements runs in lexicographic order, so the list comparison also
    # pins the order of the codes, zero first
    g = _NULLCONE_FILTER_CASES[name]()
    codes = nullcone(g)
    assert isinstance(codes, np.ndarray) and codes.dtype == np.int64 and codes.ndim == 1
    pts = point_rows(g, codes)
    assert pts.dtype == np.int64 and pts.shape == (len(codes), g.dim)
    assert pts.tolist() == [list(x) for x in g.iter_elements() if not any(g.pmap_eval(x))]
    assert (codes == pts @ g.field.q ** np.arange(g.dim - 1, -1, -1)).all()


@pytest.mark.parametrize("n,p,seed", [(3, 2, 0), (4, 2, 1), (3, 3, 2)])
def test_nullcone_is_the_pmap_scan_in_a_random_basis(n, p, seed):
    # nullcone reads x^[p] = 0 as X^p = 0 on the model matrices, filtered by
    # sigma_2 and with no solve back to coordinates; _pmap_rows solves every
    # p-th power back.  They pick the same points, in the same order, in a
    # random basis of sl_n (characteristic 2 included, where sigma_2 is the
    # only nonzero form)
    g = _gl_based(special_linear(n, field_make(p, 1)), seed)
    elements = np.array(list(g.iter_elements()), dtype=np.int64)
    assert np.array_equal(point_rows(g, nullcone(g)), elements[~g._pmap_rows(elements).any(axis=1)])


def test_an_unclosed_matrix_model_is_refused():
    # X^p = 0 is x^[p] = 0 only when X^p is the model matrix of x^[p], so a
    # model whose p-th powers leave its span is refused where an algebra gets
    # its model: from_matrix_basis checks the span's closure, and load_lie
    # and RestrictedLieAlgebra validate the model against the p-map
    # (_validate_model).  pmap_eval (_pmap_rows) keeps its own check.
    f2 = field_make(2, 1)
    swap = Mat(f2, [[0, 1], [1, 0]])  # swap^2 = I lies outside span{swap}
    with pytest.raises(PreconditionError, match="not closed under p-th powers"):
        from_matrix_basis(f2, [swap])
    with pytest.raises(PreconditionError, match="p-th power disagrees"):
        load_lie({"p": 2, "dim": 1, "matrix_model": [[0, 1, 1, 0]]})
    with pytest.raises(PreconditionError, match="p-th power disagrees"):
        RestrictedLieAlgebra(f2, {}, [(0,)], matrix_model=[swap])
    unchecked = RestrictedLieAlgebra(f2, {}, [(0,)], matrix_model=[swap], validate="none")
    with pytest.raises(PreconditionError, match="outside the span"):
        unchecked.pmap_eval((1,))


def test_nullcone_budget():
    with pytest.raises(BudgetError):
        nullcone(special_linear(2, F5), budget=10)


@pytest.mark.parametrize("p,dim", [(2, 63), (2, 64), (3, 40)])
def test_nullcone_refuses_codes_past_int64(p, dim):
    # a point's code is < q**dim, which here passes 2**63 (3**40 > 2**63 >
    # 3**39), so the codes would wrap whatever the budget: such a nullcone is
    # refused before any scan
    g = toral(dim, field_make(p, 1))
    for run in (nullcone, srk_brute):
        with pytest.raises(PreconditionError, match="does not fit in int64"):
            run(g, budget=2 ** 70)


@pytest.mark.parametrize("name", ["sl2_F9", "h3_F9", "sl3_F3_gl", "centralizer_sl4_F3",
                                  "h5_F3_gl1"])
def test_codes_are_the_rows_read_in_base_q(name):
    # point_rows inverts the codes, the representatives are the rows whose
    # first nonzero coordinate is 1, and point i is b + c with b the point of
    # span B with B-code span[part[i]] and c in the central elementary ideal
    g = _POINTWISE_NULLCONES[name][0]()
    f = g.field
    codes, span, part = lie._nullcone(g, lie.DEFAULT_BUDGET)
    assert np.array_equal(nullcone(g), codes)
    rows = point_rows(g, codes)
    assert (rows @ f.q ** np.arange(g.dim - 1, -1, -1) == codes).all()
    leads = [next((c for c in v if c), 0) for v in rows.tolist()]
    assert lie._projective_reps(f.q, codes, g.dim).tolist() == \
        [i for i, c in enumerate(leads) if c == f.one]
    centre = lie._central_elementary(g)
    keep = lie._off_pivots(centre)
    assert (np.diff(span) > 0).all() and part.dtype == np.min_scalar_type(len(span))
    c = f.varr_add(rows, f.varr_neg(lie._placed(lie._digits(span[part], f.q, keep.sum()), keep)))
    # c = c[pivots] . centre, since centre is in RREF, exactly when c lies in C
    assert (c == f.matmul(c[:, ~keep], centre)).all()
    assert (np.bincount(part, minlength=len(span)) == f.q ** len(centre)).all()


def test_toral_nullcone_trivial():
    t = toral(2, F3)
    assert nullcone(t).tolist() == [0]
    res = srk_brute(t)
    assert res.srk == 0 and "0" in res.note
    assert res.o_rmin.shape == (0, 2) and res.o_rmin_count == 0


def _nilpotent_span_all_points(g, keep):
    """The filter the line enumeration replaced: the p-th power of every
    combination of the standard basis vectors at keep, in ascending code
    order."""
    f, basis = g.field, np.eye(g.dim, dtype=np.int64)[keep]
    vecs, total = [], f.q ** len(basis)
    for start in range(0, total, lie._CHUNK):
        v = lie._combinations(f, np.arange(start, min(start + lie._CHUNK, total)), basis)
        vecs.append(v[~g._pmap_rows(v).any(axis=1)])
    return np.concatenate(vecs)


def _whole(g):
    return g, np.ones(g.dim, dtype=bool)


def _sl4_f3_highest_root_centralizer():
    # the centralizer of x = E_03 as local_rank builds it: a model of 9
    # matrices inside sl_4
    g = special_linear(4, F3)
    return _whole(_centralizer_subalgebra(g, g.basis_vec(2))[0])


def _off_centre(g):
    # the basis vectors off the pivots of the central elementary ideal, as
    # nullcone enumerates them
    return g, lie._off_pivots(lie._central_elementary(g))


_SPAN_CASES = {  # name -> (algebra, bool mask of the standard basis vectors spanned)
    "sl2_F9": lambda: _whole(special_linear(2, field_make(3, 2))),
    "sl2_F25": lambda: _whole(special_linear(2, field_make(5, 2))),
    "h3_F27": lambda: _whole(heisenberg(1, field_make(3, 3))),
    # the Killing form of sl_3 is 0 in characteristic 3, sigma_2 of its model is not
    "sl3_F3": lambda: _whole(special_linear(3, F3)),
    "sl3_F5": lambda: _whole(special_linear(3, F5)),
    "sl3_F5_gl": lambda: _whole(_gl_based(special_linear(3, F5), 2)),
    # no matrix model: sigma_2 of ad x
    "sl2_struct_F5": lambda: _whole(sl2_structure_only(F5)),
    # tr(X^2) = tr(X)^2 = 0 on sl_n in characteristic 2, sigma_2 is not
    "sl4_F2": lambda: _whole(special_linear(4, field_make(2, 1))),
    "h5_F3": lambda: _whole(heisenberg(2, F3)),
    "dim0_F9": lambda: _whole(abelian_p_trivial(0, field_make(3, 2))),
    "centralizer_sl4_F3": _sl4_f3_highest_root_centralizer,
    "h5_F3_off_centre": lambda: _off_centre(heisenberg(2, F3)),
    "sl4_F3_centralizer_off_centre": lambda: _off_centre(_sl4_f3_highest_root_centralizer()[0]),
    # C's basis row, (1, 2, 1, 2, 2), is nonzero at every column of B
    "h5_F3_gl_off_centre": lambda: _off_centre(_gl_rebased(heisenberg(2, F3), 1)),
}


@pytest.mark.parametrize("name", sorted(_SPAN_CASES))
def test_nilpotent_span_matches_all_points_filter(name):
    # the B-codes read at the columns of B
    g, keep = _SPAN_CASES[name]()
    codes = lie._nilpotent_span(g, keep)
    vecs = lie._placed(lie._digits(codes, g.field.q, keep.sum()), keep)
    want = _nilpotent_span_all_points(g, keep)
    assert codes.dtype == np.int64 and vecs.shape == want.shape
    assert np.array_equal(vecs, want) and codes[0] == 0


# name -> (algebra, d = the number of standard basis vectors the scan spans)
_POINTWISE_NULLCONES = {
    "sl2_F9": (lambda: special_linear(2, field_make(3, 2)), 3),  # model, k > 1
    "sl2_F25": (lambda: special_linear(2, field_make(5, 2)), 3),
    # sigma_2 skipped; h3_F27 takes 0.4 ms per pmap_eval, 8 s in all, and
    # test_nilpotent_span_matches_all_points_filter covers it in batches
    "h3_F9": (lambda: heisenberg(1, field_make(3, 2)), 2),
    "sl3_F3_gl": (lambda: _gl_based(special_linear(3, F3), 4), 8),
    # a nonzero central elementary ideal
    "centralizer_sl4_F3": (lambda: _sl4_f3_highest_root_centralizer()[0], 8),
    # a central elementary ideal whose basis row is nonzero off its pivot
    "h5_F3_gl1": (lambda: _gl_rebased(heisenberg(2, F3), 1), 4),
    "abelian2_F9": (lambda: abelian_p_trivial(2, field_make(3, 2)), 0),
    "toral1_F5": (lambda: toral(1, F5), 1),
}


@pytest.mark.parametrize("name", sorted(_POINTWISE_NULLCONES))
def test_nullcone_is_the_pointwise_enumeration(name):
    # every element in itertools.product order, kept where pmap_eval is zero
    build, d = _POINTWISE_NULLCONES[name]
    g = build()
    assert int(lie._off_pivots(lie._central_elementary(g)).sum()) == d
    want = [list(x) for x in g.iter_elements() if not any(g.pmap_eval(x))]
    vecs = point_rows(g, nullcone(g))
    assert vecs.dtype == np.int64 and vecs.shape == (len(want), g.dim)
    assert vecs.tolist() == want


@settings(max_examples=40, deadline=None)
@given(p_k=st.sampled_from([(2, 1), (3, 1), (7, 1), (2, 2), (3, 2), (2, 3)]),
       h=st.integers(0, 4), low=st.integers(0, 4), seed=st.integers(0, 2 ** 32 - 1))
def test_split_form_table_is_the_quadratic_form(p_k, h, low, seed):
    # entry [i, j] of the split table is Q of the row a[i] followed by b[j],
    # for any Gram matrix, symmetric or not
    f, rng = field_make(*p_k), np.random.default_rng(seed)
    form = rng.integers(0, f.q, size=(h + low, h + low))
    a, b = rng.integers(0, f.q, size=(5, h)), rng.integers(0, f.q, size=(7, low))
    left, right = lie._split_form(f, form, a, b)
    rows = np.hstack([np.repeat(a, len(b), axis=0), np.tile(b, (len(a), 1))])
    assert f.matmul(left, right).ravel().tolist() == f.quadratic(rows, form).tolist()


def test_nullcone_scan_memory_bound():
    # the scan holds sigma_2 tables of a block of a's by every b, and codes
    # until the end; its peak on sl_3/F_5 stays below 3 MB (warm caches)
    g = special_linear(3, F5)
    nullcone(g)
    tracemalloc.start()
    try:
        vecs = nullcone(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert vecs.shape == (15625,)
    assert peak <= 3_000_000


def test_srk_brute_memory_bound():
    # srk_brute keeps the nullcone as codes and builds rows for the classes,
    # the witness picks and o_rmin only, which it expands after the search
    # is released; on sl_3/F_5 (15625 points, 3906 classes) the peak stays
    # below 3.5 MB (warm caches), where rows for every point took 5.2 MB
    g = special_linear(3, F5)
    srk_brute(g)
    tracemalloc.start()
    try:
        res = srk_brute(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.o_rmin.shape == (15624, 8)
    assert peak <= 3_500_000

def _form_matrix(g, x):
    """The matrix whose sigma_2 the form takes: x's model matrix, else ad(x)."""
    return g.matrix_of(x) if g.matrix_model else Mat(g.field, g.ad(x))


def _pointwise_sigma_2(g, x):
    """The sum of the principal 2 x 2 minors of _form_matrix(g, x), minor by
    minor."""
    f, m = g.field, _form_matrix(g, x).tolist()
    total = 0
    for i, j in itertools.combinations(range(len(m)), 2):
        minor = f.add(f.mul(m[i][i], m[j][j]), f.neg(f.mul(m[i][j], m[j][i])))
        total = f.add(total, minor)
    return total


def _leading_one(f, v):
    """v scaled so that its first nonzero coordinate is 1."""
    lead = next(c for c in v if c)
    return tuple(f.mul(f.inv(lead), c) for c in v)


@pytest.mark.parametrize("name", ["sl2_F25", "h3_F27", "sl3_F3", "centralizer_sl4_F3",
                                  "sl2_struct_F5", "sl4_F2"])
def test_nilpotent_span_takes_one_pth_power_per_line(monkeypatch, name):
    # at most one p-th power per line, and as many as there are lines whose
    # sigma_2 is 0; those are counted here point by point, one coefficient
    # vector with first nonzero coefficient 1 per line.  With a matrix model
    # the power is _nilpotent_matrices on the model matrices, else
    # _pmap_rows; a power is recorded as its raveled matrix or coordinate
    # row, and the model is faithful, so distinct lines give distinct
    # projective rows either way.
    g, keep = _SPAN_CASES[name]()
    f, basis = g.field, np.eye(g.dim, dtype=np.int64)[keep]
    d = len(basis)
    seen = []
    pmap_rows, nilpotent = RestrictedLieAlgebra._pmap_rows, lie._nilpotent_matrices

    def counted_pmap(self, x):
        seen.append(x.copy())
        return pmap_rows(self, x)

    def counted_nilpotent(f, m, e):
        seen.append(m.reshape(len(m), -1))
        return nilpotent(f, m, e)

    monkeypatch.setattr(RestrictedLieAlgebra, "_pmap_rows", counted_pmap)
    monkeypatch.setattr(lie, "_nilpotent_matrices", counted_nilpotent)
    lie._nilpotent_span(g, keep)
    rows = [tuple(v) for part in seen for v in part.tolist()]
    assert len({_leading_one(f, v) for v in rows}) == len(rows)
    vanishing = 0
    for coeffs in itertools.product(range(f.q), repeat=d):
        if any(coeffs) and next(c for c in coeffs if c) == f.one:
            x = tuple(f.matmul(np.array(coeffs, dtype=np.int64), basis).tolist())
            vanishing += _pointwise_sigma_2(g, x) == 0
    assert len(rows) == vanishing
    assert max(map(len, seen)) <= lie._CHUNK


def test_nilpotent_matrices_takes_the_full_power_after_the_row(monkeypatch):
    # on sl_4 over F_2 the first row of X^2 rejects most sigma_2 survivors,
    # but some pass it and fail the full power, so both stages do work
    g, keep = _SPAN_CASES["sl4_F2"]()
    f = g.field
    tested, powered, failed = [], [], []
    nilpotent, matpow = lie._nilpotent_matrices, type(f).matpow

    def counted_nilpotent(f, m, e):
        tested.append(len(m))
        return nilpotent(f, m, e)

    def counted_matpow(self, a, e):
        out = matpow(self, a, e)
        powered.append(len(a))
        failed.append(int(out.any(axis=(1, 2)).sum()))
        return out

    monkeypatch.setattr(lie, "_nilpotent_matrices", counted_nilpotent)
    monkeypatch.setattr(type(f), "matpow", counted_matpow)
    lie._nilpotent_span(g, keep)
    assert 0 < sum(failed) < sum(powered) < sum(tested)


@pytest.mark.parametrize("name,skipped", [("sl3_F3", False), ("sl3_F5", False),
                                          ("sl2_struct_F5", False), ("sl4_F2", False),
                                          ("h5_F3", True), ("h3_F27", True)])
def test_trace_form_is_the_square_trace(name, skipped):
    # the quadratic form is sigma_2 of the model matrix (of ad x without a
    # model), point by point, and vanishes identically exactly when skipped;
    # on these traceless matrices it is -tr(X^2)/2 when p != 2
    g, _ = _SPAN_CASES[name]()
    f, form = g.field, lie._trace_form(g)
    assert lie._trace_form(g) is form  # once per algebra
    step = max(7, g.element_count() // 3000)
    elements = np.array(list(itertools.islice(g.iter_elements(), 0, None, step)), dtype=np.int64)
    values = f.quadratic(elements, form)
    assert values.tolist() == [_pointwise_sigma_2(g, tuple(x)) for x in elements.tolist()]
    assert (not values.any()) == skipped
    if f.p != 2:
        half = f.inv(2)
        assert values.tolist() == [f.neg(f.mul(half, (_form_matrix(g, x) @ _form_matrix(g, x)).trace()))
                                   for x in map(tuple, elements.tolist())]
    if name == "sl3_F3":  # the Killing form would reject nothing here
        basis = [g.basis_vec(i) for i in range(g.dim)]
        assert all((Mat(f, g.ad(u)) @ Mat(f, g.ad(v))).trace() == 0
                   for u, v in itertools.product(basis, repeat=2))
    if name == "sl4_F2":  # nor would the square trace
        assert all((_form_matrix(g, x) @ _form_matrix(g, x)).trace() == 0
                   for x in map(tuple, elements.tolist()))


_FORM_ALGEBRAS = {
    "sl2_F9": lambda: special_linear(2, field_make(3, 2)),
    "sl2_F25": lambda: special_linear(2, field_make(5, 2)),
    "sl3_F3": lambda: special_linear(3, F3),
    "sl3_F2": lambda: special_linear(3, field_make(2, 1)),
    "sl2_struct_F5": lambda: sl2_structure_only(F5),
    "sl2_struct_F7": lambda: sl2_structure_only(field_make(7, 1)),
}


@settings(max_examples=25, deadline=None)
@given(name=st.sampled_from(sorted(_FORM_ALGEBRAS)), seed=st.integers(0, 2 ** 16))
def test_nullcone_rows_have_zero_trace_form(name, seed):
    # the premise of the form test: no nullcone point has Q != 0, in a random
    # basis, rebuilt from the model when there is one
    g = _FORM_ALGEBRAS[name]()
    g = (_gl_based if g.matrix_model else _gl_rebased)(g, seed)
    pts = point_rows(g, nullcone(g))
    assert len(pts) > 1
    assert not g.field.quadratic(pts, lie._trace_form(g)).any()


def test_centralizer_examples():
    sl2 = special_linear(2, F5)
    assert len(centralizer(sl2, sl2.zero())) == sl2.dim
    e = sl2.basis_vec(0)
    assert centralizer(sl2, e) == [e]
    # regular nilpotent in sl3, p = 5: centralizer is span{e, e^2}
    sl3 = special_linear(3, F5)
    ereg = Mat.from_rows(F5, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    x = sl3.coords_of_matrix(ereg)
    basis = centralizer(sl3, x)
    assert len(basis) == 2
    span_mats = [sl3.matrix_of(v) for v in basis]
    for m in span_mats:
        assert (m @ ereg) == (ereg @ m)
    # e and e^2 lie in that kernel
    for target in (ereg, ereg @ ereg):
        assert sl3.coords_of_matrix(target) is not None


# ---------------------------------------------------------------------------
# is_elementary / local rank / srk
# ---------------------------------------------------------------------------

def test_is_elementary_examples():
    sl2 = special_linear(2, F5)
    e, f_, h = sl2.basis_vec(0), sl2.basis_vec(1), sl2.basis_vec(2)
    assert is_elementary(sl2, [e])
    assert not is_elementary(sl2, [e, f_])   # [e,f] = h != 0
    assert not is_elementary(sl2, [e, h])    # h^[p] = h != 0
    assert not is_elementary(sl2, [e, e])    # dependent


def _is_elementary_pairwise(g, basis):
    """The pairwise loop is_elementary replaced: rank, then every bracket
    u, v of the list, then every p-th power, one vector at a time."""
    basis = [tuple(v) for v in basis]
    if not basis:
        return True
    if mat_rank(Mat(g.field, np.array(basis, dtype=np.int64))) != len(basis):
        return False
    for i, u in enumerate(basis):
        for v in basis[i + 1:]:
            if any(g.bracket(u, v)):
                return False
    return not any(any(g.pmap_eval(v)) for v in basis)


@pytest.mark.parametrize("case", ["sl3_F3", "h5_F3"])
def test_is_elementary_matches_the_pairwise_loop(case):
    g = special_linear(3, F3) if case == "sl3_F3" else heisenberg(2, F3)
    pts = [tuple(v) for v in point_rows(g, nullcone(g)[1:]).tolist()]
    commutes = _commutes(g, pts)
    rng = random.Random(case)
    seen = set()
    for _ in range(300):
        # half the picks commute with every earlier one, so both answers occur
        chosen = [rng.randrange(len(pts))]
        for _ in range(rng.randint(0, 3)):
            pool = np.flatnonzero(commutes[chosen].all(axis=0))
            chosen.append(int(rng.choice(pool)) if rng.random() < 0.5 and len(pool)
                          else rng.randrange(len(pts)))
        basis = [pts[i] for i in chosen]
        want = _is_elementary_pairwise(g, basis)
        assert is_elementary(g, basis) == want, basis
        seen.add((len(basis) > 1, want))
    # a single nonzero nullcone point is elementary; longer lists go both ways
    assert seen == {(False, True), (True, True), (True, False)}
    x = pts[0]
    assert is_elementary(g, [])
    assert not is_elementary(g, [x, tuple(g.field.varr_mul(2, np.array(x)).tolist())])
    assert not is_elementary(g, [x, g.zero()])
    if case == "sl3_F3":  # h_5's p-map is zero: all of it is p-nilpotent
        t = g.coords_of_matrix(Mat(F3, [[1, 0, 0], [0, 2, 0], [0, 0, 0]]))
        assert any(g.pmap_eval(t))
        assert not is_elementary(g, [t]) and not _is_elementary_pairwise(g, [t])


def _mixed_bases(g, rng, count, k):
    """count bases of k rows, as a (count, k, dim) stack: combinations of the
    commuting, square-zero E_0j (j > 0), and in three quarters of them the
    last row a copy of the first (zero when k = 1: dependent either way),
    E_10 (p-nilpotent, not commuting with E_01) or a random vector."""
    f, n = g.field, g._model.shape[-1]

    def unit(i, j):
        m = np.zeros((n, n), dtype=np.int64)
        m[i, j] = f.one
        return g.coords_of_matrix(Mat(f, m))

    pool = np.array([unit(0, j) for j in range(1, n)])
    bases = f.matmul(rng.integers(0, f.q, (count, k, len(pool))), pool)
    kinds = rng.integers(0, 4, count)
    bases[kinds == 1, -1] = bases[kinds == 1, 0] if k > 1 else 0
    bases[kinds == 2, -1] = unit(1, 0)
    bases[kinds == 3, -1] = rng.integers(0, f.q, ((kinds == 3).sum(), g.dim))
    return bases


@pytest.mark.parametrize("case", ["sl3_F5", "sl4_F3", "sl2_F9", "gl_sl3_F5"])
def test_model_route_gives_the_ad_route_flags(case):
    # _elementary_conditions reads the model matrices when there is a model;
    # the same tables without the solver take the ad route
    if case == "gl_sl3_F5":
        g = _gl_based(special_linear(3, F5), 1)
    else:
        n, p, e = {"sl3_F5": (3, 5, 1), "sl4_F3": (4, 3, 1), "sl2_F9": (2, 3, 2)}[case]
        g = special_linear(n, field_make(p, e))
    plain = RestrictedLieAlgebra._from_arrays(g.field, g._adb, g._pmap)
    assert g.matrix_model and not plain.matrix_model
    rng = np.random.default_rng(list(case.encode()))
    seen = set()
    for k in (1, 2, 3):
        bases = _mixed_bases(g, rng, 200, k)
        flags = [c.tolist() for c in lie._elementary_conditions(g, bases)]
        assert flags == [c.tolist() for c in lie._elementary_conditions(plain, bases)]
        seen |= {(i, v) for i, c in enumerate(flags) for v in c}
    assert seen == {(i, v) for i in range(3) for v in (False, True)}  # each flag both ways


def test_sl_elementary_check_memory_bound():
    # with its model, sl_10/F_13 (dim 99) is built without its 99^3 ad
    # tensor, and the floor(10^2/4) = 25 rows of the (2, 1^8) witness are
    # checked on 10 x 10 matrices; the ad tensor alone is 7.8 MB
    from satrank.slnorbits import Partition, lower_orbit_witness
    f = field_make(13, 1)
    witness = lower_orbit_witness(Partition((2,) + (1,) * 8), f, maximal=True)
    special_linear.__wrapped__(4, f)  # warm the field's caches
    tracemalloc.start()
    try:
        g = special_linear.__wrapped__(10, f)
        ok = is_elementary(g, witness.basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok and witness.rank == 25
    assert peak <= 1_500_000


def test_local_rank_examples():
    sl2 = special_linear(2, F3)
    assert local_rank(sl2, sl2.basis_vec(0)).rank == 1
    h = heisenberg(1, F3)
    z = h.basis_vec(2)
    assert local_rank(h, z).rank == 2
    ab = abelian_p_trivial(4, F3)
    assert local_rank(ab, ab.basis_vec(1)).rank == 4


def test_local_rank_witness_contains_x_and_is_elementary():
    for g, x in [
        (special_linear(2, F3), special_linear(2, F3).basis_vec(0)),
        (heisenberg(1, F3), (1, 2, 0)),
        (heisenberg(2, F3), (0, 0, 0, 0, 1)),
    ]:
        res = local_rank(g, x)
        assert is_elementary(g, res.witness.basis)
        assert res.witness.basis[0] == x
        # x in the span: rank does not grow when x is appended
        rows = [list(v) for v in res.witness.basis]
        r0 = mat_rank(Mat(g.field, np.array(rows, dtype=np.int64)))
        r1 = mat_rank(Mat(g.field, np.array(rows + [list(x)], dtype=np.int64)))
        assert r0 == r1 == res.rank == res.witness.rank


def _no_centre(monkeypatch):
    """srk_brute and nullcone take the central elementary ideal to be {0},
    so they search the commuting graph on all of g's classes."""
    monkeypatch.setattr(lie, "_central_elementary", lambda g: np.zeros((0, g.dim), dtype=np.int64))


def _captured_search(monkeypatch, run, automorphisms=False):
    """The _TupleSearch that run() builds, by default over the whole graph:
    srk_brute gets no central ideal and no automorphisms, so every class of
    g is a root."""
    made = []

    class Spy(lie._TupleSearch):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(lie, "_TupleSearch", Spy)
    if not automorphisms:
        _no_centre(monkeypatch)
        monkeypatch.setattr(lie, "_automorphisms", lambda g, classes: ())
    run()
    return made[0]


def _points(search):
    """The search's class points as tuples, and the point -> class dict."""
    pts = [tuple(v) for v in lie._placed(search.coords, search.keep).tolist()]
    return pts, {v: i for i, v in enumerate(pts)}


def _naive_span_mask(f, index, vecs):
    """Classes hit by every sum c_1 v_1 + ... + c_r v_r, scaled by hand so the
    first nonzero coordinate is 1."""
    mask = 0
    for cs in itertools.product(range(f.q), repeat=len(vecs)):
        u = [0] * len(vecs[0])
        for c, v in zip(cs, vecs):
            u = [f.add(a, f.mul(c, b)) for a, b in zip(u, v)]
        lead = next((a for a in u if a), 0)
        if lead:
            j = index.get(tuple(f.mul(f.inv(lead), a) for a in u))
            if j is not None:
                mask |= 1 << j
    return mask


# case: (algebra, the run that builds the search on it); local_rank searches
# the centralizer z(x), an algebra of its own, modulo C(z(x)).  z(x_1) of
# h_5/F_3 is span(x_1, x_2, y_2, z) with C = span(x_1, z), 4 classes; z(E_01)
# of sl_3/F_3 has 4 classes modulo C = span(E_01), and z(E_03) of sl_4/F_2
# has dimension 9, C = span(E_03), 21 classes
_MASK_CASES = {
    "h3_F5": (lambda: heisenberg(1, F5), srk_brute),
    "sl2_F9": (lambda: special_linear(2, field_make(3, 2)), srk_brute),
    "local_h5_F3": (lambda: heisenberg(2, F3), lambda g: local_rank(g, g.basis_vec(0))),
    "local_sl3_F3": (lambda: special_linear(3, F3), lambda g: local_rank(g, g.basis_vec(0))),
    "local_sl4_F2": (lambda: special_linear(4, field_make(2, 1)),
                     lambda g: local_rank(g, g.basis_vec(2))),
}


@pytest.mark.parametrize("case", sorted(_MASK_CASES))
def test_search_span_masks_and_commuting_masks(monkeypatch, case):
    # srk_brute searches g itself (as if its central elementary ideal were
    # {0}); local_rank's masks are checked against the brackets of z(x)
    build, run = _MASK_CASES[case]
    g = build()
    # local_rank takes no automorphisms; left unpatched, its search keeps the
    # quotient by C(z(x))
    search = _captured_search(monkeypatch, lambda: run(g), automorphisms=case.startswith("local"))
    h, (pts, index) = search.g, _points(search)
    assert search.n > 3 and (h is g) == (not case.startswith("local"))
    rng = random.Random(case)
    for _ in range(12):
        chosen = rng.sample(range(search.n), rng.randint(1, 3))
        naive = _naive_span_mask(h.field, index, [pts[i] for i in chosen])
        assert search._span_masks(search.coords[chosen][None])[0] == naive
    for i, u in enumerate(pts):
        direct = sum(1 << j for j, v in enumerate(pts) if not any(h.bracket(u, v)))
        assert search.commuting[i] == direct


def test_commuting_masks_across_batches(monkeypatch):
    # sl_3/F_3 has 364 classes, more than one stacked elimination and one
    # span-closure batch hold, so masks on both sides of a batch boundary
    # are checked against direct brackets
    g = special_linear(3, F3)
    search = _captured_search(monkeypatch, lambda: srk_brute(g))
    pts, index = _points(search)
    assert search.n == 364
    for i, u in enumerate(pts):
        direct = sum(1 << j for j, v in enumerate(pts) if not any(g.bracket(u, v)))
        assert search.commuting[i] == direct
    rng = random.Random(3)
    for _ in range(12):
        chosen = rng.sample(range(search.n), rng.randint(1, 3))
        naive = _naive_span_mask(g.field, index, [pts[i] for i in chosen])
        assert search._span_masks(search.coords[chosen][None])[0] == naive


# _build_masks' cost model forced to one test: whole batches row-tested with
# no elimination, the row test after the stacked elimination, or every
# kernel closed by _span_masks; and the mask test each rule must not call
_MASK_RULES = {
    "default": ({}, None),
    "row": ({"_ROW_NS": 0}, "_span_masks"),
    "row_after_elimination": ({"_ELIM_NS": (0, 0, 0), "_SPAN_NS": math.inf}, "_span_masks"),
    "span": ({"_ROW_NS": math.inf}, "_row_masks"),
}


@pytest.mark.parametrize("case", sorted(_MASK_CASES) + ["sl3_F3"])
def test_commuting_masks_same_by_either_test(monkeypatch, case):
    # the row test and the span closure give the same bits, so whichever the
    # cost model picks, the masks, srk_brute's payload and local_rank's
    # witness stay the same; sl_3/F_3's 364 classes take several batches
    build, run = _MASK_CASES.get(case, (lambda: special_linear(3, F3), srk_brute))
    g = build()
    seen, eliminations, kernels = {}, {}, lie._kernels
    for rule, (costs, unused) in _MASK_RULES.items():
        calls = []
        with monkeypatch.context() as m:
            for name, value in costs.items():
                m.setattr(lie, name, value)
            if unused:
                m.setattr(lie._TupleSearch, unused, None)
            m.setattr(lie, "_kernels", lambda f, a: calls.append(1) or kernels(f, a))
            result = run(g)
            search = _captured_search(m, lambda: run(g), automorphisms=case.startswith("local"))
        seen[rule] = (search.commuting, _payload_digest(result) if run is srk_brute else result)
        eliminations[rule] = len(calls)
    assert all(s == seen["default"] for s in seen.values())
    # the row rule skips the stacked eliminations that the other rules make
    assert eliminations["row"] < min(eliminations["row_after_elimination"], eliminations["span"])


@pytest.mark.parametrize("row_block", [1, 100, 4000, lie._ROW_BLOCK])
def test_row_masks_blocks_stay_under_their_bound(monkeypatch, row_block):
    # a row-test product takes the whole stack by a multiple of 8 columns of
    # coords^T: at most _ROW_BLOCK entries, or 8 columns where those pass it;
    # the masks do not depend on the split
    g = special_linear(3, F3)
    search = _captured_search(monkeypatch, lambda: srk_brute(g))
    sizes, matmul = [], type(g.field).matmul

    def spy(self, a, b):
        out = matmul(self, a, b)
        sizes.append(out.size)
        return out

    monkeypatch.setattr(lie, "_ROW_BLOCK", row_block)
    monkeypatch.setattr(type(g.field), "matmul", spy)
    for count in (1, 20, search.n):
        ads = g.ad(lie._placed(search.coords[:count], search.keep))[..., search.keep]
        sizes.clear()
        assert search._row_masks(ads) == search.commuting[:count]
        assert max(sizes) <= max(row_block, 8 * count * g.dim)
        assert sum(sizes) == count * g.dim * search.n


def _commutes(g, pts):
    """commutes[i, j]: [pts[i], pts[j]] == 0, from the bracket table directly."""
    arr = np.array(pts, dtype=np.int64)
    return ~g.field.matmul(g.ad(arr), arr.T).any(axis=1)


def _independent(g, vecs):
    """Row reduction by hand with the field's scalar ops."""
    f, rows = g.field, [list(v) for v in vecs]
    for col in range(g.dim):
        pivot = next((r for r in rows if r[col]), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        inv = f.inv(pivot[col])
        rows = [[f.add(a, f.neg(f.mul(f.mul(r[col], inv), b))) for a, b in zip(r, pivot)]
                for r in rows]
    return not rows


_CLIQUE_CASES = {
    # case: (algebra, number of maximal cliques); h_{2n+1} has one per
    # Lagrangian subspace of F_q^(2n), (q + 1)...(q^n + 1) of them
    "h3_F5": (lambda: heisenberg(1, F5), 6),
    "h5_F3": (lambda: heisenberg(2, F3), 40),
    "sl3_F3": (lambda: special_linear(3, F3), 130),
    "sl2_F9": (lambda: special_linear(2, field_make(3, 2)), 10),
    "sl4_F2": (lambda: special_linear(4, field_make(2, 1)), 170),
}


@pytest.mark.parametrize("case", sorted(_CLIQUE_CASES))
def test_maximal_cliques_are_maximal_elementary_subalgebras(monkeypatch, case):
    build, count = _CLIQUE_CASES[case]
    g = build()
    search = _captured_search(monkeypatch, lambda: srk_brute(g))
    pts, _ = _points(search)
    commutes = _commutes(g, pts)
    assert len(search.cliques) == count
    for rank, clique in search.cliques:
        members = [i for i in range(search.n) if clique >> i & 1]
        basis = []
        for i in members:  # greedy basis in ascending class order
            if _independent(g, [pts[j] for j in basis] + [pts[i]]):
                basis.append(i)
        assert len(basis) == rank
        assert search._span_masks(search.coords[basis][None])[0] == clique
        assert is_elementary(g, [pts[i] for i in basis])
        outside = [j for j in range(search.n) if not clique >> j & 1]
        assert not commutes[np.ix_(basis, outside)].all(axis=0).any()
    # every class lies in a clique, and its rank is the best clique through it
    for i in range(search.n):
        assert search.ranks[i] == max(r for r, c in search.cliques if c >> i & 1)


def _least_maximal_tuple(g, pts, commutes, xi):
    """The lexicographically least increasing index tuple of maximal size whose
    classes commute with x = pts[xi] and each other and are independent with x."""
    f, commutes = g.field, commutes.tolist()

    @functools.lru_cache(maxsize=None)
    def span(t):
        """All vectors of span(x, pts[t]), or None when they are dependent."""
        if not t:
            return frozenset(tuple(f.mul(c, a) for a in pts[xi]) for c in range(f.q))
        prev = span(t[:-1])
        if prev is None or pts[t[-1]] in prev:
            return None
        return frozenset(tuple(f.add(a, f.mul(c, b)) for a, b in zip(u, pts[t[-1]]))
                         for u in prev for c in range(f.q))

    cands = [j for j in range(len(pts)) if j != xi and commutes[xi][j]]
    best = ()
    for size in itertools.count(1):
        found = next((t for t in itertools.combinations(cands, size)
                      if all(commutes[a][b] for a, b in itertools.combinations(t, 2))
                      and span(t) is not None), None)
        if found is None:
            return best
        best = found


@pytest.mark.parametrize("case", ["h3_F5", "h5_F3", "sl3_F3"])
def test_witness_is_least_maximal_tuple(monkeypatch, case):
    g = _CLIQUE_CASES[case][0]()
    search = _captured_search(monkeypatch, lambda: srk_brute(g))
    pts, _ = _points(search)
    commutes = _commutes(g, pts)
    classes = range(search.n)
    if case == "sl3_F3":
        classes = sorted(random.Random(case).sample(classes, 20))
    for xi in classes:
        r, witness, exhausted = search.max_tuple_containing(xi)
        tail = _least_maximal_tuple(g, pts, commutes, xi)
        assert exhausted and r == len(tail) + 1
        assert witness == [pts[xi]] + [pts[j] for j in tail]


@pytest.mark.parametrize("chunk", [1, 24])
def test_witness_across_batches(monkeypatch, chunk):
    # the center of h_5/F_3 lies in all 40 Lagrangian cliques; the witness of
    # every class must not depend on the batch size _CHUNK
    g = _CLIQUE_CASES["h5_F3"][0]()
    search = _captured_search(monkeypatch, lambda: srk_brute(g))
    whole = [search.max_tuple_containing(xi) for xi in range(search.n)]
    z = _points(search)[1][(0, 0, 0, 0, 1)]
    assert sum(c >> z & 1 for _, c in search.cliques) == 40
    monkeypatch.setattr(lie, "_CHUNK", chunk)
    assert [search.max_tuple_containing(xi) for xi in range(search.n)] == whole


# pinned like _GOLDEN_BRUTE, recorded with the tuple search the cliques
# replaced; sl_4/F_2 has maximal cliques of rank 3 and 4.  h7_F3 was recorded
# with the clique engine before its pruning rules, at 5-7 s
_GOLDEN_BRUTE_CLIQUES = {
    "h5_F5": (3, 3, 3124, [[0, 0, 0, 0, 1], [0, 0, 0, 1, 0], [0, 0, 1, 0, 0]],
              "bd73cb0e2e92a1d8a65fc076ffd82e74334f23b941666ccb5dc4b6d6081c0ff5"),
    "sl4_F2": (4, 4, 315, [[0] * 11 + [1, 0, 0, 0], [0] * 10 + [1] + [0] * 4,
                           [0, 1] + [0] * 13, [1] + [0] * 14],
               "694adcefdd95edc86856bece20a0e64a8da74b651f3c1b00feb49af1f0d2bb83"),
    "h7_F3": (4, 4, 2186, [[0] * 6 + [1], [0] * 5 + [1, 0], [0] * 4 + [1, 0, 0],
                           [0] * 3 + [1, 0, 0, 0]],
              "26d88328ddad355a91f379c91ea9f9a5feb0b55dff0625e12aaecd39b0eae302"),
}
_GOLDEN_BRUTE_CLIQUES_ALGEBRAS = {
    "h5_F5": lambda: heisenberg(2, F5),
    "sl4_F2": lambda: special_linear(4, field_make(2, 1)),
    "h7_F3": lambda: heisenberg(3, F3),
}


@pytest.mark.parametrize("name", sorted(_GOLDEN_BRUTE_CLIQUES))
def test_srk_brute_golden_cliques(name):
    g = _GOLDEN_BRUTE_CLIQUES_ALGEBRAS[name]()
    res = srk_brute(g)
    payload = {"srk": res.srk, "r_min": res.r_min, "o_rmin_count": res.o_rmin_count,
               "o_rmin": res.o_rmin.tolist(),
               "witness": [list(v) for v in res.witness.basis]}
    srk, r_min, count, witness, digest = _GOLDEN_BRUTE_CLIQUES[name]
    assert (res.srk, res.r_min, res.o_rmin_count) == (srk, r_min, count)
    assert payload["witness"] == witness and res.witness.rank == srk
    assert hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest() == digest


def test_h7_F3_frontier(monkeypatch):
    # every class of h_7/F_3 has rank 4: the maximal cliques are the
    # Lagrangian subspaces of F_3^6 lifted by the centre, (3 + 1)(9 + 1)(27 + 1)
    # of them
    found = []
    search = _captured_search(monkeypatch, lambda: found.append(srk_brute(heisenberg(3, F3))))
    assert (found[0].srk, found[0].o_rmin_count) == (4, 2186)
    assert len(search.cliques) == 28 * 10 * 4
    assert {rank for rank, _ in search.cliques} == {4}


# ---------------------------------------------------------------------------
# automorphism orbits
# ---------------------------------------------------------------------------

def _classes(g):
    """One point per projective class of nonzero nullcone points, in srk_brute's order."""
    codes = nullcone(g)
    return point_rows(g, codes[lie._projective_reps(g.field.q, codes, g.dim)])


def _random_change(g, seed):
    """A random invertible dim x dim matrix over g's field."""
    rng = np.random.default_rng(seed)
    while True:
        a = rng.integers(0, g.field.q, size=(g.dim, g.dim))
        if mat_rank(Mat(g.field, a)) == g.dim:
            return a


def _gl_based(g, seed):
    """g in a random basis of F_q^dim, rebuilt with from_matrix_basis from
    the model matrices of the new basis vectors, as the benchmark disguises
    its sl_n inputs."""
    a = _random_change(g, seed)
    return from_matrix_basis(g.field, [g.matrix_of(tuple(row)) for row in a.tolist()])


def _disguised(g, seed):
    """(_gl_based of g, or _gl_rebased without a model, the map from g's
    coordinates of a vector to the new ones)."""
    f, a = g.field, _random_change(g, seed)
    moved = (_gl_based if g.matrix_model else _gl_rebased)(g, seed)
    return moved, lambda v: mat_solve(Mat(f, a.T), list(v))


_ORBIT_CASES = {
    "h3_F5": lambda: heisenberg(1, F5),
    "h5_F3": lambda: heisenberg(2, F3),
    "h3_F9": lambda: heisenberg(1, field_make(3, 2)),
    "sl2_F9": lambda: special_linear(2, field_make(3, 2)),
    "sl2_F25": lambda: special_linear(2, field_make(5, 2)),
    "sl3_F3": lambda: special_linear(3, F3),
    "sl3_F5": lambda: special_linear(3, F5),
    "sl4_F2": lambda: special_linear(4, field_make(2, 1)),
    "sl2_struct_F5": lambda: sl2_structure_only(F5),
    "sl3_F3_gl": lambda: _gl_based(special_linear(3, F3), 1),
    "sl3_F5_gl": lambda: _gl_based(special_linear(3, F5), 2),
}


def _payload_digest(res):
    payload = {"srk": res.srk, "r_min": res.r_min, "o_rmin_count": res.o_rmin_count,
               "o_rmin": res.o_rmin.tolist(),
               "witness": [list(v) for v in res.witness.basis]}
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(_ORBIT_CASES))
def test_srk_brute_same_with_and_without_automorphisms(monkeypatch, name):
    # orbits on every search, however small
    g = _ORBIT_CASES[name]()
    monkeypatch.setattr(lie, "_ORBIT_MIN_CLASSES", 0)
    reduced = _payload_digest(srk_brute(g))
    monkeypatch.setattr(lie, "_automorphisms", lambda g, classes: ())
    assert _payload_digest(srk_brute(g)) == reduced


@pytest.mark.parametrize("name,orbits", [("sl3_F3", 2), ("sl3_F3_gl", 2), ("sl4_F2", 2),
                                         ("sl2_struct_F5", 1), ("sl2_F9", 1)])
def test_reduced_search_matches_the_whole_graph(monkeypatch, name, orbits):
    # the roots' ranks are the whole graph's, and its cliques are the whole
    # graph's that meet a root; masks exist for the roots and their
    # neighbours and are the whole graph's there
    g = _ORBIT_CASES[name]()
    whole = _captured_search(monkeypatch, lambda: srk_brute(g))
    monkeypatch.undo()
    monkeypatch.setattr(lie, "_ORBIT_MIN_CLASSES", 0)
    reduced = _captured_search(monkeypatch, lambda: srk_brute(g), automorphisms=True)
    roots = [i for i in range(reduced.n) if reduced.labels[i] == i]
    assert len(roots) == orbits < reduced.n == whole.n
    assert reduced.ranks == whole.ranks
    root_mask = sum(1 << i for i in roots)
    assert sorted(reduced.cliques) == sorted((r, c) for r, c in whole.cliques if c & root_mask)
    near = functools.reduce(lambda a, b: a | b, (whole.commuting[i] for i in roots))
    for i, mask in enumerate(reduced.commuting):
        assert mask == (whole.commuting[i] if near >> i & 1 else 0)


@pytest.mark.parametrize("name", ["sl3_F3", "sl3_F3_gl", "sl4_F2"])
def test_witness_through_any_class_matches_the_whole_graph(monkeypatch, name):
    # with orbits, the cliques through a class that is no root are not among
    # the search's cliques; a witness through it enumerates the maximal
    # cliques through the least class picked, which srk_brute and local_rank
    # never need (test_first_pick_outside_the_ideal_is_a_root)
    g = _ORBIT_CASES[name]()
    whole = _captured_search(monkeypatch, lambda: srk_brute(g))
    monkeypatch.undo()
    reduced = _captured_search(monkeypatch, lambda: srk_brute(g), automorphisms=True)
    others = [i for i in range(reduced.n) if reduced.labels[i] != i]
    for xi in sorted(random.Random(name).sample(others, 12)):
        assert reduced.max_tuple_containing(xi) == whole.max_tuple_containing(xi)


@pytest.mark.parametrize("name", ["sl3_F3", "sl4_F2", "sl2_struct_F5", "sl2_F9"])
def test_automorphisms_preserve_local_rank_and_structure(monkeypatch, name):
    # sl_3 and sl_2/F_9 conjugate by exp(x), sl_4/F_2 by 1 + x, and the
    # structure-only sl_2 takes exp(ad x)
    monkeypatch.setattr(lie, "_ORBIT_MIN_CLASSES", 0)
    g = _ORBIT_CASES[name]()
    f, classes = g.field, _classes(g)
    autos = lie._automorphisms(g, classes)
    assert len(autos)
    rng = random.Random(name)
    for a in autos:
        def image(v):
            return tuple(f.matmul(np.array(v, dtype=np.int64), a).tolist())

        for x in rng.sample(classes.tolist(), 3):
            assert local_rank(g, image(x)).rank == local_rank(g, tuple(x)).rank
        for _ in range(5):  # whole elements, not only the basis the check used
            u, v = (tuple(rng.randrange(f.q) for _ in range(g.dim)) for _ in range(2))
            assert g.bracket(image(u), image(v)) == image(g.bracket(u, v))
            assert g.pmap_eval(image(u)) == image(g.pmap_eval(u))


@pytest.mark.parametrize("name", ["sl3_F3", "sl2_struct_F5"])
def test_non_automorphisms_are_rejected(name):
    # a random invertible matrix breaks the brackets; the zero matrix keeps
    # every bracket and p-th power but is not invertible
    g = _ORBIT_CASES[name]()
    rng = np.random.default_rng(7)
    while True:
        a = rng.integers(0, g.field.q, size=(g.dim, g.dim))
        if mat_rank(Mat(g.field, a)) == g.dim:
            break
    eye = np.eye(g.dim, dtype=np.int64)
    kept = lie._verified(g, np.stack([a, np.zeros_like(a), eye]))
    assert kept.tolist() == [eye.tolist()]


@pytest.mark.parametrize("case", ["p_map", "brackets"])
def test_map_breaking_one_condition_is_rejected(case):
    # each swap is invertible.  Abelian with b_0^[p] = b_1: swapping b_0 and
    # b_1 keeps every bracket, but b_1^[p] = 0 while b_0^[p] = b_1.  h_3
    # (p-map zero): swapping x and z keeps every p-th power, but [x, y] = z
    # while [z, y] = 0
    if case == "p_map":
        g, swap = RestrictedLieAlgebra(F3, {}, [(0, 1), (0, 0)]), [[0, 1], [1, 0]]
    else:
        g, swap = heisenberg(1, F5), [[0, 0, 1], [0, 1, 0], [1, 0, 0]]
    assert len(lie._verified(g, np.array([swap], dtype=np.int64))) == 0
    assert len(lie._verified(g, np.eye(g.dim, dtype=np.int64)[None])) == 1


def test_commuting_mask_budget_boundary(monkeypatch):
    # abelian of dimension 5 over F_3 searched as if its central elementary
    # ideal were {0}: 243 points, 121 classes, all of them roots (the
    # exponentials of ad x are the identity), so 121**2 = 14641 mask bits: 32 * 458
    # covers them, 32 * 457 does not.  The complete commuting graph is one
    # clique, found in 2 nodes
    g = abelian_p_trivial(5, F3)
    _no_centre(monkeypatch)
    assert srk_brute(g, budget=458).srk == 5
    with pytest.raises(BudgetError, match=r"^commuting masks: 121 masks of 121 classes are "
                                          r"14641 bits > budget 14624 bits .*; 0 masks built"):
        srk_brute(g, budget=457)


@pytest.mark.parametrize("name", ["h3_F5", "h5_F3", "h3_F9", "abelian3_F3"])
def test_central_class_skips_the_automorphism_search(monkeypatch, name):
    # srk_brute searches modulo the central elementary ideal, and these
    # quotients have under _ORBIT_MIN_CLASSES classes: no candidate is
    # built, and every class is a root
    g = abelian_p_trivial(3, F3) if name == "abelian3_F3" else _ORBIT_CASES[name]()
    monkeypatch.setattr(lie, "_verified", lambda g, a: pytest.fail("candidates were built"))
    search = _captured_search(monkeypatch, lambda: srk_brute(g), automorphisms=True)
    assert len(lie._automorphisms(g, search.coords)) == 0
    assert (search.labels == np.arange(search.n)).all()


@pytest.mark.parametrize("name", ["sl2_F9", "sl2_F25", "sl2_struct_F5"])
def test_small_search_without_centre_skips_the_automorphisms(monkeypatch, name):
    # C = {0} and fewer than _ORBIT_MIN_CLASSES classes: no inner candidate
    # is built, and every class is a root
    g = _ORBIT_CASES[name]()
    assert not len(lie._central_elementary(g))
    monkeypatch.setattr(lie, "_verified", lambda g, a: pytest.fail("candidates were built"))
    search = _captured_search(monkeypatch, lambda: srk_brute(g), automorphisms=True)
    assert search.n < lie._ORBIT_MIN_CLASSES
    assert (search.labels == np.arange(search.n)).all()


def test_centre_without_nilpotents_keeps_the_search():
    # the scalar matrices are the centre of sl_3 over F_3, and none is nilpotent
    g = special_linear(3, F3)
    assert not g.ad(g.coords_of_matrix(Mat(F3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]))).any()
    assert lie._central_elementary(g).shape == (0, g.dim)
    assert len(lie._automorphisms(g, _classes(g))) == 4


def _direct_sum(a, b):
    """a + b as one algebra: a's basis first, then b's, with [a, b] = 0."""
    n, dim = a.dim, a.dim + b.dim
    brackets = {}
    for g, off in ((a, 0), (b, n)):
        for i, j in np.argwhere(g._adb.any(axis=1)).tolist():
            brackets[(off + i, off + j)] = {off + k: int(c) for k, c in enumerate(g._adb[i][:, j]) if c}
    pmap = ([tuple(row) + (0,) * b.dim for row in a.pmap]
            + [(0,) * n + tuple(row) for row in b.pmap])
    assert len(pmap) == dim
    return RestrictedLieAlgebra(a.field, brackets, pmap, validate="full")


_CENTRE_CASES = {
    "h3_F5": lambda: heisenberg(1, F5),
    "abelian3_F3": lambda: abelian_p_trivial(3, F3),
    "sl3_F3": lambda: special_linear(3, F3),
    "h3_plus_sl2_F5": lambda: _direct_sum(heisenberg(1, F5), special_linear(2, F5)),
    "h3_F9": lambda: heisenberg(1, field_make(3, 2)),
    "h3_F27": lambda: heisenberg(1, field_make(3, 3)),
    # the centre is span(t, z), and t^[p] = t: C is span(z) alone
    "toral1_plus_h3_F3": lambda: _direct_sum(toral(1, F3), heisenberg(1, F3)),
    # abelian over F_9 with b_0^[p] = b_2 and b_1^[p] = w b_2 (code 3 is w):
    # a b_0 + b b_1 is p-nilpotent when a^3 + w b^3 = 0, which is not the
    # linear condition a + w b = 0, as w is outside F_3
    "twisted_F9": lambda: RestrictedLieAlgebra(field_make(3, 2), {},
                                               [(0, 0, 1), (0, 0, 3), (0, 0, 0)]),
}


@pytest.mark.parametrize("name", sorted(_CENTRE_CASES))
def test_central_elementary_matches_the_pointwise_filter(name):
    # C is the set of the elements x with ad(x) = 0 and x^[p] = 0, tested on
    # every element of iter_elements, in its lexicographic order
    g = _CENTRE_CASES[name]()
    f = g.field
    elements = np.array(list(g.iter_elements()), dtype=np.int64)
    central = ~g.ad(elements).any(axis=(1, 2))
    members = elements[central & ~g._pmap_rows(elements).any(axis=1)]
    centre = lie._central_elementary(g)
    span = lie._combinations(f, np.arange(f.q ** len(centre)), centre)
    assert np.array_equal(span[np.lexsort(span.T[::-1])], members)
    assert len(members) == f.q ** len(centre)  # the rows are independent
    assert lie._central_elementary(g) is centre  # once per algebra
    assert (len(centre) == 0) == (name == "sl3_F3")
    if name in ("toral1_plus_h3_F3", "twisted_F9"):
        assert central.sum() > len(members)


def _gl_rebased(g, seed):
    """g in a random basis of F_q^dim, rebuilt from brackets and p-th powers
    as the benchmark disguises its structure-constant inputs."""
    return _rebased(g, _random_change(g, seed))


_QUOTIENT_CASES = {
    "h3_F3": lambda: heisenberg(1, F3),
    "h3_F5": lambda: heisenberg(1, F5),
    "h5_F3": lambda: heisenberg(2, F3),
    "h3_F9": lambda: heisenberg(1, field_make(3, 2)),
    "h3_F27": lambda: heisenberg(1, field_make(3, 3)),
    "abelian3_F3": lambda: abelian_p_trivial(3, F3),
    "abelian4_F3": lambda: abelian_p_trivial(4, F3),
    "abelian5_F3": lambda: abelian_p_trivial(5, F3),
    "h3_plus_abelian1_F3": lambda: _direct_sum(heisenberg(1, F3), abelian_p_trivial(1, F3)),
    "h3_plus_sl2_F5": lambda: _direct_sum(heisenberg(1, F5), special_linear(2, F5)),
    "toral1_plus_h3_F3": lambda: _direct_sum(toral(1, F3), heisenberg(1, F3)),
    "h5_F3_gl": lambda: _gl_rebased(heisenberg(2, F3), 5),
    "h3_F9_gl": lambda: _gl_rebased(heisenberg(1, field_make(3, 2)), 9),
}


@pytest.mark.parametrize("derivations", [False, True], ids=["default", "derivations"])
@pytest.mark.parametrize("name", sorted(_QUOTIENT_CASES))
def test_quotient_search_matches_the_whole_graph(monkeypatch, name, derivations):
    # the search modulo the central elementary ideal gives the whole graph's
    # payload byte for byte; "derivations" takes orbits from Der(g) on every
    # quotient, however small, so witnesses also go through classes that are
    # no orbit root
    g = _QUOTIENT_CASES[name]()
    assert len(lie._central_elementary(g))
    if derivations:
        monkeypatch.setattr(lie, "_ORBIT_MIN_CLASSES", 0)
    quotient = _payload_digest(srk_brute(g))
    monkeypatch.undo()
    _no_centre(monkeypatch)
    monkeypatch.setattr(lie, "_automorphisms", lambda g, classes: ())
    assert _payload_digest(srk_brute(g)) == quotient


@pytest.mark.parametrize("name,roots", [("h5_F3", 1), ("h3_F9", 1), ("h5_F3_gl", 1),
                                        ("h3_plus_sl2_F5", 3)])
def test_derivation_automorphisms_give_orbits_on_the_quotient(monkeypatch, name, roots):
    # Sp_4(F_3) and SL_2(F_9) are transitive on the nonzero vectors of the
    # quotient, and their transvections are exponentials of derivations; the
    # quotient F_5^2 + sl_2 of h_3 + sl_2 has the three orbits of (v, 0),
    # (0, e) and (v, e)
    g = _QUOTIENT_CASES[name]()
    monkeypatch.setattr(lie, "_ORBIT_MIN_CLASSES", 0)
    search = _captured_search(monkeypatch, lambda: srk_brute(g), automorphisms=True)
    assert sum(search.labels == np.arange(search.n)) == roots < search.n
    exps = lie._verified(g, lie._derivation_exps(g))
    assert len(exps)
    f, rng = g.field, random.Random(name)
    for a in exps[:6]:
        for _ in range(4):
            u, v = (np.array([rng.randrange(f.q) for _ in range(g.dim)]) for _ in range(2))
            image = lambda x: tuple(f.matmul(x, a).tolist())
            assert g.bracket(image(u), image(v)) == image(np.array(g.bracket(u, v)))
            assert g.pmap_eval(image(u)) == image(np.array(g.pmap_eval(u)))


def test_oracle_agrees_on_a_two_dimensional_centre():
    g = _QUOTIENT_CASES["h3_plus_abelian1_F3"]()
    assert len(lie._central_elementary(g)) == 2
    assert oracle_srk_lie(g) == srk_brute(g).srk == 3


@pytest.mark.parametrize("a,b", [("h3", "abelian1"), ("h3", "sl2"), ("h5", "abelian2")])
def test_srk_adds_under_direct_sums(a, b):
    # r(x_1, x_2) = r(x_1) + r(x_2) for nonzero parts, and a point with a
    # zero part has no smaller rank
    f = F5 if "sl2" in (a, b) else F3
    build = {"h3": lambda: heisenberg(1, f), "h5": lambda: heisenberg(2, f),
             "sl2": lambda: special_linear(2, f), "abelian1": lambda: abelian_p_trivial(1, f),
             "abelian2": lambda: abelian_p_trivial(2, f)}
    ga, gb = build[a](), build[b]()
    total = srk_brute(_direct_sum(ga, gb))
    assert total.srk == total.r_min == srk_brute(ga).srk + srk_brute(gb).srk


_ROOT_PICK_CASES = {**_ORBIT_CASES, **{f"quotient_{k}": v for k, v in _QUOTIENT_CASES.items()},
                    "h7_F5_gl": lambda: _gl_rebased(heisenberg(3, F5), 3)}


@pytest.mark.parametrize("gate", [None, 0], ids=["default", "orbits_always"])
@pytest.mark.parametrize("name", sorted(_ROOT_PICK_CASES))
def test_first_pick_outside_the_ideal_is_a_root(monkeypatch, name, gate):
    # srk_brute's first pick is the least point of minimal rank, and that
    # point's class is the least of its orbit; local_rank takes no
    # automorphisms.  So every witness pick is decided by the rank alone
    # (no class picked yet) or by the cliques through a root
    if gate is not None:
        monkeypatch.setattr(lie, "_ORBIT_MIN_CLASSES", gate)
    asked, allowed = [], lie._TupleSearch._allowed

    def spy(self, members, s):
        asked.append((members, self._roots))
        return allowed(self, members, s)

    monkeypatch.setattr(lie._TupleSearch, "_allowed", spy)
    g = _ROOT_PICK_CASES[name]()
    res = srk_brute(g)
    vecs = point_rows(g, nullcone(g))
    for x in (vecs[1], vecs[len(vecs) // 2], res.witness.basis[0]):
        local_rank(g, tuple(x))
    assert len(asked) >= 3 * (res.srk - 1)
    assert all(members == 0 or members & roots for members, roots in asked)


def test_one_clique_query_in_lie():
    # the ranks and the witnesses share _TupleSearch._cliques_through, the
    # only caller of the clique engine in satrank.lie
    tree = ast.parse(pathlib.Path(lie.__file__).read_text())
    callers = [f.name for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
               for node in ast.walk(f) if isinstance(node, ast.Call)
               and isinstance(node.func, ast.Name) and node.func.id == "_maximal_cliques"]
    assert callers == ["_cliques_through"]


def test_matrix_models_stay_code_stacks():
    # Mat is the public edge only: these functions build none, and srk_sln
    # reads x_top's membership off its span's own coordinate solve
    def called(module, name):
        tree = ast.parse(pathlib.Path(module.__file__).read_text())
        node = next(n for n in ast.walk(tree)
                    if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name == name)
        return {ast.unparse(c.func) for c in ast.walk(node) if isinstance(c, ast.Call)}

    for module, name in [(lie, "_CoordSolver"), (lie, "special_linear"), (lie, "_subalgebra"),
                         (lie, "load_lie"), (slnorbits, "srk_sln")]:
        assert not {c for c in called(module, name) if c == "Mat" or c.startswith("Mat.")}, name
    assert not called(slnorbits, "srk_sln") & {"mat_solve", "sl_coords"}


@pytest.mark.parametrize("name", ["h3", "sl2", "abelian2"])
def test_srk_is_invariant_under_extension_to_f9(name):
    build = {"h3": lambda f: heisenberg(1, f), "sl2": lambda f: special_linear(2, f),
             "abelian2": lambda f: abelian_p_trivial(2, f)}[name]
    small, large = srk_brute(build(F3)), srk_brute(build(field_make(3, 2)))
    assert (small.srk, small.r_min) == (large.srk, large.r_min)
    if name == "sl2":  # o_rmin_count counts points, so it grows with the field
        assert (small.o_rmin_count, large.o_rmin_count) == (8, 80)


@pytest.mark.parametrize("x", [(0, 0, 1), (1, 0, 1)])
def test_local_rank_same_class_for_every_scalar(x):
    # z and x_1 + z of h_3/F_9: every c x, c in F_9^x, is found as the class
    # of x, and the witness keeps the caller's point in front of one tail
    f = field_make(3, 2)
    g = heisenberg(1, f)
    results = [(cx, local_rank(g, cx)) for cx in
               (tuple(f.mul(c, a) for a in x) for c in range(1, f.q))]
    assert {res.rank for _, res in results} == {2}
    assert all(res.witness.basis[0] == cx for cx, res in results)
    assert len({res.witness.basis[1:] for _, res in results}) == 1
    assert all(is_elementary(g, res.witness.basis) for _, res in results)


def test_local_rank_preconditions():
    sl2 = special_linear(2, F3)
    with pytest.raises(PreconditionError):
        local_rank(sl2, sl2.zero())
    with pytest.raises(PreconditionError):
        local_rank(sl2, sl2.basis_vec(2))  # h is not p-nilpotent


def test_srk_brute_examples():
    assert srk_brute(special_linear(2, F3)).srk == 1
    assert srk_brute(heisenberg(1, F3)).srk == 2
    assert srk_brute(heisenberg(2, F3)).srk == 3


# Pinned srk_brute results: srk, r_min, o_rmin and the witness must not move
# by a byte when the search changes.  The digest covers the whole payload,
# o_rmin included.
_GOLDEN_BRUTE = {
    "h5_F3": (3, 3, 242, [[0, 0, 0, 0, 1], [0, 0, 0, 1, 0], [0, 0, 1, 0, 0]],
              "ba0247d032d19b82b1518412c10de5fe7ac2359d3dd7149d8cc0df1c6a6f171e"),
    "sl3_F3": (2, 2, 728, [[0, 0, 0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0, 0, 0]],
               "924b3c325064a4808ff7823a2b6790264019c3bf5f3d4aef6fe48ff76254baf6"),
    "h3_F9": (2, 2, 728, [[0, 0, 1], [0, 1, 0]],
              "5d3395d2c4c37e313e4ad1bb2e8be6f3a755f9973bbac053e1dc96c66c75f4ed"),
    "sl2_struct_F5": (1, 1, 24, [[0, 1, 0]],
                      "1858ad66d9a9c452050ee4c278151055b997e22701233e6aa5ec0a1f12bde2fa"),
}


@pytest.mark.parametrize("name", sorted(_GOLDEN_BRUTE))
def test_srk_brute_golden(name):
    g = {
        "h5_F3": lambda: heisenberg(2, F3),
        "sl3_F3": lambda: special_linear(3, F3),
        "h3_F9": lambda: heisenberg(1, field_make(3, 2)),
        "sl2_struct_F5": lambda: sl2_structure_only(F5),
    }[name]()
    res = srk_brute(g)
    payload = {"srk": res.srk, "r_min": res.r_min, "o_rmin_count": res.o_rmin_count,
               "o_rmin": res.o_rmin.tolist(),
               "witness": [list(v) for v in res.witness.basis]}
    srk, r_min, count, witness, digest = _GOLDEN_BRUTE[name]
    assert (res.srk, res.r_min, res.o_rmin_count) == (srk, r_min, count)
    assert payload["witness"] == witness
    assert hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest() == digest


def test_local_rank_golden_witnesses():
    sl4 = special_linear(4, F5)
    sub = sl4.coords_of_matrix(Mat(F5, [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0]]))
    assert sub == (1, 0, 0, 0, 1) + (0,) * 10
    res = local_rank(sl4, sub)
    assert res.rank == 3
    assert [list(v) for v in res.witness.basis] == [
        [1, 0, 0, 0, 1] + [0] * 10, [0] * 11 + [1, 0, 0, 0], [0, 1] + [0] * 13]
    h = heisenberg(1, field_make(3, 2))
    res = local_rank(h, h.basis_vec(2))  # z is central: the centralizer is all of h
    assert res.rank == 2
    assert [list(v) for v in res.witness.basis] == [[0, 0, 1], [0, 1, 0]]


# ---------------------------------------------------------------------------
# local rank on the centralizer subalgebra
# ---------------------------------------------------------------------------

def _centralizer_subalgebra(g, x):
    """(z(x) built by lie._subalgebra, its RREF basis rows in g's coordinates)."""
    rows = _rref(g.field, np.array(centralizer(g, x), dtype=np.int64)[None])[0][0]
    return lie._subalgebra(g, rows), rows


_LOCAL_CASES = {
    "sl3_F3": lambda: special_linear(3, F3),
    "sl4_F2": lambda: special_linear(4, field_make(2, 1)),
    "h5_F3": lambda: heisenberg(2, F3),
    "h3_F9": lambda: heisenberg(1, field_make(3, 2)),
    "sl2_struct_F5": lambda: sl2_structure_only(F5),
}


def _sample_points(g, count, seed):
    """count nonzero nullcone points of g, drawn at random, in ascending order."""
    vecs = point_rows(g, nullcone(g)[1:])
    picks = sorted(random.Random(seed).sample(range(len(vecs)), min(count, len(vecs))))
    return [tuple(v) for v in vecs[picks].tolist()]


@pytest.mark.parametrize("name", ["sl3_F3", "sl4_F2", "h5_F3"])
@pytest.mark.parametrize("seed", [1, 2])
def test_subalgebra_of_a_centralizer_validates(name, seed):
    # in a random basis, so the centralizer rows are no standard basis
    # vectors: the structure constants, the p-map and the model of z(x) pass
    # validate() and agree with g's on the rows
    g, _ = _disguised(_LOCAL_CASES[name](), seed)
    f = g.field
    for x in _sample_points(g, 4, seed):
        h, rows = _centralizer_subalgebra(g, x)
        assert h.dim == len(rows) and bool(h.matrix_model) == bool(g.matrix_model)
        h.validate()
        rng = random.Random(f"{name}:{seed}:{x}")
        for _ in range(6):
            u, v = (tuple(rng.randrange(f.q) for _ in range(h.dim)) for _ in range(2))
            gu, gv = (f.matmul(np.array(w, dtype=np.int64), rows) for w in (u, v))
            assert (f.matmul(np.array(h.bracket(u, v)), rows) == g.bracket(gu, gv)).all()
            assert (f.matmul(np.array(h.pmap_eval(u)), rows) == g.pmap_eval(gu)).all()
            if h.matrix_model:
                assert h.matrix_of(u) == g.matrix_of(tuple(gu.tolist()))


@pytest.mark.parametrize("name", sorted(_LOCAL_CASES))
def test_local_rank_is_the_whole_centralizer_graph(name):
    # local_rank searches z(x) modulo C(z(x)); a test-only search over the
    # commuting graph of all the nullcone classes of z(x), with no quotient,
    # gives the same rank and, in the same candidate order, the same witness
    g = _LOCAL_CASES[name]()
    f = g.field
    for x in _sample_points(g, 6, name):
        h, rows = _centralizer_subalgebra(g, x)
        codes = nullcone(h)
        classes = point_rows(h, codes[lie._projective_reps(f.q, codes, h.dim)])
        whole = lie._TupleSearch(h, classes, np.ones(h.dim, dtype=bool), lie.DEFAULT_BUDGET)
        xi = [tuple(f.matmul(c, rows).tolist()) for c in classes].index(_leading_one(f, x))
        r, witness, _ = whole.max_tuple_containing(xi)
        res = local_rank(g, x)
        assert res.rank == r == max(whole.ranks)
        tail = [tuple(f.matmul(np.array(w), rows).tolist()) for w in witness[1:]]
        assert list(res.witness.basis) == [x] + tail


@pytest.mark.parametrize("name", sorted(_LOCAL_CASES))
def test_local_rank_invariant_under_base_change(name):
    g = _LOCAL_CASES[name]()
    gl, to_new = _disguised(g, 5)
    for x in _sample_points(g, 6, name):
        res, y = local_rank(g, x), to_new(x)
        moved = local_rank(gl, y)
        assert moved.rank == res.rank and moved.witness.basis[0] == y
        assert is_elementary(gl, moved.witness.basis)


def test_local_rank_sl6_F3_frontier():
    # z(x) has 3^13 points at (3,2,1) and 3^12 at (3,3); the whole-centralizer
    # search stopped on the mask budget at (3,2,1) (28795 classes), z(x)
    # modulo C(z(x)) has 3199
    from satrank.slnorbits import Partition, jordan_matrix
    g = special_linear(6, F3)
    for parts, rank in [((3, 2, 1), 7), ((3, 3), 6)]:
        x = tuple(sl_coords(F3, jordan_matrix(Partition(parts), F3).a).tolist())
        res = local_rank(g, x, budget=2 * 10 ** 7)
        assert res.rank == rank and res.witness.basis[0] == x
        assert is_elementary(g, res.witness.basis)


@pytest.mark.parametrize("name", ["sl3_F3", "h5_F3", "sl2_struct_F5"])
def test_pmap_rows_of_no_rows(name):
    # a model algebra (sl_3) and two Jacobson ones: an empty stack has an
    # empty p-th power, and _verified keeps nothing of an empty stack
    g = _LOCAL_CASES[name]()
    empty = np.zeros((0, g.dim), dtype=np.int64)
    assert g._pmap_rows(empty).shape == (0, g.dim)
    assert lie._verified(g, empty.reshape(0, g.dim, g.dim)).shape == (0, g.dim, g.dim)


def test_srk_brute_on_a_centralizer_without_nilpotent_derivations():
    # z(E_03) of sl_4/F_3 in a random basis: 220 quotient classes reach the
    # derivation orbits, and no basis derivation has D^p = 0, so the
    # candidate stack is empty
    x = Mat(F3, [[0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    results = []
    for g in (special_linear(4, F3), _gl_based(special_linear(4, F3), 1)):
        h, _ = _centralizer_subalgebra(g, g.coords_of_matrix(x))
        results.append(srk_brute(h))
    assert not len(lie._derivation_exps(h))
    assert [(r.srk, r.o_rmin_count) for r in results] == [(3, 1008)] * 2



def test_srk_brute_golden_sl2_f25_matrix_model():
    # extension field with a matrix model: x^[p] is a matrix power over F_25
    res = srk_brute(special_linear(2, field_make(5, 2)))
    payload = {"srk": res.srk, "r_min": res.r_min, "o_rmin_count": res.o_rmin_count,
               "o_rmin": res.o_rmin.tolist(),
               "witness": [list(v) for v in res.witness.basis]}
    assert (res.srk, res.r_min, res.o_rmin_count) == (1, 1, 624)
    assert payload["witness"] == [[0, 1, 0]]
    assert hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest() == \
        "da130b5a39210934e29dd6502cba4fac7ce7632c613b467d55c96f4432067bfb"


def test_nullcone_golden_h3_f27_jacobson():
    # structure constants only, k = 3: x^[p] goes through Jacobson's formula
    g = heisenberg(1, field_make(3, 3))
    pts = nullcone(g)
    assert len(pts) == 27 ** 3
    assert hashlib.sha256(json.dumps(point_rows(g, pts).tolist()).encode()).hexdigest() == \
        "37b8691d6ccd431bec492b03bbb8acb49d41253f84b5bb219a8e417312f8e8af"


def _rebased(g, a):
    """g rewritten in the basis whose vector i has coordinates a[i] in g's basis."""
    f, d = g.field, g.dim
    inv = np.array([mat_solve(Mat(f, a), e) for e in np.eye(d, dtype=np.int64)]).T

    def coords(v):  # v = y . a, so y = v . a^-1
        return f.matmul(np.array(v, dtype=np.int64), inv).tolist()

    rows = [tuple(r) for r in a.tolist()]
    brackets = {(i, j): {k: c for k, c in enumerate(coords(g.bracket(rows[i], rows[j]))) if c}
                for i in range(d) for j in range(d)}
    pmap = [tuple(coords(g.pmap_eval(r))) for r in rows]
    return RestrictedLieAlgebra(f, brackets, pmap)


_REBASED_CASES = {
    "sl3_F3": lambda: special_linear(3, F3),
    "h5_F3": lambda: heisenberg(2, F3),
    "h3_F9": lambda: heisenberg(1, field_make(3, 2)),
}


@functools.lru_cache(maxsize=None)
def _brute(name):
    g = _REBASED_CASES[name]()
    return g, srk_brute(g)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(_REBASED_CASES))
def test_srk_brute_invariant_under_base_change(name, seed):
    g, res = _brute(name)
    f = g.field
    rng = np.random.default_rng(seed)
    while True:  # F_p <= F_q: the codes 0, ..., p - 1 are the prime field
        a = rng.integers(0, f.p, size=(g.dim, g.dim))
        if mat_rank(Mat(f, a)) == g.dim and (a != np.eye(g.dim)).any():
            break
    moved = srk_brute(_rebased(g, a))
    assert (moved.srk, moved.r_min, moved.o_rmin_count) == (res.srk, res.r_min, res.o_rmin_count)
    # y -> y . a sends the new coordinates of o_rmin onto the old ones
    image = f.matmul(moved.o_rmin, a)
    assert np.array_equal(image[np.lexsort(image.T[::-1])], res.o_rmin)


def test_srk_brute_o_rmin_sl2():
    res = srk_brute(special_linear(2, F3))
    assert res.o_rmin_count == 8  # every nonzero nullcone point
    assert res.r_min == res.srk == 1
    assert res.witness is not None and res.witness.rank == 1


def test_srk_brute_o_rmin_heisenberg():
    res = srk_brute(heisenberg(1, F3))
    assert res.o_rmin_count == 26
    assert is_elementary(heisenberg(1, F3), res.witness.basis)


def test_srk_brute_min_le_max():
    for g in (special_linear(2, F3), heisenberg(1, F3)):
        res = srk_brute(g)
        ranks = [local_rank(g, x).rank for x in res.o_rmin[:3]]
        assert all(r == res.srk for r in ranks)


def test_srk_le_max_local_rank():
    # the minimum over the nullcone never exceeds the largest witness rank
    for g in (special_linear(2, F3), heisenberg(1, F3)):
        res = srk_brute(g)
        ranks = [local_rank(g, x).rank for x in point_rows(g, nullcone(g)[1:]).tolist()]
        assert res.srk == min(ranks) <= max(ranks)
    g = heisenberg(2, F3)
    res = srk_brute(g)
    sample = point_rows(g, nullcone(g)[1:]).tolist()[::40]
    ranks = [local_rank(g, x).rank for x in sample]
    assert res.srk <= max(ranks) and res.srk == min(ranks)


def test_adjoint_invariance_sl2():
    """Conjugation by SL2 fixes local ranks on the nullcone."""
    sl2 = special_linear(2, F3)
    f = sl2.field
    rng = random.Random(11)

    def random_sl2():
        # product of elementary transvections has determinant 1
        m = Mat.identity(f, 2)
        for _ in range(4):
            t = np.eye(2, dtype=np.int64)
            t[rng.choice([(0, 1), (1, 0)])] = rng.randrange(f.q)
            m = m @ Mat(f, t)
        return m

    pts = point_rows(sl2, nullcone(sl2)[1:]).tolist()
    for x in pts[:6]:
        rx = local_rank(sl2, x).rank
        for _ in range(3):
            gmat = random_sl2()
            ginv_coeffs = np.array([[gmat.a[1, 1], (-gmat.a[0, 1]) % f.p],
                                    [(-gmat.a[1, 0]) % f.p, gmat.a[0, 0]]])
            ginv = Mat(f, ginv_coeffs)
            assert (gmat @ ginv) == Mat.identity(f, 2)
            y = sl2.coords_of_matrix(gmat @ sl2.matrix_of(x) @ ginv)
            assert local_rank(sl2, y).rank == rx


def test_is_elementary_on_heisenberg_pairs():
    h = heisenberg(1, F3)
    assert is_elementary(h, [h.basis_vec(0), h.basis_vec(2)])
    assert not is_elementary(h, [h.basis_vec(0), h.basis_vec(1)])  # [x,y] = z


# ---------------------------------------------------------------------------
# JSON interface
# ---------------------------------------------------------------------------

def heisenberg_json():
    return {
        "p": 3, "k": 1, "dim": 3,
        "labels": ["x", "y", "z"],
        "brackets": [{"i": 0, "j": 1, "out": [{"k": 2, "c": [1]}]}],
        "pmap": [{"i": 0, "out": []}, {"i": 1, "out": []}, {"i": 2, "out": []}],
    }


def test_load_lie_roundtrip(tmp_path):
    path = tmp_path / "h3.json"
    path.write_text(json.dumps(heisenberg_json()))
    g = load_lie(str(path))
    assert g.dim == 3
    assert g.bracket(g.basis_vec(0), g.basis_vec(1)) == g.basis_vec(2)
    rep = lie_report(g)
    assert rep["srk"] == 2
    assert rep["r_min"] == 2
    assert rep["o_rmin_count"] == 26
    assert rep["witnesses"]


def test_load_lie_with_model():
    data = {
        "p": 3, "k": 1, "dim": 3,
        "labels": ["e", "f", "h"],
        "brackets": [
            {"i": 0, "j": 1, "out": [{"k": 2, "c": [1]}]},
            {"i": 2, "j": 0, "out": [{"k": 0, "c": [2]}]},
            {"i": 2, "j": 1, "out": [{"k": 1, "c": [1]}]},
        ],
        "pmap": [{"i": 2, "out": [{"k": 2, "c": [1]}]}],
        "matrix_model": [[0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 2]],
    }
    g = load_lie(data)
    assert g.matrix_model is not None
    assert srk_brute(g).srk == 1
    data["matrix_model"] = []  # an empty list is no model
    assert load_lie(data).matrix_model is None


def test_load_lie_malformed():
    with pytest.raises(PreconditionError):
        load_lie({"p": 3})
    bad = heisenberg_json()
    bad["brackets"][0]["out"][0]["k"] = 5  # out of range index
    with pytest.raises((PreconditionError, IndexError)):
        load_lie(bad)


@pytest.mark.parametrize("path,value", [
    (("brackets", 0, "i"), -1), (("brackets", 0, "j"), -3), (("brackets", 0, "out", 0, "k"), -1),
    (("pmap", 2, "i"), -1), (("pmap", 2, "i"), 3), (("brackets", 0, "j"), 10 ** 30),
    (("brackets", 0, "out", 0, "k"), -10 ** 30),
])
def test_load_lie_refuses_indices_outside_the_basis(path, value):
    # a negative index is refused, not wrapped round by numpy indexing
    data = heisenberg_json()
    data["pmap"][2]["out"] = [{"k": 2, "c": 0}]
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with pytest.raises(PreconditionError, match=rf"index {path[-1]}={value} outside \[0, 3\)"):
        load_lie(data)


def test_load_lie_reduces_huge_coefficients_and_refuses_long_digit_lists():
    data = heisenberg_json()
    data["brackets"][0]["out"][0]["c"] = 10 ** 30 + 3 * 10 ** 40  # 1 mod 3
    assert load_lie(data).bracket((1, 0, 0), (0, 1, 0)) == (0, 0, 1)
    data["brackets"][0]["out"][0]["c"] = [-10 ** 30]  # 2 mod 3
    assert load_lie(data).bracket((1, 0, 0), (0, 1, 0)) == (0, 0, 2)
    data["brackets"][0]["out"][0]["c"] = [1, 0]  # two digits over F_3
    with pytest.raises(PreconditionError, match="more than k = 1 digits"):
        load_lie(data)


@pytest.mark.parametrize("brackets,pmap,named", [
    ({(0, 1): {2: 2 ** 70}}, [(0, 0, 0)] * 3, f"bracket term (i, j, k, c) = (0, 1, 2, {2 ** 70})"),
    ({(0, 1): {2: -2 ** 63 - 1}}, [(0, 0, 0)] * 3,
     f"bracket term (i, j, k, c) = (0, 1, 2, {-2 ** 63 - 1})"),
    ({}, [(0, 0, 0), (0, 2 ** 64, 0), (0, 0, 0)], f"p-map entry 1 = (0, {2 ** 64}, 0)"),
], ids=["bracket", "bracket_negative", "pmap"])
def test_dict_constructor_names_an_entry_past_int64(brackets, pmap, named):
    # the dict constructor takes field codes; a value past int64 is refused
    # by name where numpy would raise OverflowError
    with pytest.raises(PreconditionError, match=re.escape(named + " does not fit in int64")):
        RestrictedLieAlgebra(F3, brackets, pmap)
    # at the edge of int64 the codes are reduced mod q
    g = RestrictedLieAlgebra(F3, {}, [(0, 0, 2 ** 63 - 1)] * 3, validate="none")
    assert g.pmap == [(0, 0, (2 ** 63 - 1) % 3)] * 3


def test_load_lie_refuses_a_field_whose_codes_pass_int64():
    # p = nextprime(2**64): codes past int64 are refused before any array
    # is built, rather than overflowing in one
    p = 18446744073709551629
    data = {"p": p, "dim": 1, "pmap": [{"i": 0, "out": [{"k": 0, "c": p - 1}]}]}
    with pytest.raises(PreconditionError, match="do not fit in int64"):
        load_lie(data)
    with pytest.raises(BudgetError):
        load_lie(data, budget=10 ** 6)


# ---------------------------------------------------------------------------
# the JSON loader against a dict walk, and what a valid model implies
# ---------------------------------------------------------------------------

def _reference_tables(data):
    """(adb, pmap, model stack or None, labels) of a structure-constant
    input, read entry by entry into dicts: the last entry of a pair (i, j)
    or of a p-map index i counts, and in it the last term of each k; an
    integer coefficient n is n mod p, a digit list the residue with those
    digits mod p; a pair (j, i) with no entry of its own is -[b_i, b_j]."""
    f, dim = field_make(data["p"], data.get("k", 1)), data["dim"]

    def code(c):
        if isinstance(c, list):
            return f.from_coeffs(c + [0] * (f.k - len(c)))
        return f.from_int(c)

    declared = {}
    for e in data.get("brackets", []):
        declared[e["i"], e["j"]] = {t["k"]: code(t["c"]) for t in e.get("out", [])}
    adb = np.zeros((dim,) * 3, dtype=np.int64)
    for (i, j), out in declared.items():
        for k, c in out.items():
            adb[i, k, j] = c
            if (j, i) not in declared:
                adb[j, k, i] = f.neg(c)
    pmap = {}
    for e in data.get("pmap", []):
        pmap[e["i"]] = {t["k"]: code(t["c"]) for t in e.get("out", [])}
    rows = np.zeros((dim, dim), dtype=np.int64)
    for i, out in pmap.items():
        for k, c in out.items():
            rows[i, k] = c
    model = None
    if data.get("matrix_model"):
        n = int(round(len(data["matrix_model"][0]) ** 0.5))
        model = np.array([[code(c) for c in flat] for flat in data["matrix_model"]],
                         dtype=np.int64).reshape(-1, n, n)
    return adb, rows, model, data.get("labels") or [f"b{i}" for i in range(dim)]


# integers past int64 included; 10**30 is 1 mod 3
_RAW_INTS = st.one_of(st.integers(-40, 40),
                      st.sampled_from([10 ** 30, -10 ** 30, 3 * 10 ** 30, 2 ** 63, -2 ** 63 - 1]))


@st.composite
def _structure_inputs(draw):
    """Structure-constant inputs over F_3, F_9 or F_27 of dim <= 5, tables
    not checked: repeated pairs, both orders of a pair, repeated k in an
    entry, entries with an empty or absent out, int and digit-list
    coefficients, p-map entries given twice and, half the time, a matrix
    model in row echelon form (so its basis is independent)."""
    p, k = draw(st.sampled_from([(3, 1), (3, 2), (3, 3)]))
    dim = draw(st.integers(1, 5))
    index = st.integers(0, dim - 1)
    coeff = st.one_of(_RAW_INTS, st.lists(_RAW_INTS, max_size=k))
    out = st.lists(st.fixed_dictionaries({"k": index, "c": coeff}), max_size=4)
    data = {
        "p": p, "k": k, "dim": dim,
        "brackets": draw(st.lists(st.fixed_dictionaries({"i": index, "j": index},
                                                        optional={"out": out}), max_size=12)),
        "pmap": draw(st.lists(st.fixed_dictionaries({"i": index}, optional={"out": out}),
                              max_size=7)),
    }
    if draw(st.booleans()):
        data["labels"] = [f"v{i}" for i in range(dim)]
    if draw(st.booleans()):
        # matrix t is zero before its pivot position, nonzero there
        pivots = sorted(draw(st.lists(st.integers(0, 8), min_size=dim, max_size=dim, unique=True)))
        zero = st.sampled_from([0, 3, -3, 3 * 10 ** 30, [], [0] * k, [3, -3][:k]])
        unit = st.sampled_from([1, 2, -1, 10 ** 30, -10 ** 30, [1], [2, 5][:k], [0, 1] if k > 1 else [4]])
        data["matrix_model"] = [[draw(zero if e < at else unit if e == at else coeff)
                                 for e in range(9)] for at in pivots]
    return data


@settings(max_examples=200, deadline=None)
@given(data=_structure_inputs())
def test_load_lie_tables_are_the_dict_walk(data):
    # validation off: the tables of unchecked inputs are compared as read
    with mock.patch.object(RestrictedLieAlgebra, "validate", lambda self: None):
        g = load_lie(data)
    adb, pmap, model, labels = _reference_tables(data)
    assert g._adb.dtype == np.int64 and np.array_equal(g._adb, adb)
    assert g._pmap.dtype == np.int64 and np.array_equal(g._pmap, pmap)
    assert g.pmap == [tuple(r) for r in pmap.tolist()] and g.labels == labels
    if model is None:
        assert g.matrix_model is None
    else:
        assert np.array_equal(g._model, model)
        assert [m.a.tolist() for m in g.matrix_model] == model.tolist()


def _spelled(draw, f, c):
    """A JSON coefficient of code c: its digit list, with the trailing zeros
    dropped or not and multiples of p added, or an integer when c is in F_p."""
    digits = list(f.coeffs(c))
    while digits and not digits[-1] and draw(st.booleans()):
        digits.pop()
    digits = [d + f.p * draw(st.sampled_from([0, 1, -2, 10 ** 30, -10 ** 30])) for d in digits]
    if len(digits) <= 1 and draw(st.booleans()):
        return digits[0] if digits else f.p * draw(st.sampled_from([0, -1, 10 ** 30]))
    return digits


_VALID_SOURCES = {
    "sl2_F9": lambda: special_linear(2, field_make(3, 2)),
    "sl2_F27_gl": lambda: _gl_based(special_linear(2, field_make(3, 3)), 4),
    "sl3_F3_gl": lambda: _gl_based(special_linear(3, F3), 2),
    "h3_F27": lambda: heisenberg(1, field_make(3, 3)),
    "h5_F3_gl": lambda: _gl_rebased(heisenberg(2, F3), 5),
}


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(_VALID_SOURCES)), data=st.data())
def test_load_lie_reads_every_spelling_of_a_valid_algebra(name, data):
    # a valid algebra written with garbage entries that later entries
    # override, with one or both orders of each pair and with every
    # coefficient spelled at random: validated, and the source's tables
    g = _VALID_SOURCES[name]()
    f, dim = g.field, g.dim
    draw = data.draw
    pairs = [(i, j) for i in range(dim) for j in range(dim)
             if i < j or (i > j and draw(st.booleans()))]
    brackets, pmap = [], []
    for i, j in draw(st.permutations(pairs)):
        if draw(st.booleans()):
            brackets.append({"i": i, "j": j, "out": [{"k": 0, "c": 1}, {"k": dim - 1, "c": [2]}]})
        out = [{"k": k, "c": _spelled(draw, f, c)} for k, c in enumerate(g._adb[i][:, j].tolist())
               if c or draw(st.booleans())]
        brackets.append({"i": i, "j": j, "out": draw(st.permutations(out))})
    for i in draw(st.permutations(range(dim))):
        if draw(st.booleans()):
            pmap.append({"i": i, "out": [{"k": 0, "c": 1}]})
        pmap.append({"i": i, "out": [{"k": k, "c": _spelled(draw, f, c)}
                                     for k, c in enumerate(g.pmap[i]) if c]})
    doc = {"p": f.p, "k": f.k, "dim": dim, "brackets": brackets, "pmap": pmap}
    if g.matrix_model:
        doc["matrix_model"] = [[_spelled(draw, f, c) for c in m.a.ravel().tolist()]
                               for m in g.matrix_model]
    h = load_lie(json.loads(json.dumps(doc)))
    assert np.array_equal(h._adb, g._adb) and h.pmap == g.pmap
    assert (h.matrix_model is None) == (g.matrix_model is None)
    if g.matrix_model:
        assert np.array_equal(h._model, g._model)


def _conjugated(g, seed):
    """from_matrix_basis of the model matrices of g conjugated by a seeded
    random P in GL_n, in a seeded random basis."""
    f, n = g.field, g._model.shape[-1]
    rng = np.random.default_rng(seed)
    while True:
        p = rng.integers(0, f.q, size=(n, n))
        if mat_rank(Mat(f, p)) == n:
            break
    p_inv = np.array([mat_solve(Mat(f, p), e) for e in np.eye(n, dtype=np.int64)]).T
    mats = [f.matmul(f.matmul(p, g.matrix_of(tuple(row)).a), p_inv)
            for row in _random_change(g, seed).tolist()]
    return from_matrix_basis(f, [Mat(f, m) for m in mats])


_MODEL_ZOO = {
    **{f"sl{n}_F{q}": (lambda n=n, p=p, k=k: special_linear(n, field_make(p, k)))
       for n in (2, 3, 4) for p, k, q in ((2, 1, 2), (3, 1, 3), (5, 1, 5), (3, 2, 9))},
    **{f"sl{n}_F{p}_conjugate{seed}": (lambda n=n, p=p, seed=seed:
                                       _conjugated(special_linear(n, field_make(p, 1)), seed))
       for n, p, seed in ((2, 3, 1), (3, 2, 2), (3, 5, 3), (4, 3, 4))},
    # sl_2 over F_9 and F_25 in a random basis, as the lie-ext workload
    # builds its sl_2 inputs
    **{f"sl2_F{q}_gl{seed}": (lambda p=p, seed=seed:
                              _gl_based(special_linear(2, field_make(p, 2)), seed))
       for p, q in ((3, 9), (5, 25)) for seed in (1, 7)},
}


def _passes(check):
    try:
        check()
    except PreconditionError:
        return False
    return True


@pytest.mark.parametrize("name", sorted(_MODEL_ZOO))
def test_a_valid_model_implies_jacobi_and_restrictedness(name):
    # validate skips the Jacobi and restrictedness sweeps when the model
    # check passes; they pass on every zoo algebra, and on every antisymmetric
    # perturbation of its tables that the model check lets through
    g = _MODEL_ZOO[name]()
    assert _passes(g._validate_model)
    g._validate_jacobi()
    g._validate_restricted()
    f, rng = g.field, random.Random(name)
    for trial in range(4):
        adb, pmap = g._adb.copy(), g._pmap.copy()
        i, j, k = rng.sample(range(g.dim), 2) + [rng.randrange(g.dim)]
        c = rng.randrange(f.q) if trial else 0
        adb[i, k, j], adb[j, k, i] = c, f.neg(c)
        if trial % 2:
            pmap[i, k] = rng.randrange(f.q)
        h = RestrictedLieAlgebra._from_arrays(f, adb, pmap, solver=g._coord_solver)
        if _passes(h._validate_model):
            h._validate_jacobi()
            h._validate_restricted()
