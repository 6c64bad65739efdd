"""Nilpotent orbits of sl_n: partitions, centralizer shift maps, witnesses.

A nilpotent orbit is labelled by a partition of n; orbit closure is dominance
order.  For the Jordan representative x_lam the centralizer in gl_n has the
shift-map basis xi_i^(j,s): the endomorphism sending the i-th block cyclic
vector v_i to e^s . v_j and every other cyclic vector to 0, subject to
max(lam_j - lam_i, 0) <= s < lam_j.  An XiCombination keys its integer
coefficients by the triples (i, j, s); a shift map is a one-term combination.
xi builds one and refuses an out-of-bound triple, xi_term reads such a triple
as zero.  Composition and bracket are bilinear and stay inside this basis:

    xi_i^(j,s) . xi_p^(q,r) = delta(q,i) xi_p^(j,s+r)
    [xi_i^(j,s), xi_p^(q,r)] = delta(q,i) xi_p^(j,s+r) - delta(j,p) xi_i^(q,s+r)

The ordered basis of the underlying space lists each block's vectors as
e^(lam_i - 1) v_i, ..., e v_i, v_i, which makes x_lam the usual block matrix
with upper triangular Jordan blocks and equals sum_i xi_i^(i,1).

On top of the calculus this module builds explicit elementary subalgebras
witnessing local ranks: dimension n-1 families at the subregular orbit,
dimension >= n at every lower orbit, and the floor(n^2/4) nilradical witness
containing the highest root vector, plus the closed forms srk(sl_n) = n - 1
and O_rmin = regular + subregular.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import BudgetError, PreconditionError
from .fields import FieldSpec, Mat, _rref, field_make, is_prime, mat_solve
from .lie import DEFAULT_BUDGET, ElementarySubalgebra, from_matrix_basis, is_elementary, sl_coords


@dataclass(frozen=True, order=True)
class Partition:
    parts: tuple

    def __post_init__(self):
        parts = tuple(int(x) for x in self.parts)
        object.__setattr__(self, "parts", parts)
        if not parts or any(x <= 0 for x in parts):
            raise PreconditionError("partition parts must be positive")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise PreconditionError("partition parts must be weakly decreasing")

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def __repr__(self):
        return f"Partition{self.parts}"


def partitions(n: int):
    """All partitions of n, in descending lex order."""

    def gen(rest, bound):
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, bound), 0, -1):
            for tail in gen(rest - first, first):
                yield (first,) + tail

    for parts in gen(n, n):
        yield Partition(parts)


def dominance_leq(mu: Partition, lam: Partition) -> bool:
    """Whether every partial sum of mu is bounded by the one of lam."""
    if mu.n != lam.n:
        raise PreconditionError(f"partitions of different sizes: {mu.n} vs {lam.n}")
    total_m = total_l = 0
    for i in range(max(mu.length, lam.length)):
        total_m += mu.parts[i] if i < mu.length else 0
        total_l += lam.parts[i] if i < lam.length else 0
        if total_m > total_l:
            return False
    return True


def jordan_matrix(lam: Partition, field: FieldSpec) -> Mat:
    """Block diagonal nilpotent with upper triangular Jordan blocks of sizes lam."""
    n = lam.n
    a = np.zeros((n, n), dtype=np.int64)
    off = 0
    for part in lam.parts:
        for m in range(part - 1):
            a[off + m, off + m + 1] = field.one
        off += part
    return Mat(field, a)


def regular_powers(n: int, field: FieldSpec):
    """[e, e^2, ..., e^(n-1)] for the regular nilpotent e = x_(n); they are
    p-nilpotent, and span an elementary subalgebra, only for p >= n."""
    if field.p < n:
        raise PreconditionError(f"powers of the regular nilpotent need p >= n = {n}, got {field.p}")
    e = jordan_matrix(Partition((n,)), field)
    powers = []
    for _ in range(n - 1):
        powers.append(powers[-1] @ e if powers else e)
    return powers


def nullcone_top_partition(n: int, p: int) -> Partition:
    """Largest partition with all parts <= p: q parts p and one part n mod p."""
    if n < 1:
        raise PreconditionError("n must be >= 1")
    q, r = divmod(n, p)
    parts = (p,) * q + ((r,) if r else ())
    return Partition(parts)


def rank_sequence(m: Mat) -> list:
    """[rank(m^k) for k = 1, ..., n] for an n x n matrix m, from one stacked
    elimination of the powers."""
    f, powers = m.field, [m.a]
    for _ in range(m.rows - 1):
        powers.append(f.matmul(powers[-1], m.a))
    return _rref(f, np.stack(powers))[1].sum(axis=1).tolist()


def partition_of_nilpotent(m: Mat) -> Partition:
    """Jordan type of a nilpotent matrix from its rank sequence: the number
    of parts >= k is rank(m^(k-1)) - rank(m^k)."""
    ranks = rank_sequence(m)
    if ranks[-1] != 0:
        raise PreconditionError("matrix is not nilpotent")
    geq = [a - b for a, b in zip([m.rows] + ranks, ranks)]
    return Partition(tuple(sum(g >= i for g in geq) for i in range(1, geq[0] + 1)))


# ---------------------------------------------------------------------------
# the shift-map calculus
# ---------------------------------------------------------------------------

def _shifts(lam: Partition, i: int, j: int) -> range:
    """The s with xi_i^(j,s) in bounds, max(lam_j - lam_i, 0) <= s < lam_j;
    empty when a block index is out of range."""
    t = lam.length
    if not (1 <= i <= t and 1 <= j <= t):
        return range(0)
    li, lj = lam.parts[i - 1], lam.parts[j - 1]
    return range(max(lj - li, 0), lj)


class XiCombination:
    """Integer linear combination of the shift maps of one partition, each
    term keyed by its (i, j, s)."""

    def __init__(self, lam: Partition, terms=None):
        self.lam = lam
        self.terms = {key: c for key, c in (terms or {}).items() if c}

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        if self.lam != other.lam:
            raise PreconditionError("mixed partitions in a combination")
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0) + c
        return XiCombination(self.lam, out)

    def scale(self, c: int):
        return XiCombination(self.lam, {key: c * v for key, v in self.terms.items()})

    def __eq__(self, other):
        return (isinstance(other, XiCombination) and self.lam == other.lam
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.lam, tuple(sorted(self.terms.items()))))

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"{c}*xi_{i}^({j},{s})" for (i, j, s), c in sorted(self.terms.items()))


def xi_term(lam: Partition, i: int, j: int, s: int, coeff: int = 1) -> XiCombination:
    """coeff * xi_i^(j,s), the zero combination when the triple is out of bounds."""
    return XiCombination(lam, {(i, j, s): coeff} if s in _shifts(lam, i, j) else None)


def xi(lam: Partition, i: int, j: int, s: int) -> XiCombination:
    """The shift map xi_i^(j,s); PreconditionError when it is out of bounds."""
    if s not in _shifts(lam, i, j):
        raise PreconditionError(f"xi_{i}^({j},{s}) is out of bounds for {lam}")
    return xi_term(lam, i, j, s)


def xi_basis(lam: Partition):
    """All in-bound shift maps; count is sum_{i,j} min(lam_i, lam_j)."""
    t = lam.length
    return [xi_term(lam, i, j, s) for i in range(1, t + 1) for j in range(1, t + 1)
            for s in _shifts(lam, i, j)]


def xi_compose(a: XiCombination, b: XiCombination) -> XiCombination:
    """a . b as endomorphisms, bilinear in the terms:
    xi_i^(j,s) . xi_p^(q,r) = delta(q,i) xi_p^(j,s+r)."""
    if a.lam != b.lam:
        raise PreconditionError("composition across different partitions")
    return XiCombination(a.lam, _add_product({}, a, b, 1))


def xi_bracket(a: XiCombination, b: XiCombination) -> XiCombination:
    if a.lam != b.lam:
        raise PreconditionError("bracket across different partitions")
    return XiCombination(a.lam, _add_product(_add_product({}, a, b, 1), b, a, -1))


def _add_product(out, a, b, sign):
    """out with sign * (a . b) added to its (i, j, s) -> coefficient terms."""
    for (i, j, s), ca in a.terms.items():
        for (p, q, r), cb in b.terms.items():
            if q == i and s + r in _shifts(a.lam, p, j):
                out[p, j, s + r] = out.get((p, j, s + r), 0) + sign * ca * cb
    return out


def xi_to_matrix(lam: Partition, x: XiCombination, field: FieldSpec) -> Mat:
    """Matrix of a combination in the ordered block basis."""
    return Mat._wrap(field, xi_to_matrices(lam, [x], field)[0])


def xi_to_matrices(lam: Partition, combos, field: FieldSpec) -> np.ndarray:
    """The matrices of the combinations in the ordered block basis, as an
    (N, n, n) code array.  Distinct (i, j, s) fill disjoint diagonals of the
    block (j, i), so each term writes its coefficient, an F_p code, into its
    cells (_cells) without adding."""
    cells = _cells(lam)
    out = np.zeros((len(combos), lam.n, lam.n), dtype=np.int64)
    for k, x in enumerate(combos):
        if x.lam != lam:
            raise PreconditionError("combination anchored to a different partition")
        for key, coeff in x.terms.items():
            rows, cols = cells[key]
            out[k, rows, cols] = field.from_int(coeff)
    return out


# bounded: an orbit table visits each of its p(n) partitions once, while
# reproduce-paper revisits 41 partitions, which 64 entries keep
@functools.lru_cache(maxsize=64)
def _cells(lam: Partition) -> dict:
    """(rows, cols) of the matrix entries of each in-bound xi_i^(j,s): it
    sends e^u v_i to e^(u+s) v_j, which is zero from u + s = lam_j on, so
    its entries are a diagonal of the block (j, i) clipped there."""
    offs = list(itertools.accumulate(lam.parts, initial=0))
    t, cells = lam.length, {}
    for i in range(1, t + 1):
        for j in range(1, t + 1):
            li, lj = lam.parts[i - 1], lam.parts[j - 1]
            for s in _shifts(lam, i, j):
                m0 = max(0, s + li - lj)
                step = np.arange(li - m0)
                cells[i, j, s] = (offs[j - 1] + lj - li - s + m0 + step, offs[i - 1] + m0 + step)
    return cells


class CentralizerBasis(NamedTuple):
    basis: list          # XiCombinations spanning the traceless centralizer
    degenerate: bool     # True when every block size vanishes mod p


def centralizer_sl_basis(lam: Partition, field: FieldSpec) -> CentralizerBasis:
    """Basis of z(x_lam) intersected with sl_n.

    The trace of xi_i^(i,0) is lam_i; everything else in the shift basis is
    traceless, so the traceless part is the kernel of the linear functional
    (a_110, ..., a_tt0) -> sum_i lam_i a_ii0 mod p.  When p divides every
    lam_i the functional vanishes and the whole centralizer is returned.
    """
    p = field.p
    t = lam.length
    blocks = [xi_term(lam, i, i, 0) for i in range(1, t + 1)]
    singles = [c for c in xi_basis(lam) if c not in blocks]
    weights = [part % p for part in lam.parts]
    if all(w == 0 for w in weights):
        return CentralizerBasis(basis=singles + blocks, degenerate=True)
    pivot = max(i for i in range(t) if weights[i])
    inv_pivot = pow(weights[pivot], p - 2, p)
    diag = [blocks[i] + blocks[pivot].scale(-(weights[i] * inv_pivot % p))
            for i in range(t) if i != pivot]
    return CentralizerBasis(basis=singles + diag, degenerate=False)


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------

def _subalgebra_from_mats(field, mats) -> ElementarySubalgebra:
    basis = tuple(map(tuple, sl_coords(field, [m.a for m in mats]).tolist()))
    return ElementarySubalgebra(basis=basis)


def regular_witness(n: int, field: FieldSpec) -> ElementarySubalgebra:
    """span{e, ..., e^(n-1)} for the regular nilpotent; needs n >= 2 and p >= n."""
    if n < 2:
        raise PreconditionError("n must be >= 2")
    return _subalgebra_from_mats(field, regular_powers(n, field))


def subregular_witnesses(n: int, field: FieldSpec, budget: Optional[int] = None):
    """The dimension n-1 elementary subalgebras attached to the (n-1,1) orbit.

    For n > 3, p >= n-1 (or n = 3, p > 2) this is the line family
    span{xi_1^(1,1), ..., xi_1^(1,n-2), a xi_1^(2,0) + b xi_2^(1,n-2)} at every
    projective point (a : b); at (n, p) = (3, 2) only the two degenerate
    members with a b = 0 survive, since the mixed square is a b xi_1^(1,n-2).
    With a budget, BudgetError after the first member (which settles the
    preconditions) when the (q + 1)(n - 1) n^2 matrix entries of the family
    exceed it.
    """
    family = _subregular_family(n, field)
    first = next(family)
    entries = (field.q + 1) * (n - 1) * n * n
    if budget is not None and entries > budget:
        raise BudgetError(f"the subregular family has {entries} matrix entries, "
                          f"over the budget {budget}")
    return [first, *family]


def _subregular_family(n: int, field: FieldSpec):
    """The members of subregular_witnesses, one at a time."""
    p = field.p
    if n < 3:
        raise PreconditionError("subregular witnesses need n >= 3")
    special = (n == 3 and p == 2)
    if not special and p < n - 1:
        raise PreconditionError("subregular witnesses need p >= n-1")
    lam = Partition((n - 1, 1))
    shifts = [xi_to_matrix(lam, xi_term(lam, 1, 1, s), field) for s in range(1, n - 1)]
    corner_a = xi_to_matrix(lam, xi_term(lam, 1, 2, 0), field)
    corner_b = xi_to_matrix(lam, xi_term(lam, 2, 1, n - 2), field)
    if special:
        for corner in (corner_a, corner_b):
            yield _subalgebra_from_mats(field, shifts + [corner])
        return
    pline = itertools.chain(((field.one, b) for b in field.elements()), [(0, field.one)])
    for a, b in pline:
        mixed = corner_a.scale(a) + corner_b.scale(b)
        yield _subalgebra_from_mats(field, shifts + [mixed])


def highest_root_witness(n: int, field: FieldSpec, contain=None) -> ElementarySubalgebra:
    """The floor(n^2/4) dimensional abelian nilradical [[0, B], [0, 0]].

    Block split ceil(n/2) + floor(n/2); every member squares to zero, so the
    span is elementary for any p.  It contains the highest root vector E_1n;
    with contain="x_lambda" the basis swap e_2 <-> e_n is applied so the
    witness contains the Jordan representative E_12 of (2, 1^(n-2)) instead.
    """
    if n < 2:
        raise PreconditionError("n must be >= 2")
    n1 = (n + 1) // 2
    perm = list(range(n))
    if contain == "x_lambda" and n > 2:
        perm[1], perm[n - 1] = perm[n - 1], perm[1]
    mats = []
    for i in range(n1):
        for j in range(n1, n):
            a = np.zeros((n, n), dtype=np.int64)
            a[perm[i], perm[j]] = field.one
            mats.append(Mat(field, a))
    return _subalgebra_from_mats(field, mats)


def lower_orbit_min_p(n: int) -> int:
    """The least p for which the lower-orbit witnesses are built: max(2, n-2)."""
    return max(2, n - 2)


def _nilradical_orbit(lam: Partition) -> bool:
    """Whether lam is (2,1^(n-2)) or (1^n): the orbits inside the
    floor(n^2/4) dimensional nilradical witness."""
    n = lam.n
    return lam in (Partition((2,) + (1,) * (n - 2)), Partition((1,) * n))


def _case_split_witness(lam: Partition, field: FieldSpec):
    """Dimension >= n witness containing x_lam, per the three-branch construction."""
    t = lam.length
    n = lam.n
    s = max((i + 1 for i in range(t) if lam.parts[i] >= 2), default=0)
    combos = []
    for i in range(1, s + 1):
        for r in range(1, lam.parts[i - 1]):
            combos.append(xi_term(lam, i, i, r))
    ones = t - s
    if ones == 0:
        # all blocks of size >= 2: chain the blocks cyclically
        for i in range(1, t):
            combos.append(xi_term(lam, i, i + 1, lam.parts[i] - 1))
        combos.append(xi_term(lam, t, 1, lam.parts[0] - 1))
    elif ones == 1:
        # a single 1x1 block: reroute the chain through it
        for i in range(1, s):
            combos.append(xi_term(lam, i, i + 1, lam.parts[i] - 1))
        combos.append(xi_term(lam, t, s, lam.parts[s - 1] - 1))
        combos.append(xi_term(lam, t, 1, lam.parts[0] - 1))
    else:
        # several 1x1 blocks: use powers of the shift chain through them
        chain = XiCombination(lam)
        for i in range(1, ones):
            chain = chain + xi_term(lam, s + i + 1, s + i, 0)
        power = chain
        chain_mats = []
        for _ in range(ones - 1):
            chain_mats.append(power)
            power = xi_compose(power, chain)
        combos.extend(chain_mats)
        for i in range(1, s + 1):
            combos.append(xi_term(lam, i, i + 1, lam.parts[i] - 1))
        combos.append(xi_term(lam, t, 1, lam.parts[0] - 1))
    mats = [xi_to_matrix(lam, c, field) for c in combos]
    return mats


def lower_orbit_witness(lam: Partition, field: FieldSpec,
                        maximal: bool = False) -> ElementarySubalgebra:
    """Elementary subalgebra of dimension >= n containing x_lam, lam below (n-2,2).

    With maximal=True (only for (2,1^(n-2)) and (1^n)) the floor(n^2/4)
    nilradical witness is returned instead of the case-split one.
    """
    n = lam.n
    if n < 4:
        raise PreconditionError("lower orbits need n >= 4")
    if not dominance_leq(lam, Partition((n - 2, 2))):
        raise PreconditionError(f"{lam} is not below (n-2, 2)")
    if field.p < lower_orbit_min_p(n):
        raise PreconditionError("lower-orbit witnesses need p >= max(2, n-2)")
    if maximal:
        if not _nilradical_orbit(lam):
            raise PreconditionError(
                "the maximal nilradical witness applies to (2,1^(n-2)) and (1^n) only")
        contain = "x_lambda" if lam.parts[0] == 2 else None
        return highest_root_witness(n, field, contain=contain)
    if lam == Partition((1,) * n):
        # x_lam = 0; the case split degenerates, the nilradical witness applies
        return highest_root_witness(n, field)
    mats = _case_split_witness(lam, field)
    return _subalgebra_from_mats(field, mats)


# ---------------------------------------------------------------------------
# orbit table / closed forms
# ---------------------------------------------------------------------------

class Rank(NamedTuple):
    """A rank, whether it is exact or a lower bound, and a note on where it
    comes from."""
    value: int
    exact: bool
    note: str


@dataclass(frozen=True)
class OrbitClass:
    partition: Partition
    kind: str            # regular | subregular | lower
    local_rank: Optional[Rank]  # None outside the nullcone and at the zero orbit (1^n)

    @classmethod
    def of(cls, lam: Partition, p: int) -> "OrbitClass":
        n = lam.n
        if lam.parts == (n,):
            kind = "regular"
        elif lam.parts == (n - 1, 1) and n >= 3:  # (1, 1) is sl_2's zero orbit
            kind = "subregular"
        else:
            kind = "lower"
        if lam.parts[0] > p or lam.parts[0] == 1:
            # outside the restricted nullcone, or the zero orbit: local rank
            # is defined at nonzero nullcone points only
            return cls(lam, kind, None)
        if kind != "lower":
            info = Rank(n - 1, True, "")
        elif p < lower_orbit_min_p(n):
            info = Rank(n, False, "derived-not-paper")
        elif _nilradical_orbit(lam):
            info = Rank(n * n // 4, True, "")
        else:
            info = Rank(n, False, "lower bound")
        return cls(lam, kind, info)


def srk_sln(n: int, p: int, budget: int = DEFAULT_BUDGET) -> Rank:
    """Saturation rank of sl_n in characteristic p.

    Exact n-1 for p >= n-1.  At p = n-2 the rank strictly exceeds n-1 and is
    at least n (strict_inequality flag).  Below that the value is the
    dimension of the validated witness at the top nullcone partition, a
    certified lower bound only.  That witness has n basis matrices (lam_i - 1
    shift maps inside each block lam_i and one more per block), so
    validating it forms n^2 commutators of n^2 entries: BudgetError before
    any matrix is built when n^4 exceeds budget.
    """
    if n < 2:
        raise PreconditionError("n must be >= 2")
    if not is_prime(p):
        raise PreconditionError(f"p={p} must be prime")
    if p >= n - 1:
        return Rank(value=n - 1, exact=True, note="")
    if p == n - 2:
        return Rank(value=n, exact=False, note="strict_inequality")
    # p < n-2: build and validate the witness at the dense orbit of V(sl_n),
    # as an algebra on its own span; x_top lies in that span
    if n ** 4 > budget:
        raise BudgetError(f"top-orbit witness: {n}^2 commutators of {n}^2 entries are "
                          f"{n ** 4} > budget {budget}")
    top = nullcone_top_partition(n, p)
    field = field_make(p, 1)
    mats = _case_split_witness(top, field)
    span = from_matrix_basis(field, mats)
    rows = sl_coords(field, [m.a for m in mats + [jordan_matrix(top, field)]])
    if not (is_elementary(span, np.eye(span.dim, dtype=np.int64))
            and mat_solve(Mat(field, rows[:-1]).t(), rows[-1]) is not None):
        raise PreconditionError(f"witness construction failed for top partition {top} at p={p}")
    return Rank(value=span.dim, exact=False, note="derived-not-paper")


def o_rmin_sln(n: int, p: int):
    """Partitions whose orbits realize the minimal local rank: (n) and (n-1,1)."""
    if n < 3:
        raise PreconditionError("the classification needs n >= 3")
    if p < n:
        raise PreconditionError("the classification needs p >= n")
    return [Partition((n,)), Partition((n - 1, 1))]


def sln_srk_report(n: int, p: int, budget: int = DEFAULT_BUDGET) -> dict:
    """{n, p, srk, exact[, note]} for srk_sln(n, p, budget)."""
    srk = srk_sln(n, p, budget)
    report = {"n": n, "p": p, "srk": srk.value, "exact": srk.exact}
    if srk.note:
        report["note"] = srk.note
    return report


def sln_report(n: int, p: int, budget: int = DEFAULT_BUDGET) -> dict:
    field = field_make(p, 1)
    report = sln_srk_report(n, p, budget)
    orbits = []
    for lam in partitions(n):
        oc = OrbitClass.of(lam, p)
        entry = {"partition": list(lam.parts), "kind": oc.kind}
        if lam.parts[0] > p:
            entry["local_rank"] = None
            entry["in_nullcone"] = False
        else:
            entry["in_nullcone"] = True
            entry["local_rank"] = (None if oc.local_rank is None
                                   else oc.local_rank.value if oc.local_rank.exact
                                   else f">={oc.local_rank.value}")
            # in the nullcone, lam_1 <= p: p >= n at the regular orbit and
            # p >= n - 1 at the subregular one, so both witnesses are built
            dims = []
            if oc.kind == "regular":
                dims = [regular_witness(n, field).rank]
            elif oc.kind == "subregular":
                # every member has the n - 1 basis matrices of the first
                dims = [next(_subregular_family(n, field)).rank]
            elif n >= 4 and p >= lower_orbit_min_p(n):  # a lower orbit
                dims = [lower_orbit_witness(lam, field).rank]
                if _nilradical_orbit(lam):
                    dims.append(lower_orbit_witness(lam, field, maximal=True).rank)
            entry["witness_dims"] = dims
        orbits.append(entry)
    report["orbits"] = orbits
    report["o_rmin"] = ([list(lam.parts) for lam in o_rmin_sln(n, p)]
                        if (n >= 3 and p >= n) else None)
    return report
