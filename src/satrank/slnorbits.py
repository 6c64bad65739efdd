"""Nilpotent orbits of sl_n: partitions, centralizer shift maps, witnesses.

A nilpotent orbit is labelled by a partition of n; orbit closure is dominance
order.  For the Jordan representative x_lam the centralizer in gl_n has the
shift-map basis xi_i^(j,s): the endomorphism sending the i-th block cyclic
vector v_i to e^s . v_j and every other cyclic vector to 0, subject to
max(lam_j - lam_i, 0) <= s < lam_j; out-of-bound symbols are read as zero.
Composition and bracket stay inside this basis:

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

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import PreconditionError
from .fields import FieldSpec, Mat, field_make, is_prime, mat_rank
from .lie import ElementarySubalgebra, special_linear


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


def partitions(n: int, max_part: Optional[int] = None):
    """All partitions of n with parts <= max_part, in descending lex order."""
    cap = n if max_part is None else min(max_part, n)

    def gen(rest, bound):
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, bound), 0, -1):
            for tail in gen(rest - first, first):
                yield (first,) + tail

    for parts in gen(n, cap):
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


def nullcone_top_partition(n: int, p: int) -> Partition:
    """Largest partition with all parts <= p: q parts p and one part n mod p."""
    if n < 1:
        raise PreconditionError("n must be >= 1")
    q, r = divmod(n, p)
    parts = (p,) * q + ((r,) if r else ())
    return Partition(parts)


def partition_of_nilpotent(m: Mat) -> Partition:
    """Jordan type of a nilpotent matrix from its rank sequence."""
    n = m.rows
    ranks = [n]
    x = Mat.identity(m.field, n)
    for _ in range(n):
        x = x @ m
        ranks.append(mat_rank(x))
    if ranks[-1] != 0:
        raise PreconditionError("matrix is not nilpotent")
    geq = [ranks[k - 1] - ranks[k] for k in range(1, n + 1)]  # #parts >= k
    parts = []
    for k in range(n, 0, -1):
        new = geq[k - 1] - (geq[k] if k < n else 0)
        parts.extend([k] * new)
    return Partition(tuple(sorted(parts, reverse=True)))


# ---------------------------------------------------------------------------
# the shift-map calculus
# ---------------------------------------------------------------------------

@dataclass(frozen=True, order=True)
class XiElement:
    lam: Partition
    i: int
    j: int
    s: int

    def __post_init__(self):
        t = self.lam.length
        if not (1 <= self.i <= t and 1 <= self.j <= t):
            raise PreconditionError(f"block indices out of range for {self.lam}")
        li, lj = self.lam.parts[self.i - 1], self.lam.parts[self.j - 1]
        if not max(lj - li, 0) <= self.s < lj:
            raise PreconditionError(
                f"shift {self.s} out of bounds for xi_{self.i}^({self.j},{self.s})")

    def __repr__(self):
        return f"xi_{self.i}^({self.j},{self.s})"


class XiCombination:
    """Integer linear combination of shift maps anchored to one partition."""

    def __init__(self, lam: Partition, terms=None):
        self.lam = lam
        self.terms = {}
        for el, c in (terms or {}).items():
            if el.lam != lam:
                raise PreconditionError("mixed partitions in a combination")
            if c:
                self.terms[el] = self.terms.get(el, 0) + c
        self.terms = {el: c for el, c in self.terms.items() if c}

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        if self.lam != other.lam:
            raise PreconditionError("mixed partitions in a combination")
        out = dict(self.terms)
        for el, c in other.terms.items():
            out[el] = out.get(el, 0) + c
        return XiCombination(self.lam, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c: int):
        return XiCombination(self.lam, {el: c * v for el, v in self.terms.items()})

    def reduced(self, p: int):
        """Coefficients normalized into [0, p)."""
        return XiCombination(self.lam, {el: c % p for el, c in self.terms.items()})

    def __eq__(self, other):
        return (isinstance(other, XiCombination) and self.lam == other.lam
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.lam, tuple(sorted(self.terms.items(), key=lambda t: t[0]))))

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"{c}*{el}" for el, c in sorted(self.terms.items(), key=lambda t: t[0]))


def xi_term(lam: Partition, i: int, j: int, s: int, coeff: int = 1) -> XiCombination:
    """Single shift map, normalizing out-of-bound triples to the zero combination."""
    t = lam.length
    if not (1 <= i <= t and 1 <= j <= t):
        return XiCombination(lam)
    li, lj = lam.parts[i - 1], lam.parts[j - 1]
    if not max(lj - li, 0) <= s < lj:
        return XiCombination(lam)
    return XiCombination(lam, {XiElement(lam, i, j, s): coeff})


def xi_basis(lam: Partition):
    """All in-bound shift maps; count is sum_{i,j} min(lam_i, lam_j)."""
    out = []
    t = lam.length
    for i in range(1, t + 1):
        for j in range(1, t + 1):
            li, lj = lam.parts[i - 1], lam.parts[j - 1]
            for s in range(max(lj - li, 0), lj):
                out.append(XiElement(lam, i, j, s))
    return out


def xi_compose(a: XiElement, b: XiElement) -> XiCombination:
    """a . b as endomorphisms: delta(b.j == a.i) shifts compose."""
    if a.lam != b.lam:
        raise PreconditionError("composition across different partitions")
    if b.j != a.i:
        return XiCombination(a.lam)
    return xi_term(a.lam, b.i, a.j, a.s + b.s)


def xi_bracket(a: XiElement, b: XiElement) -> XiCombination:
    if a.lam != b.lam:
        raise PreconditionError("bracket across different partitions")
    return xi_compose(a, b) - xi_compose(b, a)


def xi_compose_combo(a: XiCombination, b: XiCombination) -> XiCombination:
    out = XiCombination(a.lam)
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            out = out + xi_compose(ea, eb).scale(ca * cb)
    return out


def _block_offsets(lam: Partition):
    offs = []
    off = 0
    for part in lam.parts:
        offs.append(off)
        off += part
    return offs


def xi_to_matrix(lam: Partition, x, field: FieldSpec) -> Mat:
    """Matrix of a shift map (or combination) in the ordered block basis."""
    if isinstance(x, XiElement):
        x = XiCombination(lam, {x: 1})
    if x.lam != lam:
        raise PreconditionError("combination anchored to a different partition")
    n = lam.n
    offs = _block_offsets(lam)
    a = np.zeros((n, n), dtype=np.int64)
    for el, coeff in x.terms.items():
        c = field.from_int(coeff)
        li = lam.parts[el.i - 1]
        lj = lam.parts[el.j - 1]
        row0 = offs[el.j - 1] + (lj - li - el.s)
        col0 = offs[el.i - 1]
        for m in range(max(0, el.s + li - lj), li):
            a[row0 + m, col0 + m] = field.add(int(a[row0 + m, col0 + m]), c)
    return Mat(field, a)


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
    singles = [XiCombination(lam, {el: 1}) for el in xi_basis(lam)
               if not (el.i == el.j and el.s == 0)]
    weights = [part % p for part in lam.parts]
    if all(w == 0 for w in weights):
        diag = [xi_term(lam, i, i, 0) for i in range(1, t + 1)]
        return CentralizerBasis(basis=singles + diag, degenerate=True)
    pivot = max(i for i in range(t) if weights[i])
    inv_pivot = pow(weights[pivot], p - 2, p)
    diag = []
    for i in range(t):
        if i == pivot:
            continue
        if weights[i] == 0:
            diag.append(xi_term(lam, i + 1, i + 1, 0))
        else:
            coeff = -(weights[i] * inv_pivot % p)
            diag.append(xi_term(lam, i + 1, i + 1, 0)
                        + xi_term(lam, pivot + 1, pivot + 1, 0, coeff))
    return CentralizerBasis(basis=singles + diag, degenerate=False)


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------

def _subalgebra_from_mats(n, field, mats) -> ElementarySubalgebra:
    alg = special_linear(n, field)
    basis = tuple(alg.coords_of_matrix(m) for m in mats)
    return ElementarySubalgebra(rank=len(basis), basis=basis)


def regular_witness(n: int, field: FieldSpec) -> ElementarySubalgebra:
    """span{e, ..., e^(n-1)} for the regular nilpotent; needs p >= n."""
    if field.p < n:
        raise PreconditionError("regular witness needs p >= n for p-nilpotency")
    e = jordan_matrix(Partition((n,)), field)
    mats = []
    cur = e
    for _ in range(n - 1):
        mats.append(cur)
        cur = cur @ e
    return _subalgebra_from_mats(n, field, mats)


def subregular_witnesses(n: int, p: int, field: FieldSpec):
    """The dimension n-1 elementary subalgebras attached to the (n-1,1) orbit.

    For n > 3, p >= n-1 (or n = 3, p > 2) this is the line family
    span{xi_1^(1,1), ..., xi_1^(1,n-2), a xi_1^(2,0) + b xi_2^(1,n-2)} at every
    projective point (a : b); at (n, p) = (3, 2) only the two degenerate
    members with a b = 0 survive, since the mixed square is a b xi_1^(1,n-2).
    """
    if n < 3:
        raise PreconditionError("subregular witnesses need n >= 3")
    if field.p != p:
        raise PreconditionError("field characteristic must match p")
    special = (n == 3 and p == 2)
    if not special and p < n - 1:
        raise PreconditionError("subregular witnesses need p >= n-1")
    lam = Partition((n - 1, 1))
    shifts = [xi_to_matrix(lam, xi_term(lam, 1, 1, s), field) for s in range(1, n - 1)]
    corner_a = xi_to_matrix(lam, xi_term(lam, 1, 2, 0), field)
    corner_b = xi_to_matrix(lam, xi_term(lam, 2, 1, n - 2), field)
    out = []
    if special:
        for corner in (corner_a, corner_b):
            out.append(_subalgebra_from_mats(n, field, shifts + [corner]))
        return out
    pline = [(field.one, b) for b in field.elements()] + [(0, field.one)]
    for a, b in pline:
        mixed = corner_a.scale(a) + corner_b.scale(b)
        out.append(_subalgebra_from_mats(n, field, shifts + [mixed]))
    return out


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
    return _subalgebra_from_mats(n, field, mats)


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
            power = xi_compose_combo(power, chain)
        combos.extend(chain_mats)
        for i in range(1, s + 1):
            combos.append(xi_term(lam, i, i + 1, lam.parts[i] - 1))
        combos.append(xi_term(lam, t, 1, lam.parts[0] - 1))
    mats = [xi_to_matrix(lam, c, field) for c in combos]
    return mats


def lower_orbit_witness(lam: Partition, p: int, field: FieldSpec,
                        maximal: bool = False) -> ElementarySubalgebra:
    """Elementary subalgebra of dimension >= n containing x_lam, lam below (n-2,2).

    With maximal=True (only for (2,1^(n-2)) and (1^n)) the floor(n^2/4)
    nilradical witness is returned instead of the case-split one.
    """
    n = lam.n
    if n < 4:
        raise PreconditionError("lower orbits need n >= 4")
    if field.p != p:
        raise PreconditionError("field characteristic must match p")
    if not dominance_leq(lam, Partition((n - 2, 2))):
        raise PreconditionError(f"{lam} is not below (n-2, 2)")
    if p < max(2, n - 2):
        raise PreconditionError("lower-orbit witnesses need p >= max(2, n-2)")
    two_special = lam in (Partition((2,) + (1,) * (n - 2)), Partition((1,) * n))
    if maximal:
        if not two_special:
            raise PreconditionError(
                "the maximal nilradical witness applies to (2,1^(n-2)) and (1^n) only")
        contain = "x_lambda" if lam.parts[0] == 2 else None
        return highest_root_witness(n, field, contain=contain)
    if lam == Partition((1,) * n):
        # x_lam = 0; the case split degenerates, the nilradical witness applies
        return highest_root_witness(n, field)
    mats = _case_split_witness(lam, field)
    return _subalgebra_from_mats(n, field, mats)


# ---------------------------------------------------------------------------
# orbit table / closed forms
# ---------------------------------------------------------------------------

class LocalRankInfo(NamedTuple):
    value: int
    exact: bool
    note: str


@dataclass(frozen=True)
class OrbitClass:
    partition: Partition
    kind: str            # regular | subregular | lower
    local_rank: Optional[LocalRankInfo]

    @classmethod
    def of(cls, lam: Partition, p: int) -> "OrbitClass":
        n = lam.n
        if lam.parts == (n,):
            kind = "regular"
        elif lam.parts == (n - 1, 1):
            kind = "subregular"
        else:
            kind = "lower"
        if lam.parts[0] > p:
            return cls(lam, kind, None)  # representative outside the restricted nullcone
        if kind == "regular":
            info = LocalRankInfo(n - 1, True, "")
        elif kind == "subregular":
            info = LocalRankInfo(n - 1, True, "")
        else:
            floor_special = lam in (Partition((2,) + (1,) * (n - 2)), Partition((1,) * n))
            if floor_special and p >= max(2, n - 2):
                info = LocalRankInfo(n * n // 4, True, "")
            elif p >= max(2, n - 2):
                info = LocalRankInfo(n, False, "lower bound")
            else:
                info = LocalRankInfo(n, False, "derived-not-paper")
        return cls(lam, kind, info)


class SlnSrk(NamedTuple):
    value: int
    exact: bool
    note: str


def srk_sln(n: int, p: int) -> SlnSrk:
    """Saturation rank of sl_n in characteristic p.

    Exact n-1 for p >= n-1.  At p = n-2 the rank strictly exceeds n-1 and is
    at least n (strict_inequality flag).  Below that the value is the
    dimension of the validated witness at the top nullcone partition, a
    certified lower bound only.
    """
    if n < 2:
        raise PreconditionError("n must be >= 2")
    if not is_prime(p):
        raise PreconditionError(f"p={p} must be prime")
    if p >= n - 1:
        return SlnSrk(value=n - 1, exact=True, note="")
    if p == n - 2:
        return SlnSrk(value=n, exact=False, note="strict_inequality")
    # p < n-2: build and validate the witness at the dense orbit of V(sl_n)
    from .lie import is_elementary
    top = nullcone_top_partition(n, p)
    field = field_make(p, 1)
    mats = _case_split_witness(top, field)
    alg = special_linear(n, field)
    basis = [alg.coords_of_matrix(m) for m in mats]
    x_top = alg.coords_of_matrix(jordan_matrix(top, field))
    rows = [list(v) for v in basis]
    ok = (is_elementary(alg, basis)
          and mat_rank(Mat(field, np.array(rows + [list(x_top)], dtype=np.int64))) == len(basis))
    if not ok:
        raise PreconditionError(f"witness construction failed for top partition {top} at p={p}")
    return SlnSrk(value=len(basis), exact=False, note="derived-not-paper")


def o_rmin_sln(n: int, p: int):
    """Partitions whose orbits realize the minimal local rank: (n) and (n-1,1)."""
    if n < 3:
        raise PreconditionError("the classification needs n >= 3")
    if p < n:
        raise PreconditionError("the classification needs p >= n")
    return [Partition((n,)), Partition((n - 1, 1))]


def sln_report(n: int, p: int) -> dict:
    field = field_make(p, 1)
    srk = srk_sln(n, p)
    orbits = []
    for lam in partitions(n):
        oc = OrbitClass.of(lam, p)
        entry = {"partition": list(lam.parts), "kind": oc.kind}
        if oc.local_rank is None:
            entry["local_rank"] = None
            entry["in_nullcone"] = False
        else:
            entry["in_nullcone"] = True
            entry["local_rank"] = (oc.local_rank.value if oc.local_rank.exact
                                   else f">={oc.local_rank.value}")
            dims = []
            if oc.kind == "regular" and p >= n:
                dims = [len(regular_witness(n, field).basis)]
            elif oc.kind == "subregular" and (p >= n - 1 or (n, p) == (3, 2)):
                dims = sorted({s.rank for s in subregular_witnesses(n, p, field)})
            elif oc.kind == "lower" and n >= 4 and p >= max(2, n - 2):
                dims = [lower_orbit_witness(lam, p, field).rank]
                if lam in (Partition((2,) + (1,) * (n - 2)), Partition((1,) * n)):
                    dims.append(lower_orbit_witness(lam, p, field, maximal=True).rank)
            entry["witness_dims"] = dims
        orbits.append(entry)
    report = {"n": n, "p": p, "srk": srk.value, "exact": srk.exact}
    if srk.note:
        report["note"] = srk.note
    report["orbits"] = orbits
    report["o_rmin"] = ([list(lam.parts) for lam in o_rmin_sln(n, p)]
                        if (n >= 3 and p >= n) else None)
    return report
