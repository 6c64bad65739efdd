"""Workload table, seeded input generation and answer checks.

Every instance is a fixed mathematical object with a fixed expected answer.
The seed only disguises it: Lie inputs get a random GL(dim, F_q) change of
basis, groups get a random relabelling of their points.  Both leave the
answers unchanged, so the expectations below hold for every seed.

This module imports satrank lazily (inside the generators), so the parent
process of a benchmark run can read the instance table without loading the
library.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Instance:
    name: str
    kind: str      # lie-srk | local-rank | group-srk | reproduce-paper | oracle-crosscheck
    spec: tuple    # what to build; see build_inputs
    expect: dict   # answer keys that must match exactly


def _lie(name, family, n, p, k, srk, r_min, o_rmin_count):
    return Instance(name, "lie-srk", (family, n, p, k),
                    {"srk": srk, "r_min": r_min, "o_rmin_count": o_rmin_count})


def _group(name, build, p, srk, quillen, classes, equidim):
    return Instance(name, "group-srk", (build, p),
                    {"srk": srk, "quillen_dim": quillen, "classes": classes,
                     "equidimensional": equidim})


# Instances run in the listed order; the first one of each workload is the
# smallest and is what the smoke run uses.
WORKLOADS = {
    "lie-prime": [
        _lie("h3_F5", "heisenberg", 1, 5, 1, 2, 2, 124),
        _lie("sl3_F3", "sl", 3, 3, 1, 2, 2, 728),
        _lie("h5_F3", "heisenberg", 2, 3, 1, 3, 3, 242),
        _lie("sl3_F5", "sl", 3, 5, 1, 2, 2, 15624),
        Instance("sl4_F5_subregular", "local-rank", ("sl", 4, 5, 1, "subregular"), {"rank": 3}),
        Instance("sl4_F3_highest_root", "local-rank", ("sl", 4, 3, 1, "highest_root"), {"rank": 4}),
    ],
    "lie-ext": [
        _lie("sl2_F9", "sl", 2, 3, 2, 1, 1, 80),
        _lie("h3_F9", "heisenberg", 1, 3, 2, 2, 2, 728),
        _lie("sl2_F25", "sl", 2, 5, 2, 1, 1, 624),
        _lie("h3_F27", "heisenberg", 1, 3, 3, 2, 2, 19682),
    ],
    "groups": [
        _group("Z2^4", "Z2^4", 2, 4, 4, 1, True),
        _group("Z3^3", "Z3^3", 3, 3, 3, 1, True),
        _group("D8xD8", "D8xD8", 2, 4, 4, 4, True),
        _group("S7_p3", "S7", 3, 2, 2, 1, True),
        _group("S7_p2", "S7", 2, 3, 3, 2, True),
        _group("S4xS4", "S4xS4", 2, 4, 4, 4, True),
    ],
    "paper": [
        Instance("oracle-crosscheck", "oracle-crosscheck", (), {"all_pass": True}),
        Instance("reproduce-paper", "reproduce-paper", (), {"pass_lines": 9}),
    ],
}


# ---------------------------------------------------------------------------
# seeded input generation (runs in the child, during set-up)
# ---------------------------------------------------------------------------

def _rng(seed, inst):
    return random.Random(f"{seed}:{inst.name}")


def _random_invertible(rng, field, dim):
    from satrank.fields import Mat, mat_rank
    while True:
        rows = [[rng.randrange(field.q) for _ in range(dim)] for _ in range(dim)]
        a = Mat(field, rows)
        if mat_rank(a) == dim:
            return a


def _base_changed_lie(rng, family, n, p, k):
    """The algebra in a random basis, rebuilt from the public constructors."""
    from satrank.fields import field_make, mat_solve
    from satrank.lie import RestrictedLieAlgebra, from_matrix_basis, heisenberg, special_linear
    field = field_make(p, k)
    if family == "sl":
        base = special_linear(n, field)
        a = _random_invertible(rng, field, base.dim)
        mats = [base.matrix_of(tuple(row)) for row in a.a.tolist()]
        return from_matrix_basis(field, mats)
    base = heisenberg(n, field)
    a = _random_invertible(rng, field, base.dim)
    rows = [tuple(r) for r in a.a.tolist()]
    at = a.t()

    def new_coords(old):
        return mat_solve(at, list(old))

    brackets = {}
    for i in range(base.dim):
        for j in range(base.dim):
            if i != j:
                out = new_coords(base.bracket(rows[i], rows[j]))
                brackets[(i, j)] = {t: c for t, c in enumerate(out) if c}
    pmap = [new_coords(base.pmap_eval(r)) for r in rows]
    return RestrictedLieAlgebra(field, brackets, pmap, validate="none")


def _lie_json(g):
    f = g.field
    dim = g.dim

    def coeff(c):
        return list(f.coeffs(c))

    brackets = []
    for i in range(dim):
        for j in range(i + 1, dim):
            out = g.bracket(g.basis_vec(i), g.basis_vec(j))
            terms = [{"k": t, "c": coeff(c)} for t, c in enumerate(out) if c]
            if terms:
                brackets.append({"i": i, "j": j, "out": terms})
    pmap = [{"i": i, "out": [{"k": t, "c": coeff(c)} for t, c in enumerate(row) if c]}
            for i, row in enumerate(g.pmap)]
    data = {"p": f.p, "k": f.k, "dim": dim, "brackets": brackets, "pmap": pmap}
    if g.matrix_model:
        data["matrix_model"] = [[coeff(int(c)) for c in m.a.ravel()]
                                for m in g.matrix_model]
    return data


def _special_point(g, n, which):
    """Coordinates, in g's basis, of a named nilpotent matrix of sl_n."""
    from satrank.fields import Mat
    m = [[0] * n for _ in range(n)]
    if which == "highest_root":
        m[0][n - 1] = 1
    else:  # subregular: Jordan type (n-1, 1)
        for i in range(n - 2):
            m[i][i + 1] = 1
    return list(g.coords_of_matrix(Mat(g.field, m)))


_GROUPS = {
    "Z2^4": lambda G: G.elementary_abelian(2, 4),
    "Z3^3": lambda G: G.elementary_abelian(3, 3),
    "D8xD8": lambda G: G.direct_product(G.dihedral_square(), G.dihedral_square()),
    "S7": lambda G: G.symmetric(7),
    "S4xS4": lambda G: G.direct_product(G.symmetric(4), G.symmetric(4)),
}


def _relabelled_group(rng, build):
    from satrank import groups as G
    g = _GROUPS[build](G)
    sigma = list(range(g.degree))
    rng.shuffle(sigma)
    gens = []
    for gen in g.generators:
        img = [0] * g.degree
        for i, gi in enumerate(gen):
            img[sigma[i]] = sigma[gi]  # sigma o gen o sigma^-1
        gens.append(img)
    return {"degree": g.degree, "generators": gens}


def build_inputs(workload, seed, workdir, instances=None):
    """Write every instance's input JSON under workdir; returns per-instance call data."""
    calls = []
    for inst in instances if instances is not None else WORKLOADS[workload]:
        rng = _rng(seed, inst)
        call = {"inst": inst}
        if inst.kind in ("lie-srk", "local-rank"):
            family, n, p, k = inst.spec[:4]
            g = _base_changed_lie(rng, family, n, p, k)
            call["file"] = _write(workdir, inst.name, _lie_json(g))
            if inst.kind == "local-rank":
                call["point"] = _special_point(g, n, inst.spec[4])
        elif inst.kind == "group-srk":
            build, p = inst.spec
            data = _relabelled_group(rng, build)
            data["p"] = p
            call["file"] = _write(workdir, inst.name, data)
        elif inst.kind == "oracle-crosscheck":
            call["seed"] = seed
        calls.append(call)
    return calls


def _write(workdir, name, data):
    path = os.path.join(workdir, f"{name}.json")
    with open(path, "w") as fp:
        json.dump(data, fp)
    return path


# ---------------------------------------------------------------------------
# answer checks
# ---------------------------------------------------------------------------

def answer_of(inst, output):
    """The answer keys of one program output, in the shape of inst.expect."""
    if inst.kind == "lie-srk":
        return {k: output[k] for k in ("srk", "r_min", "o_rmin_count")}
    if inst.kind == "group-srk":
        return {"srk": output["srk"], "quillen_dim": output["quillen_dim"],
                "classes": len(output["classes"]),
                "equidimensional": output["equidimensional"]}
    if inst.kind == "local-rank":
        return {"rank": output["rank"]}
    if inst.kind == "oracle-crosscheck":
        return {"all_pass": output["all_pass"]}
    lines = output.splitlines()
    passes = sum(1 for line in lines if line.startswith("PASS"))
    return {"pass_lines": passes if passes == len(lines) else -len(lines)}
