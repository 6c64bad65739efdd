"""Command line surface.

Every subcommand emits a JSON report (or a lossy key/value table with
--format table) on stdout or to --out; reproduce-paper defaults to its
PASS/FAIL table, and --format json gives every criterion with its details
dict.  Exit codes: 0 success, 2 precondition violated (including malformed
or unreadable input files and an unwritable --out), 3 enumeration budget
exceeded, 64 usage errors, 1 failed cross-checks in
oracle-crosscheck/reproduce-paper.
Identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .errors import BudgetError, PreconditionError
from .fields import field_make, mat_is_p_nilpotent

# Each _cmd_* imports the layers it uses when it runs, so a subcommand loads
# only those: group-srk never compiles lie or the sl_n modules.

USAGE_EXIT = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _budget(args):
    """--budget where the subcommand has it, else SATRANK_BUDGET, else
    DEFAULT_BUDGET; negative is invalid input."""
    from .lie import DEFAULT_BUDGET
    budget, source = getattr(args, "budget", None), "--budget"
    if budget is None:
        env, source = os.environ.get("SATRANK_BUDGET"), "SATRANK_BUDGET"
        try:
            budget = int(env) if env else DEFAULT_BUDGET
        except ValueError:
            raise PreconditionError(f"SATRANK_BUDGET is not an integer: {env!r}")
    if budget < 0:
        raise PreconditionError(f"{source} must be >= 0, got {budget}")
    return budget


def _emit(report: dict, args) -> None:
    if args.format == "table":
        lines = []

        def walk(prefix, value):
            if isinstance(value, dict):
                for k, v in value.items():
                    walk(f"{prefix}{k}." if isinstance(v, dict) else f"{prefix}{k}", v)
            else:
                lines.append(f"{prefix}\t{json.dumps(value)}")

        walk("", report)
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(report, indent=2) + "\n"
    _write(text, args)


def _write(text: str, args) -> None:
    if args.out:
        with open(args.out, "w") as fp:
            fp.write(text)
    else:
        sys.stdout.write(text)


def _parse_partition(text: str):
    from .slnorbits import Partition
    try:
        parts = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise PreconditionError(f"cannot parse partition {text!r}")
    return Partition(parts)


def _add_common(sp, default_format="json"):
    sp.add_argument("--out", default=None, help="write the report to a file")
    sp.add_argument("--format", choices=["json", "table"], default=default_format)


def build_parser() -> _Parser:
    parser = _Parser(prog="satrank", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("group-srk", help="saturation rank of a permutation group")
    sp.add_argument("--file", required=True)
    _add_common(sp)

    sp = sub.add_parser("lie-srk", help="brute-force saturation rank of a restricted Lie algebra")
    sp.add_argument("--file", required=True)
    sp.add_argument("--budget", type=int, default=None)
    _add_common(sp)

    sp = sub.add_parser("lie-nullcone", help="restricted nullcone of a Lie algebra")
    sp.add_argument("--file", required=True)
    sp.add_argument("--budget", type=int, default=None)
    sp.add_argument("--list-limit", type=int, default=5000)
    _add_common(sp)

    sp = sub.add_parser("sln-srk", help="closed-form srk(sl_n)")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)
    _add_common(sp)

    sp = sub.add_parser("sln-orbits", help="orbit table with local ranks and witness dims")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)
    _add_common(sp)

    sp = sub.add_parser("sln-centralizer", help="traceless centralizer basis at a Jordan type")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--partition", required=True, help="comma separated, e.g. 3,1")
    _add_common(sp)

    sp = sub.add_parser("sln-witness", help="elementary subalgebra witnesses at a Jordan type")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--partition", required=True)
    sp.add_argument("--maximal", action="store_true")
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--budget", type=int, default=None)
    _add_common(sp)

    sp = sub.add_parser("frob2-srk", help="saturation rank of the second Frobenius kernel")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)
    _add_common(sp)

    sp = sub.add_parser("frob2-verify-exp", help="exhaustive homomorphism sweep of exp maps")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--budget", type=int, default=None)
    _add_common(sp)

    sp = sub.add_parser("oracle-crosscheck", help="agreement of oracles with structured modules")
    sp.add_argument("--seed", type=int, default=0)
    _add_common(sp)

    sp = sub.add_parser("reproduce-paper", help="run the acceptance table, PASS/FAIL per line "
                        "(--format json: every criterion with its details)")
    _add_common(sp, default_format="table")

    return parser


def _cmd_group_srk(args):
    from .groups import group_report, load_group
    g, p = load_group(args.file)
    return group_report(g, p)


def _cmd_lie_srk(args):
    from .lie import lie_report, load_lie
    budget = _budget(args)
    return lie_report(load_lie(args.file, budget=budget), budget=budget)


def _cmd_lie_nullcone(args):
    from .lie import load_lie, nullcone, point_rows
    if args.list_limit < 0:
        raise PreconditionError(f"--list-limit must be >= 0, got {args.list_limit}")
    budget = _budget(args)
    g = load_lie(args.file, budget=budget)
    codes = nullcone(g, budget=budget)
    report = {"dim": g.dim, "q": g.field.q, "count": len(codes)}
    if len(codes) <= args.list_limit:
        rows = point_rows(g, codes).tolist()
        report["points"] = [[list(g.field.coeffs(c)) for c in v] for v in rows]
    else:
        report["points_omitted"] = True
    return report


def _cmd_sln_srk(args):
    from .slnorbits import sln_srk_report
    return sln_srk_report(args.n, args.p, _budget(args))


def _cmd_sln_orbits(args):
    from .slnorbits import sln_report
    return sln_report(args.n, args.p, _budget(args))


def _cmd_sln_centralizer(args):
    from .slnorbits import centralizer_sl_basis
    lam = _parse_partition(args.partition)
    if lam.n != args.n:
        raise PreconditionError(f"partition {lam.parts} does not sum to n={args.n}")
    res = centralizer_sl_basis(lam, field_make(args.p))
    return {
        "n": args.n,
        "p": args.p,
        "partition": list(lam.parts),
        "dimension": len(res.basis),
        "degenerate": res.degenerate,
        "basis": [repr(c) for c in res.basis],
    }


def _cmd_sln_witness(args):
    from .lie import sl_matrices
    from .slnorbits import OrbitClass, lower_orbit_witness, regular_witness, subregular_witnesses
    lam = _parse_partition(args.partition)
    n = args.n
    if lam.n != n:
        raise PreconditionError(f"partition {lam.parts} does not sum to n={n}")
    budget = _budget(args)
    field = field_make(args.p, args.k)
    kind = OrbitClass.of(lam, args.p).kind
    if kind == "regular":
        subs = [regular_witness(n, field, budget)]
    elif kind == "subregular":
        subs = subregular_witnesses(n, field, budget)
    else:
        subs = [lower_orbit_witness(lam, field, args.maximal, budget)]
    out = [{"dim": s.rank, "basis_matrices": sl_matrices(n, field, s.basis).tolist()}
           for s in subs]
    return {"n": n, "p": args.p, "partition": list(lam.parts), "witnesses": out}


def _cmd_frob2_srk(args):
    from .frobkernel import frob2_report
    return frob2_report(args.n, args.p, _budget(args))


def _cmd_frob2_verify_exp(args):
    from .frobkernel import homomorphism_sweep, srk_sln2
    budget = _budget(args)
    field = field_make(args.p, args.k)
    pair = srk_sln2(args.n, field, budget).pair  # refuses n < 2 and p < n first
    pairs = field.q ** 2
    if pairs > budget:
        raise BudgetError(f"the sweep checks {pairs} pairs, over the budget {budget}")
    checked = homomorphism_sweep(pair)
    return {"n": args.n, "p": args.p, "k": args.k, "pairs_checked": checked, "holds": True}


def _cmd_oracle_crosscheck(args):
    from .groups import dihedral_square, elementary_abelian, maximal_elemab, quaternion8, symmetric
    from .lie import heisenberg, special_linear, srk_brute
    from .oracle import SearchBudget, oracle_commuting_pairs, oracle_maximal_elemab, oracle_srk_lie
    checks = []

    def record(name, ok, **info):
        entry = {"name": name, "pass": bool(ok)}
        entry.update(info)
        checks.append(entry)

    for gname, g, p in [("D8", dihedral_square(), 2), ("Q8", quaternion8(), 2),
                        ("Z3xZ3", elementary_abelian(3, 2), 3), ("S4", symmetric(4), 2)]:
        oracle = {s.elements for s in oracle_maximal_elemab(g, p)}
        structured = {s.elements for s in maximal_elemab(g, p).all_subgroups}
        record(f"group_{gname}_p{p}", oracle == structured,
               classes=len(structured))
    f3 = field_make(3, 1)
    f5 = field_make(5, 1)
    for lname, alg in [("sl2_F3", special_linear(2, f3)), ("sl2_F5", special_linear(2, f5)),
                       ("h3_F3", heisenberg(1, f3))]:
        a = oracle_srk_lie(alg)
        b = srk_brute(alg).srk
        record(f"lie_{lname}", a == b, oracle=a, structured=b)
    pairs = oracle_commuting_pairs(2, f3)
    record("commuting_pairs_sl2_F3", pairs.count == 33, count=pairs.count)
    sampled = oracle_commuting_pairs(3, f5, budget=SearchBudget(deterministic_seed=args.seed))
    ok = bool(sampled.samples) and all(
        x.trace() == 0 and y.trace() == 0
        and mat_is_p_nilpotent(x, 5) and mat_is_p_nilpotent(y, 5)
        and (x @ y - y @ x).is_zero()
        for x, y in sampled.samples)
    record("commuting_pairs_sampled_sl3_F5", ok,
           samples=len(sampled.samples), seed=args.seed)
    all_pass = all(c["pass"] for c in checks)
    return {"checks": checks, "all_pass": all_pass}


def _cmd_reproduce_paper(args):
    """Run every criterion and write the table (or JSON); returns whether all passed."""
    from .acceptance import run_all
    results = run_all()
    ok = all(r.passed for r in results)
    if args.format == "json":
        criteria = [{"cid": r.cid, "description": r.description, "passed": r.passed,
                     "seconds": r.seconds, "error": r.error, "details": r.details}
                    for r in results]
        text = json.dumps({"criteria": criteria, "all_pass": ok}, indent=2) + "\n"
    else:
        lines = []
        for r in results:
            line = (f"{'PASS' if r.passed else 'FAIL'}  criterion {r.cid}: "
                    f"{r.description} ({r.seconds:.1f}s)")
            if not r.passed:
                line += f"  [{r.error}]"
            lines.append(line)
        text = "\n".join(lines) + "\n"
    _write(text, args)
    return ok


_DISPATCH = {
    "group-srk": _cmd_group_srk,
    "lie-srk": _cmd_lie_srk,
    "lie-nullcone": _cmd_lie_nullcone,
    "sln-srk": _cmd_sln_srk,
    "sln-orbits": _cmd_sln_orbits,
    "sln-centralizer": _cmd_sln_centralizer,
    "sln-witness": _cmd_sln_witness,
    "frob2-srk": _cmd_frob2_srk,
    "frob2-verify-exp": _cmd_frob2_verify_exp,
    "oracle-crosscheck": _cmd_oracle_crosscheck,
}


@functools.cache
def _parser() -> _Parser:
    """build_parser() once per process; parsing leaves the parser unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "reproduce-paper":
            return 0 if _cmd_reproduce_paper(args) else 1
        report = _DISPATCH[args.command](args)
        _emit(report, args)
        if args.command == "oracle-crosscheck" and not report["all_pass"]:
            return 1
        return 0
    except PreconditionError as exc:
        print(f"satrank: precondition error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"satrank: budget exceeded: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # a missing or unreadable --file, an unwritable --out
        print(f"satrank: cannot access file: {exc}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as exc:
        print(f"satrank: input is not UTF-8 text: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"satrank: malformed JSON input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
