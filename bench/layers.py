"""Which satrank entry points the traced run wraps, and the per-layer metrics.

A layer is a module of src/satrank.  Each wrapped entry point records a span
named after its layer metric; per-scalar FieldSpec ops are deliberately not
wrapped (millions of calls per pass).  Counts come from the arguments and
results seen at the same boundary, so they repeat exactly for a seed.
"""

from __future__ import annotations

from tracer import outermost, self_times

CRITERIA = range(1, 10)


def install(tracer):
    """Patch every traced entry point into tracer; satrank must be imported."""
    from satrank import acceptance, fields, frobkernel, groups, lie, oracle, slnorbits

    def masks_counts(args, kwargs, result):
        search = args[0]
        return {"points": search.n,
                "pairs": sum(m.bit_count() for m in search.commuting)}

    plan = [
        (lie, "load_lie", "cli.load", None),
        (groups, "load_group", "cli.load", None),
        (fields, "field_make", "fields.field_make", None),
        (fields, "mat_rank", "fields.elim", None),
        (fields, "mat_kernel_basis", "fields.elim", None),
        (fields, "mat_solve", "fields.elim", None),
        (fields, "mat_det", "fields.elim", None),
        (fields.Mat, "__matmul__", "fields.matmul", None),
        (fields.Mat, "__pow__", "fields.matmul", None),
        (lie.RestrictedLieAlgebra, "validate", "lie.validate", None),
        (lie, "nullcone", "lie.nullcone", lambda a, k, r: {"points": len(r)}),
        (lie._TupleSearch, "__init__", "lie.masks", masks_counts),
        (lie._TupleSearch, "max_tuple_containing", "lie.search",
         lambda a, k, r: {"aborted": not r[2]}),
        (lie, "local_rank", "lie.local_rank", None),
        (lie, "centralizer", "lie.centralizer", None),
        (lie, "srk_brute", "lie.srk_brute", None),
        (groups.PermGroup, "elements", "groups.elements", None),
        (groups, "_closure", "groups.closure", None),
        (groups, "maximal_elemab", "groups.maximal_elemab",
         lambda a, k, r: {"subgroups": len(r.all_subgroups)}),
        (slnorbits, "regular_witness", "slnorbits.witness", None),
        (slnorbits, "subregular_witnesses", "slnorbits.witness", None),
        (slnorbits, "highest_root_witness", "slnorbits.witness", None),
        (slnorbits, "lower_orbit_witness", "slnorbits.witness", None),
        (slnorbits, "srk_sln", "slnorbits.srk_sln", None),
        (slnorbits, "xi_basis", "slnorbits.xi", None),
        (slnorbits, "xi_compose", "slnorbits.xi", None),
        (slnorbits, "xi_bracket", "slnorbits.xi", None),
        (slnorbits, "xi_to_matrix", "slnorbits.xi", None),
        (frobkernel, "homomorphism_sweep", "frobkernel.sweep", None),
        (frobkernel, "trunc_exp", "frobkernel.trunc_exp", None),
        (frobkernel, "srk_sln2", "frobkernel.srk_sln2", None),
        (oracle, "oracle_srk_lie", "oracle.srk_lie", None),
        (oracle, "oracle_maximal_elemab", "oracle.maximal_elemab", None),
        # CRITERIA holds its own references to the criterion functions, so the
        # criteria are traced through the runner
        (acceptance, "run_criterion", lambda a, k: f"acceptance.criterion_{a[0]}", None),
    ]
    for owner, attr, name, counts in plan:
        tracer.patch(owner, attr, name, counts)


# (metric, unit, better) in report order; *_s metrics are inclusive seconds
# unless listed in SELF_TIMED.
PER_LAYER = [
    ("cli.load_s", "s", "lower"),
    ("fields.field_make_s", "s", "lower"),
    ("fields.field_make_calls", "count", "lower"),
    ("fields.elim_s", "s", "lower"),
    ("fields.elim_calls", "count", "lower"),
    ("fields.matmul_s", "s", "lower"),
    ("fields.matmul_calls", "count", "lower"),
    ("lie.validate_s", "s", "lower"),
    ("lie.nullcone_s", "s", "lower"),
    ("lie.nullcone_points", "count", "lower"),
    ("lie.proj_classes", "count", "lower"),
    ("lie.masks_s", "s", "lower"),
    ("lie.mask_density", "ratio", "lower"),
    ("lie.search_s", "s", "lower"),
    ("lie.search_calls", "count", "lower"),
    ("lie.search_aborted", "count", "higher"),
    ("lie.search_abort_ratio", "ratio", "higher"),
    ("lie.local_rank_s", "s", "lower"),
    ("lie.centralizer_s", "s", "lower"),
    ("lie.srk_brute_s", "s", "lower"),
    ("groups.elements_s", "s", "lower"),
    ("groups.closure_s", "s", "lower"),
    ("groups.closure_calls", "count", "lower"),
    ("groups.maximal_elemab_s", "s", "lower"),
    ("groups.subgroups_found", "count", "higher"),
    ("groups.useful_ratio", "ratio", "higher"),
    ("slnorbits.witness_s", "s", "lower"),
    ("slnorbits.srk_sln_s", "s", "lower"),
    ("slnorbits.xi_s", "s", "lower"),
    ("frobkernel.sweep_s", "s", "lower"),
    ("frobkernel.trunc_exp_s", "s", "lower"),
    ("frobkernel.srk_sln2_s", "s", "lower"),
    ("oracle.srk_lie_s", "s", "lower"),
    ("oracle.maximal_elemab_s", "s", "lower"),
] + [(f"acceptance.criterion_{c}_s", "s", "lower") for c in CRITERIA] + [
    ("trace_overhead_ratio", "ratio", "lower"),
]

SELF_TIMED = {"lie.search", "lie.local_rank", "lie.srk_brute", "groups.maximal_elemab"}

COUNT_METRICS = [m for m, unit, _ in PER_LAYER if unit == "count"]


def summarize(spans, speed=1.0):
    """Per-layer metrics of one traced pass (trace_overhead_ratio excluded).

    Seconds are multiplied by speed, the pass's normalization factor.
    """
    own = self_times(spans)
    by_name = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def seconds(name):
        if name in SELF_TIMED:
            return sum(own[i] for i in by_name.get(name, []))
        return sum(spans[i][2] - spans[i][1] for i in outermost(spans, name))

    def calls(name):
        return len(by_name.get(name, []))

    def attr_sum(name, key):
        return sum(int(spans[i][4][key]) for i in by_name.get(name, []) if spans[i][4])

    out = {}
    for metric, unit, _ in PER_LAYER:
        if unit == "s":
            out[metric] = seconds(metric[:-2]) * speed
    for layer in ("fields.field_make", "fields.elim", "fields.matmul",
                  "lie.search", "groups.closure"):
        out[layer + "_calls"] = calls(layer)
    out["lie.nullcone_points"] = attr_sum("lie.nullcone", "points")
    points = [spans[i][4]["points"] for i in by_name.get("lie.masks", []) if spans[i][4]]
    out["lie.proj_classes"] = sum(points)
    pairs = attr_sum("lie.masks", "pairs")
    square = sum(n * n for n in points)
    out["lie.mask_density"] = pairs / square if square else 0.0
    out["lie.search_aborted"] = attr_sum("lie.search", "aborted")
    searches = out["lie.search_calls"]
    out["lie.search_abort_ratio"] = out["lie.search_aborted"] / searches if searches else 0.0
    out["groups.subgroups_found"] = attr_sum("groups.maximal_elemab", "subgroups")
    closures = out["groups.closure_calls"]
    out["groups.useful_ratio"] = out["groups.subgroups_found"] / closures if closures else 0.0
    return out
