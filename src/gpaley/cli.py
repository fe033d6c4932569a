"""Command line entry point.

Subcommands mirror the package layers: field, jacobi, hyp, cliques, orbits,
ramsey, verify.  All output is machine readable; large integers are emitted
as decimal strings, and any result that depended on a field embeds the field
construction record so the run can be reproduced exactly.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from .errors import GPaleyError
from .finite_field import DEFAULT_SIZE_LIMIT, build_field, split_prime_power
from .hypergeometric import f32_indexed
from .jacobi import J0, JJ0, QUAD_FORMS, R_k, S_k, solve_quadform
from .orbits import tables_json
from .paley_graph import ROUTES, brute_force_K, build_graph, clique_count
from .ramsey_search import CACHE_ENV, search_zeros
from .verify import run_suite


def _field_for_q(args):
    p, r = split_prime_power(args.q)
    return build_field(p, r, size_limit=args.field_cap)


def _flat_items(obj, prefix=""):
    if isinstance(obj, dict):
        for key, val in obj.items():
            yield from _flat_items(val, f"{prefix}.{key}" if prefix else str(key))
    elif isinstance(obj, list):
        if all(not isinstance(v, (dict, list)) for v in obj):
            yield prefix, ";".join(str(v) for v in obj)
        else:
            for i, val in enumerate(obj):
                yield from _flat_items(val, f"{prefix}.{i}")
    else:
        yield prefix, obj


def emit(obj: dict, fmt: str) -> None:
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["key", "value"])
        for key, val in _flat_items(obj):
            writer.writerow([key, val])
        sys.stdout.write(buf.getvalue())
    else:
        json.dump(obj, sys.stdout, indent=2)
        sys.stdout.write("\n")


def cmd_field(args) -> int:
    ctx = build_field(args.p, args.r, size_limit=args.field_cap)
    emit(ctx.record(), args.format)
    return 0


def cmd_jacobi(args) -> int:
    ctx = _field_for_q(args)
    out = {
        "field": ctx.record(),
        "k": args.k,
        "R_k": str(R_k(ctx, args.k)),
        "S_k": str(S_k(ctx, args.k)),
        "J0": str(J0(ctx, args.k)),
        "JJ0": str(JJ0(ctx, args.k)),
        "quadforms": {},
    }
    for kind, form in QUAD_FORMS.items():
        if args.q % form.modulus == 1:
            out["quadforms"][kind] = solve_quadform(kind, ctx).to_json()
    emit(out, args.format)
    return 0


def cmd_hyp(args) -> int:
    ctx = _field_for_q(args)
    t = tuple(int(x) for x in args.t.split(","))
    if len(t) != 5:
        raise GPaleyError("--t needs five comma-separated residues")
    val = f32_indexed(ctx, args.k, t, lam=args.lam)
    emb = val.complex_value()
    emit({
        "field": ctx.record(),
        "k": args.k,
        "t": list(t),
        "lambda": 1 if args.lam is None else args.lam,
        "scaled_value": val.to_json(),
        "scale_power": 2,
        "numeric_embedding": [emb.real, emb.imag],
    }, args.format)
    return 0


def cmd_cliques(args) -> int:
    ctx = _field_for_q(args)
    if args.oracle_cap is not None:
        res = brute_force_K(build_graph(ctx, args.k), args.m, cap=args.oracle_cap)
    else:
        res = clique_count(ctx, args.k, args.m, method=args.method)
    out = res.to_json()
    out["field"] = ctx.record()
    emit(out, args.format)
    return 0


def cmd_orbits(args) -> int:
    emit(tables_json(args.k), args.format)
    return 0


def cmd_ramsey(args) -> int:
    report = search_zeros(args.k, args.m, args.qmax, jobs=args.jobs,
                          cache_path=args.cache or os.environ.get(CACHE_ENV),
                          seed=args.seed)
    emit(report.to_json(), args.format)
    return 0


def cmd_verify(args) -> int:
    profile = "paper" if args.paper else "quick"
    results = run_suite(profile=profile, jobs=args.jobs, seed=args.seed)
    for res in results:
        print(res.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed ({profile} profile)")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="gpaley", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    f = sub.add_parser("field", help="field construction record")
    fsub = f.add_subparsers(dest="action", required=True)
    finfo = fsub.add_parser("info")
    finfo.add_argument("--p", type=int, required=True)
    finfo.add_argument("--r", type=int, default=1)
    finfo.set_defaults(func=cmd_field)

    j = sub.add_parser("jacobi", help="Jacobi-sum aggregates and quadratic forms")
    j.add_argument("--q", type=int, required=True)
    j.add_argument("--k", type=int, required=True)
    j.set_defaults(func=cmd_jacobi)

    h = sub.add_parser("hyp", help="scaled 3F2 at character powers")
    h.add_argument("--q", type=int, required=True)
    h.add_argument("--k", type=int, required=True)
    h.add_argument("--t", required=True, help="t1,t2,t3,t4,t5")
    h.add_argument("--lambda", dest="lam", type=int, default=None)
    h.set_defaults(func=cmd_hyp)

    c = sub.add_parser("cliques", help="complete subgraph counts")
    c.add_argument("--q", type=int, required=True)
    c.add_argument("--k", type=int, required=True)
    c.add_argument("--m", type=int, choices=(3, 4), required=True)
    c.add_argument("--method", default="auto",
                   choices=["auto", *dict.fromkeys(method for _, method in ROUTES)])
    c.add_argument("--oracle-cap", type=int, default=None,
                   help="largest q for --method naive")
    c.set_defaults(func=cmd_cliques)

    o = sub.add_parser("orbits", help="X_k, the group, and orbit tables")
    o.add_argument("--k", type=int, required=True)
    o.set_defaults(func=cmd_orbits)

    r = sub.add_parser("ramsey", help="zero-count search and implied bound")
    r.add_argument("--cache", default=None,
                   help=f"results cache path (default from ${CACHE_ENV})")
    r.add_argument("--k", type=int, required=True)
    r.add_argument("--m", type=int, choices=(3, 4), required=True)
    r.add_argument("--qmax", type=int, required=True)
    r.set_defaults(func=cmd_ramsey)

    v = sub.add_parser("verify", help="identity and acceptance suites")
    v.add_argument("--paper", action="store_true",
                   help="full reproduction including searches (about 1 s)")
    v.set_defaults(func=cmd_verify)

    # each subcommand takes only the shared options its handler reads
    for p in (finfo, j, h, c, o, r):
        p.add_argument("--format", choices=("json", "csv"), default="json")
    for p in (finfo, j, h, c):
        p.add_argument("--field-cap", type=int, default=DEFAULT_SIZE_LIMIT)
    r.add_argument("--jobs", type=int, default=1)
    v.add_argument("--jobs", type=int, default=None,
                   help="worker processes (default: one per available CPU; "
                        "1 runs the checks in this process)")
    for p in (r, v):
        p.add_argument("--seed", type=int, default=746)
    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "oracle_cap", None) is not None and args.method != "naive":
        parser.error("--oracle-cap applies to --method naive only")
    try:
        return args.func(args)
    except (GPaleyError, ValueError) as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
