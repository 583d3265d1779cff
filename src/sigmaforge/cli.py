"""Command line front door.

Every command works on exact rational data and prints either a short
text report or machine-readable JSON. Verification commands emit one
JSON line per check unit with the fixed key order
{check, n, degree, status, witness}; identical argv and seed always
produce byte-identical output.

There is one output path: a command's handler returns its report and
``main`` alone prints it. A verification handler returns its check
units, printed by ``_emit_units``; every other handler returns a pair
(JSON record, text lines), printed as the record under ``--output
json`` and line by line otherwise.

Exit codes: 0 all checks passed, 1 at least one check failed or an
internal invariant broke (``internal error:`` on stderr), 2 usage or
input error. Arities below three are rejected up front, in ``main``;
the whole calculus here rests on the standing assumption n >= 3.
"""

from __future__ import annotations

import argparse
import json
import sys

# atoms, rewrite, n3lab and matmodel are imported by the commands that
# use them, so a cold ``verify`` or ``member`` process does not load them
from . import cyclic, ideal
from .ring import (InternalError, parse_monomial, parse_poly,
                   render_monomial, render_poly)
from .sigma import build_sigma

VERIFY_NAMES = tuple(ideal.CHECKS) + ("n3",)


def _emit_units(units, mode: str) -> int:
    failures = 0
    for u in units:
        if u["status"] != "pass":
            failures += 1
        if mode == "json":
            print(json.dumps(u))
        else:
            line = f"{u['status']:4s} {u['check']} n={u['n']} degree={u['degree']}"
            if u["status"] != "pass":
                line += " witness=" + json.dumps(u["witness"])
            print(line)
    if mode == "text":
        print(f"{len(units) - failures}/{len(units)} units passed")
    return 1 if failures else 0


def _cmd_sigma(args):
    text = render_poly(build_sigma(args.n, args.k))
    return ({"command": "sigma", "n": args.n, "k": args.k,
             "polynomial": text}, [text])


def _cmd_orbit(args):
    m = parse_monomial(args.monomial, args.n)
    members = [render_monomial(w) for w in cyclic.orbit(m, args.n)]
    total = render_poly(cyclic.orbit_polynomial(m, args.n))
    return ({"command": "orbit", "n": args.n, "monomial": render_monomial(m),
             "members": members, "orbit_sum": total}, [total])


def _cmd_factor(args):
    from . import atoms as atoms_mod

    m = parse_monomial(args.monomial, args.n)
    factors = [render_monomial(a) for a in atoms_mod.factor_atoms(m, args.n)]
    return ({"command": "factor", "n": args.n, "monomial": render_monomial(m),
             "factors": factors}, [" ".join(factors) if factors else "1"])


def _cmd_atoms(args):
    from . import atoms as atoms_mod

    if args.degree < 1:
        raise ValueError("degree must be positive")
    listing = [render_monomial(a)
               for a in atoms_mod.enumerate_atoms(args.n, args.degree)]
    return ({"command": "atoms", "n": args.n, "degree": args.degree,
             "count": len(listing), "atoms": listing}, listing)


def _cmd_rewrite(args):
    from . import rewrite

    p = parse_poly(args.polynomial, args.n)
    text = rewrite.rewrite_invariant(p).render()
    return ({"command": "rewrite", "n": args.n, "input": render_poly(p),
             "expression": text}, [text])


def _cmd_member(args):
    p = parse_poly(args.polynomial, args.n)
    gset = ideal.generator_set(args.gens, args.n)
    res = ideal.member(p, gset)
    units = []
    for d in sorted(p.homogeneous_components()):
        bad = res.residuals.get(d)
        units.append(ideal._unit("member", args.n, d, bad is None, (
            {"member": True} if bad is None
            else {"residual": render_poly(bad)})))
    if not units:  # zero polynomial
        units.append(ideal._unit("member", args.n, 0, True, {"member": True}))
    return units


def _cmd_verify(args):
    return ideal.run_check(args.name, args.n, max_degree=args.max_degree)


def _cmd_n3_reduce(args):
    from . import n3lab

    p = parse_poly(args.polynomial, 3)
    text = n3lab.reduce_to_S_form(p, certify=not args.no_certify,
                                  max_degree=args.max_degree).render()
    return ({"command": "n3_reduce", "input": render_poly(p), "s_form": text,
             "certified": not args.no_certify}, [text])


def _cmd_search(args):
    from . import matmodel

    report = matmodel.zero_divisor_search(
        {"n": args.n, "dim": args.dim, "family": args.family,
         "seed": args.seed, "budget": args.budget})
    p = report["params"]
    c = report["counts"]
    lines = [f"family={p['family']} n={p['n']} dim={p['dim']} "
             f"seed={p['seed']} budget={p['budget']}",
             f"examined={report['examined']} "
             f"relations_hold={c['relations_hold']} "
             f"noncommuting_pair={c['noncommuting_pair']} "
             f"candidates={c['candidates']}"]
    lines.extend(f"candidate index={cand['index']} "
                 f"pairs={cand['noncommuting_pairs']} "
                 f"zero_products={cand['zero_products']}/"
                 f"{len(cand['products'])} "
                 f"singular_products={cand['singular_products']}"
                 for cand in report["candidates"])
    return report, lines


class _Families:
    """``matmodel.FAMILIES`` as the choices of ``search --family``,
    read only when argparse checks a value or formats the help, so that
    building the parser does not import matmodel."""

    def __iter__(self):
        from .matmodel import FAMILIES

        return iter(FAMILIES)


def _output_parent(default) -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--output", choices=("text", "json"), default=default,
                        help="report format")
    return parent


def build_parser() -> argparse.ArgumentParser:
    common = _output_parent("text")

    parser = argparse.ArgumentParser(
        prog="sigmaforge",
        description="exact sigma calculus on noncommuting variables")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sigma", parents=[common],
                       help="print one elementary polynomial")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.set_defaults(func=_cmd_sigma)

    p = sub.add_parser("orbit", parents=[common],
                       help="orbit sum of a monomial under the cyclic action")
    p.add_argument("monomial")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_orbit)

    p = sub.add_parser("factor", parents=[common],
                       help="factor an orbit representative into atoms")
    p.add_argument("monomial")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_factor)

    p = sub.add_parser("atoms", parents=[common],
                       help="list atoms of one degree, largest first")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--degree", type=int, required=True)
    p.set_defaults(func=_cmd_atoms)

    p = sub.add_parser("rewrite", parents=[common],
                       help="rewrite an invariant as products of orbit sums")
    p.add_argument("polynomial")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_rewrite)

    p = sub.add_parser("member", parents=[common],
                       help="ideal membership with residual witnesses")
    p.add_argument("polynomial")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--gens", choices=("commutators", "differences"),
                   default="commutators")
    p.set_defaults(func=_cmd_member)

    p = sub.add_parser("verify", parents=[common],
                       help="run a named verification")
    p.add_argument("name", choices=VERIFY_NAMES)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--max-degree", type=int, default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("n3", parents=[common], help="three-variable lab")
    n3sub = p.add_subparsers(dest="n3_command", required=True)
    # no default at the inner level, or it would overwrite an --output
    # given before the subcommand
    q = n3sub.add_parser("reduce",
                         parents=[_output_parent(argparse.SUPPRESS)],
                         help="reduce an invariant to its symbol form")
    q.add_argument("polynomial")
    q.add_argument("--max-degree", type=int, default=None)
    q.add_argument("--no-certify", action="store_true",
                   help="skip the membership certification of the result")
    q.set_defaults(func=_cmd_n3_reduce)

    p = sub.add_parser("search", parents=[common],
                       help="seeded zero-divisor search over matrix tuples")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--dim", type=int, default=3)
    # choices set after add_argument, which formats them to check the
    # metavar
    p.add_argument("--family", required=True).choices = _Families()
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=100)
    p.set_defaults(func=_cmd_search)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        n = getattr(args, "n", 3)  # ``n3 reduce`` has no --n
        if n < 3:
            raise ValueError(
                f"n = {n} rejected: the standing assumption requires n >= 3")
        report = args.func(args)
        if isinstance(report, list):
            return _emit_units(report, args.output)
        record, lines = report
        if args.output == "json":
            print(json.dumps(record))
        else:
            for line in lines:
                print(line)
        return 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
