"""Command-line interface.

Exit codes: 0 = true / success, 1 = false, 2 = undecided, 3 = usage or
input error, 4 = internal error (an unexpected exception: its traceback,
then an `internal error:` line, on stderr). Output is deterministic for a
fixed --seed.
"""

from __future__ import annotations

import argparse
import random
import sys
import traceback

from . import azumaya as az
from . import fileformat as ff
from . import ktheory as kt
from . import trace as tr
from .algebra import is_central_simple
from .graded import (TwistedGroupAlgebra, is_crossed_product,
                     is_graded_division, is_graded_simple, is_strongly_graded,
                     validate_grading)
from .groups import SubgroupSpec
from .matrixring import canonical_shift, shifted_iso_decision
from .verdict import TRUE, FALSE


def _exit_code(report):
    if report.verdict == TRUE:
        return 0
    if report.verdict == FALSE:
        return 1
    return 2


def _emit(report, out=None):
    parts = ["predicate=%s" % report.predicate,
             "verdict=%s" % report.verdict,
             "strategy=%s" % report.strategy]
    if report.witness is not None:
        parts.append("witness=%r" % (report.witness,))
    if report.counterexample is not None:
        parts.append("counterexample=%r" % (report.counterexample,))
    for k in sorted(report.details, key=str):
        parts.append("%s=%r" % (k, report.details[k]))
    print("; ".join(parts), file=out or sys.stdout)


def _load(path):
    try:
        return ff.load_graded_algebra(path)
    except (OSError, ff.FormatError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        raise SystemExit(3)


def cmd_construct(args):
    try:
        if args.kind == "quaternion":
            g = ff.parse_graded_algebra(
                "[construct]\nkind = quaternion\nfield = %s\na = %s\nb = %s\n"
                "grading = %s\n" % (args.field, args.a, args.b, args.grading))
        elif args.kind == "symbol":
            g = ff.parse_graded_algebra(
                "[construct]\nkind = symbol\nfield = %s\nn = %s\na = %s\n"
                "b = %s\nxi = %s\n" % (args.field, args.n, args.a, args.b, args.xi))
        elif args.kind == "laurent":
            g = ff.parse_graded_algebra(
                "[construct]\nkind = laurent\nfield = %s\nstep = %s\n"
                % (args.field, args.step))
        elif args.kind == "group-ring":
            g = ff.parse_graded_algebra(
                "[construct]\nkind = group-ring\nfield = %s\ngroup = %s\n"
                % (args.field, args.group))
        elif args.kind == "truncated":
            g = ff.parse_graded_algebra(
                "[construct]\nkind = truncated\nfield = %s\nm = %s\n"
                % (args.field, args.m))
        else:
            print("error: unknown constructor %r" % args.kind, file=sys.stderr)
            return 3
    except (ff.FormatError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    text = ff.dump_graded_algebra(g)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print("wrote %s" % args.output)
    else:
        sys.stdout.write(text)
    return 0


def cmd_check(args):
    g = _load(args.file)
    rng = random.Random(args.seed)
    pred = args.predicate
    try:
        if pred == "grading":
            report = validate_grading(g)
        elif pred == "strongly-graded":
            report = is_strongly_graded(g)
        elif pred == "crossed-product":
            report = is_crossed_product(g, rng=rng)
        elif pred == "graded-division":
            report = is_graded_division(g, rng=rng)
        elif pred == "graded-simple":
            report = is_graded_simple(g, rng=rng)
        elif pred == "central-simple":
            report = is_central_simple(g.algebra)
        elif pred == "azumaya":
            report = _azumaya_route(g, args.via, rng)
        else:
            print("error: unknown predicate %r" % pred, file=sys.stderr)
            return 3
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    _emit(report)
    return _exit_code(report)


def _azumaya_route(g, via, rng):
    if via == "psi":
        return az.psi_bijective(g)
    if via == "graded-csa":
        return az.is_graded_azumaya_csa(g, rng=rng)
    if via == "group-ring":
        if g.group.kind != "finite-table":
            raise ValueError("group-ring route needs a finite-table grade group")
        return az.group_ring_azumaya(g.field, g.group)
    if via == "braun":
        env = az.EnvelopingAlgebra(g)
        e = az.standard_separability_idempotent(g, env)
        if e is None:
            raise ValueError("no separability idempotent found for the braun route")
        return az.braun_check(g, e, env=env)
    raise ValueError("unknown azumaya route %r" % via)


def cmd_k0(args):
    code = 0
    if args.exact_sequence is not None:
        data = kt.ck0_zk0(kt.CsaShape(args.exact_sequence))
        print("zk0=%r; ck0=%r" % (data.zk0, data.ck0))
        if args.localize:
            print("ck0_localized=%r" % kt.localize(data.ck0, args.localize))
        return 0
    if args.file is None:
        print("error: k0 needs a definition file or --exact-sequence",
              file=sys.stderr)
        return 3
    g = _load(args.file)
    if isinstance(g, TwistedGroupAlgebra):
        out = kt.k0gr_graded_division(g.group, g.support)
        print("k0gr=%r" % (out,))
        return 0
    if args.compare_localized is not None:
        # graded K0 of the algebra (graded-division route over its
        # homogeneous-unit degrees) against the trivially graded base field
        from .graded import support_subgroup
        n = args.compare_localized
        left = kt.k0gr_graded_division(g.group, support_subgroup(g))
        right = kt.k0gr_graded_division(g.group, SubgroupSpec(g.group, []))
        report = kt.compare_localized(left, right, n)
        tag = "isomorphic" if report.verdict == TRUE else "NOT isomorphic"
        print("%s: %r vs %r (localized at %d)" % (tag, left, right, n))
        return _exit_code(report)
    sg = is_strongly_graded(g)
    if not sg:
        _emit(sg)
        return _exit_code(sg)
    try:
        k0, dec = kt.k0gr_strongly_graded(g, sg)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    blocks = ["dim=%d,centre=%d,n=%r,div=%r"
              % (b.dim, b.centre_dim, b.matrix_size, b.division_dim) for b in dec.blocks]
    print("k0gr=%r; radical=%d; blocks=[%s]" % (k0, dec.radical_dim, "; ".join(blocks)))
    if args.localize:
        print("k0gr_localized=%r" % kt.localize(k0, args.localize))
    return code


def cmd_classify_shift(args):
    try:
        group = ff.parse_group(args.group)
        gens = [ff.parse_group_element(group, t)
                for t in ff._split_tuples(args.subgroup)] if args.subgroup else []
        gamma_d = SubgroupSpec(group, gens)
        shifts = []
        for text in args.shifts:
            shifts.append([ff.parse_group_element(group, t)
                           for t in ff._split_tuples(text)])
    except (ff.FormatError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    if len(shifts) == 1:
        print("canonical=%r" % (canonical_shift(group, gamma_d, shifts[0]),))
        return 0
    try:
        report = shifted_iso_decision(group, gamma_d, shifts[0], shifts[1])
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    _emit(report)
    return _exit_code(report)


def cmd_commutators(args):
    g = _load(args.file)
    if isinstance(g, TwistedGroupAlgebra):
        print("error: commutator analysis needs a materialized algebra",
              file=sys.stderr)
        return 3
    report = tr.supp_commutator_lemma_check(g)
    _emit(report)
    from .algebra import commutator_subspace
    print("commutator_dim=%d" % commutator_subspace(g.algebra).dim)
    return _exit_code(report)


def build_parser():
    p = argparse.ArgumentParser(prog="gradedk",
                                description="exact computations with graded "
                                            "algebras over Q and GF(p)")
    p.add_argument("--seed", type=int, default=0, help="rng seed for sampled strategies")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="write a named algebra definition")
    c.add_argument("kind", choices=["quaternion", "symbol", "laurent",
                                    "group-ring", "truncated"])
    c.add_argument("--field", default="Q")
    c.add_argument("-a", default="-1")
    c.add_argument("-b", default="-1")
    c.add_argument("--xi", default="-1")
    c.add_argument("-n", default="2")
    c.add_argument("-m", default="3")
    c.add_argument("--step", default="1")
    c.add_argument("--group", default="S3")
    c.add_argument("--grading", default="Z2xZ2")
    c.add_argument("-o", "--output")
    c.set_defaults(func=cmd_construct)

    c = sub.add_parser("check", help="run a structural predicate")
    c.add_argument("predicate",
                   choices=["grading", "strongly-graded", "crossed-product",
                            "graded-division", "graded-simple",
                            "central-simple", "azumaya"])
    c.add_argument("file")
    c.add_argument("--via", default="graded-csa",
                   choices=["psi", "braun", "graded-csa", "group-ring"])
    c.set_defaults(func=cmd_check)

    c = sub.add_parser("k0", help="K0-level invariants")
    c.add_argument("file", nargs="?")
    c.add_argument("--exact-sequence", type=int, default=None,
                   help="n for the CK0/ZK0 data of M_n(F)")
    c.add_argument("--localize", type=int, default=None)
    c.add_argument("--compare-localized", type=int, default=None,
                   help="compare graded K0 against the trivially graded base "
                        "field after inverting the given integer")
    c.set_defaults(func=cmd_k0)

    c = sub.add_parser("classify-shift", help="canonical forms and the "
                                              "graded-iso decision for shifts")
    c.add_argument("--group", required=True)
    c.add_argument("--base", default="trivial-K",
                   help="informational tag for the base graded division ring")
    c.add_argument("--subgroup", default="",
                   help="generators of the homogeneous-unit degree subgroup")
    c.add_argument("shifts", nargs="+",
                   help="one or two shift vectors, e.g. \"(0) (1) (1)\"")
    c.set_defaults(func=cmd_classify_shift)

    c = sub.add_parser("commutators", help="commutator-subspace analysis")
    c.add_argument("file")
    c.set_defaults(func=cmd_commutators)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 3
    except Exception as exc:
        traceback.print_exc()
        print("internal error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
