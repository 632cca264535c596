"""Command-line interface.

Exit codes: 0 = true / success, 1 = false, 2 = undecided, 3 = usage or
input error (an unknown subcommand, option or choice included), 4 =
internal error (an unexpected exception: its traceback, then an `internal
error:` line, on stderr). `main` returns the code, also for `--help` (0).
Every strategy is deterministic: the output depends on the input alone, and
--seed is accepted and ignored.

The argparse tree is built once per process and shared by every `main`
call; `main` looks the subcommand's `cmd_*` function up when it runs.
"""

from __future__ import annotations

import argparse
import functools
import sys
import traceback

from . import azumaya as az
from . import fileformat as ff
from . import ktheory as kt
from . import trace as tr
from .algebra import commutator_subspace, is_central_simple
from .graded import (TwistedGroupAlgebra, is_graded_division, is_graded_simple,
                     is_strongly_graded, support_subgroup, validate_grading)
from .groups import SubgroupSpec
from .matrixring import canonical_shift, is_crossed_product, shifted_iso_decision
from .verdict import TRUE, FALSE


def _exit_code(report):
    if report.verdict == TRUE:
        return 0
    if report.verdict == FALSE:
        return 1
    return 2


def _emit(report):
    parts = ["predicate=%s" % report.predicate,
             "verdict=%s" % report.verdict,
             "strategy=%s" % report.strategy]
    if report.witness is not None:
        parts.append("witness=%r" % (report.witness,))
    if report.counterexample is not None:
        parts.append("counterexample=%r" % (report.counterexample,))
    for k in sorted(report.details, key=str):
        parts.append("%s=%r" % (k, report.details[k]))
    print("; ".join(parts))


def _load(path):
    try:
        return ff.load_graded_algebra(path)
    except (OSError, ff.FormatError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        raise SystemExit(3)


def cmd_construct(args):
    # the options the kind reads, written into its [construct] section
    keys = ("field",) + ff.CONSTRUCTORS[args.kind][0]
    section = "".join("%s = %s\n" % (k, getattr(args, k)) for k in keys)
    try:
        g = ff.parse_graded_algebra("[construct]\nkind = %s\n%s" % (args.kind, section))
    except (ff.FormatError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    text = ff.dump_graded_algebra(g)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 3
        print("wrote %s" % args.output)
    else:
        sys.stdout.write(text)
    return 0


# the `check` predicates and `--via` routes; their keys are argparse's
# choices. Each entry looks its function up when it runs, so a wrapper set
# on a module name (as perfbench's tracer does) sees CLI calls too.
_AZUMAYA_ROUTES = {
    "psi": lambda g: az.psi_bijective(g),
    "braun": lambda g: az.braun_check(g),
    "graded-csa": lambda g: az.is_graded_azumaya_csa(g),
    "group-ring": lambda g: az.graded_group_ring_azumaya(g),
}
_PREDICATES = {
    "grading": lambda g, via: validate_grading(g),
    "strongly-graded": lambda g, via: is_strongly_graded(g),
    "crossed-product": lambda g, via: is_crossed_product(g),
    "graded-division": lambda g, via: is_graded_division(g),
    "graded-simple": lambda g, via: is_graded_simple(g),
    "central-simple": lambda g, via: is_central_simple(g.algebra),
    "azumaya": lambda g, via: _AZUMAYA_ROUTES[via](g),
}


def cmd_check(args):
    g = _load(args.file)
    try:
        report = _PREDICATES[args.predicate](g, args.via)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    _emit(report)
    return _exit_code(report)


def cmd_k0(args):
    for flag in ("exact_sequence", "localize", "compare_localized"):
        n = getattr(args, flag)
        if n is not None and n < 1:
            print("error: --%s needs a positive integer, got %d"
                  % (flag.replace("_", "-"), n), file=sys.stderr)
            return 3
    if args.exact_sequence is not None:
        data = kt.ck0_zk0(kt.CsaShape(args.exact_sequence))
        print("zk0=%r; ck0=%r" % (data.zk0, data.ck0))
        if args.localize is not None:
            print("ck0_localized=%r" % kt.localize(data.ck0, args.localize))
        return 0
    if args.file is None:
        print("error: k0 needs a definition file or --exact-sequence",
              file=sys.stderr)
        return 3
    g = _load(args.file)
    if args.compare_localized is not None:
        # the graded-division formula Z[Gamma/Gamma_D], with Gamma_D the
        # support subgroup, against Z[Gamma] of the trivially graded base field
        n = args.compare_localized
        left = kt.k0gr_graded_division(g.group, support_subgroup(g))
        right = kt.k0gr_graded_division(g.group, SubgroupSpec(g.group, []))
        report = kt.compare_localized(left, right, n)
        tag = "isomorphic" if report.verdict == TRUE else "NOT isomorphic"
        print("%s: %r vs %r (localized at %d)" % (tag, left, right, n))
        return _exit_code(report)
    if isinstance(g, TwistedGroupAlgebra):
        # a graded field is a graded division ring
        k0 = kt.k0gr_graded_division(g.group, g.support)
        print("k0gr=%r" % (k0,))
    else:
        sg = is_strongly_graded(g)
        if not sg:
            _emit(sg)
            return _exit_code(sg)
        k0, dec = kt.k0gr_strongly_graded(g, sg)
        blocks = ["dim=%d,centre=%d,n=%r,div=%r" % (b.dim, b.centre_dim, b.matrix_size,
                                                    b.division_dim)
                  + ("" if b.resolved else ",reason=%s" % b.reason) for b in dec.blocks]
        print("k0gr=%r; radical=%d; blocks=[%s]" % (k0, dec.radical_dim, "; ".join(blocks)))
    if args.localize is not None:
        print("k0gr_localized=%r" % kt.localize(k0, args.localize))
    return 0


def cmd_classify_shift(args):
    try:
        if len(args.shifts) > 2:
            raise ValueError("expected one or two shift vectors, got %d" % len(args.shifts))
        group = ff.parse_group(args.group)
        gens = [ff.parse_group_element(group, t)
                for t in ff.split_tuples(args.subgroup)] if args.subgroup else []
        gamma_d = SubgroupSpec(group, gens)
        shifts = []
        for text in args.shifts:
            shifts.append([ff.parse_group_element(group, t)
                           for t in ff.split_tuples(text)])
        if len(shifts) == 1:
            print("canonical=%r" % (canonical_shift(group, gamma_d, shifts[0]),))
            return 0
        report = shifted_iso_decision(group, gamma_d, shifts[0], shifts[1])
    except (ff.FormatError, ValueError) as exc:
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
    print("commutator_dim=%d" % commutator_subspace(g.algebra).dim)
    return _exit_code(report)


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 3, the bad-input code, with an `error:` line and
    then the usage on stderr; argparse's own exit 2 would read as
    "undecided"."""

    def error(self, message):
        self.exit(3, "error: %s\n%s" % (message, self.format_usage()))


@functools.cache
def build_parser():
    p = _Parser(prog="gradedk",
                description="exact computations with graded algebras over Q and GF(p)")
    p.add_argument("--seed", type=int, default=0, help="no effect: every strategy is deterministic")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="write a named algebra definition")
    c.add_argument("kind", choices=list(ff.CONSTRUCTORS))
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

    c = sub.add_parser("check", help="run a structural predicate")
    c.add_argument("predicate", choices=list(_PREDICATES))
    c.add_argument("file")
    c.add_argument("--via", default="graded-csa", choices=list(_AZUMAYA_ROUTES))

    c = sub.add_parser("k0", help="K0-level invariants")
    c.add_argument("file", nargs="?")
    c.add_argument("--exact-sequence", type=int, default=None,
                   help="n for the CK0/ZK0 data of M_n(F)")
    c.add_argument("--localize", type=int, default=None)
    c.add_argument("--compare-localized", type=int, default=None,
                   help="compare the graded-division formula Z[G/G_D], G_D "
                        "the support subgroup, against the trivially graded "
                        "base field after inverting the given integer")

    c = sub.add_parser("classify-shift", help="canonical forms and the "
                                              "graded-iso decision for shifts")
    c.add_argument("--group", required=True)
    c.add_argument("--subgroup", default="",
                   help="generators of the homogeneous-unit degree subgroup")
    c.add_argument("shifts", nargs="+",
                   help="one or two shift vectors, e.g. \"(0) (1) (1)\"; "
                        "a third is bad input (exit 3)")

    c = sub.add_parser("commutators", help="commutator-subspace analysis")
    c.add_argument("file")
    return p


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 3
    except Exception as exc:
        traceback.print_exc()
        print("internal error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
