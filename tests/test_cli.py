import random

import pytest

import gradedk.cli
from gradedk.cli import main
from gradedk.constructors import construct_group_ring, construct_matrix_algebra
from gradedk.fields import FieldSpec
from gradedk.fileformat import save_graded_algebra
from gradedk.graded import trivially_graded
from gradedk.groups import GradeGroup
from test_kernel import rebased
from test_ktheory import (cyclic_cubic_division_algebra, m2_over_q_sqrt2,
                          product_algebra, scalars, upper_triangular)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def quat_file(tmp_path, capsys):
    path = tmp_path / "quat.alg"
    code, out, _ = run(capsys, "construct", "quaternion", "--field", "Q",
                       "-a", "-1", "-b", "-1", "-o", str(path))
    assert code == 0 and "wrote" in out
    return str(path)


def test_construct_to_stdout(capsys):
    code, out, _ = run(capsys, "construct", "laurent", "--field", "GF(5)",
                       "--step", "2")
    assert code == 0
    assert "kind = laurent" in out and "step = 2" in out


def test_construct_bad_input_exit_3(capsys):
    code, _, err = run(capsys, "construct", "quaternion", "--field", "GF(2)")
    assert code == 3
    assert "error" in err


def test_check_grading_true(capsys, quat_file):
    code, out, _ = run(capsys, "check", "grading", quat_file)
    assert code == 0
    assert "verdict=true" in out


def test_check_azumaya_routes(capsys, quat_file):
    for via in ("psi", "braun", "graded-csa"):
        code, out, _ = run(capsys, "check", "azumaya", quat_file, "--via", via)
        assert code == 0, (via, out)
        assert "verdict=true" in out


@pytest.mark.parametrize("argv,counterexample", [
    (("truncated", "--field", "Q", "-m", "3"), "('no-separability-idempotent',)"),
    (("group-ring", "--field", "GF(3)", "--group", "S3"), "('no-separability-idempotent',)"),
    (("group-ring", "--field", "Q", "--group", "S3"), "('centre-dim', 3)"),
], ids=["q-truncated", "gf3-s3", "q-s3"])
def test_braun_route_false_exit_1(capsys, tmp_path, argv, counterexample):
    # no separability idempotent, or a centre bigger than the base field
    path = str(tmp_path / "a.alg")
    assert run(capsys, "construct", *argv, "-o", path)[0] == 0
    code, out, err = run(capsys, "check", "azumaya", path, "--via", "braun")
    assert code == 1 and err == ""
    assert "verdict=false" in out and "counterexample=%s" % counterexample in out


def test_check_group_ring_route(capsys, tmp_path):
    path = tmp_path / "s3.alg"
    code, _, _ = run(capsys, "construct", "group-ring", "--field", "GF(3)",
                     "--group", "S3", "-o", str(path))
    assert code == 0
    # 3 divides |derived(S3)| = 3, so not azumaya
    code, out, _ = run(capsys, "check", "azumaya", str(path), "--via", "group-ring")
    assert code == 1
    assert "verdict=false" in out
    # over GF(2) the same group ring passes
    path2 = tmp_path / "s3-gf2.alg"
    run(capsys, "construct", "group-ring", "--field", "GF(2)",
        "--group", "S3", "-o", str(path2))
    code, out, _ = run(capsys, "check", "azumaya", str(path2), "--via", "group-ring")
    assert code == 0


@pytest.mark.parametrize("group", ["Z/3", "Z/2xZ/2"])
@pytest.mark.parametrize("field", ["Q", "GF(2)"])
def test_group_ring_route_on_finite_abelian_groups(capsys, tmp_path, group, field):
    # the derived subgroup of an abelian group is trivial: Azumaya in every
    # characteristic
    path = str(tmp_path / "a.alg")
    assert run(capsys, "construct", "group-ring", "--field", field, "--group", group,
               "-o", path)[0] == 0
    code, out, err = run(capsys, "check", "azumaya", path, "--via", "group-ring")
    assert (code, err) == (0, "")
    assert "verdict=true" in out and "commutator-order=1;" in out


def test_construct_unwritable_output_exit_3(capsys, tmp_path):
    code, out, err = run(capsys, "construct", "quaternion",
                         "-o", str(tmp_path / "nodir" / "q.alg"))
    assert (code, out) == (3, "")
    assert err.startswith("error:") and "internal error" not in err


T2_OVER_S3 = """[algebra]
field = Q
group = S3
basis = e11 e12 e22
degrees = 0 0 0
unit = 1 0 1
[products]
0 0 0 1
0 1 1 1
1 2 1 1
2 2 2 1
"""
C2_TABLE = """[algebra]
field = Q
group = table
basis = a b
degrees = 0 1
unit = 1 0
[group-table]
0 1
1 0
[products]
0 0 0 1
0 1 1 1
1 0 1 1
1 1 0 %s
"""


@pytest.mark.parametrize("text,want", [
    (T2_OVER_S3, 3),
    (C2_TABLE % "2", 3),
    (C2_TABLE % "1", 0),
    ("[construct]\nkind = group-ring\nfield = Q\ngroup = S3\n", 0),
    ("[construct]\nkind = group-ring\nfield = GF(3)\ngroup = S3\n", 1),
], ids=["t2-over-s3", "twisted-c2", "q-c2", "q-s3", "gf3-s3"])
def test_group_ring_route_reads_the_file(capsys, tmp_path, text, want):
    # the DeMeyer-Janusz criterion answers only for F[G] on its group basis;
    # T_2(Q) graded by S3 and Q[x]/(x^2 - 2) over C2 are bad input
    path = tmp_path / "a.alg"
    path.write_text(text)
    code, out, err = run(capsys, "check", "azumaya", str(path), "--via", "group-ring")
    assert code == want, (out, err)
    if want == 3:
        assert err.startswith("error:") and "not a group ring" in err and out == ""
    else:
        assert "predicate=group-ring-azumaya" in out and err == ""


def test_check_not_strongly_graded_exit_1(capsys, tmp_path):
    path = tmp_path / "trunc.alg"
    run(capsys, "construct", "truncated", "--field", "Q", "-m", "3",
        "-o", str(path))
    code, out, _ = run(capsys, "check", "strongly-graded", str(path))
    assert code == 1
    assert "verdict=false" in out
    assert "counterexample" in out
    # graded K0 through A_e needs a strong grading; the refutation is the output
    code, out, err = run(capsys, "k0", str(path))
    assert (code, err) == (1, "")
    assert out == ("predicate=strongly-graded; verdict=false; strategy=exhaustive; "
                   "counterexample=('degree', (1))\n")


def test_check_missing_file_exit_3(capsys):
    code, _, err = run(capsys, "check", "grading", "/nonexistent/foo.alg")
    assert code == 3
    assert "error" in err


def test_malformed_file_exit_3(capsys, tmp_path):
    path = tmp_path / "bad.alg"
    path.write_text("field = Q\n")
    code, _, err = run(capsys, "check", "grading", str(path))
    assert code == 3
    assert "error" in err
    # an [algebra] section missing a required key
    for missing in ("group", "basis"):
        keys = {"field": "Q", "group": "trivial", "basis": "1", "degrees": "()"}
        del keys[missing]
        path.write_text("[algebra]\n%s\n[products]\n0 0 0 1\n"
                        % "\n".join("%s = %s" % kv for kv in keys.items()))
        code, _, err = run(capsys, "check", "grading", str(path))
        assert code == 3
        assert err.startswith("error:") and missing in err


GF3_ONE_THIRD = """[algebra]
field = GF(3)
group = trivial
basis = e
degrees = ()
unit = 1
[products]
0 0 0 1/3
"""
UNIT_OVER_ZERO = """[algebra]
field = Q
group = trivial
basis = e
degrees = ()
unit = 1/0
[products]
0 0 0 1
"""


@pytest.mark.parametrize("argv,text", [
    (("construct", "quaternion", "-a", "1/0"), None),
    (("construct", "quaternion", "--field", "GF(3)", "-a", "1/3"), None),
    (("construct", "symbol", "--field", "GF(7)", "-n", "3", "-a", "2", "-b", "3",
      "--xi", "1/7"), None),
    (("check", "grading", "FILE"), GF3_ONE_THIRD),
    (("check", "grading", "FILE"), UNIT_OVER_ZERO),
    (("check", "grading", "FILE"), "[construct]\nkind = quaternion\nfield = Q\na = 1/0\n"
                                   "b = -1\n"),
], ids=["construct-zero-denominator", "construct-gf3-third", "construct-gf7-xi",
        "products-gf3-third", "unit-zero-denominator", "construct-section"])
def test_bad_scalar_token_exit_3(capsys, tmp_path, argv, text):
    # a zero denominator, or one divisible by p over GF(p), is bad input
    path = tmp_path / "a.alg"
    if text is not None:
        path.write_text(text)
    code, out, err = run(capsys, *[str(path) if a == "FILE" else a for a in argv])
    assert code == 3 and out == ""
    assert err.startswith("error: bad scalar")


@pytest.mark.parametrize("argv", [
    ("check", "graded-division", "FILE"),
    ("check", "graded-simple", "FILE"),
    ("check", "crossed-product", "FILE"),
    ("check", "azumaya", "FILE", "--via", "graded-csa"),
    ("k0", "FILE"),
    ("k0", "FILE", "--localize", "2"),
], ids=["graded-division", "graded-simple", "crossed-product", "graded-csa", "k0",
        "k0-localize"])
def test_empty_basis_exit_3(capsys, tmp_path, argv):
    path = tmp_path / "a.alg"
    path.write_text("[algebra]\nfield = Q\ngroup = trivial\nbasis =\ndegrees =\n")
    code, out, err = run(capsys, *[str(path) if a == "FILE" else a for a in argv])
    assert (code, out) == (3, "")
    assert err == "error: an algebra needs at least one basis vector\n"


@pytest.mark.parametrize("argv", [
    ("check", "nosuchpred", "FILE"),
    ("check", "azumaya", "FILE", "--via", "nosuchroute"),
    ("k0", "--localize", "x"),
    (),
    ("--nosuchoption", "k0"),
    ("classify-shift", "--group", "Z", "--base", "trivial-K", "(0)"),
], ids=["predicate", "via", "localize-not-int", "no-subcommand", "option", "base"])
def test_usage_error_exit_3(capsys, quat_file, argv):
    # argparse's own exit 2 would read as "undecided"
    code, out, err = run(capsys, *[quat_file if a == "FILE" else a for a in argv])
    assert code == 3 and out == ""
    assert err.startswith("error:") and "usage: gradedk" in err


@pytest.mark.parametrize("argv", [("--help",), ("check", "-h")], ids=["top", "check"])
def test_help_exit_0(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert out.startswith("usage: gradedk")


def test_crossed_product_witness_same_on_construct_and_dumped_file(capsys, tmp_path):
    # the Z2-graded quaternions: a [construct] file and the file `construct`
    # writes for it give the same unit of the odd degree, j
    section = tmp_path / "section.alg"
    section.write_text("[construct]\nkind = quaternion\nfield = Q\na = -1\nb = -1\n"
                       "grading = Z2\n")
    dumped = tmp_path / "dumped.alg"
    assert run(capsys, "construct", "quaternion", "--grading", "Z2", "-o", str(dumped))[0] == 0
    outs = [run(capsys, "check", "crossed-product", str(f)) for f in (section, dumped)]
    assert outs[0] == outs[1] == (0, "predicate=crossed-product; verdict=true; "
                                     "strategy=constructive; witness={(1): 1*j}\n", "")


def test_k0_without_input_exit_3(capsys):
    code, _, err = run(capsys, "k0")
    assert code == 3
    assert err.startswith("error:")


def test_k0_exact_sequence(capsys):
    code, out, _ = run(capsys, "k0", "--exact-sequence", "4", "--localize", "2")
    assert code == 0
    assert "ck0=Z/4" in out
    assert "zk0=0" in out
    assert "ck0_localized=0" in out


def test_k0_compare_localized_quaternions(capsys, quat_file):
    code, out, _ = run(capsys, "k0", "--compare-localized", "2", quat_file)
    assert code == 1
    assert "NOT isomorphic: Z vs Z^4 (localized at 2)" in out


@pytest.mark.parametrize("argv", [("--exact-sequence", "0"), ("--exact-sequence", "-3"),
                                  ("--exact-sequence", "3", "--localize", "0"),
                                  ("--localize", "-1", "FILE"),
                                  ("--compare-localized", "0", "FILE")],
                         ids=["exact-0", "exact-negative", "localize-0",
                              "localize-file-negative", "compare-0"])
def test_k0_nonpositive_integer_exit_3(capsys, quat_file, argv):
    code, out, err = run(capsys, "k0", *[quat_file if a == "FILE" else a for a in argv])
    assert code == 3 and out == ""
    assert err.startswith("error:") and "positive integer" in err


@pytest.mark.parametrize("argv,want", [
    (("check", "grading"), 0),
    (("check", "strongly-graded"), 0),
    (("check", "crossed-product"), 0),
    (("check", "graded-division"), 0),
    (("check", "graded-simple"), 0),
    (("check", "central-simple"), 3),
    (("check", "azumaya", "--via", "psi"), 0),
    (("check", "azumaya", "--via", "graded-csa"), 0),
    (("check", "azumaya", "--via", "braun"), 3),
    (("check", "azumaya", "--via", "group-ring"), 3),
    (("k0",), 0),
    (("k0", "--compare-localized", "2"), 1),
    (("k0", "--localize", "2"), 0),
    (("commutators",), 3),
], ids=lambda v: "-".join(v) if isinstance(v, tuple) else str(v))
def test_lazy_laurent_file_never_exits_4(capsys, tmp_path, argv, want):
    # a graded field R is graded Azumaya over itself: psi and graded-csa read
    # it as the lazy M_1(R)(0); what needs structure constants is bad input
    path = tmp_path / "l.alg"
    run(capsys, "construct", "laurent", "-o", str(path))
    code, out, err = run(capsys, *argv, str(path))
    assert code == want, (out, err)
    if want == 3:
        assert err.startswith("error:") and out == ""
    elif argv[0] == "check":
        assert "verdict=true" in out
    elif "--compare-localized" in argv:
        # Z[Gamma/Gamma_D] = Z against Z[Z] of the trivially graded base field
        assert out == ("NOT isomorphic: Z vs 'free-abelian-of-infinite-rank' "
                       "(localized at 2)\n")
    elif "--localize" in argv:
        assert out == "k0gr=Z\nk0gr_localized=Z\n"


def test_k0_twisted_group_algebra(capsys, tmp_path):
    path = tmp_path / "laurent.alg"
    run(capsys, "construct", "laurent", "--field", "Q", "--step", "2",
        "-o", str(path))
    code, out, _ = run(capsys, "k0", str(path))
    assert code == 0
    assert "k0gr=Z" in out


def test_classify_shift_canonical(capsys):
    code, out, _ = run(capsys, "classify-shift", "--group", "Z",
                       "--subgroup", "(2)", "(0) (1) (1)")
    assert code == 0
    assert out.startswith("canonical=")
    # canonical form is deterministic
    code2, out2, _ = run(capsys, "classify-shift", "--group", "Z",
                         "--subgroup", "(2)", "(4) (3) (7)")
    assert out2 == out


def test_classify_shift_decision(capsys):
    code, out, _ = run(capsys, "classify-shift", "--group", "Z",
                       "--subgroup", "(2)", "(0) (1) (1)", "(4) (3) (7)")
    assert code == 0
    assert "verdict=true" in out and "witness=" in out
    code, out, _ = run(capsys, "classify-shift", "--group", "Z",
                       "--subgroup", "(2)", "(0) (0) (0)", "(0) (0) (1)")
    assert code == 1


def test_classify_shift_bad_group_exit_3(capsys):
    code, _, err = run(capsys, "classify-shift", "--group", "Banana", "(0)")
    assert code == 3
    assert "error" in err


@pytest.mark.parametrize("shifts", [("",), ("", "")], ids=["one-vector", "two-vectors"])
def test_classify_shift_empty_vector_exit_3(capsys, shifts):
    # an empty shift vector is bad input for the canonical form and the decision
    code, out, err = run(capsys, "classify-shift", "--group", "Z", *shifts)
    assert code == 3
    assert out == ""
    assert err == "error: empty shift vector\n"


def test_classify_shift_three_vectors_exit_3(capsys):
    # the decision compares two vectors; a third is bad input, not ignored
    code, out, err = run(capsys, "classify-shift", "--group", "Z", "(0)", "(1)", "(5) (6)")
    assert code == 3
    assert out == ""
    assert err == "error: expected one or two shift vectors, got 3\n"


def test_commutators_quaternion(capsys, quat_file):
    code, out, _ = run(capsys, "commutators", quat_file)
    assert code == 0
    assert "commutator_dim=3" in out


def test_seed_determinism(capsys, quat_file):
    runs = []
    for _ in range(2):
        code, out, _ = run(capsys, "--seed", "5", "check", "graded-division",
                           quat_file)
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]


def test_check_graded_division_split_quaternion_exit_1(capsys, tmp_path):
    # (1, 1 / Q) trivially graded is M_2(Q), which has zero divisors
    path = tmp_path / "split.alg"
    run(capsys, "construct", "quaternion", "--field", "Q", "-a", "1", "-b", "1",
        "--grading", "trivial", "-o", str(path))
    code, out, _ = run(capsys, "--seed", "3", "check", "graded-division", str(path))
    assert code == 1
    assert "verdict=false" in out and "noninvertible" in out


def test_check_undecided_exit_2(capsys, tmp_path):
    # rebased M_4(Q), trivially graded: no spectral idempotent of A_e's
    # block basis has a rank-one corner, so the block is left untyped and
    # the verdict is undecided, exit code 2, until Q blocks are typed by a
    # maximal order
    path = tmp_path / "m4.alg"
    alg = rebased(construct_matrix_algebra(FieldSpec.rationals(), 4), random.Random(1))
    save_graded_algebra(trivially_graded(alg, GradeGroup.trivial()), str(path))
    code, out, err = run(capsys, "check", "graded-division", str(path))
    assert (code, err) == (2, "")
    assert out.splitlines() == [
        "predicate=graded-division; verdict=undecided; strategy=exhaustive; "
        "block-reason='no-rank-one-corner'; reason='identity-component-untyped'"]


F2, F3, F5 = (FieldSpec.prime_field(p) for p in (2, 3, 5))


@pytest.mark.parametrize("build, expected", [
    (lambda: construct_matrix_algebra(F5, 3), ["k0gr=Z;", "radical=0", "n=3"]),
    (lambda: upper_triangular(F3), ["k0gr=Z^2;", "radical=1"]),
    (lambda: product_algebra(scalars(F2), construct_matrix_algebra(F2, 2)),
     ["k0gr=Z^2;", "radical=0",
      "blocks=[dim=1,centre=1,n=1,div=1; dim=4,centre=1,n=2,div=1]"]),
    (lambda: construct_group_ring(F3, GradeGroup.symmetric_3()).algebra,
     ["k0gr=Z^2;", "radical=4"]),
], ids=["M3_GF5", "T2_GF3", "GF2xM2_GF2", "GF3_S3"])
def test_k0_strongly_graded_splits_identity_component(capsys, tmp_path, build, expected):
    # trivially graded over Z/2, so the algebra is its own identity component
    path = tmp_path / "a.alg"
    save_graded_algebra(trivially_graded(build(), GradeGroup.cyclic(2)), str(path))
    code, out, err = run(capsys, "k0", str(path))
    assert code == 0 and not err
    for text in expected:
        assert text in out


@pytest.mark.parametrize("build, block", [
    (m2_over_q_sqrt2, "dim=8,centre=2,n=None,div=None,reason=proper-centre"),
    (cyclic_cubic_division_algebra, "dim=9,centre=1,n=None,div=None,reason=no-rank-one-corner"),
], ids=["M2_Q_sqrt2", "cyclic_cubic"])
def test_k0_unresolved_block_reason(capsys, tmp_path, build, block):
    path = tmp_path / "a.alg"
    save_graded_algebra(trivially_graded(build(), GradeGroup.cyclic(2)), str(path))
    code, out, err = run(capsys, "k0", str(path))
    assert code == 0 and not err
    assert out.splitlines()[0] == "k0gr=Z; radical=0; blocks=[%s]" % block


def test_internal_error_exit_4(capsys, monkeypatch):
    def broken(args):
        raise TypeError("unexpected input")
    monkeypatch.setattr(gradedk.cli, "cmd_k0", broken)
    code, out, err = run(capsys, "k0", "--exact-sequence", "2")
    assert code == 4
    assert out == ""
    assert "Traceback" in err
    assert err.splitlines()[-1] == "internal error: TypeError: unexpected input"


def test_shared_parser_keeps_calls_independent(capsys, quat_file):
    # one parser serves every call in a process: a flag given to one call
    # must not change the defaults a later call sees
    calls = [("check", "azumaya", quat_file, "--via", "psi"),
             ("check", "azumaya", quat_file),
             ("k0", "--exact-sequence", "3", "--localize", "3"),
             ("k0", "--exact-sequence", "3"),
             ("--seed", "7", "check", "grading", quat_file),
             ("check", "grading", quat_file),
             ("classify-shift", "--group", "Z", "--subgroup", "(2)", "(0) (1)"),
             ("k0", quat_file)]
    first = []
    for argv in calls:
        gradedk.cli.build_parser.cache_clear()
        first.append(run(capsys, *argv))
    for argv, want in zip(calls, first):
        assert run(capsys, *argv) == want, argv
    assert "psi-bijective" in first[0][1] and "psi-bijective" not in first[1][1]
    assert "ck0_localized" in first[2][1] and "ck0_localized" not in first[3][1]
