import pytest

import gradedk.cli
from gradedk.cli import main
from gradedk.constructors import construct_group_ring, construct_matrix_algebra
from gradedk.fields import FieldSpec
from gradedk.fileformat import save_graded_algebra
from gradedk.graded import trivially_graded
from gradedk.groups import GradeGroup
from test_ktheory import product_algebra, scalars, upper_triangular


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


def test_check_not_strongly_graded_exit_1(capsys, tmp_path):
    path = tmp_path / "trunc.alg"
    run(capsys, "construct", "truncated", "--field", "Q", "-m", "3",
        "-o", str(path))
    code, out, _ = run(capsys, "check", "strongly-graded", str(path))
    assert code == 1
    assert "verdict=false" in out
    assert "counterexample" in out


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


def test_internal_error_exit_4(capsys, monkeypatch):
    def broken(args):
        raise TypeError("unexpected input")
    monkeypatch.setattr(gradedk.cli, "cmd_k0", broken)
    code, out, err = run(capsys, "k0", "--exact-sequence", "2")
    assert code == 4
    assert out == ""
    assert "Traceback" in err
    assert err.splitlines()[-1] == "internal error: TypeError: unexpected input"
