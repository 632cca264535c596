"""A grid of calls to the finite constructors and the text each one gives:
the `dump_graded_algebra` text of the result, or the error type and message
of a rejected input. `tests/golden/constructors.txt` holds the grid's text
as written by an earlier implementation of the constructors, and
`tests/test_constructors.py` compares the two byte for byte.

Run `python tests/constructorgrid.py > tests/golden/constructors.txt` with
`src` on the path to write the file again; do so only when a constructor is
meant to change its output.
"""

from __future__ import annotations

from gradedk.constructors import (construct_group_ring, construct_matrix_algebra,
                                  construct_quaternion, construct_symbol_algebra,
                                  construct_truncated_polynomial)
from gradedk.fields import FieldSpec
from gradedk.fileformat import dump_graded_algebra
from gradedk.graded import trivially_graded
from gradedk.groups import GradeGroup

FIELDS = [("Q", FieldSpec.rationals())] + [
    ("GF(%d)" % p, FieldSpec.prime_field(p)) for p in (2, 3, 5, 7)]

GROUPS = [("S3", GradeGroup.symmetric_3), ("D4", lambda: GradeGroup.dihedral(4)),
          ("D3", lambda: GradeGroup.dihedral(3)), ("Z3", lambda: GradeGroup.cyclic(3)),
          ("Z2xZ2", lambda: GradeGroup.product_of_cyclic(2, 2))]


def cases():
    """(name, call) pairs; call() builds one constructor result."""
    for fname, field in FIELDS:
        for a, b in [(-1, -1), (2, 5), (3, -2), (0, 1), (1, 0)]:
            for grading in ("trivial", "Z2", "Z2xZ2", "Z3"):
                yield ("quaternion %s a=%d b=%d %s" % (fname, a, b, grading),
                       lambda f=field, a=a, b=b, gr=grading: construct_quaternion(f, a, b, gr))
        for n in range(1, 5):
            for a, b in [(1, 1), (2, 3), (0, 1)]:
                for xi in (-1, 1, 2, 3, 4, 5, 6):
                    yield ("symbol %s n=%d a=%d b=%d xi=%d" % (fname, n, a, b, xi),
                           lambda f=field, n=n, a=a, b=b, xi=xi:
                           construct_symbol_algebra(f, n, a, b, xi))
        for gname, group in GROUPS:
            yield ("group-ring %s %s" % (fname, gname),
                   lambda f=field, g=group: construct_group_ring(f, g()))
        for m in range(1, 5):
            yield ("truncated %s m=%d" % (fname, m),
                   lambda f=field, m=m: construct_truncated_polynomial(f, m))
        for n in range(1, 5):
            yield ("matrix %s n=%d" % (fname, n),
                   lambda f=field, n=n: trivially_graded(construct_matrix_algebra(f, n),
                                                         GradeGroup.trivial()))


def render(call):
    try:
        return dump_graded_algebra(call())
    except (ValueError, ArithmeticError) as exc:
        return "%s: %s\n" % (type(exc).__name__, exc)


def grid_text():
    return "".join("=== %s\n%s" % (name, render(call)) for name, call in cases())


if __name__ == "__main__":
    import sys
    sys.stdout.write(grid_text())
