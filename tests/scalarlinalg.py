"""The tests' field-scalar view of `gradedk.linalg`: dense rows of field
scalars in and out, through `linalg.int_rows` and `FieldSpec.from_ints`,
for reference code that reads the reduced rows themselves."""

from gradedk import linalg


def scalar_rows(echelon, ncols, field):
    """The reduced rows rows / den of an echelon (rows, den, pivots), as
    dense lists of field scalars."""
    rows, den, _ = echelon
    return [field.from_ints([r.get(j, 0) for j in range(ncols)], den) for r in rows]


def rref(rows, ncols, field):
    """(reduced rows, pivots) of dense rows of field scalars."""
    echelon = linalg.rref(linalg.int_rows(rows, field), field)
    return scalar_rows(echelon, ncols, field), echelon[2]


def nullspace(rows, ncols, field):
    """The canonical kernel basis of dense rows of field scalars."""
    return scalar_rows(linalg.nullspace(linalg.int_rows(rows, field), ncols, field),
                       ncols, field)


def solve(rows, ncols, field):
    """The solution, free variables 0, of the dense rows of [A | b] of field
    scalars, or None."""
    sol = linalg.solve(linalg.int_rows(rows, field), ncols, field)
    return None if sol is None else field.from_ints(*sol)
