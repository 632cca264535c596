"""The product of A (x) A^op on A's structure constants, the tests'
reference for separability elements: an element is n^2 scalars, i*n + j
for e_i (x) e_j, as in `gradedk.azumaya.EnvelopingAlgebra`."""


def enveloping_product(algebra, x, y):
    """The product in A (x) A^op of the coefficient tuples x and y:
    (e_i (x) e_j)(e_k (x) e_l) = e_i e_k (x) e_l e_j."""
    n, table = algebra.dim, algebra.table
    xs, dx = algebra.field.to_ints(x)
    ys, dy = algebra.field.to_ints(y)
    ys = [(divmod(t, n), b) for t, b in enumerate(ys) if b]
    out = [0] * (n * n)
    for t, a in enumerate(xs):
        i, j = divmod(t, n)
        for (k, l), b in ys if a else ():
            for r, c in table[i].get(k, ()):
                for s, d in table[l].get(j, ()):
                    out[r * n + s] += a * b * c * d
    return tuple(algebra.field.from_ints(out, dx * dy * algebra.scale ** 2))
