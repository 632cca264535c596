"""Line-oriented definition files for graded algebras.

Sections are headed by [algebra], [products], [group-table], or [construct].
Scalars are integers or p/q rationals (GF(p) values are integers mod p);
grade-group elements are parenthesized integer tuples like (0,1), or a bare
index for table groups. Structure constants are sparse i j k value quadruples
meaning e_i * e_j contains value * e_k. The serializer is canonical: parsing
its output reproduces the same data.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import Algebra
from .constructors import (construct_group_ring, construct_laurent,
                           construct_matrix_algebra, construct_quaternion,
                           construct_symbol_algebra, construct_truncated_polynomial)
from .fields import FieldSpec
from .graded import GradedAlgebra, TwistedGroupAlgebra, trivially_graded
from .groups import GradeGroup, signature_text


class FormatError(ValueError):
    pass


# -- low-level parsing -------------------------------------------------


def _sections(text):
    out = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            out.setdefault(current, [])
            continue
        if current is None:
            raise FormatError("line %d outside any section" % lineno)
        out[current].append((lineno, line))
    return out


class _KeyValues(dict):
    """key = value pairs of one section; a missing required key is a
    FormatError, not a KeyError."""

    def __missing__(self, key):
        raise FormatError("missing key %r" % key)


def _keyvalues(lines):
    out = _KeyValues()
    for lineno, line in lines:
        if "=" not in line:
            raise FormatError("line %d: expected key = value" % lineno)
        k, v = line.split("=", 1)
        out[k.strip().lower()] = v.strip()
    return out


def parse_field(text):
    t = text.strip()
    if t in ("Q", "q", "rationals"):
        return FieldSpec.rationals()
    if t.upper().startswith("GF(") and t.endswith(")"):
        return FieldSpec.prime_field(_integer(t[3:-1], "bad characteristic"))
    raise FormatError("unknown field %r" % text)


def parse_group(text, table_lines=None):
    t = text.strip()
    if t in ("trivial", "1"):
        return GradeGroup.trivial()
    if t == "S3":
        return GradeGroup.symmetric_3()
    if t.startswith("D") and t[1:].isdigit():
        return GradeGroup.dihedral(int(t[1:]))
    if t == "table":
        if not table_lines:
            raise FormatError("group = table needs a [group-table] section")
        table = [[_integer(x, "line %d: bad group-table entry" % lineno) for x in line.split()]
                 for lineno, line in table_lines]
        return GradeGroup.from_table(table)
    rank = 0
    torsion = []
    for part in t.split("x"):
        part = part.strip()
        try:
            if part == "Z":
                rank += 1
            elif part.startswith("Z^"):
                rank += int(part[2:])
            elif part.startswith("Z/"):
                torsion.append(int(part[2:]))
            else:
                raise ValueError
        except ValueError:
            raise FormatError("unknown group factor %r" % part) from None
    return GradeGroup.fg_abelian(rank, torsion)


def format_group(group):
    if group.kind == "finite-table":
        return "table"
    return signature_text(group.rank, group.torsion) or "trivial"


def _integer(token, what):
    """int(token), or a FormatError of what and the token."""
    try:
        return int(token)
    except ValueError:
        raise FormatError("%s %r" % (what, token)) from None


def parse_scalar(field, token):
    """A scalar from an integer or p/q token. A token that is not a number,
    or has a zero denominator or, over GF(p), one divisible by p, is a
    FormatError. A plain integer, the common token, goes through the
    cheaper `int`, which reads it as Fraction does."""
    try:
        return field.scalar(int(token) if token.lstrip("+-").isdecimal() else Fraction(token))
    except (ValueError, ZeroDivisionError):
        raise FormatError("bad scalar %r over %r" % (token, field)) from None


def parse_group_element(group, token):
    token = token.strip()
    if group.kind == "finite-table":
        return group.element(_integer(token, "bad group element"))
    if not (token.startswith("(") and token.endswith(")")):
        raise FormatError("expected a parenthesized tuple, got %r" % token)
    inner = token[1:-1].strip()
    coords = [_integer(x, "bad coordinate") for x in inner.split(",")] if inner else []
    return group.element(coords)


def format_group_element(g):
    return str(g.coords) if g.group.kind == "finite-table" else repr(g)


# -- whole files -------------------------------------------------------


def parse_graded_algebra(text):
    """A GradedAlgebra (or TwistedGroupAlgebra) from definition text."""
    sections = _sections(text)
    if "construct" in sections:
        return _run_constructor(_keyvalues(sections["construct"]))
    if "algebra" not in sections:
        raise FormatError("missing [algebra] section")
    kv = _keyvalues(sections["algebra"])
    field = parse_field(kv["field"])
    group = parse_group(kv["group"], sections.get("group-table"))
    labels = kv["basis"].split()
    dim = len(labels)
    degree_tokens = split_tuples(kv["degrees"])
    if len(degree_tokens) != dim:
        raise FormatError("need one degree per basis label")
    degrees = [parse_group_element(group, t) for t in degree_tokens]
    products = {}
    for lineno, line in sections.get("products", []):
        parts = line.split()
        if len(parts) != 4:
            raise FormatError("line %d: expected i j k value" % lineno)
        try:
            i, j, k = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError:  # name the first token that is not an integer
            i, j, k = (_integer(t, "line %d: bad index" % lineno) for t in parts[:3])
        if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
            raise FormatError("line %d: index out of range" % lineno)
        try:  # an integer stays an int, which `Algebra` reads as it is
            v = int(parts[3])
        except ValueError:
            v = parse_scalar(field, parts[3])
        terms = products.setdefault((i, j), {})
        terms[k] = terms[k] + v if k in terms else v
    unit = None
    if "unit" in kv:
        unit = [parse_scalar(field, t) for t in kv["unit"].split()]
        if len(unit) != dim:
            raise FormatError("unit needs %d coordinates" % dim)
    alg = Algebra(field, labels, products, unit=unit)
    try:
        return GradedAlgebra(alg, group, degrees)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def split_tuples(text):
    """Split "(0,0) (1,0) 3" into top-level tokens: whitespace splits only
    outside parentheses, and a run of it inside becomes one space."""
    out, depth = [], 0
    for word in text.split():
        if depth:
            out[-1] += " " + word
        else:
            out.append(word)
        depth += word.count("(") - word.count(")")
    return out


# constructor kind -> (the keys of its [construct] section besides kind and
# field, the builder from those key-value pairs and the field)
CONSTRUCTORS = {
    "quaternion": (("a", "b", "grading"), lambda kv, f: construct_quaternion(
        f, parse_scalar(f, kv["a"]), parse_scalar(f, kv["b"]),
        grading=kv.get("grading", "Z2xZ2"))),
    "symbol": (("n", "a", "b", "xi"), lambda kv, f: construct_symbol_algebra(
        f, int(kv["n"]), *(parse_scalar(f, kv[k]) for k in ("a", "b", "xi")))),
    "laurent": (("step",), lambda kv, f: construct_laurent(f, step=int(kv.get("step", "1")))),
    "group-ring": (("group",), lambda kv, f: construct_group_ring(f, parse_group(kv["group"]))),
    "truncated": (("m",), lambda kv, f: construct_truncated_polynomial(f, int(kv["m"]))),
    "matrix": (("n",), lambda kv, f: trivially_graded(construct_matrix_algebra(f, int(kv["n"])),
                                                      GradeGroup.trivial())),
}


def _run_constructor(kv):
    kind = kv["kind"]
    field = parse_field(kv["field"])
    if kind not in CONSTRUCTORS:
        raise FormatError("unknown constructor %r" % kind)
    return CONSTRUCTORS[kind][1](kv, field)


def dump_graded_algebra(g):
    """Canonical definition text for a materialized GradedAlgebra."""
    if isinstance(g, TwistedGroupAlgebra):
        step = g.support.generators[0].coords[0] if g.support.generators else 0
        return "\n".join(["[construct]", "kind = laurent",
                          "field = %r" % g.field,
                          "step = %d" % abs(step), ""])
    alg = g.algebra
    lines = ["[algebra]",
             "field = %r" % alg.field,
             "group = %s" % format_group(g.group),
             "basis = %s" % " ".join(alg.labels),
             "degrees = %s" % " ".join(format_group_element(d) for d in g.degrees),
             "unit = %s" % " ".join(alg.field.format_scalar(c)
                                    for c in alg.unit_coords)]
    if g.group.kind == "finite-table":
        lines.append("[group-table]")
        for row in g.group.table:
            lines.append(" ".join(str(x) for x in row))
    lines.append("[products]")
    for (i, j) in sorted(alg.products):
        for k in sorted(alg.products[(i, j)]):
            lines.append("%d %d %d %s"
                         % (i, j, k, alg.field.format_scalar(alg.products[(i, j)][k])))
    lines.append("")
    return "\n".join(lines)


def load_graded_algebra(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graded_algebra(fh.read())


def save_graded_algebra(g, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_graded_algebra(g))
