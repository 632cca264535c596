from fractions import Fraction

import pytest

from gradedk.constructors import (construct_group_ring, construct_quaternion,
                                  construct_symbol_algebra)
from gradedk.fields import FieldSpec
from gradedk.fileformat import (FormatError, dump_graded_algebra,
                                format_group, format_group_element,
                                load_graded_algebra, parse_field,
                                parse_graded_algebra, parse_group,
                                parse_group_element, parse_scalar,
                                save_graded_algebra)
from gradedk.graded import validate_grading
from gradedk.groups import GradeGroup

Q = FieldSpec.rationals()

COMPLEX_NUMBERS = """
[algebra]
field = Q
group = Z/2
basis = one i
degrees = (0) (1)
unit = 1 0

[products]
0 0 0 1
0 1 1 1
1 0 1 1
1 1 0 -1
"""


def test_parse_field_round_trip():
    for text in ("Q", "GF(5)", "GF(2)", "GF(53)"):
        assert repr(parse_field(text)) == text
    with pytest.raises(FormatError):
        parse_field("R")


def test_parse_group_round_trip():
    for text in ("Z", "Z^2", "Z/4", "Z x Z/2", "Z^2 x Z/2 x Z/6", "trivial"):
        assert format_group(parse_group(text)) == text
    with pytest.raises(FormatError):
        parse_group("Z/2 + Z")


def test_parse_group_element():
    G = GradeGroup.fg_abelian(1, [2])
    g = parse_group_element(G, "(3,5)")
    assert g.coords == (3, 1)
    assert format_group_element(g) == "(3,1)"
    with pytest.raises(FormatError):
        parse_group_element(G, "3,5")


def test_parse_simple_algebra():
    g = parse_graded_algebra(COMPLEX_NUMBERS)
    assert g.dim == 2
    i = g.algebra.basis_element(1)
    assert (i * i) == -g.algebra.one
    assert g.degrees[1].coords == (1,)


def test_round_trip_is_canonical():
    g = parse_graded_algebra(COMPLEX_NUMBERS)
    text = dump_graded_algebra(g)
    g2 = parse_graded_algebra(text)
    assert dump_graded_algebra(g2) == text
    assert g2.algebra.products == g.algebra.products
    assert g2.degrees == g.degrees


def test_round_trip_quaternion_and_symbol():
    for g in (construct_quaternion(Q, -1, -1),
              construct_symbol_algebra(FieldSpec.prime_field(5), 2, 2, 3, 4)):
        text = dump_graded_algebra(g)
        g2 = parse_graded_algebra(text)
        assert dump_graded_algebra(g2) == text
        assert g2.algebra.products == g.algebra.products


def test_round_trip_table_group():
    g = construct_group_ring(Q, GradeGroup.symmetric_3())
    text = dump_graded_algebra(g)
    assert "[group-table]" in text
    g2 = parse_graded_algebra(text)
    assert dump_graded_algebra(g2) == text
    assert g2.group.table == g.group.table


def test_constructor_section():
    g = parse_graded_algebra("[construct]\nkind = quaternion\nfield = Q\n"
                             "a = -1\nb = -1\n")
    k = g.algebra.basis_element(3)
    assert k * k == -g.algebra.one
    with pytest.raises(FormatError):
        parse_graded_algebra("[construct]\nkind = octonion\nfield = Q\n")


def test_laurent_constructor_round_trip():
    t = parse_graded_algebra("[construct]\nkind = laurent\nfield = GF(5)\nstep = 2\n")
    text = dump_graded_algebra(t)
    t2 = parse_graded_algebra(text)
    assert dump_graded_algebra(t2) == text
    assert t2.has_component(t2.group.element((4,)))
    assert not t2.has_component(t2.group.element((1,)))


def test_error_positions():
    with pytest.raises(FormatError, match="line 1"):
        parse_graded_algebra("field = Q\n")
    bad_quad = COMPLEX_NUMBERS.replace("1 1 0 -1", "1 1 -1")
    with pytest.raises(FormatError, match="i j k value"):
        parse_graded_algebra(bad_quad)
    bad_index = COMPLEX_NUMBERS.replace("1 1 0 -1", "1 1 7 -1")
    with pytest.raises(FormatError, match="out of range"):
        parse_graded_algebra(bad_index)


def test_non_integer_tokens_named():
    # each a FormatError naming the token (and the line, where a products
    # or group-table line holds it), not int()'s message
    table_group = COMPLEX_NUMBERS.replace("group = Z/2", "group = table").replace(
        "degrees = (0) (1)", "degrees = 0 1") + "[group-table]\n0 1\n1 y\n"
    for old, new, message in (
            ("0 1 1 1", "0 x 1 1", "line 11: bad index 'x'"),
            ("1 0 1 1", "1 0 1.5e 1", "line 12: bad index '1.5e'"),
            ("degrees = (0) (1)", "degrees = (0) (x)", "bad coordinate 'x'"),
            ("group = Z/2\n", "group = D1\n", "bad group element '(0)'"),
            ("field = Q", "field = GF(x)", "bad characteristic 'x'")):
        text = COMPLEX_NUMBERS.replace(old, new)
        with pytest.raises(FormatError) as err:
            parse_graded_algebra(text)
        assert str(err.value) == message
    with pytest.raises(FormatError) as err:
        parse_graded_algebra(table_group)
    assert str(err.value) == "line 16: bad group-table entry 'y'"


def test_bad_degree_count_and_unit_length():
    with pytest.raises(FormatError, match="one degree per basis"):
        parse_graded_algebra(COMPLEX_NUMBERS.replace("degrees = (0) (1)",
                                                     "degrees = (0)"))
    with pytest.raises(FormatError, match="coordinates"):
        parse_graded_algebra(COMPLEX_NUMBERS.replace("unit = 1 0", "unit = 1"))


def test_grading_violation_rejected():
    # declare i in degree 0: then i*i = -1 is fine but e.g. 1*i breaks closure
    bad = COMPLEX_NUMBERS.replace("degrees = (0) (1)", "degrees = (1) (0)")
    with pytest.raises(FormatError, match="grading"):
        parse_graded_algebra(bad)


def test_constant_zero_mod_p_in_a_wrong_degree_is_no_violation():
    # i * i = -1 + 7 i: over GF(7) the term 7 i of degree 1 is 0, and is
    # dropped before the grading check; over Q it breaks the grading
    text = COMPLEX_NUMBERS.replace("field = Q", "field = GF(7)") + "1 1 1 7\n"
    assert validate_grading(parse_graded_algebra(text))
    with pytest.raises(FormatError, match=r"\('closure', 1, 1, 1\)"):
        parse_graded_algebra(text.replace("GF(7)", "Q"))


def test_grading_violation_named_in_row_order():
    # x^2 = x and y^2 = y with x, y in degree 1 break the grading twice; the
    # file lists row 2 first, and the check names the triple of row 1
    text = COMPLEX_NUMBERS.replace("basis = one i", "basis = one x y").replace(
        "degrees = (0) (1)", "degrees = (0) (1) (1)").replace("unit = 1 0", "unit = 1 0 0")
    text = text.split("[products]")[0] + "[products]\n" + "\n".join(
        ["0 0 0 1", "0 1 1 1", "0 2 2 1", "1 0 1 1", "2 0 2 1", "2 2 2 1", "1 1 1 1"])
    with pytest.raises(FormatError, match=r"\('closure', 1, 1, 1\)"):
        parse_graded_algebra(text)


def test_gf_scalars_and_comments():
    text = """
# GF(3) dual-free commutative square
[algebra]
field = GF(3)   # inline comment
group = trivial
basis = e
degrees = ()
unit = 2

[products]
0 0 0 2
"""
    g = parse_graded_algebra(text)
    e = g.algebra.basis_element(0)
    assert e * e == e.scale(g.field.scalar(2))
    assert g.algebra.one == e.scale(g.field.scalar(2))


def test_parse_scalar_matches_fraction_parse():
    tokens = ("+3", "-0", "007", "3.5", "1e2", "1/0", "1/7", "-", "\u0663", "\u00b2", "1_0")
    for field in (Q, FieldSpec.prime_field(7)):
        for token in tokens:
            try:
                want = field.scalar(Fraction(token))
            except (ValueError, ZeroDivisionError):
                with pytest.raises(FormatError) as err:
                    parse_scalar(field, token)
                assert str(err.value) == "bad scalar %r over %r" % (token, field)
                continue
            got = parse_scalar(field, token)
            assert type(got) is type(want) and got == want


def test_repeated_products_lines_sum():
    # i*i = -1 over three lines, and 1*1 = 0*1 over two lines that cancel:
    # the zero sum is dropped before the grading check sees a term of degree 1
    for field, split in (("Q", "1 1 0 2\n1 1 0 -4\n1 1 0 1\n0 0 1 5\n0 0 1 -5"),
                         ("GF(7)", "1 1 0 3\n1 1 0 2\n1 1 0 1\n0 0 1 3\n0 0 1 4")):
        plain = COMPLEX_NUMBERS.replace("field = Q", "field = " + field)
        g = parse_graded_algebra(plain.replace("1 1 0 -1", split))
        assert g.algebra.products == parse_graded_algebra(plain).algebra.products
        assert (0, 0) in g.algebra.products and 1 not in g.algebra.products[(0, 0)]


def test_load_save_files(tmp_path):
    g = construct_quaternion(Q, 2, 5)
    p = tmp_path / "quat.alg"
    save_graded_algebra(g, p)
    g2 = load_graded_algebra(p)
    assert g2.algebra.products == g.algebra.products
    assert g2.degrees == g.degrees
