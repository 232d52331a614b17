from fractions import Fraction

import pytest

from hopfw.exactnum import (
    Matrix,
    SingularMatrixError,
    add_terms,
    format_matrix,
    format_rational,
    fraction_terms,
    is_invertible,
    kernel_basis,
    lean,
    lean_terms,
    mat_inv,
    mat_vec,
    parse_rational,
    rat,
    rref,
    solve_affine,
)


def test_parse_rational():
    assert parse_rational("2") == Fraction(2)
    assert parse_rational("-3/7") == Fraction(-3, 7)
    assert parse_rational("+1/2") == Fraction(1, 2)
    assert parse_rational(" 0 ") == 0


@pytest.mark.parametrize("bad", ["1.5", "1/0", "a", "1/-2", "", "2/"])
def test_parse_rational_rejects(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_format_rational_round_trip():
    for text in ["0", "2", "-3/7", "1/2"]:
        assert format_rational(parse_rational(text)) == text.lstrip("+")


def test_matrix_basics():
    a = Matrix.from_rows([[1, 2], [3, 4]])
    i = Matrix.identity(2)
    assert a * i == a
    assert (a - a).is_zero()
    assert a.transpose() == Matrix.from_rows([[1, 3], [2, 4]])
    assert format_matrix(Matrix.from_rows([[1, 0], [0, rat(-1, 2)]])) == "[[1, 0], [0, -1/2]]"
    assert mat_vec(a, [1, 0]) == (rat(1), rat(3))


def test_matrix_is_immutable_and_hashable():
    a = Matrix.from_rows([[1, 2], [3, 4]])
    assert hash(a) == hash(Matrix.from_rows([[1, 2], [3, 4]]))
    d = {a: "x"}
    assert d[Matrix.from_rows([[1, 2], [3, 4]])] == "x"


def test_rref_and_rank():
    a = Matrix.from_rows([[1, 2, 3], [2, 4, 6], [1, 1, 1]])
    r, pivots, rank = rref(a)
    assert rank == 2
    assert pivots == (0, 1)
    assert r.row(0) == (rat(1), rat(0), rat(-1))
    assert r.row(1) == (rat(0), rat(1), rat(2))
    assert r.row(2) == (rat(0), rat(0), rat(0))


def test_kernel_basis_canonical():
    a = Matrix.from_rows([[1, 2, 3]])
    vecs = kernel_basis(a)
    # one vector per free column, unit entry at the free position
    assert vecs == ((rat(-2), rat(1), rat(0)), (rat(-3), rat(0), rat(1)))
    for v in vecs:
        assert mat_vec(a, v) == (rat(0),)


def test_kernel_of_invertible_is_empty():
    assert kernel_basis(Matrix.from_rows([[2, 1], [1, 1]])) == ()


def test_solve_affine():
    a = Matrix.from_rows([[1, 1], [0, 1]])
    part, kern = solve_affine(a, [3, 1])
    assert part == (rat(2), rat(1))
    assert kern == ()

    a2 = Matrix.from_rows([[1, 1, 0]])
    part2, kern2 = solve_affine(a2, [5])
    assert part2 == (rat(5), rat(0), rat(0))
    assert len(kern2) == 2

    part3, kern3 = solve_affine(Matrix.from_rows([[1], [1]]), [0, 1])
    assert part3 is None
    assert kern3 == ()  # kernel of the matrix itself


def test_mat_inv():
    j = Matrix.from_rows([[0, 1], [-1, 0]])
    assert mat_inv(j) == Matrix.from_rows([[0, -1], [1, 0]])
    assert j * mat_inv(j) == Matrix.identity(2)
    with pytest.raises(SingularMatrixError):
        mat_inv(Matrix.from_rows([[1, 2], [2, 4]]))
    assert is_invertible(j)
    assert not is_invertible(Matrix.from_rows([[1, 2], [2, 4]]))


def test_is_invertible_refuses_a_non_square_matrix():
    assert not is_invertible(Matrix.from_rows([[1, 0, 0], [0, 1, 0]]))


def test_add_terms_starts_each_key_from_zero_and_drops_zero_sums():
    out = {"a": rat(1), "b": rat(2)}
    assert add_terms(out, [("a", -1), ("c", 3), ("b", 1), ("d", 0), ("c", 1)]) is out
    assert out == {"b": 3, "c": 4}
    # a new key starts from the int 0: a sum of Fractions stays a Fraction
    # and a sum of ints an int
    assert type(out["b"]) is Fraction and type(out["c"]) is int
    assert type(add_terms({}, [("a", rat(1, 2)), ("b", rat(2))])["b"]) is Fraction


def test_coefficient_forms_convert_both_ways():
    terms = {"a": Fraction(4, 2), "b": Fraction(-3, 5), "c": 7, "d": Fraction(10**20)}
    engine = lean_terms(terms)
    assert engine == terms
    assert [type(c) for c in engine.values()] == [int, Fraction, int, int]
    assert type(lean(Fraction(-6, 3))) is int and lean(Fraction(1, 3)) == Fraction(1, 3)
    out = fraction_terms(engine)
    assert out == terms and all(type(c) is Fraction for c in out.values())
    # a small integer comes from one shared table, and a Fraction is kept as is
    assert out["a"] is fraction_terms({"x": 2})["x"]
    assert out["b"] is engine["b"]


def test_exact_fractions_no_drift():
    # 1/3 arithmetic stays exact through a long chain
    a = Matrix.from_rows([[rat(1, 3), rat(1, 7)], [rat(1, 11), rat(1, 13)]])
    prod = a * mat_inv(a)
    assert prod == Matrix.identity(2)
