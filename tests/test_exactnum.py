import random
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
    solve,
    solve_affine,
)
from hopfw import exactnum


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


# ---------------------------------------------------------------------------
# the dense reference: plain Gauss-Jordan over Fractions, the row reduction
# that the sparse integer one replaced, with the solvers built on it as they
# were.  A reduced row echelon form is unique, so both must agree exactly.


def dense_rref(m):
    """(R, pivots, rank) by Gauss-Jordan: for each column, the first row
    below the current one with a nonzero entry is swapped up, scaled to a
    unit pivot, and eliminated from every other row."""
    rows = [list(m.row(i)) for i in range(m.rows)]
    nr, nc = m.rows, m.cols
    pivots = []
    r = 0
    for c in range(nc):
        pr = next((i for i in range(r, nr) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(nr):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return Matrix(nr, nc, [x for row in rows for x in row]), tuple(pivots), len(pivots)


def dense_solve(a, b):
    """solve(a, b) on one dense reduction of [a | b]."""
    n = a.cols
    aug = [x for i in range(a.rows) for x in (*a.row(i), *b.row(i))]
    red, pivots, _ = dense_rref(Matrix(a.rows, n + b.cols, aug))
    a_pivots = [p for p in pivots if p < n]
    rows = [red.row(i) for i in range(len(a_pivots))]
    kernel = []
    for fc in sorted(set(range(n)).difference(a_pivots)):
        v = {fc: Fraction(1)}
        for pc, row in zip(a_pivots, rows):
            if row[fc]:
                v[pc] = -row[fc]
        kernel.append(v)
    if len(a_pivots) < len(pivots):
        return None, tuple(kernel)
    x = [Fraction(0)] * (n * b.cols)
    for pc, row in zip(a_pivots, rows):
        x[pc * b.cols : (pc + 1) * b.cols] = row[n:]
    return Matrix(n, b.cols, x), tuple(kernel)


def dense_solve_affine(a, b):
    part, kern = dense_solve(a, Matrix(a.rows, 1, b))
    dense = tuple(tuple(v.get(c, Fraction(0)) for c in range(a.cols)) for v in kern)
    return (None if part is None else part.entries), dense


def dense_mat_inv(m):
    """The inverse, or the SingularMatrixError message."""
    if m.rows != m.cols:
        return "not square"
    inv, kern = dense_solve(m, Matrix.identity(m.rows))
    return "singular matrix" if kern else inv


BIG = 2**70 + 7


def _random_matrix(rng, rows, cols):
    """Mostly zeros; entries small or with numerators and denominators near
    2**70; some rows zero, repeated or a combination of two others."""
    density = rng.choice((0.2, 0.5, 0.9))
    big = rng.random() < 0.3

    def entry():
        if rng.random() > density:
            return 0
        if big:
            return Fraction(rng.choice((-1, 1)) * rng.randint(1, BIG), rng.choice((1, 3, BIG, BIG + 2)))
        return Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3, 7)))

    grid = [[entry() for _ in range(cols)] for _ in range(rows)]
    for i in range(rows):
        roll = rng.random()
        if roll < 0.1:
            grid[i] = [0] * cols
        elif roll < 0.25 and i:
            grid[i] = list(grid[rng.randrange(i)])
        elif roll < 0.4 and i:
            j, k = rng.randrange(i), rng.randrange(i)
            f, g = Fraction(rng.randint(-3, 3), rng.randint(1, 5)), rng.randint(-2, 2)
            grid[i] = [f * x + g * y for x, y in zip(grid[j], grid[k])]
    return Matrix(rows, cols, [x for row in grid for x in row])


# every shape from 0x0 to 9x9, wide and tall, five matrices each
ORACLE_CASES = [(r, c, k) for r in range(10) for c in range(10) for k in range(5)]


def _oracle_inputs():
    for r, c, k in ORACLE_CASES:
        rng = random.Random(f"{r}x{c}-{k}")
        a = _random_matrix(rng, r, c)
        # a right-hand side in the column span of a, or an arbitrary one
        if rng.random() < 0.5:
            x = _random_matrix(rng, c, rng.randint(0, 3))
            b = a * x
        else:
            b = _random_matrix(rng, r, rng.randint(0, 3))
        yield a, b, [rng.randint(-3, 3) for _ in range(r)]


def _kernel_text(kern):
    # the values and the insertion order of every sparse kernel vector
    return [list(v.items()) for v in kern]


def test_oracle_inputs_cover_every_shape_and_both_outcomes():
    inputs = list(_oracle_inputs())
    assert len(inputs) >= 500
    assert {(a.rows, a.cols) for a, _, _ in inputs} == {(r, c) for r in range(10) for c in range(10)}
    outcomes = {dense_solve(a, b)[0] is None for a, b, _ in inputs if b.cols}
    assert outcomes == {True, False}
    assert any(e.denominator > 2**64 for a, _, _ in inputs for e in a.entries)


def test_rref_agrees_with_dense_gauss_jordan():
    for a, _, _ in _oracle_inputs():
        got, want = rref(a), dense_rref(a)
        assert got == want and format_matrix(got[0]) == format_matrix(want[0])
        assert all(type(x) is Fraction for x in got[0].entries)


def test_solve_agrees_with_dense_gauss_jordan():
    for a, b, _ in _oracle_inputs():
        part, kern = solve(a, b)
        want_part, want_kern = dense_solve(a, b)
        assert part == want_part
        assert _kernel_text(kern) == _kernel_text(want_kern)


def test_solve_affine_and_kernel_basis_agree_with_dense_gauss_jordan():
    for a, _, rhs in _oracle_inputs():
        assert solve_affine(a, rhs) == dense_solve_affine(a, rhs)
        assert kernel_basis(a) == dense_solve_affine(a, [0] * a.rows)[1]


def test_mat_inv_and_is_invertible_agree_with_dense_gauss_jordan():
    square = [a for a, _, _ in _oracle_inputs() if a.rows == a.cols]
    assert any(is_invertible(a) for a in square) and not all(is_invertible(a) for a in square)
    for a, _, _ in _oracle_inputs():
        want = dense_mat_inv(a)
        try:
            got = mat_inv(a)
        except SingularMatrixError as exc:
            got = str(exc)
        assert got == want
        assert is_invertible(a) == (a.rows == a.cols and dense_rref(a)[2] == a.rows)


def test_every_solver_goes_through_the_one_sparse_reduction(monkeypatch):
    # rref, solve and everything built on them share it, with no size
    # threshold and no dense fallback
    calls = []
    real = exactnum._rref_rows
    monkeypatch.setattr(exactnum, "_rref_rows", lambda rows: calls.append(1) or real(rows))
    a = Matrix.from_rows([[1, 2], [3, 4]])
    rref(a), solve(a, a), solve_affine(a, [1, 1]), kernel_basis(a), mat_inv(a), is_invertible(a)
    assert len(calls) == 6
