"""Exact rational scalars and small dense linear algebra over them.

Everything downstream (form analysis, rewriting, presentation checks) runs on
these: no floats, no rounding, anywhere.  ``Scalar`` is an arbitrary-precision
rational kept in lowest terms with positive denominator; ``Matrix`` is a small
immutable dense matrix of scalars with plain Gauss-Jordan elimination on top.

A coefficient has two forms, converted here alone: the rewriting engine's,
an ``int`` when integral (:func:`lean`, :func:`lean_terms`), and the
handed-out ``Scalar`` (:func:`fraction_terms`).  A sum with denominators
enters reduction as d times itself over the ints (:func:`cleared_terms`) and
leaves divided by d (:func:`fraction_quotients`).  :func:`cleared_terms` is
the one place denominators are cleared: ``rewrite`` calls it in the
reduction entry, ``hopf`` on each relation whose coproduct, antipode or
homomorphism image it checks, and ``forms`` on both tensors of a polar
contraction.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction
from typing import Iterable, Sequence

Scalar = Fraction

ZERO = Scalar(0)
ONE = Scalar(1)

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")

# the parts of an int or a Fraction, read in one call per value
_NUMERATOR = operator.attrgetter("numerator")
_DENOMINATOR = operator.attrgetter("denominator")
_INTEGRAL = frozenset({1})  # the denominators of integral values


class SingularMatrixError(ValueError):
    """Inverse requested for a matrix that has none."""


def rat(num, den: int = 1) -> Scalar:
    """Coerce to Scalar.  ``rat(3, 2)`` or ``rat(existing_scalar)``."""
    if den == 1 and isinstance(num, Fraction):
        return num
    return Scalar(num, den)


def parse_rational(text: str) -> Scalar:
    """Parse a rational literal: optional sign, integer, optional ``/`` and a
    positive integer denominator.  Anything else is rejected."""
    # an integer literal, the common case, is read with no regex and shares
    # the small Fractions
    if text.isdecimal() or (text[:1] == "-" and text[1:].isdecimal()):
        return _SMALL[int(text)]
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise ValueError(f"not a rational literal: {text!r}")
    if "/" in s and s.split("/")[1].lstrip("0") == "":
        raise ValueError(f"zero denominator in rational literal: {text!r}")
    return Scalar(s)


def format_rational(q: Scalar) -> str:
    """Canonical rational literal (inverse of parse_rational)."""
    return str(q)


def lean(q: int | Scalar) -> int | Scalar:
    """``q`` in the engine's form: an int when it is integral."""
    return q.numerator if q.denominator == 1 else q


def lean_terms(terms: dict) -> dict:
    """``terms`` with each integral coefficient as an int."""
    return {k: c.numerator if c.denominator == 1 else c for k, c in terms.items()}


class _Shared(dict):
    """int -> Fraction, one shared object for each small int."""

    def __missing__(self, c: int) -> Scalar:
        return Scalar(c)


# Fractions are immutable, so handed-out values share these: a small
# coefficient costs no new object
_SMALL = _Shared({i: Scalar(i) for i in range(-64, 65)})


def fraction_terms(terms: dict) -> dict:
    """``terms`` with each int as a Fraction; a Fraction skips the table, as hashing it is slow."""
    return {k: c if type(c) is Scalar else _SMALL[c] for k, c in terms.items()}


def cleared_terms(terms: dict) -> tuple[dict, int]:
    """(d times ``terms`` with int values, d), for d the least common
    multiple of the set of denominators of the values, ints or Fractions."""
    values = terms.values()
    denominators = set(map(_DENOMINATOR, values))
    if denominators <= _INTEGRAL:
        return dict(zip(terms, map(_NUMERATOR, values))), 1
    d = math.lcm(*denominators)
    return {k: c.numerator * (d // c.denominator) for k, c in terms.items()}, d


def fraction_quotients(terms: dict, d: int) -> dict:
    """``terms`` in the engine's form, divided by d: each value a Fraction,
    and an integral quotient shares the one that ``fraction_terms`` hands
    out."""
    if d == 1:
        return fraction_terms(terms)
    return {k: Scalar(c, d) if c % d else _SMALL[c // d] for k, c in terms.items()}


def add_terms(out: dict, pairs: Iterable[tuple]) -> dict:
    """Add (key, value) pairs into ``out``, a new key from the int 0; drop a
    key summing to 0.  A sum of Fractions stays a Fraction and a sum of ints
    an int."""
    for k, c in pairs:
        s = out.get(k, 0) + c
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


class Matrix:
    """Immutable dense matrix of scalars, row-major, 0-based indexing."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Iterable) -> None:
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        ents = tuple(rat(e) for e in entries)
        if len(ents) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(ents)}")
        object.__setattr__(self, "entries", ents)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("Matrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(n, n, [ONE if i == j else ZERO for i in range(n) for j in range(n)])

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "Matrix":
        nr = len(rows)
        nc = len(rows[0]) if nr else 0
        flat = []
        for r in rows:
            if len(r) != nc:
                raise ValueError("ragged rows")
            flat.extend(r)
        return cls(nr, nc, flat)

    def entry(self, i: int, j: int) -> Scalar:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[Scalar]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "Matrix":
        return Matrix(
            self.cols,
            self.rows,
            [self.entry(i, j) for j in range(self.cols) for i in range(self.rows)],
        )

    def scale(self, c) -> "Matrix":
        c = rat(c)
        return Matrix(self.rows, self.cols, [c * e for e in self.entries])

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return Matrix(
            self.rows, self.cols, [a + b for a, b in zip(self.entries, other.entries)]
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + other.scale(-1)

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        out = []
        for i in range(self.rows):
            ri = self.row(i)
            for j in range(other.cols):
                out.append(
                    sum(
                        (ri[k] * other.entry(k, j) for k in range(self.cols)),
                        start=ZERO,
                    )
                )
        return Matrix(self.rows, other.cols, out)

    def is_identity(self) -> bool:
        return self.rows == self.cols and self == Matrix.identity(self.rows)

    def is_zero(self) -> bool:
        return all(e == 0 for e in self.entries)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols}, {self.to_rows()!r})"

    def __str__(self) -> str:
        return format_matrix(self)


def format_matrix(m: Matrix) -> str:
    """Render as nested lists of rational literals, e.g. ``[[1, 0], [0, -1/2]]``."""
    rows = []
    for i in range(m.rows):
        rows.append("[" + ", ".join(format_rational(e) for e in m.row(i)) + "]")
    return "[" + ", ".join(rows) + "]"


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    return a * b


def mat_vec(a: Matrix, v: Sequence) -> tuple:
    if a.cols != len(v):
        raise ValueError("shape mismatch")
    vv = [rat(x) for x in v]
    return tuple(
        sum((a.entry(i, k) * vv[k] for k in range(a.cols)), start=ZERO)
        for i in range(a.rows)
    )


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...], int]:
    """Reduced row echelon form.

    Returns ``(R, pivots, rank)`` where ``pivots`` lists pivot column indices
    in increasing order.  Standard Gauss-Jordan: for each column, the first
    row below the current one with a nonzero entry is swapped up, scaled to a
    unit pivot, and eliminated from every other row.
    """
    rows = [list(m.row(i)) for i in range(m.rows)]
    nr, nc = m.rows, m.cols
    pivots: list[int] = []
    r = 0
    for c in range(nc):
        pr = None
        for i in range(r, nr):
            if rows[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        if pv != 1:
            rows[r] = [x / pv for x in rows[r]]
        for i in range(nr):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    flat = [x for row in rows for x in row]
    return Matrix(nr, nc, flat), tuple(pivots), len(pivots)


def solve(a: Matrix, b: Matrix) -> tuple[Matrix | None, tuple[dict[int, Scalar], ...]]:
    """Solve ``a @ x = b`` exactly for a matrix right-hand side ``b``, with
    one row reduction of ``[a | b]``.

    Returns ``(particular, kernel)``.  ``particular`` is the canonical
    solution, with every free variable 0, or None when some column of ``b``
    is out of reach.  ``kernel`` is the canonical basis of the nullspace of
    ``a`` (returned either way) as sparse vectors ``{column: value}``: one per
    free column of ``a``, in increasing order, with a 1 in that column, the
    forced values in the pivot columns and 0 in every other free column.
    """
    if b.rows != a.rows:
        raise ValueError("right-hand side row count mismatch")
    n = a.cols
    aug = [x for i in range(a.rows) for x in (*a.row(i), *b.row(i))]
    red, pivots, _ = rref(Matrix(a.rows, n + b.cols, aug))
    # the pivots of [a | b] left of column n are those of a, in its first rows
    a_pivots = [p for p in pivots if p < n]
    rows = [red.row(i) for i in range(len(a_pivots))]
    kernel = []
    for fc in sorted(set(range(n)).difference(a_pivots)):
        v = {fc: ONE}
        for pc, row in zip(a_pivots, rows):
            if row[fc]:
                v[pc] = -row[fc]
        kernel.append(v)
    if len(a_pivots) < len(pivots):
        return None, tuple(kernel)
    x = [ZERO] * (n * b.cols)
    for pc, row in zip(a_pivots, rows):
        x[pc * b.cols : (pc + 1) * b.cols] = row[n:]
    return Matrix(n, b.cols, x), tuple(kernel)


def kernel_basis(a: Matrix) -> tuple[tuple, ...]:
    """Canonical basis of the nullspace of ``a`` (see :func:`solve`)."""
    return solve_affine(a, [ZERO] * a.rows)[1]


def solve_affine(a: Matrix, b: Sequence) -> tuple[tuple | None, tuple[tuple, ...]]:
    """Solve ``a @ x = b`` exactly.

    Returns ``(particular, kernel)``.  ``particular`` is the canonical
    solution with all free variables set to 0, or None when the system is
    inconsistent (the kernel of ``a`` is returned either way).
    """
    if len(b) != a.rows:
        raise ValueError("rhs length mismatch")
    part, kern = solve(a, Matrix(a.rows, 1, b))
    dense = tuple(tuple(v.get(c, ZERO) for c in range(a.cols)) for v in kern)
    return (None if part is None else part.entries), dense


def mat_inv(m: Matrix) -> Matrix:
    """Exact inverse; raises SingularMatrixError when rank < n."""
    if m.rows != m.cols:
        raise SingularMatrixError("not square")
    inv, kern = solve(m, Matrix.identity(m.rows))
    if kern:
        raise SingularMatrixError("singular matrix")
    return inv


def is_invertible(m: Matrix) -> bool:
    if m.rows != m.cols:
        return False
    _, _, rank = rref(m)
    return rank == m.rows
