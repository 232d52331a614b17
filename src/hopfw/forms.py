"""Multilinear forms on K^n and their structure analysis.

A form of arity m on dimension n is the sparse tensor of its coefficients
w_{i1...im} = w(e_{i1},...,e_{im}) with 1-based indices.  The analysis
operations answer three questions exactly, over the rationals:

* one-site nondegeneracy: does the flattening with the last slot as column
  index have full column rank (and likewise per slot for the stronger
  every-slot variant);
* twisted cyclicity: is there a matrix Q with
  w_{i1...im} = sum_j Q^j_{im} w_{j i1...i_{m-1}}, and is it unique;
* the polar family: which tensors wt satisfy
  sum wt^{k j1...j_{m-1}} w_{j1...j_{m-1} l} = delta^k_l.

"Preregular" = one-site nondegenerate + a (then unique) invertible Q.

All three are equations on two flattenings of w.  With G the first-slot
flattening (G[J, j] = w_{j J}), F the last-slot one (F[J, l] = w_{J l}) and
T the n x n^(m-1) matrix T[k, J] = wt^{k J}, twisted cyclicity is G.Q = F,
polarity is F^T.T^T = I, and for a polar wt the inverse twist is
Q^-1 = T.G.  Each is solved with one sparse row reduction of the rows that
w's nonzero entries fill, no flattening built whole; an RREF is unique, so
no result can depend on how it is reached.  The polar space is the
particular solution plus the kernel e_k (x) v for k = 1..n and each
canonical kernel vector v of F^T in order, which is the canonical basis of
the whole system, as it is block-diagonal in the first index of wt.

Membership in the polar family is tested over the ints: with d and e the
least common multiples of the denominators of wt and w, wt is polar
exactly when sum_J (d wt)^{k J} (e w)_{J l} = d e delta^k_l, and no
Fraction is built.  w's side of that contraction, its entries cleared by e
and grouped by the index minus the last slot, is built on the first
membership test and kept in the form's ``_last_slot`` slot, so a form
queried many times clears and groups its entries once.  That is safe
because a form is immutable: nothing writes ``entries`` after the
constructor, and equality, hashing and ``repr`` do not read the slot.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .exactnum import (
    Matrix,
    ONE,
    Scalar,
    SingularMatrixError,
    ZERO,
    _particular,
    _rref_rows,
    _solve_rows,
    add_terms,
    cleared_terms,
    is_invertible,
    rat,
)

Index = tuple[int, ...]


class AmbiguousTwistError(ValueError):
    """The twisted-cyclicity system is solvable but not uniquely."""


class NotInvariantError(ValueError):
    """A cyclic-average was requested for a form the matrix does not preserve."""


class InternalConsistencyError(RuntimeError):
    """Two independent routes to the same quantity disagreed."""


class MultilinearForm:
    """Sparse exact tensor: map from 1-based index tuples to scalars."""

    # _last_slot: the contraction index of in_polar, built on first use
    __slots__ = ("dim", "arity", "entries", "_last_slot")

    def __init__(self, dim: int, arity: int, entries: Mapping[Index, object]) -> None:
        if dim < 2:
            raise ValueError("dimension must be at least 2")
        if arity < 2:
            raise ValueError("arity must be at least 2")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "arity", arity)
        clean: dict[Index, Scalar] = {}
        for idx, c in entries.items():
            idx = tuple(idx)
            if len(idx) != arity:
                raise ValueError(f"index {idx} has length {len(idx)}, expected {arity}")
            if min(idx) < 1 or max(idx) > dim:
                raise ValueError(f"index {idx} out of range 1..{dim}")
            c = rat(c)
            if c:
                if idx in clean:
                    raise ValueError(f"duplicate index {idx}")
                clean[idx] = c
        object.__setattr__(self, "entries", clean)
        object.__setattr__(self, "_last_slot", None)

    @classmethod
    def _trusted(cls, dim: int, arity: int, entries: dict[Index, Scalar]) -> "MultilinearForm":
        """A form of clean entries (in-range indices to nonzero Scalars), unchecked."""
        w = object.__new__(cls)
        object.__setattr__(w, "dim", dim)
        object.__setattr__(w, "arity", arity)
        object.__setattr__(w, "entries", entries)
        object.__setattr__(w, "_last_slot", None)
        return w

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("MultilinearForm is immutable")

    def __getitem__(self, idx: Index) -> Scalar:
        return self.entries.get(tuple(idx), ZERO)

    def is_zero(self) -> bool:
        return not self.entries

    def nonzero_items(self) -> list[tuple[Index, Scalar]]:
        return sorted(self.entries.items())

    def scale(self, c) -> "MultilinearForm":
        c = rat(c)
        if not c:
            return MultilinearForm(self.dim, self.arity, {})
        return MultilinearForm(
            self.dim, self.arity, {i: c * x for i, x in self.entries.items()}
        )

    def add(self, other: "MultilinearForm") -> "MultilinearForm":
        if (self.dim, self.arity) != (other.dim, other.arity):
            raise ValueError("shape mismatch")
        out = add_terms(dict(self.entries), other.entries.items())
        return MultilinearForm(self.dim, self.arity, out)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultilinearForm)
            and self.dim == other.dim
            and self.arity == other.arity
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.dim, self.arity, frozenset(self.entries.items())))

    def __repr__(self) -> str:
        items = ", ".join(f"{i}: {c}" for i, c in self.nonzero_items())
        return f"MultilinearForm(n={self.dim}, m={self.arity}, {{{items}}})"


def _all_indices(n: int, length: int) -> Iterable[Index]:
    return itertools.product(range(1, n + 1), repeat=length)


def flattening(w: MultilinearForm, slot: int) -> Matrix:
    """The n^(m-1) x n matrix with the given slot (1-based) as column index
    and the remaining slots, in order, as the row index."""
    if not 1 <= slot <= w.arity:
        raise ValueError("slot out of range")
    rows, others = _flattening_rows(w, slot), list(_all_indices(w.dim, w.arity - 1))
    entries = [rows.get(rest, {}).get(j, ZERO) for rest in others for j in range(w.dim)]
    return Matrix(len(others), w.dim, entries)


def _flattening_rows(w: MultilinearForm, slot: int, transpose: bool = False) -> dict:
    """The nonzero rows of ``flattening(w, slot)``, read off w's entries alone:
    {the other slots' index: {0-based column: value}}.  With ``transpose``,
    those of its transpose: {0-based column: {row: value}}, a row numbered
    by its index's place in lexicographic order."""
    n, rows = w.dim, {}
    for idx, c in w.entries.items():
        rest, col = idx[: slot - 1] + idx[slot:], idx[slot - 1] - 1
        if transpose:
            rest, col = col, sum((i - 1) * n**k for k, i in enumerate(reversed(rest)))
        rows.setdefault(rest, {})[col] = c
    return rows


def _rank(w: MultilinearForm, slot: int) -> int:
    """The rank of ``flattening(w, slot)``."""
    return len(_rref_rows(_flattening_rows(w, slot).values()))


def is_one_site_nondegenerate(w: MultilinearForm) -> bool:
    """Full column rank of the last-slot flattening."""
    return _rank(w, w.arity) == w.dim


def check_condition_i_prime(w: MultilinearForm) -> bool:
    """Nondegeneracy in every slot, not just the last."""
    return all(_rank(w, slot) == w.dim for slot in range(1, w.arity + 1))


def twisting_element(w: MultilinearForm) -> Matrix | None:
    """Solve the twisted-cyclicity equations G.Q = F for Q.

    Returns the unique solution, None when the system is inconsistent, and
    raises :class:`AmbiguousTwistError` when the solution space has positive
    dimension (never silently picks one).
    """
    report, nullity = _twist_report(False, w)
    if report.twist_ambiguous:
        raise AmbiguousTwistError(
            f"twisting element underdetermined: {w.dim * nullity} free parameters"
        )
    return report.q


def is_q_cyclic(w: MultilinearForm, q: Matrix) -> bool:
    """Does the specific matrix q satisfy the twisted-cyclicity equations."""
    return flattening(w, 1) * q == flattening(w, w.arity)


@dataclass(frozen=True)
class TwistReport:
    nondegenerate: bool
    q: Matrix | None
    preregular: bool
    twist_ambiguous: bool = False


def _twist_report(nondegenerate: bool, w: MultilinearForm) -> tuple[TwistReport, int]:
    """The report of :func:`analyze` from the one-site verdict, with the
    nullity of G, from the one row reduction of [G | F]."""
    n = w.dim
    rows = _flattening_rows(w, 1)
    for rest, row in _flattening_rows(w, w.arity).items():
        rows.setdefault(rest, {}).update({n + l: c for l, c in row.items()})
    pivot_rows, kern = _solve_rows(rows.values(), n)
    ambiguous = pivot_rows is not None and bool(kern)
    q = None if pivot_rows is None or ambiguous else _particular(pivot_rows, n, n)
    prereg = bool(nondegenerate and q is not None and is_invertible(q))
    return TwistReport(nondegenerate, q, prereg, ambiguous), len(kern)


def analyze(w: MultilinearForm) -> TwistReport:
    """Full structure report: nondegeneracy, twisting element, preregularity.

    Preregular means: one-site nondegenerate, the twisting element exists
    (unique then), and it is invertible -- all verified exactly.
    """
    return _twist_report(is_one_site_nondegenerate(w), w)[0]


def _analyze_every_slot(w: MultilinearForm) -> tuple[TwistReport, bool]:
    """:func:`analyze` and :func:`check_condition_i_prime` at once, each
    flattening row-reduced once: the first slot's rank is read off the
    twist's row reduction."""
    ranks = [_rank(w, slot) for slot in range(2, w.arity + 1)]
    report, nullity = _twist_report(ranks[-1] == w.dim, w)
    return report, nullity == 0 and all(r == w.dim for r in ranks)


@dataclass(frozen=True)
class PolarSolution:
    """The affine space of polar tensors: a particular solution plus the
    kernel of the contraction map, both canonical."""

    particular: MultilinearForm
    kernel_basis: tuple[MultilinearForm, ...]

    def affine_dimension(self) -> int:
        return len(self.kernel_basis)

    def member(self, coeffs: Sequence) -> MultilinearForm:
        """particular + sum coeffs[i] * kernel_basis[i]."""
        if len(coeffs) != len(self.kernel_basis):
            raise ValueError("coefficient count mismatch")
        out = dict(self.particular.entries)
        for c, k in zip(coeffs, self.kernel_basis):
            c = rat(c)
            if c:
                add_terms(out, ((i, c * x) for i, x in k.entries.items()))
        return MultilinearForm(self.particular.dim, self.particular.arity, out)


def polar(w: MultilinearForm) -> PolarSolution | None:
    """All tensors wt with sum_j wt^{k,j...} w_{j...,l} = delta^k_l.

    Returns None exactly when the form fails one-site nondegeneracy.
    Unknowns are ordered by their index tuple, so the particular solution
    (free variables zeroed) and the kernel basis are canonical.
    """
    n, m = w.dim, w.arity
    size, cols = n ** (m - 1), _flattening_rows(w, m, transpose=True)
    # F^T.X = I for X = T^T: row l of [F^T | I] holds a 1 in column size + l
    rows, kern = _solve_rows((cols.get(l, {}) | {size + l: ONE} for l in range(n)), size)
    if rows is None:
        return None
    mids = list(_all_indices(n, m - 1))
    particular = {(k + 1,) + mids[p]: x for k in range(n) for p, r in rows if (x := r.get(size + k))}
    kernel = tuple(
        MultilinearForm._trusted(n, m, {(k,) + mids[i]: c for i, c in v.items()})
        for k in range(1, n + 1)
        for v in kern
    )
    return PolarSolution(MultilinearForm._trusted(n, m, particular), kernel)


def _slot_index(w: MultilinearForm, slot: int) -> tuple[dict[Index, list[tuple[int, int]]], int]:
    """(w's index minus the given slot -> [(0-based column, e * value)], e),
    for e the least common multiple of w's denominators."""
    ints, e = cleared_terms(w.entries)
    by_rest: dict[Index, list[tuple[int, int]]] = {}
    for idx, c in ints.items():
        by_rest.setdefault(idx[: slot - 1] + idx[slot:], []).append((idx[slot - 1] - 1, c))
    return by_rest, e


def _int_contract(wt: MultilinearForm, w: MultilinearForm, slot: int) -> tuple[list[int], int]:
    """(d * e times the n x n matrix sum_J wt^{k J} w_{J with l put in the
    given slot}, row-major, d * e), summed over the ints: wt cleared by d
    and w by e.  w's last-slot index is kept on w (see the module
    docstring)."""
    if (wt.dim, wt.arity) != (w.dim, w.arity):
        raise ValueError("shape mismatch")
    if slot == w.arity:
        if w._last_slot is None:
            object.__setattr__(w, "_last_slot", _slot_index(w, slot))
        by_rest, e = w._last_slot
    else:
        by_rest, e = _slot_index(w, slot)
    ints, d = cleared_terms(wt.entries)
    n = w.dim
    out = [0] * (n * n)
    for idx, c in ints.items():
        row = (idx[0] - 1) * n
        for col, c2 in by_rest.get(idx[1:], ()):
            out[row + col] += c * c2
    return out, d * e


def _contract(wt: MultilinearForm, w: MultilinearForm, slot: int) -> Matrix:
    """The n x n matrix sum_J wt^{k J} w_{J with l put in the given slot}."""
    out, de = _int_contract(wt, w, slot)
    return Matrix(w.dim, w.dim, [Scalar(c, de) for c in out])


def polar_contraction(wt: MultilinearForm, w: MultilinearForm) -> Matrix:
    """The matrix sum_j wt^{k,j1..j_{m-1}} w_{j1..j_{m-1},l}."""
    return _contract(wt, w, w.arity)


def in_polar(wt: MultilinearForm, w: MultilinearForm) -> bool:
    """Exact membership of wt in the polar affine space of w: the integer
    contraction is d * e on the diagonal and 0 off it."""
    out, de = _int_contract(wt, w, w.arity)
    n = w.dim
    return out[:: n + 1].count(de) == n and out.count(0) == n * n - n


def q_inverse_from_polar(w: MultilinearForm, wt: MultilinearForm) -> Matrix:
    """Contract a polar member against the first slot of w.

    The result sum_j wt^{k,j...} w_{l,j...} must equal the inverse of the
    twisting element; that identity is verified exactly and a mismatch (which
    would mean the two routes disagree) raises InternalConsistencyError.
    """
    if not in_polar(wt, w):
        raise ValueError("tensor is not in the polar affine space")
    q = twisting_element(w)
    if q is None or not is_invertible(q):
        raise ValueError("form has no invertible twisting element")
    out = _contract(wt, w, 1)
    if out * q != Matrix.identity(w.dim):
        raise InternalConsistencyError(
            "polar contraction does not invert the twisting element"
        )
    return out


def _transform(w: MultilinearForm, g: Matrix, first: int = 1) -> MultilinearForm:
    """Entries of (x1,...,xm) -> w(x1, ..., x_{first-1}, g x_first, ..., g xm)."""
    n, m = w.dim, w.arity
    out: dict[Index, Scalar] = {}
    for src, c in w.entries.items():
        # src[first-1:] are the summation indices contracted against columns of g
        lead = src[: first - 1]
        factors = [
            [(j + 1, g.entry(i - 1, j)) for j in range(n) if g.entry(i - 1, j)]
            for i in src[first - 1 :]
        ]
        products = (
            (lead + tuple(j for j, _ in combo), math.prod((e for _, e in combo), start=c))
            for combo in itertools.product(*factors)
        )
        add_terms(out, products)
    return MultilinearForm(n, m, out)


def check_invariance(w: MultilinearForm, q: Matrix) -> bool:
    """Does w(q x1, ..., q xm) = w(x1, ..., xm) hold exactly."""
    if q.rows != w.dim or q.cols != w.dim:
        raise ValueError("matrix shape mismatch")
    return _transform(w, q) == w


def pi_q(w: MultilinearForm, q: Matrix) -> MultilinearForm:
    """Cyclic symmetrization with respect to q.

    The k-th summand applies q to arguments k..m and then rotates them to
    the front; the input must already be q-invariant (rejected otherwise),
    and the output is then q-twisted-cyclic.  Applying the map twice
    multiplies by the arity, i.e. (1/m) * pi_q is a projection.
    """
    if not check_invariance(w, q):
        raise NotInvariantError("form is not invariant under the given matrix")
    n, m = w.dim, w.arity
    out = MultilinearForm(n, m, {})
    for k in range(1, m + 1):
        # the k-th summand is the form with its first m-k+1 slots rotated to
        # the end, transformed by q in those slots (now slots k..m)
        s = m - k + 1
        rotated = {idx[s:] + idx[:s]: c for idx, c in w.entries.items()}
        out = out.add(_transform(MultilinearForm(n, m, rotated), q, k))
    return out


def base_change(w: MultilinearForm, g: Matrix) -> MultilinearForm:
    """The form (x1,...,xm) -> w(g x1, ..., g xm) for invertible g.

    Conjugates the twisting element: the transformed form's twist is
    g^{-1} Q g whenever w has twist Q.
    """
    if not is_invertible(g):
        raise SingularMatrixError("base change requires an invertible matrix")
    return _transform(w, g)


def _perm_sign(p: Sequence[int]) -> int:
    sign = 1
    seen = [False] * len(p)
    for i in range(len(p)):
        if seen[i]:
            continue
        j = i
        clen = 0
        while not seen[j]:
            seen[j] = True
            j = p[j]
            clen += 1
        if clen % 2 == 0:
            sign = -sign
    return sign


def make_signature(m: int) -> MultilinearForm:
    """The alternating m-linear form on K^m (entries = permutation signs)."""
    entries = {}
    for perm in itertools.permutations(range(m)):
        idx = tuple(p + 1 for p in perm)
        entries[idx] = _perm_sign(perm)
    return MultilinearForm(m, m, entries)


def make_orthogonal(n: int, m: int) -> MultilinearForm:
    """The fully diagonal form: 1 when all m indices agree, else 0."""
    return MultilinearForm(n, m, {(i,) * m: ONE for i in range(1, n + 1)})


def make_bilinear(rows: Sequence[Sequence]) -> MultilinearForm:
    """An arbitrary bilinear form from its matrix b[i][j] = b(e_i, e_j)."""
    n = len(rows)
    entries = {}
    for i, row in enumerate(rows):
        if len(row) != n:
            raise ValueError("matrix must be square")
        for j, c in enumerate(row):
            c = rat(c)
            if c:
                entries[(i + 1, j + 1)] = c
    return MultilinearForm(n, 2, entries)
