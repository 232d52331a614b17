"""Brute-force ideal membership for tests, independent of the rewrite engine.

The engine certifies membership of p (deg(p) <= D) exactly when p lies in the
smallest subspace U of the degree-<= D polynomials such that

* every input relation is in U, and
* for u in U and words x, y with len(x) + deg(u) + len(y) <= D, the product
  x*u*y is in U.

Plain products x*r*y of the input relations are not enough: when a
combination of relations collapses to a polynomial of lower degree (say a
degree-2 combination with a degree-1 leading word), that shorter element can
be remultiplied within the degree budget even though expanding it back into
input relations would overflow the bound.  The closure above accounts for
exactly that.

This module materializes U with sparse Gaussian elimination over the word
basis: seed the row space with the relations, then repeatedly multiply each
new pivot row by all word pairs that keep its leading word within the bound,
until no new pivot appears.  Membership is answered by row reduction -- slow
and simple on purpose, sharing no machinery with the rewrite engine.
"""

from __future__ import annotations

import itertools

from hopfw import Alphabet, NcPoly
from hopfw.exactnum import Scalar, ZERO
from slice_oracle import deglex_key


def _words(alphabet: Alphabet, max_len: int):
    chars = [alphabet.char(g) for g in alphabet.generators]
    for length in range(max_len + 1):
        for tup in itertools.product(chars, repeat=length):
            yield "".join(tup)


class SpanOracle:
    def __init__(self, relations, degree: int) -> None:
        rels = [r for r in relations if not r.is_zero()]
        self.alphabet = rels[0].alphabet
        self.degree = degree
        self.rows: dict[str, dict[str, Scalar]] = {}
        queue = []
        for r in rels:
            lead = self._insert(dict(r.terms))
            if lead is not None:
                queue.append(lead)
        while queue:
            lead = queue.pop()
            row = self.rows[lead]
            budget = degree - len(lead)
            for x in _words(self.alphabet, budget):
                for y in _words(self.alphabet, budget - len(x)):
                    if not x and not y:
                        continue
                    prod = {x + w + y: c for w, c in row.items()}
                    new = self._insert(prod)
                    if new is not None:
                        queue.append(new)

    def _reduce(self, row: dict[str, Scalar]) -> dict[str, Scalar]:
        row = dict(row)
        while row:
            lead = max(row, key=deglex_key)
            pivot = self.rows.get(lead)
            if pivot is None:
                return row
            factor = row[lead]
            for w, c in pivot.items():
                nv = row.get(w, ZERO) - factor * c
                if nv:
                    row[w] = nv
                else:
                    row.pop(w, None)
        return row

    def _insert(self, row: dict[str, Scalar]) -> str | None:
        """Add a row to the span; returns its pivot word if it was new."""
        row = self._reduce(row)
        if not row:
            return None
        lead = max(row, key=deglex_key)
        lc = row[lead]
        self.rows[lead] = {w: c / lc for w, c in row.items()}
        return lead

    def member(self, p: NcPoly) -> bool:
        if p.degree() > self.degree:
            raise ValueError("oracle only answers up to its degree")
        return not self._reduce(dict(p.terms))
