"""Free-algebra elements over ranked, named generators.

Generators come in matric families ``u``, ``s``, ``a``, ``v`` (entries of an
n x n matrix of generators, 1-based indices) plus standalone free generators
known only by name.  The total order on generators is family rank first
(u < s < a < v < free), then row-major indices, then name; words compare in
deglex: length first, then letterwise by generator rank.

Internally a word is a Python string: an :class:`Alphabet` assigns one
character per generator, in rank order, so string comparison realises the
rank-lex order and substring search is cheap inside the rewriting engine.
The public surface speaks :class:`Generator` tuples; the alphabet translates.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Mapping

from .exactnum import ONE, Matrix, Scalar, ZERO, format_rational, parse_rational, rat

_FAMILY_RANK = {"u": 0, "s": 1, "a": 2, "v": 3, "free": 4}

MATRIC_FAMILIES = ("u", "s", "a", "v")

_CHAR_BASE = 0x100  # words never collide with printable syntax


class MissingImageError(KeyError):
    """A substitution met a generator with no assigned image."""

    def __init__(self, gen: "Generator") -> None:
        super().__init__(gen.token())
        self.generator = gen

    def __str__(self) -> str:
        return f"no image provided for generator {self.generator.token()}"


@dataclass(frozen=True)
class Generator:
    family: str
    row: int = 0
    col: int = 0
    name: str = ""

    def __post_init__(self) -> None:
        if self.family not in _FAMILY_RANK:
            raise ValueError(f"unknown generator family: {self.family!r}")
        if self.family == "free":
            if not self.name:
                raise ValueError("free generator needs a name")
        else:
            if self.row < 1 or self.col < 1:
                raise ValueError("matric generator indices are 1-based")

    @classmethod
    def free(cls, name: str) -> "Generator":
        return cls("free", name=name)

    @property
    def key(self) -> tuple:
        return (_FAMILY_RANK[self.family], self.row, self.col, self.name)

    def __lt__(self, other: "Generator") -> bool:
        return self.key < other.key

    def token(self) -> str:
        if self.family == "free":
            return self.name
        return f"{self.family}[{self.row},{self.col}]"

    def __repr__(self) -> str:
        return f"Generator({self.token()})"


def matric_family(family: str, n: int) -> list[Generator]:
    """All n*n generators g[r,c] of one family, row-major."""
    return [Generator(family, r, c) for r in range(1, n + 1) for c in range(1, n + 1)]


_TOKEN_RE = re.compile(r"^([usav])\[(\d+),(\d+)\]$")
_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z_0-9]*$")


def parse_generator_token(text: str) -> Generator:
    t = text.strip()
    m = _TOKEN_RE.match(t)
    if m:
        return Generator(m.group(1), int(m.group(2)), int(m.group(3)))
    if _NAME_RE.match(t) and t not in MATRIC_FAMILIES:
        return Generator.free(t)
    raise ValueError(f"not a generator token: {text!r}")


class Alphabet:
    """An ordered generator set with the word <-> string translation."""

    __slots__ = ("generators", "_char_of", "_base", "_desc")

    def __init__(self, generators: Iterable[Generator]) -> None:
        gens = tuple(sorted(set(generators), key=lambda g: g.key))
        object.__setattr__(self, "generators", gens)
        object.__setattr__(
            self, "_char_of", {g: chr(_CHAR_BASE + i) for i, g in enumerate(gens)}
        )
        object.__setattr__(self, "_base", _CHAR_BASE)
        # order-reversing relabeling: descending lex = ascending lex of the
        # translated word, used as a cheap max-heap key by the rewriter
        object.__setattr__(
            self,
            "_desc",
            str.maketrans(
                {_CHAR_BASE + i: chr(_CHAR_BASE + len(gens) - 1 - i) for i in range(len(gens))}
            ),
        )

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("Alphabet is immutable")

    def __len__(self) -> int:
        return len(self.generators)

    def __contains__(self, g: Generator) -> bool:
        return g in self._char_of

    def __eq__(self, other) -> bool:
        return isinstance(other, Alphabet) and self.generators == other.generators

    def __hash__(self) -> int:
        return hash(self.generators)

    def char(self, g: Generator) -> str:
        try:
            return self._char_of[g]
        except KeyError:
            raise KeyError(f"generator {g.token()} not in alphabet") from None

    def gen(self, ch: str) -> Generator:
        i = ord(ch) - self._base
        if not 0 <= i < len(self.generators):
            raise KeyError(f"character {ch!r} not in alphabet")
        return self.generators[i]

    def word(self, gens: Iterable[Generator]) -> str:
        return "".join(self.char(g) for g in gens)

    def letters(self, word: str) -> tuple[Generator, ...]:
        return tuple(self.gen(c) for c in word)

    def word_token(self, word: str) -> str:
        """Canonical display of a word; the empty word prints as ``1``."""
        if not word:
            return "1"
        return "*".join(self.gen(c).token() for c in word)

    def desc_key(self, word: str) -> str:
        """Order-reversing relabeling of a word (see __init__)."""
        return word.translate(self._desc)


def deglex_key(word: str) -> tuple[int, str]:
    return (len(word), word)


def deglex_compare(a: str, b: str) -> int:
    """-1, 0, or 1 as word ``a`` is below, equal to, or above ``b``."""
    ka, kb = deglex_key(a), deglex_key(b)
    return -1 if ka < kb else (0 if ka == kb else 1)


class NcPoly:
    """Finitely supported map word -> scalar over a fixed alphabet."""

    __slots__ = ("alphabet", "terms")

    def __init__(self, alphabet: Alphabet, terms: Mapping[str, Scalar] | None = None):
        self.alphabet = alphabet
        clean: dict[str, Scalar] = {}
        if terms:
            for w, c in terms.items():
                c = rat(c)
                if c:
                    clean[w] = clean.get(w, ZERO) + c
                    if not clean[w]:
                        del clean[w]
        self.terms = clean

    # -- constructors ------------------------------------------------------
    @classmethod
    def zero(cls, alphabet: Alphabet) -> "NcPoly":
        return cls(alphabet)

    @classmethod
    def unit(cls, alphabet: Alphabet, c=ONE) -> "NcPoly":
        return cls(alphabet, {"": rat(c)})

    @classmethod
    def from_word(cls, alphabet: Alphabet, word: str, c=ONE) -> "NcPoly":
        return cls(alphabet, {word: rat(c)})

    @classmethod
    def from_gens(cls, alphabet: Alphabet, gens: Iterable[Generator], c=ONE) -> "NcPoly":
        return cls(alphabet, {alphabet.word(gens): rat(c)})

    # -- structure ---------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Max word length; the zero polynomial reports -1."""
        if not self.terms:
            return -1
        return max(len(w) for w in self.terms)

    def leading_word(self) -> str:
        if not self.terms:
            raise ValueError("zero polynomial has no leading word")
        return max(self.terms, key=deglex_key)

    def leading_coeff(self) -> Scalar:
        return self.terms[self.leading_word()]

    def monic(self) -> "NcPoly":
        if not self.terms:
            return self
        c = self.leading_coeff()
        if c == 1:
            return self
        return NcPoly(self.alphabet, {w: x / c for w, x in self.terms.items()})

    def constant(self) -> Scalar:
        return self.terms.get("", ZERO)

    def sorted_terms(self) -> list[tuple[str, Scalar]]:
        """Terms in descending deglex order (leading term first)."""
        return sorted(self.terms.items(), key=lambda t: deglex_key(t[0]), reverse=True)

    # -- arithmetic --------------------------------------------------------
    def _check(self, other: "NcPoly") -> None:
        if self.alphabet != other.alphabet:
            raise ValueError("mixed alphabets")

    def __add__(self, other: "NcPoly") -> "NcPoly":
        self._check(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            n = out.get(w, ZERO) + c
            if n:
                out[w] = n
            else:
                out.pop(w, None)
        p = NcPoly.__new__(NcPoly)
        p.alphabet = self.alphabet
        p.terms = out
        return p

    def __sub__(self, other: "NcPoly") -> "NcPoly":
        return self + (-other)

    def __neg__(self) -> "NcPoly":
        p = NcPoly.__new__(NcPoly)
        p.alphabet = self.alphabet
        p.terms = {w: -c for w, c in self.terms.items()}
        return p

    def __mul__(self, other):
        if isinstance(other, NcPoly):
            self._check(other)
            out: dict[str, Scalar] = {}
            for w1, c1 in self.terms.items():
                for w2, c2 in other.terms.items():
                    w = w1 + w2
                    n = out.get(w, ZERO) + c1 * c2
                    if n:
                        out[w] = n
                    else:
                        del out[w]
            p = NcPoly.__new__(NcPoly)
            p.alphabet = self.alphabet
            p.terms = out
            return p
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "NcPoly":
        c = rat(c)
        if not c:
            return NcPoly.zero(self.alphabet)
        p = NcPoly.__new__(NcPoly)
        p.alphabet = self.alphabet
        p.terms = {w: c * x for w, x in self.terms.items()}
        return p

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, NcPoly)
            and self.alphabet == other.alphabet
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.alphabet, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        return f"NcPoly({self.to_str()})"

    # -- text --------------------------------------------------------------
    def to_str(self) -> str:
        return poly_to_str(self)

    @classmethod
    def parse(cls, alphabet: Alphabet, text: str) -> "NcPoly":
        return parse_poly(alphabet, text)


def poly_to_str(p: NcPoly) -> str:
    """Canonical rendering: deglex-descending terms, ``1`` for the empty word,
    unit coefficients suppressed, e.g. ``u[1,1]*s[1,1] + u[1,2]*s[2,1] - 1``."""
    if p.is_zero():
        return "0"
    chunks: list[str] = []
    for i, (w, c) in enumerate(p.sorted_terms()):
        neg = c < 0
        mag = -c if neg else c
        if not w:
            body = format_rational(mag)
        elif mag == 1:
            body = p.alphabet.word_token(w)
        else:
            body = f"{format_rational(mag)}*{p.alphabet.word_token(w)}"
        if i == 0:
            chunks.append(("-" if neg else "") + body)
        else:
            chunks.append(("- " if neg else "+ ") + body)
    return " ".join(chunks)


_POLY_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"(?:\[(?P<row>\d+),(?P<col>\d+)\])?|(?P<op>[+\-*]))"
)


def _tokenize_poly(text: str) -> list:
    toks = []
    pos = 0
    while pos < len(text):
        m = _POLY_TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            rest = text[pos:].strip()
            if not rest:
                break
            raise ValueError(f"cannot read polynomial at: {rest[:20]!r}")
        pos = m.end()
        if m.group("num"):
            toks.append(("num", m.group("num")))
        elif m.group("name"):
            name = m.group("name")
            if m.group("row"):
                if name not in MATRIC_FAMILIES:
                    raise ValueError(f"unknown matric family {name!r}")
                toks.append(("gen", Generator(name, int(m.group("row")), int(m.group("col")))))
            else:
                toks.append(("gen", Generator.free(name)))
        else:
            toks.append(("op", m.group("op")))
    return toks


def parse_poly(alphabet: Alphabet, text: str) -> NcPoly:
    """Parse the canonical polynomial syntax over a known alphabet.

    Grammar: terms joined by + or -, each term an optional rational
    coefficient and a ``*``-joined word of generator tokens; a bare rational
    is a constant term and ``1`` doubles as the empty word.
    """
    toks = _tokenize_poly(text)
    if not toks:
        raise ValueError("empty polynomial")
    terms: dict[str, Scalar] = {}
    i = 0
    n = len(toks)
    while i < n:
        sign = ONE
        while i < n and toks[i][0] == "op" and toks[i][1] in "+-":
            if toks[i][1] == "-":
                sign = -sign
            i += 1
        if i >= n:
            raise ValueError("dangling sign in polynomial")
        if toks[i][0] == "op":
            raise ValueError("misplaced '*' in polynomial")
        coeff = sign
        word_gens: list[Generator] = []
        if toks[i][0] == "num":
            coeff = sign * parse_rational(toks[i][1])
            i += 1
            if i < n and toks[i] == ("op", "*"):
                i += 1
                if i >= n or toks[i][0] != "gen":
                    raise ValueError("expected generator after coefficient")
        while i < n and toks[i][0] == "gen":
            g = toks[i][1]
            if g not in alphabet:
                raise ValueError(f"generator {g.token()} not in alphabet")
            word_gens.append(g)
            i += 1
            if i < n and toks[i] == ("op", "*"):
                nxt = toks[i + 1] if i + 1 < n else None
                if nxt is not None and nxt[0] == "gen":
                    i += 1
                    continue
                raise ValueError("misplaced '*' in polynomial")
            break
        # allow products written with explicit '*': the loop above consumed
        # one generator per '*'-step; keep consuming while '*' gen follows
        word = alphabet.word(word_gens)
        terms[word] = terms.get(word, ZERO) + coeff
        if i < n and toks[i][0] != "op":
            raise ValueError("missing operator between terms")
    return NcPoly(alphabet, terms)


class PolyMatrix:
    """A square matrix of :class:`NcPoly` entries over one alphabet.

    Entries are addressed 1-based, like the matric generators.  In ``A @ B``
    each entry product writes the word of the ``A`` entry before the word of
    the ``B`` entry, so (A @ B)[i,j] = sum_k A[i,k] B[k,j] with words read
    left to right; ``.T`` transposes without touching any word.
    """

    __slots__ = ("alphabet", "rows")

    def __init__(self, alphabet: Alphabet, rows: Iterable[Iterable[NcPoly]]) -> None:
        self.alphabet = alphabet
        self.rows = tuple(tuple(r) for r in rows)

    @classmethod
    def of(
        cls, alphabet: Alphabet, images: Mapping[Generator, NcPoly], family: str, n: int
    ) -> "PolyMatrix":
        """The matrix whose (r, c) entry is the image of ``family[r,c]``."""
        rng = range(1, n + 1)
        return cls(alphabet, ([images[Generator(family, r, c)] for c in rng] for r in rng))

    @classmethod
    def family(cls, alphabet: Alphabet, family: str, n: int) -> "PolyMatrix":
        """The generator matrix of one matric family."""
        gens = matric_family(family, n)
        return cls.of(alphabet, {g: NcPoly.from_gens(alphabet, [g]) for g in gens}, family, n)

    @classmethod
    def scalar(cls, alphabet: Alphabet, m: Matrix) -> "PolyMatrix":
        """A matrix of scalars as constant polynomials."""
        return cls(
            alphabet,
            ([NcPoly.unit(alphabet, m.entry(i, j)) for j in range(m.cols)] for i in range(m.rows)),
        )

    @classmethod
    def identity(cls, alphabet: Alphabet, n: int) -> "PolyMatrix":
        return cls.scalar(alphabet, Matrix.identity(n))

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        rng = range(len(self.rows))
        zero = NcPoly.zero(self.alphabet)
        return PolyMatrix(
            self.alphabet,
            (
                [sum((row[k] * other.rows[k][j] for k in rng), zero) for j in rng]
                for row in self.rows
            ),
        )

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        return PolyMatrix(
            self.alphabet, (map(NcPoly.__add__, a, b) for a, b in zip(self.rows, other.rows))
        )

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        return PolyMatrix(
            self.alphabet, (map(NcPoly.__sub__, a, b) for a, b in zip(self.rows, other.rows))
        )

    @property
    def T(self) -> "PolyMatrix":
        return PolyMatrix(self.alphabet, zip(*self.rows))

    def entries(self) -> Iterable[tuple[tuple[int, int], NcPoly]]:
        """((row, col), entry) pairs, 1-based, in row-major order."""
        for r, row in enumerate(self.rows, start=1):
            for c, p in enumerate(row, start=1):
                yield (r, c), p

    def images(self, family: str) -> dict[Generator, NcPoly]:
        """Read the matrix off as images of the generators ``family[r,c]``."""
        return {Generator(family, r, c): p for (r, c), p in self.entries()}


class TensorSquare:
    """Element of the tensor square of the free algebra: finitely supported
    map (word, word) -> scalar.  Multiplication is componentwise
    concatenation, extended bilinearly."""

    __slots__ = ("alphabet", "terms")

    def __init__(self, alphabet: Alphabet, terms=None) -> None:
        self.alphabet = alphabet
        clean: dict[tuple[str, str], Scalar] = {}
        if terms:
            for k, c in terms.items():
                c = rat(c)
                if c:
                    clean[k] = clean.get(k, ZERO) + c
                    if not clean[k]:
                        del clean[k]
        self.terms = clean

    @classmethod
    def unit(cls, alphabet: Alphabet, c=ONE) -> "TensorSquare":
        return cls(alphabet, {("", ""): rat(c)})

    @classmethod
    def of(cls, left: NcPoly, right: NcPoly) -> "TensorSquare":
        if left.alphabet != right.alphabet:
            raise ValueError("mixed alphabets")
        out: dict[tuple[str, str], Scalar] = {}
        for w1, c1 in left.terms.items():
            for w2, c2 in right.terms.items():
                out[(w1, w2)] = out.get((w1, w2), ZERO) + c1 * c2
        return cls(left.alphabet, out)

    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other: "TensorSquare") -> None:
        if self.alphabet != other.alphabet:
            raise ValueError("mixed alphabets")

    def __add__(self, other: "TensorSquare") -> "TensorSquare":
        self._check(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            n = out.get(k, ZERO) + c
            if n:
                out[k] = n
            else:
                out.pop(k, None)
        t = TensorSquare.__new__(TensorSquare)
        t.alphabet = self.alphabet
        t.terms = out
        return t

    def __neg__(self) -> "TensorSquare":
        t = TensorSquare.__new__(TensorSquare)
        t.alphabet = self.alphabet
        t.terms = {k: -c for k, c in self.terms.items()}
        return t

    def __sub__(self, other: "TensorSquare") -> "TensorSquare":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, TensorSquare):
            self._check(other)
            out: dict[tuple[str, str], Scalar] = {}
            for (a1, b1), c1 in self.terms.items():
                for (a2, b2), c2 in other.terms.items():
                    k = (a1 + a2, b1 + b2)
                    n = out.get(k, ZERO) + c1 * c2
                    if n:
                        out[k] = n
                    else:
                        del out[k]
            t = TensorSquare.__new__(TensorSquare)
            t.alphabet = self.alphabet
            t.terms = out
            return t
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "TensorSquare":
        c = rat(c)
        t = TensorSquare.__new__(TensorSquare)
        t.alphabet = self.alphabet
        t.terms = {} if not c else {k: c * x for k, x in self.terms.items()}
        return t

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TensorSquare)
            and self.alphabet == other.alphabet
            and self.terms == other.terms
        )

    def sorted_terms(self) -> list[tuple[tuple[str, str], Scalar]]:
        return sorted(
            self.terms.items(),
            key=lambda t: (deglex_key(t[0][0]), deglex_key(t[0][1])),
            reverse=True,
        )

    def to_str(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for i, ((w1, w2), c) in enumerate(self.sorted_terms()):
            neg = c < 0
            mag = -c if neg else c
            body = f"{self.alphabet.word_token(w1)}#{self.alphabet.word_token(w2)}"
            if mag != 1:
                body = f"{format_rational(mag)}*{body}"
            if i == 0:
                chunks.append(("-" if neg else "") + body)
            else:
                chunks.append(("- " if neg else "+ ") + body)
        return " ".join(chunks)

    def __repr__(self) -> str:
        return f"TensorSquare({self.to_str()})"


def substitute(
    p: NcPoly,
    images: Mapping[Generator, NcPoly],
    *,
    antihom: bool = False,
    target: Alphabet | None = None,
) -> NcPoly:
    """Extend a generator assignment to ``p`` as an algebra map.

    With ``antihom=True`` the extension reverses words (an algebra
    antihomomorphism), which is how antipode images act on products.
    """
    if target is None:
        try:
            target = next(iter(images.values())).alphabet
        except StopIteration:
            raise ValueError("substitute needs images or an explicit target alphabet")
    for img in images.values():
        if img.alphabet != target:
            raise ValueError("images drawn from mixed alphabets")
    out = NcPoly.zero(target)
    for word, c in sorted(p.terms.items(), key=lambda t: deglex_key(t[0])):
        gens = p.alphabet.letters(word)
        if antihom:
            gens = tuple(reversed(gens))
        acc = NcPoly.unit(target, c)
        for g in gens:
            try:
                acc = acc * images[g]
            except KeyError:
                raise MissingImageError(g) from None
            if acc.is_zero():
                break
        out = out + acc
    return out


def coproduct_image(
    p: NcPoly,
    images: Mapping[Generator, TensorSquare],
    *,
    target: Alphabet | None = None,
) -> TensorSquare:
    """Extend generator coproducts multiplicatively to ``p``."""
    if target is None:
        try:
            target = next(iter(images.values())).alphabet
        except StopIteration:
            raise ValueError("coproduct_image needs images or a target alphabet")
    out = TensorSquare(target)
    for word, c in sorted(p.terms.items(), key=lambda t: deglex_key(t[0])):
        acc = TensorSquare.unit(target, c)
        for g in p.alphabet.letters(word):
            try:
                acc = acc * images[g]
            except KeyError:
                raise MissingImageError(g) from None
            if acc.is_zero():
                break
        out = out + acc
    return out
