"""Free-algebra elements over ranked, named generators.

Generators come in matric families ``u``, ``s``, ``a``, ``v`` (entries of an
n x n matrix of generators, 1-based indices) plus standalone free generators
known only by name.  The total order on generators is family rank first
(u < s < a < v < free), then row-major indices, then name; words compare in
deglex: length first, then letterwise by generator rank.

Internally a word is a Python string: an :class:`Alphabet` assigns one
character per generator, numbered downward from the last generator, so that
among words of one length plain string order is descending deglex.  Every
order on words is then the natural key ``(-len(w), w)``, which puts the
leading word first, and substring search is cheap inside the rewriting
engine.  The public surface speaks :class:`Generator` tuples; the alphabet
translates.

One linear-combination core, ``_LinearCombination``, does the arithmetic
and canonical text of :class:`NcPoly` (keys are words) and
:class:`TensorSquare` (keys are word pairs).  One multiplicative extension,
``_extend``, is behind :func:`substitute`, :func:`coproduct_image` and,
through scalar images, the counit check.

The text grammar, written by ``to_str`` and read by :func:`parse_poly` and
:func:`parse_tensor`::

    text      := "0" | [signs] term (signs term)*
    signs     := ("+" | "-")+            an odd number of "-" negates
    term      := monomial                 (polynomial)
               | monomial "#" monomial    (tensor square; the legs multiply)
    monomial  := coefficient | [coefficient ["*"]] token ("*" token)*
    coefficient := digits ["/" digits]
    token     := name | family "[" digits "," digits "]" | "1"

Spaces may stand between any two symbols and inside none.  The token ``1``
is the empty word, a unit coefficient is left out, and ``to_str`` writes one
spaced sign between terms, e.g. ``2*u[1,1]#u[1,2] - 1#s[2,1] + 2*1#u[1,1]``.
A token resolves through its alphabet's token table; another spelling of a
generator, such as ``u[01,1]``, is read by :func:`parse_generator_token`.

The writer spells every word of an element in one ``str.translate`` and
writes each coefficient from its ``numerator`` and ``denominator``, which an
engine ``int`` has too, so no ``Fraction`` is compared, negated or printed.
The canonical texts of a dump, the way ``to_str`` writes them, are read
all at once by ``_read_canonical_words`` and ``_read_canonical_terms``,
with no call per text or per term; they raise KeyError on a text that does
not read that way, and the caller reads the dump again line by line.  Every
other text is read by ``_read_terms``, token by token through
``_read_monomial``, in any spelling and to the same terms; it words each
refusal.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from itertools import accumulate, chain, islice, repeat
from typing import Callable, Iterable, Mapping, Sequence

from .exactnum import (
    ONE, Matrix, Scalar, ZERO, add_terms, fraction_terms, lean, parse_rational, rat, read_int,
)

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
        return Generator(m.group(1), *(read_int(i, "generator index") for i in m.group(2, 3)))
    if _NAME_RE.match(t) and t not in MATRIC_FAMILIES:
        return Generator.free(t)
    raise ValueError(f"not a generator token: {text!r}")


class Alphabet:
    """An ordered generator set with the word <-> string translation and
    the token <-> letter table that text is read and written through.

    Letters are numbered downward: of N generators in ``Generator.key``
    order, the i-th is the letter ``chr(_CHAR_BASE + N - 1 - i)``.  Among
    words of one length, ``w1 < w2`` as strings exactly when ``w1`` is above
    ``w2`` in deglex, so ``(-len(w), w)`` orders words leading word first
    with no translation: the rewriting engine keeps one heap of bare words
    per length and pops the longest length first.  ``rank_spelling`` undoes
    the numbering for the one place that wants deglex ascending as a
    string, the completion queue."""

    __slots__ = (
        "generators", "_keys", "_char_of", "_letter_of", "_spell", "_top", "_every_letter", "_rank"
    )

    def __init__(self, generators: Iterable[Generator]) -> None:
        gens = tuple(sorted(set(generators), key=lambda g: g.key))
        top = _CHAR_BASE + len(gens) - 1  # the first generator's letter
        object.__setattr__(self, "generators", gens)
        # equality and hash read the generators' keys, plain tuples that
        # compare in C, and not the dataclass __eq__ field by field
        object.__setattr__(self, "_keys", tuple(g.key for g in gens))
        object.__setattr__(self, "_char_of", {g: chr(top - i) for i, g in enumerate(gens)})
        # the token <-> letter table: text is read through _letter_of and
        # written through its inverse, each letter spelled "token*"; the
        # token 1 reads as the empty word, the way the writer shows it
        letter_of = {g.token(): ch for g, ch in self._char_of.items()}
        object.__setattr__(
            self, "_spell", str.maketrans({ch: tok + "*" for tok, ch in letter_of.items()})
        )
        letter_of["1"] = ""
        object.__setattr__(self, "_letter_of", letter_of)
        object.__setattr__(self, "_top", top)
        object.__setattr__(self, "_every_letter", "".join(self._char_of.values()))
        object.__setattr__(
            self, "_rank", str.maketrans({top - i: chr(_CHAR_BASE + i) for i in range(len(gens))})
        )

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("Alphabet is immutable")

    def __len__(self) -> int:
        return len(self.generators)

    def __contains__(self, g: Generator) -> bool:
        return g in self._char_of

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, Alphabet) and self._keys == other._keys)

    def __hash__(self) -> int:
        return hash(self._keys)

    def char(self, g: Generator) -> str:
        try:
            return self._char_of[g]
        except KeyError:
            raise KeyError(f"generator {g.token()} not in alphabet") from None

    def gen(self, ch: str) -> Generator:
        i = self._top - ord(ch)
        if not 0 <= i < len(self.generators):
            raise KeyError(f"character {ch!r} not in alphabet")
        return self.generators[i]

    def word(self, gens: Iterable[Generator]) -> str:
        return "".join(self.char(g) for g in gens)

    def letters(self, word: str) -> tuple[Generator, ...]:
        return tuple(self.gen(c) for c in word)

    def spells(self, word: str) -> bool:
        """Whether every letter of ``word`` is one of this alphabet's."""
        return not word.strip(self._every_letter)

    def word_token(self, word: str) -> str:
        """Canonical display of a word; the empty word prints as ``1``."""
        return self.spell([word])[0] or "1"

    def spell(self, words: list[str]) -> list[str]:
        """The display of each word, all translated in one pass; the empty
        word is spelled ``""`` here, and ``word_token`` shows it as ``1``."""
        text = "\n".join(words).translate(self._spell) + "\n"
        return text.replace("*\n", "\n").split("\n")[:-1]

    def _letter(self, token: str) -> str:
        """The letter of one stripped generator token."""
        ch = self._letter_of.get(token)
        if ch is None:
            g = parse_generator_token(token)
            ch = self._char_of.get(g)
            if ch is None:
                raise ValueError(f"generator {g.token()} not in alphabet")
        return ch

    def rank_spelling(self, word: str) -> str:
        """The word with the i-th generator spelled ``chr(_CHAR_BASE + i)``:
        among words of one length its string order is ascending deglex."""
        return word.translate(self._rank)


def natural_key(word: str) -> tuple[int, str]:
    """The sort key of a word in descending deglex, leading word first: the
    alphabet numbers its letters downward (see :class:`Alphabet`)."""
    return (-len(word), word)


_SIGNS = re.compile(r"([+-][\s+-]*)")
_COEFFICIENT = re.compile(r"\d+(?:/\d+)?")
# canonical texts read together, one text a line: each monomial is a field
# that a tab opens and the next field's ``*`` ends, and each field starts
# with its sign and magnitude (a constant is all sign and magnitude, and its
# word the token 1).  Every pattern starts with the tab, which the regex
# engine searches for directly
_OPENINGS = re.compile(r"\t(-?(?:[0-9]+(?:/[0-9]+)?)?)")
_CONSTANTS = re.compile(r"\t-?[0-9]+(?:/[0-9]+)?(?=\*[\t\n]|\Z)")
_SIGNS_AND_FACTORS = re.compile(r"\t(?:-?[0-9]+(?:/[0-9]+)?\*(?![\t\n])|-)")


def _read_monomial(alphabet: Alphabet, text: str) -> tuple[str, int | Scalar]:
    """The word and coefficient of one ``monomial`` of the text grammar in
    any spelling; an integral coefficient is an int.  Tokens spelled the
    canonical way are one lookup each in the alphabet's token table; any
    other spelling goes through ``Alphabet._letter``.  It reads a rule's
    lead and each term of ``_read_terms``."""
    tokens = text.strip().split("*")
    head = tokens[0]
    coeff: int | Scalar = 1
    m = _COEFFICIENT.match(head)
    if m:
        coeff = lean(parse_rational(m[0])) if "/" in m[0] else read_int(m[0], "coefficient")
        # a token may follow without "*"; a coefficient alone is c*1
        tokens[0] = head[m.end() :].lstrip() or "1"
    try:
        return "".join(map(alphabet._letter_of.__getitem__, tokens)), coeff
    except KeyError:
        letter = alphabet._letter
        return "".join([letter(t.strip()) for t in tokens]), coeff


def _read_terms(alphabet: Alphabet, text: str, legs: int = 1) -> dict:
    """The terms of a text of the grammar in any spelling, as a dict key ->
    nonzero coefficient, an integral coefficient as an int; a key is a
    word, or a pair of words with ``legs`` 2.  Each term is read by
    ``_read_monomial``, which words each refusal."""
    if text.strip() == "0":
        return {}  # the zero of either kind: no tensor term spells it
    # [term, signs, term, signs, ...]; the first term is blank when the
    # text opens with a sign
    parts = _SIGNS.split(text)
    if parts[0].strip():
        parts.insert(0, "+")
    elif len(parts) > 1:
        del parts[0]
    else:
        raise ValueError("empty text")
    if not parts[-1].strip():
        raise ValueError("dangling sign at the end")
    keys, coeffs = [], []
    for signs, body in zip(parts[::2], parts[1::2]):
        if legs == 1:
            key, c = _read_monomial(alphabet, body)
        else:
            split = body.split("#")
            if len(split) != 2:
                raise ValueError(f"tensor term needs exactly one #: {body.strip()!r}")
            (w1, c1), (w2, c2) = (_read_monomial(alphabet, leg) for leg in split)
            key, c = (w1, w2), c1 * c2
        keys.append(key)
        coeffs.append(-c if signs.count("-") % 2 else c)
    return _summed(keys, coeffs)


def _summed(keys: list, coeffs: list) -> dict:
    """key -> the sum of its coefficients, with no key whose sum is 0."""
    terms: dict = {}
    for key, c in zip(keys, coeffs):
        terms[key] = terms[key] + c if key in terms else c  # add only to a repeat
    return {k: c for k, c in terms.items() if c}


class _Openings(dict):
    """The opening of a canonical monomial, its sign and magnitude in one
    string -> its coefficient, each distinct one read once; a zero
    denominator is not canonical.  One string, not a (sign, magnitude)
    tuple: a batch then makes no container per term for the collector."""

    def __missing__(self, opening: str) -> int | Scalar:
        negative = opening[:1] == "-"
        magnitude = opening[negative:]
        c: int | Scalar = 1
        if "/" in magnitude:
            num, _, den = magnitude.partition("/")
            if not int(den):
                raise KeyError(magnitude)
            c = lean(Scalar(int(num), int(den)))
        elif magnitude:
            c = int(magnitude)
        self[opening] = c = -c if negative else c
        return c


def _canonical_fields(texts: Sequence[str]) -> str:
    """The texts as one string, each on its own line and opened by a tab,
    and a ``*`` before each line break; KeyError when a text holds a line
    break or a tab."""
    lines = "*\n\t".join(texts)
    if lines.count("\n") != len(texts) - 1 or lines.count("\t") != len(texts) - 1:
        raise KeyError("a text of more than one line")
    return "\t" + lines


# characters of ``fields`` that ``_letters`` splits into tokens at once
_LETTERS_CHUNK = 1 << 15


def _letters(alphabet: Alphabet, fields: str) -> str:
    """``fields`` with each token spelled by its letter, one ``map`` over
    the ``*``-separated tokens of each chunk of about ``_LETTERS_CHUNK``
    characters, cut at a ``*``, so the tokens of a long text are never all
    held at once; the tab or the line break and tab that open a token stay
    in front of its letter, and any other text is a KeyError."""
    table = {
        opening + token: opening + letter
        for token, letter in alphabet._letter_of.items()
        for opening in ("", "\t", "\n\t")
    }
    spell = table.__getitem__
    chunks = []
    start = 0
    while start <= len(fields):
        end = fields.find("*", start + _LETTERS_CHUNK)
        if end < 0:
            end = len(fields)
        chunks.append("".join(map(spell, fields[start:end].split("*"))))
        start = end + 1
    return "".join(chunks)


def _read_canonical_words(alphabet: Alphabet, texts: Sequence[str]) -> list[str]:
    """The word of each text, all read together when each is canonical
    tokens joined by ``*``; KeyError when a text reads any other way."""
    return _letters(alphabet, _canonical_fields(texts))[1:].split("\n\t")


def _read_canonical_terms(alphabet: Alphabet, texts: Sequence[str]) -> list[dict]:
    """``_read_terms`` of each text, all read together when each is
    canonical, the way ``to_str`` writes a polynomial; KeyError when one is
    not, and the caller reads them one by one.

    No call is made per term: the texts become one string, a line each and
    a field opened by a tab for each monomial, its sign moved in front of
    it.  One regex reads every field's sign and magnitude, two more strip
    them, and ``_letters`` spells every word.  A text's dict is then the zip
    of its words and coefficients, summed only where a word repeats or a
    coefficient is 0."""
    fields = _canonical_fields(texts).replace(" - ", "*\t-").replace(" + ", "*\t")
    openings = _Openings()
    coeffs = list(map(openings.__getitem__, _OPENINGS.findall(fields)))
    letters = _letters(alphabet, _SIGNS_AND_FACTORS.sub("\t", _CONSTANTS.sub("\t1", fields)))[1:]
    words = letters.replace("\n\t", "\t").split("\t")
    lengths = [n + 1 for n in map(str.count, letters.split("\n\t"), repeat("\t"))]
    pairs = zip(words, coeffs)
    out = [dict(islice(pairs, n)) for n in lengths]
    if 0 in openings.values() or sum(map(len, out)) < len(coeffs):
        starts = list(accumulate(lengths, initial=0))
        out = [_summed(words[i:j], coeffs[i:j]) for i, j in zip(starts, starts[1:])]
    return out


class _LinearCombination:
    """Finitely supported map key -> nonzero scalar over a fixed alphabet.  A
    subclass supplies ``_UNIT`` (the unit's key), ``_concat`` (the product
    of two keys), ``_leading_first`` (sorts keys, leading key first),
    ``_tokens`` (the text of each key) and ``_LEGS`` (the number of words
    in a key's text, 2 for a word pair)."""

    __slots__ = ("alphabet", "terms")

    def __init__(self, alphabet: Alphabet, terms: Mapping | None = None):
        self.alphabet = alphabet
        self.terms = {k: c for k, v in (terms or {}).items() if (c := rat(v))}

    @classmethod
    def _adopt(cls, alphabet: Alphabet, terms: dict):
        """Wrap ``terms`` without copying or cleaning: the caller hands over
        a dict with no zero coefficient and never mutates it again."""
        x = cls.__new__(cls)
        x.alphabet = alphabet
        x.terms = terms
        return x

    @classmethod
    def zero(cls, alphabet: Alphabet):
        return cls._adopt(alphabet, {})

    @classmethod
    def unit(cls, alphabet: Alphabet, c=ONE):
        return cls(alphabet, {cls._UNIT: rat(c)})

    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other) -> None:
        if self.alphabet != other.alphabet:
            raise ValueError("mixed alphabets")

    def __add__(self, other):
        self._check(other)
        return self._adopt(self.alphabet, add_terms(dict(self.terms), other.terms.items()))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._adopt(self.alphabet, {k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, type(self)):
            return self.scale(other)
        self._check(other)
        concat = self._concat
        products = (
            (concat(k1, k2), c1 * c2)
            for k1, c1 in self.terms.items()
            for k2, c2 in other.terms.items()
        )
        return self._adopt(self.alphabet, add_terms({}, products))

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        c = rat(c)
        if not c:
            return self.zero(self.alphabet)
        return self._adopt(self.alphabet, {k: c * x for k, x in self.terms.items()})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, type(self))
            and self.alphabet == other.alphabet
            and self.terms == other.terms
        )

    def to_str(self) -> str:
        """Canonical rendering: terms in descending order, each a spaced
        sign and the term of its magnitude; a leading ``+`` is dropped.  A
        magnitude is written from the coefficient's numerator and
        denominator, which an engine int has too, and left out before a
        word when it is 1."""
        if not self.terms:
            return "0"
        keys = self._leading_first(self.terms)
        out = []
        for token, c in zip(self._tokens(keys), map(self.terms.__getitem__, keys)):
            n, d = c.numerator, c.denominator
            if n < 0:
                out.append(" - ")
                n = -n
            else:
                out.append(" + ")
            mag = str(n) if d == 1 else f"{n}/{d}"
            out.append(f"{mag}*{token}" if token and mag != "1" else token or mag)
        text = "".join(out)
        return text[3:] if text[1] == "+" else "-" + text[3:]

    @classmethod
    def _parse(cls, alphabet: Alphabet, text: str):
        """Read the text grammar of the module docstring."""
        return cls._adopt(alphabet, fraction_terms(_read_terms(alphabet, text, cls._LEGS)))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.to_str()})"


class NcPoly(_LinearCombination):
    """Finitely supported map word -> scalar over a fixed alphabet."""

    __slots__ = ()

    _UNIT = ""
    _LEGS = 1
    _concat = staticmethod(operator.add)

    @staticmethod
    def _leading_first(words) -> list[str]:
        # string order, then longest first: the stable sort keeps string
        # order, descending deglex, among words of one length
        out = sorted(words)
        out.sort(key=len, reverse=True)
        return out

    def _tokens(self, words: list[str]) -> list[str]:
        return self.alphabet.spell(words)

    # -- constructors ------------------------------------------------------
    @classmethod
    def from_word(cls, alphabet: Alphabet, word: str, c=ONE) -> "NcPoly":
        return cls(alphabet, {word: rat(c)})

    @classmethod
    def from_gens(cls, alphabet: Alphabet, gens: Iterable[Generator], c=ONE) -> "NcPoly":
        return cls(alphabet, {alphabet.word(gens): rat(c)})

    # -- structure ---------------------------------------------------------
    def degree(self) -> int:
        """Max word length; the zero polynomial reports -1."""
        if not self.terms:
            return -1
        return max(len(w) for w in self.terms)

    def leading_word(self) -> str:
        if not self.terms:
            raise ValueError("zero polynomial has no leading word")
        return min(self.terms, key=natural_key)

    def leading_coeff(self) -> Scalar:
        return self.terms[self.leading_word()]

    def monic(self) -> "NcPoly":
        if not self.terms:
            return self
        c = self.leading_coeff()
        if c == 1:
            return self
        return NcPoly._adopt(self.alphabet, {w: x / c for w, x in self.terms.items()})

    def constant(self) -> Scalar:
        return self.terms.get("", ZERO)

    def __hash__(self) -> int:
        return hash((self.alphabet, frozenset(self.terms.items())))


def parse_poly(alphabet: Alphabet, text: str) -> NcPoly:
    """Read a polynomial in the text grammar of the module docstring."""
    return NcPoly._parse(alphabet, text)


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
        zero = NcPoly.zero(self.alphabet)
        # every factor is refused on mixed alphabets, as * and + refuse it
        for p in chain(*self.rows, *other.rows):
            zero._check(p)
        cols = [[q.terms.items() for q in col] for col in zip(*other.rows)]

        def entry(row: tuple[NcPoly, ...], col: list) -> NcPoly:
            # the products of every k added into one dict
            pairs = (
                (v + w, c * e) for p, q in zip(row, col) for v, c in p.terms.items() for w, e in q
            )
            return NcPoly._adopt(self.alphabet, add_terms({}, pairs))

        return PolyMatrix(self.alphabet, ([entry(row, col) for col in cols] for row in self.rows))

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


class TensorSquare(_LinearCombination):
    """Element of the tensor square of the free algebra: finitely supported
    map (word, word) -> scalar.  Multiplication is componentwise
    concatenation, extended bilinearly."""

    __slots__ = ()

    _UNIT = ("", "")
    _LEGS = 2
    _concat = staticmethod(lambda k1, k2: (k1[0] + k2[0], k1[1] + k2[1]))

    @staticmethod
    def _leading_first(keys) -> list[tuple[str, str]]:
        return sorted(keys, key=lambda k: (natural_key(k[0]), natural_key(k[1])))

    def _tokens(self, keys: list[tuple[str, str]]) -> list[str]:
        legs = self.alphabet.spell([w for k in keys for w in k])
        return [f"{a or 1}#{b or 1}" for a, b in zip(legs[::2], legs[1::2])]

    @classmethod
    def of(cls, left: NcPoly, right: NcPoly) -> "TensorSquare":
        left._check(right)
        terms = {(a, b): x * y for a, x in left.terms.items() for b, y in right.terms.items()}
        return cls._adopt(left.alphabet, terms)


def parse_tensor(alphabet: Alphabet, text: str) -> TensorSquare:
    """Read a tensor square in the text grammar of the module docstring."""
    return TensorSquare._parse(alphabet, text)


def write_dump(
    header: Iterable[str], generators: Iterable[Generator], facts: Iterable[str]
) -> str:
    """The line dump :func:`read_dump` reads: the header lines, the
    ``generators`` line, then the fact lines."""
    lines = [*header, "generators " + " ".join(g.token() for g in generators), *facts]
    return "\n".join(lines) + "\n"


def read_dump(
    text: str, fields: Mapping[str, Callable], facts: Mapping[str, Callable]
) -> tuple[dict[str, object], list[Generator], Alphabet]:
    """Read a line dump, each fact stated once: each header field of
    ``fields`` stands once and is read by its reader, one ``generators``
    line names each generator once before any fact, and each fact line goes
    with the alphabet to the reader in ``facts`` for its head.  Blank lines
    are skipped and an error on a line names it.  Returns the header values,
    the generators in line order and their alphabet."""
    values: dict[str, object] = {}
    generators: list[Generator] = []
    alphabet: Alphabet | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        head, _, rest = raw.strip().partition(" ")
        if not head:
            continue
        try:
            if head in fields:
                if head in values:
                    raise ValueError(f"second {head} line")
                values[head] = fields[head](rest)
            elif head == "generators":
                if alphabet is not None:
                    raise ValueError("second generators line")
                generators = [parse_generator_token(t) for t in rest.split()]
                alphabet = Alphabet(generators)
                if len(alphabet) < len(generators):
                    twice = next(g for i, g in enumerate(generators) if g in generators[:i])
                    raise ValueError(f"generators line names {twice.token()} twice")
            elif head in facts:
                if alphabet is None:
                    raise ValueError("generators line must precede every fact")
                facts[head](alphabet, rest)
            else:
                raise ValueError(f"unknown line type {head!r}")
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    if len(values) < len(fields) or alphabet is None:
        raise ValueError(f"dump needs {', '.join(fields)} and generators lines")
    return values, generators, alphabet


def _extend(p: NcPoly, images: Mapping, kind, target, antihom: bool, caller: str):
    """Apply to ``p`` the algebra map into ``kind`` over ``target`` that sends
    each generator to its image; with ``antihom`` words read right to left.
    Fraction values give Fraction values and int values (engine terms,
    wrapped) give ints, as ``add_terms`` sums from the int 0."""
    if target is None:
        if not images:
            raise ValueError(f"{caller} needs images or an explicit target alphabet")
        target = next(iter(images.values())).alphabet
    for img in images.values():
        if img.alphabet is not target and img.alphabet != target:
            raise ValueError("images drawn from mixed alphabets")
    concat = kind._concat
    out: dict = {}
    # ascending deglex
    for word, c in sorted(p.terms.items(), key=lambda t: natural_key(t[0]), reverse=True):
        acc = {kind._UNIT: c}
        for g in p.alphabet.letters(word[::-1] if antihom else word):
            try:
                image = images[g].terms
            except KeyError:
                raise MissingImageError(g) from None
            products = (
                (concat(k1, k2), c1 * c2) for k1, c1 in acc.items() for k2, c2 in image.items()
            )
            acc = add_terms({}, products)
            if not acc:
                break
        add_terms(out, acc.items())
    return kind._adopt(target, out)


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
    return _extend(p, images, NcPoly, target, antihom, "substitute")


def coproduct_image(
    p: NcPoly,
    images: Mapping[Generator, TensorSquare],
    *,
    target: Alphabet | None = None,
) -> TensorSquare:
    """Extend generator coproducts multiplicatively to ``p``."""
    return _extend(p, images, TensorSquare, target, False, "coproduct_image")
