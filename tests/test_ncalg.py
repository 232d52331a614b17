import random
import re

import pytest

from hopfw.exactnum import Matrix, format_rational, lean_terms, rat
from hopfw.ncalg import (
    Alphabet,
    Generator,
    MissingImageError,
    NcPoly,
    PolyMatrix,
    TensorSquare,
    coproduct_image,
    deglex_key,
    matric_family,
    parse_generator_token,
    parse_poly,
    parse_tensor,
    substitute,
)


def test_generator_ordering_and_tokens():
    u11 = Generator("u", 1, 1)
    u12 = Generator("u", 1, 2)
    s11 = Generator("s", 1, 1)
    x = Generator.free("x")
    assert u11 < u12 < s11 < x
    assert u12.token() == "u[1,2]"
    assert x.token() == "x"
    assert parse_generator_token("s[3,1]") == Generator("s", 3, 1)
    assert parse_generator_token("  y ") == Generator.free("y")


@pytest.mark.parametrize("bad", ["u[0,1]", "u[1]", "w[1,1]", "3x", ""])
def test_generator_token_rejects(bad):
    with pytest.raises(ValueError):
        parse_generator_token(bad)


def test_generator_validation():
    with pytest.raises(ValueError):
        Generator("q", 1, 1)
    with pytest.raises(ValueError):
        Generator("u", 0, 1)
    with pytest.raises(ValueError):
        Generator("free")


def test_matric_family_is_row_major():
    fam = matric_family("u", 2)
    assert [g.token() for g in fam] == ["u[1,1]", "u[1,2]", "u[2,1]", "u[2,2]"]


def test_alphabet_round_trip():
    gens = matric_family("u", 2) + [Generator.free("x")]
    a = Alphabet(gens)
    word = a.word([gens[3], gens[0], gens[4]])
    assert a.letters(word) == (gens[3], gens[0], gens[4])
    assert a.word_token(word) == "u[2,2]*u[1,1]*x"
    assert a.word_token("") == "1"
    with pytest.raises(KeyError):
        a.char(Generator("v", 1, 1))


def test_alphabet_sorts_and_dedupes():
    fam = matric_family("u", 2)
    a = Alphabet(reversed(fam + fam))
    assert a.generators == tuple(fam)
    assert a == Alphabet(fam)
    assert hash(a) == hash(Alphabet(fam))


def test_alphabet_is_immutable():
    a = Alphabet(matric_family("u", 2))
    with pytest.raises(AttributeError):
        a.generators = ()


def _deglex_by_keys(a: Alphabet, word: str) -> tuple:
    """Deglex by brute force: length, then the letters' ``Generator.key``."""
    return (len(word), [g.key for g in a.letters(word)])


def test_string_order_of_one_length_is_descending_deglex():
    a = Alphabet(matric_family("u", 2) + matric_family("s", 2) + [Generator.free("x")])
    rng = random.Random(11)
    chars = [a.char(g) for g in a.generators]
    for length in (1, 2, 4):
        words = ["".join(rng.choice(chars) for _ in range(length)) for _ in range(40)]
        for w1 in words:
            for w2 in words:
                assert (w1 < w2) == (_deglex_by_keys(a, w1) > _deglex_by_keys(a, w2))
    # leading_word and sorted_terms, over words of every length
    for _ in range(100):
        words = {"".join(rng.choice(chars) for _ in range(rng.randint(0, 4))) for _ in range(6)}
        p = NcPoly(a, {w: rng.choice((-2, 1, rat(1, 3))) for w in words})
        brute = sorted(words, key=lambda w: _deglex_by_keys(a, w), reverse=True)
        assert [w for w, _ in p.sorted_terms()] == brute
        assert p.leading_word() == brute[0]
        t = TensorSquare.of(p, p.scale(2))
        pairs = [(w1, w2) for w1 in brute for w2 in brute]
        assert [k for k, _ in t.sorted_terms()] == pairs


def test_deglex():
    a = Alphabet(matric_family("u", 2))
    g = [a.char(x) for x in a.generators]
    short = g[3]
    long = g[0] + g[0]
    assert deglex_key(short) < deglex_key(long)
    assert deglex_key(long) == deglex_key(g[0] + g[0])
    assert deglex_key(g[1]) > deglex_key(g[0])


def test_poly_arithmetic():
    a = Alphabet([Generator.free("x"), Generator.free("y")])
    x = NcPoly.parse(a, "x")
    y = NcPoly.parse(a, "y")
    square = (x + y) * (x + y)
    assert square == NcPoly.parse(a, "x*x + x*y + y*x + y*y")
    assert (x - x).is_zero()
    assert (2 * x).leading_coeff() == 2
    assert x.scale(0).is_zero()
    assert (x * y).degree() == 2
    assert NcPoly.zero(a).degree() == -1
    assert -(x - y) == y - x
    assert x.monic() == x
    assert (3 * x).monic() == x


def test_poly_constant_and_leading():
    a = Alphabet([Generator.free("x")])
    p = NcPoly.parse(a, "2*x*x - x + 1/2")
    assert p.constant() == rat(1, 2)
    assert p.leading_word() == a.word([Generator.free("x")] * 2)
    assert p.leading_coeff() == 2
    with pytest.raises(ValueError):
        NcPoly.zero(a).leading_word()


def test_poly_mixed_alphabets_rejected():
    a = Alphabet([Generator.free("x")])
    b = Alphabet([Generator.free("y")])
    with pytest.raises(ValueError):
        NcPoly.parse(a, "x") + NcPoly.parse(b, "y")


def test_poly_to_str_round_trip():
    a = Alphabet(matric_family("u", 2) + matric_family("s", 2))
    texts = [
        "u[1,2]*s[2,1] + u[1,1]*s[1,1] - 1",
        "-u[2,2] + 1/3",
        "2*u[1,1]*u[1,1] - 3/7*s[2,1]",
        "0",
        "1",
    ]
    for text in texts:
        p = parse_poly(a, text)
        assert p.to_str() == text
        assert parse_poly(a, p.to_str()) == p


def test_text_round_trips_on_seeded_values():
    # the writer shows a multiple of the empty word on a tensor leg as c*1
    rng = random.Random(2012)
    a = Alphabet(matric_family("u", 2) + [Generator.free("x")])
    letters = [a.char(g) for g in a.generators]

    def word():
        return "".join(rng.choice(letters) for _ in range(rng.randint(0, 3)))

    def coeff():
        return rat(rng.randint(-6, 6), rng.randint(1, 4))

    for _ in range(400):
        p = NcPoly(a, {word(): coeff() for _ in range(rng.randint(0, 5))})
        assert parse_poly(a, p.to_str()) == p
        t = TensorSquare(a, {(word(), word()): coeff() for _ in range(rng.randint(0, 5))})
        assert parse_tensor(a, t.to_str()) == t
    assert parse_tensor(a, "2*1#x - 1#1").to_str() == "2*1#x - 1#1"


def _fraction_text(x) -> str:
    """The text of a polynomial or tensor square the way the writer put it
    when it compared, negated and printed each coefficient as a Fraction:
    terms leading first, each a spaced sign and its magnitude, a unit
    magnitude left out before a word, a leading "+" dropped."""
    if not x.terms:
        return "0"
    a = x.alphabet
    word = lambda w: "*".join(g.token() for g in a.letters(w)) or "1"
    if isinstance(x, NcPoly):
        key = lambda t: deglex_key(t[0])
        show = lambda k: word(k) if k else ""
    else:
        key = lambda t: (deglex_key(t[0][0]), deglex_key(t[0][1]))
        show = lambda k: f"{word(k[0])}#{word(k[1])}"

    def term(k, mag):
        token = show(k)
        if not token:
            return format_rational(mag)
        return token if mag == 1 else f"{format_rational(mag)}*{token}"

    parts = []
    for k, c in sorted(x.terms.items(), key=key, reverse=True):
        parts.append("- " + term(k, -c) if c < 0 else "+ " + term(k, c))
    text = " ".join(parts)
    return text[2:] if text[0] == "+" else "-" + text[2:]


def test_writer_matches_the_fraction_writer_on_seeded_values():
    # polynomials and tensor squares over the u and s families and free
    # names, with signed, fractional and huge coefficients, the empty word
    # and c*1 tensor legs; an engine term dict (ints where integral) writes
    # the same bytes
    rng = random.Random(1210)
    a = Alphabet(matric_family("u", 2) + matric_family("s", 2) + [Generator.free("x1")])
    letters = [a.char(g) for g in a.generators]

    def word():
        return "".join(rng.choice(letters) for _ in range(rng.choice((0, 0, 1, 2, 3, 4))))

    def coeff():
        big = rng.choice((1, 1, 1, 2**64 + rng.randrange(2**70)))
        return rat(rng.randint(-7, 7) * big, rng.choice((1, 1, 2, 3, 12, 2**65 + 1)))

    for _ in range(500):
        p = NcPoly(a, {word(): coeff() for _ in range(rng.randint(0, 6))})
        text = p.to_str()
        assert text == _fraction_text(p)
        assert NcPoly._adopt(a, lean_terms(p.terms)).to_str() == text
        assert parse_poly(a, text) == p
        t = TensorSquare(a, {(word(), word()): coeff() for _ in range(rng.randint(0, 6))})
        text = t.to_str()
        assert text == _fraction_text(t)
        assert TensorSquare._adopt(a, lean_terms(t.terms)).to_str() == text
        assert parse_tensor(a, text) == t
    # each corner once, by name
    g = lambda *tokens: a.word([parse_generator_token(t) for t in tokens])
    corners = {
        "-x1*x1 + 1/2*u[1,1] - 1": {g("x1", "x1"): -1, g("u[1,1]"): rat(1, 2), "": -1},
        f"{2**64 + 1}*s[2,1] - {2**70}/3": {g("s[2,1]"): 2**64 + 1, "": rat(-(2**70), 3)},
    }
    for text, terms in corners.items():
        p = NcPoly(a, terms)
        assert p.to_str() == _fraction_text(p) == text
        assert parse_poly(a, text) == p
    t = TensorSquare(a, {("", g("x1")): rat(-3, 2), (g("u[1,1]"), ""): 1, ("", ""): 2**65})
    assert t.to_str() == _fraction_text(t) == "u[1,1]#1 - 3/2*1#x1 + 36893488147419103232*1#1"
    assert parse_tensor(a, t.to_str()) == t


def test_spaced_and_respelled_text_reads_as_the_canonical_text():
    # the reader looks each token of the canonical text up in one table;
    # spaces around "*" and other spellings of a generator take the slower
    # path, to the same terms
    rng = random.Random(2013)
    a = Alphabet(matric_family("u", 2) + [Generator.free("x")])
    letters = [a.char(g) for g in a.generators]
    star = lambda _: rng.choice(("*", " * ", "* ", " *", "*"))
    for _ in range(200):
        words = ["".join(rng.choice(letters) for _ in range(rng.randint(0, 3))) for _ in range(4)]
        p = NcPoly(a, {w: rat(rng.randint(-6, 6), rng.randint(1, 3)) for w in words})
        text = p.to_str()
        assert parse_poly(a, re.sub(r"\*", star, text)) == p
        assert parse_poly(a, text.replace("u[1,", "u[01,").replace(",2]", ",02]")) == p
    # a spaced token reads, and is refused, as the bare token is
    assert parse_poly(a, "x * 1 + 2 * 1") == parse_poly(a, "x + 2")
    with pytest.raises(ValueError, match=re.escape("not a generator token: '3y'")):
        parse_poly(a, "x * 3y ")


def test_parse_poly_merges_and_signs():
    a = Alphabet([Generator.free("x")])
    assert parse_poly(a, "x + x") == parse_poly(a, "2*x")
    assert parse_poly(a, "x - x") == NcPoly.zero(a)
    assert parse_poly(a, "- - x") == parse_poly(a, "x")
    assert parse_poly(a, "3 - 2") == NcPoly.unit(a)
    # a coefficient may stand next to its word, signs need no spaces, and a
    # generator may be spelled with leading zeros
    b = Alphabet([Generator.free("x"), Generator.free("y"), Generator("u", 1, 1)])
    assert parse_poly(b, "2x") == parse_poly(b, "2*x")
    assert parse_poly(b, "3/7 u[1,1]") == parse_poly(b, "3/7*u[1,1]")
    assert parse_poly(b, "x-y") == parse_poly(b, "x - y")
    assert parse_poly(b, "+ - x") == parse_poly(b, "-x")
    assert parse_poly(b, "u[01,1]") == parse_poly(b, "u[1,1]")


@pytest.mark.parametrize(
    "bad, message",
    [
        ("", "empty text"),
        ("x +", "dangling sign at the end"),
        ("* x", "not a generator token: ''"),
        ("x * * x", "not a generator token: ''"),
        ("x x x +", "dangling sign at the end"),
        ("u[1,1]", "generator u[1,1] not in alphabet"),  # not in this alphabet
        ("2 *", "not a generator token: ''"),
        ("x 3", "not a generator token: 'x 3'"),
        ("2*x#3*x", "not a generator token: 'x#3'"),  # a tensor term
    ],
)
def test_parse_poly_rejects(bad, message):
    a = Alphabet([Generator.free("x")])
    with pytest.raises(ValueError) as exc:
        parse_poly(a, bad)
    assert str(exc.value) == message


def test_substitute_is_a_homomorphism():
    src = Alphabet([Generator.free("x"), Generator.free("y")])
    tgt = Alphabet([Generator.free("p"), Generator.free("q")])
    images = {
        Generator.free("x"): NcPoly.parse(tgt, "p + q"),
        Generator.free("y"): NcPoly.parse(tgt, "p - 1"),
    }
    f = lambda p: substitute(p, images)
    rng = random.Random(5)
    chars = [src.char(g) for g in src.generators]
    for _ in range(20):
        w1 = "".join(rng.choice(chars) for _ in range(rng.randrange(3)))
        w2 = "".join(rng.choice(chars) for _ in range(rng.randrange(3)))
        p1 = NcPoly(src, {w1: rat(rng.randrange(-3, 4))})
        p2 = NcPoly(src, {w2: rat(rng.randrange(-3, 4))})
        assert f(p1 * p2) == f(p1) * f(p2)
        assert f(p1 + p2) == f(p1) + f(p2)


def test_substitute_antihom_reverses_products():
    src = Alphabet([Generator.free("x"), Generator.free("y")])
    tgt = Alphabet([Generator.free("p"), Generator.free("q")])
    images = {
        Generator.free("x"): NcPoly.parse(tgt, "p"),
        Generator.free("y"): NcPoly.parse(tgt, "q"),
    }
    xy = parse_poly(src, "x*y")
    assert substitute(xy, images, antihom=True) == parse_poly(tgt, "q*p")
    assert substitute(xy, images) == parse_poly(tgt, "p*q")


def test_substitute_missing_image():
    src = Alphabet([Generator.free("x"), Generator.free("y")])
    tgt = Alphabet([Generator.free("p")])
    images = {Generator.free("x"): NcPoly.parse(tgt, "p")}
    with pytest.raises(MissingImageError):
        substitute(parse_poly(src, "x*y"), images)
    # constants need no images, but the target must come from somewhere
    assert substitute(NcPoly.unit(src, 5), images) == NcPoly.unit(tgt, 5)
    with pytest.raises(ValueError):
        substitute(NcPoly.unit(src), {})
    assert substitute(NcPoly.unit(src), {}, target=tgt) == NcPoly.unit(tgt)


def test_missing_image_message_and_images_from_two_alphabets():
    src = Alphabet([Generator.free("x"), Generator.free("y")])
    p_alpha = Alphabet([Generator.free("p")])
    q_alpha = Alphabet([Generator.free("q")])
    images = {Generator.free("x"): NcPoly.parse(p_alpha, "p")}
    with pytest.raises(MissingImageError) as exc:
        substitute(parse_poly(src, "x*y"), images)
    assert str(exc.value) == "no image provided for generator y"
    assert exc.value.generator == Generator.free("y")
    images[Generator.free("y")] = NcPoly.parse(q_alpha, "q")
    with pytest.raises(ValueError, match="images drawn from mixed alphabets"):
        substitute(parse_poly(src, "x*y"), images)


def test_tensor_square_multiplication():
    a = Alphabet([Generator.free("x"), Generator.free("y")])
    x = NcPoly.parse(a, "x")
    y = NcPoly.parse(a, "y")
    t1 = TensorSquare.of(x, y)
    t2 = TensorSquare.of(y, x)
    prod = t1 * t2
    assert prod == TensorSquare.of(x * y, y * x)
    assert (t1 - t1).is_zero()
    assert t1 * TensorSquare.unit(a) == t1
    assert (t1 + t2) * TensorSquare.unit(a, 2) == 2 * t1 + t2.scale(2)


def test_tensor_square_to_str():
    a = Alphabet([Generator.free("x"), Generator.free("y")])
    x = NcPoly.parse(a, "x")
    y = NcPoly.parse(a, "y")
    t = TensorSquare.of(x, y) - TensorSquare.of(y, 3 * x) + TensorSquare.unit(a)
    assert t.to_str() == "-3*y#x + x#y + 1#1"


def test_matric_coproduct_is_coassociative():
    # delta(u[i,j]) = sum_k u[i,k] # u[k,j]; both two-step extensions to the
    # triple tensor must agree on every generator and on products
    n = 2
    a = Alphabet(matric_family("u", n))
    delta = {
        Generator("u", i, j): TensorSquare(
            a,
            {
                (
                    a.word([Generator("u", i, k)]),
                    a.word([Generator("u", k, j)]),
                ): 1
                for k in range(1, n + 1)
            },
        )
        for i in range(1, n + 1)
        for j in range(1, n + 1)
    }

    def delta_poly(p):
        return coproduct_image(p, delta)

    def triple(t, leg):
        # expand one tensor leg of each (w1, w2) term once more
        out = {}
        for (w1, w2), c in t.terms.items():
            inner = delta_poly(NcPoly(a, {w1 if leg == 0 else w2: c}))
            for (v1, v2), d in inner.terms.items():
                key = (v1, v2, w2) if leg == 0 else (w1, v1, v2)
                out[key] = out.get(key, rat(0)) + d
        return {k: c for k, c in out.items() if c}

    for g in a.generators:
        t = delta[g]
        assert triple(t, 0) == triple(t, 1)
    p = NcPoly.parse(a, "u[1,1]*u[2,2] - u[1,2]*u[2,1]")
    t = delta_poly(p)
    assert triple(t, 0) == triple(t, 1)


def test_coproduct_image_is_multiplicative():
    a = Alphabet(matric_family("u", 2))
    delta = {
        g: TensorSquare(
            a,
            {
                (
                    a.word([Generator("u", g.row, k)]),
                    a.word([Generator("u", k, g.col)]),
                ): 1
                for k in (1, 2)
            },
        )
        for g in a.generators
    }
    p = NcPoly.parse(a, "u[1,1]")
    q = NcPoly.parse(a, "u[2,1]")
    assert coproduct_image(p * q, delta) == coproduct_image(p, delta) * coproduct_image(q, delta)
    with pytest.raises(MissingImageError):
        coproduct_image(p, {Generator("u", 2, 2): TensorSquare.unit(a)})
    with pytest.raises(ValueError):
        coproduct_image(NcPoly.unit(a), {})


def test_poly_matrix_product_writes_left_entry_first():
    a = Alphabet(matric_family("u", 2) + matric_family("s", 2))
    u = PolyMatrix.family(a, "u", 2)
    s = PolyMatrix.family(a, "s", 2)
    us = dict((u @ s).entries())
    assert us[(1, 2)] == NcPoly.parse(a, "u[1,1]*s[1,2] + u[1,2]*s[2,2]")
    # transposing moves entries but keeps every word's letter order
    tst = dict((u.T @ s.T).T.entries())
    assert tst[(1, 2)] == NcPoly.parse(a, "u[1,2]*s[1,1] + u[2,2]*s[1,2]")
    # so (U S)^T differs from S^T U^T: no word is reversed
    assert (u @ s).T.rows != (s.T @ u.T).rows


def test_poly_matrix_scalars_sums_and_images():
    a = Alphabet(matric_family("u", 2))
    u = PolyMatrix.family(a, "u", 2)
    one = PolyMatrix.identity(a, 2)
    q = PolyMatrix.scalar(a, Matrix.from_rows([[0, 1], [1, 0]]))
    swapped = dict((q @ u @ q).entries())
    assert swapped[(1, 1)] == NcPoly.parse(a, "u[2,2]")
    assert swapped[(1, 2)] == NcPoly.parse(a, "u[2,1]")
    assert (u + one - one).rows == u.rows
    assert (one @ u).rows == u.rows == (u @ one).rows
    images = (u - one).images("s")
    assert list(images) == matric_family("s", 2)
    assert images[Generator("s", 1, 1)] == NcPoly.parse(a, "u[1,1] - 1")
    assert PolyMatrix.of(a, u.images("u"), "u", 2).rows == u.rows
