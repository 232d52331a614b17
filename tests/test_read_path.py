"""Oracles for the read path: normal forms and membership queries against a
Fraction reference, their refusals, and the loading of system dumps.

The reference shares no code with reduction: ``slice_oracle.reduce_by_slices``
rewrites the query's own Fraction terms with the handed-out ``Fraction``
tails of ``system.rules``, one rewrite a step.  The queries are seeded and
carry denominators of every kind: negative values, denominators above 2**64,
and sums whose normal form is integral although the query is not.  A dump
is read against a reference built from each rule line by ``parse_poly``
and the constructor, so any way of reading a dump must give the same
system; a dump with one rule line spelled another way must read the same.
"""

import functools
import random
import re
from fractions import Fraction

import pytest

from hopfw.hopf import system_for
from hopfw.ncalg import Alphabet, Generator, NcPoly, parse_poly
from hopfw.rewrite import (
    NotCertifiedError,
    RewriteSystem,
    Rule,
    _read_rule_lines_at_once,
    _read_rule_lines_one_by_one,
    ideal_member,
    normal_form,
)
from slice_oracle import reduce_by_slices
from test_golden import PRESENTATIONS, SYSTEM_DEGREES
from test_rewrite import _random_completions

# denominators of every kind, and values above 2**64 with and without one
_BIG = 2**64
_COEFFICIENTS = (
    Fraction(1),
    Fraction(-1),
    Fraction(3),
    Fraction(-2),
    Fraction(1, 2),
    Fraction(-2, 3),
    Fraction(7, 6),
    Fraction(-5, 12),
    Fraction(1, _BIG + 13),
    Fraction(-(_BIG + 1), 3),
    Fraction(3 * _BIG + 7, _BIG * 5 - 1),
    Fraction(_BIG * 9),
)


@functools.cache
def _golden_system(key: str) -> RewriteSystem:
    return system_for(PRESENTATIONS[key](), SYSTEM_DEGREES[key])


def _words(system: RewriteSystem, rng: random.Random, count: int) -> list[str]:
    """Words of length 0..complete_through, every other one around a lead."""
    letters = [system.alphabet.char(g) for g in system.alphabet.generators]
    leads = [r.lead for r in system.rules]
    top = system.complete_through
    out = []
    for i in range(count):
        if i % 2 and leads:
            lead = rng.choice(leads)
            room = top - len(lead)
            if room >= 0:
                left = rng.randint(0, room)
                right = rng.randint(0, room - left)
                out.append(
                    "".join(rng.choices(letters, k=left))
                    + lead
                    + "".join(rng.choices(letters, k=right))
                )
                continue
        out.append("".join(rng.choices(letters, k=rng.randint(0, top))))
    return out


def _queries(system: RewriteSystem, rng: random.Random, count: int) -> list[NcPoly]:
    """Seeded queries over ``system``: random sums, members (multiples of
    rule polynomials), and integral sums plus a member scaled by 1/d, whose
    normal form is integral while the query has the denominator d."""
    a = system.alphabet
    rules = list(system.rules)
    out = []
    for i in range(count):
        terms: dict[str, Fraction] = {}
        for w in _words(system, rng, rng.randint(1, 6)):
            terms[w] = terms.get(w, 0) + rng.choice(_COEFFICIENTS)
        p = NcPoly(a, terms)
        if rules and i % 3:
            rule = rng.choice(rules)
            member = NcPoly.from_word(a, rule.lead) - rule.tail
            if i % 3 == 1:
                scale = rng.choice(_COEFFICIENTS)
            else:
                # an integral sum plus a member with a denominator
                scale = Fraction(1, rng.choice((2, 3, _BIG + 1)))
                p = NcPoly(a, {w: Fraction(c.numerator) for w, c in p.terms.items()})
            p = p + member.scale(scale) if i % 2 else member.scale(scale)
        out.append(p)
    return out


def _reference(p: NcPoly, system: RewriteSystem) -> dict:
    tails = {r.lead: r.tail.terms for r in system.rules}
    return reduce_by_slices(dict(p.terms), tails)


def _assert_query(p: NcPoly, system: RewriteSystem) -> bool:
    nf = normal_form(p, system)
    want = _reference(p, system)
    assert nf.terms == want, p.to_str()
    assert nf.alphabet == system.alphabet
    assert all(type(c) is Fraction for c in nf.terms.values()), p.to_str()
    assert ideal_member(p, system) == nf.is_zero() == (not want), p.to_str()
    return nf.is_zero()


@pytest.mark.parametrize("key", sorted(PRESENTATIONS))
def test_normal_form_matches_a_fraction_reference_on_golden_systems(key):
    system = _golden_system(key)
    rng = random.Random(f"read path {key}")
    members = 0
    denominators: set[int] = set()
    for p in _queries(system, rng, 24):
        members += _assert_query(p, system)
        denominators |= {c.denominator for c in normal_form(p, system).terms.values()}
    assert members > 0
    # values with and without a denominator both come out
    assert 1 in denominators


def test_normal_form_matches_a_fraction_reference_on_random_systems():
    rng = random.Random(20261101)
    members = queries = 0
    for _, system in _random_completions():
        for p in _queries(system, rng, 3):
            members += _assert_query(p, system)
            queries += 1
    assert 0 < members < queries


def test_a_query_with_denominators_can_have_an_integral_normal_form():
    system = _golden_system("hw-cyclic2")
    a = system.alphabet
    rule = system.rules[len(system.rules) // 2]
    member = NcPoly.from_word(a, rule.lead) - rule.tail
    q = parse_poly(a, "2*u[1,1]*u[1,2] - 3*s[2,1] + 5")
    for scale in (Fraction(1, 2), Fraction(-1, 3), Fraction(1, _BIG + 1)):
        p = q + member.scale(scale)
        assert any(c.denominator > 1 for c in p.terms.values())
        nf = normal_form(p, system)
        assert nf == normal_form(q, system)
        assert all(type(c) is Fraction and c.denominator == 1 for c in nf.terms.values())
        assert ideal_member(member.scale(scale), system)
        assert not ideal_member(p, system)


def test_the_zero_query_is_a_member_with_the_zero_normal_form():
    system = _golden_system("hw-cyclic2")
    zero = NcPoly.zero(system.alphabet)
    assert normal_form(zero, system) == zero
    assert normal_form(zero, system).terms == {}
    assert ideal_member(zero, system)


@pytest.mark.parametrize("query", [normal_form, ideal_member])
def test_a_query_over_another_alphabet_is_refused(query):
    system = _golden_system("hw-cyclic2")
    other = Alphabet([Generator.free("x"), Generator.free("y")])
    for text in ("x", "1/2*x*y - 3", "x*x*x*x*x*x*x*x*x*x*x"):
        with pytest.raises(ValueError, match="^polynomial alphabet does not match the system$"):
            query(parse_poly(other, text), system)


@pytest.mark.parametrize("query", [normal_form, ideal_member])
def test_a_query_above_the_certified_degree_is_refused(query):
    a = Alphabet([Generator.free("x"), Generator.free("y")])
    x, y = (a.char(g) for g in a.generators)
    system = RewriteSystem(a, [Rule(y + x, NcPoly(a, {x + y: 1}))], 5, 3)
    message = "degree 4 exceeds the certified bound 3; verdict not certified at this truncation"
    for text in ("x*y*x*y", "1/2*x*y*x*y - 3/7*y", "-1/18446744073709551617*y*y*y*y + x"):
        with pytest.raises(NotCertifiedError, match=f"^{re.escape(message)}$") as info:
            query(parse_poly(a, text), system)
        assert (info.value.degree, info.value.certified) == (4, 3)
    # at the certified degree the query is answered
    assert normal_form(parse_poly(a, "1/2*y*x*y"), system) == parse_poly(a, "1/2*x*y*y")
    assert ideal_member(parse_poly(a, "1/3*y*x - 1/3*x*y"), system)


# ---------------------------------------------------------------------------
# loading system dumps


def _reference_load(text: str) -> RewriteSystem:
    """A dump read line by line through ``parse_poly`` and the constructor."""
    lines = [line for line in text.splitlines() if line.strip()]
    header = dict(line.split(" ", 1) for line in lines[1:3])
    alphabet = Alphabet(
        Generator("free", name=t) if "[" not in t else _matric(t) for t in lines[3].split()[1:]
    )
    rules = []
    for line in lines[4:]:
        lhs, _, rhs = line[len("rule "):].partition(" -> ")
        rules.append(Rule(parse_poly(alphabet, lhs).leading_word(), parse_poly(alphabet, rhs)))
    return RewriteSystem(alphabet, rules, int(header["degree"]), int(header["complete_through"]))


def _matric(token: str) -> Generator:
    family, _, rest = token.partition("[")
    row, col = rest.rstrip("]").split(",")
    return Generator(family, int(row), int(col))


def _assert_reads_at_once_as_one_by_one(text: str) -> None:
    """A canonical dump takes the one-pass path, which reads it to the same
    header, alphabet and tails, in the same order and with the same value
    types, as reading each rule line on its own."""
    at_once = _read_rule_lines_at_once(text)
    one_by_one = _read_rule_lines_one_by_one(text)
    assert at_once == one_by_one
    assert list(at_once[2]) == list(one_by_one[2])
    for lead, tail in at_once[2].items():
        assert list(tail.items()) == list(one_by_one[2][lead].items())
        assert [type(c) for c in tail.values()] == [type(c) for c in one_by_one[2][lead].values()]


def _assert_loads_as_reference(text: str) -> RewriteSystem:
    _assert_reads_at_once_as_one_by_one(text)
    system = RewriteSystem.parse(text)
    want = _reference_load(text)
    assert system == want
    got_tails, want_tails = system._index.by_word, want._index.by_word
    assert list(got_tails) == list(want_tails)
    # integral values are ints inside the engine, and only they
    for lead, tail in got_tails.items():
        assert tail == want_tails[lead]
        assert {w: type(c) for w, c in tail.items()} == {
            w: type(c) for w, c in want_tails[lead].items()
        }, lead
    assert system.dump() == text
    return system


@pytest.mark.parametrize("key", sorted(PRESENTATIONS))
def test_a_golden_dump_loads_as_its_rule_lines_read_one_by_one(key):
    text = _golden_system(key).dump()
    assert _assert_loads_as_reference(text) == _golden_system(key)


def test_random_dumps_load_as_their_rule_lines_read_one_by_one():
    for trial, system in _random_completions():
        assert _assert_loads_as_reference(system.dump()) == system, trial


# a rule line spelled another way, and whether the one pass reads it: padded
# zeros, spaces around every symbol, signs doubled, and the lead added to the
# tail and taken away again, which is canonical text with a repeated word
_RESPELLINGS = (
    (lambda line: line.replace("[", "[0"), False),
    (lambda line: line.replace("*", " * ").replace(" -> ", "  ->  "), False),
    (lambda line: line.replace(" - ", " + -").replace(" + ", " - -"), False),
    (lambda line: line + " + 1/2*" + line.split(" ")[1] + " - 1/2*" + line.split(" ")[1], True),
)


@pytest.mark.parametrize("respell", range(len(_RESPELLINGS)))
@pytest.mark.parametrize("key", ["hw-cyclic2", "hw-signature-3", "hb-bilinear-1235"])
def test_a_dump_with_one_respelled_rule_line_loads_the_same(key, respell):
    text = _golden_system(key).dump()
    lines = text.splitlines(keepends=True)
    rng = random.Random(f"respell {key} {respell}")
    rule_lines = [i for i, line in enumerate(lines) if line.startswith("rule ") and " - " in line]
    i = rng.choice(rule_lines)
    spell, at_once = _RESPELLINGS[respell]
    lines[i] = spell(lines[i].rstrip("\n")) + "\n"
    respelled = "".join(lines)
    assert respelled != text
    if at_once:
        _assert_reads_at_once_as_one_by_one(respelled)
    else:
        # the respelled line does not read in one pass, so the whole dump is
        # read line by line
        with pytest.raises(KeyError):
            _read_rule_lines_at_once(respelled)
    system = RewriteSystem.parse(respelled)
    assert system == _golden_system(key)
    assert system.dump() == text


def test_a_dump_with_blank_lines_and_crlf_endings_loads_the_same():
    text = _golden_system("hw-cyclic2").dump()
    lines = text.splitlines()
    spaced = "\n".join(lines[:6] + [""] + lines[6:9] + ["   "] + lines[9:]) + "\n\n"
    for variant in (spaced, text.replace("\n", "\r\n"), text.rstrip("\n"), "  " + text):
        assert RewriteSystem.parse(variant) == _golden_system("hw-cyclic2")
    # a dump with no final newline is still read in one pass
    _assert_reads_at_once_as_one_by_one(text.rstrip("\n"))


# canonical-looking rule lines that the one pass must not read: each is read
# line by line, to the same tails or to the same refusal
_NOT_AT_ONCE = [
    "rule r*r -> q\trule q*q -> p\n",  # a tab
    "rule r*r -> q\rrule q*q -> p\n",  # a carriage return, a line break to splitlines
    "rule r*r -> q\x1crule q*q -> p\n",
    "rule r*r -> q\n\n",  # a blank line after the rules
    "rule r*r -> q -> p\n",
    "rule r*r\n",
    "rule r*r -> \n",
    "rule  r*r -> q\n",
    "rule r*r -> +q\n",
    "rule r*r -> q + -p\n",
    "rule r*r -> q - -p\n",
    "rule r*r -> 2q\n",
    "rule r*r -> 1/0*q\n",
    "rule r*r -> 1/2/3*q\n",
    "rule r*r -> \u0663*q\n",  # an Arabic-Indic digit three
    "rule 1*r*r -> q\n",
    "rule r*r -> q*1 + 2*1\n",
]


@pytest.mark.parametrize("rules", _NOT_AT_ONCE, ids=range(len(_NOT_AT_ONCE)))
def test_a_rule_line_read_one_by_one_reads_as_before(rules):
    text = _HEAD + rules
    try:
        at_once = _read_rule_lines_at_once(text)
    except (KeyError, ValueError):
        at_once = None
    try:
        one_by_one = _read_rule_lines_one_by_one(text)
    except ValueError:
        assert at_once is None
        return
    if at_once is not None:
        _assert_reads_at_once_as_one_by_one(text)
    assert RewriteSystem.parse(text)._index.by_word == one_by_one[2]


_HEAD = "system\ndegree 3\ncomplete_through 3\ngenerators p q r\n"
_GOOD = "rule r*r -> q\nrule q*q -> p\nrule r*q -> 2*p*p - 1/2*q\n"

# (dump, message): each refusal names the line it meets first, also when
# well-formed rule lines come before it
_REFUSED = [
    (_HEAD + _GOOD + "rule p*r\n", "^line 8: malformed rule line: 'rule p\\*r'$"),
    (_HEAD + _GOOD + "rule p*p*p -> x\n", "^line 8: generator x not in alphabet$"),
    (_HEAD + _GOOD + "rule p*p*p -> 2*q[1]\n", "^line 8: not a generator token: 'q\\[1\\]'$"),
    (_HEAD + _GOOD + "rule p*p*p -> u[1,1]\n", "^line 8: generator u\\[1,1\\] not in alphabet$"),
    (_HEAD + _GOOD + "rule p*p*x -> 1\n", "^line 8: generator x not in alphabet$"),
    (_HEAD + _GOOD + "rule q*q -> r\n", "^line 8: lead appears on two rules: 'rule q\\*q -> r'$"),
    (_HEAD + _GOOD + "rule 2*p*p -> 1\n", "^line 8: rule lead must be a single word: "),
    (_HEAD + _GOOD + "rule p*p -> 1/0*q\n", "^line 8: zero denominator in rational literal"),
    (_HEAD + _GOOD + "rule p*p -> q +\n", "^line 8: dangling sign at the end$"),
    (_HEAD + _GOOD + "degree 4\n", "^line 8: second degree line$"),
    (_HEAD + _GOOD + "generators p\n", "^line 8: second generators line$"),
    (_HEAD + _GOOD + "rules p -> 1\n", "^line 8: unknown line type 'rules'$"),
    (_HEAD + "rule p*r\n" + _GOOD + "degree 4\n", "^line 5: malformed rule line"),
    ("system\ndegree 3\ncomplete_through 3\n" + _GOOD + "generators p q r\n",
     "^line 4: generators line must precede every fact$"),
    (_HEAD + _GOOD + "rule p*p -> q*q\n", "^rule tail is not below its lead p\\*p in deglex$"),
    (_HEAD + _GOOD + "rule p*r*r -> 1\n", "^rule lead p\\*r\\*r contains the lead r\\*r$"),
    (_HEAD + _GOOD + "rule p*p*p*p -> 1\n", "^rule lead p\\*p\\*p\\*p is longer than degree 3$"),
]


@pytest.mark.parametrize(
    "bad, message",
    _REFUSED,
    ids=[f"{i}: {bad.splitlines()[-1]}" for i, (bad, _) in enumerate(_REFUSED)],
)
def test_a_refused_dump_names_the_line_it_meets_first(bad, message):
    with pytest.raises(ValueError, match=message):
        RewriteSystem.parse(bad)
    # the dump without the refused line is read
    assert len(RewriteSystem.parse(_HEAD + _GOOD).rules) == 3


def test_a_tail_that_sums_repeated_words_loads_as_their_sum():
    text = _HEAD + (
        "rule r*r -> q + q - p + p\nrule q*q -> p - p\nrule r*q -> 2*p*p - 1/2*q + 1/2*q\n"
    )
    system = RewriteSystem.parse(text)
    a = system.alphabet
    assert {a.word_token(r.lead): r.tail for r in system.rules} == {
        "r*r": parse_poly(a, "2*q"),
        "q*q": NcPoly.zero(a),
        "r*q": parse_poly(a, "2*p*p"),
    }
    assert system == _reference_load(_HEAD + "rule r*r -> 2*q\nrule q*q -> 0\nrule r*q -> 2*p*p\n")
