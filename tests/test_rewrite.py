import collections
import contextlib
import dataclasses
import itertools
import os
import random
import re
import sys
import threading
from fractions import Fraction

import pytest

from hopfw import rewrite
from hopfw.forms import MultilinearForm, make_bilinear, make_signature
from hopfw.hopf import build_bw, build_hb, build_hw, system_for
from hopfw.ncalg import Alphabet, Generator, NcPoly, natural_key, parse_poly
from hopfw.rewrite import (
    _NO_LEAD,
    _PREFIX,
    NotCertifiedError,
    RewriteSystem,
    Rule,
    _LiveIndex,
    complete,
    ideal_member,
    normal_form,
    unresolved_overlaps,
)
from slice_oracle import (
    assert_scan_matches_slices,
    deglex_key,
    first_lead_by_scan,
    first_lead_by_slices,
    marker,
    reduce_by_slices,
)
from span_oracle import SpanOracle
from test_golden import PRESENTATIONS, SYSTEM_DEGREES


def free_alphabet(*names):
    return Alphabet([Generator.free(n) for n in names])


def test_two_sided_inverse_pair():
    a = free_alphabet("p", "q")
    rels = [parse_poly(a, "p*q - 1"), parse_poly(a, "q*p - 1")]
    s = complete(rels, 4)
    assert len(s.rules) == 2
    assert normal_form(parse_poly(a, "p*q*p"), s) == parse_poly(a, "p")
    assert normal_form(parse_poly(a, "q*p*q*p"), s) == parse_poly(a, "1")
    assert ideal_member(parse_poly(a, "p*q*q*p - 1"), s)
    assert not ideal_member(parse_poly(a, "p - q"), s)
    assert unresolved_overlaps(s) == []


def test_single_square_relation():
    a = free_alphabet("g")
    s = complete([parse_poly(a, "g*g")], 5)
    assert [r.lead for r in s.rules] == [a.word([Generator.free("g")] * 2)]
    assert normal_form(parse_poly(a, "g*g*g"), s).is_zero()
    assert normal_form(parse_poly(a, "g"), s) == parse_poly(a, "g")


def test_unit_ideal_collapses_to_the_empty_word_rule():
    a = free_alphabet("g")
    s = complete([parse_poly(a, "g - 1"), parse_poly(a, "g")], 3)
    assert len(s.rules) == 1
    assert s.rules[0].lead == ""
    assert s.rules[0].tail.is_zero()
    assert ideal_member(NcPoly.unit(a), s)
    assert normal_form(parse_poly(a, "g*g - 7"), s).is_zero()


def test_relations_above_bound_rejected():
    a = free_alphabet("g")
    with pytest.raises(ValueError):
        complete([parse_poly(a, "g*g*g")], 2)
    with pytest.raises(ValueError):
        complete([NcPoly.zero(a)], 3)


def test_mixed_alphabets_rejected():
    a = free_alphabet("p")
    b = free_alphabet("q")
    with pytest.raises(ValueError):
        complete([parse_poly(a, "p"), parse_poly(b, "q")], 3)
    s = complete([parse_poly(a, "p*p")], 3)
    with pytest.raises(ValueError):
        normal_form(parse_poly(b, "q"), s)


def test_not_certified_above_the_bound():
    a = free_alphabet("g")
    s = complete([parse_poly(a, "g*g - g")], 4)
    tall = NcPoly.from_word(a, a.word([Generator.free("g")] * 5))
    with pytest.raises(NotCertifiedError) as info:
        normal_form(tall, s)
    assert info.value.degree == 5 and info.value.certified == 4
    with pytest.raises(NotCertifiedError):
        ideal_member(tall, s)


def test_completion_is_schedule_independent():
    w2 = MultilinearForm(2, 3, {(1, 1, 2): 1, (1, 2, 1): 1, (2, 1, 1): 1})
    rels = list(build_hw(w2).relations)
    base = complete(rels, 4)
    rng = random.Random(99)
    for _ in range(3):
        shuffled = rels[:]
        rng.shuffle(shuffled)
        assert complete(shuffled, 4) == base


def test_presented_quotient_stays_proper():
    # the counit sends every defining relation to zero, so the quotient has a
    # character and the unit can never acquire a certificate; a collapse here
    # means the completion manufactured an element outside the ideal
    w2 = MultilinearForm(2, 3, {(1, 1, 2): 1, (1, 2, 1): 1, (2, 1, 1): 1})
    s = complete(list(build_hw(w2).relations), 6)
    assert len(s.rules) == 92
    assert not ideal_member(NcPoly.unit(s.alphabet), s)
    assert unresolved_overlaps(s) == []
    for rel in build_hw(w2).relations:
        assert ideal_member(rel, s)


def _two_rule_system():
    """ab -> a and bc -> b, which leave the word abc with two distinct normal
    forms."""
    a = free_alphabet("x", "y", "z")
    x, y, z = (a.char(g) for g in a.generators)
    rules = [
        Rule(x + y, NcPoly(a, {x: 1})),
        Rule(y + z, NcPoly(a, {y: 1})),
    ]
    return RewriteSystem(a, rules, 3, 3)


def _three_rule_system():
    """aaa -> b, ba -> a and ab -> c, with six unresolved overlaps up to
    degree 5."""
    a = free_alphabet("x", "y", "z")
    x, y, z = (a.char(g) for g in a.generators)
    rules = [
        Rule(x + x + x, NcPoly(a, {y: 1})),
        Rule(y + x, NcPoly(a, {x: 1})),
        Rule(x + y, NcPoly(a, {z: 1})),
    ]
    return RewriteSystem(a, rules, 5, 5)


def test_unresolved_overlaps_flags_a_non_confluent_system():
    s = _two_rule_system()
    a = s.alphabet
    x, y, z = (a.char(g) for g in a.generators)
    assert unresolved_overlaps(s) == [(x + y, y + z, x + y + z)]
    fixed = complete([parse_poly(a, "x*y - x"), parse_poly(a, "y*z - y")], 3)
    assert unresolved_overlaps(fixed) == []
    # completion added the missing consequence x*z -> x*y -> x
    assert normal_form(parse_poly(a, "x*z"), fixed) == parse_poly(a, "x")


def test_unresolved_overlaps_keeps_rule_order_then_growing_overlap():
    s = _three_rule_system()
    x, y, z = (s.alphabet.char(g) for g in s.alphabet.generators)
    # ordered by first lead, then second lead (both in rule order), then the
    # shared factor growing -- so the overlap word shrinks
    assert unresolved_overlaps(s) == [
        (x + y, y + x, x + y + x),
        (y + x, x + y, y + x + y),
        (y + x, x + x + x, y + x + x + x),
        (x + x + x, x + y, x + x + x + y),
        (x + x + x, x + x + x, x * 5),
        (x + x + x, x + x + x, x * 4),
    ]


def _random_completions():
    """(trial, system) for 200 seeded completions of non-homogeneous
    relations with constant terms, so that unit ideals and evictions both
    occur."""
    rng = random.Random(20261018)
    for trial in range(200):
        a = free_alphabet(*"wxyz"[: rng.randint(2, 4)])
        chars = [a.char(g) for g in a.generators]
        rels = []
        while not rels:
            for _ in range(rng.randint(1, 4)):
                terms = {}
                for _ in range(rng.randint(1, 4)):
                    w = "".join(rng.choice(chars) for _ in range(rng.randint(0, 3)))
                    terms[w] = terms.get(w, 0) + rng.choice((-2, -1, 1, 2, 3))
                rels.append(NcPoly(a, terms))
            rels = [r for r in rels if not r.is_zero()]
        yield trial, complete(rels, rng.randint(3, 6))


def test_random_completions_leave_no_unresolved_overlap():
    # completion does not audit itself, so the audit runs here
    units = 0
    for trial, system in _random_completions():
        assert unresolved_overlaps(system) == [], f"trial {trial} not confluent"
        units += system.rules[0].lead == ""
    assert 0 < units < 200


def test_prefix_table_finds_the_slices_lead_on_random_completions():
    rng = random.Random(20261019)
    for _, system in _random_completions():
        assert_scan_matches_slices(system, rng, words=40)


def test_prefix_table_follows_adds_and_removes():
    """A completion's index through a seeded run of insertions, each of a
    normal word that first evicts the leads containing it, and removals.
    Leads are up to 4 letters long, the index's top length, whose leads
    have no overlap entries.  After every step the table holds exactly the
    live leads and their proper prefixes, those of the top-length leads
    included; its ``shortest`` is the length of the shortest live lead,
    also after the last lead of that length goes; and the scan finds the
    same (position, lead) as probing every slice."""
    rng = random.Random(20261020)
    letters = "\u0100\u0101\u0102"
    index = _LiveIndex(4, letters)
    markers: dict[str, int] = {}
    removals = evictions = rises = 0
    for step in range(600):
        leads = index.by_word
        if leads and rng.random() < 0.25:
            before = index.shortest
            index.remove(rng.choice(sorted(leads)))
            removals += 1
            rises += index.shortest > before
        else:
            lead = "".join(rng.choice(letters) for _ in range(rng.randint(1, 4)))
            if any(old in lead for old in leads):
                continue  # a new lead is normal
            for old in [old for old in leads if lead in old]:
                index.remove(old)
                evictions += 1
            index.add(lead, marker(markers.setdefault(lead, len(markers))))
        prefixes = [lead[:i] for lead in leads for i in range(1, len(lead))]
        assert index.table == {p: _PREFIX for p in prefixes} | leads
        assert index.shortest == min(map(len, leads), default=_NO_LEAD), step
        for _ in range(10):
            word = "".join(rng.choice(letters) for _ in range(rng.randint(0, 8)))
            hit = first_lead_by_scan(index, word)
            assert hit == first_lead_by_slices(word, leads), (step, word)
    assert removals > 50 and evictions > 50 and rises > 50


# coefficients of the oracle's inputs: ints, and Fractions that can cancel
# an int's contribution or leave a Fraction with denominator 1
_COEFFICIENTS = (1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(3, 2))


def _random_terms(rng, letters, longest, around=()):
    """1 to 5 terms over ``letters`` with words of length 0 to ``longest``;
    with ``around`` given, every other word is built around one of them."""
    def noise(n):
        return "".join(rng.choice(letters) for _ in range(n))

    terms = {}
    for i in range(rng.randint(1, 5)):
        if i % 2 and around:
            w = noise(rng.randint(0, 2)) + rng.choice(around) + noise(rng.randint(0, 2))
        else:
            w = noise(rng.randint(0, longest))
        terms[w] = rng.choice(_COEFFICIENTS)
    return terms


def _assert_reduces_as_slices(index, terms):
    """``reduce_terms`` returns exactly the oracle's dict: the same words,
    values and int/Fraction types; and leaves its input as it was."""
    given = dict(terms)
    got = index.reduce_terms(terms)
    want = reduce_by_slices(terms, index.by_word)
    assert terms == given
    assert got == want, terms
    assert {w: type(c) for w, c in got.items()} == {w: type(c) for w, c in want.items()}, terms


def test_reduce_terms_matches_the_slices_on_random_completions():
    rng = random.Random(20261021)
    units = 0
    for _, system in _random_completions():
        index = system._index
        units += "" in index.by_word
        letters = [system.alphabet.char(g) for g in system.alphabet.generators]
        leads = [lead for lead in index.by_word if lead]
        for _ in range(4):
            terms = _random_terms(rng, letters, system.degree_bound + 1, leads)
            _assert_reduces_as_slices(index, terms)
    assert units > 0


def _index_of_shortest(rng, shortest):
    """A factor-free index over three letters whose one lead of length
    ``shortest`` comes first and whose other leads are up to two letters
    longer, each with 1 to 3 tail words below it in deglex."""
    letters = "abc"
    index = _LiveIndex(shortest + 2, letters)
    for k in range(40):
        n = shortest if k == 0 else rng.randint(shortest + 1, shortest + 2)
        lead = "".join(rng.choice(letters) for _ in range(n))
        if any(old in lead or lead in old for old in index.by_word):
            continue
        tail = {}
        for _ in range(rng.randint(1, 3)):
            w = "".join(rng.choice(letters) for _ in range(rng.randint(0, n)))
            # among words of one length, a larger string is lower in deglex
            if len(w) < n or w > lead:
                tail[w] = rng.choice(_COEFFICIENTS)
        index.add(lead, tail)
    return index


@pytest.mark.parametrize("shortest", [1, 2, 3])
def test_reduce_terms_matches_the_slices_on_indexes_of_shortest(shortest):
    """Hand-made indexes whose shortest lead has length 1, 2 or 3, before
    and after the eviction of their only shortest lead; and words shorter
    than every lead, which are already normal."""
    rng = random.Random(20261022 + shortest)
    for _ in range(8):
        index = _index_of_shortest(rng, shortest)
        assert index.shortest == shortest
        first = next(iter(index.by_word))
        for phase in ("before", "after"):
            leads = list(index.by_word)
            for _ in range(15):
                _assert_reduces_as_slices(index, _random_terms(rng, "abc", shortest + 4, leads))
            below = _random_terms(rng, "abc", index.shortest - 1)
            assert index.reduce_terms(below) == below
            _assert_reduces_as_slices(index, below)
            if phase == "before":
                index.remove(first)
                assert index.shortest == min(map(len, index.by_word)) > shortest


def test_reduce_terms_restarts_a_cancelled_sum_from_the_int_zero():
    # t, r and q rewrite to 1/2*p, -1/2*p and 3*p, in that order (the
    # worklist pops in descending deglex): p cancels to 0 and comes back as
    # the int 3, as it would from nothing
    text = (
        "system\ndegree 1\ncomplete_through 1\ngenerators p q r t\n"
        "rule q -> 3*p\nrule r -> -1/2*p\nrule t -> 1/2*p\n"
    )
    system = RewriteSystem.parse(text)
    index = system._index
    p, q, r, t = (system.alphabet.char(g) for g in system.alphabet.generators)
    got = index.reduce_terms({t: 1, r: 1, q: 1})
    assert got == {p: 3} and type(got[p]) is int
    _assert_reduces_as_slices(index, {t: 1, r: 1, q: 1})


def test_reduce_terms_sends_every_word_to_zero_in_the_unit_ideal():
    index = _LiveIndex(4, "ab")
    index.add("", {})
    assert index.shortest == 0
    rng = random.Random(20261023)
    for _ in range(20):
        terms = _random_terms(rng, "ab", 4)
        assert index.reduce_terms(terms) == {}
        _assert_reduces_as_slices(index, terms)


def test_normal_form_is_linear_and_idempotent():
    a = free_alphabet("x", "y")
    s = complete([parse_poly(a, "x*x - y"), parse_poly(a, "y*x - x*y")], 6)
    rng = random.Random(3)
    chars = [a.char(g) for g in a.generators]

    def rand_poly():
        terms = {}
        for _ in range(rng.randrange(1, 5)):
            w = "".join(rng.choice(chars) for _ in range(rng.randrange(5)))
            terms[w] = terms.get(w, 0) + rng.randrange(-4, 5)
        return NcPoly(a, terms)

    for _ in range(25):
        p, q = rand_poly(), rand_poly()
        np_, nq = normal_form(p, s), normal_form(q, s)
        assert normal_form(p + q, s) == np_ + nq
        assert normal_form(np_, s) == np_
        assert ideal_member(p - np_, s)


def test_normal_form_keeps_a_word_that_cancels_and_returns():
    # t and r rewrite to p and -p, which cancel; q brings p back within the
    # same reduction, while p still sits in the worklist with value 0
    text = (
        "system\ndegree 1\ncomplete_through 1\ngenerators p q r t\n"
        "rule q -> p\nrule r -> -p\nrule t -> p\n"
    )
    s = RewriteSystem.parse(text)
    a = s.alphabet
    assert normal_form(parse_poly(a, "t + r + q"), s) == parse_poly(a, "p")
    assert normal_form(parse_poly(a, "t + r"), s).is_zero()


def test_dump_parse_round_trip():
    a = free_alphabet("p", "q")
    s = complete([parse_poly(a, "p*q - 1"), parse_poly(a, "q*p - 1")], 4)
    text = s.dump()
    back = RewriteSystem.parse(text)
    assert back == s
    assert back.dump() == text
    assert text.splitlines()[0] == "system"


_MALFORMED = [
    ("", None),
    ("rules\ndegree 3", None),
    ("system\ndegree 3", None),  # missing complete_through and generators
    ("system\ndegree 3\ncomplete_through 3\ngenerators p\nrule p*p", "line 5: malformed rule"),
    ("system\ndegree 3\ncomplete_through 3\ngenerators p\nrule 2*p -> 1", None),
    ("system\nwhat 3", None),
    ("system\nrule p -> 1", None),
    # a second generators line would re-letter the rules read before it
    (
        "system\ndegree 3\ncomplete_through 3\ngenerators p q\nrule q -> p\ngenerators q",
        None,
    ),
    # every header field stands once
    ("system\ndegree 3\ncomplete_through 3\ngenerators p\ndegree 5", "line 5: second degree"),
    ("system\ndegree 3\ncomplete_through 3\ncomplete_through 2", "line 4: second complete"),
    ("system\nsystem\ndegree 3\ncomplete_through 3\ngenerators p", "line 2: second system"),
    ("system 2\ndegree 3\ncomplete_through 3\ngenerators p", "line 1: system line takes"),
    # each generator is named once
    ("system\ndegree 3\ncomplete_through 3\ngenerators p q p", "line 4: .* names p twice"),
    ("system\ndegree 3\ncomplete_through 3\ngenerators x u[1,1] u[01,1]", "names u\\[1,1\\]"),
    # the header values agree with each other and with the rules
    (
        "system\ndegree 2\ncomplete_through 9\ngenerators x y\nrule y*x -> x*y",
        "complete_through 9 is above degree 2",
    ),
    ("system\ndegree -1\ncomplete_through -1\ngenerators x", "must not be negative"),
    ("system\ndegree 3\ncomplete_through -2\ngenerators x", "must not be negative"),
    (
        "system\ndegree 3\ncomplete_through 3\ngenerators x\nrule x*x*x*x*x -> x",
        "rule lead x\\*x\\*x\\*x\\*x is longer than degree 3",
    ),
    # a lead containing another lead is an inclusion ambiguity that the
    # overlap audit does not see
    (
        "system\ndegree 3\ncomplete_through 3\ngenerators w x y z\nrule y -> x\nrule y*z -> w",
        "rule lead y\\*z contains the lead y",
    ),
    (
        "system\ndegree 3\ncomplete_through 3\ngenerators w x y z\nrule z -> x\nrule y*z -> w",
        "rule lead y\\*z contains the lead z",
    ),
    (
        "system\ndegree 3\ncomplete_through 3\ngenerators w x y z\nrule y -> x\nrule x*y*z -> w",
        "rule lead x\\*y\\*z contains the lead y",
    ),
    # a lead is one monomial with coefficient 1: no sign, no second term
    ("system\ndegree 3\ncomplete_through 3\ngenerators p q\nrule -p -> 1", "token: '-p'"),
    ("system\ndegree 3\ncomplete_through 3\ngenerators p q\nrule p + q -> 1", "token: 'p \\+ q'"),
    (
        "system\ndegree 3\ncomplete_through 3\ngenerators p q\nrule p - p + p -> 1",
        "token: 'p - p \\+ p'",
    ),
    ("system\ndegree 3\ncomplete_through 3\ngenerators p q\nrule 0 -> 1", "single word"),
    ("system\ndegree 3\ncomplete_through 3\ngenerators p q\nrule 1/2*p -> 1", "single word"),
]


# each case is named by its dump alone
@pytest.mark.parametrize("bad, message", _MALFORMED, ids=[bad for bad, _ in _MALFORMED])
def test_parse_rejects_malformed_dumps(bad, message):
    with pytest.raises(ValueError, match=message):
        RewriteSystem.parse(bad)


_HEADER = "system\ndegree 4\ncomplete_through 4\ngenerators u[1,1] u[1,2]\n"


@pytest.mark.parametrize(
    "rule",
    [
        "rule u[1,1] -> u[1,1]*u[1,2]",  # tail above the lead
        "rule u[1,2] -> u[1,2]",  # tail equal to the lead
        "rule u[1,2] -> u[1,1] + u[1,1]*u[1,1]",  # one tail word above the lead
    ],
)
def test_parse_rejects_a_tail_not_below_its_lead(rule):
    with pytest.raises(ValueError, match="not below its lead"):
        RewriteSystem.parse(_HEADER + rule + "\n")


def test_parse_reads_the_unit_lead():
    text = "system\ndegree 3\ncomplete_through 3\ngenerators p q\nrule 1 -> 0\n"
    s = RewriteSystem.parse(text)
    assert [r.lead for r in s.rules] == [""]
    assert normal_form(parse_poly(s.alphabet, "p*q + 2"), s).is_zero()


def test_parse_rejects_a_repeated_lead():
    text = _HEADER + "rule u[1,2] -> u[1,1]\nrule u[1,2] -> 0\n"
    with pytest.raises(ValueError, match="two rules"):
        RewriteSystem.parse(text)
    # one copy of each lead, tails below them, still parses
    back = RewriteSystem.parse(_HEADER + "rule u[1,2] -> u[1,1]\nrule u[1,1]*u[1,1] -> 1\n")
    assert len(back.rules) == 2


def test_normal_form_rewrites_the_leftmost_lead_first():
    a = free_alphabet("x", "y", "z")
    x, y, z = (a.char(g) for g in a.generators)
    rules = [
        Rule(x + y, NcPoly(a, {x: 1})),
        Rule(y + z, NcPoly(a, {y: 1})),
    ]
    s = RewriteSystem(a, rules, 3, 3)
    # x*y starts at 0 and y*z at 1: rewriting x*y first gives x*z, while
    # rewriting y*z first would give x*y and then x
    assert normal_form(parse_poly(a, "x*y*z"), s) == parse_poly(a, "x*z")
    assert not s.is_normal(x + y + z)
    assert s.is_normal(x + z)
    assert s.is_normal(x + x)
    assert s._index.shortest == 2
    # a one-letter lead: every position is probed, one letter first
    s = RewriteSystem(a, [Rule(z, NcPoly(a, {x: 1})), rules[0]], 3, 3)
    assert s._index.shortest == 1
    assert normal_form(parse_poly(a, "y*z*z"), s) == parse_poly(a, "y*x*x")
    assert normal_form(parse_poly(a, "x*y*z"), s) == parse_poly(a, "x*x")


# (rules, degree, complete_through, message): each system is refused by the
# constructor itself, not only when it is read from a dump
_UNTRUSTED = {
    "negative bound": ([], 3, -2, "must not be negative"),
    "complete_through above degree": ([], 3, 9, "complete_through 9 is above degree 3"),
    "lead longer than degree": (["x*x*x*x -> x"], 3, 3, "lead x\\*x\\*x\\*x is longer than degree 3"),
    "tail equal to its lead": (["y -> y"], 3, 3, "not below its lead y"),
    "tail above its lead": (["x -> x*x"], 3, 3, "not below its lead x"),
    "repeated lead": (["y -> x", "y -> 1"], 3, 3, "lead y appears on two rules"),
    "lead in a lead": (["y -> x", "y*z -> w"], 3, 3, "lead y\\*z contains the lead y"),
    "lead ending a lead": (["z -> x", "y*z -> w"], 3, 3, "lead y\\*z contains the lead z"),
    "lead inside a lead": (["y -> x", "x*y*z -> w"], 3, 3, "lead x\\*y\\*z contains the lead y"),
    "unit lead beside another": (["1 -> 0", "x -> 0"], 3, 3, "lead x contains the lead 1"),
}


@pytest.mark.parametrize("case", _UNTRUSTED)
def test_constructor_refuses_an_untrusted_system(case):
    rules, degree, done, message = _UNTRUSTED[case]
    a = free_alphabet("w", "x", "y", "z")
    built = []
    for text in rules:
        lead, tail = (parse_poly(a, side) for side in text.split("->"))
        built.append(Rule(lead.leading_word(), tail))
    with pytest.raises(ValueError, match=message):
        RewriteSystem(a, built, degree, done)


def test_constructor_refuses_a_tail_from_another_alphabet():
    a, b = free_alphabet("x", "y"), free_alphabet("p", "q")
    rule = Rule(a.char(Generator.free("y")), parse_poly(b, "p"))
    with pytest.raises(ValueError, match="rule tail of y is drawn from another alphabet"):
        RewriteSystem(a, [rule], 2, 2)


@pytest.mark.parametrize("which", ["letter and non-letter", "above the top", "below the lowest"])
def test_constructor_refuses_a_lead_outside_the_alphabet(which):
    # characters just outside the letters of x and y spell no generator, and
    # a dump of the rule would drop them from its lead
    a = free_alphabet("x", "y")
    low, high = sorted(a.word(a.generators))
    lead = {
        "letter and non-letter": low + chr(ord(high) + 1),
        "above the top": chr(ord(high) + 1),
        "below the lowest": chr(ord(low) - 1),
    }[which]
    message = re.escape(f"rule lead {lead!r} is not spelled in the alphabet")
    with pytest.raises(ValueError, match=message):
        RewriteSystem(a, [Rule(lead, NcPoly.zero(a))], 2, 2)


# (degree, (pairs popped, stale pairs, reductions to zero, new rules,
# requeued polynomials, tails reduced, peak queue), final rules, length of
# the shortest lead) of hw(w) completed in builder order.  A queue that takes
# every overlap when its second lead arrives peaks at 2 421 and 18 928 items
# for e3 and at 1 137 and 1 140 for cyclic2, and pops the same live pairs
# (pairs popped less stale pairs: 3 154, 16 018, 679 and 1 665) with more
# stale ones: it pops 4 036 / 882, 22 701 / 6 683, 1 776 / 1 097 and
# 2 846 / 1 181 pairs / stale pairs
_E3_COUNTERS = [
    (4, (4036, 882, 2115, 1576, 537, 430, 2421), 1084, 2),
    (5, (16900, 882, 11721, 4834, 537, 430, 12864), 4342, 2),
]
# cyclic2 has two relations with one leading word, so arrival breaks a tie
# in the queue, and these totals pin the queue's order as well
_CYCLIC2_COUNTERS = [
    (6, (1062, 383, 603, 191, 115, 37, 471), 92, 1),
    (8, (2048, 383, 1487, 297, 119, 78, 583), 194, 1),
]
CYCLIC2 = MultilinearForm(2, 3, {(1, 1, 2): 1, (1, 2, 1): 1, (2, 1, 1): 1})


def _check_completion_counters(w, degree, totals, rules, shortest, monkeypatch):
    relations = list(build_hw(w).relations)
    system = _sequential(relations, degree)
    st = system.stats
    got = (
        st.pairs_popped, st.stale_pairs, st.reductions_to_zero, st.new_rules, st.requeued_polys,
        st.tails_reduced, st.peak_queue,
    )
    assert got == totals
    # the split top degree pops the same queue
    forks = _split_always(monkeypatch)
    assert complete(relations, degree).stats == st
    assert forks == [1]
    _assert_no_child_left()
    assert len(system.rules) == rules
    # every reduction ends in zero or in a new rule
    assert st.pairs_popped - st.stale_pairs + st.requeued_polys == (
        st.reductions_to_zero + st.new_rules
    )
    # the totals are neither dumped nor compared
    parsed = RewriteSystem.parse(system.dump())
    assert parsed.stats is None and parsed == system
    # the scan of a completed or a parsed system starts at its shortest lead
    assert parsed._index.shortest == system._index.shortest == shortest


@pytest.mark.parametrize("degree, totals, rules, shortest", _E3_COUNTERS, ids=["D4", "D5"])
@pytest.mark.hashseed
def test_completion_counters_of_hw_e3(degree, totals, rules, shortest, monkeypatch):
    _check_completion_counters(make_signature(3), degree, totals, rules, shortest, monkeypatch)


@pytest.mark.parametrize("degree, totals, rules, shortest", _CYCLIC2_COUNTERS, ids=["D6", "D8"])
@pytest.mark.hashseed
def test_completion_counters_of_hw_cyclic2(degree, totals, rules, shortest, monkeypatch):
    _check_completion_counters(CYCLIC2, degree, totals, rules, shortest, monkeypatch)


# systems whose top degree the split must leave as the sequential drain
# leaves it: hw(e3) at D=4 sees 39 leads shorter than 4 arrive at the top
# degree, so the child is stopped early; the hb rules have Fraction values
_SPLIT_SYSTEMS = {
    **{f"hw(cyclic2) D={d}": (build_hw, CYCLIC2, d) for d in range(3, 9)},
    **{f"hw(e3) D={d}": (build_hw, make_signature(3), d) for d in range(3, 6)},
    **{f"hb(1235) D={d}": (build_hb, make_bilinear([[1, 2], [3, 5]]), d) for d in range(3, 7)},
    **{
        f"hb(3x3) D={d}": (build_hb, make_bilinear([[1, 2, 0], [0, 1, 3], [1, 0, 2]]), d)
        for d in range(3, 5)
    },
}


def _split_always(monkeypatch, block=rewrite._BLOCK):
    """Split every top degree, with two CPUs as far as the split can see,
    and count the forks."""
    forks = []
    fork = os.fork

    def counted():
        forks.append(1)
        return fork()

    monkeypatch.setattr(rewrite, "_SPLIT_MIN_ITEMS", 1)
    monkeypatch.setattr(rewrite, "_BLOCK", block)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "fork", counted)
    return forks


def _sequential(relations, degree):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rewrite, "_SPLIT_MIN_ITEMS", sys.maxsize)
        return complete(relations, degree)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("block", [rewrite._BLOCK, 7])
@pytest.mark.parametrize("case", _SPLIT_SYSTEMS)
@pytest.mark.hashseed
def test_split_top_degree_gives_the_sequential_dump_and_stats(case, block, monkeypatch):
    """A forked child reduces the top degree's last items modulo the shorter
    rules and the parent reduces each result once more: the dump and every
    counter are the sequential drain's."""
    build, w, degree = _SPLIT_SYSTEMS[case]
    relations = list(build(w).relations)
    expected = _sequential(relations, degree)
    forks = _split_always(monkeypatch, block)
    system = complete(relations, degree)
    assert forks == [1]
    assert system.dump() == expected.dump()
    assert system.stats == expected.stats
    _assert_no_child_left()


def _lead_of(reduced):
    """The lead that ``_Completion.insert`` makes of ``reduced``, read
    before it pops it."""
    return min(reduced, key=natural_key)


@contextlib.contextmanager
def _completion_states(eager=False):
    """Keep the state of each completion run in the block, with its frontier
    started at D when ``eager``: every overlap is then queued when its
    second lead arrives, as a queue with no frontier does.  Each state
    keeps its drain's progress reports too, and ``inserted``, every lead
    in the order it was inserted."""
    states = []
    init, insert, drain = (
        rewrite._Completion.__init__, rewrite._Completion.insert, rewrite._Completion.drain
    )

    def watched_init(st, alphabet, degree_bound):
        init(st, alphabet, degree_bound)
        if eager:
            st.frontier = degree_bound
        st.inserted = []
        states.append(st)

    def watched_insert(st, reduced):
        st.inserted.append(_lead_of(reduced))
        insert(st, reduced)

    def watched_drain(st, on_progress):
        st.reports = []
        drain(st, lambda degree, rules: st.reports.append((degree, rules)))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rewrite._Completion, "__init__", watched_init)
        mp.setattr(rewrite._Completion, "insert", watched_insert)
        mp.setattr(rewrite._Completion, "drain", watched_drain)
        yield states


def _run_record(state, system):
    """(shared, stale, reports, peak) of one run.  ``shared`` is what
    queuing each degree's overlaps when the drain reaches it and queuing
    every overlap when its second lead arrives must share: the inserted
    leads in order, the dump, and every counter but pairs popped, stale
    pairs and the queue's peak, with pairs popped less stale pairs for the
    first two.  The other three are the stale pairs, the progress reports
    and the peak, which the eager queue may have more of."""
    st = system.stats
    live = st.pairs_popped - st.stale_pairs
    shared = dataclasses.replace(st, pairs_popped=live, stale_pairs=0, peak_queue=0)
    return (state.inserted, system.dump(), shared), st.stale_pairs, state.reports, st.peak_queue


def _is_sublist(short, long):
    """Whether ``short`` is ``long`` with some items left out."""
    rest = iter(long)
    return all(item in rest for item in short)


def _compare_with_the_eager_queue(complete_all):
    """The run records of ``complete_all()``, a list of systems, with the
    frontier and with the eager queue.  Each run shares its record's first
    part with the eager one, and the eager queue pops at least as many
    stale pairs, reports every degree the frontier's reports and peaks no
    lower: its extra items are pairs of evicted leads, which pop stale,
    and a degree where only they pop is reported by it alone."""
    records = []
    for eager in (False, True):
        with _completion_states(eager) as states:
            systems = complete_all()
        assert len(states) == len(systems)
        records.append([_run_record(st, s) for st, s in zip(states, systems)])
    for trial, (run, eager_run) in enumerate(zip(*records)):
        (got, stale, reports, peak), (want, eager_stale, eager_reports, eager_peak) = run, eager_run
        assert got == want, f"trial {trial}"
        assert stale <= eager_stale and peak <= eager_peak, f"trial {trial}"
        assert _is_sublist(reports, eager_reports), f"trial {trial}"
    return records


# relations whose completion reaches the unit ideal at a degree whose
# overlaps were listed, right after popping a polynomial, and right after
# popping a pair
_UNIT_AT_A_LISTED_DEGREE = ("-z*z*y + x*y*x + 2", "-z*y + 4*x", "2*y*z - x")
_UNIT_AFTER_A_POLYNOMIAL = (
    "-y*y - x*y + 2*x*x", "2*x + 2", "2*y*y - x*x - 1", "-y*y*y + y*x + 2",
)
_UNIT_AFTER_A_PAIR = ("z*x*x + 2*z", "-x*z*z + x*y*x", "x*x*y + y*y + 2*z", "2*z + 2")

_EAGER_QUEUE_CASES = {
    **{f"golden {key}": (PRESENTATIONS[key], SYSTEM_DEGREES[key]) for key in sorted(PRESENTATIONS)},
    **{case: (lambda b=build, w=w: b(w), d) for case, (build, w, d) in _SPLIT_SYSTEMS.items()},
}


@pytest.mark.parametrize("case", _EAGER_QUEUE_CASES)
@pytest.mark.hashseed
def test_eager_queue_gives_the_same_run(case):
    """Queuing each degree's overlaps when the drain reaches it inserts the
    same leads in the same order, with the same dump and counters, as
    queuing every overlap when its second lead arrives; that queue pops
    only more stale pairs and never holds less."""
    build, degree = _EAGER_QUEUE_CASES[case]
    relations = list(build().relations)
    _compare_with_the_eager_queue(lambda: [complete(relations, degree)])


@pytest.mark.hashseed
def test_eager_queue_gives_the_same_run_on_random_completions():
    runs, eager_runs = _compare_with_the_eager_queue(
        lambda: [system for _, system in _random_completions()]
    )
    # in a few runs the eager queue pops stale pairs alone at a degree,
    # which it reports and the frontier does not
    assert sum(run[2] != eager[2] for run, eager in zip(runs, eager_runs)) == 6


@pytest.mark.hashseed
def test_eager_queue_gives_the_same_run_on_random_completions_split(monkeypatch):
    forks = _split_always(monkeypatch)
    _compare_with_the_eager_queue(lambda: [system for _, system in _random_completions()])
    assert len(forks) > 100
    _assert_no_child_left()


# (letters, relations, degree) of completions that end in the unit ideal
_UNIT_IDEAL_CASES = {
    "unit": ("g", ("g - 1", "g"), 3),
    "unit at a listed degree": ("xyz", _UNIT_AT_A_LISTED_DEGREE, 4),
    "unit after a polynomial": ("xy", _UNIT_AFTER_A_POLYNOMIAL, 4),
    "unit after a pair": ("xyz", _UNIT_AFTER_A_PAIR, 4),
}


def _unit_ideal_relations(case):
    letters, relations, degree = _UNIT_IDEAL_CASES[case]
    a = free_alphabet(*letters)
    return [parse_poly(a, text) for text in relations], degree


@pytest.mark.parametrize("case", _UNIT_IDEAL_CASES)
@pytest.mark.hashseed
def test_eager_queue_gives_the_same_run_on_the_unit_ideal(case):
    polys, degree = _unit_ideal_relations(case)
    [((inserted, _, shared), _, _, _)], _ = _compare_with_the_eager_queue(
        lambda: [complete(polys, degree)]
    )
    # the shared pairs popped are those that were not stale
    assert inserted[-1] == "" and shared.pairs_popped + shared.requeued_polys == (
        shared.reductions_to_zero + shared.new_rules
    )


@pytest.mark.hashseed
def test_eager_queue_gives_the_same_run_with_shorter_leads_at_the_top_degree(monkeypatch):
    """hw(cyclic2) at D=8 inserts four leads shorter than 8 after the drain
    has popped its first item of degree 8; their overlaps are queued at
    once."""
    late = []
    insert = rewrite._Completion.insert

    def watched(st, reduced):
        lead = _lead_of(reduced)
        insert(st, reduced)
        # the drain reports each degree at its first pop
        if st.reports[-1][0] == 8 and len(lead) < 8:
            late.append(lead)

    monkeypatch.setattr(rewrite._Completion, "insert", watched)
    relations = list(build_hw(CYCLIC2).relations)
    [[(_, _, _, peak)], [(_, _, _, eager_peak)]] = _compare_with_the_eager_queue(
        lambda: [complete(relations, 8)]
    )
    assert len(late) == 2 * 4  # once with the frontier, once eager
    assert (peak, eager_peak) == (583, 1140)


def _shortest_later_leads(state):
    """Check the walk of ``interreduce`` against the leads one run
    inserted: ``by_word`` holds the live leads in the order they were
    inserted, none was inserted twice, and at each live lead the shortest
    live lead inserted after it is as long as the shortest of all the leads
    inserted after it.  Count the live leads with an evicted lead inserted
    after them."""
    leads, inserted = state.index.by_word, state.inserted
    assert len(set(inserted)) == len(inserted)
    assert list(leads) == [lead for lead in inserted if lead in leads]
    live = every = _NO_LEAD
    evicted_after = False
    counted = 0
    for lead in reversed(inserted):
        if lead in leads:
            assert live == every, lead
            counted += evicted_after
            live = min(live, len(lead))
        else:
            evicted_after = True
        every = min(every, len(lead))
    return counted


@pytest.mark.parametrize(
    "case", [*(f"golden {key}" for key in sorted(PRESENTATIONS)), *_UNIT_IDEAL_CASES]
)
@pytest.mark.hashseed
def test_live_leads_give_the_shortest_later_lead(case):
    """Interreduction walks back over the live leads alone and keeps the
    length of the shortest as the shortest of every lead inserted later:
    each evicted lead was evicted by a later, shorter one."""
    if case in _UNIT_IDEAL_CASES:
        relations, degree = _unit_ideal_relations(case)
    else:
        build, degree = _EAGER_QUEUE_CASES[case]
        relations = list(build().relations)
    with _completion_states() as states:
        complete(relations, degree)
    [state] = states
    _shortest_later_leads(state)


@pytest.mark.hashseed
def test_live_leads_give_the_shortest_later_lead_on_random_completions():
    with _completion_states() as states:
        runs = sum(1 for _ in _random_completions())
    assert len(states) == runs
    assert sum(map(_shortest_later_leads, states)) > 0


def _checked_tables(monkeypatch):
    """After every insertion of a completion, check the live index against
    its leads: the prefix table is every proper prefix of every lead, each
    sliced afresh, and the leads with their tails, ``shortest`` is the
    length of the shortest lead, and no set of the overlap maps holds a
    lead of the top length D.  Count the insertions, and those that left a
    lead of length D live."""
    seen = {"inserts": 0, "with_top": 0}
    insert = rewrite._Completion.insert

    def checked(st, reduced):
        insert(st, reduced)
        index, top = st.index, st.index.top
        leads = index.by_word
        fresh = dict.fromkeys((lead[:i] for lead in leads for i in range(1, len(lead))), _PREFIX)
        fresh.update(leads)
        assert index.table == fresh
        assert index.shortest == min(map(len, leads), default=_NO_LEAD)
        affixed = itertools.chain(*index.prefixes.values(), *index.suffixes.values())
        assert top not in set(map(len, affixed))
        seen["inserts"] += 1
        seen["with_top"] += bool(index.by_len.get(top))

    monkeypatch.setattr(rewrite._Completion, "insert", checked)
    return seen


@pytest.mark.parametrize("case", _EAGER_QUEUE_CASES)
@pytest.mark.hashseed
def test_live_table_matches_a_fresh_table(case, monkeypatch):
    """The golden systems and the split systems, hw(e3) at D=4 among them,
    where 39 shorter leads arrive at the top degree and evict length-4
    leads whose prefixes other length-4 leads share."""
    build, degree = _EAGER_QUEUE_CASES[case]
    relations = list(build().relations)
    seen = _checked_tables(monkeypatch)
    system = complete(relations, degree)
    assert seen["inserts"] == system.stats.new_rules > 0


@pytest.mark.hashseed
def test_live_table_matches_a_fresh_table_on_random_completions(monkeypatch):
    seen = _checked_tables(monkeypatch)
    new_rules = sum(system.stats.new_rules for _, system in _random_completions())
    assert seen["inserts"] == new_rules and seen["with_top"] > 0


@pytest.mark.parametrize("case", _UNIT_IDEAL_CASES)
@pytest.mark.hashseed
def test_live_table_matches_a_fresh_table_on_the_unit_ideal(case, monkeypatch):
    polys, degree = _unit_ideal_relations(case)
    seen = _checked_tables(monkeypatch)
    system = complete(polys, degree)
    assert system.rules[0].lead == "" and seen["inserts"] == system.stats.new_rules


def _watch_children(monkeypatch):
    """Record, for each child, the queue length at the fork and the pops
    counted when it was first stopped."""
    seen = []
    fork, stop = rewrite._ForkedChild.fork, rewrite._ForkedChild.stop

    def watched_fork(index, start, part):
        seen.append([start + len(part()), None])
        return fork(index, start, part)

    def watched_stop(child):
        if child.pid is not None:
            seen[-1][1] = child.popped
        stop(child)

    monkeypatch.setattr(rewrite._ForkedChild, "fork", staticmethod(watched_fork))
    monkeypatch.setattr(rewrite._ForkedChild, "stop", watched_stop)
    return seen


@pytest.mark.hashseed
def test_split_top_degree_leaves_no_child_after_a_run_or_a_cancel(monkeypatch):
    hb = list(build_hb(make_bilinear([[1, 2], [3, 5]])).relations)
    e3 = list(build_hw(make_signature(3)).relations)
    expected = [_sequential(hb, 5), _sequential(e3, 4)]
    _split_always(monkeypatch)
    seen = _watch_children(monkeypatch)
    got = [complete(hb, 5)]
    _assert_no_child_left()
    got.append(complete(e3, 4))
    _assert_no_child_left()
    assert [s.dump() for s in got] == [s.dump() for s in expected]
    # hb pops its whole top degree with the child; hw(e3) at D=4 stops it
    # when the first shorter lead arrives, with the queue not yet empty
    (n5, popped5), (n4, popped4) = seen
    assert popped5 == n5 and popped4 < n4


def _random_relations(seed):
    """Nonzero relations of degree 1 to 3 with small integer coefficients
    in two or three letters, and a degree bound from 4 to 6."""
    rng = random.Random(seed)
    a = free_alphabet(*"wxyz"[: rng.randint(2, 3)])
    chars = [a.char(g) for g in a.generators]
    rels = []
    while not rels:
        for _ in range(rng.randint(1, 4)):
            terms = {}
            for _ in range(rng.randint(1, 4)):
                w = "".join(rng.choice(chars) for _ in range(rng.randint(1, 3)))
                terms[w] = terms.get(w, 0) + rng.choice((-2, -1, 1, 2, 3))
            rels.append(NcPoly(a, terms))
        rels = [r for r in rels if not r.is_zero()]
    return rels, rng.randint(4, 6)


# seeds where a lead shorter than D arrives at the top degree late enough
# that a fork before it has the parent take results from the child first
_LATE_CANCEL_SEEDS = [308, 1133, 1757, 2165]


def _top_degree_steps(monkeypatch, fork_after=None):
    """Record the listing of the top degree D and each insertion after it:
    the length of the new lead (D for the listing), the queue length after
    the step and the pops counted so far.  With ``fork_after`` given, the
    pop after that many steps forks."""
    records = []
    list_overlaps, insert = rewrite._Completion.list_overlaps, rewrite._Completion.insert

    def record(st, n):
        if st.frontier == st.index.top:
            pops = st.stats.pairs_popped + st.stats.requeued_polys
            records.append((n, len(st.heap), pops))
            if len(records) == fork_after:
                rewrite._SPLIT_MIN_ITEMS = 1  # the next pop forks

    def watched_list_overlaps(st, degree):
        list_overlaps(st, degree)
        record(st, degree)

    def watched_insert(st, reduced):
        n = len(_lead_of(reduced))
        insert(st, reduced)
        record(st, n)

    monkeypatch.setattr(rewrite._Completion, "list_overlaps", watched_list_overlaps)
    monkeypatch.setattr(rewrite._Completion, "insert", watched_insert)
    return records


def _late_fork(records, degree):
    """(j, n_items, takes) for the first fork, after the j-th step at the
    top degree with ``n_items`` items queued, whose child is stopped by the
    first lead shorter than D there at its take number ``takes``: inside
    the child's part and before the queue is empty; None if no fork does.
    No pushes come between: until that lead arrives, the top degree queues
    and evicts nothing."""
    cancel = next(pops for n, _, pops in records if n < degree)
    for j, (n, n_items, pops) in enumerate(records, 1):
        if n < degree:
            return None
        takes = cancel - pops
        if n_items - n_items * 9 // 20 < takes < n_items:
            return j, n_items, takes


@pytest.mark.parametrize("seed", _LATE_CANCEL_SEEDS)
@pytest.mark.hashseed
def test_split_top_degree_stops_the_child_after_taking_its_results(seed, monkeypatch):
    """Forked at a pop chosen from a sequential run, so that the first lead
    shorter than D at the top degree arrives after the parent has taken
    results from the child: the child is stopped there, and the dump and
    the stats are the sequential ones."""
    relations, degree = _random_relations(seed)
    with pytest.MonkeyPatch.context() as mp:
        records = _top_degree_steps(mp)
        expected = _sequential(relations, degree)
    fork = _late_fork(records, degree)
    assert fork is not None
    fork_after, n_items, takes = fork
    forks = _split_always(monkeypatch, block=2)
    monkeypatch.setattr(rewrite, "_SPLIT_MIN_ITEMS", sys.maxsize)
    _top_degree_steps(monkeypatch, fork_after)
    seen = _watch_children(monkeypatch)
    system = complete(relations, degree)
    assert system.dump() == expected.dump() and system.stats == expected.stats
    _assert_no_child_left()
    assert forks == [1] and seen == [[n_items, takes]]
    assert n_items - n_items * 9 // 20 < takes < n_items


class _DiesAfter:
    """A lead index whose reductions raise after the first ``n``: a child
    handed it dies, after sending the blocks it had finished."""

    def __init__(self, index, n):
        self.by_word = index.by_word
        self.s_poly = index.s_poly
        self.index = index
        self.n = n

    def reduce_terms(self, terms):
        self.n -= 1
        if self.n < 0:
            raise RuntimeError("a broken index")
        return self.index.reduce_terms(terms)


@pytest.mark.parametrize("n", [0, 20])
@pytest.mark.hashseed
def test_split_top_degree_survives_a_child_that_dies(n, monkeypatch):
    relations = list(build_hb(make_bilinear([[1, 2], [3, 5]])).relations)
    expected = _sequential(relations, 6)
    _split_always(monkeypatch, block=8)
    fork = rewrite._ForkedChild.fork
    monkeypatch.setattr(
        rewrite._ForkedChild, "fork",
        staticmethod(lambda index, start, part: fork(_DiesAfter(index, n), start, part)),
    )
    seen = _watch_children(monkeypatch)
    system = complete(relations, 6)
    assert system.dump() == expected.dump() and system.stats == expected.stats
    _assert_no_child_left()
    # the parent stopped the child at a block it could not read, in the
    # child's part of the queue, and reduced the rest itself
    [(n_items, popped)] = seen
    assert n_items - n_items * 9 // 20 < popped < n_items


@pytest.mark.hashseed
def test_split_top_degree_reaps_the_child_when_the_run_raises(monkeypatch):
    _split_always(monkeypatch)
    seen = _watch_children(monkeypatch)

    def progress(degree, rules):
        if degree == 6:
            raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        complete(list(build_hw(CYCLIC2).relations), 6, progress)
    assert len(seen) == 1
    _assert_no_child_left()


@pytest.mark.hashseed
def test_split_top_degree_does_not_fork_beside_another_thread(monkeypatch):
    relations = list(build_hw(make_signature(3)).relations)
    expected = _sequential(relations, 4)
    _split_always(monkeypatch)

    def refuse():
        raise AssertionError("forked beside a second thread")

    monkeypatch.setattr(os, "fork", refuse)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    waiter.start()
    try:
        system = complete(relations, 4)
    finally:
        release.set()
        waiter.join()
    assert system.dump() == expected.dump() and system.stats == expected.stats


def _same_terms(got, want):
    """The same words with the same values, each of the same int/Fraction
    type."""
    return got == want and all(type(c) is type(want[w]) for w, c in got.items())


def _checked_skips(monkeypatch):
    """Check the work completion skips against the full reduction, and count
    it: a tail that interreduction leaves as it is reduces to itself."""
    seen = {"tails": 0}
    may_rewrite = _LiveIndex.may_rewrite

    def checked_may_rewrite(index, tail, shortest):
        if may_rewrite(index, tail, shortest):
            return True
        assert _same_terms(index.reduce_terms(tail), tail)
        seen["tails"] += 1
        return False

    monkeypatch.setattr(_LiveIndex, "may_rewrite", checked_may_rewrite)
    return seen


@pytest.mark.parametrize(
    "case", [*_SPLIT_SYSTEMS, *(f"seed {seed}" for seed in _LATE_CANCEL_SEEDS)]
)
@pytest.mark.hashseed
def test_split_top_degree_skips_only_work_that_changes_nothing(case, monkeypatch):
    """With the top degree split, every tail that interreduction skips is
    normal, and the skipped and the reduced tails add up to the rules."""
    if case in _SPLIT_SYSTEMS:
        build, w, degree = _SPLIT_SYSTEMS[case]
        relations = list(build(w).relations)
    else:
        relations, degree = _random_relations(int(case.split()[1]))
    _split_always(monkeypatch, block=2)
    seen = _checked_skips(monkeypatch)
    system = complete(relations, degree)
    _assert_no_child_left()
    assert seen["tails"] > 0
    assert seen["tails"] + system.stats.tails_reduced == len(system.rules)


@pytest.mark.hashseed
def test_split_top_degree_skips_only_work_that_changes_nothing_on_random_completions(
    monkeypatch,
):
    forks = _split_always(monkeypatch)
    seen = _checked_skips(monkeypatch)
    skipped = 0
    for trial, system in _random_completions():
        assert seen["tails"] - skipped + system.stats.tails_reduced == len(system.rules), trial
        skipped = seen["tails"]
    _assert_no_child_left()
    assert len(forks) > 50


def _assert_tails_are_normal(system):
    """No word of any tail holds a lead: all of them reduce to themselves
    in one reduction."""
    index = system._index
    words = dict.fromkeys((w for tail in index.by_word.values() for w in tail), 1)
    assert index.reduce_terms(words) == words


@pytest.mark.parametrize("key", sorted(PRESENTATIONS))
@pytest.mark.hashseed
def test_every_tail_of_a_golden_system_is_normal(key):
    _assert_tails_are_normal(system_for(PRESENTATIONS[key](), SYSTEM_DEGREES[key]))


def test_every_tail_of_a_random_completion_is_normal():
    for _, system in _random_completions():
        _assert_tails_are_normal(system)


@pytest.mark.parametrize("case", ["hw(cyclic2) D=5", "hw(cyclic2) D=8", "hw(e3) D=4"])
@pytest.mark.hashseed
def test_split_top_degree_forked_after_a_shorter_lead_gives_the_sequential_run(
    case, monkeypatch
):
    """Forked at the first top-only queue after the last shorter lead that
    arrives while a length-D lead is live, so that an older length-D lead
    may have a tail that holds a shorter lead: the dump and the stats are
    the sequential ones."""
    build, w, degree = _SPLIT_SYSTEMS[case]
    relations = list(build(w).relations)
    shorter, fork_after = [], [0]
    insert = rewrite._Completion.insert

    def watched_insert(st, reduced):
        had_top = bool(st.index.by_len.get(degree))
        n = len(_lead_of(reduced))
        insert(st, reduced)
        if had_top and n < degree:
            # a shorter lead after a length-D lead: is one still live?
            shorter.append(bool(st.index.by_len.get(degree)))
            if len(shorter) == fork_after[0]:
                rewrite._SPLIT_MIN_ITEMS = 1  # the next top-only queue forks

    monkeypatch.setattr(rewrite._Completion, "insert", watched_insert)
    expected = _sequential(relations, degree)
    fork_after[0] = len(shorter)
    shorter.clear()
    forks = _split_always(monkeypatch, block=2)
    monkeypatch.setattr(rewrite, "_SPLIT_MIN_ITEMS", sys.maxsize)
    _checked_skips(monkeypatch)
    system = complete(relations, degree)
    _assert_no_child_left()
    assert fork_after[0] > 0 and shorter[-1] and forks == [1]
    assert system.dump() == expected.dump() and system.stats == expected.stats


def _second_reductions(monkeypatch):
    """Count the child results that the parent reduces once more, and those
    that the second reduction changes."""
    seen = {"taken": 0, "changed": 0}
    taken = []
    take, reduce_terms = rewrite._ForkedChild.take, rewrite._LeadIndex.reduce_terms

    def watched_take(child):
        done = take(child)
        taken[:] = [] if done is None else [done]
        return done

    def watched_reduce_terms(index, terms):
        reduced = reduce_terms(index, terms)
        if taken and terms is taken[0]:
            taken.clear()
            seen["taken"] += 1
            seen["changed"] += reduced != terms
        return reduced

    monkeypatch.setattr(rewrite._ForkedChild, "take", watched_take)
    monkeypatch.setattr(rewrite._LeadIndex, "reduce_terms", watched_reduce_terms)
    return seen


@pytest.mark.parametrize(
    "case, split_min", [("hw(e3) D=5", rewrite._SPLIT_MIN_ITEMS), ("hb(1235) D=6", 1)]
)
@pytest.mark.hashseed
def test_split_top_degree_second_reduction_rewrites_child_results(case, split_min, monkeypatch):
    """Leads of length D inserted after the fork rewrite some of the
    child's results, so the parent's second reduction does real work: 473
    of 5 788 results at hw(e3) D=5, which forks at the shipped threshold,
    and 54 of 61 at hb(1235) D=6 when every top degree forks."""
    build, w, degree = _SPLIT_SYSTEMS[case]
    relations = list(build(w).relations)
    expected = _sequential(relations, degree)
    forks = _split_always(monkeypatch)
    monkeypatch.setattr(rewrite, "_SPLIT_MIN_ITEMS", split_min)
    seen = _second_reductions(monkeypatch)
    system = complete(relations, degree)
    _assert_no_child_left()
    assert forks == [1] and seen["changed"] > 0
    assert system.dump() == expected.dump() and system.stats == expected.stats


def _declared_higher(system, by):
    """The rules of ``system`` claimed complete ``by`` degrees higher, so
    that their overlaps above its degree are unresolved."""
    degree = system.degree_bound + by
    return RewriteSystem(system.alphabet, system.rules, degree, degree)


def _random_rule_systems(count):
    """Seeded systems of up to 8 rules over three letters, audited to
    degree 6: pairwise factor-free leads of 2 to 4 letters, each with up to
    3 tail words below it in deglex.  Most of their overlaps are
    unresolved."""
    rng = random.Random(20261024)
    a = free_alphabet("x", "y", "z")
    letters = [a.char(g) for g in a.generators]

    def word(n):
        return "".join(rng.choice(letters) for _ in range(n))

    for _ in range(count):
        tails = {}
        for _ in range(8):
            n = rng.randint(2, 4)
            lead = word(n)
            if any(old in lead or lead in old for old in tails):
                continue
            words = [word(rng.randint(0, n)) for _ in range(rng.randint(0, 3))]
            # among words of one length, a larger string is lower in deglex
            below = [w for w in words if len(w) < n or w > lead]
            tails[lead] = {w: rng.choice(_COEFFICIENTS) for w in below}
        yield RewriteSystem(a, [Rule(lead, NcPoly(a, t)) for lead, t in tails.items()], 6, 6)


def _cyclic2_above_its_degree():
    """hw(cyclic2) completed at D=6 and claimed complete at D=8: 1 000 and
    more overlaps, many of them unresolved."""
    return _declared_higher(complete(list(build_hw(CYCLIC2).relations), 6), 2)


def _unresolved_by_brute_force(system):
    """The unresolved (l1, l2, word) overlaps of ``system``, found with no
    code of the audit's: every ordered pair of leads and every suffix of l1
    that is a prefix of l2, shorter than both, whose word l1.z = x.l2 has
    degree <= D; each S-polynomial tail(l1).z - x.tail(l2) is reduced by
    the slices."""
    tails = system._index.by_word
    bad = []
    for l1, l2 in itertools.product(tails, repeat=2):
        for k in range(1, min(len(l1), len(l2))):
            word = l1 + l2[k:]
            if l1[-k:] != l2[:k] or len(word) > system.degree_bound:
                continue
            x, z = l1[:-k], l2[k:]
            terms = collections.Counter()
            for w, c in tails[l1].items():
                terms[w + z] += c
            for w, c in tails[l2].items():
                terms[x + w] -= c
            if reduce_by_slices(dict(terms), tails):
                bad.append((l1, l2, word))
    return bad


_AUDITED = {
    "two rules": lambda: [_two_rule_system()],
    "three rules": lambda: [_three_rule_system()],
    "30 random systems": lambda: list(_random_rule_systems(30)),
    "hw(cyclic2) D=6 declared D=8": lambda: [_cyclic2_above_its_degree()],
    "hw(cyclic2) D=8": lambda: [complete(list(build_hw(CYCLIC2).relations), 8)],
    **{
        key: lambda key=key: [system_for(PRESENTATIONS[key](), SYSTEM_DEGREES[key])]
        for key in sorted(PRESENTATIONS)
    },
}
# how many overlaps each case leaves unresolved; the golden systems none
_UNRESOLVED = {"two rules": 1, "three rules": 6, "30 random systems": 225,
               "hw(cyclic2) D=6 declared D=8": 291}


@pytest.mark.parametrize("case", _AUDITED)
def test_unresolved_overlaps_match_a_brute_force_oracle(case):
    """The audit flags the overlaps the brute-force oracle finds unresolved,
    each once, by the rule rank of the first lead, then of the second, then
    longest word first."""
    total = 0
    for system in _AUDITED[case]():
        got = unresolved_overlaps(system)
        assert sorted(got) == sorted(_unresolved_by_brute_force(system))
        rank = {rule.lead: i for i, rule in enumerate(system.rules)}
        assert got == sorted(got, key=lambda t: (rank[t[0]], rank[t[1]], -len(t[2])))
        total += len(got)
    assert total == _UNRESOLVED.get(case, 0)


def test_unresolved_overlaps_never_forks(monkeypatch):
    """The audit runs in one process, with a second CPU at hand or not."""
    systems = [complete(list(build_hw(CYCLIC2).relations), 8), _cyclic2_above_its_degree()]

    def refuse():
        raise AssertionError("the audit forked")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "fork", refuse)
    assert unresolved_overlaps(systems[0]) == []
    assert len(unresolved_overlaps(systems[1])) == 291


_SCALED = {
    "hw(cyclic2) D=6": (build_hw, CYCLIC2, 6),
    "bw(cyclic2) D=6": (build_bw, CYCLIC2, 6),
    "hw(e3) D=4": (build_hw, make_signature(3), 4),
}
_SCALES = (2, -3, Fraction(1, 2), Fraction(-3, 5))


@pytest.mark.parametrize("case", _SCALED)
def test_scaled_relations_complete_to_the_same_dump(case):
    """A lead coefficient other than +-1 sends insertion through its
    division branch; the monic rules must not see the scale, and every
    coefficient handed out is a Fraction, never an int or a float."""
    build, w, degree = _SCALED[case]
    relations = list(build(w).relations)
    rng = random.Random(f"scaled {case}")
    scaled = [r.scale(rng.choice(_SCALES)) for r in relations]
    system = complete(scaled, degree)
    assert system.dump() == complete(relations, degree).dump()
    rules = system.rules
    handed = [c for rule in rules for c in rule.tail.terms.values()]
    for rule in rng.sample(rules, min(20, len(rules))):
        nf = normal_form(NcPoly.from_word(system.alphabet, rule.lead, 2), system)
        assert nf == rule.tail.scale(2)
        handed += nf.terms.values()
    assert handed and all(type(c) is Fraction for c in handed)


def test_rules_are_a_sequence_that_builds_each_rule_when_read():
    a = free_alphabet("p", "q")
    system = complete([parse_poly(a, "2*q*p - 3*p + 1/2"), parse_poly(a, "p*p - q")], 4)
    rules = system.rules
    whole = list(rules)
    assert rules is system.rules and len(rules) == len(whole) > 2
    assert [r.lead for r in whole] == sorted((r.lead for r in whole), key=deglex_key)
    assert rules[-1] == whole[-1] and rules[1:3] == whole[1:3]
    # a handed-out tail is a copy: changing it leaves the system alone
    dump = system.dump()
    rules[0].tail.terms.clear()
    assert system.dump() == dump and rules[0] == whole[0]


def test_rules_are_in_deglex_order_of_generator_keys():
    system = complete(list(build_hw(CYCLIC2).relations), 5)
    a = system.alphabet
    leads = [r.lead for r in system.rules]
    by_keys = sorted(leads, key=lambda w: (len(w), [g.key for g in a.letters(w)]))
    assert len(leads) > 50 and leads == by_keys


def test_handed_out_coefficients_are_fractions_with_and_without_denominators():
    a = free_alphabet("p", "q")
    rels = [parse_poly(a, "2*q*p - 3*p + 1/2"), parse_poly(a, "p*p - q")]
    completed = complete(rels, 4)
    for system in (completed, RewriteSystem.parse(completed.dump())):
        handed = [c for rule in system.rules for c in rule.tail.terms.values()]
        for probe in ("q*p*p + 5*q*p - 7", "7"):
            handed += normal_form(parse_poly(a, probe), system).terms.values()
        # a query with denominators is reduced as d.p over the integers
        for probe in ("1/2*q*p*p + 2/3*q*p - 3/5", "1/2*p*q - 3/5*q + 2/3*p*p*p"):
            p = parse_poly(a, probe)
            nf = normal_form(p, system)
            assert nf == normal_form(p.scale(30), system).scale(Fraction(1, 30))
            assert nf == normal_form(p.scale(-60), system).scale(Fraction(-1, 60))
            handed += nf.terms.values()
        assert all(type(c) is Fraction for c in handed)
        # integral values and values with a denominator both come out
        denominators = {c.denominator for c in handed}
        assert 1 in denominators and max(denominators) > 1


def test_agreement_with_the_span_oracle_seeded():
    rng = random.Random(20260821)
    for trial in range(12):
        n_gens = rng.choice([2, 2, 3])
        names = ["x", "y", "z"][:n_gens]
        a = free_alphabet(*names)
        chars = [a.char(g) for g in a.generators]
        degree = rng.choice([3, 4])

        def rand_relation():
            terms = {}
            for _ in range(rng.randrange(1, 4)):
                w = "".join(rng.choice(chars) for _ in range(rng.randrange(1, 3)))
                c = rng.randrange(-2, 3)
                if c:
                    terms[w] = terms.get(w, 0) + c
            return NcPoly(a, terms)

        rels = [rand_relation() for _ in range(rng.randrange(1, 4))]
        rels = [r for r in rels if not r.is_zero()]
        if not rels:
            continue
        system = complete(rels, degree)
        assert unresolved_overlaps(system) == [], f"trial {trial} not confluent"
        oracle = SpanOracle(rels, degree)

        def rand_probe():
            terms = {}
            for _ in range(rng.randrange(1, 4)):
                w = "".join(rng.choice(chars) for _ in range(rng.randrange(0, degree + 1)))
                terms[w] = terms.get(w, 0) + rng.randrange(-2, 3)
            return NcPoly(a, terms)

        for _ in range(20):
            p = rand_probe()
            assert ideal_member(p, system) == oracle.member(p), (
                f"trial {trial} disagrees on {p.to_str()}"
            )
        # every relation and every rule polynomial is in the ideal both ways
        for r in rels:
            assert ideal_member(r, system) and oracle.member(r)
        for rule in system.rules:
            rp = NcPoly.from_word(a, rule.lead) - rule.tail
            assert oracle.member(rp)
