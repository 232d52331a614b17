import random
import re
from fractions import Fraction

import pytest

from hopfw.forms import MultilinearForm, make_signature
from hopfw.hopf import build_bw, build_hw
from hopfw.ncalg import Alphabet, Generator, NcPoly, deglex_key, parse_poly
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
    first_lead_by_scan,
    first_lead_by_slices,
    marker,
    reduce_by_slices,
)
from span_oracle import SpanOracle


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


def test_unresolved_overlaps_flags_a_non_confluent_system():
    a = free_alphabet("x", "y", "z")
    x, y, z = (a.char(g) for g in a.generators)
    # ab -> a and bc -> b leave the word abc with two distinct normal forms
    rules = [
        Rule(x + y, NcPoly(a, {x: 1})),
        Rule(y + z, NcPoly(a, {y: 1})),
    ]
    s = RewriteSystem(a, rules, 3, 3)
    assert unresolved_overlaps(s) == [(x + y, y + z, x + y + z)]
    fixed = complete([parse_poly(a, "x*y - x"), parse_poly(a, "y*z - y")], 3)
    assert unresolved_overlaps(fixed) == []
    # completion added the missing consequence x*z -> x*y -> x
    assert normal_form(parse_poly(a, "x*z"), fixed) == parse_poly(a, "x")


def test_unresolved_overlaps_keeps_rule_order_then_growing_overlap():
    a = free_alphabet("x", "y", "z")
    x, y, z = (a.char(g) for g in a.generators)
    rules = [
        Rule(x + x + x, NcPoly(a, {y: 1})),
        Rule(y + x, NcPoly(a, {x: 1})),
        Rule(x + y, NcPoly(a, {z: 1})),
    ]
    s = RewriteSystem(a, rules, 5, 5)
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
    After every step the table holds exactly the live leads and their
    proper prefixes, each prefix counted once per lead it starts; its
    ``shortest`` is the length of the shortest live lead, also after the
    last lead of that length goes; and the scan finds the same (position,
    lead) as probing every slice."""
    rng = random.Random(20261020)
    letters = "\u0100\u0101\u0102"
    index = _LiveIndex()
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
    index = _LiveIndex()
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
    index = _LiveIndex()
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


@pytest.mark.parametrize("lead", ["\u0105", "\u0100\u0102", "\u00ff"])
def test_constructor_refuses_a_lead_outside_the_alphabet(lead):
    # the letters of x and y are chr(0x101) and chr(0x100); the others spell
    # no generator, and a dump of the rule would drop them from its lead
    a = free_alphabet("x", "y")
    message = re.escape(f"rule lead {lead!r} is not spelled in the alphabet")
    with pytest.raises(ValueError, match=message):
        RewriteSystem(a, [Rule(lead, NcPoly.zero(a))], 2, 2)


# (degree, (pairs popped, stale pairs, reductions to zero, new rules,
# requeued polynomials), final rules, length of the shortest lead) of hw(w)
# completed in builder order
_E3_COUNTERS = [
    (4, (4036, 882, 2115, 1576, 537), 1084, 2),
    (5, (22701, 6683, 11721, 4834, 537), 4342, 2),
]
# cyclic2 has two relations with one leading word, so arrival breaks a tie
# in the queue, and these totals pin the queue's order as well
_CYCLIC2_COUNTERS = [
    (6, (1776, 1097, 603, 191, 115), 92, 1),
    (8, (2846, 1181, 1487, 297, 119), 194, 1),
]
CYCLIC2 = MultilinearForm(2, 3, {(1, 1, 2): 1, (1, 2, 1): 1, (2, 1, 1): 1})


def _check_completion_counters(w, degree, totals, rules, shortest):
    system = complete(list(build_hw(w).relations), degree)
    st = system.stats
    got = (st.pairs_popped, st.stale_pairs, st.reductions_to_zero, st.new_rules, st.requeued_polys)
    assert got == totals
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
def test_completion_counters_of_hw_e3(degree, totals, rules, shortest):
    _check_completion_counters(make_signature(3), degree, totals, rules, shortest)


@pytest.mark.parametrize("degree, totals, rules, shortest", _CYCLIC2_COUNTERS, ids=["D6", "D8"])
def test_completion_counters_of_hw_cyclic2(degree, totals, rules, shortest):
    _check_completion_counters(CYCLIC2, degree, totals, rules, shortest)


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
