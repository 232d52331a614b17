"""Degree-truncated completion and rewriting in the free algebra.

Relations are turned into monic rewrite rules ``lead -> tail`` with the lead
strictly above every tail word in deglex.  Completion resolves every overlap
ambiguity whose overlap word has degree <= D (deglex is degree-compatible, so
rewriting never raises degree and the truncation is sound): normal forms then
decide, for polynomials of degree <= D, whether a rewriting certificate of
degree <= D exists.  ``True`` from :func:`ideal_member` is always a genuine
membership certificate; ``False`` means no certificate within the completed
degree, and a polynomial above the certified degree raises
:class:`NotCertifiedError` instead of guessing.

Implementation notes, sized for thousands of rules:

* one prefix table for every lead lookup -- a dict maps each lead to its
  tail and each nonempty proper prefix of a lead to a marker.  Reduction
  scans each word it pops for the leftmost lead: from each position where
  the shortest lead still fits, its first probe is as long as that lead,
  then it walks forward one letter a probe and stops at a miss or at a
  lead.  A shorter first probe could only find a prefix or miss; the
  index keeps the shortest lead's length as leads come and go.  The table is
  a trie of the leads; the scan restarts at each position instead of taking
  Aho & Corasick's failure links (CACM 1975), since a word is at most D
  letters long.  Live leads are factor-free, so no lead is a prefix of another
  and the two kinds of key never collide.  An eviction drops each prefix
  of the evicted lead that no live lead still starts with, which the prefix
  map below already says.  A frozen system keeps only the table and its
  tails: completion builds the live index with the maps below for itself,
  and the audit rebuilds it from the frozen rules when it runs;
* overlap enumeration through prefix/suffix maps keyed by (affix, lead
  length): every proper prefix and suffix of each live lead is indexed with
  the lead's length, so a new rule meets only the rules it genuinely
  overlaps, and only through the lengths that keep the overlap word within
  the degree bound -- overlaps above D are never built;
* pending S-polynomials are queued as descriptors (the two leads and the
  splitting words) and materialized against the *current* tails at pop time;
  descriptors whose parent rule has been retracted are dropped, because the
  retracting insertion re-queued every overlap of its replacement;
* retraction keeps live leads pairwise factor-free: a new lead evicts every
  longer live lead containing it (checked per length bucket), and the evicted
  polynomial re-enters the queue;
* after the queue drains, each tail is reduced once, leads ascending;
* no key function in reduction -- the alphabet numbers its letters
  downward (see :class:`~hopfw.ncalg.Alphabet`), so among words of one
  length plain string order is descending deglex.  ``reduce_terms`` keeps
  one heap of bare words per length and pops the longest length first,
  with no translation of the several hundred thousand words a completion
  pushes; a word that cancels stays in the worklist with value 0, so no
  word is pushed twice.  Every other order on words -- leads, the gate's
  tail check, interreduction, the audit -- is the natural key
  ``(-len(w), w)``, the order the heaps pop in.  Only the completion queue,
  which pops in ascending deglex, respells its keys with
  ``Alphabet.rank_spelling``;
* integer coefficients -- inside the engine an integral coefficient is a
  plain ``int`` and only a value with a denominator is a ``Fraction``;
  :mod:`~hopfw.exactnum` converts between the two forms.  Input relations
  enter through ``lean_terms``, and a dump's tails are read straight into
  this form: the rule lines of a canonical dump all at once
  (``_read_canonical_words`` and ``_read_canonical_terms``, the bulk reader
  that also reads a presentation dump's relations), any other dump line by
  line with ``_read_terms``, the one token-by-token reader, which is behind
  ``parse_poly`` too.
  Every reader reduces through one private entry, ``_reduce``: it checks the
  alphabet and the certified degree, multiplies the terms by the least
  common multiple d of the set of their denominators (``cleared_terms``),
  reduces over the integers and returns the result with d, which is exact
  because the normal form is linear.  :func:`normal_form` divides by d and
  builds its Fraction result once (``fraction_quotients``),
  :func:`ideal_member` only tests the result for emptiness and builds no
  Fraction, and the suites in :mod:`~hopfw.hopf` divide by d only to show a
  ``FAIL``.  ``reduce_terms`` and ``s_poly`` start their sums from ``0``.
  Insertion makes a rule monic by negating when the lead coefficient is
  +-1 and otherwise by dividing a ``Fraction`` by it, with an integral
  quotient turned back into an ``int``: ``int / int`` would give a float,
  so it never runs.  A frozen system holds each tail once, in this form;
  values turn back into ``Fraction`` (``fraction_terms``) only where they
  are handed out, in ``RewriteSystem.rules`` and the result of
  :func:`normal_form`;
* the gate checks every lead's spelling and length and every tail at once,
  builds the prefix table in two dict calls, and goes lead by lead only to
  word the first refusal.

Completion does not audit itself: the shipped system resolves every overlap
of degree <= D by construction (Bergman, "The diamond lemma for ring
theory", Adv. Math. 1978), and :func:`unresolved_overlaps` is the one audit,
which the tests run on pinned and random systems.  The argument:

* every overlap of the final system was already resolved.  A retracted lead
  can never become a lead again, because it always contains a live proper
  factor, so the final leads were live from their insertion to the end.  The
  second of each pair to be inserted queued their overlaps, and each overlap
  of degree <= D was popped with both parents live and reduced, to zero or
  to the polynomial of a new rule;
* eviction keeps those resolutions valid.  Bergman's condition "the
  S-polynomial lies in I_{<W}" survives eviction, because the evicted
  polynomial is requeued and reduced; the induction is on the pair (word,
  lead length);
* interreduction keeps them valid too: each tail changes only by elements
  of I_{<lead};
* one interreduction pass reaches the fixpoint: leads do not change while
  tails are interreduced, and ``reduce_terms`` returns an irreducible dict.

The final system is canonically sorted and schedule-independent: completing
the same relations in any order yields the identical rule list.
"""

from __future__ import annotations

import heapq
import operator
import sys
from dataclasses import dataclass
from collections.abc import Callable, Iterable, Sequence
from itertools import chain

from .exactnum import Scalar, cleared_terms, fraction_quotients, fraction_terms, lean, lean_terms
from .ncalg import (
    Alphabet,
    NcPoly,
    _read_canonical_terms,
    _read_canonical_words,
    _read_monomial,
    _read_terms,
    natural_key,
    read_dump,
    write_dump,
)


class NotCertifiedError(Exception):
    """Membership asked above the certified degree: no verdict, not 'False'."""

    def __init__(self, degree: int, certified: int) -> None:
        super().__init__(
            f"degree {degree} exceeds the certified bound {certified}; "
            "verdict not certified at this truncation"
        )
        self.degree = degree
        self.certified = certified


def _no_value(rest: str) -> None:
    if rest.strip():
        raise ValueError(f"system line takes no value: {rest.strip()!r}")


# a term dict inside the engine: integral coefficients are ints
_Terms = dict[str, "int | Scalar"]


@dataclass(frozen=True)
class Rule:
    lead: str
    tail: NcPoly


@dataclass
class CompletionStats:
    """Totals of one :func:`complete` run, counted by integer increments.
    Every popped polynomial and every pair that is not stale is reduced,
    and each reduction ends in zero or in a new rule:
    ``pairs_popped - stale_pairs + requeued_polys == reductions_to_zero +
    new_rules``."""

    pairs_popped: int = 0
    stale_pairs: int = 0  # a parent rule was retracted before the pop
    reductions_to_zero: int = 0
    new_rules: int = 0
    requeued_polys: int = 0  # the input relations and the evicted rules


# the value a lead index's table gives a proper prefix of a lead
_PREFIX = object()

# the two longest proper factors of a word
_DROP_FIRST = operator.itemgetter(slice(1, None))
_DROP_LAST = operator.itemgetter(slice(None, -1))

# the ``shortest`` of an index with no lead: longer than any word, so a scan
# makes no probe
_NO_LEAD = sys.maxsize


class _LeadIndex:
    """A system's leads with their tails, and one prefix table for
    reduction.

    ``by_word`` maps each lead to its tail, in the order the leads were
    added.  ``table`` maps each lead to its tail too, and each nonempty
    proper prefix of a lead to ``_PREFIX``; a lead that is also a prefix of
    another lead, which only an untrusted system can hold until the gate
    refuses it, keeps its tail.  The empty lead, the unit ideal's, is in
    ``table`` as itself and has no prefixes.  ``shortest`` is the length of
    the shortest lead (0 with the empty lead, ``_NO_LEAD`` with none): no
    key of ``table`` shorter than it is a lead, so a scan starts each probe
    there."""

    __slots__ = ("by_word", "table", "shortest")

    def __init__(self) -> None:
        self.by_word: dict[str, _Terms] = {}
        self.table: dict[str, object] = {}
        self.shortest = _NO_LEAD

    @classmethod
    def of(cls, leads: list[str], tails: dict[str, _Terms]) -> "_LeadIndex":
        """The index of ``leads``, shortest first, with their ``tails``:
        what adding each in turn builds, the table filled in two calls."""
        index = cls()
        index.by_word = {lead: tails[lead] for lead in leads}
        prefixes = [lead[:i] for lead in leads for i in range(1, len(lead))]
        index.table = dict.fromkeys(prefixes, _PREFIX)
        index.table.update(index.by_word)
        index.shortest = len(leads[0]) if leads else _NO_LEAD
        return index

    def add(self, lead: str, tail: _Terms) -> None:
        self.by_word[lead] = tail
        table = self.table
        table[lead] = tail
        for i in range(1, len(lead)):
            table.setdefault(lead[:i], _PREFIX)
        self.shortest = min(self.shortest, len(lead))

    def s_poly(self, l1: str, l2: str, x: str, z: str):
        """Terms of tail(l1).z - x.tail(l2) for the overlap word l1.z = x.l2;
        None when a parent rule is no longer live."""
        t1 = self.by_word.get(l1)
        t2 = self.by_word.get(l2)
        if t1 is None or t2 is None:
            return None
        s_terms = {w + z: c for w, c in t1.items()}
        for w, c in t2.items():
            kw = x + w
            nv = s_terms.get(kw, 0) - c
            if nv:
                s_terms[kw] = nv
            else:
                s_terms.pop(kw, None)
        return s_terms

    def reduce_terms(self, terms: _Terms) -> _Terms:
        """Rewrite a term dict to normal form.

        The worklist pops in descending deglex: one heap of bare words per
        length, longest length first, and within one length plain string
        order, which the alphabet's downward letters make descending
        deglex, so no word is translated.  Expansions are strictly smaller
        than the word they replace, so each word is finalized exactly once;
        coefficients of pending duplicates merge in ``work`` before
        expansion.  A word is pushed when it first enters ``work`` and stays
        there, with 0 once it cancels (an int 0, so a sum that starts again
        has the type it would have from nothing), so it is never pushed
        twice; the pop of a cancelled word is skipped.

        Each popped word is scanned for its leftmost lead: from each
        position where a lead of length ``shortest`` still fits, the scan
        probes the ``shortest`` letters there, then walks forward one letter
        a probe while the table holds a prefix of a lead, and stops at a
        miss or at a lead, so the lead it finds is the shortest one starting
        there.  The first probe is exact: the table holds every prefix of
        every lead, and a shorter probe could only say prefix or miss.  The
        empty lead has length 0, so with it every word's first probe is the
        empty word, and every word rewrites to 0.
        """
        get = self.table.get
        s = self.shortest
        heapify, heappop, heappush = heapq.heapify, heapq.heappop, heapq.heappush
        out: _Terms = {}
        work = dict(terms)
        heaps: list[list[str]] = [[] for _ in range(max(map(len, work), default=-1) + 1)]
        for w in work:
            heaps[len(w)].append(w)
        # a longer word's expansions may land in a shorter heap before it is
        # reached, so each heap is heapified when its length comes up
        for heap in reversed(heaps):
            heapify(heap)
            while heap:
                w = heappop(heap)
                c = work[w]
                if not c:
                    continue  # cancelled
                n = len(w)
                for pos in range(n - s + 1):
                    end = pos + s
                    tail = get(w[pos:end])
                    while tail is _PREFIX and end < n:
                        end += 1
                        tail = get(w[pos:end])
                    if tail is not None and tail is not _PREFIX:
                        break  # w[pos:end] is a lead
                else:
                    out[w] = c
                    continue
                x = w[:pos]
                y = w[end:]
                for t, tc in tail.items():
                    nw = x + t + y
                    nv = work.get(nw)
                    if nv is None:
                        work[nw] = c * tc
                        heappush(heaps[len(nw)], nw)
                    else:
                        work[nw] = nv + c * tc or 0
        return out


class _LiveIndex(_LeadIndex):
    """The index of a completion run, or of the audit, whose live leads are
    pairwise factor-free: no lead is a prefix of another, so a table entry
    is a lead or a prefix, never both.  Also the leads by length, for
    eviction, and the overlap maps: every proper prefix and suffix of each
    live lead, keyed by (affix, length of the lead).  Removing a lead drops
    each of its prefixes that no live lead of any length still starts with,
    and moves ``shortest`` up when it was the last lead of that length."""

    __slots__ = ("by_len", "prefixes", "suffixes")

    def __init__(self) -> None:
        super().__init__()
        self.by_len: dict[int, set[str]] = {}
        self.prefixes: dict[tuple[str, int], set[str]] = {}
        self.suffixes: dict[tuple[str, int], set[str]] = {}

    def add(self, lead: str, tail: _Terms) -> None:
        super().add(lead, tail)
        n = len(lead)
        self.by_len.setdefault(n, set()).add(lead)
        for i in range(1, n):
            self.prefixes.setdefault((lead[:i], n), set()).add(lead)
            self.suffixes.setdefault((lead[i:], n), set()).add(lead)

    def remove(self, lead: str) -> _Terms:
        tail = self.by_word.pop(lead)
        table, prefixes = self.table, self.prefixes
        del table[lead]
        n = len(lead)
        by_len = self.by_len
        by_len[n].discard(lead)
        if n == self.shortest and not by_len[n]:
            self.shortest = min((k for k, bucket in by_len.items() if bucket), default=_NO_LEAD)
        for i in range(1, n):
            prefix = lead[:i]
            prefixes[prefix, n].discard(lead)
            self.suffixes[lead[i:], n].discard(lead)
            if not any(prefixes.get((prefix, k)) for k in by_len):
                del table[prefix]
        return tail

    def overlaps_as_right(self, lead: str, bound: int):
        """Every proper overlap of degree <= ``bound`` with ``lead`` as the
        right rule and another live lead l1 as the left one: yields
        (l1, x, z) with l1 = x.b and lead = b.z for a nonempty proper b.
        The self-overlaps of ``lead`` are left to :meth:`overlaps_as_left`."""
        n = len(lead)
        for i in range(1, n):
            b = lead[:i]
            for n1 in range(i + 1, bound - n + i + 1):
                others = self.suffixes.get((b, n1))
                if others:
                    for l1 in others:
                        if l1 != lead:
                            yield l1, l1[: n1 - i], lead[i:]

    def overlaps_as_left(self, lead: str, bound: int):
        """Every proper overlap of degree <= ``bound`` with ``lead`` as the
        left rule and a live lead l2 as the right one: yields (l2, x, z) with
        lead = x.b and l2 = b.z for a nonempty proper b, so the overlap word
        x.l2 has length |x| + |l2|."""
        n = len(lead)
        for i in range(1, n):
            b = lead[i:]
            for n2 in range(n - i + 1, bound - i + 1):
                others = self.prefixes.get((b, n2))
                if others:
                    for l2 in others:
                        yield l2, lead[:i], l2[n - i :]


class _Rules(Sequence):
    """A frozen system's rules, leads in deglex order; each :class:`Rule` is
    built, with Fraction coefficients, when it is read."""

    __slots__ = ("_alphabet", "_leads", "_tails")

    def __init__(self, alphabet: Alphabet, tails: dict[str, _Terms]) -> None:
        self._alphabet = alphabet
        self._leads = list(tails)
        self._tails = tails

    def __len__(self) -> int:
        return len(self._leads)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        lead = self._leads[i]
        return Rule(lead, NcPoly._adopt(self._alphabet, fraction_terms(self._tails[lead])))


def _first_tail_not_below(leads: list[str], tails: dict[str, _Terms]) -> str | None:
    """The first of ``leads`` with a word of its tail not below it in deglex
    (below: shorter, or as long and, as a string, larger), or None."""
    for lead in leads:
        n = len(lead)
        for w in tails[lead]:
            if len(w) >= n and (len(w) > n or w <= lead):
                return lead
    return None


class RewriteSystem:
    """A frozen, interreduced, degree-truncated rewriting system.

    One gate, ``_freeze``, refuses with ValueError any system whose normal
    forms could not be trusted, however it was built: by the constructor,
    ``parse`` or ``complete``.  The invariants:

    * ``0 <= complete_through <= degree_bound``;
    * each lead is on one rule, is spelled in the system's alphabet and is
      at most ``degree_bound`` long;
    * every tail is over the system's alphabet, and each of its words is
      below its lead in deglex, so rewriting ends;
    * no lead contains another, an inclusion ambiguity that the overlap
      audit does not see; so at most one lead starts at each position.

    The index holds each tail once, with integral coefficients as ints, and
    the prefix table that reduction scans; ``rules`` is a read-only
    sequence over it that builds a Fraction-valued rule when one is read.
    The gate compares strings only, and checks containment with the scan:
    a word holds no lead exactly when it reduces to itself.  ``stats`` is
    the :class:`CompletionStats` of the run that made the system, or None;
    it is neither dumped nor compared.
    """

    def __init__(
        self,
        alphabet: Alphabet,
        rules: Iterable[Rule],
        degree_bound: int,
        complete_through: int,
    ) -> None:
        tails: dict[str, _Terms] = {}
        token = alphabet.word_token
        for r in rules:
            lead = r.lead
            if r.tail.alphabet != alphabet:
                raise ValueError(f"rule tail of {token(lead)} is drawn from another alphabet")
            if lead in tails:
                raise ValueError(f"lead {token(lead)} appears on two rules")
            tails[lead] = lean_terms(r.tail.terms)
        self._freeze(alphabet, tails, degree_bound, complete_through)

    @classmethod
    def _of_tails(
        cls, alphabet: Alphabet, tails: dict[str, _Terms], degree_bound: int,
        complete_through: int,
    ) -> "RewriteSystem":
        """The constructor's gate for engine tails keyed by lead, which the
        system keeps without a copy (``parse`` and ``complete``)."""
        system = cls.__new__(cls)
        system._freeze(alphabet, tails, degree_bound, complete_through)
        return system

    def _freeze(
        self, alphabet: Alphabet, tails: dict[str, _Terms], degree: int, done: int
    ) -> None:
        if min(degree, done) < 0:
            raise ValueError(f"degree {degree} and complete_through {done} must not be negative")
        if done > degree:
            raise ValueError(f"complete_through {done} is above degree {degree}")
        self.alphabet = alphabet
        self.degree_bound = degree
        self.complete_through = done
        self.stats: CompletionStats | None = None
        token = alphabet.word_token
        # ascending deglex, which ``rules`` reads leads in: by length, and
        # within one length descending string order
        leads = sorted(tails, reverse=True)
        leads.sort(key=len)
        # every lead and tail at once, and lead by lead only to word the
        # first refusal
        unordered = _first_tail_not_below(leads, tails)
        if not (
            alphabet.spells("".join(leads))
            and (not leads or len(leads[-1]) <= degree)
            and unordered is None
        ):
            for lead in leads:
                if not alphabet.spells(lead):
                    raise ValueError(f"rule lead {lead!r} is not spelled in the alphabet")
                if len(lead) > degree:
                    raise ValueError(f"rule lead {token(lead)} is longer than degree {degree}")
                if lead == unordered:
                    raise ValueError(f"rule tail is not below its lead {token(lead)} in deglex")
        self._index = index = _LeadIndex.of(leads, tails)
        # no lead contains another: the two longest proper factors of every
        # lead but the empty one, which comes first, reduce to themselves,
        # all in one reduction
        words = leads[1:] if leads and not leads[0] else leads
        factors = dict.fromkeys(chain(map(_DROP_FIRST, words), map(_DROP_LAST, words)), 1)
        leads = index.by_word
        if index.reduce_terms(factors) != factors:
            lead, factor = next(
                (lead, f) for lead in leads if lead for f in (lead[1:], lead[:-1])
                if not self.is_normal(f)
            )
            # the lead that rewriting the factor meets: leftmost, then shortest
            inner = min(
                (g for g in leads if g in factor), key=lambda g: (factor.find(g), len(g))
            )
            raise ValueError(f"rule lead {token(lead)} contains the lead {token(inner)}")
        self.rules = _Rules(alphabet, leads)

    def is_normal(self, word: str) -> bool:
        """Whether no lead occurs in ``word``, which holds exactly when the
        word reduces to itself."""
        return self._index.reduce_terms({word: 1}) == {word: 1}

    def dump(self) -> str:
        word = self.alphabet.word_token
        return write_dump(
            ["system", f"degree {self.degree_bound}", f"complete_through {self.complete_through}"],
            self.alphabet.generators,
            # a wrapper only to render: an int prints as its Fraction does
            (
                f"rule {word(lead)} -> {NcPoly._adopt(self.alphabet, tail).to_str()}"
                for lead, tail in self._index.by_word.items()
            ),
        )

    @classmethod
    def parse(cls, text: str) -> "RewriteSystem":
        """Read a dump and gate it like any other system.

        A dump whose rule lines are as ``dump`` writes them, one after the
        other to the end, is read in one pass over them: every lead in one
        call and every tail in another.  Any other dump, with a line that
        does not read that way, is read line by line, so each refusal is
        worded as it always was and names its line; both ways read a dump
        to the same tails."""
        try:
            header, alphabet, tails = _read_rule_lines_at_once(text)
        except (KeyError, ValueError):
            header, alphabet, tails = _read_rule_lines_one_by_one(text)
        return cls._of_tails(alphabet, tails, header["degree"], header["complete_through"])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RewriteSystem)
            and self.alphabet == other.alphabet
            and self._index.by_word == other._index.by_word
            and self.degree_bound == other.degree_bound
            and self.complete_through == other.complete_through
        )


# the header of a system dump and the reader of each field
_FIELDS = {"system": _no_value, "degree": int, "complete_through": int}


def _read_rule_lines_at_once(text: str) -> tuple[dict, Alphabet, dict[str, _Terms]]:
    """The header, alphabet and tails of a dump whose rule lines are all
    canonical and come last, each ``rule LEAD -> TAIL``: the header is read
    by ``read_dump``, the leads by ``_read_canonical_words`` and the tails
    by ``_read_canonical_terms``.  KeyError or ValueError for any other
    dump, which ``_read_rule_lines_one_by_one`` then reads."""
    head, _, rules = text.partition("\nrule ")
    header, _, alphabet = read_dump(head, _FIELDS, {})
    tails: dict[str, _Terms] = {}
    if rules:
        bodies = rules.removesuffix("\n").split("\nrule ")
        leads, arrows, texts = zip(*[body.partition(" -> ") for body in bodies])
        if not all(arrows):
            raise KeyError("a rule line with no arrow")
        words = _read_canonical_words(alphabet, leads)
        tails = dict(zip(words, _read_canonical_terms(alphabet, texts)))
        if len(tails) < len(words):
            raise KeyError("a lead on two rules")
    return header, alphabet, tails


def _read_rule_lines_one_by_one(text: str) -> tuple[dict, Alphabet, dict[str, _Terms]]:
    """The header, alphabet and tails of a dump in any spelling, each rule
    line read on its own; every refusal names its line."""
    tails: dict[str, _Terms] = {}

    def rule(alphabet: Alphabet, rest: str) -> None:
        ln = f"rule {rest}"
        lhs, sep, rhs = rest.partition("->")
        if not sep:
            raise ValueError(f"malformed rule line: {ln!r}")
        lead, c = _read_monomial(alphabet, lhs)
        if c != 1:
            raise ValueError(f"rule lead must be a single word: {ln!r}")
        if lead in tails:
            raise ValueError(f"lead appears on two rules: {ln!r}")
        tails[lead] = _read_terms(alphabet, rhs)

    header, _, alphabet = read_dump(text, _FIELDS, {"rule": rule})
    return header, alphabet, tails


def _reduce(system: RewriteSystem, alphabet: Alphabet, terms: dict) -> tuple[_Terms, int]:
    """The one reduction entry of every reader: (d times the normal form of
    ``terms``, d), the first in the engine's form.  The terms are over
    ``alphabet``, with int or Fraction values; d clears their denominators
    once, so reduction runs over the ints (a tail's own denominators aside),
    and the normal form is linear, so dividing by d gives the normal form of
    ``terms``.  The normal form is
    certified only through ``complete_through``, the degree where every
    overlap is resolved; above it this raises NotCertifiedError.  This is
    the one certification gate."""
    if alphabet is not system.alphabet and alphabet != system.alphabet:
        raise ValueError("polynomial alphabet does not match the system")
    degree = max(map(len, terms), default=-1)
    if degree > system.complete_through:
        raise NotCertifiedError(degree, system.complete_through)
    ints, d = cleared_terms(terms)
    return system._index.reduce_terms(ints), d


def normal_form(p: NcPoly, system: RewriteSystem) -> NcPoly:
    """Fully reduce ``p``, every value a Fraction; above the certified degree
    this raises NotCertifiedError (see ``_reduce``)."""
    reduced, d = _reduce(system, p.alphabet, p.terms)
    return NcPoly._adopt(p.alphabet, fraction_quotients(reduced, d))


def ideal_member(p: NcPoly, system: RewriteSystem) -> bool:
    """True = certified member (a certificate of degree <= ``complete_through``
    exists); False = no certificate within that bound.  Degrees above
    ``complete_through`` raise NotCertifiedError.  Only the integer normal
    form's emptiness is read, so no Fraction is built."""
    return not _reduce(system, p.alphabet, p.terms)[0]


class _Completion:
    """Mutable state for one completion run."""

    def __init__(self, alphabet: Alphabet, degree_bound: int) -> None:
        self.rank = alphabet.rank_spelling
        self.degree_bound = degree_bound
        self.index = _LiveIndex()
        self.heap: list = []
        self.seq = 0
        self.stats = CompletionStats()

    # the queue pops in ascending deglex, so its keys spell each word with
    # the letters in rank order
    def push(self, key_word: str, pair: tuple | None, terms: _Terms | None) -> None:
        """Queue an overlap ``pair`` (l1, l2, x, z) or a polynomial's ``terms``."""
        self.seq += 1
        heapq.heappush(self.heap, (len(key_word), self.rank(key_word), self.seq, pair, terms))

    def queue_overlaps_of(self, lead: str) -> None:
        """Queue every overlap ambiguity of degree <= D between ``lead`` and
        the live rules (including itself)."""
        for l2, x, z in self.index.overlaps_as_left(lead, self.degree_bound):
            self.push(x + l2, (lead, l2, x, z), None)
        for l1, x, z in self.index.overlaps_as_right(lead, self.degree_bound):
            self.push(x + lead, (l1, lead, x, z), None)

    def insert(self, reduced: _Terms) -> None:
        """Make a monic rule out of a reduced nonzero polynomial, retract
        the live rules its lead divides, and queue its overlaps."""
        lead = min(reduced, key=natural_key)
        lc = reduced.pop(lead)
        if lc == 1 or lc == -1:
            tail = {w: lean(-lc * c) for w, c in reduced.items()}
        else:  # through Fraction: int / int would give a float
            tail = {w: lean(Scalar(-c) / lc) for w, c in reduced.items()}

        if lead == "":
            for old in list(self.index.by_word):
                self.index.remove(old)
            self.index.add("", {})
            self.heap.clear()
            return

        # evict longer live leads containing the new lead
        for ln in range(len(lead) + 1, self.degree_bound + 1):
            bucket = self.index.by_len.get(ln)
            if not bucket:
                continue
            for old in [o for o in bucket if lead in o]:
                old_tail = self.index.remove(old)
                terms = {w: -c for w, c in old_tail.items()}
                terms[old] = 1
                self.push(old, None, terms)

        self.index.add(lead, tail)
        self.queue_overlaps_of(lead)

    def drain(self, on_progress) -> None:
        reported = -1
        stats = self.stats
        while self.heap:
            deg, _, _, pair, terms = heapq.heappop(self.heap)
            if on_progress and deg > reported:
                on_progress(deg, len(self.index.by_word))
                reported = deg
            if pair is None:
                stats.requeued_polys += 1
            else:
                stats.pairs_popped += 1
                terms = self.index.s_poly(*pair)
                if terms is None:
                    stats.stale_pairs += 1
                    continue  # a parent was retracted; its replacement re-queued
            reduced = self.index.reduce_terms(terms)
            if reduced:
                stats.new_rules += 1
                self.insert(reduced)
            else:
                stats.reductions_to_zero += 1

    def interreduce(self) -> None:
        """One pass suffices: the leads stay fixed, so each reduced tail is
        already irreducible."""
        index = self.index
        for lead in sorted(index.by_word, key=natural_key, reverse=True):
            tail = lean_terms(index.reduce_terms(index.by_word[lead]))
            index.by_word[lead] = index.table[lead] = tail


def complete(
    relations: Sequence[NcPoly],
    degree_bound: int,
    on_progress: Callable[[int, int], None] | None = None,
) -> RewriteSystem:
    """Resolve all overlap ambiguities of degree <= ``degree_bound``.

    The queue is processed in (degree, deglex, arrival) order.  Whenever a
    pending polynomial survives reduction it becomes a monic rule; live rules
    whose lead contains the new lead are retracted and requeued, so live
    leads stay pairwise factor-free.  Ends with one interreduction pass and
    a canonical sort.  Completion does not audit itself (the module
    docstring says why); :func:`unresolved_overlaps` is the audit.
    """
    rels = [r for r in relations if not r.is_zero()]
    if not rels:
        raise ValueError("no nonzero relations to complete")
    alphabet = rels[0].alphabet
    for r in rels:
        if r.alphabet != alphabet:
            raise ValueError("relations drawn from mixed alphabets")
        if r.degree() > degree_bound:
            raise ValueError(
                f"degree bound {degree_bound} is below relation degree {r.degree()}"
            )
    st = _Completion(alphabet, degree_bound)
    for r in rels:
        st.push(r.leading_word(), None, lean_terms(r.terms))

    st.drain(on_progress)
    st.interreduce()
    system = RewriteSystem._of_tails(alphabet, st.index.by_word, degree_bound, degree_bound)
    system.stats = st.stats
    return system


def unresolved_overlaps(system: RewriteSystem) -> list[tuple[str, str, str]]:
    """Audit confluence at the bound: every overlap word of degree <= D must
    reduce to the same normal form along both one-step resolutions.  Normal
    form is linear, so the two agree exactly when their difference, the
    S-polynomial, reduces to zero.  Returns the offending (lead1, lead2,
    overlap_word) triples; empty = confluent."""
    index = _LiveIndex()
    for lead, tail in system._index.by_word.items():
        index.add(lead, tail)
    bad = []
    for l1 in index.by_word:
        for l2, x, z in index.overlaps_as_left(l1, system.degree_bound):
            if index.reduce_terms(index.s_poly(l1, l2, x, z)):
                bad.append((l1, l2, x + l2))
    # rule order for both leads, then overlaps by growing length of b
    rank = {lead: i for i, lead in enumerate(index.by_word)}
    bad.sort(key=lambda t: (rank[t[0]], rank[t[1]], -len(t[2])))
    return bad
