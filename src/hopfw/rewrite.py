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
  of the evicted lead that no live lead still starts with, which the table
  itself says: walked longest first, a prefix p stays exactly when p.c is a
  key for some letter c.  A frozen system keeps only the table and its
  tails: completion builds the live index with the maps below for itself,
  and the audit rebuilds it from the frozen rules when it runs;
* overlap enumeration through prefix/suffix maps keyed by (affix, lead
  length): every proper prefix and suffix of each live lead shorter than D
  is indexed with the lead's length, so a new rule meets only the rules it
  genuinely overlaps, and only through the lengths that keep the overlap
  word within a window of degrees.  A lead of length D is not indexed: an
  overlap word is longer than both its leads, so such a lead takes part in
  no overlap of degree <= D.  One walker (``_LiveIndex.sets_as_left`` and
  ``sets_as_right``, and ``overlaps`` over every lead) serves the queue
  below and the audit, whose window is 1..D;
* pending S-polynomials are queued as descriptors, the two leads alone,
  and materialized against the *current* tails at pop time, which cuts the
  splitting words from the leads and the item's degree;
  descriptors whose parent rule has been retracted are dropped, because the
  retracting insertion re-queued every overlap of its replacement;
* the queue is filled a degree at a time.  The frontier is the highest
  degree the drain has reached.  A new lead queues its overlaps of degree
  <= the frontier; one of higher degree is neither built nor queued, and
  when the drain first needs degree d, every live overlap of degree exactly
  d is listed from the live index at once and heapified into the queue,
  with one ``seq`` above every earlier push.  Polynomials (relations,
  evicted rules) are queued at once, and an eviction only removes the
  lead, so an overlap of it above the frontier is never queued.  Every
  overlap of two leads that stay live is queued when the second lead
  arrives or listed when its degree is reached.  A queue that takes every
  overlap of degree <= D when its second lead arrives pops the same live
  items in the same order; its extra items are pairs of evicted leads,
  which pop stale;
* retraction keeps live leads pairwise factor-free: a new lead evicts every
  longer live lead containing it (checked per length bucket), and the evicted
  polynomial re-enters the queue;
* after the queue drains, interreduction reduces once each tail that a
  later lead can reach, and leaves the others as they are.  A word that
  was normal when it was made can only be rewritten by a lead inserted
  later, and a lead of length l fits only in a word of length >= l.  A
  tail was normal when its lead was inserted, so with m the length of the
  shortest lead inserted after its own, a tail whose words are all shorter
  than m, or m long and no lead themselves, is normal at the end.  The
  live leads alone give m.  ``by_word`` keeps them in the order they were
  inserted, and no lead is inserted twice (an evicted lead keeps a live
  proper factor).  A lead is evicted only by a later lead that is a
  proper factor of it, so a shorter one, and following the evictions ends
  at a live lead inserted later still and no longer.  So a walk back over
  ``by_word`` keeps m as a running minimum; the unit ideal's empty lead
  has no tail to reduce;
* no key function in reduction -- the alphabet numbers its letters
  downward (see :class:`~hopfw.ncalg.Alphabet`), so among words of one
  length plain string order is descending deglex.  ``reduce_terms`` keeps
  one heap of bare words per length and pops the longest length first,
  with no translation of the several hundred thousand words a completion
  pushes; a word that cancels stays in the worklist with value 0, so no
  word is pushed twice.  Every other order on words -- leads, the gate's
  tail check, the audit -- is the natural key ``(-len(w), w)``, the order
  the heaps pop in; interreduction walks the leads back in the order they
  were inserted.  Only the completion queue, which pops in ascending
  deglex, respells its keys with ``Alphabet.rank_spelling``;
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
  adds the leads to the prefix table shortest first, each prefix once, and
  goes lead by lead only to word the first refusal.  Completion hands it
  the tails alone: the run's live index, queue and other state are dropped
  before it builds its own;
* the top degree D may be split with one forked child (see
  :class:`_ForkedChild`): when the queue first holds only degree-D items,
  at least ``_SPLIT_MIN_ITEMS`` of them, and ``os.fork``, a second CPU and
  a single thread are at hand, the child reduces the last 9/20 of them
  modulo the rules at the fork, and the parent reduces each of the child's
  results once more with its current rules, by ``reduce_terms``.  This is
  exact: until a lead shorter than D arrives, the top degree queues and
  evicts nothing, and a lead of length D matches only a whole word and
  contains no shorter lead (it was normal when it arrived), so each word's
  leftmost rewrite is the one the rules at the fork make, unless the word
  is itself a new lead; reduction is linear, so reducing an item with the
  current rules equals reducing its reduction modulo the rules at the
  fork.  A shorter or empty lead, a failed child or any exception kills
  and reaps the child, and the rest runs in the parent.  Every insertion
  and counter is the sequential one, so no dump, ``stats`` total or
  verdict depends on the split, and the argument below holds as it stands.

Completion does not audit itself: the shipped system resolves every overlap
of degree <= D by construction (Bergman, "The diamond lemma for ring
theory", Adv. Math. 1978), and :func:`unresolved_overlaps` is the one audit,
which the tests run on pinned and random systems.  The argument:

* every overlap of the final system was already resolved.  A retracted lead
  can never become a lead again, because it always contains a live proper
  factor, so the final leads were live from their insertion to the end.  Each
  overlap of degree <= D of a pair was queued, when the second of the pair
  was inserted or when the drain reached its degree, and was popped with both
  parents live and reduced, to zero or to the polynomial of a new rule;
* eviction keeps those resolutions valid.  Bergman's condition "the
  S-polynomial lies in I_{<W}" survives eviction, because the evicted
  polynomial is requeued and reduced; the induction is on the pair (word,
  lead length);
* interreduction keeps them valid too: each tail changes only by elements
  of I_{<lead};
* one interreduction pass reaches the fixpoint: leads do not change while
  tails are interreduced, ``reduce_terms`` returns an irreducible dict,
  and a tail it skips is already irreducible (see above).  The system is
  confluent through D when the pass starts, so every word of degree <= D
  has one normal form, and the order of the pass changes no tail.

The final system is canonically sorted and schedule-independent: completing
the same relations in any order yields the identical rule list.
"""

from __future__ import annotations

import functools
import heapq
import operator
import os
import sys
from dataclasses import dataclass
from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import chain

from .exactnum import (
    Scalar, cleared_terms, fraction_quotients, fraction_terms, lean, lean_terms, read_int,
)
from .ncalg import (
    Alphabet,
    NcPoly,
    _read_canonical_terms,
    _read_canonical_words,
    _read_monomial,
    _read_terms,
    dump_lines,
    natural_key,
    read_dump,
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
    new_rules``.  The counts are of the queue that runs: a pair whose
    parent was retracted before its degree was listed is never queued, so
    it is neither popped nor counted.  ``peak_queue`` is the most items the
    queue held before a pop."""

    pairs_popped: int = 0
    stale_pairs: int = 0  # a parent rule was retracted before the pop
    reductions_to_zero: int = 0
    new_rules: int = 0
    requeued_polys: int = 0  # the input relations and the evicted rules
    tails_reduced: int = 0  # by interreduction; the other tails are left as they are
    peak_queue: int = 0


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

    def add(self, lead: str, tail: _Terms) -> None:
        """File ``lead`` with its tail, and each of its proper prefixes,
        walked longest first up to the first that is already a key: the
        table is prefix-closed, so the shorter ones are keys too."""
        self.by_word[lead] = tail
        table = self.table
        table[lead] = tail
        for i in range(len(lead) - 1, 0, -1):
            prefix = lead[:i]
            if prefix in table:
                break
            table[prefix] = _PREFIX
        if len(lead) < self.shortest:
            self.shortest = len(lead)

    def s_poly(self, l1: str, l2: str, degree: int) -> _Terms:
        """Terms of tail(l1).z - x.tail(l2) for the overlap word l1.z = x.l2
        of ``degree`` of two live rules."""
        x = l1[: degree - len(l2)]
        z = l2[len(l1) - len(x) :]
        s_terms = {w + z: c for w, c in self.by_word[l1].items()}
        for w, c in self.by_word[l2].items():
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
    live lead shorter than ``top``, the degree bound, keyed by (affix,
    length of the lead).  A lead of length ``top`` has no entry there: an
    overlap word is longer than both its leads, so such a lead takes part
    in no overlap of degree <= ``top``.  Removing a lead drops each of its
    prefixes that no live lead still starts with: walked longest first, a
    prefix p stays exactly when the table holds p.c for a letter c of
    ``letters``, and then so do the shorter ones.  It moves ``shortest`` up
    when the lead was the last of its length."""

    __slots__ = ("top", "letters", "by_len", "prefixes", "suffixes")

    def __init__(self, top: int, letters: str) -> None:
        super().__init__()
        self.top = top
        self.letters = letters
        self.by_len: dict[int, set[str]] = {}
        self.prefixes: dict[tuple[str, int], set[str]] = {}
        self.suffixes: dict[tuple[str, int], set[str]] = {}

    def add(self, lead: str, tail: _Terms) -> None:
        super().add(lead, tail)
        n = len(lead)
        self.by_len.setdefault(n, set()).add(lead)
        if n < self.top:
            for i in range(1, n):
                self.prefixes.setdefault((lead[:i], n), set()).add(lead)
                self.suffixes.setdefault((lead[i:], n), set()).add(lead)

    def remove(self, lead: str) -> _Terms:
        tail = self.by_word.pop(lead)
        table = self.table
        del table[lead]
        n = len(lead)
        by_len = self.by_len
        by_len[n].discard(lead)
        if n == self.shortest and not by_len[n]:
            self.shortest = min((k for k, bucket in by_len.items() if bucket), default=_NO_LEAD)
        if n < self.top:
            for i in range(1, n):
                self.prefixes[lead[:i], n].discard(lead)
                self.suffixes[lead[i:], n].discard(lead)
        for i in range(n - 1, 0, -1):
            prefix = lead[:i]
            if any(prefix + c in table for c in self.letters):
                break  # a live lead starts with it, and with each shorter one
            del table[prefix]
        return tail

    def may_rewrite(self, tail: _Terms, shortest: int) -> bool:
        """Whether a lead of length ``shortest`` or more may occur in a word
        of ``tail``: a word longer than ``shortest``, or as long and itself a
        lead."""
        leads = self.by_word
        return any(len(w) > shortest or len(w) == shortest and w in leads for w in tail)

    # The one overlap walker.  A proper overlap of two live leads l1 = x.b
    # and l2 = b.z, for a nonempty b shorter than both, has the word x.l2 =
    # l1.z, whose degree is |x| + |l2| and exceeds both lengths.  The two
    # methods below walk the overlaps of one lead in a window lo..hi of
    # degrees, an affix set at a time, so that completion builds from each
    # set only what it needs; ``overlaps`` lists the pairs of every lead.

    def sets_as_left(self, lead: str, lo: int, hi: int):
        """(i, d, leads) for each split ``lead`` = x.b with |x| = i and each
        degree d in lo..hi: the live leads l2 of length d - i that start
        with b, each overlapping ``lead`` in the word x.l2 of degree d."""
        n = len(lead)
        lo = max(n + 1, lo)
        if lo > hi:
            return
        get = self.prefixes.get
        for i in range(1, n):
            b = lead[i:]
            for n2 in range(lo - i, hi - i + 1):
                leads = get((b, n2))
                if leads:
                    yield i, i + n2, leads

    def sets_as_right(self, lead: str, lo: int, hi: int):
        """(i, d, leads) for each split ``lead`` = b.z with |b| = i and each
        degree d in lo..hi: the live leads l1 of length d - |z| that end
        with b, each overlapping ``lead`` in the word of degree d that ends
        with it.  A set may hold ``lead`` itself, whose self-overlaps
        :meth:`sets_as_left` already walks."""
        n = len(lead)
        lo = max(n + 1, lo)
        if lo > hi:
            return
        get = self.suffixes.get
        for i in range(1, n):
            b = lead[:i]
            for n1 in range(lo - n + i, hi - n + i + 1):
                leads = get((b, n1))
                if leads:
                    yield i, n1 + n - i, leads

    def overlaps(self, lo: int, hi: int):
        """Every proper overlap of two live leads, a lead with itself
        included, whose word has degree lo..hi, once each: (l1, l2, d) for
        the word x.l2 = l1.z of degree d, by left lead in the order of
        ``by_word``."""
        for l1 in self.by_word:
            for _, d, leads in self.sets_as_left(l1, lo, hi):
                for l2 in leads:
                    yield l1, l2, d


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
        self._index = index = _LeadIndex()
        for lead in leads:
            index.add(lead, tails[lead])
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
        return "".join(self.dump_lines())

    def dump_lines(self) -> Iterator[str]:
        """The lines of ``dump``, each with its line break, made one at a
        time, so that a writer never holds the whole text."""
        word = self.alphabet.word_token
        return dump_lines(
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
_FIELDS = {"system": _no_value} | {
    f: functools.partial(read_int, what=f) for f in ("degree", "complete_through")
}


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


# the top degree is split with a forked child when its queue holds at least
# this many items
_SPLIT_MIN_ITEMS = 4000
# positions of the child's part in one block it sends
_BLOCK = 1024


def _live(index: _LeadIndex, pair: tuple) -> bool:
    """Whether both parent rules of an overlap ``pair`` are still live."""
    return pair[0] in index.by_word and pair[1] in index.by_word


class _ForkedChild:
    """One forked child that reduces the last items of the top degree's queue
    modulo the lead index as it stands at the fork (see
    ``_Completion.drain``).  The parent takes the items in order, one
    ``take`` each, and those from position ``start`` on are the child's.
    The child sends its nonzero results keyed by position, one pickled block
    of ``_BLOCK`` positions at a time, and the parent reads each block when
    its takes reach it.  The child keeps the blocks the pipe cannot take
    yet, so it never waits on the parent until its last block is reduced."""

    __slots__ = ("pid", "pipe", "pickle", "start", "popped", "block")

    def __init__(self, pid: int, pipe, pickle, start: int) -> None:
        self.pid: int | None = pid
        self.pipe = pipe
        self.pickle = pickle
        self.start = start
        self.popped = 0
        self.block: dict[int, _Terms] = {}

    @classmethod
    def fork(
        cls, index: _LiveIndex, start: int, part: Callable[[], list]
    ) -> "_ForkedChild | None":
        """The child that reduces the items ``part()`` lists, which it calls
        after the fork, each a (pair, terms) with one of the two None: an
        overlap (l1, l2, d) of degree d or a polynomial's terms.  None where
        ``os.sched_getaffinity`` (and with it ``os.fork``) is missing, with
        no second CPU, while another thread runs (forking it is unsafe, and
        Python 3.12 warns), or when the fork fails."""
        if not hasattr(os, "sched_getaffinity"):
            return None
        import threading

        if len(os.sched_getaffinity(0)) < 2 or threading.active_count() != 1:
            return None
        import pickle  # only a run that forks pays for it

        r, w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(r)
            os.close(w)
            return None
        if pid == 0:
            # never back into the caller: no inherited buffer is flushed and
            # no ``finally`` of the parent's runs here
            status = 1
            try:
                os.close(r)
                import gc

                gc.disable()
                _reduce_in_child(index, part(), w, pickle.dumps)
                status = 0
            finally:
                os._exit(status)
        os.close(w)
        return cls(pid, os.fdopen(r, "rb"), pickle, start)

    def take(self) -> _Terms | None:
        """Count one take, and give the child's reduction of the item taken,
        an empty dict when it vanished; None when the item is the parent's
        or the child has stopped.  A block that cannot be read stops the
        child, and the parent reduces the rest."""
        at = self.popped - self.start
        self.popped += 1
        if at < 0 or self.pid is None:
            return None
        if at % _BLOCK == 0:
            try:
                self.block = self.pickle.load(self.pipe)
            except (EOFError, OSError, self.pickle.UnpicklingError):
                self.stop()  # the child died before it wrote the whole block
                return None
        return self.block.pop(at, {})

    def stop(self) -> None:
        """Close the pipe, then kill and reap the child; a second call does
        nothing."""
        if self.pid is None:
            return
        import signal

        pid, self.pid = self.pid, None
        self.pipe.close()
        self.block = {}
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass  # reaped by a handler of the caller's


def _reduce_in_child(index: _LeadIndex, items: list, fd: int, dumps) -> None:
    """Reduce each (pair, terms) of ``items`` that is not stale and write to
    ``fd`` one block a ``_BLOCK`` positions, the nonzero results keyed by
    position.  Each block is written as far as the pipe takes it without
    waiting, and the rest once the last block is reduced."""
    pending: list[memoryview] = []

    def write() -> None:
        try:
            while pending:
                sent = os.write(fd, pending[0])
                pending[0] = pending[0][sent:]
                if not pending[0]:
                    del pending[0]
        except BlockingIOError:
            pass  # the pipe is full: the parent has not reached these yet

    os.set_blocking(fd, False)
    for first in range(0, len(items), _BLOCK):
        block = {}
        for at in range(first, min(first + _BLOCK, len(items))):
            pair, terms = items[at]
            if pair is not None:
                if not _live(index, pair):
                    continue
                terms = index.s_poly(*pair)
            reduced = index.reduce_terms(terms)
            if reduced:
                block[at] = reduced
        pending.append(memoryview(dumps(block)))
        write()
    os.set_blocking(fd, True)
    write()


class _Completion:
    """Mutable state for one completion run."""

    def __init__(self, alphabet: Alphabet, degree_bound: int) -> None:
        self.rank = alphabet.rank_spelling
        self.index = _LiveIndex(degree_bound, alphabet.word(alphabet.generators))
        self.heap: list = []
        self.seq = 0
        # the highest degree the drain has reached: an overlap above it is
        # queued only when the drain reaches its degree (``list_overlaps``)
        self.frontier = 0
        self.stats = CompletionStats()

    # the queue pops in ascending deglex, so its keys spell each word with
    # the letters in rank order
    def push(self, key_word: str, pair: tuple | None, terms: _Terms | None) -> None:
        """Queue an overlap ``pair`` (l1, l2) of the word ``key_word``, or a
        polynomial's ``terms``."""
        self.seq += 1
        heapq.heappush(self.heap, (len(key_word), self.rank(key_word), self.seq, pair, terms))

    def queue_overlaps_of(self, lead: str) -> None:
        """Queue every overlap ambiguity of degree <= the frontier between
        ``lead`` and the live rules (including itself); ``list_overlaps``
        queues the others when the drain reaches their degree."""
        index, frontier = self.index, self.frontier
        for i, _, leads in index.sets_as_left(lead, 1, frontier):
            x = lead[:i]
            for l2 in leads:
                self.push(x + l2, (lead, l2), None)
        for i, _, leads in index.sets_as_right(lead, 1, frontier):
            for l1 in leads:
                if l1 != lead:
                    self.push(l1[: len(l1) - i] + lead, (l1, lead), None)

    def list_overlaps(self, degree: int) -> None:
        """Queue at once every live overlap of ``degree``, which the drain
        has just reached, all with one ``seq`` above every earlier push."""
        self.seq += 1
        seq, rank = self.seq, self.rank
        self.heap += [
            (degree, rank(l1[: degree - len(l2)] + l2), seq, (l1, l2), None)
            for l1, l2, _ in self.index.overlaps(degree, degree)
        ]
        heapq.heapify(self.heap)

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
        for ln in range(len(lead) + 1, self.index.top + 1):
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
        """Pop and reduce until the queue is empty and the frontier is at
        D.  Before each pop, the frontier moves up a degree at a time to the
        lowest queued degree, and each degree it reaches has its overlaps
        listed (``list_overlaps``); ``on_progress`` is told of each degree
        at its first pop.  The first time the queue holds only
        top-degree items, at least ``_SPLIT_MIN_ITEMS`` of them, a forked
        child may take the last 9/20 of them (see :class:`_ForkedChild`);
        the parent reduces each of the child's results once more with
        ``reduce_terms``, and stops the child for good when a lead shorter
        than the top degree arrives."""
        reported = -1
        stats, index, heap = self.stats, self.index, self.heap
        top = index.top
        child = None
        split = True  # the top degree is split at most once
        peak = 0
        frontier = self.frontier
        try:
            while True:
                while frontier < top and (not heap or heap[0][0] > frontier):
                    self.frontier = frontier = frontier + 1
                    self.list_overlaps(frontier)
                if not heap:
                    break
                if len(heap) > peak:
                    peak = len(heap)
                if split and heap[0][0] == top and len(heap) >= _SPLIT_MIN_ITEMS:
                    split = False
                    start = len(heap) - len(heap) * 9 // 20
                    child = _ForkedChild.fork(index, start, lambda: [
                        (None if pair is None else (*pair, top), terms)
                        for _, _, _, pair, terms in sorted(heap)[start:]
                    ])
                deg, _, _, pair, terms = heapq.heappop(heap)
                if on_progress and deg > reported:
                    on_progress(deg, len(index.by_word))
                    reported = deg
                # the item reduced modulo the rules at the fork, or None
                done = child.take() if child else None
                if pair is None:
                    stats.requeued_polys += 1
                else:
                    stats.pairs_popped += 1
                    if not _live(index, pair):
                        stats.stale_pairs += 1
                        continue  # a parent was retracted; its replacement re-queued
                    if done is None:
                        terms = index.s_poly(*pair, deg)
                reduced = index.reduce_terms(terms if done is None else done)
                if reduced:
                    stats.new_rules += 1
                    if child and len(max(reduced, key=len)) < top:
                        child.stop()  # the child's rules are no longer the shorter ones
                    self.insert(reduced)
                else:
                    stats.reductions_to_zero += 1
        finally:
            stats.peak_queue = peak
            if child:
                child.stop()

    def interreduce(self) -> None:
        """Reduce each tail that a lead inserted after its own can reach,
        and leave the others as they are: a tail was normal when its lead
        was inserted, and a lead of length m fits only in a word of length
        >= m, so a tail whose words are all shorter than the shortest later
        lead, or as long and no lead themselves, is normal now.  A walk back
        over ``by_word``, the live leads in insertion order, finds that
        length (the module docstring says why).  One pass suffices: the
        leads stay fixed, so each reduced tail is already irreducible."""
        index, stats = self.index, self.stats
        leads = index.by_word
        later = _NO_LEAD  # the length of the shortest lead inserted after ``lead``
        for lead, tail in reversed(leads.items()):
            if index.may_rewrite(tail, later):
                stats.tails_reduced += 1
                leads[lead] = index.table[lead] = lean_terms(index.reduce_terms(tail))
            later = min(later, len(lead))


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

    ``on_progress(degree, rules)``, when given, is called at the first pop
    of each degree, with the number of live rules before that pop; a degree
    where nothing pops is not reported.
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
    # the gate reads the tails alone: the live table, the overlap maps and
    # the rest of the run's state go before it builds its own index
    tails, stats = st.index.by_word, st.stats
    del st
    system = RewriteSystem._of_tails(alphabet, tails, degree_bound, degree_bound)
    system.stats = stats
    return system


def unresolved_overlaps(system: RewriteSystem) -> list[tuple[str, str, str]]:
    """Audit confluence at the bound: every overlap word of degree <= D must
    reduce to the same normal form along both one-step resolutions.  Normal
    form is linear, so the two agree exactly when their difference, the
    S-polynomial, reduces to zero.  Returns the offending (lead1, lead2,
    overlap_word) triples; empty = confluent."""
    alphabet = system.alphabet
    index = _LiveIndex(system.degree_bound, alphabet.word(alphabet.generators))
    for lead, tail in system._index.by_word.items():
        index.add(lead, tail)
    bad = []
    for l1, l2, d in index.overlaps(1, system.degree_bound):
        if index.reduce_terms(index.s_poly(l1, l2, d)):
            bad.append((l1, l2, l1[: d - len(l2)] + l2))
    # rule order for both leads, then overlaps by growing length of b
    rank = {lead: i for i, lead in enumerate(index.by_word)}
    bad.sort(key=lambda t: (rank[t[0]], rank[t[1]], -len(t[2])))
    return bad
