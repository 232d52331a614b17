"""Brute-force lead search and reduction for tests of the rewriting engine.

``reduce_terms`` finds the leftmost lead of a word by walking the lead
index's prefix table forward from each position, starting at the length of
the shortest lead.  The oracle here probes every (position, length) slice
of the word against the set of leads instead, the empty slice included,
and takes the leftmost position, then the shortest length.

:func:`reduce_by_slices` reduces a whole term dict with that search alone,
one rewrite a step, and shares no code with ``reduce_terms``: no prefix
table, no heaps and no worklist.

The scan's choice is read off ``reduce_terms`` itself: each lead is given a
one-letter tail, a marker that spells no generator and so stands in no lead.
A word w whose leftmost lead L starts at ``pos`` rewrites to
w[:pos] + marker(L) + (the rest, reduced), and w[:pos] holds no marker, so
the first marker of the normal form names the position and the lead of the
first step.  Every rewrite trades a lead for one marker letter, so the
reduction ends.
"""

from __future__ import annotations

import random

from hopfw.rewrite import RewriteSystem, _LeadIndex

_MARKER_BASE = 0x3000  # far above every generator's letter


def deglex_key(word: str) -> tuple[int, list[int]]:
    """Ascending deglex in generator order: the alphabet numbers its letters
    downward, and the engine sorts words by ``(-len(w), w)``, leading word
    first (``ncalg.natural_key``)."""
    return (len(word), [-ord(c) for c in word])


def marker(k: int) -> dict[str, int]:
    """The tail of the k-th lead: one marker letter with coefficient 1."""
    return {chr(_MARKER_BASE + k): 1}


def first_lead_by_slices(word: str, leads) -> tuple[int, str] | None:
    """(position, lead) of the leftmost, then shortest, lead in ``word``;
    the empty lead, the unit ideal's, is found at position 0."""
    for pos in range(len(word) + 1):
        for end in range(pos, len(word) + 1):
            if word[pos:end] in leads:
                return pos, word[pos:end]
    return None


def reduce_by_slices(terms: dict, tails: dict) -> dict:
    """The normal form of a term dict under the rules ``lead -> tails[lead]``.

    Each step rewrites the deglex-largest word that holds a lead, at its
    leftmost and then shortest lead, until no word holds one.  A sum that
    reaches zero drops its word, and a word that comes back starts again
    from the int 0, so a value is a ``Fraction`` exactly when a
    ``Fraction`` went into it since it last left."""
    out = {}
    for w, c in terms.items():
        if c:
            out[w] = c
    while True:
        held = [w for w in out if first_lead_by_slices(w, tails) is not None]
        if not held:
            return out
        w = max(held, key=deglex_key)
        pos, lead = first_lead_by_slices(w, tails)
        c = out.pop(w)
        for t, tc in tails[lead].items():
            nw = w[:pos] + t + w[pos + len(lead):]
            nv = out.get(nw, 0) + c * tc
            if nv:
                out[nw] = nv
            else:
                del out[nw]


def first_lead_by_scan(index: _LeadIndex, word: str) -> tuple[int, str] | None:
    """(position, lead) of the first rewrite ``reduce_terms`` makes in
    ``word``, for an index whose tails are all :func:`marker` tails."""
    (normal,) = index.reduce_terms({word: 1})
    for pos, ch in enumerate(normal):
        if ord(ch) >= _MARKER_BASE:
            lead = next(lead for lead, tail in index.by_word.items() if ch in tail)
            return pos, lead
    return None


def assert_scan_matches_slices(system: RewriteSystem, rng: random.Random, words: int = 200):
    """The prefix table of ``system``'s leads finds the same (position,
    lead) as the slices on random words, half of them built around a lead."""
    leads = list(system._index.by_word)
    if "" in leads:
        return  # the unit ideal: every word reduces to zero without a scan
    index = _LeadIndex()
    for k, lead in enumerate(leads):
        index.add(lead, marker(k))
    # the same keys, each a lead or a prefix of one, as the system's own table
    assert index.table.keys() == system._index.table.keys()
    letters = [system.alphabet.char(g) for g in system.alphabet.generators]

    def noise(n: int) -> str:
        return "".join(rng.choice(letters) for _ in range(n))

    lead_set = set(leads)
    for i in range(words):
        if i % 2 and leads:
            word = noise(rng.randint(0, 3)) + rng.choice(leads) + noise(rng.randint(0, 3))
        else:
            word = noise(rng.randint(0, system.degree_bound + 2))
        assert first_lead_by_scan(index, word) == first_lead_by_slices(word, lead_set), word
