"""Brute-force lead search for tests of the rewriting engine's prefix table.

``reduce_terms`` finds the leftmost lead of a word by walking the lead
index's prefix table forward from each position.  The oracle here probes
every (position, length) slice of the word against the set of leads
instead, and takes the leftmost position, then the shortest length.

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


def marker(k: int) -> dict[str, int]:
    """The tail of the k-th lead: one marker letter with coefficient 1."""
    return {chr(_MARKER_BASE + k): 1}


def first_lead_by_slices(word: str, leads) -> tuple[int, str] | None:
    """(position, lead) of the leftmost, then shortest, lead in ``word``."""
    for pos in range(len(word)):
        for end in range(pos + 1, len(word) + 1):
            if word[pos:end] in leads:
                return pos, word[pos:end]
    return None


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
