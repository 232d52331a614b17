"""On-disk formats: JSON form files and line-oriented presentation dumps.

Form files::

    {
      "dim": 2,
      "arity": 3,
      "entries": [
        {"idx": [1, 1, 2], "c": "1"},
        ...
      ]
    }

Coefficients are rational strings (plain integers are accepted on input);
floats are rejected -- everything in this package is exact.

Presentations and rewriting systems are dumped as plain text, one fact per
line: a presentation dump::

    algebra hw
    n 2
    m 3
    generators u[1,1] ... s[2,2]
    relation us[1,1]: u[1,1]*s[1,1] + u[1,2]*s[2,1] - 1
    delta u[1,1] -> u[1,1]#u[1,1] + u[1,2]#u[2,1]
    counit u[1,1] -> 1
    antipode u[1,1] -> s[1,1]

and a system dump (``RewriteSystem.dump``)::

    system
    degree 4
    complete_through 4
    generators u[1,1] ... s[2,2]
    rule u[2,1]*u[1,1] -> -u[1,1]*u[2,1] + s[2,1]

Polynomials and tensors are written in the text grammar of :mod:`hopfw.ncalg`,
whose ``read_dump`` and ``write_dump`` read and write both dumps; the
polynomials of a dump as it is written are read all at once, and of any
other dump line by line (``parse_presentation``, ``RewriteSystem.parse``).
Every fact is stated once: a header field, the one ``generators`` line
(before any fact, naming each generator once), a ``delta``, ``counit`` or
``antipode`` line for one generator, a rule for one lead.  The ``delta``
and ``counit`` lines cover every generator or none, and so do the
``antipode`` lines.  In a presentation dump each matric family on the
``generators`` line is whole: it names g[r,c] for every r, c in 1..n and no
other g[r,c], so a wrong ``n`` header is refused rather than checked on
part of the generators.
"""

from __future__ import annotations

import functools
import json

from .exactnum import Scalar, format_rational, fraction_terms, parse_rational, rat, read_int
from .forms import MultilinearForm
from .hopf import _ALGEBRAS, HopfStructure, Presentation
from .ncalg import (
    Alphabet,
    NcPoly,
    TensorSquare,
    _read_canonical_terms,
    matric_family,
    parse_generator_token,
    parse_poly,
    parse_tensor,
    read_dump,
    write_dump,
)


class FormFileError(ValueError):
    """A form file (or form JSON object) could not be read."""


# ---------------------------------------------------------------------------
# forms <-> JSON


def form_to_obj(w: MultilinearForm) -> dict:
    return {
        "dim": w.dim,
        "arity": w.arity,
        "entries": [
            {"idx": list(idx), "c": format_rational(c)}
            for idx, c in w.nonzero_items()
        ],
    }


_ENTRY_KEYS = frozenset({"idx", "c"})
_INT = frozenset({int})  # the types of an index that is a plain list of ints


class _LongNumeral(str):
    """A form file's integer too long for ``int``, kept for its field to refuse."""


def _json_int(numeral: str) -> int | _LongNumeral:
    """json's integer reader: ``int`` refuses only a numeral that is too long."""
    try:
        return int(numeral)
    except ValueError:
        return _LongNumeral(numeral)


def _is_int(value, what: str) -> bool:
    """Whether ``value`` is an integer; a ``_LongNumeral`` is refused as ``what``."""
    if isinstance(value, _LongNumeral):
        try:
            read_int(value, what)
        except ValueError as exc:
            raise FormFileError(str(exc)) from None
    return isinstance(value, int) and not isinstance(value, bool)


def form_from_obj(obj) -> MultilinearForm:
    if not isinstance(obj, dict):
        raise FormFileError("form object must be a JSON object")
    unknown = set(obj) - {"dim", "arity", "entries"}
    if unknown:
        raise FormFileError(f"unknown keys in form object: {sorted(unknown)}")
    for key in ("dim", "arity", "entries"):
        if key not in obj:
            raise FormFileError(f"form object is missing {key!r}")
    dim, arity, entries = obj["dim"], obj["arity"], obj["entries"]
    if not _is_int(dim, "dim"):
        raise FormFileError("dim must be an integer")
    if not _is_int(arity, "arity"):
        raise FormFileError("arity must be an integer")
    if not isinstance(entries, list):
        raise FormFileError("entries must be a list")
    # one pass over the entries: each index's type is checked here, its
    # length and range in the constructor, and repeats by the dict's size
    indices: list[tuple] = []
    values: list[Scalar] = []
    for i, e in enumerate(entries):
        if not isinstance(e, dict) or e.keys() != _ENTRY_KEYS:
            raise FormFileError(f"entry {i}: expected an object with idx and c")
        idx = e["idx"]
        if not isinstance(idx, list) or not (
            set(map(type, idx)) <= _INT
            or all(_is_int(k, f"entry {i}: index") for k in idx)
        ):
            raise FormFileError(f"entry {i}: idx must be a list of integers")
        indices.append(tuple(idx))
        values.append(_coefficient(i, e["c"]))
    form_entries = dict(zip(indices, values))
    if len(form_entries) < len(indices):
        seen = set()
        for idx in indices:
            if idx in seen:
                raise FormFileError(f"duplicate index {list(idx)}")
            seen.add(idx)
    try:
        return MultilinearForm(dim, arity, form_entries)
    except ValueError as exc:
        raise FormFileError(str(exc)) from None


def _coefficient(i: int, c) -> Scalar:
    """The value of entry ``i``'s coefficient: an int, or a rational string."""
    if isinstance(c, str):
        try:
            return parse_rational(c)
        except ValueError as exc:
            raise FormFileError(f"entry {i}: {exc}") from None
    if isinstance(c, int) and not isinstance(c, bool):
        return rat(c)
    raise FormFileError(f"entry {i}: coefficient must be an integer or a rational string")


def dump_form(w: MultilinearForm) -> str:
    return json.dumps(form_to_obj(w), indent=2) + "\n"


def load_form_text(text: str, where: str = "form") -> MultilinearForm:
    try:
        obj = json.loads(text, parse_int=_json_int)
    except json.JSONDecodeError as exc:
        raise FormFileError(
            f"{where}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    return form_from_obj(obj)


def save_form(path: str, w: MultilinearForm) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_form(w))


def load_form(path: str) -> MultilinearForm:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return load_form_text(text, where=path)


# ---------------------------------------------------------------------------
# presentations <-> text


def _kind(rest: str) -> str:
    kind = rest.strip()
    if kind not in _ALGEBRAS:
        raise ValueError(f"unknown algebra kind {kind!r}")
    return kind


# the header fields of a presentation dump and their readers
_HEADER = {"algebra": _kind} | {f: functools.partial(read_int, what=f) for f in ("n", "m")}

# the reader and the writer of the value on each structure line; an
# antipode image is a polynomial, read as a relation's body is
_MAPS = {
    "delta": (parse_tensor, TensorSquare.to_str),
    "counit": (lambda alphabet, body: parse_rational(body.strip()), format_rational),
    "antipode": (None, NcPoly.to_str),
}


def dump_presentation(pres: Presentation) -> str:
    facts = [
        f"relation {label}: {rel.to_str()}"
        for label, rel in zip(pres.relation_labels, pres.relations)
    ]
    if pres.structure is not None:
        for head, (_, show) in _MAPS.items():
            images = getattr(pres.structure, head)
            if images is not None:
                facts += (f"{head} {g.token()} -> {show(images[g])}" for g in pres.generators)
    header = [f"algebra {pres.kind}", f"n {pres.n}", f"m {pres.m}"]
    return write_dump(header, pres.generators, facts)


def parse_presentation(text: str) -> Presentation:
    """Read a presentation dump: its relation and antipode bodies in one
    ``_read_canonical_terms`` call, as ``RewriteSystem.parse`` reads rule
    lines.  A dump that does not read that way, or is refused, is read again
    line by line with ``parse_poly``, so a refusal names its first bad line."""
    try:
        return _read_presentation(text, at_once=True)
    except (KeyError, ValueError):
        return _read_presentation(text, at_once=False)


def _read_presentation(text: str, at_once: bool) -> Presentation:
    """The presentation of a dump, each relation and antipode body read on
    its line by ``parse_poly``, or kept and all read after the last line."""
    read_poly = (lambda alphabet, body: body.strip()) if at_once else parse_poly
    labels: list[str] = []
    relations: list = []
    maps: dict[str, dict] = {head: {} for head in _MAPS}

    def relation(alphabet: Alphabet, rest: str) -> None:
        label, sep, body = rest.partition(":")
        if not sep:
            raise ValueError("relation line needs 'label: polynomial'")
        labels.append(label.strip())
        relations.append(read_poly(alphabet, body))

    def structure_line(head: str, alphabet: Alphabet, rest: str) -> None:
        gtok, sep, body = rest.partition("->")
        if not sep:
            raise ValueError(f"{head} line needs 'generator -> value'")
        g = parse_generator_token(gtok)
        if g not in alphabet:
            raise ValueError(f"{head} of {g.token()}, which is not a generator")
        if g in maps[head]:
            raise ValueError(f"second {head} line for {g.token()}")
        maps[head][g] = (_MAPS[head][0] or read_poly)(alphabet, body)

    facts = {head: functools.partial(structure_line, head) for head in _MAPS}
    header, generators, alphabet = read_dump(text, _HEADER, {"relation": relation, **facts})
    if at_once and (texts := [*relations, *maps["antipode"].values()]):
        terms = _read_canonical_terms(alphabet, texts)
        # each engine dict is dropped as it is wrapped, so no polynomial is
        # held in both forms at once
        terms.reverse()
        polys = [NcPoly._adopt(alphabet, fraction_terms(terms.pop())) for _ in range(len(terms))]
        maps["antipode"] = dict(zip(maps["antipode"], polys[len(relations) :]))
        relations = polys[: len(relations)]
    if min(header["n"], header["m"]) < 1:
        raise ValueError(f"n {header['n']} and m {header['m']} must be at least 1")
    delta, counit, antipode = maps.values()
    structure = None
    if delta or counit or antipode:
        every = set(generators)
        if set(delta) != every or set(counit) != every or set(antipode) not in (every, set()):
            raise ValueError(
                "structure needs delta and counit of every generator,"
                " and antipode of every generator or none"
            )
        structure = HopfStructure(delta, counit, antipode or None)
    n, matric = header["n"], {g for g in generators if g.family != "free"}
    whole = {g for fam in {g.family for g in matric} for g in matric_family(fam, n)}
    if odd := min(matric ^ whole, key=lambda g: g.key, default=None):
        where = "outside" if odd in matric else "missing from"
        raise ValueError(f"generator {odd.token()} is {where} the {n}x{n} {odd.family} family")
    return Presentation(
        kind=header["algebra"],
        n=n,
        m=header["m"],
        alphabet=alphabet,
        generators=tuple(generators),
        relations=tuple(relations),
        relation_labels=tuple(labels),
        structure=structure,
    )
