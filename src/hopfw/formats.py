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

Presentation dumps are plain text, one fact per line::

    algebra hw
    n 2
    m 3
    generators u[1,1] ... s[2,2]
    relation us[1,1]: u[1,1]*s[1,1] + u[1,2]*s[2,1] - 1
    delta u[1,1] -> u[1,1]#u[1,1] + u[1,2]#u[2,1]
    counit u[1,1] -> 1
    antipode u[1,1] -> s[1,1]

Polynomials and tensors are written in the text grammar of :mod:`hopfw.ncalg`.
The ``delta`` and ``counit`` lines cover every generator or none, and so do
the ``antipode`` lines.  Rewriting systems have their own dump/parse on
``RewriteSystem``.
"""

from __future__ import annotations

import json

from .exactnum import Scalar, format_rational, parse_rational, rat
from .forms import MultilinearForm
from .hopf import HopfStructure, Presentation
from .ncalg import (
    Alphabet,
    Generator,
    NcPoly,
    TensorSquare,
    parse_generator_token,
    parse_poly,
    parse_tensor,
)

_KINDS = ("bw", "hb", "hw", "hww", "ahmn")


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
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise FormFileError("dim must be an integer")
    if not isinstance(arity, int) or isinstance(arity, bool):
        raise FormFileError("arity must be an integer")
    if not isinstance(entries, list):
        raise FormFileError("entries must be a list")
    parsed: list[tuple[tuple[int, ...], Scalar]] = []
    for i, e in enumerate(entries):
        if not isinstance(e, dict) or set(e) != {"idx", "c"}:
            raise FormFileError(f"entry {i}: expected an object with idx and c")
        idx = e["idx"]
        if not isinstance(idx, list) or not all(
            isinstance(k, int) and not isinstance(k, bool) for k in idx
        ):
            raise FormFileError(f"entry {i}: idx must be a list of integers")
        c = e["c"]
        if isinstance(c, bool) or isinstance(c, float):
            raise FormFileError(f"entry {i}: coefficient must be an integer or a rational string")
        if isinstance(c, int):
            val = rat(c)
        elif isinstance(c, str):
            try:
                val = parse_rational(c)
            except ValueError as exc:
                raise FormFileError(f"entry {i}: {exc}") from None
        else:
            raise FormFileError(f"entry {i}: coefficient must be an integer or a rational string")
        parsed.append((tuple(idx), val))
    try:
        return MultilinearForm(dim, arity, dict(_checked_pairs(parsed)))
    except ValueError as exc:
        raise FormFileError(str(exc)) from None


def _checked_pairs(pairs):
    seen = set()
    for idx, val in pairs:
        if idx in seen:
            raise FormFileError(f"duplicate index {list(idx)}")
        seen.add(idx)
        yield idx, val


def dump_form(w: MultilinearForm) -> str:
    return json.dumps(form_to_obj(w), indent=2) + "\n"


def load_form_text(text: str, where: str = "form") -> MultilinearForm:
    try:
        obj = json.loads(text)
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


def dump_presentation(pres: Presentation) -> str:
    lines = [
        f"algebra {pres.kind}",
        f"n {pres.n}",
        f"m {pres.m}",
        "generators " + " ".join(g.token() for g in pres.generators),
    ]
    for label, rel in zip(pres.relation_labels, pres.relations):
        lines.append(f"relation {label}: {rel.to_str()}")
    st = pres.structure
    if st is not None:
        for g in pres.generators:
            lines.append(f"delta {g.token()} -> {st.delta[g].to_str()}")
        for g in pres.generators:
            lines.append(f"counit {g.token()} -> {format_rational(st.counit[g])}")
        if st.antipode is not None:
            for g in pres.generators:
                lines.append(f"antipode {g.token()} -> {st.antipode[g].to_str()}")
    return "\n".join(lines) + "\n"


def parse_presentation(text: str) -> Presentation:
    kind: str | None = None
    n: int | None = None
    m: int | None = None
    generators: list[Generator] = []
    alphabet: Alphabet | None = None
    labels: list[str] = []
    relations: list[NcPoly] = []
    delta: dict[Generator, TensorSquare] = {}
    counit: dict[Generator, Scalar] = {}
    antipode: dict[Generator, NcPoly] = {}

    def need_alphabet() -> Alphabet:
        if alphabet is None:
            raise ValueError("generators line must precede relations and structure")
        return alphabet

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        try:
            if head == "algebra":
                kind = rest.strip()
                if kind not in _KINDS:
                    raise ValueError(f"unknown algebra kind {kind!r}")
            elif head == "n":
                n = int(rest)
            elif head == "m":
                m = int(rest)
            elif head == "generators":
                if alphabet is not None:
                    raise ValueError("second generators line")
                generators = [parse_generator_token(t) for t in rest.split()]
                alphabet = Alphabet(generators)
            elif head == "relation":
                label, sep, body = rest.partition(":")
                if not sep:
                    raise ValueError("relation line needs 'label: polynomial'")
                labels.append(label.strip())
                relations.append(parse_poly(need_alphabet(), body))
            elif head in ("delta", "counit", "antipode"):
                gtok, sep, body = rest.partition("->")
                if not sep:
                    raise ValueError(f"{head} line needs 'generator -> value'")
                g = parse_generator_token(gtok)
                if g not in need_alphabet():
                    raise ValueError(f"{head} of {g.token()}, which is not a generator")
                if head == "delta":
                    delta[g] = parse_tensor(alphabet, body)
                elif head == "counit":
                    counit[g] = parse_rational(body.strip())
                else:
                    antipode[g] = parse_poly(alphabet, body)
            else:
                raise ValueError(f"unknown line type {head!r}")
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    if kind is None or n is None or m is None or alphabet is None:
        raise ValueError("presentation needs algebra, n, m and generators lines")
    structure = None
    if delta or counit or antipode:
        every = set(generators)
        if set(delta) != every or set(counit) != every or set(antipode) not in (every, set()):
            raise ValueError(
                "structure needs delta and counit of every generator,"
                " and antipode of every generator or none"
            )
        structure = HopfStructure(delta, counit, antipode or None)
    return Presentation(
        kind=kind,
        n=n,
        m=m,
        alphabet=alphabet,
        generators=tuple(generators),
        relations=tuple(relations),
        relation_labels=tuple(labels),
        structure=structure,
        provenance=None,
    )
