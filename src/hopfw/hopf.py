"""Finitely presented (Hopf) algebras attached to a multilinear form.

Five constructions, all with n x n matric generator families and exact
rational coefficients:

* ``build_bw``  -- the universal bialgebra preserving the form: one relation
  per index tuple forcing w to be a comodule map.
* ``build_hw``  -- the universal Hopf version for a preregular form: a
  generator matrix u, its right inverse s, a twisted inverse relation built
  from the twisting element Q, and the form-preservation relations on u.
* ``build_hb``  -- the bilinear (arity 2) presentation with the relations
  written through the matrix b and its inverse.
* ``build_hww`` -- the single-matrix presentation that uses a polar tensor of
  the form to express the antipode polynomially.
* ``build_ahmn`` -- the quantum-permutation-flavored presentation with
  row/column annihilation and m-th power sum relations.

Matrix identities are written in generator-matrix algebra
(:class:`~hopfw.ncalg.PolyMatrix`).  In a product ``A @ B`` the word of the
``A`` entry comes first: (A B)[i,j] = sum_k A[i,k] B[k,j], words concatenated
left to right; transposition moves entries and never reverses a word.  With
U, S the u and s generator matrices, I the identity, Q the twisting element,
X = Q^-1 U Q, B the matrix of a bilinear form, and P the polar antipode
matrix P[mu,nu] = sum wt^{mu,L} w_{R,nu} g^{R1}_{L1}...g^{R(m-1)}_{L(m-1)}:

* hw: ``us`` = U S - I and its antipode image ``tus`` = (X^T S^T)^T - I;
  antipode u -> S, s -> X, so S^2 is conjugation by Q, and s splits flipped:
  s[i,j] -> sum_k s[k,j] (x) s[i,k];
* hb: ``bst`` = U^T B U - B and ``binst`` = U B^-1 U^T - B^-1; antipode
  B^-1 U^T B;
* hww: antipode P;
* bw left inverse: ``leftinv`` = P A - I;
* derived suite: ``su`` = S U - I and ``Rsu`` = S - P over u, and the images
  under the presentation's antipode, which reverses every word: ``sinw`` of
  ``invw``, ``tsu`` = (S^T X^T)^T - I of ``su`` and ``Rus`` = X - P' of
  ``Rsu``, with P' the image of P.

Each precondition of the paper is checked in one place: ``_twist`` (a
preregular form), ``_refuse_unless_polar`` (a polar tensor, refused before
anything reads it or completes) and ``_form_of`` (``Presentation.form``, set
by a builder and not by the parser).  ``_structure`` reads a coproduct,
counit or antipode, which a parsed dump may lack.

Builders return (label, polynomial) pairs.  The private table ``_ALGEBRAS``
maps each algebra kind to the inputs its build reads and to that build, for
the presentation reader and the CLI alike; ``build_algebra`` builds every
kind.  The inputs are named once, as the fields of ``SuiteInputs``.  Beyond
its build, bw's axioms read ``--polar`` and check that member's left inverse.

Every structural claim is a value that must vanish, most of them in the
quotient by a degree-truncated rewriting system.  Each check hands
``_verdict`` that value in the engine's form and the system when a quotient
is meant; ``_verdict`` alone reduces it, once, and turns it into PASS
(zero), FAIL (shown, in Fractions only there) or UNCERTIFIED (it needs a
degree above the certified one; nothing recompletes).  The reduction entry
``rewrite._reduce`` is the one place its denominators are cleared and the
one place that refuses a word above the certified degree; a tensor square
goes through ``_reduce_tensor``, which reduces every word and leg sum
through that entry.  A nonzero normal form at a truncation refutes nothing
on its own, yet is reported FAIL today (ROADMAP item 2).  ``_images`` is the
one path of every map a check applies (counit, hom, representation,
antipode and coproduct; the derived suite's antipode images too), and
``_rows`` gives the verdict of each relation's image.  The antipode's unit
sums read each generator's own coproduct and counit, which only
``_presentation`` writes.
``_from_hw`` builds every map out of hw: u to the target's generator matrix
G, s to S(G).  The table ``SUITES`` names every verification suite, the
inputs it reads and the function that runs it; ``hopfw verify`` is a lookup
in it.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Callable, Iterable, Mapping

from .exactnum import (
    Matrix, ONE, Scalar, ZERO, add_terms, fraction_quotients, lean, lean_terms, mat_inv,
)
from .forms import (
    MultilinearForm,
    analyze,
    in_polar,
    is_one_site_nondegenerate,
    make_orthogonal,
    make_signature,
    polar,
)
from .ncalg import (
    Alphabet,
    Generator,
    NcPoly,
    PolyMatrix,
    TensorSquare,
    coproduct_image,
    matric_family,
    substitute,
)
from .rewrite import NotCertifiedError, RewriteSystem, _reduce, complete, ideal_member

Idx = tuple[int, ...]


class Status(Enum):
    PASS = "PASS"
    FAIL = "FAIL"
    UNCERTIFIED = "UNCERTIFIED"


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: Status
    detail: str = ""


def all_pass(results: Iterable[CheckResult]) -> bool:
    return all(r.status is Status.PASS for r in results)


def worst_status(results: Iterable[CheckResult]) -> Status:
    seen = {r.status for r in results}
    if Status.FAIL in seen:
        return Status.FAIL
    if Status.UNCERTIFIED in seen:
        return Status.UNCERTIFIED
    return Status.PASS


@dataclass
class HopfStructure:
    delta: dict[Generator, TensorSquare]
    counit: dict[Generator, Scalar]
    antipode: dict[Generator, NcPoly] | None


@dataclass
class Presentation:
    kind: str
    n: int
    m: int
    alphabet: Alphabet
    generators: tuple[Generator, ...]
    relations: tuple[NcPoly, ...]
    relation_labels: tuple[str, ...]
    structure: HopfStructure | None = None
    form: MultilinearForm | None = None

    def label(self) -> str:
        return f"{self.kind}[n={self.n},m={self.m}]"

    def families(self) -> tuple[str, ...]:
        """The matric families, in generator order."""
        return tuple(dict.fromkeys(g.family for g in self.generators if g.family != "free"))


def default_degree(m: int) -> int:
    """Default truncation: twice the arity (covers the derived-identity
    certificates, which pair an arity-m relation with m inverse letters)."""
    return 2 * m


def _labelled(name: str, pairs: Iterable[tuple[Idx, NcPoly]]) -> list[tuple[str, NcPoly]]:
    """One (``name[index]``, polynomial) pair per (index, polynomial) pair."""
    return [(f"{name}[{','.join(map(str, idx))}]", poly) for idx, poly in pairs]


def _presentation(
    kind: str,
    n: int,
    m: int,
    alphabet: Alphabet,
    relations: list[tuple[str, NcPoly]],
    antipode: dict[Generator, NcPoly] | None,
    form: MultilinearForm | None,
) -> Presentation:
    """Attach the matric coproduct and counit to every generator family; the
    s family splits with flipped tensor factors."""
    delta: dict[Generator, TensorSquare] = {}
    counit: dict[Generator, Scalar] = {}
    letter = {(g.family, g.row, g.col): alphabet.char(g) for g in alphabet.generators}
    for g in alphabet.generators:
        f = g.family
        legs = [(letter[f, g.row, k], letter[f, k, g.col]) for k in range(1, n + 1)]
        if f == "s":
            legs = [(right, left) for left, right in legs]
        delta[g] = TensorSquare._adopt(alphabet, dict.fromkeys(legs, ONE))
        counit[g] = ONE if g.row == g.col else ZERO
    return Presentation(
        kind=kind,
        n=n,
        m=m,
        alphabet=alphabet,
        generators=alphabet.generators,
        relations=tuple(poly for _, poly in relations),
        relation_labels=tuple(label for label, _ in relations),
        structure=HopfStructure(delta, counit, antipode),
        form=form,
    )


# the most terms the form relations of one form may hold: n^m relations of
# a form of dim n and arity m, each with a term per entry.  signature-5 has
# 375 000 of them, and build_hw takes 0.11 s and 40 MB to write them;
# signature-6 would have 33 592 320.  ahmn's relations are held to it too
_PRESERVATION_MAX_TERMS = 1_000_000


# a power n^m of more bits than this is never multiplied out: with n >= 2 it
# is at least 2^2048, above every bound, and Python refuses to print an int
# of more than 4 300 digits
_POWER_MAX_BITS = 4096


def _refuse_above_the_bound(
    relations: str, count: int | str, unit="terms", power=(1, 1), bound=_PRESERVATION_MAX_TERMS
) -> None:
    """Raise ValueError when ``relations`` would hold more than ``bound``
    ``unit``: ``count`` times n^m of them for ``power`` (n, m).  A power of
    more than ``_POWER_MAX_BITS`` bits is refused without being multiplied
    out, and the message writes it ``count * n^m``; a ``count`` given as
    text, one too large to write out, is above the bound and written so."""
    n, m = power
    if isinstance(count, str):
        total = count
    elif n > 1 and m * n.bit_length() > _POWER_MAX_BITS:
        total = f"{count} * {n}^{m}"
    elif (total := count * n**m) <= bound:
        return
    raise ValueError(f"{relations} would hold {total} {unit}, above the bound of {bound}")


def _refuse_form_relations(dim: int, arity: int, entries: int) -> None:
    """Refuse form relations of more than ``_PRESERVATION_MAX_TERMS`` terms:
    n^m relations, each counted as max(``entries``, 1) terms."""
    _refuse_above_the_bound(
        f"the form relations of a form of dim {dim}, arity {arity} and {entries} entries",
        max(entries, 1),
        power=(dim, arity),
    )


def _bounded(w: MultilinearForm) -> MultilinearForm:
    """``w``, unless its form relations are refused.  Each builder of them
    asks before it reads the form in any other way: a flattening of an
    oversized form, even an empty one, can outgrow memory first."""
    _refuse_form_relations(w.dim, w.arity, len(w.entries))
    return w


def _preservation(
    alphabet: Alphabet,
    w: MultilinearForm,
    family: str,
    *,
    lower_is_free: bool = True,
) -> Iterable[tuple[Idx, NcPoly]]:
    """(M, sum_L w_L g^{L1}_{M1}...g^{Lm}_{Mm} - w_M) for every index tuple M.

    With ``lower_is_free`` False the roles swap: the *upper* indices are the
    free tuple M and the lower ones are contracted against w.  A form whose
    relations would hold more than ``_PRESERVATION_MAX_TERMS`` terms is
    refused before the first is built.
    """
    _bounded(w)
    rng = range(1, w.dim + 1)
    char = {}
    for c, f in itertools.product(rng, repeat=2):
        row, col = (c, f) if lower_is_free else (f, c)
        char[(c, f)] = alphabet.char(Generator(family, row, col))
    lams, coeffs = list(w.entries), list(w.entries.values())
    # columns[k][f]: letter k of every entry's word when M_k = f, so that
    # each M spells all its words in one zip of m columns
    columns = [{f: [char[(lam[k], f)] for lam in lams] for f in rng} for k in range(w.arity)]
    for mu in itertools.product(rng, repeat=w.arity):
        constant = w.entries.get(mu)
        terms: dict[str, Scalar] = {"": -constant} if constant else {}
        # for a fixed M each word spells its L, so no two terms meet
        words = map("".join, zip(*[column[f] for column, f in zip(columns, mu)]))
        terms.update(zip(words, coeffs))
        yield mu, NcPoly._adopt(alphabet, terms)


def _twist(w: MultilinearForm) -> Matrix:
    """The twisting element Q of a preregular form; any other form is refused."""
    report = analyze(w)
    if not report.preregular:
        raise ValueError("form is not preregular")
    return report.q


def _form_of(pres: Presentation) -> MultilinearForm:
    """The form ``pres`` was built from; a parsed presentation has none."""
    if pres.form is None:
        raise ValueError(f"this check needs a presentation built from a form, not {pres.label()}")
    return pres.form


def _structure(pres: Presentation, part: str) -> dict:
    """The ``delta``, ``counit`` or ``antipode`` images of ``pres``; a parsed
    dump may have no structure lines, or no antipode lines."""
    images = getattr(pres.structure, part, None)
    if images is None:
        raise ValueError(f"{pres.label()} has no {part} data")
    return images


def _refuse_unless_polar(wt: MultilinearForm, w: MultilinearForm) -> None:
    """Raise ValueError unless ``wt`` is in the polar affine space of ``w``."""
    if not in_polar(wt, w):
        raise ValueError("tensor is not in the polar affine space of the form")


def _polar_matrix(
    alphabet: Alphabet,
    w: MultilinearForm,
    wt: MultilinearForm,
    family: str,
) -> PolyMatrix:
    """P[mu,nu] = sum wt^{mu,L} w_{R,nu} g^{R1}_{L1}...g^{R(m-1)}_{L(m-1)}, the
    antipode of g written through a polar tensor; any other tensor is refused."""
    _refuse_unless_polar(wt, w)
    rng = range(1, w.dim + 1)
    terms: dict[tuple[int, int], dict[str, Scalar]] = {(mu, nu): {} for mu in rng for nu in rng}
    for lidx, c1 in wt.entries.items():
        for ridx, c2 in w.entries.items():
            word = alphabet.word(Generator(family, i, j) for i, j in zip(ridx[:-1], lidx[1:]))
            # the entry fixes L1 and Rm and the word spells the rest of L and R
            terms[lidx[0], ridx[-1]][word] = c1 * c2
    return PolyMatrix(alphabet, ([NcPoly(alphabet, terms[(mu, nu)]) for nu in rng] for mu in rng))


def _transposed_power(alphabet: Alphabet, family: str, n: int, k: int) -> PolyMatrix:
    """The matrix whose (r, c) entry is the k-th power of ``family[c,r]``."""
    rng = range(1, n + 1)
    return PolyMatrix(
        alphabet,
        ([NcPoly.from_gens(alphabet, [Generator(family, c, r)] * k) for c in rng] for r in rng),
    )


def build_bw(w: MultilinearForm) -> Presentation:
    """Universal bialgebra preserving ``w`` (one-site nondegeneracy required)."""
    if not is_one_site_nondegenerate(_bounded(w)):
        raise ValueError("form fails one-site nondegeneracy")
    alphabet = Alphabet(matric_family("a", w.dim))
    relations = _labelled("form", _preservation(alphabet, w, "a"))
    return _presentation("bw", w.dim, w.arity, alphabet, relations, None, w)


def build_hw(w: MultilinearForm) -> Presentation:
    """Universal Hopf algebra of a preregular form.

    Generators u, s; relations: u s = 1 entrywise, the Q-twisted product
    (Q u Q^{-1}) s = 1, and form preservation on u.  The twisting element is
    recomputed from the form here, never taken on trust.
    """
    n, q = w.dim, _twist(_bounded(w))
    q_inv = mat_inv(q)
    # tus[i,j] = sum over k and the nonzero Q^-1[k,a] and Q[b,j] of u[a,b] s[i,k]
    nq, nq_inv = (sum(map(bool, m.entries)) for m in (q, q_inv))
    _refuse_above_the_bound(
        f"the tus relations of a form of dim {n} with {nq} and {nq_inv} nonzero entries"
        " in Q and Q^-1",
        n * nq * nq_inv,
    )
    alphabet = Alphabet(matric_family("u", n) + matric_family("s", n))
    u = PolyMatrix.family(alphabet, "u", n)
    s = PolyMatrix.family(alphabet, "s", n)
    one = PolyMatrix.identity(alphabet, n)
    x = PolyMatrix.scalar(alphabet, q_inv) @ u @ PolyMatrix.scalar(alphabet, q)
    relations = _labelled("us", (u @ s - one).entries())
    relations += _labelled("tus", ((x.T @ s.T).T - one).entries())
    relations += _labelled("invw", _preservation(alphabet, w, "u"))
    antipode = s.images("u") | x.images("s")
    return _presentation("hw", n, w.arity, alphabet, relations, antipode, w)


def build_hb(b: MultilinearForm) -> Presentation:
    """Arity-2 universal Hopf algebra written through b and its inverse."""
    if b.arity != 2:
        raise ValueError("this presentation needs a bilinear form")
    n = _bounded(b).dim  # bst holds the n^2 |entries| terms of the form relations
    bm = Matrix(n, n, [b[(i, j)] for i in range(1, n + 1) for j in range(1, n + 1)])
    binv = mat_inv(bm)  # singular b is rejected here
    nb_inv = sum(map(bool, binv.entries))
    _refuse_above_the_bound(
        f"the binst relations of a form of dim {n} with {nb_inv} nonzero entries in b^-1",
        n * n * nb_inv,
    )
    alphabet = Alphabet(matric_family("u", n))
    u = PolyMatrix.family(alphabet, "u", n)
    bb = PolyMatrix.scalar(alphabet, bm)
    bi = PolyMatrix.scalar(alphabet, binv)
    relations = _labelled("bst", (u.T @ bb @ u - bb).entries())
    relations += _labelled("binst", (u @ bi @ u.T - bi).entries())
    antipode = (bi @ u.T @ bb).images("u")
    return _presentation("hb", n, 2, alphabet, relations, antipode, b)


def build_hww(w: MultilinearForm, wt: MultilinearForm) -> Presentation:
    """Single-matrix presentation from a form and a member of its polar
    family; the polar membership is verified exactly before building."""
    _bounded(wt)
    _twist(_bounded(w))  # refuses a form that is not preregular
    alphabet = Alphabet(matric_family("v", w.dim))
    antipode = _polar_matrix(alphabet, w, wt, "v").images("v")
    relations = _labelled("wv", _preservation(alphabet, w, "v"))
    relations += _labelled("wtv", _preservation(alphabet, wt, "v", lower_is_free=False))
    return _presentation("hww", w.dim, w.arity, alphabet, relations, antipode, w)


def _refuse_ahmn(m: int, n: int) -> None:
    """Refuse ahmn(m, n) unless m, n >= 2 and it is within the bound.  Each
    side has n^2 (n - 1) one-term zero relations and n power sums of n + 1
    terms, n of them words of m letters: 2n^3 + 2n terms and 2n^2 m letters."""
    if m < 2 or n < 2:
        raise ValueError("need m >= 2 and n >= 2")
    big = 3 * n.bit_length() > _POWER_MAX_BITS  # decided before it is multiplied out
    terms = f"2 * {n}^3 + 2 * {n}" if big else 2 * n**3 + 2 * n
    _refuse_above_the_bound(f"the relations of ahmn with n={n}", terms)
    _refuse_above_the_bound(
        f"the power sums of ahmn with m={m} and n={n}", 2 * n * n, "letters", (m, 1)
    )


def build_ahmn(m: int, n: int) -> Presentation:
    """Row/column annihilation plus m-th power-sum relations on one matric
    family; the antipode transposes and raises to the (m-1)-st power."""
    _refuse_ahmn(m, n)
    alphabet = Alphabet(matric_family("a", n))
    rng = range(1, n + 1)
    # a row-side index pair (mu, lam) names a[mu,lam], a column-side one a[lam,mu]
    sides = {
        "row": lambda mu, lam: Generator("a", mu, lam),
        "col": lambda mu, lam: Generator("a", lam, mu),
    }
    relations = []
    for side, gen in sides.items():
        zeros = (
            ((mu, lam, nu), NcPoly.from_gens(alphabet, [gen(mu, lam), gen(mu, nu)]))
            for mu, lam, nu in itertools.product(rng, repeat=3)
            if lam != nu
        )
        relations += _labelled(f"{side}zero", zeros)
    for side, gen in sides.items():
        sums = []
        for mu in rng:
            powers = {alphabet.word([gen(mu, lam)] * m): ONE for lam in rng}
            sums.append(((mu,), NcPoly(alphabet, powers) - NcPoly.unit(alphabet)))
        relations += _labelled(f"{side}pow", sums)
    antipode = _transposed_power(alphabet, "a", n, m - 1).images("a")
    return _presentation("ahmn", n, m, alphabet, relations, antipode, None)


def _polar_choice(w: MultilinearForm, wt: MultilinearForm | None) -> MultilinearForm:
    """``wt`` when given, else the canonical (particular) polar member.
    Every caller builds the form relations of ``w``, so an oversized form is
    refused before ``polar`` flattens it."""
    if wt is not None:
        return wt
    sol = polar(_bounded(w))
    if sol is None:
        raise ValueError("form has no polar tensor (one-site degenerate)")
    return sol.particular


# ---------------------------------------------------------------------------
# checks


def _reduce_tensor(system: RewriteSystem, alphabet: Alphabet, terms: dict) -> tuple[dict, int]:
    """What ``rewrite._reduce`` gives for the terms of a tensor square:
    (nf (x) nf of them, 1), in the engine's form.  The legs go through that
    entry one sum at a time: the left sum at each right word, then the right
    sum at each left normal word.  Before any sum, the words of the terms
    above the certified degree go through that entry one at a time, leading
    term first: the left word, then the right word when the left one does
    not vanish.  So the first of them above the degree is the one the entry
    refuses, and a left sum that cancels never certifies a word above it."""
    top = system.complete_through

    def nf(leg: dict) -> dict:
        reduced, e = _reduce(system, alphabet, leg)
        return reduced if e == 1 else {w: lean(Scalar(c, e)) for w, c in reduced.items()}

    above = (k for k in terms if len(k[0]) > top or len(k[1]) > top)
    for w1, w2 in TensorSquare._leading_first(above):
        if nf({w1: 1}):  # each nf raises for a word above the degree
            nf({w2: 1})
    lefts: dict[str, dict] = {}
    for (w1, w2), c in terms.items():
        lefts.setdefault(w2, {})[w1] = c
    rights: dict[str, dict] = {}
    for w2, left in lefts.items():
        for u, c in nf(left).items():
            rights.setdefault(u, {})[w2] = c
    return {(u, v): c for u, right in rights.items() for v, c in nf(right).items()}, 1


def _verdict(
    name: str, what: str, value: NcPoly | TensorSquare, system: RewriteSystem | None = None
) -> CheckResult:
    """The one place a value that must vanish becomes a status.  ``value``
    is in the engine's form; with ``system`` it is meant in that quotient,
    and the one reduction here takes its normal form (``_reduce_tensor`` for
    a tensor square), which the reduction entry hands out as e times itself
    for its own e.  PASS when zero, FAIL showing it as ``what``, in
    Fractions, and UNCERTIFIED when the normal form needs a degree above the
    certified one, which the detail names."""
    if system is not None:
        reduce = _reduce_tensor if isinstance(value, TensorSquare) else _reduce
        try:
            terms, e = reduce(system, value.alphabet, value.terms)
        except NotCertifiedError as exc:
            detail = f"needs degree {exc.degree}, certified {exc.certified}"
            return CheckResult(name, Status.UNCERTIFIED, detail)
        value = value._adopt(value.alphabet, fraction_quotients(terms, e))
    if value.is_zero():
        return CheckResult(name, Status.PASS)
    return CheckResult(name, Status.FAIL, f"{what} {value.to_str()}")


def _images(
    images: Mapping, target: Alphabet, extend: Callable = substitute, **kw
) -> Callable[[NcPoly], NcPoly | TensorSquare]:
    """The map a check applies, as ``image(rel)``: the image of ``rel``
    under ``extend`` (``substitute``, with ``antihom`` in ``kw`` for an
    antipode, or ``coproduct_image``) of ``images`` into ``target``.  The
    relation and the images are taken in the engine's form, so the image is
    summed over the ints wherever both are integral."""
    lean_images = {g: t._adopt(t.alphabet, lean_terms(t.terms)) for g, t in images.items()}
    return lambda rel: extend(
        rel._adopt(rel.alphabet, lean_terms(rel.terms)), lean_images, target=target, **kw
    )


def _rows(
    prefix: str,
    pres: Presentation,
    what: str,
    image: Callable[[NcPoly], NcPoly | TensorSquare],
    system: RewriteSystem | None = None,
) -> list[CheckResult]:
    """One verdict per relation of ``pres``, named ``prefix:label``: the
    ``image`` of the relation must vanish, in the quotient by ``system``
    when one is given."""
    return [
        _verdict(f"{prefix}:{label}", what, image(rel), system)
        for label, rel in zip(pres.relation_labels, pres.relations)
    ]


def _verdicts(
    label: str, pairs: Iterable[tuple[Idx, NcPoly]], system: RewriteSystem
) -> list[CheckResult]:
    """One verdict per (index, polynomial that must vanish), named ``label[index]``."""
    return [_verdict(name, "normal form", p, system) for name, p in _labelled(label, pairs)]


def system_for(pres: Presentation, degree: int, on_progress=None) -> RewriteSystem:
    """Complete the presentation's relations through ``degree``: the one
    completion entry point of the suites, the probe and ``hopfw gb``."""
    return complete(list(pres.relations), degree, on_progress=on_progress)


def check_counit(pres: Presentation) -> list[CheckResult]:
    """The counit, extended as a character, must send every relation to 0."""
    a = pres.alphabet
    image = _images({g: NcPoly.unit(a, e) for g, e in _structure(pres, "counit").items()}, a)
    return _rows("counit", pres, "counit value", image)


def check_coproduct(
    pres: Presentation, degree: int, system: RewriteSystem | None = None
) -> list[CheckResult]:
    """Each relation's coproduct image must vanish componentwise modulo the
    ideal (certified at the system's completed degree)."""
    image = _images(_structure(pres, "delta"), pres.alphabet, coproduct_image)
    if system is None:
        system = system_for(pres, degree)
    return _rows("coproduct", pres, "residue", image, system)


def check_antipode(
    pres: Presentation, degree: int, system: RewriteSystem | None = None
) -> list[CheckResult]:
    """Antipode images must respect the ideal antimultiplicatively, and each
    generator g must satisfy the unit sums of its own coproduct and counit:
    sum S(x) y - eps(g) and sum x S(y) - eps(g) over the terms x (x) y of delta(g)."""
    s_images = _structure(pres, "antipode")
    delta, counit = _structure(pres, "delta"), _structure(pres, "counit")
    if system is None:
        system = system_for(pres, degree)
    a = pres.alphabet
    s_of = _images(s_images, a, antihom=True)
    s_word = functools.cache(lambda word: s_of(NcPoly.from_word(a, word)).terms)
    out = _rows("antipode-ideal", pres, "normal form", s_of, system)
    for g, side in itertools.product(pres.generators, ("left", "right")):
        # S(1) = 1, so either sum over delta(g) - eps(g) 1#1 subtracts eps(g)
        unit_sum = lean_terms((delta[g] - TensorSquare.unit(a, counit[g])).terms)
        terms: dict = {}
        right = side == "right"
        for (x, y), c in unit_sum.items():
            image = s_word(y if right else x)
            add_terms(terms, (((x + w if right else w + y), c * e) for w, e in image.items()))
        name = f"antipode-{side}:{g.token()}"
        out.append(_verdict(name, "normal form", NcPoly._adopt(a, terms), system))
    return out


def hopf_axiom_suite(
    pres: Presentation, degree: int, system: RewriteSystem | None = None
) -> list[CheckResult]:
    """Counit + coproduct (+ antipode when present) in one report."""
    out = check_counit(pres)  # before completing: it refuses a dump with no structure
    if system is None:
        system = system_for(pres, degree)
    out += check_coproduct(pres, degree, system)
    if pres.structure.antipode is not None:
        out += check_antipode(pres, degree, system)
    return out


def check_left_inverse_identity(
    pres: Presentation,
    wt: MultilinearForm,
    degree: int,
    system: RewriteSystem | None = None,
) -> list[CheckResult]:
    """In the bialgebra of the form, the polar tensor provides an explicit
    left inverse for the generator matrix A: P A - I must reduce to zero."""
    a, n, fam = pres.alphabet, pres.n, pres.families()[0]
    left_inverse = _polar_matrix(a, _form_of(pres), wt, fam) @ PolyMatrix.family(a, fam, n)
    if system is None:
        system = system_for(pres, degree)
    return _verdicts("leftinv", (left_inverse - PolyMatrix.identity(a, n)).entries(), system)


def derived_relations_suite(
    pres: Presentation,
    wt: MultilinearForm | None,
    degree: int,
    system: RewriteSystem | None = None,
) -> list[CheckResult]:
    """Consequences of the defining relations of the u/s presentation.

    Always checked: ``su`` = S U - I, and the images under the presentation's
    antipode of ``invw`` (the reversed form-preservation on s, ``sinw``) and
    of ``su`` (``tsu``); when a polar tensor is given, ``Rsu`` = S - P
    expresses s through u, and its image ``Rus`` u through s.  For arity >= 3
    the two-generator reduction identity is included; for the alternating
    and the fully diagonal instances the suite adds their special
    consequences (column/commutator exchange relations, and s as a power of
    u).
    """
    if pres.kind != "hw":
        raise ValueError("derived relations are stated for the u/s presentation")
    w = _form_of(pres)
    n, m = pres.n, pres.m
    a = pres.alphabet
    p = None if wt is None else _polar_matrix(a, w, wt, "u")
    if system is None:
        system = system_for(pres, degree)

    s = PolyMatrix.family(a, "s", n)
    su = list((s @ PolyMatrix.family(a, "u", n) - PolyMatrix.identity(a, n)).entries())
    # sinw, tsu and Rus are the antipode's images of invw, su and Rsu
    s_of = _images(_structure(pres, "antipode"), a, antihom=True)
    out = _verdicts("sinw", ((mu, s_of(r)) for mu, r in _preservation(a, w, "u")), system)
    out += _verdicts("su", su, system)
    out += _verdicts("tsu", ((idx, s_of(r)) for idx, r in su), system)

    if p is not None:
        rsu = list((s - p).entries())
        out += _verdicts("Rsu", rsu, system)
        out += _verdicts("Rus", ((idx, s_of(r)) for idx, r in rsu), system)

    if m >= 3:
        out += pair_reduction_suite(pres, degree, system)

    if w == make_signature(3):
        out += manin_suite(degree, system)

    if w == make_orthogonal(n, m):
        out += _verdicts("spow", _power_antipode(pres).entries(), system)

    return out


def _power_antipode(pres: Presentation) -> PolyMatrix:
    """S - P, with P the transposed (m-1)-st power of U: it vanishes when s
    is that power of u (fully diagonal form only)."""
    a, n = pres.alphabet, pres.n
    return PolyMatrix.family(a, "s", n) - _transposed_power(a, "u", n, pres.m - 1)


def pair_reduction_suite(
    pres: Presentation, degree: int, system: RewriteSystem | None = None
) -> list[CheckResult]:
    """Two-generator reduction: contracting the form against m-2 inverse
    letters turns a product of two u's into a form-weighted sum --
    sum_M w_{l,r,M} s^{Mm}_{Nm}...s^{M3}_{N3} = sum_{N1,N2} w_N u^{N1}_l u^{N2}_r."""
    if pres.kind != "hw" or pres.m < 3:
        raise ValueError("the pair reduction needs the u/s presentation with arity >= 3")
    w = _form_of(pres)
    if system is None:
        system = system_for(pres, degree)
    a = pres.alphabet
    pairs = []
    for lam, rho, *rest in itertools.product(range(1, pres.n + 1), repeat=pres.m):
        # each s word spells its M3..Mm and each u word its N1 N2, so no two terms meet
        terms: dict[str, Scalar] = {}
        for idx, c in w.entries.items():
            if idx[:2] == (lam, rho):
                letters = zip(reversed(idx[2:]), reversed(rest))
                terms[a.word(Generator("s", i, j) for i, j in letters)] = c
            if list(idx[2:]) == rest:
                terms[a.word([Generator("u", idx[0], lam), Generator("u", idx[1], rho)])] = -c
        pairs.append(((lam, rho, *rest), NcPoly(a, terms)))
    return _verdicts("pairred", pairs, system)


def manin_suite(degree: int, system: RewriteSystem | None = None) -> list[CheckResult]:
    """Same-column commutation and cross-column commutator exchange of the
    u's of the alternating 3x3 instance, over the alphabet of ``system``;
    hw(signature-3) is built only to complete a system when none is given."""
    if system is None:
        system = system_for(build_hw(make_signature(3)), degree)
    a = system.alphabet
    rng = range(1, 4)

    def comm(i: int, j: int, k: int, l: int) -> NcPoly:
        """The commutator [u^i_j, u^k_l]."""
        p = NcPoly.from_gens(a, [Generator("u", i, j)])
        q = NcPoly.from_gens(a, [Generator("u", k, l)])
        return p * q - q * p

    column = (
        ((lam, mu, nu), comm(lam, nu, mu, nu))
        for nu in rng
        for lam, mu in itertools.combinations(rng, 2)
    )
    exchange = (
        ((lam, mu, nu, rho), comm(lam, nu, mu, rho) - comm(mu, nu, lam, rho))
        for lam, mu in itertools.combinations(rng, 2)
        for nu, rho in itertools.permutations(rng, 2)
    )
    return _verdicts("column", column, system) + _verdicts("exchange", exchange, system)


def _iso_suite(
    homs: tuple[HomCandidate, HomCandidate], degree: int, label: str, vanish: PolyMatrix
) -> list[CheckResult]:
    """Both directions of an identification of hw with another presentation,
    then ``label``: the entries of ``vanish``, which must vanish in hw."""
    fwd, back = homs
    out = check_hom(fwd, degree, system_for(fwd.target, degree))
    hw_system = system_for(back.target, degree)
    out += check_hom(back, degree, hw_system)
    return out + _verdicts(label, vanish.entries(), hw_system)


def diagonal_iso_suite(n: int, m: int, degree: int) -> list[CheckResult]:
    """Both directions of the diagonal-form <-> power-sum identification,
    plus the in-quotient identity s^l_m = (u^m_l)^{m-1}."""
    homs = theta_iso_homs(n, m)
    return _iso_suite(homs, degree, "spow", _power_antipode(homs[0].source))


def bilinear_iso_suite(b: MultilinearForm, degree: int) -> list[CheckResult]:
    """Mutual homomorphism checks for the arity-2 identification, plus the
    roundtrip fix of s (the composite must send s back to s)."""
    fwd, back = m2_iso_homs(b)
    a, n = fwd.source.alphabet, b.dim
    composed = {g: substitute(fwd.images[g], back.images, target=a) for g in matric_family("s", n)}
    roundtrip = PolyMatrix.family(a, "s", n) - PolyMatrix.of(a, composed, "s", n)
    return _iso_suite((fwd, back), degree, "roundtrip-s", roundtrip)


@dataclass
class HomCandidate:
    label: str
    source: Presentation
    target: Presentation
    images: dict[Generator, NcPoly]


def check_hom(
    hom: HomCandidate, degree: int, system: RewriteSystem | None = None
) -> list[CheckResult]:
    """An assignment extends to the quotients iff every source relation
    lands in the target ideal."""
    if system is None:
        system = system_for(hom.target, degree)
    image = _images(hom.images, hom.target.alphabet)
    return _rows(hom.label, hom.source, "normal form", image, system)


def _from_hw(label: str, hw: Presentation, target: Presentation) -> HomCandidate:
    """u to the one generator matrix G of ``target`` and s to S(G): a Hopf
    map out of hw is fixed by the image of u, as s = S(u)."""
    families = target.families()
    if len(families) != 1:
        raise ValueError(
            f"a map out of hw needs one generator matrix; {target.label()} has {len(families)}"
        )
    a, n, fam = target.alphabet, target.n, families[0]
    g = PolyMatrix.family(a, fam, n)
    sg = PolyMatrix.of(a, _structure(target, "antipode"), fam, n)
    return HomCandidate(label, hw, target, g.images("u") | sg.images("s"))


def hw_to_hww_hom(hw: Presentation, hww: Presentation) -> HomCandidate:
    """u goes to the generator matrix, s to its antipode image."""
    return _from_hw("hw->hww", hw, hww)


def theta_iso_homs(n: int, m: int) -> tuple[HomCandidate, HomCandidate]:
    """Mutually inverse assignments between the fully diagonal form's Hopf
    algebra and the power-sum presentation: u <-> a, s -> transposed power."""
    # every bound before anything is built, the form's n tuples of m indices last
    _refuse_ahmn(m, n)
    _refuse_form_relations(n, m, n)
    ah = build_ahmn(m, n)
    htheta = build_hw(make_orthogonal(n, m))
    back = PolyMatrix.family(htheta.alphabet, "u", n).images("a")
    return _from_hw("htheta->ah", htheta, ah), HomCandidate("ah->htheta", ah, htheta, back)


def m2_iso_homs(b: MultilinearForm) -> tuple[HomCandidate, HomCandidate]:
    """For arity 2 the u/s presentation and the b-presentation agree:
    u <-> u, with s carried to the b-conjugated matrix."""
    hw = build_hw(b)
    hb = build_hb(b)
    back = PolyMatrix.family(hw.alphabet, "u", b.dim).images("u")
    return _from_hw("hw->hb", hw, hb), HomCandidate("hb->hw", hb, hw, back)


@dataclass
class RepresentationReport:
    results: list[CheckResult]
    witness_images: tuple[NcPoly, NcPoly] | None
    witness_distinct: bool | None

    def ok(self) -> bool:
        return all_pass(self.results)


def check_representation(
    pres: Presentation,
    images: Mapping[Generator, NcPoly],
    witness: tuple[NcPoly, NcPoly] | None = None,
) -> RepresentationReport:
    """Validate an assignment into a free algebra (exact, no completion):
    every relation must map to the zero polynomial on the nose.  A witness
    pair with distinct images certifies distinctness in the quotient."""
    if not images:
        raise ValueError("a representation needs generator images, and none is given")
    target = next(iter(images.values())).alphabet
    if any(g.family != "free" for g in target.generators):
        raise ValueError("representation targets must be free algebras")
    results = _rows("rep", pres, "image", _images(images, target))
    wimg = None if witness is None else tuple(substitute(w, images) for w in witness)
    distinct = None if wimg is None else wimg[0] != wimg[1]
    return RepresentationReport(results, wimg, distinct)


def unitriangular_free_images(pres: Presentation) -> dict[Generator, NcPoly]:
    """The two-parameter unitriangular representation of the alternating
    3x3 instance: u maps to I + N and s to I - N with N = x E12 + y E13,
    inside the free algebra on x, y."""
    if pres.kind != "hw" or pres.n != 3 or pres.m != 3:
        raise ValueError("this representation is for the 3x3 arity-3 instance")
    x = Generator.free("x")
    y = Generator.free("y")
    target = Alphabet([x, y])
    zero = NcPoly.zero(target)
    px = NcPoly.from_gens(target, [x])
    py = NcPoly.from_gens(target, [y])
    nil = PolyMatrix(target, [[zero, px, py], [zero, zero, zero], [zero, zero, zero]])
    one = PolyMatrix.identity(target, 3)
    return (one + nil).images("u") | (one - nil).images("s")


@dataclass
class ProbeReport:
    witness_ok: bool
    commutator_certified: bool
    degree: int
    verdict: str
    details: list[CheckResult] = field(default_factory=list)


def _probe_verdict(certified: bool, degree: int) -> str:
    return "noninjective certified" if certified else f"inconclusive at degree {degree}"


def noninjectivity_probe(w: MultilinearForm, wt: MultilinearForm, degree: int) -> ProbeReport:
    """Semidecision that the canonical map from the u/s presentation to the
    single-matrix one is not injective for the alternating 3x3 instance.

    Two halves: (a) an exact free-algebra representation where two monomials
    in the u's have distinct images (they differ in the source); (b) a
    truncated reduction showing the corresponding commutator vanishes in the
    single-matrix quotient.  (a) is decided exactly; (b) is a certificate
    when it succeeds and 'inconclusive at this degree' when it does not --
    the truncation may simply be too small.
    """
    if w != make_signature(3):
        raise ValueError("the probe is stated for the alternating 3x3 instance")
    hw = build_hw(w)
    images = unitriangular_free_images(hw)
    wit_l = NcPoly.from_gens(hw.alphabet, [Generator("u", 1, 2), Generator("u", 1, 3)])
    wit_r = NcPoly.from_gens(hw.alphabet, [Generator("u", 1, 3), Generator("u", 1, 2)])
    rep = check_representation(hw, images, witness=(wit_l, wit_r))
    witness_ok = rep.ok() and bool(rep.witness_distinct)

    hww = build_hww(w, wt)
    system = system_for(hww, degree)
    comm = NcPoly.from_gens(
        hww.alphabet, [Generator("v", 1, 2), Generator("v", 1, 3)]
    ) - NcPoly.from_gens(hww.alphabet, [Generator("v", 1, 3), Generator("v", 1, 2)])
    certified = ideal_member(comm, system)
    verdict = _probe_verdict(witness_ok and certified, degree)
    details = rep.results + [
        CheckResult("probe:witness-distinct", Status.PASS if witness_ok else Status.FAIL),
        CheckResult(
            "probe:commutator",
            Status.PASS if certified else Status.UNCERTIFIED,
            "" if certified else "nonzero normal form at this truncation",
        ),
    ]
    return ProbeReport(witness_ok, certified, degree, verdict, details)


# ---------------------------------------------------------------------------
# the suite table


@dataclass(frozen=True)
class SuiteInputs:
    """Everything a verification suite may read.  Each entry of ``SUITES``
    declares which of the optional inputs it reads; a ``degree`` of None
    means twice the arity."""

    form: MultilinearForm | None = None
    algebra: str | None = None
    polar: MultilinearForm | None = None
    m: int | None = None
    n: int | None = None
    degree: int | None = None

    def degree_for(self, arity: int) -> int:
        return default_degree(arity) if self.degree is None else self.degree

    def need_form(self, suite: str) -> MultilinearForm:
        if self.form is None:
            raise ValueError(f"suite {suite!r} needs a form file")
        return self.form

    def form_or_alternating3(self) -> MultilinearForm:
        return make_signature(3) if self.form is None else self.form


# what a suite or a build may leave unread: every field but the degree
_OPTIONAL_INPUTS = tuple(f.name for f in fields(SuiteInputs) if f.name != "degree")


@dataclass(frozen=True)
class Suite:
    """One verification suite: the optional inputs it reads, the function
    that runs it, and (for a semidecision) the verdict line it ends with."""

    reads: frozenset[str]
    run: Callable[[SuiteInputs], list[CheckResult]]
    verdict: Callable[[list[CheckResult], SuiteInputs], str] | None = None


# each --algebra kind: what building it reads besides --algebra, and the build
_ALGEBRAS: dict[str, tuple[frozenset[str], Callable[[SuiteInputs], Presentation]]] = {
    "bw": (frozenset({"form"}), lambda i: build_bw(i.form)),
    "hw": (frozenset({"form"}), lambda i: build_hw(i.form)),
    "hb": (frozenset({"form"}), lambda i: build_hb(i.form)),
    "hww": (
        frozenset({"form", "polar"}),
        lambda i: build_hww(i.form, _polar_choice(i.form, i.polar)),
    ),
    "ahmn": (frozenset({"m", "n"}), lambda i: build_ahmn(i.m, i.n)),
}

def refuse_unread(inputs: SuiteInputs, suite: str | None = None) -> None:
    """Raise ValueError for the first input given but not read by the suite
    or, for axioms and for no suite (``hopfw present``), by building
    ``inputs.algebra`` (default hw); bw's axioms also read ``--polar``.  It
    looks only at which inputs are given, before any file opens."""
    if suite in (None, "axioms"):
        kind = inputs.algebra or "hw"
        if kind not in _ALGEBRAS:
            raise ValueError(f"unknown algebra kind {kind!r}")
        reader, reads = f"--algebra {kind}", _ALGEBRAS[kind][0] | {"algebra"}
        if suite and kind == "bw":
            reads |= {"polar"}
    else:
        reader, reads = f"suite {suite!r}", SUITES[suite].reads
    for name in _OPTIONAL_INPUTS:
        if name not in reads and getattr(inputs, name) is not None:
            flag = "a form file" if name == "form" else f"--{name}"
            raise ValueError(f"{reader} does not read {flag}")


def build_algebra(inputs: SuiteInputs) -> Presentation:
    """Build the presentation ``inputs.algebra`` (default hw) names, of any
    kind, from what its entry of ``_ALGEBRAS`` reads; hww without ``polar``
    is built on the canonical polar member."""
    kind = inputs.algebra or "hw"
    reads, build = _ALGEBRAS[kind]
    if "form" in reads and inputs.form is None:
        raise ValueError(f"--algebra {kind} needs --form, or a form file for verify")
    if "m" in reads and (inputs.m is None or inputs.n is None):
        raise ValueError(f"{kind} needs --m and --n")
    return build(inputs)


def _axioms(inputs: SuiteInputs) -> list[CheckResult]:
    """Hopf axioms of one presentation; bw's also check the left inverse of
    its polar member, which is refused unless polar before anything
    completes."""
    refuse_unread(inputs, "axioms")
    pres = build_algebra(inputs)
    degree = inputs.degree_for(pres.m)
    if pres.kind != "bw":
        return hopf_axiom_suite(pres, degree)
    wt = _polar_choice(inputs.form, inputs.polar)
    _refuse_unless_polar(wt, inputs.form)
    system = system_for(pres, degree)
    return hopf_axiom_suite(pres, degree, system) + check_left_inverse_identity(
        pres, wt, degree, system
    )


def _derived(inputs: SuiteInputs) -> list[CheckResult]:
    """The derived suite on the given polar member, or on the canonical one
    and one kernel step away from it; rows are prefixed ``sampleN:``.  A
    given member is refused unless polar before anything completes."""
    w = inputs.need_form("derived")
    degree = inputs.degree_for(w.arity)
    pres = build_hw(w)
    if inputs.polar is not None:
        _refuse_unless_polar(inputs.polar, w)
        samples = [inputs.polar]
    else:
        sol = polar(w)
        samples = [sol.particular]
        if sol.kernel_basis:
            samples.append(sol.member([1] + [0] * (len(sol.kernel_basis) - 1)))
    system = system_for(pres, degree)
    return [
        CheckResult(f"sample{i}:{r.name}", r.status, r.detail)
        for i, wt in enumerate(samples, start=1)
        for r in derived_relations_suite(pres, wt, degree, system)
    ]


def _pair_reduction(inputs: SuiteInputs) -> list[CheckResult]:
    w = inputs.need_form("pair-reduction")
    return pair_reduction_suite(build_hw(w), inputs.degree_for(w.arity))


def _manin(inputs: SuiteInputs) -> list[CheckResult]:
    if inputs.form_or_alternating3() != make_signature(3):
        raise ValueError("the manin suite is for the alternating 3x3 form")
    return manin_suite(inputs.degree_for(3))


def _diagonal_iso(inputs: SuiteInputs) -> list[CheckResult]:
    n = 2 if inputs.n is None else inputs.n
    m = 3 if inputs.m is None else inputs.m
    return diagonal_iso_suite(n, m, inputs.degree_for(m))


def _bilinear_iso(inputs: SuiteInputs) -> list[CheckResult]:
    w = inputs.need_form("bilinear-iso")
    if w.arity != 2:
        raise ValueError("the bilinear-iso suite needs an arity-2 form")
    return bilinear_iso_suite(w, inputs.degree_for(2))


def _noninjectivity(inputs: SuiteInputs) -> list[CheckResult]:
    w = inputs.form_or_alternating3()
    wt = _polar_choice(w, inputs.polar)
    return noninjectivity_probe(w, wt, inputs.degree_for(w.arity)).details


def _noninjectivity_verdict(results: list[CheckResult], inputs: SuiteInputs) -> str:
    arity = inputs.form_or_alternating3().arity
    return _probe_verdict(all_pass(results), inputs.degree_for(arity))


SUITES: dict[str, Suite] = {
    "axioms": Suite(frozenset({"algebra"}.union(*(r for r, _ in _ALGEBRAS.values()))), _axioms),
    "derived": Suite(frozenset({"form", "polar"}), _derived),
    "pair-reduction": Suite(frozenset({"form"}), _pair_reduction),
    "manin": Suite(frozenset({"form"}), _manin),
    "diagonal-iso": Suite(frozenset({"m", "n"}), _diagonal_iso),
    "bilinear-iso": Suite(frozenset({"form"}), _bilinear_iso),
    "noninjectivity": Suite(
        frozenset({"form", "polar"}), _noninjectivity, _noninjectivity_verdict
    ),
}


def run_suite(name: str, inputs: SuiteInputs) -> list[CheckResult]:
    """Run one entry of ``SUITES``, refusing any input it does not read."""
    refuse_unread(inputs, name)
    return SUITES[name].run(inputs)
