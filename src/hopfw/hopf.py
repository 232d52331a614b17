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

* hw: ``us`` = U S - I and ``tus`` = (X^T S^T)^T - I; antipode u -> S, s -> X;
* hb: ``bst`` = U^T B U - B and ``binst`` = U B^-1 U^T - B^-1; antipode
  B^-1 U^T B;
* hww: antipode P;
* antipode check on each family G with image matrix S(G): ``antipode-left``
  = S(G) G - I and ``antipode-right`` = G S(G) - I;
* bw left inverse: ``leftinv`` = P A - I;
* derived suite: ``su`` = S U - I, ``tsu`` = (S^T X^T)^T - I and ``Rsu`` =
  S - P over u; ``sinw`` and ``Rus`` = X - P' are antipode images: the
  antihomomorphism u -> s (``substitute(..., antihom=True)``, which reverses
  every word) carries ``invw`` to ``sinw`` and P to P'.

Each precondition of the paper is checked in one place: ``_twist`` (a
preregular form), ``_polar_matrix`` (a polar tensor, refused before anything
reads it) and ``_form_of`` (a presentation built from a form, not parsed).
``_structure`` reads a coproduct, counit or antipode, which a parsed dump
may lack.

Builders return (label, polynomial) pairs.  The private table ``_ALGEBRAS``
maps each algebra kind to the inputs its build reads and to that build, for
the API, the presentation reader and the CLI alike.  Beside it,
``_AXIOM_EXTRAS`` maps a kind to what the axioms suite reads and checks
beyond that build (bw: ``--polar`` and the polar left inverse), for both
:func:`refuse_unread` and the axioms suite.

Every structural claim is a value that must vanish, most of them a normal
form against a degree-truncated rewriting system.  ``_verdict`` alone turns
such a value into PASS (zero), FAIL (shown) or UNCERTIFIED (it needs a degree
above the certified one; nothing recompletes), and ``_per_relation`` feeds it
one value per labelled relation.  A normal form comes from the reduction
entry ``rewrite._reduce`` as d times itself over the integers, with d; it
becomes Fractions only in a FAIL's detail.  A nonzero normal form at a truncation
refutes nothing on its own, yet is reported FAIL today (ROADMAP item 2).
``_from_hw`` builds every map out of hw: u to the target's generator matrix
G, s to S(G).  The table ``SUITES`` names every verification suite, the
inputs it reads and the function that runs it; ``hopfw verify`` is a lookup
in it.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Mapping

from .exactnum import (
    Matrix, ONE, Scalar, ZERO, cleared_terms, fraction_quotients, lean, lean_terms, mat_inv,
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
class Provenance:
    form: MultilinearForm | None = None
    q: Matrix | None = None
    polar_member: MultilinearForm | None = None


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
    provenance: Provenance | None = None

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
    provenance: Provenance | None,
) -> Presentation:
    """Attach the matric coproduct and counit to every generator family; the
    s family splits with flipped tensor factors."""
    delta: dict[Generator, TensorSquare] = {}
    counit: dict[Generator, Scalar] = {}
    for g in alphabet.generators:
        terms = {}
        for k in range(1, n + 1):
            left = alphabet.char(Generator(g.family, g.row, k))
            right = alphabet.char(Generator(g.family, k, g.col))
            terms[(right, left) if g.family == "s" else (left, right)] = ONE
        delta[g] = TensorSquare(alphabet, terms)
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
        provenance=provenance,
    )


def _preservation(
    alphabet: Alphabet,
    w: MultilinearForm,
    family: str,
    *,
    lower_is_free: bool = True,
) -> Iterable[tuple[Idx, NcPoly]]:
    """(M, sum_L w_L g^{L1}_{M1}...g^{Lm}_{Mm} - w_M) for every index tuple M.

    With ``lower_is_free`` False the roles swap: the *upper* indices are the
    free tuple M and the lower ones are contracted against w.
    """
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
    form = getattr(pres.provenance, "form", None)
    if form is None:
        raise ValueError(f"this check needs a presentation built from a form, not {pres.label()}")
    return form


def _structure(pres: Presentation, part: str) -> dict:
    """The ``delta``, ``counit`` or ``antipode`` images of ``pres``; a parsed
    dump may have no structure lines, or no antipode lines."""
    images = getattr(pres.structure, part, None)
    if images is None:
        raise ValueError(f"{pres.label()} has no {part} data")
    return images


def _twisted(q: Matrix, mat: PolyMatrix) -> PolyMatrix:
    """X = Q^-1 mat Q."""
    a = mat.alphabet
    return PolyMatrix.scalar(a, mat_inv(q)) @ mat @ PolyMatrix.scalar(a, q)


def _polar_matrix(
    alphabet: Alphabet,
    w: MultilinearForm,
    wt: MultilinearForm,
    family: str,
) -> PolyMatrix:
    """P[mu,nu] = sum wt^{mu,L} w_{R,nu} g^{R1}_{L1}...g^{R(m-1)}_{L(m-1)}, the
    antipode of g written through a polar tensor; any other tensor is refused."""
    if not in_polar(wt, w):
        raise ValueError("tensor is not in the polar affine space of the form")
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
    if not is_one_site_nondegenerate(w):
        raise ValueError("form fails one-site nondegeneracy")
    alphabet = Alphabet(matric_family("a", w.dim))
    relations = _labelled("form", _preservation(alphabet, w, "a"))
    return _presentation("bw", w.dim, w.arity, alphabet, relations, None, Provenance(form=w))


def build_hw(w: MultilinearForm) -> Presentation:
    """Universal Hopf algebra of a preregular form.

    Generators u, s; relations: u s = 1 entrywise, the Q-twisted product
    (Q u Q^{-1}) s = 1, and form preservation on u.  The twisting element is
    recomputed from the form here, never taken on trust.
    """
    n, q = w.dim, _twist(w)
    alphabet = Alphabet(matric_family("u", n) + matric_family("s", n))
    u = PolyMatrix.family(alphabet, "u", n)
    s = PolyMatrix.family(alphabet, "s", n)
    one = PolyMatrix.identity(alphabet, n)
    x = _twisted(q, u)
    relations = _labelled("us", (u @ s - one).entries())
    relations += _labelled("tus", ((x.T @ s.T).T - one).entries())
    relations += _labelled("invw", _preservation(alphabet, w, "u"))
    antipode = s.images("u") | x.images("s")
    return _presentation("hw", n, w.arity, alphabet, relations, antipode, Provenance(form=w, q=q))


def build_hb(b: MultilinearForm) -> Presentation:
    """Arity-2 universal Hopf algebra written through b and its inverse."""
    if b.arity != 2:
        raise ValueError("this presentation needs a bilinear form")
    n = b.dim
    bm = Matrix(n, n, [b[(i, j)] for i in range(1, n + 1) for j in range(1, n + 1)])
    binv = mat_inv(bm)  # singular b is rejected here
    alphabet = Alphabet(matric_family("u", n))
    u = PolyMatrix.family(alphabet, "u", n)
    bb = PolyMatrix.scalar(alphabet, bm)
    bi = PolyMatrix.scalar(alphabet, binv)
    relations = _labelled("bst", (u.T @ bb @ u - bb).entries())
    relations += _labelled("binst", (u @ bi @ u.T - bi).entries())
    antipode = (bi @ u.T @ bb).images("u")
    return _presentation("hb", n, 2, alphabet, relations, antipode, Provenance(form=b))


def build_hww(w: MultilinearForm, wt: MultilinearForm) -> Presentation:
    """Single-matrix presentation from a form and a member of its polar
    family; the polar membership is verified exactly before building."""
    q = _twist(w)
    alphabet = Alphabet(matric_family("v", w.dim))
    antipode = _polar_matrix(alphabet, w, wt, "v").images("v")
    relations = _labelled("wv", _preservation(alphabet, w, "v"))
    relations += _labelled("wtv", _preservation(alphabet, wt, "v", lower_is_free=False))
    provenance = Provenance(form=w, q=q, polar_member=wt)
    return _presentation("hww", w.dim, w.arity, alphabet, relations, antipode, provenance)


def build_ahmn(m: int, n: int) -> Presentation:
    """Row/column annihilation plus m-th power-sum relations on one matric
    family; the antipode transposes and raises to the (m-1)-st power."""
    if m < 2 or n < 2:
        raise ValueError("need m >= 2 and n >= 2")
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
    """``wt`` when given, else the canonical (particular) polar member."""
    if wt is not None:
        return wt
    sol = polar(w)
    if sol is None:
        raise ValueError("form has no polar tensor (one-site degenerate)")
    return sol.particular


def build_presentation(
    kind: str, w: MultilinearForm, wt: MultilinearForm | None = None
) -> Presentation:
    """Build the ``bw``, ``hw``, ``hb`` or ``hww`` presentation of a form; hww
    takes the polar member ``wt``, or the canonical one when it is None."""
    reads, build = _ALGEBRAS[kind]
    if "form" not in reads:
        raise KeyError(kind)
    return build(SuiteInputs(form=w, polar=wt))


# ---------------------------------------------------------------------------
# checks


# a value that must vanish, times a positive int d, and d
_Scaled = tuple[NcPoly | TensorSquare, int]


def _verdict(name: str, what: str, value: Callable[[], _Scaled]) -> CheckResult:
    """The one place a value that must vanish becomes a status: PASS when
    ``value()`` is zero, FAIL showing it as ``what``, and UNCERTIFIED when it
    needs a normal form above the certified degree, which the detail names.
    ``value()`` gives d times the value and d: a normal form keeps the
    engine's values from the reduction entry, and only a FAIL divides them
    by d, into the Fractions it shows."""
    try:
        v, d = value()
    except NotCertifiedError as exc:
        detail = f"needs degree {exc.degree}, certified {exc.certified}"
        return CheckResult(name, Status.UNCERTIFIED, detail)
    if v.is_zero():
        return CheckResult(name, Status.PASS)
    shown = v._adopt(v.alphabet, fraction_quotients(v.terms, d)) if d != 1 else v
    return CheckResult(name, Status.FAIL, f"{what} {shown.to_str()}")


def _exact(value: Callable[[NcPoly], NcPoly]) -> Callable[[NcPoly], _Scaled]:
    """A value with no reduction, as ``_verdict`` reads it: d is 1."""
    return lambda rel: (value(rel), 1)


def _normal(system: RewriteSystem, p: NcPoly) -> _Scaled:
    """d times the normal form of ``p`` and d, from the reduction entry: the
    engine's values are wrapped to be tested and shown, never handed out."""
    reduced, d = _reduce(system, p.alphabet, p.terms)
    return NcPoly._adopt(p.alphabet, reduced), d


def _engine_images(images: Mapping) -> dict:
    """Generator images in the engine's form: integral values are ints, so
    the image of a relation cleared of its denominators is summed over the
    ints wherever the images are integral."""
    return {g: t._adopt(t.alphabet, lean_terms(t.terms)) for g, t in images.items()}


def _image_normal(
    system: RewriteSystem,
    images: Mapping[Generator, NcPoly],
    target: Alphabet,
    antihom: bool = False,
) -> Callable[[NcPoly], _Scaled]:
    """The value of a relation's image under ``images`` as ``_verdict``
    reads it: the relation cleared by d, its image in the engine's form, and
    the reduction entry clearing by e what denominators the images leave
    (Q^-1 U Q has some), give d e times the normal form of the image."""
    lean_images = _engine_images(images)

    def value(rel: NcPoly) -> _Scaled:
        ints, d = cleared_terms(rel.terms)
        cleared = NcPoly._adopt(rel.alphabet, ints)
        image = substitute(cleared, lean_images, antihom=antihom, target=target)
        reduced, e = _normal(system, image)
        return reduced, d * e

    return value


def _per_relation(
    pres: Presentation, prefix: str, what: str, value: Callable[[NcPoly], _Scaled]
) -> list[CheckResult]:
    """One verdict per labelled relation of ``pres``, named ``prefix:label``,
    on ``value(relation)``."""
    return [
        _verdict(f"{prefix}:{label}", what, functools.partial(value, rel))
        for label, rel in zip(pres.relation_labels, pres.relations)
    ]


def _verdicts(
    label: str, pairs: Iterable[tuple[Idx, NcPoly]], system: RewriteSystem
) -> list[CheckResult]:
    """One verdict per (index, polynomial that must vanish), named ``label[index]``."""
    return [
        _verdict(name, "normal form", functools.partial(_normal, system, p))
        for name, p in _labelled(label, pairs)
    ]


def system_for(pres: Presentation, degree: int, on_progress=None) -> RewriteSystem:
    """Complete the presentation's relations through ``degree``: the one
    completion entry point of the suites, the probe and ``hopfw gb``."""
    return complete(list(pres.relations), degree, on_progress=on_progress)


def check_counit(pres: Presentation) -> list[CheckResult]:
    """The counit, extended as a character, must send every relation to 0."""
    a = pres.alphabet
    eps = {g: NcPoly.unit(a, e) for g, e in _structure(pres, "counit").items()}
    value = functools.partial(substitute, images=eps, target=a)
    return _per_relation(pres, "counit", "counit value", _exact(value))


def check_coproduct(
    pres: Presentation, degree: int, system: RewriteSystem | None = None
) -> list[CheckResult]:
    """Each relation's coproduct image must vanish componentwise modulo the
    ideal (certified at the system's completed degree)."""
    delta = _structure(pres, "delta")
    if system is None:
        system = system_for(pres, degree)

    top = system.complete_through
    a = system.alphabet
    int_delta = _engine_images(delta)

    def nf(terms: dict) -> dict:
        # the engine's form in and out: a left sum is over the ints, and a
        # right sum too unless a tail with a denominator reduced into it
        reduced, e = _reduce(system, a, terms)
        return reduced if e == 1 else {w: lean(Scalar(c, e)) for w, c in reduced.items()}

    @functools.cache
    def vanishes(word: str) -> bool:
        return not nf({word: 1})

    def residue(rel: NcPoly) -> _Scaled:
        ints, d = cleared_terms(rel.terms)
        cleared = NcPoly._adopt(rel.alphabet, ints)
        image = coproduct_image(cleared, int_delta, target=pres.alphabet).terms
        # the degree that term-by-term reduction, leading term first, meets
        # first above the certified one: a left word, or a right word whose
        # left word does not vanish.  Checked before the legs are summed, so
        # that a left sum that cancels never certifies a word above it
        above = (k for k in image if len(k[0]) > top or len(k[1]) > top)
        for w1, w2 in TensorSquare._leading_first(above):
            if len(w1) > top or not vanishes(w1):
                raise NotCertifiedError(len(w1) if len(w1) > top else len(w2), top)
        # nf (x) nf = (id (x) nf) o (nf (x) id) on d times the image, over
        # the ints: reduce the left sum at each right word, then the right
        # sum at each left normal word.  A delta with denominators leaves
        # some in the image, which are cleared too
        ints, e = cleared_terms(image)
        d *= e
        lefts: dict[str, dict] = {}
        for (w1, w2), c in ints.items():
            lefts.setdefault(w2, {})[w1] = c
        rights: dict[str, dict] = {}
        for w2, left in lefts.items():
            for u, c in nf(left).items():
                rights.setdefault(u, {})[w2] = c
        terms = {(u, v): c for u, right in rights.items() for v, c in nf(right).items()}
        return TensorSquare._adopt(pres.alphabet, terms), d

    return _per_relation(pres, "coproduct", "residue", residue)


def check_antipode(
    pres: Presentation, degree: int, system: RewriteSystem | None = None
) -> list[CheckResult]:
    """Antipode images must respect the ideal antimultiplicatively and
    satisfy both unit sums on every matric generator family."""
    s_images = _structure(pres, "antipode")
    if system is None:
        system = system_for(pres, degree)
    a, n = pres.alphabet, pres.n
    out = _per_relation(
        pres, "antipode-ideal", "normal form", _image_normal(system, s_images, a, antihom=True)
    )
    one = PolyMatrix.identity(a, n)
    for fam in pres.families():
        g = PolyMatrix.family(a, fam, n)
        sg = PolyMatrix.of(a, s_images, fam, n)
        left = _verdicts(f"antipode-left:{fam}", (sg @ g - one).entries(), system)
        right = _verdicts(f"antipode-right:{fam}", (g @ sg - one).entries(), system)
        out += [r for pair in zip(left, right) for r in pair]
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

    Always checked: the reversed form-preservation on s, the two-sided and
    twisted-two-sided inverse identities, and (when a polar tensor is given)
    the closed formulas expressing s through u and back.  For arity >= 3 the
    two-generator reduction identity is included; for the alternating and the
    fully diagonal instances the suite adds their special consequences
    (column/commutator exchange relations, and s as a power of u).
    """
    if pres.kind != "hw":
        raise ValueError("derived relations are stated for the u/s presentation")
    w = _form_of(pres)
    n, m = pres.n, pres.m
    a = pres.alphabet
    p = None if wt is None else _polar_matrix(a, w, wt, "u")
    if system is None:
        system = system_for(pres, degree)

    u = PolyMatrix.family(a, "u", n)
    s = PolyMatrix.family(a, "s", n)
    one = PolyMatrix.identity(a, n)
    x = _twisted(pres.provenance.q, u)
    # the antihomomorphism u -> s, which the antipode restricts to on u
    u_to_s = functools.partial(substitute, images=s.images("u"), antihom=True, target=a)

    # the image of invw: sum_M w_M s^{Mm}_{Nm}...s^{M1}_{N1} = w_N
    out = _verdicts("sinw", ((mu, u_to_s(r)) for mu, r in _preservation(a, w, "u")), system)
    out += _verdicts("su", (s @ u - one).entries(), system)
    out += _verdicts("tsu", ((s.T @ x.T).T - one).entries(), system)

    if p is not None:
        out += _verdicts("Rsu", (s - p).entries(), system)
        rus = x - PolyMatrix(a, (map(u_to_s, row) for row in p.rows))
        out += _verdicts("Rus", rus.entries(), system)

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
    value = _image_normal(system, hom.images, hom.target.alphabet)
    return _per_relation(hom.source, hom.label, "normal form", value)


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
    htheta = build_hw(make_orthogonal(n, m))
    ah = build_ahmn(m, n)
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
    value = functools.partial(substitute, images=images, target=target)
    results = _per_relation(pres, "rep", "image", _exact(value))
    wimg = None
    distinct = None
    if witness is not None:
        left = substitute(witness[0], images, target=target)
        right = substitute(witness[1], images, target=target)
        wimg = (left, right)
        distinct = left != right
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


def noninjectivity_probe(
    w: MultilinearForm, wt: MultilinearForm, degree: int, on_progress=None
) -> ProbeReport:
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
    system = system_for(hww, degree, on_progress=on_progress)
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

# what the axioms suite reads and checks beyond a kind's build: bw's polar left inverse
_AXIOM_EXTRAS: dict[str, tuple[frozenset[str], Callable[..., list[CheckResult]]]] = {
    "bw": (
        frozenset({"polar"}),
        lambda i, pres, degree, system: check_left_inverse_identity(
            pres, _polar_choice(i.form, i.polar), degree, system
        ),
    ),
}
_NO_EXTRAS: tuple[frozenset[str], Callable[..., list[CheckResult]]] = (frozenset(), lambda *_: [])


def refuse_unread(inputs: SuiteInputs, suite: str | None = None) -> None:
    """Raise ValueError for the first input given but not read by the suite
    or, for axioms and for no suite (``hopfw present``), by building
    ``inputs.algebra`` (default hw); the axioms suite also reads what
    ``_AXIOM_EXTRAS`` adds.  It looks only at which inputs are given, before
    any file opens."""
    if suite in (None, "axioms"):
        kind = inputs.algebra or "hw"
        if kind not in _ALGEBRAS:
            raise ValueError(f"unknown algebra kind {kind!r}")
        reader, reads = f"--algebra {kind}", _ALGEBRAS[kind][0] | {"algebra"}
        if suite:
            reads |= _AXIOM_EXTRAS.get(kind, _NO_EXTRAS)[0]
    else:
        reader, reads = f"suite {suite!r}", SUITES[suite].reads
    for name in ("form", "algebra", "polar", "m", "n"):
        if name not in reads and getattr(inputs, name) is not None:
            flag = "a form file" if name == "form" else f"--{name}"
            raise ValueError(f"{reader} does not read {flag}")


def build_algebra(inputs: SuiteInputs) -> Presentation:
    """Build the presentation ``inputs.algebra`` (default hw) names, from
    inputs :func:`refuse_unread` passed; behind ``present`` and axioms."""
    kind = inputs.algebra or "hw"
    reads, build = _ALGEBRAS[kind]
    if "form" in reads and inputs.form is None:
        raise ValueError(f"--algebra {kind} needs --form, or a form file for verify")
    if "m" in reads and (inputs.m is None or inputs.n is None):
        raise ValueError(f"{kind} needs --m and --n")
    return build(inputs)


def _axioms(inputs: SuiteInputs) -> list[CheckResult]:
    """Hopf axioms of one presentation, plus its kind's ``_AXIOM_EXTRAS``."""
    refuse_unread(inputs, "axioms")
    pres = build_algebra(inputs)
    degree = inputs.degree_for(pres.m)
    system = system_for(pres, degree)
    extras = _AXIOM_EXTRAS.get(pres.kind, _NO_EXTRAS)[1]
    return hopf_axiom_suite(pres, degree, system) + extras(inputs, pres, degree, system)


def _derived(inputs: SuiteInputs) -> list[CheckResult]:
    """The derived suite on the given polar member, or on the canonical one
    and one kernel step away from it; rows are prefixed ``sampleN:``."""
    w = inputs.need_form("derived")
    degree = inputs.degree_for(w.arity)
    pres = build_hw(w)
    system = system_for(pres, degree)
    if inputs.polar is not None:
        samples = [inputs.polar]
    else:
        sol = polar(w)
        samples = [sol.particular]
        if sol.kernel_basis:
            samples.append(sol.member([1] + [0] * (len(sol.kernel_basis) - 1)))
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
