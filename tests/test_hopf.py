import collections
import copy
import dataclasses
import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from hopfw.exactnum import SingularMatrixError
from hopfw import forms, hopf
from hopfw.formats import dump_presentation, parse_presentation
from hopfw.forms import MultilinearForm, make_bilinear, make_orthogonal, make_signature
from hopfw.hopf import (
    SUITES,
    CheckResult,
    HomCandidate,
    HopfStructure,
    Presentation,
    Status,
    SuiteInputs,
    all_pass,
    bilinear_iso_suite,
    build_ahmn,
    build_bw,
    build_hb,
    build_hw,
    build_hww,
    build_algebra,
    check_antipode,
    check_counit,
    check_coproduct,
    check_hom,
    check_left_inverse_identity,
    check_representation,
    default_degree,
    derived_relations_suite,
    diagonal_iso_suite,
    hopf_axiom_suite,
    hw_to_hww_hom,
    m2_iso_homs,
    manin_suite,
    noninjectivity_probe,
    pair_reduction_suite,
    run_suite,
    system_for,
    theta_iso_homs,
    unitriangular_free_images,
    worst_status,
)
from hopfw.ncalg import Alphabet, Generator, NcPoly, PolyMatrix, TensorSquare, substitute
from hopfw.rewrite import RewriteSystem, complete, normal_form
from test_golden import PRESENTATIONS


# the running 2-dimensional example, a polar member of it, and the
# alternating 3x3 instance with its canonical polar member
W2 = MultilinearForm(2, 3, {(1, 1, 2): 1, (1, 2, 1): 1, (2, 1, 1): 1})
WT2 = MultilinearForm(2, 3, {(1, 1, 2): 1, (2, 1, 1): 1})
EPS3 = make_signature(3)
WT3 = MultilinearForm(3, 3, {(1, 2, 3): 1, (2, 1, 3): -1, (3, 1, 2): 1})
B = make_bilinear([[0, 1], [-1, 0]])


@pytest.fixture(scope="module")
def hw2():
    return build_hw(W2)


@pytest.fixture(scope="module")
def hw2_sys6(hw2):
    return system_for(hw2, 6)


@pytest.fixture(scope="module")
def hw3():
    return build_hw(EPS3)


@pytest.fixture(scope="module")
def hw3_sys4(hw3):
    return system_for(hw3, 4)


def prefix_counts(results):
    return collections.Counter(r.name.split("[")[0] for r in results)


def status_counts(results):
    return collections.Counter(r.status for r in results)


# ---------------------------------------------------------------- builders


def test_us_presentation_shape(hw2):
    assert hw2.label() == "hw[n=2,m=3]"
    assert (hw2.kind, hw2.n, hw2.m) == ("hw", 2, 3)
    assert hw2.families() == ("u", "s")
    assert len(hw2.generators) == 8
    assert hw2.generators[0] == Generator("u", 1, 1)
    assert len(hw2.relations) == len(hw2.relation_labels) == 16
    assert len(set(hw2.relation_labels)) == 16
    counts = collections.Counter(l.split("[")[0] for l in hw2.relation_labels)
    assert counts == {"us": 4, "tus": 4, "invw": 8}
    assert hw2.form == W2
    assert str(hopf._twist(W2)) == "[[1, 0], [0, 1]]"


def test_us_presentation_relations(hw2):
    rel = dict(zip(hw2.relation_labels, hw2.relations))
    assert rel["us[1,1]"].to_str() == "u[1,2]*s[2,1] + u[1,1]*s[1,1] - 1"
    assert rel["tus[1,2]"].to_str() == "u[2,2]*s[1,2] + u[1,2]*s[1,1]"
    assert (
        rel["invw[1,1,2]"].to_str()
        == "u[2,1]*u[1,1]*u[1,2] + u[1,1]*u[2,1]*u[1,2] + u[1,1]*u[1,1]*u[2,2] - 1"
    )


def test_us_presentation_structure_maps(hw2):
    st = hw2.structure
    assert st.counit[Generator("u", 1, 1)] == 1
    assert st.counit[Generator("u", 1, 2)] == 0
    assert st.counit[Generator("s", 2, 2)] == 1
    # u gets the matric coproduct, s the factor-flipped one
    assert st.delta[Generator("u", 1, 1)].to_str() == "u[1,2]#u[2,1] + u[1,1]#u[1,1]"
    assert st.delta[Generator("s", 1, 1)].to_str() == "s[2,1]#s[1,2] + s[1,1]#s[1,1]"
    # with identity twist the antipode just swaps the two families
    assert st.antipode[Generator("u", 1, 2)].to_str() == "s[1,2]"
    assert st.antipode[Generator("s", 1, 2)].to_str() == "u[1,2]"


def test_form_presentation_shape():
    bw2 = build_bw(W2)
    assert bw2.label() == "bw[n=2,m=3]"
    assert bw2.families() == ("a",)
    assert len(bw2.relations) == 8
    assert all(l.startswith("form[") for l in bw2.relation_labels)
    assert bw2.structure.antipode is None
    rel = dict(zip(bw2.relation_labels, bw2.relations))
    assert (
        rel["form[1,1,1]"].to_str()
        == "a[2,1]*a[1,1]*a[1,1] + a[1,1]*a[2,1]*a[1,1] + a[1,1]*a[1,1]*a[2,1]"
    )
    assert (
        rel["form[1,1,2]"].to_str()
        == "a[2,1]*a[1,1]*a[1,2] + a[1,1]*a[2,1]*a[1,2] + a[1,1]*a[1,1]*a[2,2] - 1"
    )


def test_bilinear_presentation_shape():
    hb = build_hb(B)
    assert hb.label() == "hb[n=2,m=2]"
    assert hb.families() == ("u",)
    counts = collections.Counter(l.split("[")[0] for l in hb.relation_labels)
    assert counts == {"bst": 4, "binst": 4}
    rel = dict(zip(hb.relation_labels, hb.relations))
    assert rel["bst[1,1]"].to_str() == "-u[2,1]*u[1,1] + u[1,1]*u[2,1]"
    assert rel["binst[1,1]"].to_str() == "u[1,2]*u[1,1] - u[1,1]*u[1,2]"
    # the antipode conjugates by the symplectic matrix
    assert hb.structure.antipode[Generator("u", 1, 1)].to_str() == "u[2,2]"


def test_power_sum_presentation_shape():
    # arity-first argument order: three factors on a 2-dimensional space
    ah = build_ahmn(3, 2)
    assert ah.label() == "ahmn[n=2,m=3]"
    assert ah.families() == ("a",)
    assert ah.relation_labels == (
        "rowzero[1,1,2]",
        "rowzero[1,2,1]",
        "rowzero[2,1,2]",
        "rowzero[2,2,1]",
        "colzero[1,1,2]",
        "colzero[1,2,1]",
        "colzero[2,1,2]",
        "colzero[2,2,1]",
        "rowpow[1]",
        "rowpow[2]",
        "colpow[1]",
        "colpow[2]",
    )
    rel = dict(zip(ah.relation_labels, ah.relations))
    assert rel["rowzero[1,1,2]"].to_str() == "a[1,1]*a[1,2]"
    assert rel["rowpow[1]"].to_str() == "a[1,2]*a[1,2]*a[1,2] + a[1,1]*a[1,1]*a[1,1] - 1"
    # antipode: transposed (m-1)-st power
    assert ah.structure.antipode[Generator("a", 1, 2)].to_str() == "a[2,1]*a[2,1]"
    assert ah.structure.delta[Generator("a", 1, 1)].to_str() == "a[1,2]#a[2,1] + a[1,1]#a[1,1]"


def test_single_matrix_presentation_shape():
    hww = build_hww(EPS3, WT3)
    assert hww.label() == "hww[n=3,m=3]"
    assert hww.families() == ("v",)
    counts = collections.Counter(l.split("[")[0] for l in hww.relation_labels)
    assert counts == {"wv": 27, "wtv": 27}
    rel = dict(zip(hww.relation_labels, hww.relations))
    # the (1,2,3) instance carries the inhomogeneous -1 term, the repeated
    # index column does not
    assert (
        rel["wv[1,2,3]"].to_str()
        == "-v[3,1]*v[2,2]*v[1,3] + v[3,1]*v[1,2]*v[2,3] + v[2,1]*v[3,2]*v[1,3]"
        " - v[2,1]*v[1,2]*v[3,3] - v[1,1]*v[3,2]*v[2,3] + v[1,1]*v[2,2]*v[3,3] - 1"
    )
    assert rel["wv[1,1,1]"].terms and rel["wv[1,1,1]"].constant() == 0


def test_builder_rejections():
    with pytest.raises(ValueError, match="not preregular"):
        build_hw(MultilinearForm(2, 3, {(1, 1, 2): 1, (2, 1, 1): 1}))
    with pytest.raises(ValueError, match="polar"):
        build_hww(EPS3, EPS3)
    with pytest.raises(ValueError, match="bilinear"):
        build_hb(W2)
    with pytest.raises(SingularMatrixError):
        build_hb(make_bilinear([[1, 0], [0, 0]]))
    with pytest.raises(ValueError, match="nondegeneracy"):
        build_bw(MultilinearForm(2, 3, {(1, 1, 1): 1}))
    with pytest.raises(ValueError):
        build_ahmn(1, 2)
    with pytest.raises(ValueError):
        build_ahmn(3, 1)


def _seeded_form(seed: int) -> MultilinearForm:
    """Dimension 2-3, arity 2-3, about half the entries nonzero; odd seeds
    are summed over cyclic rotations, so the twist I exists and hw builds."""
    rng = random.Random(seed)
    n, m = rng.choice((2, 3)), rng.choice((2, 3))
    entries = {}
    for idx in itertools.product(range(1, n + 1), repeat=m):
        if rng.random() < 0.5:
            entries[idx] = rng.choice((-2, -1, 1, 2, 3))
    if seed % 2:
        summed = collections.Counter()
        for idx, c in entries.items():
            for k in range(m):
                summed[idx[k:] + idx[:k]] += c
        entries = dict(summed)
    return MultilinearForm(n, m, entries)


def test_form_relations_are_refused_above_the_bound_before_the_first_is_built(monkeypatch):
    """signature-5's 5^5 form relations of 120 terms, 375 000 in all, are
    built; signature-6's 6^6 relations of 720 terms, 33 592 320 in all, are
    refused by hw and bw before the first one is built.  orthogonal-2-21,
    of 2^21 relations of 2 terms, is refused by bw, hw and hww before a
    flattening of it is built: its flattenings would hold 2^21 entries
    each."""
    assert 5**5 * 120 <= hopf._PRESERVATION_MAX_TERMS < 6**6 * 720
    pres = build_hw(make_signature(5))
    assert pres.relation_labels.count("invw[1,2,3,4,5]") == 1
    assert len(pres.relations) == 2 * 5**2 + 5**5
    e6 = make_signature(6)
    relations = hopf._preservation(Alphabet(hopf.matric_family("u", 6)), e6, "u")
    for refused in (lambda: next(relations), lambda: build_hw(e6), lambda: build_bw(e6)):
        with pytest.raises(ValueError, match="would hold 33592320 terms"):
            refused()

    def flattening(w, slot):
        raise AssertionError("a flattening was built")

    monkeypatch.setattr(forms, "flattening", flattening)
    o21 = make_orthogonal(2, 21)
    refusals = [
        lambda: build_bw(o21),
        lambda: build_hw(o21),
        lambda: build_hww(o21, o21),
        lambda: build_hww(o21, WT2),
        lambda: build_hww(W2, o21),
        *(
            lambda kind=kind: build_algebra(SuiteInputs(form=o21, algebra=kind))
            for kind in ("bw", "hw", "hww")
        ),
    ]
    for refused in refusals:
        with pytest.raises(ValueError) as caught:
            refused()
        assert str(caught.value) == (
            "the form relations of a form of dim 2, arity 21 and 2 entries would hold"
            " 4194304 terms, above the bound of 1000000"
        )


def _dense_bilinear(n: int) -> MultilinearForm:
    """An unsymmetric bilinear form of dim n with every entry in 1..9, seeded by n."""
    rng = random.Random(n)
    return make_bilinear([[rng.randint(1, 9) for _ in range(n)] for _ in range(n)])


def _bidiagonal(n: int) -> MultilinearForm:
    """1 on the diagonal and just above it: b^-1 is dense upper triangular."""
    return make_bilinear([[int(j - i in (0, 1)) for j in range(n)] for i in range(n)])


def test_tus_and_binst_are_counted_from_q_and_b_inverse():
    """hw's tus relations hold n nnz(Q) nnz(Q^-1) terms and n constants, and
    hb's binst relations n^2 nnz(b^-1) terms and nnz(b^-1) constants: the
    counts that the builders hold to the bound."""
    nonzeros = collections.Counter()
    for n, w in itertools.product((3, 6), (_dense_bilinear, _bidiagonal)):
        pres = build_hw(w(n))
        q = hopf._twist(w(n))
        nq, nq_inv = (sum(map(bool, m.entries)) for m in (q, hopf.mat_inv(q)))
        nonzeros[nq, nq_inv] += 1
        tus = [r for label, r in zip(pres.relation_labels, pres.relations) if "tus" in label]
        assert sum(len(r.terms) for r in tus) == n * nq * nq_inv + n
    assert len(nonzeros) == 4
    for n in (3, 6):
        pres = build_hb(_bidiagonal(n))
        binst = [r for label, r in zip(pres.relation_labels, pres.relations) if "binst" in label]
        nb_inv = n * (n + 1) // 2
        assert sum(len(r.terms) for r in binst) == n * n * nb_inv + nb_inv


def test_hw_and_hb_relations_are_refused_above_the_bound_before_any_product(monkeypatch):
    """A dense unsymmetric 16x16 form has form relations of 65 536 terms, but
    its tus relations would hold 16 nnz(Q) nnz(Q^-1) of them; hb holds its
    bst relations, n^2 |entries| terms, to the bound of the form relations,
    and its binst relations, n^2 nnz(b^-1) terms, to the same bound.  Each is
    refused before any matrix product is taken."""

    def matmul(self, other):
        raise AssertionError("a matrix product was taken")

    monkeypatch.setattr(hopf.PolyMatrix, "__matmul__", matmul)
    refusals = {
        lambda: build_hw(_dense_bilinear(16)): (
            "the tus relations of a form of dim 16 with 256 and 256 nonzero entries in Q and"
            " Q^-1 would hold 1048576 terms, above the bound of 1000000"
        ),
        lambda: build_hb(_dense_bilinear(32)): (
            "the form relations of a form of dim 32, arity 2 and 1024 entries would hold"
            " 1048576 terms, above the bound of 1000000"
        ),
        lambda: build_hb(_bidiagonal(40)): (
            "the binst relations of a form of dim 40 with 820 nonzero entries in b^-1 would"
            " hold 1312000 terms, above the bound of 1000000"
        ),
    }
    for refused, message in refusals.items():
        with pytest.raises(ValueError) as caught:
            refused()
        assert str(caught.value) == message


def test_an_empty_form_is_refused_by_its_dim_before_it_is_flattened(monkeypatch):
    """An empty form has n^m relations with no terms, and flattenings of n^m
    entries: each relation counts as one term, so an empty form of dim 2000
    is refused by every builder before a flattening or b^-1 is built."""

    def refused_step(*args):
        raise AssertionError("a flattening or an inverse was built")

    monkeypatch.setattr(forms, "flattening", refused_step)
    monkeypatch.setattr(hopf, "mat_inv", refused_step)
    empty = MultilinearForm(2000, 2, {})
    for kind in ("bw", "hw", "hb", "hww"):
        with pytest.raises(ValueError) as caught:
            build_algebra(SuiteInputs(form=empty, algebra=kind))
        assert str(caught.value) == (
            "the form relations of a form of dim 2000, arity 2 and 0 entries would hold"
            " 4000000 terms, above the bound of 1000000"
        )


def test_build_algebra_gives_each_builders_presentation():
    """``build_algebra`` builds every kind of ``_ALGEBRAS``, and the same
    presentation dump as that kind's builder; hww without a polar member is
    built on the canonical one."""
    w, b = W2, make_bilinear([[1, 2], [3, 5]])
    builders = {
        "bw": (build_bw(w), SuiteInputs(form=w)),
        "hw": (build_hw(w), SuiteInputs(form=w)),
        "hb": (build_hb(b), SuiteInputs(form=b)),
        "hww": (build_hww(w, forms.polar(w).particular), SuiteInputs(form=w)),
        "ahmn": (build_ahmn(3, 2), SuiteInputs(m=3, n=2)),
    }
    assert set(builders) == set(hopf._ALGEBRAS)
    for kind, (built, inputs) in builders.items():
        by_table = build_algebra(dataclasses.replace(inputs, algebra=kind))
        assert dump_presentation(by_table) == dump_presentation(built), kind


def test_ahmn_is_refused_above_the_bound_before_the_first_relation_is_built(monkeypatch):
    """ahmn(m, n) has 2n^3 + 2n relation terms: n = 79 is within the bound
    and n = 80 is refused, whatever m, before any relation is built.  Its
    power sums spell 2n^2 m letters, held to the same bound: at n = 2,
    m = 125 000 is within it and m = 125 001 is refused."""
    terms = {n: 2 * n**3 + 2 * n for n in (2, 3, 79, 80)}
    assert terms[79] <= hopf._PRESERVATION_MAX_TERMS < terms[80]
    for n in (2, 3):
        assert sum(len(r.terms) for r in build_ahmn(3, n).relations) == terms[n]

    def labelled(*args):
        raise AssertionError("a relation was built")

    monkeypatch.setattr(hopf, "_labelled", labelled)
    for m in (2, 7):
        with pytest.raises(ValueError) as caught:
            build_ahmn(m, 80)
        assert str(caught.value) == (
            "the relations of ahmn with n=80 would hold 1024160 terms,"
            " above the bound of 1000000"
        )
    assert 2 * 2**2 * 125_000 <= hopf._PRESERVATION_MAX_TERMS < 2 * 2**2 * 125_001
    with pytest.raises(ValueError) as caught:
        build_ahmn(125_001, 2)
    assert str(caught.value) == (
        "the power sums of ahmn with m=125001 and n=2 would hold 1000008 letters,"
        " above the bound of 1000000"
    )


def test_relations_are_nonzero_and_distinct():
    """No builder can emit a zero relation or two equal ones, so none is
    filtered out, and forms and polar members are nonzero.  A preservation
    relation (form, invw, wv) has one word per form entry L, spelling its
    free tuple M in its generator columns; wtv has one per polar entry,
    spelling M in its rows; and each hww antipode entry P[mu,nu] has one
    word per pair of a polar entry L and a form entry R with L1 = mu and
    Rm = nu.  Checked on the golden presentations, on ahmn for m, n in 2-3,
    and on every kind that builds for 150 seeded forms."""
    presentations = [build() for build in PRESENTATIONS.values()]
    presentations += [build_ahmn(m, n) for m in (2, 3) for n in (2, 3)]
    for seed in range(150):
        w = _seeded_form(seed)
        for kind in ("bw", "hw", "hb", "hww"):
            try:
                presentations.append(build_algebra(SuiteInputs(form=w, algebra=kind)))
            except ValueError:  # the form is degenerate, not preregular or not bilinear
                pass
    assert len(presentations) >= 300
    assert {p.kind for p in presentations} == {"bw", "hw", "hb", "hww", "ahmn"}
    for pres in presentations:
        assert not any(rel.is_zero() for rel in pres.relations), pres.label()
        assert len(set(pres.relations)) == len(pres.relations), pres.label()
        w = pres.form
        # every hww here is built on the canonical polar member
        wt = forms.polar(w).particular if pres.kind == "hww" else None
        assert all(f is None or not f.is_zero() for f in (w, wt)), pres.label()
        spelled = {"form": (w, "col"), "invw": (w, "col"), "wv": (w, "col"), "wtv": (wt, "row")}
        for label, rel in zip(pres.relation_labels, pres.relations):
            name, _, idx = label[:-1].partition("[")
            if name not in spelled:
                continue
            form, side = spelled[name]
            words = [word for word in rel.terms if word]
            assert len(words) == len(form.entries), label
            for word in words:
                spelt = ",".join(str(getattr(g, side)) for g in pres.alphabet.letters(word))
                assert spelt == idx, label
        if pres.kind == "hww":
            for g, image in pres.structure.antipode.items():
                pairs = sum(l[0] == g.row and r[-1] == g.col for l in wt.entries for r in w.entries)
                assert len(image.terms) == pairs, (pres.label(), g)


# ------------------------------------------------------------ axiom suites


def test_axiom_suite_us_presentation(hw2, hw2_sys6):
    assert default_degree(hw2.m) == 6
    results = hopf_axiom_suite(hw2, 6, hw2_sys6)
    assert prefix_counts(results) == {
        "counit:us": 4,
        "counit:tus": 4,
        "counit:invw": 8,
        "coproduct:us": 4,
        "coproduct:tus": 4,
        "coproduct:invw": 8,
        "antipode-ideal:us": 4,
        "antipode-ideal:tus": 4,
        "antipode-ideal:invw": 8,
        "antipode-left:u": 4,
        "antipode-left:s": 4,
        "antipode-right:u": 4,
        "antipode-right:s": 4,
    }
    assert all_pass(results)
    assert worst_status(results) is Status.PASS


def test_axiom_suite_form_presentation_and_left_inverse():
    bw2 = build_bw(W2)
    system = system_for(bw2, 6)
    results = hopf_axiom_suite(bw2, 6, system)
    # no antipode on the plain form presentation: only counit and coproduct
    assert len(results) == 16
    assert all_pass(results)
    with pytest.raises(ValueError, match="no antipode"):
        check_antipode(bw2, system)
    inv = check_left_inverse_identity(bw2, WT2, system)
    assert [r.name for r in inv] == [
        "leftinv[1,1]",
        "leftinv[1,2]",
        "leftinv[2,1]",
        "leftinv[2,2]",
    ]
    assert all_pass(inv)


def test_left_inverse_needs_a_polar_member():
    bw2 = build_bw(W2)
    with pytest.raises(ValueError, match="polar"):
        check_left_inverse_identity(bw2, W2, system_for(bw2, 6))


def test_polar_refusals_come_before_any_completion(monkeypatch, hw2):
    def no_completion(*_):
        raise AssertionError("a refused tensor reached completion")

    bw2 = build_bw(W2)
    bw2_system = system_for(bw2, 6)
    monkeypatch.setattr(hopf, "complete", no_completion)
    # W2 itself is not polar; EPS3 has the wrong dimension
    for wt, message in ((W2, "polar affine space"), (EPS3, "shape mismatch")):
        with pytest.raises(ValueError, match=message):
            build_hww(W2, wt)
        with pytest.raises(ValueError, match=message):
            check_left_inverse_identity(bw2, wt, bw2_system)
        with pytest.raises(ValueError, match=message):
            derived_relations_suite(hw2, wt, 6)


def test_checks_on_a_parsed_presentation_need_its_form():
    hw2, bw2 = (parse_presentation(dump_presentation(p)) for p in (build_hw(W2), build_bw(W2)))
    assert hw2.form is None and bw2.form is None
    message = "needs a presentation built from a form"
    with pytest.raises(ValueError, match=message):
        derived_relations_suite(hw2, WT2, 4)
    with pytest.raises(ValueError, match=message):
        pair_reduction_suite(hw2, 4)
    with pytest.raises(ValueError, match=message):
        check_left_inverse_identity(bw2, WT2, system_for(bw2, 4))


def _without_lines(pres, heads):
    """The dump of ``pres`` with every line whose head is in ``heads`` left out."""
    lines = dump_presentation(pres).splitlines()
    return "".join(line + "\n" for line in lines if line.split(" ", 1)[0] not in heads)


def test_axiom_checks_on_a_dump_without_structure_are_refused(monkeypatch):
    # W2 is the cyclic2 example; its dump without delta, counit and antipode
    # lines is legal and has no structure to check
    bare = parse_presentation(_without_lines(build_hw(W2), {"delta", "counit", "antipode"}))
    assert bare.structure is None
    system = system_for(bare, 4)

    def refuse(*args, **kwargs):
        raise AssertionError("completed a presentation that has no structure to check")

    monkeypatch.setattr(hopf, "complete", refuse)
    for call, part in (
        (lambda: check_counit(bare), "counit"),
        (lambda: check_coproduct(bare, system), "delta"),
        (lambda: check_antipode(bare, system), "antipode"),
        (lambda: hopf_axiom_suite(bare, 4), "counit"),
    ):
        with pytest.raises(ValueError, match=rf"hw\[n=2,m=3\] has no {part} data"):
            call()


def test_hom_into_a_dump_without_antipode_is_refused():
    hww = parse_presentation(_without_lines(build_hww(W2, WT2), {"antipode"}))
    assert hww.structure.antipode is None
    with pytest.raises(ValueError, match="has no antipode data"):
        hw_to_hww_hom(build_hw(W2), hww)


@pytest.mark.parametrize("degree", [3, 4])
def test_checks_reduce_only_in_the_system_they_are_handed(monkeypatch, hw2, degree):
    # at D=3 some antipode rows fail and at D=4 all pass: either way each
    # check, handed a system built beforehand, completes nothing and gives
    # the rows its suite gives
    bw2 = build_bw(W2)
    axioms = hopf_axiom_suite(hw2, degree)
    bw_axioms = run_suite("axioms", SuiteInputs(form=W2, algebra="bw", polar=WT2, degree=degree))
    iso = bilinear_iso_suite(B, degree)
    fwd, back = m2_iso_homs(B)
    hw_sys, bw_sys, hb_sys, hwb_sys = (
        system_for(p, degree) for p in (hw2, bw2, fwd.target, back.target)
    )

    def no_completion(*_):
        raise AssertionError("a check completed")

    monkeypatch.setattr(hopf, "complete", no_completion)

    def prefixed(rows, *prefixes):
        return [r for r in rows if r.name.startswith(prefixes)]

    rows = (
        check_coproduct(hw2, hw_sys),
        check_antipode(hw2, hw_sys),
        check_left_inverse_identity(bw2, WT2, bw_sys),
        check_hom(fwd, hb_sys) + check_hom(back, hwb_sys),
    )
    assert rows == (
        prefixed(axioms, "coproduct:"),
        prefixed(axioms, "antipode-"),
        prefixed(bw_axioms, "leftinv["),
        prefixed(iso, "hw->hb:", "hb->hw:"),
    )
    assert tuple(map(len, rows)) == (16, 32, 4, 20)
    # a system over another alphabet is refused at the first row
    with pytest.raises(ValueError, match="alphabet does not match"):
        check_coproduct(hw2, bw_sys)


def test_axiom_suite_bilinear_presentation():
    results = hopf_axiom_suite(build_hb(B), 4)
    assert len(results) == 32
    assert all_pass(results)


def test_axiom_suite_power_sum_presentation():
    ah = build_ahmn(3, 2)
    results = hopf_axiom_suite(ah, 6)
    assert len(results) == 44
    assert all_pass(results)


def test_axiom_suite_reports_uncertified_antipode_checks():
    # at truncation 3 the antihom images of the quadratic relations live in
    # degree 4 and the cubic power sums in degree 6: not decidable yet
    ah = build_ahmn(3, 2)
    results = hopf_axiom_suite(ah, 3)
    assert status_counts(results) == {Status.PASS: 32, Status.UNCERTIFIED: 12}
    uncertified = [r for r in results if r.status is Status.UNCERTIFIED]
    assert all(r.name.startswith("antipode-ideal:") for r in uncertified)
    by_name = {r.name: r for r in results}
    assert by_name["antipode-ideal:rowzero[1,1,2]"].detail == "needs degree 4, certified 3"
    assert by_name["antipode-ideal:rowpow[1]"].detail == "needs degree 6, certified 3"
    assert not all_pass(results)
    assert worst_status(results) is Status.UNCERTIFIED
    # the check names themselves do not depend on the truncation
    assert [r.name for r in results] == [r.name for r in hopf_axiom_suite(ah, 6)]


def test_antipode_sums_follow_the_flipped_coproduct_of_s():
    # Q = [[4,5],[-1,-1]] does not commute with U, so S(s) = Q^-1 U Q meets
    # s only through s's own coproduct, s[i,j] -> sum_k s[k,j] (x) s[i,k]
    hw = build_hw(make_bilinear([[1, 2], [3, 5]]))
    results = hopf_axiom_suite(hw, 4)
    checks = ("counit", "coproduct", "antipode-ideal")
    sides = ("left", "right")
    assert [r.name for r in results] == [
        *(f"{check}:{label}" for check in checks for label in hw.relation_labels),
        *(f"antipode-{side}:{g.token()}" for g in hw.generators for side in sides),
    ]
    assert len(results) == 52
    assert all_pass(results)


def test_suites_are_uncertified_above_a_dumps_complete_through(hw2):
    # a dump may certify less than its degree: the coproduct checks of the
    # cubic relations go through normal_form, which refuses above degree 2
    text = system_for(hw2, 4).dump().replace("complete_through 4\n", "complete_through 2\n")
    loose = RewriteSystem.parse(text)
    assert (loose.degree_bound, loose.complete_through) == (4, 2)
    results = check_coproduct(hw2, loose)
    assert status_counts(results) == {Status.PASS: 8, Status.UNCERTIFIED: 8}
    uncertified = [r for r in results if r.status is Status.UNCERTIFIED]
    assert {r.detail for r in uncertified} == {"needs degree 3, certified 2"}
    suite = hopf_axiom_suite(hw2, 4, loose)
    assert status_counts(suite) == {Status.PASS: 48, Status.UNCERTIFIED: 16}


def _free_presentation(relations, delta, counit=None, antipode=None):
    """A parsed presentation over free generators; the counit is zero where
    ``counit`` gives none, and there is no antipode unless one is given."""
    gens = sorted(delta)
    lines = ["algebra hw", "n 1", "m 2", "generators " + " ".join(gens)]
    lines += [f"relation r{i}: {r}" for i, r in enumerate(relations)]
    lines += [f"delta {g} -> {delta[g]}" for g in gens]
    lines += [f"counit {g} -> {(counit or {}).get(g, 0)}" for g in gens]
    lines += [f"antipode {g} -> {antipode[g]}" for g in antipode or ()]
    return parse_presentation("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "s_x, detail",
    [("x", "normal form 2*x"), ("1/2*x", "normal form 3/2*x"), ("-x", None)],
)
def test_antipode_sums_run_on_free_generators(s_x, detail):
    # primitive x and y: both sums of x are S(x) + x, which vanishes only
    # for S(x) = -x
    primitive = {"x": "x#1 + 1#x", "y": "y#1 + 1#y"}
    pres = _free_presentation(["x*y - y*x"], primitive, antipode={"x": s_x, "y": "-y"})
    results = hopf_axiom_suite(pres, 2)
    assert [r.name for r in results] == [
        "counit:r0",
        "coproduct:r0",
        "antipode-ideal:r0",
        "antipode-left:x",
        "antipode-right:x",
        "antipode-left:y",
        "antipode-right:y",
    ]
    failed = [(r.name, r.detail) for r in results if r.status is not Status.PASS]
    if detail is None:
        assert failed == []
    else:
        assert failed == [("antipode-left:x", detail), ("antipode-right:x", detail)]


def test_antipode_left_and_right_sums_are_told_apart():
    # grouplike g and h with g*h = 1 alone: S(g) = h is a right inverse of
    # g, not a left one, so only S(g) g - 1 and h S(h) - 1 are left over
    grouplike = {"g": "g#g", "h": "h#h"}
    pres = _free_presentation(["g*h - 1"], grouplike, {"g": 1, "h": 1}, {"g": "h", "h": "g"})
    rows = {r.name: (r.status, r.detail) for r in check_antipode(pres, system_for(pres, 2))}
    assert rows == {
        "antipode-ideal:r0": (Status.PASS, ""),
        "antipode-left:g": (Status.FAIL, "normal form h*g - 1"),
        "antipode-right:g": (Status.PASS, ""),
        "antipode-left:h": (Status.PASS, ""),
        "antipode-right:h": (Status.FAIL, "normal form h*g - 1"),
    }


def test_exact_images_with_denominators_show_their_fraction_values():
    # 1/2*u[1,1] - 1/3 is cleared to 3*u[1,1] - 2 before its image is taken;
    # a FAIL divides the image back
    lines = [
        "algebra hw",
        "n 1",
        "m 2",
        "generators u[1,1]",
        "relation r: 1/2*u[1,1] - 1/3",
        "delta u[1,1] -> u[1,1]#u[1,1]",
        "counit u[1,1] -> 1",
    ]
    pres = parse_presentation("\n".join(lines) + "\n")
    assert [(r.name, r.status, r.detail) for r in check_counit(pres)] == [
        ("counit:r", Status.FAIL, "counit value 1/6")
    ]
    u, x = Generator("u", 1, 1), Generator.free("x")
    target = Alphabet([x])
    for image, status, detail in (
        (NcPoly.unit(target, Fraction(2, 3)), Status.PASS, ""),
        (NcPoly.from_gens(target, [x], Fraction(1, 3)), Status.FAIL, "image 1/6*x - 1/3"),
    ):
        rows = check_representation(pres, {u: image})
        assert [(r.name, r.status, r.detail) for r in rows] == [("rep:r", status, detail)]


def test_coproduct_residue_names_the_degree_that_term_by_term_reduction_meets():
    # the residue reduces the left legs, then the right legs; a right word
    # above the certified degree is UNCERTIFIED exactly when its left word
    # does not vanish, even when the left words summed at it cancel
    pres = _free_presentation(["x - y"], {"x": "x#z*z", "y": "y#z*z", "z": "z#z"})
    (row,) = check_coproduct(pres, system_for(pres, 1))
    assert (row.status, row.detail) == (Status.UNCERTIFIED, "needs degree 2, certified 1")
    # the left word x vanishes, so its right word is never reduced
    pres = _free_presentation(["x"], {"x": "x#y*y", "y": "y#y"})
    rows = check_coproduct(pres, system_for(pres, 1))
    assert [(r.status, r.detail) for r in rows] == [(Status.PASS, "")]
    # a left word above it comes first in term order
    pres = _free_presentation(["x - y"], {"x": "x*x#1", "y": "y#z*z*z", "z": "z#z"})
    (row,) = check_coproduct(pres, system_for(pres, 1))
    assert (row.status, row.detail) == (Status.UNCERTIFIED, "needs degree 2, certified 1")
    # within the certified degree the residue is the normal form of both legs
    pres = _free_presentation(["x - y"], {"x": "x#z + 2*y#x", "y": "y#z", "z": "z#1"})
    (row,) = check_coproduct(pres, system_for(pres, 1))
    assert (row.status, row.detail) == (Status.FAIL, "residue 2*x#x")


def test_a_failing_coproduct_residue_shows_its_fraction_values():
    # the rules y -> 1/2*x and z -> 1/2*x put a denominator into a left sum,
    # which the right sums must keep: the residue of y - z is
    # 1/2*x#x - 1/2*x#(1/2*x) = 1/4*x#x
    pres = _free_presentation(["2*y - x", "y - z"], {"x": "x#x", "y": "y#x", "z": "z#z"})
    rows = check_coproduct(pres, system_for(pres, 1))
    assert [(r.status, r.detail) for r in rows] == [
        (Status.PASS, ""),
        (Status.FAIL, "residue 1/4*x#x"),
    ]
    # the same with the relations scaled: the residue scales with them
    pres = _free_presentation(["2/3*y - 1/3*x", "3*y - 3*z"], {"x": "x#x", "y": "y#x", "z": "z#z"})
    assert [r.detail for r in check_coproduct(pres, system_for(pres, 1))] == ["", "residue 3/4*x#x"]
    # a delta with a denominator: the residue of x - y under y -> x is
    # 1/2*x#z + x#x - x#z
    pres = _free_presentation(["x - y"], {"x": "1/2*x#z + y#x", "y": "y#z", "z": "z#1"})
    (row,) = check_coproduct(pres, system_for(pres, 1))
    assert (row.status, row.detail) == (Status.FAIL, "residue -1/2*x#z + x#x")


_ORACLE_COEFFS = (1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3))


def _seeded_coproduct_presentation(seed: int) -> Presentation:
    """Free x, y, z with one to three relations of degree <= 2, and a delta
    of each generator of one to three terms w1 (x) w2 with w1 != w2, both
    words of up to two letters; every coefficient is one of
    ``_ORACLE_COEFFS``."""
    rng = random.Random(seed)
    gens = [Generator.free(t) for t in "xyz"]
    a = Alphabet(gens)

    def word(longest: int) -> list[Generator]:
        return [rng.choice(gens) for _ in range(rng.randint(0, longest))]

    relations: list[NcPoly] = []
    count = rng.randint(1, 3)
    while len(relations) < count:
        rel = NcPoly.zero(a)
        for _ in range(rng.randint(1, 4)):
            rel = rel + NcPoly.from_gens(a, word(2), rng.choice(_ORACLE_COEFFS))
        if not rel.is_zero() and rel not in relations:
            relations.append(rel)
    delta = {}
    for g in gens:
        image = TensorSquare.zero(a)
        while image.is_zero():
            for _ in range(rng.randint(1, 3)):
                left, right = word(2), word(2)
                if left != right:
                    c = rng.choice(_ORACLE_COEFFS)
                    image = image + TensorSquare.of(
                        NcPoly.from_gens(a, left), NcPoly.from_gens(a, right, c)
                    )
        delta[g] = image
    labels = tuple(f"r{i}" for i in range(len(relations)))
    structure = HopfStructure(delta, {g: Fraction(0) for g in gens}, None)
    return Presentation("hw", 1, 2, a, a.generators, tuple(relations), labels, structure)


def _definitional_coproduct_row(pres, label, rel, system) -> tuple:
    """(name, status, detail) of the coproduct row of ``rel``, from the
    definition: the image is the product of the generators' deltas, and its
    residue is sum c * nf(w1) (x) nf(w2), each word reduced alone.  Walking
    the terms leading first, a left word above the certified degree, or a
    right word above it whose left word does not vanish, needs that word's
    degree."""
    a, top = pres.alphabet, system.complete_through
    delta = pres.structure.delta
    image = TensorSquare.zero(a)
    for w, c in rel.terms.items():
        term = TensorSquare.unit(a, c)
        for g in a.letters(w):
            term = term * delta[g]
        image = image + term
    residue = TensorSquare.zero(a)
    for w1, w2 in TensorSquare._leading_first(image.terms):
        if len(w1) > top:
            return f"coproduct:{label}", Status.UNCERTIFIED, f"needs degree {len(w1)}, certified {top}"
        left = normal_form(NcPoly.from_word(a, w1), system)
        if left.is_zero():
            continue
        if len(w2) > top:
            return f"coproduct:{label}", Status.UNCERTIFIED, f"needs degree {len(w2)}, certified {top}"
        right = normal_form(NcPoly.from_word(a, w2), system)
        residue = residue + TensorSquare.of(left, right).scale(image.terms[w1, w2])
    if residue.is_zero():
        return f"coproduct:{label}", Status.PASS, ""
    return f"coproduct:{label}", Status.FAIL, f"residue {residue.to_str()}"


def test_coproduct_rows_match_the_definitional_oracle():
    """Every coproduct row of 200 seeded free presentations, at D=2, at D=3
    and on the D=3 system re-declared certified through 2, is the one the
    definition gives: PASS, FAIL with sum c * nf(w1) (x) nf(w2), or
    UNCERTIFIED naming the degree the leading-first walk meets first."""
    seen = collections.Counter()
    for seed in range(200):
        pres = _seeded_coproduct_presentation(seed)
        d2, d3 = complete(list(pres.relations), 2), complete(list(pres.relations), 3)
        loose = RewriteSystem.parse(
            d3.dump().replace("complete_through 3\n", "complete_through 2\n")
        )
        assert (loose.degree_bound, loose.complete_through) == (3, 2)
        for system in (d2, d3, loose):
            rows = check_coproduct(pres, system)
            expected = [
                _definitional_coproduct_row(pres, label, rel, system)
                for label, rel in zip(pres.relation_labels, pres.relations)
            ]
            assert [(r.name, r.status, r.detail) for r in rows] == expected, seed
            seen.update(r.status for r in rows)
    assert seen == {Status.UNCERTIFIED: 516, Status.FAIL: 306, Status.PASS: 339}


def test_the_coproduct_walk_certifies_only_through_the_reduction_entry(monkeypatch):
    # the left words x^3 and y^3 survive, so their right words are reduced:
    # above the certified degree, the reduction entry alone refuses them
    pres = _free_presentation(["x*x*x - y*y*y"], {"x": "x#x", "y": "y#y"})
    d3 = system_for(pres, 3)
    loose = RewriteSystem.parse(d3.dump().replace("complete_through 3\n", "complete_through 2\n"))
    (row,) = check_coproduct(pres, loose)
    assert (row.status, row.detail) == (Status.UNCERTIFIED, "needs degree 3, certified 2")
    # an entry that certifies every degree makes the same walk a verdict:
    # x^3 (x) x^3 - y^3 (x) y^3 reduces to zero under y^3 -> x^3
    reduce = hopf._reduce

    def certify_every_degree(system, alphabet, terms):
        wide = copy.copy(system)
        wide.complete_through = max(map(len, terms), default=0)
        return reduce(wide, alphabet, terms)

    monkeypatch.setattr(hopf, "_reduce", certify_every_degree)
    assert check_coproduct(pres, loose) == [CheckResult("coproduct:r0", Status.PASS)]


def test_a_failing_normal_form_shows_the_normal_form(hw2, hw2_sys6):
    """Each verdict on a value with denominators is PASS exactly when the
    normal form is zero, and a FAIL shows that normal form."""
    a = hw2.alphabet
    letters = [a.char(g) for g in a.generators]
    rng = random.Random(20261102)
    rule = hw2_sys6.rules[40]
    member = NcPoly.from_word(a, rule.lead) - rule.tail
    coefficients = (Fraction(1, 2), Fraction(-2, 3), Fraction(5), Fraction(-1, 2**70 + 1))
    polys = []
    for _ in range(30):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            terms["".join(rng.choices(letters, k=rng.randint(0, 4)))] = rng.choice(coefficients)
        polys.append(NcPoly(a, terms))
        polys.append(member.scale(rng.choice(coefficients)))
    pairs = [((i,), p) for i, p in enumerate(polys)]
    fails = 0
    for row, p in zip(hopf._verdicts("v", pairs, hw2_sys6), polys):
        nf = normal_form(p, hw2_sys6)
        if nf.is_zero():
            assert (row.status, row.detail) == (Status.PASS, "")
        else:
            assert (row.status, row.detail) == (Status.FAIL, f"normal form {nf.to_str()}")
            fails += any(c.denominator > 1 for c in nf.terms.values())
    assert fails > 5


def test_counit_checks_are_pure_arithmetic():
    # no completion involved, so no degree argument and no UNCERTIFIED
    results = check_counit(build_ahmn(3, 2))
    assert len(results) == 12
    assert all_pass(results)


# -------------------------------------------------------- derived identities


def test_derived_relations_with_polar_member(hw2, hw2_sys6):
    results = derived_relations_suite(hw2, WT2, 6, hw2_sys6)
    assert prefix_counts(results) == {
        "sinw": 8,
        "su": 4,
        "tsu": 4,
        "Rsu": 4,
        "Rus": 4,
        "pairred": 8,
    }
    assert all_pass(results)


def test_derived_relations_without_polar_member(hw2, hw2_sys6):
    results = derived_relations_suite(hw2, None, 6, hw2_sys6)
    assert prefix_counts(results) == {"sinw": 8, "su": 4, "tsu": 4, "pairred": 8}
    assert all_pass(results)


def test_derived_relations_alternating_instance(hw3, hw3_sys4):
    # the alternating 3x3 form additionally satisfies the same-column
    # commutation and the cross-column exchange identities
    results = derived_relations_suite(hw3, None, 4, hw3_sys4)
    assert prefix_counts(results) == {
        "sinw": 27,
        "su": 9,
        "tsu": 9,
        "pairred": 27,
        "column": 9,
        "exchange": 18,
    }
    assert all_pass(results)
    # these rows are the pair-reduction and manin suites on the same system
    rows = [r for r in results if r.name.split("[")[0] in ("pairred", "column", "exchange")]
    assert rows == pair_reduction_suite(hw3, 4, hw3_sys4) + manin_suite(4, hw3_sys4)


def test_derived_relations_diagonal_instance():
    hwt = build_hw(make_orthogonal(2, 3))
    results = derived_relations_suite(hwt, None, 4)
    assert prefix_counts(results) == {
        "sinw": 8,
        "su": 4,
        "tsu": 4,
        "pairred": 8,
        "spow": 4,
    }
    assert all_pass(results)


def test_derived_rows_of_a_twist_with_denominators_are_pinned():
    # every other derived test below the default degree has twist I, where
    # X = U; this form's Q has denominators 4 and 8, so a wrong X shows in
    # the tsu and Rus rows.  At D=2 all 45 rows print FAIL (ROADMAP item 2),
    # pinned byte for byte
    w = make_bilinear([[1, 2, 0], [0, 1, 3], [1, 0, 2]])
    pres = build_hw(w)
    assert str(hopf._twist(w)) == "[[1/8, 7/8, 7/8], [-1/4, -3/4, 5/4], [7/8, 9/8, -7/8]]"
    rows = derived_relations_suite(pres, forms.polar(w).particular, 2, system_for(pres, 2))
    assert prefix_counts(rows) == {"sinw": 9, "su": 9, "tsu": 9, "Rsu": 9, "Rus": 9}
    assert status_counts(rows) == {Status.FAIL: 45}
    assert rows[9] == CheckResult(
        "su[1,1]", Status.FAIL, "normal form s[1,3]*u[3,1] + s[1,2]*u[2,1] + s[1,1]*u[1,1] - 1"
    )
    text = "".join(f"{r.name} {r.status.value} {r.detail}\n" for r in rows)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "5a18f12314131f507ad5dd6150c2a099673e8be97a38ff290deef7c06061c6b8"


def test_derived_rows_read_the_presentations_antipode():
    # sinw, tsu and Rus are images under the presentation's antipode: with
    # S(s) = U, which is wrong for this form (Q != I), exactly the images of
    # su and Rsu change, and nothing else does
    w = make_bilinear([[1, 2], [3, 5]])
    pres = build_hw(w)
    assert str(hopf._twist(w)) == "[[4, 5], [-1, -1]]"
    antipode = pres.structure.antipode | PolyMatrix.family(pres.alphabet, "u", 2).images("s")
    wrong = dataclasses.replace(
        pres, structure=dataclasses.replace(pres.structure, antipode=antipode)
    )
    system, wt = system_for(pres, 3), forms.polar(w).particular
    rows = derived_relations_suite(pres, wt, 3, system)
    assert prefix_counts(rows) == {"sinw": 4, "su": 4, "tsu": 4, "Rsu": 4, "Rus": 4}
    assert all_pass(rows)
    changed = [
        new.name for old, new in zip(rows, derived_relations_suite(wrong, wt, 3, system))
        if new != old
    ]
    assert [name.split("[")[0] for name in changed] == ["tsu"] * 4 + ["Rus"] * 4


def test_derived_relations_rejections(hw2, hw2_sys6):
    with pytest.raises(ValueError, match="u/s presentation"):
        derived_relations_suite(build_bw(W2), None, 6)
    with pytest.raises(ValueError, match="polar"):
        derived_relations_suite(hw2, W2, 6, hw2_sys6)


def test_pair_reduction_suite(hw2, hw2_sys6):
    results = pair_reduction_suite(hw2, 6, hw2_sys6)
    assert len(results) == 8
    assert all(r.name.startswith("pairred[") for r in results)
    assert all_pass(results)
    with pytest.raises(ValueError, match="arity >= 3"):
        pair_reduction_suite(build_hw(B), 4)
    with pytest.raises(ValueError, match="arity >= 3"):
        pair_reduction_suite(build_hb(B), 4)


def test_manin_suite(hw3_sys4):
    results = manin_suite(4, hw3_sys4)
    assert prefix_counts(results) == {"column": 9, "exchange": 18}
    assert all_pass(results)


def test_manin_suite_builds_nothing_for_a_given_system(hw3_sys4, monkeypatch):
    fresh = manin_suite(4)

    def refuse(w):
        raise AssertionError("manin_suite built a presentation")

    monkeypatch.setattr(hopf, "build_hw", refuse)
    assert manin_suite(4, hw3_sys4) == fresh


# --------------------------------------------------------- homomorphisms


def test_hom_into_single_matrix_presentation(hw3):
    hww = build_hww(EPS3, WT3)
    hom = hw_to_hww_hom(hw3, hww)
    assert hom.label == "hw->hww"
    assert len(hom.images) == 18
    results = check_hom(hom, system_for(hww, 4))
    assert len(results) == 45
    assert results[0].name == "hw->hww:us[1,1]"
    assert all_pass(results)


def test_power_sum_iso_assignments():
    fwd, back = theta_iso_homs(2, 3)
    assert fwd.label == "htheta->ah"
    assert back.label == "ah->htheta"
    assert fwd.images[Generator("u", 1, 2)].to_str() == "a[1,2]"
    assert fwd.images[Generator("s", 1, 2)].to_str() == "a[2,1]*a[2,1]"
    assert back.images[Generator("a", 2, 1)].to_str() == "u[2,1]"


def test_diagonal_iso_suite():
    results = diagonal_iso_suite(2, 3, 6)
    fwd = [r for r in results if r.name.startswith("htheta->ah:")]
    back = [r for r in results if r.name.startswith("ah->htheta:")]
    spow = [r for r in results if r.name.startswith("spow[")]
    assert (len(fwd), len(back), len(spow)) == (16, 12, 4)
    assert len(results) == 32
    assert all_pass(results)


def test_bilinear_iso_suite():
    results = bilinear_iso_suite(B, 4)
    fwd = [r for r in results if r.name.startswith("hw->hb:")]
    back = [r for r in results if r.name.startswith("hb->hw:")]
    rt = [r for r in results if r.name.startswith("roundtrip-s[")]
    assert (len(fwd), len(back), len(rt)) == (12, 8, 4)
    assert all_pass(results)


def test_hom_out_of_hw_needs_a_target_with_one_generator_matrix(hw2):
    with pytest.raises(ValueError, match=r"one generator matrix; hw\[n=2,m=3\] has 2"):
        hw_to_hww_hom(hw2, hw2)


def test_check_hom_flags_a_wrong_assignment():
    hwb = build_hw(B)
    hb = build_hb(B)
    zero = NcPoly.zero(hb.alphabet)
    broken = HomCandidate("broken", hwb, hb, {g: zero for g in hwb.generators})
    by_name = {r.name: r for r in check_hom(broken, system_for(hb, 4))}
    # the inhomogeneous relations survive: their images are nonzero constants
    assert by_name["broken:us[1,1]"].status is Status.FAIL
    assert by_name["broken:us[1,1]"].detail == "normal form -1"
    assert by_name["broken:us[1,2]"].status is Status.PASS
    # images with denominators: u -> u/2 and s -> s/2 send U S - I to
    # U S / 4 - I, whose normal form -3/4 is shown divided by d e
    halves = {g: NcPoly.from_gens(hwb.alphabet, [g]).scale(Fraction(1, 2)) for g in hwb.generators}
    rows = check_hom(HomCandidate("half", hwb, hwb, halves), system_for(hwb, 4))
    by_name = {r.name: r for r in rows}
    assert by_name["half:us[1,1]"].detail == "normal form -3/4"
    assert by_name["half:us[1,2]"].status is Status.PASS


# -------------------------------------------------------- representations


def test_unitriangular_representation(hw3):
    images = unitriangular_free_images(hw3)
    assert len(images) == 18
    wit_l = NcPoly.from_gens(hw3.alphabet, [Generator("u", 1, 2), Generator("u", 1, 3)])
    wit_r = NcPoly.from_gens(hw3.alphabet, [Generator("u", 1, 3), Generator("u", 1, 2)])
    rows = check_representation(hw3, images)
    assert all_pass(rows)
    assert len(rows) == 45
    assert rows[0].name == "rep:us[1,1]"
    assert substitute(wit_l, images).to_str() == "x*y"
    assert substitute(wit_r, images).to_str() == "y*x"


def test_representation_flags_failing_relations(hw3):
    target = Alphabet([Generator.free("x")])
    zero = NcPoly.zero(target)
    rows = check_representation(hw3, {g: zero for g in hw3.generators})
    assert not all_pass(rows)
    by_name = {r.name: r for r in rows}
    assert by_name["rep:us[1,1]"].status is Status.FAIL
    assert by_name["rep:us[1,1]"].detail == "image -1"


def test_representation_requires_free_targets(hw3):
    # images landing back in the matric alphabet are not a representation check
    selfmap = {
        g: NcPoly.from_gens(hw3.alphabet, [g]) for g in hw3.generators
    }
    with pytest.raises(ValueError, match="free"):
        check_representation(hw3, selfmap)


def test_representation_needs_images(hw3):
    with pytest.raises(ValueError, match="needs generator images, and none is given"):
        check_representation(hw3, {})


def test_unitriangular_images_are_instance_specific(hw2):
    with pytest.raises(ValueError, match="3x3"):
        unitriangular_free_images(hw2)


def test_noninjectivity_probe_certifies():
    rows = noninjectivity_probe(EPS3, WT3, 4)
    verdict = SUITES["noninjectivity"].verdict(rows, SuiteInputs(degree=4))
    assert verdict == "noninjective certified"
    assert all_pass(rows)
    assert len(rows) == 47
    assert rows[-2].name == "probe:witness-distinct"
    assert rows[-2].status is Status.PASS
    assert rows[-1].name == "probe:commutator"
    assert rows[-1].status is Status.PASS


def test_noninjectivity_probe_inconclusive_at_low_degree():
    rows = noninjectivity_probe(EPS3, WT3, 3)
    verdict = SUITES["noninjectivity"].verdict(rows, SuiteInputs(degree=3))
    assert verdict == "inconclusive at degree 3"
    assert all_pass(rows[:-1])
    assert rows[-2].status is Status.PASS
    assert rows[-1].status is Status.UNCERTIFIED
    assert rows[-1].detail == "nonzero normal form at this truncation"


def test_noninjectivity_probe_rejects_other_forms():
    with pytest.raises(ValueError, match="alternating"):
        noninjectivity_probe(W2, WT2, 4)


# ------------------------------------------------------------------ helpers


def test_status_helpers():
    ok = CheckResult("a", Status.PASS)
    bad = CheckResult("b", Status.FAIL, "boom")
    maybe = CheckResult("c", Status.UNCERTIFIED)
    assert all_pass([ok, ok]) and not all_pass([ok, maybe])
    assert worst_status([ok, ok]) is Status.PASS
    assert worst_status([ok, maybe]) is Status.UNCERTIFIED
    assert worst_status([ok, maybe, bad]) is Status.FAIL
    assert worst_status([]) is Status.PASS


def test_default_degree_is_twice_the_arity():
    assert default_degree(2) == 4
    assert default_degree(3) == 6
    assert default_degree(5) == 10


def test_system_for_matches_direct_completion(hw2):
    system = system_for(hw2, 4)
    assert system == complete(list(hw2.relations), 4)
    assert system.complete_through == 4
