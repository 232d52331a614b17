import collections
import itertools
import random
from fractions import Fraction

import pytest

from hopfw.exactnum import SingularMatrixError
from hopfw import hopf
from hopfw.formats import dump_presentation, parse_presentation
from hopfw.forms import MultilinearForm, make_bilinear, make_orthogonal, make_signature
from hopfw.hopf import (
    CheckResult,
    HomCandidate,
    Status,
    all_pass,
    bilinear_iso_suite,
    build_ahmn,
    build_bw,
    build_hb,
    build_hw,
    build_hww,
    build_presentation,
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
    manin_suite,
    noninjectivity_probe,
    pair_reduction_suite,
    system_for,
    theta_iso_homs,
    unitriangular_free_images,
    worst_status,
)
from hopfw.ncalg import Alphabet, Generator, NcPoly
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
    assert hw2.provenance.form == W2
    assert str(hw2.provenance.q) == "[[1, 0], [0, 1]]"


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
                presentations.append(build_presentation(kind, w))
            except ValueError:  # the form is degenerate, not preregular or not bilinear
                pass
    assert len(presentations) >= 300
    assert {p.kind for p in presentations} == {"bw", "hw", "hb", "hww", "ahmn"}
    for pres in presentations:
        assert not any(rel.is_zero() for rel in pres.relations), pres.label()
        assert len(set(pres.relations)) == len(pres.relations), pres.label()
        w, wt = (getattr(pres.provenance, f, None) for f in ("form", "polar_member"))
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
        check_antipode(bw2, 6, system)
    inv = check_left_inverse_identity(bw2, WT2, 6, system)
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
        check_left_inverse_identity(bw2, W2, 6)


def test_polar_refusals_come_before_any_completion(monkeypatch, hw2):
    def no_completion(*_):
        raise AssertionError("a refused tensor reached completion")

    monkeypatch.setattr(hopf, "complete", no_completion)
    bw2 = build_bw(W2)
    # W2 itself is not polar; EPS3 has the wrong dimension
    for wt, message in ((W2, "polar affine space"), (EPS3, "shape mismatch")):
        with pytest.raises(ValueError, match=message):
            build_hww(W2, wt)
        with pytest.raises(ValueError, match=message):
            check_left_inverse_identity(bw2, wt, 6)
        with pytest.raises(ValueError, match=message):
            derived_relations_suite(hw2, wt, 6)


def test_checks_on_a_parsed_presentation_need_its_form():
    hw2, bw2 = (parse_presentation(dump_presentation(p)) for p in (build_hw(W2), build_bw(W2)))
    assert hw2.provenance is None and bw2.provenance is None
    message = "needs a presentation built from a form"
    with pytest.raises(ValueError, match=message):
        derived_relations_suite(hw2, WT2, 4)
    with pytest.raises(ValueError, match=message):
        pair_reduction_suite(hw2, 4)
    with pytest.raises(ValueError, match=message):
        check_left_inverse_identity(bw2, WT2, 4)


def _without_lines(pres, heads):
    """The dump of ``pres`` with every line whose head is in ``heads`` left out."""
    lines = dump_presentation(pres).splitlines()
    return "".join(line + "\n" for line in lines if line.split(" ", 1)[0] not in heads)


def test_axiom_checks_on_a_dump_without_structure_are_refused(monkeypatch):
    # W2 is the cyclic2 example; its dump without delta, counit and antipode
    # lines is legal and has no structure to check
    bare = parse_presentation(_without_lines(build_hw(W2), {"delta", "counit", "antipode"}))
    assert bare.structure is None

    def refuse(*args, **kwargs):
        raise AssertionError("completed a presentation that has no structure to check")

    monkeypatch.setattr(hopf, "complete", refuse)
    for call, part in (
        (lambda: check_counit(bare), "counit"),
        (lambda: check_coproduct(bare, 4), "delta"),
        (lambda: check_antipode(bare, 4), "antipode"),
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
def test_checks_without_a_system_complete_their_own(hw2, degree):
    # at D=3 some antipode rows fail and at D=4 all pass: either way a check
    # given no system reads the one system_for completes
    for check, pres, args in (
        (check_coproduct, hw2, ()),
        (check_antipode, hw2, ()),
        (check_left_inverse_identity, build_bw(W2), (WT2,)),
    ):
        own = check(pres, *args, degree)
        assert own == check(pres, *args, degree, system_for(pres, degree))
        assert len(own) >= 4


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


def test_suites_are_uncertified_above_a_dumps_complete_through(hw2):
    # a dump may certify less than its degree: the coproduct checks of the
    # cubic relations go through normal_form, which refuses above degree 2
    text = system_for(hw2, 4).dump().replace("complete_through 4\n", "complete_through 2\n")
    loose = RewriteSystem.parse(text)
    assert (loose.degree_bound, loose.complete_through) == (4, 2)
    results = check_coproduct(hw2, 4, loose)
    assert status_counts(results) == {Status.PASS: 8, Status.UNCERTIFIED: 8}
    uncertified = [r for r in results if r.status is Status.UNCERTIFIED]
    assert {r.detail for r in uncertified} == {"needs degree 3, certified 2"}
    suite = hopf_axiom_suite(hw2, 4, loose)
    assert status_counts(suite) == {Status.PASS: 48, Status.UNCERTIFIED: 16}


def _free_presentation(relations, delta):
    """A parsed presentation over free generators, zero counit, no antipode."""
    gens = sorted(delta)
    lines = ["algebra hw", "n 1", "m 2", "generators " + " ".join(gens)]
    lines += [f"relation r{i}: {r}" for i, r in enumerate(relations)]
    lines += [f"delta {g} -> {delta[g]}" for g in gens]
    lines += [f"counit {g} -> 0" for g in gens]
    return parse_presentation("\n".join(lines) + "\n")


def test_coproduct_residue_names_the_degree_that_term_by_term_reduction_meets():
    # the residue reduces the left legs, then the right legs; a right word
    # above the certified degree is UNCERTIFIED exactly when its left word
    # does not vanish, even when the left words summed at it cancel
    pres = _free_presentation(["x - y"], {"x": "x#z*z", "y": "y#z*z", "z": "z#z"})
    (row,) = check_coproduct(pres, 1)
    assert (row.status, row.detail) == (Status.UNCERTIFIED, "needs degree 2, certified 1")
    # the left word x vanishes, so its right word is never reduced
    pres = _free_presentation(["x"], {"x": "x#y*y", "y": "y#y"})
    assert [(r.status, r.detail) for r in check_coproduct(pres, 1)] == [(Status.PASS, "")]
    # a left word above it comes first in term order
    pres = _free_presentation(["x - y"], {"x": "x*x#1", "y": "y#z*z*z", "z": "z#z"})
    (row,) = check_coproduct(pres, 1)
    assert (row.status, row.detail) == (Status.UNCERTIFIED, "needs degree 2, certified 1")
    # within the certified degree the residue is the normal form of both legs
    pres = _free_presentation(["x - y"], {"x": "x#z + 2*y#x", "y": "y#z", "z": "z#1"})
    (row,) = check_coproduct(pres, 1)
    assert (row.status, row.detail) == (Status.FAIL, "residue 2*x#x")


def test_a_failing_coproduct_residue_shows_its_fraction_values():
    # the rules y -> 1/2*x and z -> 1/2*x put a denominator into a left sum,
    # which the right sums must keep: the residue of y - z is
    # 1/2*x#x - 1/2*x#(1/2*x) = 1/4*x#x
    pres = _free_presentation(["2*y - x", "y - z"], {"x": "x#x", "y": "y#x", "z": "z#z"})
    rows = check_coproduct(pres, 1)
    assert [(r.status, r.detail) for r in rows] == [
        (Status.PASS, ""),
        (Status.FAIL, "residue 1/4*x#x"),
    ]
    # the same with the relations scaled: the residue scales with them
    pres = _free_presentation(["2/3*y - 1/3*x", "3*y - 3*z"], {"x": "x#x", "y": "y#x", "z": "z#z"})
    assert [r.detail for r in check_coproduct(pres, 1)] == ["", "residue 3/4*x#x"]
    # a delta with a denominator: the residue of x - y under y -> x is
    # 1/2*x#z + x#x - x#z
    pres = _free_presentation(["x - y"], {"x": "1/2*x#z + y#x", "y": "y#z", "z": "z#1"})
    (row,) = check_coproduct(pres, 1)
    assert (row.status, row.detail) == (Status.FAIL, "residue -1/2*x#z + x#x")


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
    results = check_hom(hom, 4)
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
    by_name = {r.name: r for r in check_hom(broken, 4)}
    # the inhomogeneous relations survive: their images are nonzero constants
    assert by_name["broken:us[1,1]"].status is Status.FAIL
    assert by_name["broken:us[1,1]"].detail == "normal form -1"
    assert by_name["broken:us[1,2]"].status is Status.PASS
    # images with denominators: u -> u/2 and s -> s/2 send U S - I to
    # U S / 4 - I, whose normal form -3/4 is shown divided by d e
    halves = {g: NcPoly.from_gens(hwb.alphabet, [g]).scale(Fraction(1, 2)) for g in hwb.generators}
    by_name = {r.name: r for r in check_hom(HomCandidate("half", hwb, hwb, halves), 4)}
    assert by_name["half:us[1,1]"].detail == "normal form -3/4"
    assert by_name["half:us[1,2]"].status is Status.PASS


# -------------------------------------------------------- representations


def test_unitriangular_representation(hw3):
    images = unitriangular_free_images(hw3)
    assert len(images) == 18
    wit_l = NcPoly.from_gens(hw3.alphabet, [Generator("u", 1, 2), Generator("u", 1, 3)])
    wit_r = NcPoly.from_gens(hw3.alphabet, [Generator("u", 1, 3), Generator("u", 1, 2)])
    report = check_representation(hw3, images, witness=(wit_l, wit_r))
    assert report.ok()
    assert len(report.results) == 45
    assert report.results[0].name == "rep:us[1,1]"
    assert report.witness_images[0].to_str() == "x*y"
    assert report.witness_images[1].to_str() == "y*x"
    assert report.witness_distinct is True


def test_representation_flags_failing_relations(hw3):
    target = Alphabet([Generator.free("x")])
    zero = NcPoly.zero(target)
    report = check_representation(hw3, {g: zero for g in hw3.generators})
    assert not report.ok()
    by_name = {r.name: r for r in report.results}
    assert by_name["rep:us[1,1]"].status is Status.FAIL
    assert by_name["rep:us[1,1]"].detail == "image -1"
    assert report.witness_images is None and report.witness_distinct is None


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
    report = noninjectivity_probe(EPS3, WT3, 4)
    assert report.verdict == "noninjective certified"
    assert report.witness_ok and report.commutator_certified
    assert report.degree == 4
    assert len(report.details) == 47
    assert report.details[-2].name == "probe:witness-distinct"
    assert report.details[-2].status is Status.PASS
    assert report.details[-1].name == "probe:commutator"
    assert report.details[-1].status is Status.PASS


def test_noninjectivity_probe_inconclusive_at_low_degree():
    report = noninjectivity_probe(EPS3, WT3, 3)
    assert report.verdict == "inconclusive at degree 3"
    assert report.witness_ok is True
    assert report.commutator_certified is False
    assert report.details[-1].status is Status.UNCERTIFIED
    assert report.details[-1].detail == "nonzero normal form at this truncation"


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
