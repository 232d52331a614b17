import fractions
import itertools
import math
import random
import sys
from fractions import Fraction

import pytest

from hopfw.exactnum import Matrix, format_matrix, mat_inv, rat, rref
from hopfw import forms
from hopfw.cli import _example_form
from hopfw.forms import (
    AmbiguousTwistError,
    MultilinearForm,
    NotInvariantError,
    TwistReport,
    _analyze_every_slot,
    analyze,
    base_change,
    check_condition_i_prime,
    check_invariance,
    flattening,
    in_polar,
    is_one_site_nondegenerate,
    is_q_cyclic,
    make_bilinear,
    make_orthogonal,
    make_signature,
    pi_q,
    polar,
    polar_contraction,
    q_inverse_from_polar,
    twisting_element,
)
from test_exactnum import dense_rref, dense_solve
from test_golden import FORM_KEYS, _form_by_key, _twist_text

# the running 2-dimensional example: the cyclic sum of the (1,1,2) indicator
W2 = MultilinearForm(2, 3, {(1, 1, 2): 1, (1, 2, 1): 1, (2, 1, 1): 1})


def test_form_validation():
    with pytest.raises(ValueError):
        MultilinearForm(1, 2, {})
    with pytest.raises(ValueError):
        MultilinearForm(2, 1, {})
    with pytest.raises(ValueError):
        MultilinearForm(2, 2, {(1, 1, 1): 1})
    with pytest.raises(ValueError):
        MultilinearForm(2, 2, {(0, 1): 1})
    with pytest.raises(ValueError):
        MultilinearForm(2, 2, {(3, 1): 1})
    # zero coefficients are dropped, not stored
    assert MultilinearForm(2, 2, {(1, 1): 0}).is_zero()


def test_form_is_immutable_and_hashable():
    w = make_bilinear([[1, 0], [0, 1]])
    with pytest.raises(AttributeError):
        w.dim = 3
    assert hash(w) == hash(make_bilinear([[1, 0], [0, 1]]))
    assert w[(1, 1)] == 1 and w[(1, 2)] == 0


def test_scale_and_add():
    w = W2.scale(2).add(W2.scale(-2))
    assert w.is_zero()
    with pytest.raises(ValueError):
        W2.add(make_bilinear([[1, 0], [0, 1]]))


def test_flattening_frozen():
    f = flattening(W2, 3)
    assert (f.rows, f.cols) == (4, 2)
    assert format_matrix(f) == "[[0, 1], [1, 0], [1, 0], [0, 0]]"
    # this particular form flattens identically in every slot
    assert flattening(W2, 1) == f and flattening(W2, 2) == f
    _, _, rank = rref(f)
    assert rank == 2
    with pytest.raises(ValueError):
        flattening(W2, 4)


def test_nondegeneracy():
    assert is_one_site_nondegenerate(W2)
    assert check_condition_i_prime(W2)
    degen = MultilinearForm(2, 2, {(1, 1): 1})
    assert not is_one_site_nondegenerate(degen)
    # nondegenerate in the last slot only
    lopsided = MultilinearForm(2, 2, {(1, 1): 1, (1, 2): 1})
    assert not is_one_site_nondegenerate(lopsided)


def test_twisting_element_frozen_values():
    assert twisting_element(W2) == Matrix.identity(2)
    assert twisting_element(make_signature(3)) == Matrix.identity(3)
    # even arity flips the sign of the alternating form's twist
    assert twisting_element(make_signature(4)) == Matrix.identity(4).scale(-1)
    assert twisting_element(make_bilinear([[0, 1], [-1, 0]])) == Matrix.identity(2).scale(-1)
    assert twisting_element(make_orthogonal(2, 3)) == Matrix.identity(2)
    # a non-symmetric invertible bilinear form has a non-scalar twist
    q = twisting_element(make_bilinear([[1, 1], [0, 1]]))
    assert format_matrix(q) == "[[1, 1], [-1, 0]]"


def test_twisting_element_inconsistent_and_ambiguous():
    assert twisting_element(MultilinearForm(2, 3, {(1, 1, 1): 1, (1, 1, 2): 1})) is None
    with pytest.raises(AmbiguousTwistError):
        twisting_element(MultilinearForm(2, 3, {(1, 1, 1): 1}))


def test_is_q_cyclic():
    assert is_q_cyclic(W2, Matrix.identity(2))
    assert not is_q_cyclic(W2, Matrix.identity(2).scale(-1))
    eps4 = make_signature(4)
    assert is_q_cyclic(eps4, Matrix.identity(4).scale(-1))
    assert not is_q_cyclic(eps4, Matrix.identity(4))


def test_analyze():
    rep = analyze(W2)
    assert rep.nondegenerate and rep.preregular and not rep.twist_ambiguous
    assert rep.q == Matrix.identity(2)

    rep = analyze(MultilinearForm(2, 3, {(1, 1, 1): 1}))
    assert rep.twist_ambiguous and rep.q is None and not rep.preregular

    rep = analyze(MultilinearForm(2, 3, {(1, 1, 1): 1, (1, 1, 2): 1}))
    assert rep.q is None and not rep.twist_ambiguous and not rep.preregular


def test_polar_frozen():
    sol = polar(W2)
    assert sol.particular == MultilinearForm(2, 3, {(1, 1, 2): 1, (2, 1, 1): 1})
    assert sol.affine_dimension() == 4
    assert in_polar(sol.particular, W2)
    for k in sol.kernel_basis:
        assert polar_contraction(k, W2).is_zero()
    assert in_polar(sol.member([1, 0, 0, 0]), W2)
    assert in_polar(sol.member([rat(1, 2), -1, 3, 0]), W2)
    with pytest.raises(ValueError):
        sol.member([1])

    sol3 = polar(make_signature(3))
    assert sol3.particular == MultilinearForm(
        3, 3, {(1, 2, 3): 1, (2, 1, 3): -1, (3, 1, 2): 1}
    )
    assert sol3.affine_dimension() == 18

    assert polar(MultilinearForm(2, 2, {(1, 1): 1})) is None


def test_polar_membership_of_scaled_alternating_forms():
    eps3 = make_signature(3)
    eps4 = make_signature(4)
    # contracting the alternating form against itself gives (m-1)! times
    # the identity, with a sign that alternates with the arity
    assert in_polar(eps3.scale(rat(1, 2)), eps3)
    assert not in_polar(eps3.scale(rat(1, 3)), eps3)
    assert polar_contraction(eps3.scale(rat(1, 3)), eps3) == Matrix.identity(3).scale(
        rat(2, 3)
    )
    assert in_polar(eps4.scale(rat(-1, 6)), eps4)
    assert not in_polar(eps4.scale(rat(1, 6)), eps4)


def test_signature_6_twist_and_polar():
    # the dense n^2 x n^m polar system of the alternating 6-form (46 656
    # unknowns) used to exhaust memory; on the flattenings it is 6 x 7 776
    w = make_signature(6)
    assert twisting_element(w) == Matrix.identity(6).scale(-1)
    sol = polar(w)
    assert sol.affine_dimension() == 6**6 - 6**2 == 46620
    # sign (-1)^(m-1) and 1/(m-1)! for m = 6
    assert in_polar(w.scale(rat(-1, 120)), w)
    assert not in_polar(w.scale(rat(1, 120)), w)


# ---------------------------------------------------------------------------
# the dense reference: the analysis as it was, on whole flattenings built by
# looking up every one of their n^m cells, each row-reduced by dense
# Gauss-Jordan over Fractions


def dense_flattening(w, slot):
    others = list(itertools.product(range(1, w.dim + 1), repeat=w.arity - 1))
    cells = [w[rest[: slot - 1] + (j,) + rest[slot - 1 :]] for rest in others for j in range(1, w.dim + 1)]
    return Matrix(len(others), w.dim, cells)


def _dense_twist_report(nondegenerate, w):
    q, kern = dense_solve(dense_flattening(w, 1), dense_flattening(w, w.arity))
    ambiguous = q is not None and bool(kern)
    if ambiguous:
        q = None
    prereg = bool(nondegenerate and q is not None and dense_rref(q)[2] == w.dim)
    return TwistReport(nondegenerate, q, prereg, ambiguous), len(kern)


def _dense_rank(w, slot):
    return dense_rref(dense_flattening(w, slot))[2]


def dense_analysis(w):
    """(analyze, _analyze_every_slot, the twist's text, polar) of w."""
    ranks = [_dense_rank(w, slot) for slot in range(1, w.arity + 1)]
    report, nullity = _dense_twist_report(ranks[-1] == w.dim, w)
    every = (report, all(r == w.dim for r in ranks))
    assert (nullity == 0) == (ranks[0] == w.dim)
    if report.twist_ambiguous:
        twist = f"AmbiguousTwistError: twisting element underdetermined: {w.dim * nullity} free parameters"
    else:
        twist = "None" if report.q is None else format_matrix(report.q)
    n, m = w.dim, w.arity
    part, kern = dense_solve(dense_flattening(w, m).transpose(), Matrix.identity(n))
    if part is None:
        return report, every, twist, None
    indices = itertools.product(range(1, n + 1), repeat=m)
    particular = MultilinearForm(n, m, dict(zip(indices, part.transpose().entries)))
    mids = list(itertools.product(range(1, n + 1), repeat=m - 1))
    kernel = [MultilinearForm(n, m, {(k,) + mids[i]: c for i, c in v.items()})
              for k in range(1, n + 1) for v in kern]
    return report, every, twist, (particular, kernel)


def _entries_text(w):
    # the values, their types and the insertion order of every entry
    return [(idx, type(c), c) for idx, c in w.entries.items()]


def _random_ladder_form(rng, dim, arity):
    """A sparse form summed over cyclic rotations of its slots, of the
    shapes the forms benchmark draws."""
    entries = {}
    for _ in range(dim + 2):
        idx = tuple(rng.randint(1, dim) for _ in range(arity))
        c = Fraction(rng.choice((-2, -1, 1, 2)))
        for k in range(arity):
            entries[idx[k:] + idx[:k]] = c
    return MultilinearForm(dim, arity, entries)


ORACLE_FORMS = {key: (lambda key=key: _form_by_key(key)) for key in FORM_KEYS} | {
    f"ladder-{dim}-{arity}-{seed}": (lambda dim=dim, arity=arity, seed=seed:
                                     _random_ladder_form(random.Random(seed), dim, arity))
    for dim, arity in ((3, 4), (4, 4), (2, 7)) for seed in (1, 2, 3)
}


@pytest.mark.parametrize("key", sorted(ORACLE_FORMS))
def test_analysis_and_polar_agree_with_dense_flattenings(key):
    w = ORACLE_FORMS[key]()
    report, every, twist, pol = dense_analysis(w)
    assert analyze(w) == report
    assert _analyze_every_slot(w) == every
    assert is_one_site_nondegenerate(w) == report.nondegenerate
    assert check_condition_i_prime(w) == every[1]
    assert _twist_text(w) == twist
    for slot in range(1, w.arity + 1):
        assert flattening(w, slot) == dense_flattening(w, slot)
    sol = polar(w)
    if pol is None:
        assert sol is None
        return
    particular, kernel = pol
    assert _entries_text(sol.particular) == _entries_text(particular)
    assert [_entries_text(k) for k in sol.kernel_basis] == [_entries_text(k) for k in kernel]
    assert sol == forms.PolarSolution(particular, tuple(kernel))


def test_oracle_forms_cover_every_outcome():
    outcomes = [dense_analysis(ORACLE_FORMS[key]()) for key in ORACLE_FORMS]
    kinds = {"matrix" if twist.startswith("[") else twist.split(":")[0] for _, _, twist, _ in outcomes}
    assert kinds == {"matrix", "None", "AmbiguousTwistError"}
    assert {pol is None for _, _, _, pol in outcomes} == {True, False}
    assert {every[1] for _, every, _, _ in outcomes} == {True, False}


@pytest.mark.parametrize("name", ["signature-4", "signature-5", "orthogonal-2-8"])
def test_the_analysis_builds_no_flattening(name, monkeypatch):
    # analyze, the every-slot check, the twist and polar read w's nonzero
    # entries only: none of them builds a flattening of all n^m cells
    w = _example_form(name)
    want = (analyze(w), check_condition_i_prime(w), _analyze_every_slot(w), twisting_element(w), polar(w))

    def refuse(*args):
        raise AssertionError("a dense flattening was built")

    monkeypatch.setattr(forms, "flattening", refuse)
    got = (analyze(w), check_condition_i_prime(w), _analyze_every_slot(w), twisting_element(w), polar(w))
    assert got == want


def test_polar_contraction_shape_mismatch():
    with pytest.raises(ValueError):
        polar_contraction(make_signature(3), W2)


def test_in_polar_shape_mismatch():
    with pytest.raises(ValueError, match="shape mismatch"):
        in_polar(make_signature(3), W2)
    with pytest.raises(ValueError, match="shape mismatch"):
        in_polar(W2, make_bilinear([[1, 0], [0, 1]]))


def _contractions_agree_with_flattening_products(wt, w):
    """Check ``polar_contraction``, ``in_polar`` and the first-slot
    contraction against products of two flattenings over the rationals,
    which share no code with them.  Returns how many entries of the products
    are zero sums of nonzero products."""
    left = flattening(wt, 1).transpose()
    cancelled = 0
    for slot, got in ((w.arity, polar_contraction(wt, w)), (1, forms._contract(wt, w, 1))):
        right = flattening(w, slot)
        product = left * right
        assert got == product
        if slot == w.arity:
            assert in_polar(wt, w) == (product == Matrix.identity(w.dim))
        cancelled += sum(
            1
            for i in range(w.dim)
            for j in range(w.dim)
            if not product.entry(i, j)
            and any(left.entry(i, k) * right.entry(k, j) for k in range(left.cols))
        )
    return cancelled


@pytest.mark.parametrize("key", FORM_KEYS)
def test_contraction_agrees_with_flattening_products_on_golden_forms(key):
    w = _form_by_key(key)
    sol = polar(w)
    tensors = [w]
    if sol is not None:
        # another polar member, off the particular solution
        mixed = sol.particular
        for c, k in zip((1, -2, 3), sol.kernel_basis):
            mixed = mixed.add(k.scale(c))
        tensors += [sol.particular, mixed, _moved(mixed, w)]
        assert in_polar(sol.particular, w) and in_polar(mixed, w)
        assert not in_polar(tensors[-1], w)
    for wt in tensors:
        _contractions_agree_with_flattening_products(wt, w)


def _moved(wt, w):
    """wt with one entry moved by 1/d, for d the least common multiple of
    its denominators: the entry at (1, J) for the least index (J, l) of w,
    so that row 1 of the contraction moves by w_{J l} / d."""
    d = math.lcm(*(c.denominator for c in wt.entries.values()))
    idx = (1,) + min(w.entries)[:-1]
    return wt.add(MultilinearForm(wt.dim, wt.arity, {idx: Fraction(1, d)}))


@pytest.mark.parametrize("key", FORM_KEYS)
def test_polar_member_equals_the_fold_on_golden_forms(key):
    # the member is particular + sum c_i * k_i, whatever order it adds in
    sol = polar(_form_by_key(key))
    if sol is None:
        return
    # a dozen nonzero coefficients at most: the fold costs their number
    # times the form's size
    rng = random.Random(key)
    coeffs = [0] * sol.affine_dimension()
    for _ in range(min(12, len(coeffs))):
        coeffs[rng.randrange(len(coeffs))] = rng.choice((1, -2, Fraction(1, 3), Fraction(-5, 2)))
    fold = sol.particular
    for c, k in zip(coeffs, sol.kernel_basis):
        if c:
            fold = fold.add(k.scale(c))
    assert sol.member(coeffs) == fold
    assert sol.member([0] * sol.affine_dimension()) == sol.particular


def test_signature_5_all_ones_member():
    # 3 100 kernel vectors, every one in the sum
    w = make_signature(5)
    sol = polar(w)
    wt = sol.member([1] * sol.affine_dimension())
    assert sol.affine_dimension() == 3100
    assert in_polar(wt, w)
    assert wt != sol.particular


def _random_signed_form(rng, n, m):
    entries = {}
    for idx in itertools.product(range(1, n + 1), repeat=m):
        if rng.random() < 0.5:
            entries[idx] = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2, 3)))
    return MultilinearForm(n, m, entries)


def test_contraction_agrees_with_flattening_products_on_random_pairs():
    cancelled = 0
    for seed in range(200):
        rng = random.Random(seed)
        n, m = rng.choice((2, 3)), rng.choice((2, 3, 4))
        wt, w = _random_signed_form(rng, n, m), _random_signed_form(rng, n, m)
        cancelled += _contractions_agree_with_flattening_products(wt, w)
    # signed coefficients make some entries sum nonzero products to zero
    assert cancelled > 0


# a denominator above 2^64, so that d * e overflows any machine word
BIG = 2**64 + 13


def _random_fraction_form(rng, n, m):
    """A seeded form whose values have signs and denominators up to BIG."""
    entries = {}
    for idx in itertools.product(range(1, n + 1), repeat=m):
        if rng.random() < 0.4:
            sign = rng.choice((-1, 1))
            entries[idx] = Fraction(sign * rng.randint(1, 7), rng.choice((1, 2, 6, 35, BIG)))
    return MultilinearForm(n, m, entries)


def _seeded_polar_pairs():
    """(wt, w) pairs from seeded forms with denominators in both slots: each
    form against itself and against a random tensor, and each one-site
    nondegenerate form against a polar member (kernel coefficients among 1,
    -1/3 and 1/BIG), that member moved by 1/d, and the empty tensor."""
    pairs = []
    for seed in range(60):
        rng = random.Random(1000 + seed)
        n, m = rng.choice((2, 3)), rng.choice((2, 3))
        w = _random_fraction_form(rng, n, m)
        pairs += [(w, w), (_random_fraction_form(rng, n, m), w)]
        sol = polar(w)
        if sol is None or not w.entries:
            continue
        coeffs = [rng.choice((0, 1, Fraction(-1, 3), Fraction(1, BIG))) for _ in sol.kernel_basis]
        member = sol.member(coeffs)
        empty = MultilinearForm(n, m, {})
        pairs += [(member, w), (_moved(member, w), w), (empty, w), (w, empty), (empty, empty)]
    return pairs


def test_in_polar_agrees_with_flattening_products_on_seeded_fractions():
    pairs = _seeded_polar_pairs()
    for wt, w in pairs:
        _contractions_agree_with_flattening_products(wt, w)

    def denominators(f):
        return {c.denominator for c in f.entries.values()}

    # the seeds give members and non-members, and members whose both slots
    # have denominators, one of them above 2^64
    members = [(wt, w) for wt, w in pairs if in_polar(wt, w)]
    assert 20 <= len(members) < len(pairs) // 2
    assert any(
        max(denominators(wt)) % BIG == 0 and max(denominators(w)) > 1 for wt, w in members
    )


def test_in_polar_keeps_each_forms_own_index():
    # two forms of one shape with different polar spaces, queried in turns
    a, b = W2, MultilinearForm(2, 3, {(1, 1, 1): 1, (1, 2, 2): Fraction(-1, 3)})
    a_wt, b_wt = polar(a).particular, polar(b).particular
    queries = [(a_wt, a), (b_wt, a), (a_wt, b), (b_wt, b), (a_wt.scale(2), a), (b_wt.scale(2), b)]
    fresh = [
        in_polar(wt, MultilinearForm(w.dim, w.arity, w.entries)) for wt, w in queries
    ]
    assert fresh == [True, False, False, True, False, False]
    before = [(hash(f), repr(f)) for f in (a, b)]
    for order in (queries, queries[::-1]):
        got = [in_polar(wt, w) for wt, w in order]
        assert got == (fresh if order is queries else fresh[::-1])
        assert [polar_contraction(wt, w) for wt, w in order] == [
            flattening(wt, 1).transpose() * flattening(w, w.arity) for wt, w in order
        ]
    # a queried form equals, hashes and prints as before and as an unqueried copy
    for f, (h, r) in zip((a, b), before):
        copy = MultilinearForm(f.dim, f.arity, f.entries)
        assert f == copy and copy == f
        assert hash(f) == h == hash(copy) and repr(f) == r == repr(copy)
        assert len({f, copy}) == 1
    # a form equal to b, not the same object, answers as b
    twin = MultilinearForm(b.dim, b.arity, dict(b.entries))
    assert twin is not b and twin == b
    assert [in_polar(wt, twin) for wt in (a_wt, b_wt)] == [False, True]
    assert [in_polar(wt, b) for wt in (a_wt, b_wt)] == [False, True]


def test_in_polar_builds_no_fraction():
    w = make_signature(4)
    queries = [w.scale(rat(-1, 6)), w.scale(rat(1, 6)), polar(w).particular, w]
    made = []

    def watch(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename == fractions.__file__:
            if code.co_name in ("__new__", "_from_coprime_ints"):
                made.append(code.co_name)

    def watched(call):
        outer = sys.getprofile()
        sys.setprofile(watch)
        try:
            return call()
        finally:
            sys.setprofile(outer)

    answers = [watched(lambda: in_polar(wt, w)) for wt in queries]
    assert answers == [True, False, True, False]
    assert made == []
    # the watch sees the Fractions the public contraction hands out
    watched(lambda: polar_contraction(queries[0], w))
    assert made


def test_q_inverse_from_polar():
    sol = polar(W2)
    assert q_inverse_from_polar(W2, sol.particular) == Matrix.identity(2)
    eps3 = make_signature(3)
    assert q_inverse_from_polar(eps3, polar(eps3).particular) == Matrix.identity(3)
    # the inverse twist comes out of *any* polar member, not just one of them
    assert q_inverse_from_polar(W2, sol.member([2, rat(-1, 3), 0, 1])) == Matrix.identity(2)
    with pytest.raises(ValueError):
        q_inverse_from_polar(W2, W2)  # w itself is not in its polar space


def test_q_inverse_from_polar_needs_a_twist():
    # e111 + e122 is one-site nondegenerate and has polar members, but the
    # twisted-cyclicity system has no solution
    w = MultilinearForm(2, 3, {(1, 1, 1): 1, (1, 2, 2): 1})
    wt = polar(w).particular
    assert in_polar(wt, w) and twisting_element(w) is None
    with pytest.raises(ValueError, match="no invertible twisting element"):
        q_inverse_from_polar(w, wt)


def test_pi_q_cyclic_average():
    ind = MultilinearForm(2, 3, {(1, 1, 2): 1})
    avg = pi_q(ind, Matrix.identity(2))
    assert avg == W2
    # applying the symmetrization to an already cyclic form multiplies by m
    assert pi_q(avg, Matrix.identity(2)) == avg.scale(3)
    assert is_q_cyclic(avg, Matrix.identity(2))


def test_pi_q_with_nontrivial_twist():
    eps4 = make_signature(4)
    q = Matrix.identity(4).scale(-1)
    assert check_invariance(eps4, q)
    out = pi_q(eps4, q)
    assert out == eps4.scale(4)
    assert is_q_cyclic(out, q)


def test_pi_q_rejects_non_invariant():
    g = Matrix.from_rows([[1, 1], [0, 1]])
    assert not check_invariance(W2, g)
    with pytest.raises(NotInvariantError):
        pi_q(MultilinearForm(2, 3, {(1, 1, 2): 1}), g)
    with pytest.raises(ValueError):
        check_invariance(W2, Matrix.identity(3))


def test_base_change_conjugates_the_twist():
    b = make_bilinear([[1, 1], [0, 1]])
    q = twisting_element(b)
    g = Matrix.from_rows([[1, 2], [1, 3]])
    moved = base_change(b, g)
    assert moved == make_bilinear([[3, 8], [7, 19]])
    conj = mat_inv(g) * q * g
    assert is_q_cyclic(moved, conj)
    assert analyze(moved).q == conj
    with pytest.raises(Exception):
        base_change(b, Matrix.from_rows([[1, 1], [1, 1]]))


def test_base_change_identity_and_invariance():
    eps3 = make_signature(3)
    sl = Matrix.from_rows([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    # determinant-one matrices preserve the alternating form on the nose
    assert base_change(eps3, sl) == eps3
    assert check_invariance(eps3, sl)
    assert base_change(W2, Matrix.identity(2)) == W2


def test_make_signature():
    eps3 = make_signature(3)
    assert eps3.nonzero_items() == [
        ((1, 2, 3), 1),
        ((1, 3, 2), -1),
        ((2, 1, 3), -1),
        ((2, 3, 1), 1),
        ((3, 1, 2), 1),
        ((3, 2, 1), -1),
    ]
    assert analyze(eps3).preregular


def test_make_orthogonal():
    th = make_orthogonal(2, 3)
    assert th == MultilinearForm(2, 3, {(1, 1, 1): 1, (2, 2, 2): 1})
    assert analyze(th).preregular
    assert analyze(th).q == Matrix.identity(2)


def test_make_bilinear():
    b = make_bilinear([[0, 1], [-1, 0]])
    assert b[(1, 2)] == 1 and b[(2, 1)] == -1 and b[(1, 1)] == 0
    with pytest.raises(ValueError):
        make_bilinear([[1, 2, 3], [4, 5, 6]])


def test_running_example_is_preregular_with_unit_twist():
    # the whole pipeline on the running example in one place
    rep = analyze(W2)
    assert rep.preregular and rep.q == Matrix.identity(2)
    sol = polar(W2)
    qinv = q_inverse_from_polar(W2, sol.particular)
    assert qinv * rep.q == Matrix.identity(2)
