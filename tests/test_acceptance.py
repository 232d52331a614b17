"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a single
``criterion N: PASS`` / ``criterion N: FAIL`` line (run with ``-s`` to see
the lines for passing tests too).  Sub-checks are collected into a list of
failure strings so a red criterion reports everything that went wrong, not
just the first assertion.

Signs of the alternating instances (criteria 1 and 2): for the
alternating form eps_m, moving the last slot to the front is an m-cycle,
and an m-cycle has sign (-1)^(m-1).  So the twist is Q = (-1)^(m-1)·I, and
since sum_J eps_{kJ} eps_{Jl} = (-1)^(m-1) (m-1)!·delta_{kl}, the scaling
c·eps_m is polar exactly when c = (-1)^(m-1)/(m-1)!.  For m = 4 that is
twist -I and polar member -(1/6)·form; +(1/6)·form is not a member.
"""

import random
import time

import pytest

from hopfw.cli import main
from hopfw.exactnum import Matrix, rat
from hopfw.forms import (
    MultilinearForm,
    analyze,
    in_polar,
    make_bilinear,
    make_orthogonal,
    make_signature,
    polar,
)
from hopfw.hopf import (
    SUITES,
    Generator,
    Status,
    SuiteInputs,
    all_pass,
    bilinear_iso_suite,
    build_ahmn,
    build_bw,
    build_hb,
    build_hw,
    check_left_inverse_identity,
    check_representation,
    derived_relations_suite,
    diagonal_iso_suite,
    hopf_axiom_suite,
    manin_suite,
    noninjectivity_probe,
    system_for,
    unitriangular_free_images,
)
from hopfw.ncalg import Alphabet, NcPoly, substitute
from hopfw.rewrite import complete, ideal_member, unresolved_overlaps
from span_oracle import SpanOracle

W2 = MultilinearForm(2, 3, {(1, 1, 2): 1, (1, 2, 1): 1, (2, 1, 1): 1})
EPS3 = make_signature(3)
EPS4 = make_signature(4)
WT3 = MultilinearForm(3, 3, {(1, 2, 3): 1, (2, 1, 3): -1, (3, 1, 2): 1})
B = make_bilinear([[0, 1], [-1, 0]])
SEED = 20260821


def _verdict(num: int, failures: list[str]) -> None:
    print(f"criterion {num}: {'FAIL' if failures else 'PASS'}")
    assert not failures, f"criterion {num}: " + "; ".join(failures)


def _check(failures: list[str], ok: bool, what: str) -> None:
    if not ok:
        failures.append(what)


def test_criterion_01_preregularity_of_the_named_instances():
    failures: list[str] = []
    # the twist is sign·I; for eps_m the sign is that of an m-cycle
    cases = [
        ("alternating 3x3", EPS3, (-1) ** (3 - 1)),
        ("alternating 4x4", EPS4, (-1) ** (4 - 1)),
        ("diagonal n=2 m=3", make_orthogonal(2, 3), 1),
        ("diagonal n=3 m=3", make_orthogonal(3, 3), 1),
        ("antisymmetric 2x2", B, -1),
    ]
    for name, w, sign in cases:
        t0 = time.perf_counter()
        report = analyze(w)
        elapsed = time.perf_counter() - t0
        _check(failures, report.preregular, f"{name} not certified preregular")
        if report.q is None:
            failures.append(f"{name} has no twist")
        else:
            _check(
                failures,
                report.q == Matrix.identity(w.dim).scale(sign),
                f"{name} twist is not {'I' if sign == 1 else '-I'}",
            )
        _check(failures, elapsed < 1.0, f"{name} analysis took {elapsed:.2f}s")
    _verdict(1, failures)


def test_criterion_02_polar_members_are_exact():
    failures: list[str] = []
    rng = random.Random(SEED)
    corpus = [
        ("cyclic 2-dim", W2),
        ("alternating 3x3", EPS3),
        ("alternating 4x4", EPS4),
        ("diagonal n=2 m=3", make_orthogonal(2, 3)),
        ("diagonal n=3 m=3", make_orthogonal(3, 3)),
        ("antisymmetric 2x2", B),
    ]
    t0 = time.perf_counter()
    for name, w in corpus:
        sol = polar(w)
        if sol is None:
            failures.append(f"{name} has no polar solution")
            continue
        _check(failures, in_polar(sol.particular, w), f"{name} particular not a member")
        for k in range(3):
            if not sol.kernel_basis:
                break
            coeffs = [
                rat(rng.randrange(-3, 4), rng.choice([1, 2, 3]))
                for _ in sol.kernel_basis
            ]
            member = sol.member(coeffs)
            _check(
                failures,
                in_polar(member, w),
                f"{name} sampled member {k} fails the contraction",
            )
    # the alternating instances: the (-1)^(m-1)/(m-1)! scalings are members,
    # the 1/m scalings and, for even m, the +1/(m-1)! scalings are not
    _check(failures, in_polar(EPS3.scale(rat(1, 2)), EPS3), "(1/2)*eps3 not a member")
    _check(failures, not in_polar(EPS3.scale(rat(1, 3)), EPS3), "(1/3)*eps3 not flagged")
    _check(failures, in_polar(EPS4.scale(rat(-1, 6)), EPS4), "(-1/6)*eps4 not a member")
    _check(failures, not in_polar(EPS4.scale(rat(1, 6)), EPS4), "(1/6)*eps4 not flagged")
    _check(failures, not in_polar(EPS4.scale(rat(1, 4)), EPS4), "(1/4)*eps4 not flagged")
    elapsed = time.perf_counter() - t0
    _check(failures, elapsed < 1.0, f"polar corpus took {elapsed:.2f}s")
    _verdict(2, failures)


def test_criterion_03_inverse_identity_suite_two_polar_samples():
    failures: list[str] = []
    t0 = time.perf_counter()
    pres = build_hw(W2)
    system = system_for(pres, 6)
    sol = polar(W2)
    samples = [sol.particular, sol.member([1] + [0] * (len(sol.kernel_basis) - 1))]
    _check(failures, samples[0] != samples[1], "polar samples are not distinct")
    wanted = ("sinw", "su", "tsu", "Rsu", "Rus")
    verdicts = []
    for wt in samples:
        results = [
            r
            for r in derived_relations_suite(pres, wt, 6, system)
            if r.name.split("[")[0] in wanted
        ]
        _check(failures, len(results) == 24, f"expected 24 checks, got {len(results)}")
        _check(
            failures,
            all_pass(results),
            "failing checks: "
            + ", ".join(r.name for r in results if r.status is not Status.PASS),
        )
        verdicts.append([(r.name, r.status) for r in results])
    _check(failures, verdicts[0] == verdicts[1], "verdicts differ between samples")
    elapsed = time.perf_counter() - t0
    _check(failures, elapsed < 60.0, f"suite took {elapsed:.2f}s")
    _verdict(3, failures)


def test_criterion_04_hopf_axiom_suites():
    failures: list[str] = []
    t0 = time.perf_counter()

    hw2 = build_hw(W2)
    results = hopf_axiom_suite(hw2, 6, system_for(hw2, 6))
    _check(failures, all_pass(results), "axioms fail for the cyclic 2-dim instance")

    hb = build_hb(B)
    results = hopf_axiom_suite(hb, 4, system_for(hb, 4))
    _check(failures, all_pass(results), "axioms fail for the antisymmetric bilinear instance")

    bw2 = build_bw(W2)
    bw_system = system_for(bw2, 6)
    results = hopf_axiom_suite(bw2, 6, bw_system)
    results += check_left_inverse_identity(bw2, polar(W2).particular, bw_system)
    _check(failures, all_pass(results), "bialgebra axioms or left inverse fail")

    ah = build_ahmn(3, 2)
    results = hopf_axiom_suite(ah, 6, system_for(ah, 6))
    _check(failures, all_pass(results), "axioms fail for the power-sum presentation")

    elapsed = time.perf_counter() - t0
    _check(failures, elapsed < 120.0, f"axiom suites took {elapsed:.2f}s")
    _verdict(4, failures)


def test_criterion_05_exact_representation_with_distinct_witnesses():
    failures: list[str] = []
    t0 = time.perf_counter()
    pres = build_hw(EPS3)
    images = unitriangular_free_images(pres)
    wit_l = NcPoly.from_gens(pres.alphabet, [Generator("u", 1, 2), Generator("u", 1, 3)])
    wit_r = NcPoly.from_gens(pres.alphabet, [Generator("u", 1, 3), Generator("u", 1, 2)])
    rows = check_representation(pres, images)
    _check(
        failures,
        all_pass(rows),
        "failing relations: " + ", ".join(r.name for r in rows if r.status is not Status.PASS),
    )
    witness = tuple(substitute(w, images).to_str() for w in (wit_l, wit_r))
    _check(failures, witness == ("x*y", "y*x"), f"witness images are {witness}")
    elapsed = time.perf_counter() - t0
    _check(failures, elapsed < 1.0, f"representation check took {elapsed:.2f}s")
    _verdict(5, failures)


def test_criterion_06_diagonal_power_sum_identification():
    failures: list[str] = []
    t0 = time.perf_counter()
    results = diagonal_iso_suite(2, 3, 6)
    _check(
        failures,
        all_pass(results),
        "failing checks: "
        + ", ".join(r.name for r in results if r.status is not Status.PASS),
    )
    _check(
        failures,
        any(r.name.startswith("spow[") for r in results),
        "transposed-square identity not covered",
    )
    elapsed = time.perf_counter() - t0
    _check(failures, elapsed < 120.0, f"identification suite took {elapsed:.2f}s")
    _verdict(6, failures)


def test_criterion_07_bilinear_identification():
    failures: list[str] = []
    t0 = time.perf_counter()
    results = bilinear_iso_suite(B, 4)
    _check(
        failures,
        all_pass(results),
        "failing checks: "
        + ", ".join(r.name for r in results if r.status is not Status.PASS),
    )
    elapsed = time.perf_counter() - t0
    _check(failures, elapsed < 10.0, f"identification suite took {elapsed:.2f}s")
    _verdict(7, failures)


def test_criterion_08_manin_relations_certify_by_degree_eight():
    failures: list[str] = []
    t0 = time.perf_counter()
    certified_at = None
    for degree in (4, 5, 6, 7, 8):
        results = manin_suite(degree)
        if all_pass(results):
            certified_at = degree
            break
    _check(failures, certified_at is not None, "not certified through degree 8")
    elapsed = time.perf_counter() - t0
    _check(failures, elapsed < 480.0, f"took {elapsed:.2f}s")
    if certified_at is not None:
        print(f"(manin relations certified at degree {certified_at})")
    _verdict(8, failures)


def test_criterion_09_membership_agrees_with_the_span_oracle():
    failures: list[str] = []
    rng = random.Random(SEED)
    t0 = time.perf_counter()
    trials = 0
    while trials < 50:
        n_gens = rng.choice([2, 3, 3, 4])
        names = ["x", "y", "z", "w"][:n_gens]
        a = Alphabet([Generator.free(n) for n in names])
        chars = [a.char(g) for g in a.generators]
        degree = rng.choice([3, 4, 5])

        def rand_poly(max_len, min_len=1):
            terms = {}
            for _ in range(rng.randrange(1, 4)):
                word = "".join(
                    rng.choice(chars)
                    for _ in range(rng.randrange(min_len, max_len + 1))
                )
                c = rng.randrange(-2, 3)
                if c:
                    terms[word] = terms.get(word, 0) + c
            return NcPoly(a, terms)

        rels = [rand_poly(3) for _ in range(rng.randrange(1, 4))]
        rels = [r for r in rels if not r.is_zero()]
        if not rels:
            continue
        trials += 1
        system = complete(rels, degree)
        if unresolved_overlaps(system) != []:
            failures.append(f"trial {trials} not confluent at the bound")
            continue
        # determinism: a shuffled copy of the input completes identically
        shuffled = rels[:]
        rng.shuffle(shuffled)
        if complete(shuffled, degree) != system:
            failures.append(f"trial {trials} is schedule-dependent")
        oracle = SpanOracle(rels, degree)
        for k in range(20):
            p = rand_poly(degree, min_len=0)
            if ideal_member(p, system) != oracle.member(p):
                failures.append(f"trial {trials} disagrees on probe {k}: {p.to_str()}")
        for r in rels:
            if not (ideal_member(r, system) and oracle.member(r)):
                failures.append(f"trial {trials}: a defining relation is not a member")
        for rule in system.rules:
            rp = NcPoly.from_word(a, rule.lead) - rule.tail
            if not oracle.member(rp):
                failures.append(f"trial {trials}: a derived rule escapes the span")
    elapsed = time.perf_counter() - t0
    _check(failures, trials >= 50, f"only {trials} usable instances")
    _check(failures, elapsed < 300.0, f"took {elapsed:.2f}s")
    _verdict(9, failures)


def test_criterion_10_noninjectivity_semidecision_and_exit_codes(capsys):
    failures: list[str] = []
    probe = SUITES["noninjectivity"]
    for degree, expected in ((4, "noninjective certified"), (3, "inconclusive at degree 3")):
        rows = noninjectivity_probe(EPS3, WT3, degree)
        verdict = probe.verdict(rows, SuiteInputs(degree=degree))
        _check(failures, verdict == expected, f"unexpected verdict {verdict!r}")
        witness = {r.name: r.status for r in rows}.get("probe:witness-distinct")
        _check(failures, witness is Status.PASS, f"free-algebra witness {witness} at {degree}")

    # the command-line wiring: certified -> 0, inconclusive -> 2 (nonzero and
    # distinct from the refutation code 1)
    rc_ok = main(["verify", "--suite", "noninjectivity", "--degree", "4"])
    out_ok = capsys.readouterr().out
    rc_low = main(["verify", "--suite", "noninjectivity", "--degree", "3"])
    out_low = capsys.readouterr().out
    _check(failures, rc_ok == 0, f"certified run exited {rc_ok}")
    _check(
        failures,
        out_ok.strip().splitlines()[-1] == "verdict: noninjective certified",
        "certified verdict line missing",
    )
    _check(failures, rc_low == 2, f"inconclusive run exited {rc_low}")
    _check(failures, rc_low not in (0, 1), "inconclusive exit code must be distinct")
    _check(
        failures,
        out_low.strip().splitlines()[-1] == "verdict: inconclusive at degree 3",
        "inconclusive verdict line missing",
    )
    _check(
        failures,
        "probe:witness-distinct" in out_ok,
        "witness check not reported",
    )
    _verdict(10, failures)
