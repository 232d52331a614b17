import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from hopfw import cli
from hopfw.cli import __doc__ as CLI_DOC
from hopfw.cli import ANALYZE_MAX_ENTRIES, _build_parser, _exit_code, main
from hopfw.formats import (
    FormFileError,
    dump_form,
    dump_presentation,
    form_from_obj,
    form_to_obj,
    load_form,
    load_form_text,
    parse_presentation,
    parse_tensor,
)
from hopfw.forms import (
    MultilinearForm,
    make_bilinear,
    make_orthogonal,
    make_signature,
    polar,
)
from hopfw.hopf import (
    _ALGEBRAS,
    _AXIOM_EXTRAS,
    SUITES,
    CheckResult,
    Status,
    SuiteInputs,
    build_bw,
    build_hw,
    build_presentation,
    derived_relations_suite,
    pair_reduction_suite,
    refuse_unread,
    run_suite,
    system_for,
)
from hopfw.ncalg import Generator, NcPoly
from hopfw.exactnum import rat
from hopfw.rewrite import (
    NotCertifiedError,
    RewriteSystem,
    ideal_member,
    normal_form,
    unresolved_overlaps,
)

W2 = MultilinearForm(2, 3, {(1, 1, 2): 1, (1, 2, 1): 1, (2, 1, 1): 1})


@pytest.fixture()
def cyclic2(tmp_path):
    path = tmp_path / "cyclic2.json"
    assert main(["example", "cyclic2", "--out", str(path)]) == 0
    return str(path)


@pytest.fixture()
def sig3(tmp_path):
    path = tmp_path / "sig3.json"
    assert main(["example", "signature-3", "--out", str(path)]) == 0
    return str(path)


# ----------------------------------------------------------------- formats


def test_form_json_round_trip():
    for w in (W2, make_signature(3), W2.scale(rat(1, 2))):
        assert form_from_obj(form_to_obj(w)) == w
        assert load_form_text(dump_form(w)) == w
    assert dump_form(W2).endswith("\n")


def test_form_file_round_trip(tmp_path):
    from hopfw.formats import save_form

    path = tmp_path / "w.json"
    save_form(str(path), W2.scale(rat(-2, 3)))
    assert load_form(str(path)) == W2.scale(rat(-2, 3))


@pytest.mark.parametrize(
    "obj",
    [
        [1, 2],
        {"dim": 2, "arity": 3, "entries": [], "extra": 1},
        {"dim": 2, "arity": 3},
        {"dim": True, "arity": 3, "entries": []},
        {"dim": 2, "arity": "3", "entries": []},
        {"dim": 2, "arity": 3, "entries": {}},
        {"dim": 2, "arity": 3, "entries": [[1, 1, 2]]},
        {"dim": 2, "arity": 3, "entries": [{"idx": [1, 1, 2]}]},
        {"dim": 2, "arity": 3, "entries": [{"idx": (1,), "c": "1", "x": 0}]},
        {"dim": 2, "arity": 3, "entries": [{"idx": "112", "c": "1"}]},
        {"dim": 2, "arity": 3, "entries": [{"idx": [1, 1, True], "c": "1"}]},
        {"dim": 2, "arity": 3, "entries": [{"idx": [1, 1, 2], "c": 0.5}]},
        {"dim": 2, "arity": 3, "entries": [{"idx": [1, 1, 2], "c": True}]},
        {"dim": 2, "arity": 3, "entries": [{"idx": [1, 1, 2], "c": "1/0"}]},
        {"dim": 2, "arity": 3, "entries": [{"idx": [1, 1, 2], "c": "x"}]},
        {
            "dim": 2,
            "arity": 3,
            "entries": [
                {"idx": [1, 1, 2], "c": "1"},
                {"idx": [1, 1, 2], "c": "2"},
            ],
        },
        {"dim": 2, "arity": 3, "entries": [{"idx": [1, 1, 3], "c": "1"}]},
        {"dim": 2, "arity": 3, "entries": [{"idx": [1, 1], "c": "1"}]},
        {"dim": 2, "arity": 3, "entries": [{"idx": [1, 1, 2], "c": None}]},
        {"dim": 2, "arity": 3, "entries": [{"idx": [1, 1, 2], "c": [1]}]},
    ],
)
def test_form_from_obj_rejections(obj):
    with pytest.raises(FormFileError):
        form_from_obj(obj)


def _entries(*pairs):
    return {"dim": 2, "arity": 3, "entries": [{"idx": i, "c": c} for i, c in pairs]}


@pytest.mark.parametrize(
    "obj, message",
    [
        # the first bad entry is named, whichever of its index and
        # coefficient is bad, before any repeat, shape or range is read
        (_entries(([1, 1, 2], "x"), ([1, True, 2], "1")), "entry 0: not a rational literal: 'x'"),
        (
            _entries(([1, 1.0, 2], "1"), ([1, 1, 2], 0.5)),
            "entry 0: idx must be a list of integers",
        ),
        (
            _entries(([1, 1, 2], "1"), ([1, 1, 2], "1/0")),
            "entry 1: zero denominator in rational literal: '1/0'",
        ),
        # a repeat of an index is refused even with a zero coefficient, and
        # before the shape and the range
        (_entries(([1, 1], "1"), ([1, 1, 2], "0"), ([1, 1, 2], "2")), "duplicate index [1, 1, 2]"),
        ({**_entries(([1, 1, 2], "1"), ([1, 1, 2], "1")), "dim": 1}, "duplicate index [1, 1, 2]"),
        ({**_entries(([1, 1, 3], "1")), "dim": 1}, "dimension must be at least 2"),
        (_entries(([1, 1, 3], "0"), ([1, 1], "1")), "index (1, 1, 3) out of range 1..2"),
        (_entries(([1, 1], "1"), ([1, 1, 3], "1")), "index (1, 1) has length 2, expected 3"),
        (_entries(([0, 1, 2], "-1")), "index (0, 1, 2) out of range 1..2"),
        (_entries(([1, 1, 2], "--1")), "entry 0: not a rational literal: '--1'"),
        (_entries(([1, 1, 2], "-")), "entry 0: not a rational literal: '-'"),
        (_entries(([1, 1, 2], "1_0")), "entry 0: not a rational literal: '1_0'"),
    ],
)
def test_form_from_obj_messages(obj, message):
    with pytest.raises(FormFileError) as info:
        form_from_obj(obj)
    assert str(info.value) == message


def test_form_coefficient_spellings():
    # an integer string, signed, spaced or in other decimal digits, reads as
    # its int; a zero coefficient is dropped
    obj = _entries(
        ([1, 1, 2], "-12345678901234567890123"),
        ([1, 2, 1], " +7 "),
        ([2, 1, 1], "\u0663"),
        ([2, 2, 1], "-0"),
        ([1, 2, 2], "-6/4"),
    )
    assert form_from_obj(obj) == MultilinearForm(
        2,
        3,
        {(1, 1, 2): -12345678901234567890123, (1, 2, 1): 7, (2, 1, 1): 3, (1, 2, 2): rat(-3, 2)},
    )


def test_form_coefficient_is_an_integer_or_a_rational_string():
    text = '{"dim": 2, "arity": 3, "entries": [{"idx": [1, 1, 2], "c": %s}]}'
    assert load_form_text(text % "2") == load_form_text(text % '"2"')
    assert load_form_text(text % "2") == MultilinearForm(2, 3, {(1, 1, 2): rat(2)})
    with pytest.raises(FormFileError, match="coefficient must be"):
        load_form_text(text % "true")


def test_load_form_text_reports_json_position():
    with pytest.raises(FormFileError, match="line 1 column"):
        load_form_text("{ this is not json")


def test_parse_tensor_round_trip():
    pres = build_hw(W2)
    for g in pres.generators:
        t = pres.structure.delta[g]
        assert parse_tensor(pres.alphabet, t.to_str()) == t
    assert parse_tensor(pres.alphabet, "0").is_zero()
    # scalar factors multiply through on either leg
    t = parse_tensor(pres.alphabet, "2*u[1,1]#3*u[2,2] - u[1,2]#u[2,1]")
    A = pres.alphabet
    w = lambda fam, i, j: A.word([Generator(fam, i, j)])
    assert t.terms[(w("u", 1, 1), w("u", 2, 2))] == 6
    assert t.terms[(w("u", 1, 2), w("u", 2, 1))] == -1
    assert parse_tensor(A, "2*u[1,1]#3*u[2,2]").terms == {(w("u", 1, 1), w("u", 2, 2)): 6}
    # a zero coefficient on a term or a leg reads as a zero term
    zeros = parse_tensor(A, "0*u[1,1]#u[2,2] + u[1,1]#0 - u[1,2]#u[2,1]")
    assert zeros.terms == {(w("u", 1, 2), w("u", 2, 1)): -1}


@pytest.mark.parametrize(
    "text, message",
    [
        ("u[1,1]#u[1,1] +", "dangling sign at the end"),
        (
            "u[1,1]#u[1,1] * u[2,2]#u[2,2]",
            "tensor term needs exactly one #: 'u[1,1]#u[1,1] * u[2,2]#u[2,2]'",
        ),
        ("u[1,1]", "tensor term needs exactly one #: 'u[1,1]'"),
        ("u[1,1]#u[1,1]#u[2,2]", "tensor term needs exactly one #: 'u[1,1]#u[1,1]#u[2,2]'"),
        ("(u[1,1]+u[1,2])#u[2,2]", "tensor term needs exactly one #: '(u[1,1]'"),
        # a leg is a monomial, with no sign of its own
        ("u[1,1]#-u[2,2]", "not a generator token: ''"),
        ("u[1,1]+u[1,1]#u[2,2]", "tensor term needs exactly one #: 'u[1,1]'"),
    ],
)
def test_parse_tensor_rejections(text, message):
    pres = build_hw(W2)
    with pytest.raises(ValueError) as exc:
        parse_tensor(pres.alphabet, text)
    assert str(exc.value) == message


def test_presentation_dump_parse_round_trip():
    for pres in (build_hw(W2), build_bw(W2)):
        back = parse_presentation(dump_presentation(pres))
        assert back.kind == pres.kind
        assert (back.n, back.m) == (pres.n, pres.m)
        assert back.generators == pres.generators
        assert back.relation_labels == pres.relation_labels
        assert back.relations == pres.relations
        assert back.structure.delta == pres.structure.delta
        assert back.structure.counit == pres.structure.counit
        assert back.structure.antipode == pres.structure.antipode
        assert back.provenance is None


_HW = "algebra hw\nn 1\nm 2\n"
_DELTA_COUNIT = (
    "delta u[1,1] -> u[1,1]#u[1,1]\ndelta u[1,2] -> u[1,2]#u[1,2]\n"
    "counit u[1,1] -> 1\ncounit u[1,2] -> 1\n"
)


@pytest.mark.parametrize(
    "text, message",
    [
        ("bogus 1", "unknown line type"),
        ("relation r: u[1,1]", "generators line must precede"),
        ("algebra zz", "unknown algebra kind"),
        ("generators u[1,1]\nrelation u[1,1] - 1", "needs 'label"),
        ("generators u[1,1]\ndelta u[1,1] u[1,1]#u[1,1]", "needs 'generator"),
        ("generators u[1,1]\ncounit u[1,1] -> x", "line 2"),
        ("algebra hw\nn 2\nm 3", "needs algebra, n, m and generators"),
        ("generators u[1,1]\ngenerators u[1,2]", "line 2: second generators line"),
        ("generators u[1,1]\ncounit u[1,2] -> 1", "counit of u\\[1,2\\], which is not a generator"),
        ("generators u[1,1]\nantipode x -> u[1,1]", "antipode of x, which is not a generator"),
        # structure maps that miss a generator
        (_HW + "generators u[1,1] u[1,2]\ncounit u[1,1] -> 1", "structure needs"),
        (_HW + "generators u[1,1]\ndelta u[1,1] -> u[1,1]#u[1,1]", "structure needs"),
        (_HW + "generators u[1,1]\nantipode u[1,1] -> u[1,1]", "structure needs"),
        (
            _HW + "generators u[1,1] u[1,2]\n" + _DELTA_COUNIT + "antipode u[1,1] -> u[1,1]",
            "structure needs",
        ),
        # every header field stands once
        ("algebra hw\nn 1\nm 2\nn 4\ngenerators u[1,1]", "line 4: second n line"),
        ("algebra hw\nalgebra bw", "line 2: second algebra line"),
        (_HW + "m 2", "line 4: second m line"),
        # each generator is named once
        (_HW + "generators x y x", "line 4: generators line names x twice"),
        # each structure map gives one image per generator
        (
            _HW + "generators u[1,1] u[1,2]\n" + _DELTA_COUNIT + "delta u[1,2] -> 1#u[1,2]",
            "line 9: second delta line for u\\[1,2\\]",
        ),
        (_HW + "generators x\ncounit x -> 1\ncounit x -> 2", "line 6: second counit line for x"),
        (
            _HW + "generators x\nantipode x -> x\nantipode x -> -x",
            "line 6: second antipode line for x",
        ),
        # n and m are at least 1
        ("algebra hw\nn 0\nm -2\ngenerators u[1,1]", "n 0 and m -2 must be at least 1"),
        ("algebra hw\nn 1\nm 0\ngenerators u[1,1]", "n 1 and m 0 must be at least 1"),
        # each matric family is whole at n
        (
            "algebra bw\nn 2\nm 3\ngenerators u[1,1] u[1,2] u[2,1] x",
            "generator u\\[2,2\\] is missing from the 2x2 u family",
        ),
    ],
)
def test_parse_presentation_rejections(text, message, tmp_path, capsys):
    with pytest.raises(ValueError, match=message):
        parse_presentation(text)
    # hopfw gb refuses the same dump as a usage error
    path = tmp_path / "pres.txt"
    path.write_text(text)
    assert main(["gb", str(path), "--degree", "3"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and re.search(message, err)


@pytest.mark.parametrize(
    "n, message",
    [
        # n 1 would run the antipode checks on the 1x1 corner only
        (1, "generator u\\[1,2\\] is outside the 1x1 u family"),
        (3, "generator u\\[1,3\\] is missing from the 3x3 u family"),
    ],
)
def test_parse_presentation_refuses_a_wrong_n_header(n, message):
    text = dump_presentation(build_hw(W2))
    assert parse_presentation(text).n == 2
    with pytest.raises(ValueError, match=message):
        parse_presentation(text.replace("\nn 2\n", f"\nn {n}\n"))


# --------------------------------------------------------------------- CLI


def test_example_round_trips(tmp_path):
    expected = {
        "cyclic2": W2,
        "signature-3": make_signature(3),
        "orthogonal-2-3": make_orthogonal(2, 3),
        "symplectic2": make_bilinear([[0, 1], [-1, 0]]),
    }
    for name, w in expected.items():
        path = tmp_path / f"{name}.json"
        assert main(["example", name, "--out", str(path)]) == 0
        assert load_form(str(path)) == w
        # the file is well-formed JSON ending in a newline
        text = path.read_text()
        assert text.endswith("\n") and json.loads(text)["entries"]


def test_example_to_stdout(capsys):
    assert main(["example", "cyclic2"]) == 0
    assert load_form_text(capsys.readouterr().out) == W2


def test_example_unknown_name(capsys):
    assert main(["example", "dodecahedral"]) == 3
    assert "unknown example" in capsys.readouterr().err


def test_analyze_preregular_form(cyclic2, capsys):
    assert main(["analyze", cyclic2]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "dim: 2",
        "arity: 3",
        "one_site_nondegenerate: true",
        "all_slots_nondegenerate: true",
        "twist: [[1, 0], [0, 1]]",
        "twist_invertible: true",
        "preregular: true",
        "polar_affine_dimension: 4",
        "self_scale[1/2]: mismatch",
        "self_scale[1/3]: mismatch",
    ]


def test_analyze_alternating_form(sig3, capsys):
    assert main(["analyze", sig3]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "polar_affine_dimension: 18" in out
    # the polar members of the alternating form are the (m-1)!-divided copies
    assert "self_scale[1/2]: member" in out
    assert "self_scale[1/3]: mismatch" in out


def test_analyze_signature_6(tmp_path, capsys):
    path = tmp_path / "sig6.json"
    assert main(["example", "signature-6", "--out", str(path)]) == 0
    assert main(["analyze", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "twist_invertible: true" in out
    assert "polar_affine_dimension: 46620" in out


def test_analyze_refuses_a_form_whose_flattenings_hold_too_many_entries(
    tmp_path, capsys, monkeypatch
):
    # signature-7 would hold 7 * 7^7 entries in its flattenings; signature-6
    # (6 * 6^6 = 279 936) is analysed above
    path = tmp_path / "sig7.json"
    assert main(["example", "signature-7", "--out", str(path)]) == 0
    capsys.readouterr()

    def build(w):
        raise AssertionError("a flattening was built")

    # the refusal comes before any flattening is built
    monkeypatch.setattr(cli, "_analyze_every_slot", build)
    assert main(["analyze", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "hopfw: error: the 7 flattenings of a form of dim 7 and arity 7 would hold"
        " 5764801 entries, above the bound of 1000000\n"
    )
    assert 6 * 6**6 <= ANALYZE_MAX_ENTRIES < 7 * 7**7


def test_analyze_degenerate_form(tmp_path, capsys):
    path = tmp_path / "degen.json"
    path.write_text(dump_form(MultilinearForm(2, 3, {(1, 1, 1): 1})))
    assert main(["analyze", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "dim: 2",
        "arity: 3",
        "one_site_nondegenerate: false",
        "all_slots_nondegenerate: false",
        "twist: ambiguous",
        "preregular: false",
        "polar_affine_dimension: none",
    ]


def test_analyze_form_with_no_twist(tmp_path, capsys):
    # one-site degenerate, and the twisted-cyclicity system has no solution
    path = tmp_path / "w112.json"
    path.write_text(dump_form(MultilinearForm(2, 3, {(1, 1, 2): 1})))
    assert main(["analyze", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[2:] == [
        "one_site_nondegenerate: false",
        "all_slots_nondegenerate: false",
        "twist: none",
        "preregular: false",
        "polar_affine_dimension: none",
    ]


def test_analyze_missing_file(capsys):
    assert main(["analyze", "no-such-file.json"]) == 3
    assert capsys.readouterr().err.startswith("hopfw: error:")


def test_analyze_bad_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{ nope")
    assert main(["analyze", str(path)]) == 3
    assert "line 1" in capsys.readouterr().err


def test_present_round_trip_and_determinism(cyclic2, tmp_path, capsys):
    out1 = tmp_path / "hw1.txt"
    out2 = tmp_path / "hw2.txt"
    assert main(["present", "--algebra", "hw", "--form", cyclic2, "--out", str(out1)]) == 0
    assert main(["present", "--algebra", "hw", "--form", cyclic2, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    pres = parse_presentation(out1.read_text())
    ref = build_hw(W2)
    assert pres.kind == "hw"
    assert pres.relations == ref.relations
    assert pres.structure.antipode == ref.structure.antipode
    # stdout when --out is omitted
    assert main(["present", "--algebra", "hw", "--form", cyclic2]) == 0
    assert capsys.readouterr().out == out1.read_text()


def test_present_usage_errors(cyclic2, capsys):
    assert main(["present", "--algebra", "ahmn"]) == 3
    assert "needs --m and --n" in capsys.readouterr().err
    assert main(["present", "--algebra", "hw"]) == 3
    assert "needs --form" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["--algebra", "hw", "--form", "FORM", "--polar", "MISSING", "--m", "7"],
            "--algebra hw does not read --polar",
        ),
        (
            ["--algebra", "ahmn", "--m", "3", "--n", "2", "--form", "MISSING"],
            "--algebra ahmn does not read a form file",
        ),
        (
            ["--algebra", "bw", "--form", "FORM", "--polar", "FORM"],
            "--algebra bw does not read --polar",
        ),
    ],
)
def test_present_refuses_flags_its_algebra_does_not_read(
    cyclic2, tmp_path, capsys, argv, message
):
    # as given, the unread flag is refused before its missing file is opened
    missing = str(tmp_path / "nonexistent.json")
    given = [cyclic2 if a == "FORM" else missing if a == "MISSING" else a for a in argv]
    assert main(["present", *given]) == 3
    out, err = capsys.readouterr()
    assert out == "" and message in err
    # with every file present, the unread flag itself is refused
    given = [cyclic2 if a in ("FORM", "MISSING") else a for a in argv]
    assert main(["present", *given]) == 3
    out, err = capsys.readouterr()
    assert out == "" and message in err


@pytest.fixture(params=["missing", "malformed"])
def unreadable(request, tmp_path):
    """A form file that cannot be loaded: absent, or not a form."""
    path = tmp_path / "form.json"
    if request.param == "malformed":
        path.write_text("{not json")
    return str(path)


def test_present_refuses_unread_flags_before_opening_files(unreadable, capsys):
    argv = ["present", "--algebra", "ahmn", "--m", "3", "--n", "2", "--form", unreadable]
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == "hopfw: error: --algebra ahmn does not read a form file\n"


def test_present_power_sum_and_single_matrix(sig3, tmp_path, capsys):
    assert main(["present", "--algebra", "ahmn", "--m", "3", "--n", "2"]) == 0
    pres = parse_presentation(capsys.readouterr().out)
    assert pres.kind == "ahmn" and len(pres.relations) == 12
    # hww defaults to the canonical polar member of the form
    out = tmp_path / "hww.txt"
    assert main(["present", "--algebra", "hww", "--form", sig3, "--out", str(out)]) == 0
    pres = parse_presentation(out.read_text())
    assert pres.kind == "hww" and len(pres.relations) == 54


def test_gb_nf_pipeline(cyclic2, tmp_path, capsys):
    pres = tmp_path / "hw.txt"
    system1 = tmp_path / "sys1.txt"
    system2 = tmp_path / "sys2.txt"
    assert main(["present", "--algebra", "hw", "--form", cyclic2, "--out", str(pres)]) == 0
    assert main(["gb", str(pres), "--degree", "4", "--out", str(system1)]) == 0
    err = capsys.readouterr().err
    assert err.splitlines()[0] == "degree 2: 0 rules"
    assert err.splitlines()[-1] == "degree 4: 15 rules"
    assert main(["gb", str(pres), "--degree", "4", "--out", str(system2)]) == 0
    assert system1.read_bytes() == system2.read_bytes()
    head = system1.read_text().splitlines()[:3]
    assert head == ["system", "degree 4", "complete_through 4"]

    # the defining relation reduces to zero
    assert main(
        ["nf", str(system1), "--poly", "u[1,1]*s[1,1] + u[1,2]*s[2,1] - 1"]
    ) == 0
    assert capsys.readouterr().out == "0\n"
    # a plain generator is already in normal form
    assert main(["nf", str(system1), "--poly", "u[1,1]"]) == 0
    assert capsys.readouterr().out == "u[1,1]\n"


def test_nf_above_bound_is_uncertified(cyclic2, tmp_path, capsys):
    pres = tmp_path / "hw.txt"
    system = tmp_path / "sys.txt"
    main(["present", "--algebra", "hw", "--form", cyclic2, "--out", str(pres)])
    main(["gb", str(pres), "--degree", "4", "--out", str(system)])
    capsys.readouterr()
    rc = main(["nf", str(system), "--poly", "u[1,1]*u[1,1]*u[1,1]*u[1,1]*u[1,1]"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("uncertified: degree 5 exceeds")


def test_nf_above_complete_through_is_uncertified(cyclic2, tmp_path, capsys):
    # a dump may state a degree above complete_through, where overlaps stay
    # unresolved: normal_form, and so nf, certifies only through complete_through
    pres = tmp_path / "hw.txt"
    system = tmp_path / "sys.txt"
    main(["present", "--algebra", "hw", "--form", cyclic2, "--out", str(pres)])
    main(["gb", str(pres), "--degree", "4", "--out", str(system)])
    system.write_text(system.read_text().replace("degree 4\n", "degree 6\n", 1))
    loose = RewriteSystem.parse(system.read_text())
    assert (loose.degree_bound, loose.complete_through) == (6, 4)
    # the S-polynomial of the first unresolved overlap lies in the ideal
    l1, l2, word = unresolved_overlaps(loose)[0]
    a, tails = loose.alphabet, {r.lead: r.tail for r in loose.rules}
    left = tails[l1] * NcPoly.from_word(a, word[len(l1):])
    spoly = left - NcPoly.from_word(a, word[: -len(l2)]) * tails[l2]
    assert spoly.degree() == 5
    with pytest.raises(NotCertifiedError):
        normal_form(spoly, loose)
    assert normal_form(spoly, system_for(build_hw(W2), 6)).is_zero()
    with pytest.raises(NotCertifiedError):
        ideal_member(spoly, loose)
    capsys.readouterr()
    assert main(["nf", str(system), "--poly", spoly.to_str()]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "uncertified: degree 5 exceeds the certified bound 4; "
        "verdict not certified at this truncation\n"
    )


def test_nf_unknown_generator(cyclic2, tmp_path, capsys):
    pres = tmp_path / "hw.txt"
    system = tmp_path / "sys.txt"
    main(["present", "--algebra", "hw", "--form", cyclic2, "--out", str(pres)])
    main(["gb", str(pres), "--degree", "3", "--out", str(system)])
    capsys.readouterr()
    assert main(["nf", str(system), "--poly", "q[1,1]"]) == 3


@pytest.mark.parametrize(
    "rule, poly, message",
    [
        ("rule u[1,1] -> u[1,1]*u[1,2]", "u[1,1]", "not below its lead"),
        ("rule u[1,2] -> u[1,2]", "u[1,2]", "not below its lead"),
        ("rule u[1,2] -> u[1,1]\nrule u[1,2] -> 1", "u[1,2]", "two rules"),
        ("rule u[1,2] -> u[1,1]\ngenerators u[1,2]", "u[1,2]*u[1,2]", "second generators"),
        ("rule u[1,2] -> u[1,1]\ndegree 5", "u[1,2]", "line 6: second degree line"),
        ("complete_through 2", "u[1,2]", "line 5: second complete_through line"),
        ("system", "u[1,2]", "line 5: second system line"),
        ("rule u[1,2]*u[1,2]*u[1,2]*u[1,2]*u[1,2] -> u[1,1]", "u[1,2]", "longer than degree 4"),
    ],
)
def test_nf_refuses_a_system_that_would_not_terminate(tmp_path, rule, poly, message):
    path = tmp_path / "sys.txt"
    path.write_text(
        f"system\ndegree 4\ncomplete_through 4\ngenerators u[1,1] u[1,2]\n{rule}\n"
    )
    # in a child with a time limit: a gate that let such a rule through
    # would make this reduction run for ever, which must fail, not hang
    path_dirs = [str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path_dirs)))
    argv = [sys.executable, "-m", "hopfw.cli", "nf", str(path), "--poly", poly]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 3
    assert proc.stderr.startswith("hopfw: error:") and message in proc.stderr


def test_gb_rejects_nonpositive_degree(cyclic2, tmp_path, capsys):
    pres = tmp_path / "hw.txt"
    main(["present", "--algebra", "hw", "--form", cyclic2, "--out", str(pres)])
    capsys.readouterr()
    assert main(["gb", str(pres), "--degree", "0"]) == 3
    assert "--degree must be positive" in capsys.readouterr().err


def test_degree_env_override(cyclic2, tmp_path, monkeypatch):
    pres = tmp_path / "hw.txt"
    main(["present", "--algebra", "hw", "--form", cyclic2, "--out", str(pres)])
    # no environment variable overrides the default, twice the arity
    monkeypatch.setenv("HOPFW_DEFAULT_DEGREE", "3")
    out = tmp_path / "sys.txt"
    assert main(["gb", str(pres), "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1] == "degree 6"
    assert main(["gb", str(pres), "--degree", "4", "--out", str(out)]) == 0
    assert "degree 4" in out.read_text().splitlines()[1]


def test_verify_axioms_bilinear(tmp_path, capsys):
    path = tmp_path / "b.json"
    main(["example", "symplectic2", "--out", str(path)])
    capsys.readouterr()
    rc = main(["verify", "--suite", "axioms", str(path), "--algebra", "hb", "--degree", "4"])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "PASS counit:bst[1,1]"
    assert out[-1] == "summary: 32 pass, 0 fail, 0 uncertified"


def test_verify_axioms_uncertified_exit_code(capsys):
    rc = main(
        ["verify", "--suite", "axioms", "--algebra", "ahmn",
         "--m", "3", "--n", "2", "--degree", "3"]
    )
    assert rc == 2
    out = capsys.readouterr().out
    assert "UNCERTIFIED antipode-ideal:rowzero[1,1,2] (needs degree 4, certified 3)" in out
    assert out.strip().splitlines()[-1] == "summary: 32 pass, 0 fail, 12 uncertified"


def test_verify_axioms_form_presentation_appends_left_inverse(cyclic2, tmp_path, capsys):
    rc = main(["verify", "--suite", "axioms", cyclic2, "--algebra", "bw", "--degree", "4"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS leftinv[2,2]" in out
    assert out.strip().splitlines()[-1] == "summary: 20 pass, 0 fail, 0 uncertified"
    # bw's axioms read --polar; the canonical member given prints the same rows
    wt = tmp_path / "polar.json"
    wt.write_text(dump_form(polar(load_form(cyclic2)).particular))
    argv = ["verify", "--suite", "axioms", cyclic2, "--algebra", "bw", "--polar", str(wt)]
    assert main([*argv, "--degree", "4"]) == 0
    assert capsys.readouterr().out == out


def test_verify_derived_uses_two_polar_samples(cyclic2, capsys):
    rc = main(["verify", "--suite", "derived", cyclic2, "--degree", "4"])
    assert rc == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "PASS sample1:sinw[1,1,1]"
    assert any(l.startswith("PASS sample2:") for l in lines)
    assert lines[-1] == "summary: 64 pass, 0 fail, 0 uncertified"


@pytest.mark.parametrize("degree, code", [(3, 1), (4, 0)])
def test_verify_derived_on_a_given_polar_member(cyclic2, tmp_path, capsys, degree, code):
    w = load_form(cyclic2)
    sol = polar(w)
    # one kernel step away from the canonical member, which is the default
    wt = sol.member([1] + [0] * (len(sol.kernel_basis) - 1))
    path = tmp_path / "polar.json"
    path.write_text(dump_form(wt))
    argv = ["verify", "--suite", "derived", cyclic2, "--polar", str(path)]
    assert main([*argv, "--degree", str(degree)]) == code
    rows = capsys.readouterr().out.splitlines()[:-1]
    expected = derived_relations_suite(build_hw(w), wt, degree)
    assert rows == [
        f"{r.status.value} sample1:{r.name}" + (f" ({r.detail})" if r.detail else "")
        for r in expected
    ]


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 2: a nonzero normal form at D=3 prints FAIL without a refuter",
)
def test_verify_axioms_below_the_degree_they_need_is_uncertified(cyclic2):
    # all 64 rows pass at D=4; at D=3 16 nonzero normal forms print FAIL
    assert main(["verify", "--suite", "axioms", cyclic2, "--degree", "3"]) == 2


def test_verify_pair_reduction(cyclic2, capsys):
    rc = main(["verify", "--suite", "pair-reduction", cyclic2, "--degree", "4"])
    assert rc == 0
    assert (
        capsys.readouterr().out.strip().splitlines()[-1]
        == "summary: 8 pass, 0 fail, 0 uncertified"
    )


def test_verify_manin(capsys):
    rc = main(["verify", "--suite", "manin", "--degree", "4"])
    assert rc == 0
    assert (
        capsys.readouterr().out.strip().splitlines()[-1]
        == "summary: 27 pass, 0 fail, 0 uncertified"
    )


def test_verify_manin_rejects_other_forms(cyclic2, capsys):
    assert main(["verify", "--suite", "manin", cyclic2, "--degree", "4"]) == 3
    assert "alternating" in capsys.readouterr().err


def test_verify_diagonal_iso_defaults(capsys):
    rc = main(["verify", "--suite", "diagonal-iso", "--degree", "4"])
    assert rc == 0
    assert (
        capsys.readouterr().out.strip().splitlines()[-1]
        == "summary: 32 pass, 0 fail, 0 uncertified"
    )


def test_verify_bilinear_iso(tmp_path, capsys):
    path = tmp_path / "b.json"
    main(["example", "symplectic2", "--out", str(path)])
    capsys.readouterr()
    rc = main(["verify", "--suite", "bilinear-iso", str(path), "--degree", "4"])
    assert rc == 0
    assert (
        capsys.readouterr().out.strip().splitlines()[-1]
        == "summary: 24 pass, 0 fail, 0 uncertified"
    )


def test_verify_bilinear_iso_needs_arity_two(cyclic2, capsys):
    assert main(["verify", "--suite", "bilinear-iso", cyclic2, "--degree", "4"]) == 3
    assert "arity-2" in capsys.readouterr().err


def test_verify_noninjectivity_exit_codes(capsys):
    rc = main(["verify", "--suite", "noninjectivity", "--degree", "4"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.strip().splitlines()[-1] == "verdict: noninjective certified"
    rc = main(["verify", "--suite", "noninjectivity", "--degree", "3"])
    out = capsys.readouterr().out
    assert rc == 2
    assert out.strip().splitlines()[-1] == "verdict: inconclusive at degree 3"


def test_verify_requires_form_when_no_fallback(capsys):
    assert main(["verify", "--suite", "derived"]) == 3
    assert "needs a form file" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["--suite", "diagonal-iso", "FORM"], "a form file"),
        (["--suite", "derived", "FORM", "--algebra", "bw"], "--algebra"),
        (["--suite", "manin", "--polar", "FORM"], "--polar"),
        (["--suite", "pair-reduction", "FORM", "--m", "3"], "--m"),
        (["--suite", "bilinear-iso", "FORM", "--n", "2"], "--n"),
    ],
)
def test_verify_refuses_flags_the_suite_does_not_read(cyclic2, capsys, argv, flag):
    argv = [cyclic2 if a == "FORM" else a for a in argv]
    assert main(["verify", *argv, "--degree", "4"]) == 3
    err = capsys.readouterr().err
    assert f"suite {argv[1]!r} does not read {flag}" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["FORM", "--algebra", "hw", "--m", "3"], "--algebra hw does not read --m"),
        (["FORM", "--algebra", "hb", "--polar", "FORM"], "--algebra hb does not read --polar"),
        (
            ["FORM", "--algebra", "ahmn", "--m", "3", "--n", "2"],
            "--algebra ahmn does not read a form",
        ),
        (["--polar", "FORM"], "--algebra hw does not read --polar"),
    ],
)
def test_verify_axioms_refuses_flags_its_algebra_does_not_read(cyclic2, capsys, argv, message):
    argv = [cyclic2 if a == "FORM" else a for a in argv]
    assert main(["verify", "--suite", "axioms", *argv, "--degree", "4"]) == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--suite", "diagonal-iso", "FILE"], "suite 'diagonal-iso' does not read a form file"),
        (["--suite", "manin", "--polar", "FILE"], "suite 'manin' does not read --polar"),
        (
            ["--suite", "axioms", "FILE", "--algebra", "ahmn", "--m", "3", "--n", "2"],
            "--algebra ahmn does not read a form file",
        ),
        (["--suite", "axioms", "FILE", "--polar", "FILE"], "--algebra hw does not read --polar"),
    ],
)
def test_verify_refuses_unread_flags_before_opening_files(unreadable, capsys, argv, message):
    argv = [unreadable if a == "FILE" else a for a in argv]
    assert main(["verify", *argv]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == f"hopfw: error: {message}\n"


def test_run_suite_is_the_table_behind_verify():
    inputs = SuiteInputs(form=W2, degree=4)
    assert run_suite("pair-reduction", inputs) == pair_reduction_suite(build_hw(W2), 4)
    with pytest.raises(ValueError, match="does not read --polar"):
        run_suite("pair-reduction", SuiteInputs(form=W2, polar=W2))
    # the axioms suite refuses an unread input when called directly, too
    with pytest.raises(ValueError, match="--algebra hw does not read --m"):
        SUITES["axioms"].run(SuiteInputs(form=W2, m=3, degree=4))


def test_suite_lists_in_docs_follow_the_table():
    assert "Suites: " + ", ".join(SUITES) + "." in " ".join(CLI_DOC.split())
    readme = Path(__file__).resolve().parent.parent / "README.md"
    lines = readme.read_text(encoding="utf-8").splitlines()
    start = next(i for i, ln in enumerate(lines) if ln.startswith("| suite "))
    rows = {}
    for ln in lines[start + 2 :]:
        if not ln.startswith("|"):
            break
        name, reads = (cell.strip() for cell in ln.split("|")[1:3])
        rows[name.strip("`")] = frozenset(reads.split(", "))
    assert list(rows) == list(SUITES)
    assert rows == {name: suite.reads for name, suite in SUITES.items()}


def _algebra_choices(command: str) -> list[str]:
    """The ``--algebra`` choices of one subcommand."""
    actions = _build_parser()._actions
    commands = next(a for a in actions if isinstance(a, argparse._SubParsersAction))
    flags = commands.choices[command]._actions
    return next(list(a.choices) for a in flags if a.dest == "algebra")


def test_every_reader_follows_the_algebra_table(monkeypatch):
    kinds = list(_ALGEBRAS)
    assert _algebra_choices("present") == _algebra_choices("verify") == kinds
    assert SUITES["axioms"].reads == {"algebra"}.union(*(r for r, _ in _ALGEBRAS.values()))
    for kind in kinds:
        assert parse_presentation(f"algebra {kind}\nn 1\nm 2\ngenerators x").kind == kind
    with pytest.raises(KeyError):
        build_presentation("ahmn", W2)
    # a kind taken out of the table is gone from every reader
    monkeypatch.delitem(_ALGEBRAS, "hb")
    assert "hb" not in _algebra_choices("present") + _algebra_choices("verify")
    with pytest.raises(ValueError, match="line 1: unknown algebra kind 'hb'"):
        parse_presentation("algebra hb\nn 1\nm 2\ngenerators x")
    with pytest.raises(ValueError, match="unknown algebra kind 'hb'"):
        refuse_unread(SuiteInputs(form="b.json", algebra="hb"))
    with pytest.raises(KeyError):
        build_presentation("hb", make_bilinear([[0, 1], [-1, 0]]))


def test_axiom_extras_follow_their_table_entry(monkeypatch):
    given = SuiteInputs(form="w.json", algebra="bw", polar="wt.json")
    refuse_unread(given, "axioms")
    inputs = SuiteInputs(form=W2, algebra="bw", degree=4)
    names = [r.name for r in run_suite("axioms", inputs)]
    assert "leftinv[1,1]" in names
    # with bw's entry taken out, its axioms neither read --polar nor check leftinv
    monkeypatch.delitem(_AXIOM_EXTRAS, "bw")
    with pytest.raises(ValueError, match="--algebra bw does not read --polar"):
        refuse_unread(given, "axioms")
    rows = [r.name for r in run_suite("axioms", inputs)]
    assert rows == [name for name in names if not name.startswith("leftinv")]


def test_argparse_errors_exit_with_usage_code():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "bogus"])
    assert exc.value.code == 3
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 3
    with pytest.raises(SystemExit) as exc:
        main(["analyze"])
    assert exc.value.code == 3


def test_exit_code_ranking():
    ok = CheckResult("a", Status.PASS)
    bad = CheckResult("b", Status.FAIL)
    maybe = CheckResult("c", Status.UNCERTIFIED)
    assert _exit_code([]) == 0
    assert _exit_code([ok]) == 0
    assert _exit_code([ok, maybe]) == 2
    # a refutation outranks an uncertified check
    assert _exit_code([ok, maybe, bad]) == 1


def test_parse_poly_error_becomes_usage_exit(cyclic2, tmp_path, capsys):
    # a malformed presentation file is a usage error, not a crash
    bad = tmp_path / "bad.txt"
    bad.write_text("algebra hw\nn 2\nm 3\nbogus line\n")
    assert main(["gb", str(bad), "--degree", "3"]) == 3
    assert "hopfw: error:" in capsys.readouterr().err
