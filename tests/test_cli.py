import argparse
import hashlib
import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from hopfw import cli, forms, hopf
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
    SUITES,
    CheckResult,
    Status,
    SuiteInputs,
    build_bw,
    build_hw,
    build_algebra,
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
from test_golden import GOLDEN

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
        assert back.form is None


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


@pytest.mark.parametrize(
    "name, builder, entries",
    [
        ("signature-9", "make_signature", "9!"),
        ("signature-10", "make_signature", "10!"),
        ("signature-1000000000", "make_signature", "1000000000!"),
        ("orthogonal-100001-2", "make_orthogonal", "100001"),
    ],
)
def test_example_refuses_an_example_of_too_many_entries(
    name, builder, entries, tmp_path, capsys, monkeypatch
):
    def build(*args):
        raise AssertionError("the example was built")

    # the refusal comes before any entry is enumerated
    monkeypatch.setattr(cli, builder, build)
    path = tmp_path / "big.json"
    assert main(["example", name, "--out", str(path)]) == 3
    assert not path.exists()
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        f"hopfw: error: example {name} would hold {entries} entries,"
        f" above the bound of {cli.EXAMPLE_MAX_ENTRIES}\n"
    )
    assert cli.EXAMPLE_MAX_ENTRIES == 100_000


@pytest.mark.parametrize(
    "name, indices", [("orthogonal-2-300000", 600_000), ("orthogonal-1-400001", 400_001)]
)
def test_example_refuses_an_orthogonal_example_of_too_many_indices(
    name, indices, tmp_path, capsys, monkeypatch
):
    def build(*args):
        raise AssertionError("the example was built")

    # N entries of M indices each: the refusal comes before any is written
    monkeypatch.setattr(cli, "make_orthogonal", build)
    path = tmp_path / "long.json"
    assert main(["example", name, "--out", str(path)]) == 3
    assert not path.exists()
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        f"hopfw: error: example {name} would hold {indices} indices,"
        f" above the bound of {cli.EXAMPLE_MAX_INDICES}\n"
    )
    assert cli.EXAMPLE_MAX_INDICES == 400_000


@pytest.mark.parametrize(
    "name, builder, args",
    [
        ("signature-8", "make_signature", (8,)),
        ("orthogonal-100000-2", "make_orthogonal", (100_000, 2)),
        ("orthogonal-2-200000", "make_orthogonal", (2, 200_000)),
    ],
)
def test_example_builds_an_example_at_the_bound(name, builder, args, tmp_path, monkeypatch):
    # 8! = 40 320 and 100 000 entries are built; a small form stands in for
    # each, so that nothing large is enumerated here
    built = []
    monkeypatch.setattr(cli, builder, lambda *a: built.append(a) or W2)
    assert main(["example", name, "--out", str(tmp_path / "w.json")]) == 0
    assert built == [args]


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


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["analyze", "FORM"],
            "the 10000000 flattenings of a form of dim 3 and arity 10000000 would hold"
            " 10000000 * 3^10000000 entries",
        ),
        (
            ["present", "--algebra", "hw", "--form", "FORM"],
            "the form relations of a form of dim 3, arity 10000000 and 0 entries would hold"
            " 1 * 3^10000000 terms",
        ),
        (
            ["verify", "--suite", "diagonal-iso", "--n", "3", "--m", "10000000"],
            "the power sums of ahmn with m=10000000 and n=3 would hold 180000000 letters",
        ),
    ],
    ids=["analyze", "present", "diagonal-iso"],
)
def test_a_huge_arity_is_refused_with_the_bounds_message_at_once(
    argv, message, tmp_path, capsys, monkeypatch
):
    # 3^10000000 has 4 771 213 digits: it is never multiplied out (seconds)
    # nor printed (past Python's 4 300 digits); diagonal-iso bounds ahmn's
    # power sums first, so it builds no form of 3 tuples of 10^7 indices
    path = tmp_path / "long.json"
    path.write_text('{"dim": 3, "arity": 10000000, "entries": []}')

    def make_orthogonal(n, m):
        raise AssertionError("the diagonal form was built")

    monkeypatch.setattr(hopf, "make_orthogonal", make_orthogonal)
    start = time.perf_counter()
    assert main([str(path) if a == "FORM" else a for a in argv]) == 3
    assert time.perf_counter() - start < 1
    bound = ", above the bound of 1000000\n"
    assert capsys.readouterr() == ("", f"hopfw: error: {message}{bound}")


_HUGE_N = "1" + "0" * 1500
_NINES = "9" * 5000


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["present", "--algebra", "ahmn", "--m", "2", "--n", _HUGE_N],
            f"the relations of ahmn with n={_HUGE_N} would hold 2 * {_HUGE_N}^3 + 2 * {_HUGE_N}"
            " terms, above the bound of 1000000",
        ),
        (
            ["verify", "--suite", "diagonal-iso", "--n", "2", "--m", "100000"],
            "the form relations of a form of dim 2, arity 100000 and 2 entries would hold"
            " 2 * 2^100000 terms, above the bound of 1000000",
        ),
        (
            ["example", f"signature-{_NINES}"],
            f"example signature-{_NINES} would hold {_NINES}! entries,"
            " above the bound of 100000",
        ),
        (
            ["example", f"orthogonal-2-{_NINES}"],
            f"example orthogonal-2-{_NINES} would hold 2 * {_NINES} indices,"
            " above the bound of 400000",
        ),
        (
            ["example", f"orthogonal-{_NINES}-2"],
            f"example orthogonal-{_NINES}-2 would hold {_NINES} entries,"
            " above the bound of 100000",
        ),
    ],
    ids=["ahmn-n", "diagonal-iso", "signature", "orthogonal-m", "orthogonal-n"],
)
def test_a_count_past_the_digit_limit_is_refused_before_anything_is_built(
    argv, message, capsys, monkeypatch
):
    # 2n^3 + 2n at n = 10^1500, and the numerals of 5 000 digits, are past
    # the 4 300 digits Python prints or reads; diagonal-iso decides hw's form
    # relations, 2 * 2^100000 terms, from n and m before it builds ahmn
    def built(*args):
        raise AssertionError("a presentation or an example was built")

    monkeypatch.setattr(hopf, "Alphabet", built)
    if "diagonal-iso" in argv:
        monkeypatch.setattr(hopf, "build_ahmn", built)
    for module in (hopf, cli):
        monkeypatch.setattr(module, "make_orthogonal", built)
    monkeypatch.setattr(cli, "make_signature", built)
    start = time.perf_counter()
    assert main(argv) == 3
    assert time.perf_counter() - start < 1
    assert capsys.readouterr() == ("", f"hopfw: error: {message}\n")


@pytest.fixture(scope="module")
def cyclic2_dumps():
    """The hw(cyclic2) presentation dump and its system dump at D=3."""
    pres = build_hw(MultilinearForm(2, 3, {(1, 1, 2): 1, (1, 2, 1): 1, (2, 1, 1): 1}))
    return {"presentation": dump_presentation(pres), "system": system_for(pres, 3).dump()}


@pytest.mark.parametrize(
    "argv, text, message",
    [
        (["analyze", "FILE"], '{"dim": 2, "arity": NINES, "entries": []}', "arity"),
        (
            ["analyze", "FILE"],
            '{"dim": 2, "arity": 2, "entries": [{"idx": [1, 1], "c": "NINES"}]}',
            "entry 0: coefficient",
        ),
        (["gb", "FILE"], ("presentation", "\nn 2\n", "\nn NINES\n"), "line 2: n"),
        (
            ["nf", "FILE", "--poly", "u[1,1]"],
            ("system", "degree 3", "degree NINES"),
            "line 2: degree",
        ),
        (["nf", "FILE", "--poly", "NINES*u[1,1]"], ("system", "", ""), "--poly: coefficient"),
        (["example", "orthogonal-0-NINES"], None, None),
        (["example", "orthogonal-00-NINES"], None, None),
    ],
    ids=["form-arity", "form-coefficient", "dump-n", "dump-degree", "poly", "orth-0", "orth-00"],
)
def test_a_numeral_past_the_digit_limit_is_refused_in_our_words(
    argv, text, message, cyclic2_dumps, tmp_path, capsys
):
    # Python reads no integer of more digits than its limit (4 300 unless
    # set otherwise), which stays as it is: each reader names what it read
    # and how many digits it had; an orthogonal example of dimension 0 is
    # refused as such before its arity is read
    path = tmp_path / "input"
    if isinstance(text, tuple):
        which, old, new = text
        text = cyclic2_dumps[which].replace(old, new)
    if text is not None:
        path.write_text(text.replace("NINES", _NINES))
    argv = [a.replace("FILE", str(path)).replace("NINES", _NINES) for a in argv]
    if message is None:
        message = "dimension must be at least 2"
    else:
        limit = sys.get_int_max_str_digits()
        message += f" has 5000 digits, more than the {limit} Python reads"
    start = time.perf_counter()
    assert main(argv) == 3
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"hopfw: error: {message}\n")
    assert "set_int_max_str_digits" not in out + err


@pytest.mark.parametrize(
    "arity, count",
    [(2048, str(2**2048)), (2049, "1 * 2^2049"), (20000, "1 * 2^20000")],
    ids=["2048", "2049", "20000"],
)
def test_a_power_is_written_out_up_to_its_bit_bound(arity, count, tmp_path, capsys):
    # an empty form of dim 2: its 2^m form relations are counted one term
    # each, and 2^m is multiplied out while m times the 2 bits of 2 is at
    # most 4096
    path = tmp_path / "long.json"
    path.write_text(f'{{"dim": 2, "arity": {arity}, "entries": []}}')
    assert main(["present", "--algebra", "hw", "--form", str(path)]) == 3
    assert capsys.readouterr().err == (
        f"hopfw: error: the form relations of a form of dim 2, arity {arity} and 0 entries"
        f" would hold {count} terms, above the bound of 1000000\n"
    )


def test_present_refuses_a_form_whose_relations_hold_too_many_terms(tmp_path, capsys):
    # signature-6 would have 6^6 form relations of 720 terms each; the
    # refusal comes before the first of them is built, and nothing is written
    path, out = tmp_path / "sig6.json", tmp_path / "hw.txt"
    assert main(["example", "signature-6", "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["present", "--algebra", "hw", "--form", str(path), "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == (
        "hopfw: error: the form relations of a form of dim 6, arity 6 and 720 entries"
        " would hold 33592320 terms, above the bound of 1000000\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        *(["present", "--algebra", k, "--form", "FORM"] for k in ("bw", "hw", "hww")),
        *(["verify", "--suite", "axioms", "FORM", "--algebra", k] for k in ("bw", "hw", "hww")),
        *(["verify", "--suite", s, "FORM"] for s in ("derived", "pair-reduction")),
        ["verify", "--suite", "noninjectivity", "FORM"],
    ],
)
def test_a_form_whose_relations_hold_too_many_terms_is_refused_before_it_is_flattened(
    argv, tmp_path, capsys, monkeypatch
):
    # orthogonal-2-21 passes every example bound, but its 2^21 form
    # relations hold 2 terms each, and each of its flattenings 2^21 entries
    path = tmp_path / "o21.json"
    assert main(["example", "orthogonal-2-21", "--out", str(path)]) == 0
    capsys.readouterr()

    def flattening(w, slot):
        raise AssertionError("a flattening was built")

    monkeypatch.setattr(forms, "flattening", flattening)
    assert main([str(path) if a == "FORM" else a for a in argv]) == 3
    assert capsys.readouterr() == (
        "",
        "hopfw: error: the form relations of a form of dim 2, arity 21 and 2 entries"
        " would hold 4194304 terms, above the bound of 1000000\n",
    )


@pytest.mark.parametrize(
    "kind, rows, message",
    [
        (
            "hw",
            [[random.Random(20 * i + j).randint(1, 9) for j in range(20)] for i in range(20)],
            "the tus relations of a form of dim 20 with 400 and 400 nonzero entries in Q and"
            " Q^-1 would hold 3200000 terms",
        ),
        (
            "hb",
            [[(i * j) % 7 + 1 for j in range(32)] for i in range(32)],
            "the form relations of a form of dim 32, arity 2 and 1024 entries would hold"
            " 1048576 terms",
        ),
        (
            "hb",
            [[int(j - i in (0, 1)) for j in range(40)] for i in range(40)],
            "the binst relations of a form of dim 40 with 820 nonzero entries in b^-1 would"
            " hold 1312000 terms",
        ),
        (
            "hw",
            None,
            "the form relations of a form of dim 2000, arity 2 and 0 entries would hold"
            " 4000000 terms",
        ),
    ],
    ids=["hw-dense-20", "hb-dense-32", "hb-bidiagonal-40", "hw-empty-2000"],
)
def test_present_refuses_hw_and_hb_above_the_bound_before_any_product(
    kind, rows, message, tmp_path, capsys, monkeypatch
):
    form = MultilinearForm(2000, 2, {}) if rows is None else make_bilinear(rows)
    path, out = tmp_path / "w.json", tmp_path / "pres.txt"
    path.write_text(dump_form(form))

    def refused_step(*args):
        raise AssertionError("a matrix product or a flattening was built")

    monkeypatch.setattr(hopf.PolyMatrix, "__matmul__", refused_step)
    if rows is None:
        monkeypatch.setattr(forms, "flattening", refused_step)
    assert main(["present", "--algebra", kind, "--form", str(path), "--out", str(out)]) == 3
    assert capsys.readouterr() == ("", f"hopfw: error: {message}, above the bound of 1000000\n")
    assert not out.exists()


def test_present_refuses_ahmn_above_the_bound_before_the_first_relation(
    tmp_path, capsys, monkeypatch
):
    def labelled(*args):
        raise AssertionError("a relation was built")

    monkeypatch.setattr(hopf, "_labelled", labelled)
    out = tmp_path / "ahmn.txt"
    argv = ["present", "--algebra", "ahmn", "--m", "2", "--n", "200", "--out", str(out)]
    assert main(argv) == 3
    assert capsys.readouterr() == (
        "",
        "hopfw: error: the relations of ahmn with n=200 would hold 16000400 terms,"
        " above the bound of 1000000\n",
    )
    assert not out.exists()
    # the power sums' 2 n^2 m letters are held to the bound too
    argv = ["present", "--algebra", "ahmn", "--m", "1000000", "--n", "2", "--out", str(out)]
    assert main(argv) == 3
    assert capsys.readouterr() == (
        "",
        "hopfw: error: the power sums of ahmn with m=1000000 and n=2 would hold 8000000"
        " letters, above the bound of 1000000\n",
    )
    assert not out.exists()


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


@pytest.mark.hashseed
def test_gb_progress_reports_only_the_degrees_that_pop(cyclic2, tmp_path, capsys):
    """Completion reports each degree at its first pop: hww(cyclic2) at
    degree 6 pops nothing of degree 6, so its last report is degree 5, and
    its dump is the pinned one."""
    pres = tmp_path / "hww.txt"
    system = tmp_path / "hww.gb"
    assert main(["present", "--algebra", "hww", "--form", cyclic2, "--out", str(pres)]) == 0
    assert main(["gb", str(pres), "--degree", "6", "--out", str(system)]) == 0
    err = capsys.readouterr().err
    assert err.splitlines() == ["degree 3: 0 rules", "degree 4: 15 rules", "degree 5: 15 rules"]
    digest = hashlib.sha256(system.read_bytes()).hexdigest()
    assert digest == GOLDEN["systems"]["hww-cyclic2"]


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


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["gb", "hw.txt", "--degree", _NINES], "degree"),
        (["verify", "--suite", "axioms", "--algebra", "ahmn", "--m", _NINES, "--n", "2"], "m"),
    ],
    ids=["gb-degree", "verify-m"],
)
def test_an_integer_flag_past_the_digit_limit_is_refused_in_our_words(argv, flag, capsys):
    # argparse echoes a value it cannot read; a numeral past the digit
    # limit is refused in read_int's words, its digits never shown
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 3
    out, err = capsys.readouterr()
    limit = sys.get_int_max_str_digits()
    assert out == "" and err.splitlines()[-1] == (
        f"hopfw {argv[0]}: error: argument --{flag}:"
        f" {flag} has 5000 digits, more than the {limit} Python reads"
    )
    assert "99999" not in err
    # any other value that is no integer is worded as argparse words it
    with pytest.raises(SystemExit):
        main([a.replace(_NINES, "4x") for a in argv])
    assert capsys.readouterr().err.splitlines()[-1].endswith(
        f"argument --{flag}: invalid int value: '4x'"
    )


@pytest.mark.parametrize("example, degree", [("cyclic2", 6), ("signature-4", 4)])
def test_gb_writes_the_system_dump_line_by_line(example, degree, tmp_path, capsys, monkeypatch):
    """Stdout and ``--out`` both get the bytes of ``system.dump()``, written
    a line at a time, with no whole text built.  The 32 letters of
    hw(signature-4) run from \\v up to ``*``."""
    form, pres, out = tmp_path / "w.json", tmp_path / "hw.txt", tmp_path / "hw.gb"
    assert main(["example", example, "--out", str(form)]) == 0
    assert main(["present", "--algebra", "hw", "--form", str(form), "--out", str(pres)]) == 0
    system = system_for(parse_presentation(pres.read_text()), degree)
    want = system.dump()
    if example == "signature-4":
        assert "*" in system.alphabet.word(system.alphabet.generators)
    capsys.readouterr()

    def whole_text(self):
        raise AssertionError("the whole dump was built")

    monkeypatch.setattr(RewriteSystem, "dump", whole_text)
    assert main(["gb", str(pres), "--degree", str(degree)]) == 0
    assert capsys.readouterr().out == want
    assert main(["gb", str(pres), "--degree", str(degree), "--out", str(out)]) == 0
    assert out.read_bytes() == want.encode()


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
    # one kernel step away from the canonical member, which is the default
    wt = _kernel_step(w)
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
    # a kind taken out of the table is gone from every reader
    monkeypatch.delitem(_ALGEBRAS, "hb")
    assert "hb" not in _algebra_choices("present") + _algebra_choices("verify")
    with pytest.raises(ValueError, match="line 1: unknown algebra kind 'hb'"):
        parse_presentation("algebra hb\nn 1\nm 2\ngenerators x")
    with pytest.raises(ValueError, match="unknown algebra kind 'hb'"):
        refuse_unread(SuiteInputs(form="b.json", algebra="hb"))
    with pytest.raises(KeyError):
        build_algebra(SuiteInputs(form=make_bilinear([[0, 1], [-1, 0]]), algebra="hb"))


def test_bw_axioms_read_polar_and_add_the_left_inverse():
    given = SuiteInputs(form="w.json", algebra="bw", polar="wt.json")
    refuse_unread(given, "axioms")
    # building bw reads no --polar, and neither do the hw and hb axioms
    with pytest.raises(ValueError, match="--algebra bw does not read --polar"):
        refuse_unread(given)
    for kind in ("hw", "hb"):
        with pytest.raises(ValueError, match=f"--algebra {kind} does not read --polar"):
            refuse_unread(SuiteInputs(form="w.json", algebra=kind, polar="wt.json"), "axioms")
    # bw's axioms are its Hopf axioms, then P A - I for the canonical polar
    # member, or for the given one
    axioms = [r.name for r in hopf.hopf_axiom_suite(build_bw(W2), 4)]
    leftinv = [f"leftinv[{i},{j}]" for i in (1, 2) for j in (1, 2)]
    for wt in (None, _kernel_step(W2)):
        rows = run_suite("axioms", SuiteInputs(form=W2, algebra="bw", polar=wt, degree=4))
        assert [r.name for r in rows] == axioms + leftinv
        assert all(r.status is Status.PASS for r in rows)


def _kernel_step(w: MultilinearForm) -> MultilinearForm:
    """The polar member one kernel step away from the canonical one."""
    sol = polar(w)
    return sol.member([1] + [0] * (len(sol.kernel_basis) - 1))


@pytest.mark.parametrize(
    "argv", [["--suite", "derived"], ["--suite", "axioms", "--algebra", "bw"]], ids=["derived", "bw"]
)
def test_a_non_polar_member_is_refused_before_anything_completes(
    argv, sig3, tmp_path, capsys, monkeypatch
):
    # eps3/3 is not polar to eps3 (eps3/2 is); hw(eps3) would complete
    # through D=6 for seconds before the old refusal
    path = tmp_path / "third.json"
    path.write_text(dump_form(make_signature(3).scale(rat(1, 3))))

    def complete(*args, **kwargs):
        raise AssertionError("completed before the polar member was refused")

    monkeypatch.setattr(hopf, "complete", complete)
    assert main(["verify", *argv, sig3, "--polar", str(path)]) == 3
    assert capsys.readouterr() == (
        "",
        "hopfw: error: tensor is not in the polar affine space of the form\n",
    )


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
