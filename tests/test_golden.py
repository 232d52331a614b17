"""Golden pins: every presentation and system dump, and every suite's output.

Refactors of the builders, the suites and the CLI must leave these bytes
unchanged.  The presentation and system entries are sha256 digests of the
dumps; the suite entries pin the exit code and the sha256 of the whole
``hopfw verify`` stdout, i.e. every (name, status, detail) row, the summary
line and the noninjectivity verdict line.

Regenerate (only when a change of output is intended) with::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

import pytest

from hopfw.cli import _example_form, main
from hopfw.formats import dump_form, dump_presentation
from hopfw.forms import make_bilinear, polar
from hopfw.hopf import build_ahmn, build_bw, build_hb, build_hw, build_hww, system_for

# a bilinear form whose twist is not a scalar matrix
BILINEAR_1235 = make_bilinear([[1, 2], [3, 5]])

PRESENTATIONS = {
    "hw-cyclic2": lambda: build_hw(_example_form("cyclic2")),
    "hw-signature-3": lambda: build_hw(_example_form("signature-3")),
    "hw-signature-4": lambda: build_hw(_example_form("signature-4")),
    "bw-cyclic2": lambda: build_bw(_example_form("cyclic2")),
    "bw-signature-3": lambda: build_bw(_example_form("signature-3")),
    "bw-signature-4": lambda: build_bw(_example_form("signature-4")),
    "hww-cyclic2": lambda: _hww("cyclic2"),
    "hww-signature-3": lambda: _hww("signature-3"),
    "hww-signature-4": lambda: _hww("signature-4"),
    "hb-symplectic2": lambda: build_hb(_example_form("symplectic2")),
    "hb-bilinear-1235": lambda: build_hb(BILINEAR_1235),
    "ahmn-3-2": lambda: build_ahmn(3, 2),
}

# argv after "verify"; FORM:<name> is replaced by a file holding that form,
# and --degree VERIFY_DEGREE is appended unless the call names a degree
VERIFY_CALLS = {
    "axioms-hw-cyclic2": ["--suite", "axioms", "FORM:cyclic2", "--algebra", "hw"],
    "axioms-bw-cyclic2": ["--suite", "axioms", "FORM:cyclic2", "--algebra", "bw"],
    "axioms-hww-cyclic2": ["--suite", "axioms", "FORM:cyclic2", "--algebra", "hww"],
    "axioms-hb-symplectic2": ["--suite", "axioms", "FORM:symplectic2", "--algebra", "hb"],
    "axioms-hw-bilinear-1235": ["--suite", "axioms", "FORM:bilinear-1235"],
    "axioms-hb-bilinear-1235": ["--suite", "axioms", "FORM:bilinear-1235", "--algebra", "hb"],
    "axioms-ahmn-3-2": ["--suite", "axioms", "--algebra", "ahmn", "--m", "3", "--n", "2"],
    "derived-cyclic2": ["--suite", "derived", "FORM:cyclic2"],
    "derived-bilinear-1235": ["--suite", "derived", "FORM:bilinear-1235"],
    "pair-reduction-cyclic2": ["--suite", "pair-reduction", "FORM:cyclic2"],
    "manin": ["--suite", "manin"],
    "diagonal-iso": ["--suite", "diagonal-iso"],
    "bilinear-iso-symplectic2": ["--suite", "bilinear-iso", "FORM:symplectic2"],
    "bilinear-iso-bilinear-1235": ["--suite", "bilinear-iso", "FORM:bilinear-1235"],
    "noninjectivity": ["--suite", "noninjectivity"],
    "noninjectivity-D3": ["--suite", "noninjectivity", "--degree", "3"],
}
VERIFY_DEGREE = "4"

GOLDEN = {
    "presentations": {
        "ahmn-3-2": "da4688232e185cf572a35146b9118fec8fb3b1b6183a24b061e6c56d2a584f65",
        "bw-cyclic2": "cb3a1c0b630e9d85206c2689ae19da77dd658056443c061db1d352fadc4bc426",
        "bw-signature-3": "baf47d77fb941909498298cc6b104efe2a41cafe3f8dc5a2f9e248019c8869d2",
        "bw-signature-4": "2d4f7259d5196f9c52f4ca7873fbb506daf5ff7db33efee7e6f24b0e6224b698",
        "hb-bilinear-1235": "fa0a301360da875921100f1034705c72eef1abf13eefd02167b09feb2e4c522a",
        "hb-symplectic2": "39c94f1689f860bdae5d6af1df64987e8b96f0cb5cf6351a547bda4b106dd776",
        "hw-cyclic2": "a0037092e99eadce50c2eb6b043d2894622c14994a1fec122bdfe29e7acfb69c",
        "hw-signature-3": "7a0b4d4b11feaa36d33b1b9254ecda1ef1ca40b03fc18f4b9a51b7dd2dc6dfde",
        "hw-signature-4": "fd0cd98af15ea48a33f9c4590f3b4433dc720fd6d31c057f40054f9581359a8e",
        "hww-cyclic2": "2fd80812d3b18059b3fe6a90ea88d4f11cac9cbf7137c598f4efc7282b408e26",
        "hww-signature-3": "ef9662ea5c60e9c61a4c4f552c462cdde21b2b7b430fc68888f6e7bb360ffad5",
        "hww-signature-4": "3eeb11784720c213c8599417ac1960c27b58e7c2ba4046532857687e884da42d"
    },
    "system-hw-cyclic2-D6": "bce3136e0c929ec68b198cd7da9f71a5a5755e0fb3f3c771d0d134ae771f3c7e",
    "verify": {
        "axioms-ahmn-3-2": {
            "exit": 2,
            "lines": 45,
            "stdout_sha256": "8e292e8b77308de0f2af2cfe22e99fcd1073e3158470a0201624108a338ef032"
        },
        "axioms-bw-cyclic2": {
            "exit": 0,
            "lines": 21,
            "stdout_sha256": "a9d7673728ae57a44acb1d46cbab317a4dc59bdd7fb47ee9b983f01989757fd0"
        },
        "axioms-hb-bilinear-1235": {
            "exit": 0,
            "lines": 33,
            "stdout_sha256": "023b5b03824d6f5786e8c6f907fdc03b42a71eb56d117a500c0c466341f578f2"
        },
        "axioms-hb-symplectic2": {
            "exit": 0,
            "lines": 33,
            "stdout_sha256": "023b5b03824d6f5786e8c6f907fdc03b42a71eb56d117a500c0c466341f578f2"
        },
        "axioms-hw-bilinear-1235": {
            "exit": 1,
            "lines": 53,
            "stdout_sha256": "36bdab9bb672b9236c201a902e6ab2edee58dd6e58329b7ba1d7f236eb951f3a"
        },
        "axioms-hw-cyclic2": {
            "exit": 0,
            "lines": 65,
            "stdout_sha256": "e3f7eafe42683a351dd52c3311273861c2d5ea573567d48accddd4ecbe0e0e89"
        },
        "axioms-hww-cyclic2": {
            "exit": 2,
            "lines": 57,
            "stdout_sha256": "3bd4a0427b2fc0fe9df13213ed8d6109858023bad2c1b3718cec914fcb755423"
        },
        "bilinear-iso-bilinear-1235": {
            "exit": 0,
            "lines": 25,
            "stdout_sha256": "a3c2882e68de2f04a8641bd0d94c7bf9b777a6b63c23ab1564f6937b4801ace5"
        },
        "bilinear-iso-symplectic2": {
            "exit": 0,
            "lines": 25,
            "stdout_sha256": "a3c2882e68de2f04a8641bd0d94c7bf9b777a6b63c23ab1564f6937b4801ace5"
        },
        "derived-bilinear-1235": {
            "exit": 0,
            "lines": 21,
            "stdout_sha256": "0c6dbde980e07c417e313910d4dd2f4d04d167adb93ed07dc14b194ae3c3ed58"
        },
        "derived-cyclic2": {
            "exit": 0,
            "lines": 65,
            "stdout_sha256": "676b63344e8105e3b40da8c8ba1452456c4204afbc89bfe86cb524b83315d2a7"
        },
        "diagonal-iso": {
            "exit": 0,
            "lines": 33,
            "stdout_sha256": "61e5b3748f32c3614853c25747748f90f7482643a1d646c63a93f6ea595d177d"
        },
        "manin": {
            "exit": 0,
            "lines": 28,
            "stdout_sha256": "992a3611ac971a59aa0af47bb1b6705691422cc8c891cfa5e4148053c14c309a"
        },
        "noninjectivity": {
            "exit": 0,
            "lines": 49,
            "stdout_sha256": "5701758492efd5f2e9fbd82e2ad15c09e3e317db0df2118fbe4a2070baf955f8"
        },
        "noninjectivity-D3": {
            "exit": 2,
            "lines": 49,
            "stdout_sha256": "4dae557530ccba6b87c35b91b07c4bb280e6ce3fc82c419b6de45f464b247cfb"
        },
        "pair-reduction-cyclic2": {
            "exit": 0,
            "lines": 9,
            "stdout_sha256": "996944b3533c4f19d4dbf0e3d88140c56208de03892de81e63dcf57319017a8e"
        }
    }
}


def _form(name):
    return BILINEAR_1235 if name == "bilinear-1235" else _example_form(name)


def _hww(name):
    w = _example_form(name)
    return build_hww(w, polar(w).particular)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _run_verify(args, workdir):
    argv = ["verify"]
    for a in args:
        if a.startswith("FORM:"):
            path = os.path.join(workdir, a[5:] + ".json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(dump_form(_form(a[5:])))
            a = path
        argv.append(a)
    if "--degree" not in argv:
        argv += ["--degree", VERIFY_DEGREE]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    text = out.getvalue()
    return {"exit": code, "lines": len(text.splitlines()), "stdout_sha256": _sha(text)}


def current(workdir):
    """The values this file pins, computed from the code as it stands."""
    return {
        "presentations": {
            key: _sha(dump_presentation(build())) for key, build in PRESENTATIONS.items()
        },
        "system-hw-cyclic2-D6": _sha(
            system_for(build_hw(_example_form("cyclic2")), 6).dump()
        ),
        "verify": {key: _run_verify(args, workdir) for key, args in VERIFY_CALLS.items()},
    }


@pytest.mark.parametrize("key", sorted(PRESENTATIONS))
def test_presentation_dump_is_pinned(key):
    assert _sha(dump_presentation(PRESENTATIONS[key]())) == GOLDEN["presentations"][key]


def test_system_dump_is_pinned():
    system = system_for(build_hw(_example_form("cyclic2")), 6)
    assert _sha(system.dump()) == GOLDEN["system-hw-cyclic2-D6"]


@pytest.mark.parametrize("key", sorted(VERIFY_CALLS))
def test_verify_output_is_pinned(key, tmp_path):
    assert _run_verify(VERIFY_CALLS[key], str(tmp_path)) == GOLDEN["verify"][key]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        json.dump(current(tmp), sys.stdout, indent=4, sort_keys=True)
    print()
