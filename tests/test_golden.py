"""Golden pins: every presentation and system dump, every suite's output,
the form analysis and polar space of a corpus of forms, and the exact
linear-algebra solvers.

Refactors of the builders, the suites, the CLI, the form analysis and the
solvers must leave these bytes unchanged.  The presentation and system
entries are sha256 digests of the dumps; the suite entries pin the exit code
and the sha256 of the whole ``hopfw verify`` stdout, i.e. every (name,
status, detail) row, the summary line and the noninjectivity verdict line.
The form entries pin the sha256 of a canonical text of ``analyze(w)``, of
``twisting_element(w)`` (its matrix, None, or the ``AmbiguousTwistError``
message) and of ``polar(w)`` (the particular, then every kernel-basis form
in order, or None), for fixed forms and 60 seeded random ones.  The solver
entries pin ``kernel_basis``, ``solve_affine`` and ``mat_inv`` on the
inputs of ``tests/test_exactnum.py``.

Print every pin, to regenerate them (only when a change of output is
intended), with::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import sys
import tempfile
from fractions import Fraction

import pytest

from hopfw.cli import _example_form, main
from hopfw.exactnum import (
    Matrix,
    SingularMatrixError,
    format_matrix,
    kernel_basis,
    mat_inv,
    solve_affine,
)
from hopfw.formats import dump_form, dump_presentation
from hopfw.forms import (
    AmbiguousTwistError,
    MultilinearForm,
    analyze,
    base_change,
    make_bilinear,
    make_orthogonal,
    make_signature,
    polar,
    twisting_element,
)
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

FIXED_FORMS = {
    "signature-3": lambda: make_signature(3),
    "signature-4": lambda: make_signature(4),
    "signature-5": lambda: make_signature(5),
    "cyclic2": lambda: _example_form("cyclic2"),
    "symplectic2": lambda: _example_form("symplectic2"),
    "bilinear-1235": lambda: BILINEAR_1235,
    "bilinear-1101": lambda: make_bilinear([[1, 1], [0, 1]]),
    "orthogonal-4-4": lambda: make_orthogonal(4, 4),
    "orthogonal-3-5": lambda: make_orthogonal(3, 5),
    "orthogonal-2-8": lambda: make_orthogonal(2, 8),
}
RANDOM_FORM_SEEDS = range(60)

# the inputs of tests/test_exactnum.py
SOLVER_MATRICES = {
    "row-123": [[1, 2, 3]],
    "rank2-3x3": [[1, 2, 3], [2, 4, 6], [1, 1, 1]],
    "invertible-2111": [[2, 1], [1, 1]],
    "unitriangular": [[1, 1], [0, 1]],
    "row-110": [[1, 1, 0]],
    "column-11": [[1], [1]],
    "rotation": [[0, 1], [-1, 0]],
    "singular-1224": [[1, 2], [2, 4]],
    "fractions": [[Fraction(1, 3), Fraction(1, 7)], [Fraction(1, 11), Fraction(1, 13)]],
}
SOLVE_AFFINE_CASES = {
    "unitriangular": ("unitriangular", [3, 1]),
    "row-110": ("row-110", [5]),
    "column-11-inconsistent": ("column-11", [0, 1]),
    "rank2-3x3": ("rank2-3x3", [6, 12, 3]),
    "rank2-3x3-inconsistent": ("rank2-3x3", [1, 0, 0]),
}

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
    "forms": {
        "bilinear-1101": "ef1ec8b5ce2368193c961674f705d0544ef15551610ffe022a73832171e06c46",
        "bilinear-1235": "4c3e3135eff7ca6695ab3d80bd3380382d1c9eb44f2aa6f97f91d933b85a2664",
        "cyclic2": "a1261eaf29bf516d78a07ab8b72280bff58031edb2f2f4b9a7d61febd730279d",
        "orthogonal-2-8": "4f3e425280e38b9778eef8a3782293860ccfb134a34b066e0530fd637cb39ba2",
        "orthogonal-3-5": "24a0894137fb9f86016e34556974d24f6e9a2955eacdab8b5daa4eab422cfc7d",
        "orthogonal-4-4": "66503e68db3d1076d00ce2c3428874610a787ed1d97ec8a8f2a03bd897257868",
        "random-00": "ea5063760cbc0aa989fac674053b4e8051697f1dee60f0ba0d9c554dd55f0c46",
        "random-01": "e3614b79306ccd6c3180bf9906573f5ef11da03ad5955ae0b5fc2a507e5ddc4f",
        "random-02": "2f689c2f722cc4c0127eb86990de251be3f70d0a11627c6a814ed81246f877bb",
        "random-03": "e5059f042ee4190e2be4123a3151f41be8f4993c64333c6a5a4a1508af75af5d",
        "random-04": "96846cf296c5c66cb81a18dd50724634adb0c8b290a629fba11c372358831863",
        "random-05": "b5f0cdc3a05c539b986512f45a6448f57870d8733e9c801f7f6657fafa9718cf",
        "random-06": "e5059f042ee4190e2be4123a3151f41be8f4993c64333c6a5a4a1508af75af5d",
        "random-07": "5e97cf59b5fed2a5c310832f4214f6bf84eb34ea0f4463613b7e5a2bf727c388",
        "random-08": "d788c5369de9f6778b74548f9bc873c0f7737751563b5503654942af596b36ff",
        "random-09": "7b774286fd2ce62db73a9ef0c5f20171ab16156bca037ade97edf818dbdcb7af",
        "random-10": "e5059f042ee4190e2be4123a3151f41be8f4993c64333c6a5a4a1508af75af5d",
        "random-11": "5e97cf59b5fed2a5c310832f4214f6bf84eb34ea0f4463613b7e5a2bf727c388",
        "random-12": "58def1ad83dd8d558d5d9f1b182199627553f09efc6738a02eb7e47e7b80fa3c",
        "random-13": "f3fa60dd9b457b7511f0f1f9fd8349938b65d5ae8f29ff912355d5991c94d2ff",
        "random-14": "e5059f042ee4190e2be4123a3151f41be8f4993c64333c6a5a4a1508af75af5d",
        "random-15": "e5059f042ee4190e2be4123a3151f41be8f4993c64333c6a5a4a1508af75af5d",
        "random-16": "c0090ab8b301856385db7ce1ed75691419695bc0c99bb93a74de1b96ec008030",
        "random-17": "eb099a5011d438e65a995150de355507f350c516ef917e287d156545d8011514",
        "random-18": "e5059f042ee4190e2be4123a3151f41be8f4993c64333c6a5a4a1508af75af5d",
        "random-19": "2f689c2f722cc4c0127eb86990de251be3f70d0a11627c6a814ed81246f877bb",
        "random-20": "86a0970847159e69f6acff37ca6cb72d1d94a370d227dfe6ebaa8ac6a3028c9a",
        "random-21": "317d3a3ca45b7233fdd383f72017bb46b8f03f41b534eae0f42af0a244e9c8a6",
        "random-22": "2f689c2f722cc4c0127eb86990de251be3f70d0a11627c6a814ed81246f877bb",
        "random-23": "5e97cf59b5fed2a5c310832f4214f6bf84eb34ea0f4463613b7e5a2bf727c388",
        "random-24": "57e6f4ce0cb1a1f74747a2693fcb8bf3fa5503c985f0efc04cdddc2638caeee7",
        "random-25": "8bcdd9635c0c320df3457860e293a2ce05ee57ba46a9c6c3be108873945b37d1",
        "random-26": "2f689c2f722cc4c0127eb86990de251be3f70d0a11627c6a814ed81246f877bb",
        "random-27": "5e97cf59b5fed2a5c310832f4214f6bf84eb34ea0f4463613b7e5a2bf727c388",
        "random-28": "7ef00e9be43e72b990ff32f47d5e7d902d4725e273b91c556ab244c13595c468",
        "random-29": "290476e6900a8d35b69169e3d033ba81fb8e6181c6ac6a44bebd941bcaaf3dd9",
        "random-30": "5e7c3d53b68fc1697f92d9fcc97c56ca7d7a4c4feb30216f6c6c88434193319c",
        "random-31": "2f689c2f722cc4c0127eb86990de251be3f70d0a11627c6a814ed81246f877bb",
        "random-32": "e9403e310b3625a2c55f8f7b01416ce078fceecdfe2af82e3f22cab48246d8bf",
        "random-33": "e955bb826576e2c39b6b87ee5f067a06dc4195d38d61afa754388efb514b9d0f",
        "random-34": "5e7c3d53b68fc1697f92d9fcc97c56ca7d7a4c4feb30216f6c6c88434193319c",
        "random-35": "5e97cf59b5fed2a5c310832f4214f6bf84eb34ea0f4463613b7e5a2bf727c388",
        "random-36": "5e7c3d53b68fc1697f92d9fcc97c56ca7d7a4c4feb30216f6c6c88434193319c",
        "random-37": "8533ef010f07bf4208e54c781f751e162b31f8e6c949e8c2eef47db2ff77938f",
        "random-38": "5e7c3d53b68fc1697f92d9fcc97c56ca7d7a4c4feb30216f6c6c88434193319c",
        "random-39": "2f689c2f722cc4c0127eb86990de251be3f70d0a11627c6a814ed81246f877bb",
        "random-40": "cc81bbb8cc8b41bc45c039c44367f0001ab75a625eb0038a29339c1643bd5eee",
        "random-41": "bbdcc36d9d7677a1e37297db7197d692d1dc93c27dd8ab896fb7175629a82128",
        "random-42": "e5059f042ee4190e2be4123a3151f41be8f4993c64333c6a5a4a1508af75af5d",
        "random-43": "e5059f042ee4190e2be4123a3151f41be8f4993c64333c6a5a4a1508af75af5d",
        "random-44": "50dfb090decc0d0c0d9c32b33a3df05f7fa9b80d49cc161d332aa8cc014794f9",
        "random-45": "070d39077cd3fb8a066dee50b8ef8a34ac30af7781b4e5a59fb7fe94eab1d6a1",
        "random-46": "2f689c2f722cc4c0127eb86990de251be3f70d0a11627c6a814ed81246f877bb",
        "random-47": "5e97cf59b5fed2a5c310832f4214f6bf84eb34ea0f4463613b7e5a2bf727c388",
        "random-48": "5e7c3d53b68fc1697f92d9fcc97c56ca7d7a4c4feb30216f6c6c88434193319c",
        "random-49": "127f798b83ae93734485e970352121aec868d529313d1633e8e240933b83d1c1",
        "random-50": "5e7c3d53b68fc1697f92d9fcc97c56ca7d7a4c4feb30216f6c6c88434193319c",
        "random-51": "e5059f042ee4190e2be4123a3151f41be8f4993c64333c6a5a4a1508af75af5d",
        "random-52": "5e7c3d53b68fc1697f92d9fcc97c56ca7d7a4c4feb30216f6c6c88434193319c",
        "random-53": "28b239fb4a7d3533496d94ee7c4b931230b578b2c691cdad0adae0658a37d471",
        "random-54": "e5059f042ee4190e2be4123a3151f41be8f4993c64333c6a5a4a1508af75af5d",
        "random-55": "2f689c2f722cc4c0127eb86990de251be3f70d0a11627c6a814ed81246f877bb",
        "random-56": "f318a83c2a21f1814635e2111c1e47bd040576a74a61a8b0940583f7cbe307ee",
        "random-57": "4362c0d5bca66ed261dd7e9f825efe3ecc9f9b814bbf3b0e5688e4315eb6b022",
        "random-58": "e5059f042ee4190e2be4123a3151f41be8f4993c64333c6a5a4a1508af75af5d",
        "random-59": "e5059f042ee4190e2be4123a3151f41be8f4993c64333c6a5a4a1508af75af5d",
        "signature-3": "5d612017a3c4c88f37debb7db7871648ffd3c198cbf4bc3e7f6e5aae31ada3b7",
        "signature-4": "074e204773e29c833132dc3e3e135e507ac4eece45eed55fa620feed5cfa6905",
        "signature-5": "2f7fdcc2697cf643994d2150769a3786ea77d84d4caaade7447a4ec7eec1efa3",
        "symplectic2": "4a5a7b5bd4283a169b62c8adaf34ceed7de044f57cc9203e8201634b5817cc16"
    },
    "solvers": {
        "kernel_basis:column-11": "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d",
        "kernel_basis:fractions": "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d",
        "kernel_basis:invertible-2111": "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d",
        "kernel_basis:rank2-3x3": "ccf3e47be23cfd1d81c1374e81f3db43245f77e316a342e267e398d300918fea",
        "kernel_basis:rotation": "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d",
        "kernel_basis:row-110": "04856864c27d99c02d9c4d675c27717424e3ab022c5a53b90283ededddce8aa7",
        "kernel_basis:row-123": "516198fcad610b3ba3a86d3e3a3756d0f439f013208f18d6725d28f5381721b1",
        "kernel_basis:singular-1224": "364978d1dbe1f0a22a2988c57e3ba4b0d96ea339a147e1866bb8401a8dc42b7e",
        "kernel_basis:unitriangular": "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d",
        "mat_inv:column-11": "d89eb83a817a9affc35eecb7c9797956395563d9cc61f4eaee10157f1fc834e2",
        "mat_inv:fractions": "7a8f896c6000e5085d1073c791c918e88617d0e59878d260a0174145a8d610d8",
        "mat_inv:invertible-2111": "1d0300628663d55e90c6851e29757ac65692bad9ea7d1de55f933470e87e7204",
        "mat_inv:rank2-3x3": "82a0441e3045b6dcbabddad1b2414603c059b743d7cc750291c0ae57245fc06e",
        "mat_inv:rotation": "57b79165715e9c2d8e25ce0462327960ae6c04d28752df8e117d090d570df86e",
        "mat_inv:row-110": "d89eb83a817a9affc35eecb7c9797956395563d9cc61f4eaee10157f1fc834e2",
        "mat_inv:row-123": "d89eb83a817a9affc35eecb7c9797956395563d9cc61f4eaee10157f1fc834e2",
        "mat_inv:singular-1224": "82a0441e3045b6dcbabddad1b2414603c059b743d7cc750291c0ae57245fc06e",
        "mat_inv:unitriangular": "0fdd621f88bcaef2718ca4f2da443f6069513871824c93781e064b58bc00733f",
        "solve_affine:column-11-inconsistent": "62047bd974bfa3e48e9bf5b2ea927cf09a1c7b5c7123863322a5daeb38f2e5ee",
        "solve_affine:rank2-3x3": "512c490d888476c1bfea42f4bf72968a57178d5bb40b09dc61b75208e6129b93",
        "solve_affine:rank2-3x3-inconsistent": "e2ea283fbd5fbda32d1abb5ea3feb76d67834f6c737be9f3433cfddf937a755d",
        "solve_affine:row-110": "416b5d587cd0939912c8269de7abe423c65fc6a18daffa61ddcf7a313944a62d",
        "solve_affine:unitriangular": "15c3efd6b37d2e907e214fea10581bed27122d8f0816c0ae10e1b6bbab342d2c"
    },
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


def _random_form(seed: int) -> MultilinearForm:
    """Dimension 2-3, arity 2-4, about 40 % of the entries nonzero.  Seeds
    1 and 3 mod 4 are summed over cyclic rotations (so the twist I exists);
    seeds 2 and 3 mod 4 live on the span of e_1..e_(n-1), moved by a random
    unimodular base change (so a consistent twist is ambiguous)."""
    rng = random.Random(seed)
    n, m = rng.choice((2, 3)), rng.choice((2, 3, 4))
    support = range(1, n) if seed % 4 >= 2 else range(1, n + 1)
    entries = {}
    for idx in itertools.product(support, repeat=m):
        if rng.random() < 0.4:
            entries[idx] = Fraction(rng.choice((-2, -1, 1, 2, 3)), rng.choice((1, 1, 2)))
    if seed % 2 == 1:
        summed = {}
        for idx, c in entries.items():
            for k in range(m):
                rot = idx[k:] + idx[:k]
                summed[rot] = summed.get(rot, 0) + c
        entries = summed
    w = MultilinearForm(n, m, entries)
    if seed % 4 >= 2:
        g = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                g[i][j] = rng.choice((-1, 0, 1, 2))
        w = base_change(w, Matrix.from_rows(g[::-1]))
    return w


def _form_by_key(key: str) -> MultilinearForm:
    if key.startswith("random-"):
        return _random_form(int(key[len("random-") :]))
    return FIXED_FORMS[key]()


FORM_KEYS = sorted(FIXED_FORMS) + [f"random-{seed:02d}" for seed in RANDOM_FORM_SEEDS]


def _twist_text(w: MultilinearForm) -> str:
    try:
        q = twisting_element(w)
    except AmbiguousTwistError as exc:
        return f"AmbiguousTwistError: {exc}"
    return "None" if q is None else format_matrix(q)


def form_text(w: MultilinearForm) -> str:
    """Canonical text of analyze(w), twisting_element(w) and polar(w)."""
    report = analyze(w)
    lines = [
        f"nondegenerate: {report.nondegenerate}",
        f"q: {'None' if report.q is None else format_matrix(report.q)}",
        f"preregular: {report.preregular}",
        f"twist_ambiguous: {report.twist_ambiguous}",
        f"twisting_element: {_twist_text(w)}",
    ]
    sol = polar(w)
    if sol is None:
        lines.append("polar: None")
    else:
        lines.append(f"particular: {sol.particular!r}")
        lines += [f"kernel: {k!r}" for k in sol.kernel_basis]
    return "\n".join(lines) + "\n"


def _outcome(call) -> str:
    try:
        return repr(call())
    except SingularMatrixError as exc:
        return f"SingularMatrixError: {exc}"


def solver_text(key: str) -> str:
    """Canonical text of one solver call on the pinned inputs."""
    kind, _, name = key.partition(":")
    if kind == "solve_affine":
        mat, rhs = SOLVE_AFFINE_CASES[name]
        return _outcome(lambda: solve_affine(Matrix.from_rows(SOLVER_MATRICES[mat]), rhs))
    a = Matrix.from_rows(SOLVER_MATRICES[name])
    return _outcome(lambda: {"kernel_basis": kernel_basis, "mat_inv": mat_inv}[kind](a))


SOLVER_KEYS = (
    [f"kernel_basis:{name}" for name in SOLVER_MATRICES]
    + [f"mat_inv:{name}" for name in SOLVER_MATRICES]
    + [f"solve_affine:{name}" for name in SOLVE_AFFINE_CASES]
)


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
        "forms": {key: _sha(form_text(_form_by_key(key))) for key in FORM_KEYS},
        "solvers": {key: _sha(solver_text(key)) for key in SOLVER_KEYS},
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


@pytest.mark.parametrize("key", FORM_KEYS)
def test_form_analysis_and_polar_are_pinned(key):
    assert _sha(form_text(_form_by_key(key))) == GOLDEN["forms"][key]


def test_random_forms_cover_every_twist_outcome():
    outcomes = {_twist_text(_random_form(seed)).split(":")[0] for seed in RANDOM_FORM_SEEDS}
    assert {"None", "AmbiguousTwistError"} <= outcomes and len(outcomes) > 2


@pytest.mark.parametrize("key", SOLVER_KEYS)
def test_solver_output_is_pinned(key):
    assert _sha(solver_text(key)) == GOLDEN["solvers"][key]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        json.dump(current(tmp), sys.stdout, indent=4, sort_keys=True)
    print()
