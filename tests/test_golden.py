"""Golden pins: every presentation and system dump, every suite's output,
the form analysis and polar space of a corpus of forms, and the exact
linear-algebra solvers.

Refactors of the builders, completion, the suites, the CLI, the form
analysis and the solvers must leave these bytes unchanged.  The presentation
entries are sha256 digests of the dumps, and the system entries of
``system_for(pres, D).dump()`` for every presentation (D = 6, or 4 where 6
costs too much); each pinned system is also audited with
``unresolved_overlaps``, the one confluence audit, which completion does not
run on itself, and each dump must parse back to an equal object that dumps
the same bytes.  The suite entries pin the exit code
and the sha256 of the whole ``hopfw verify`` stdout, i.e. every (name,
status, detail) row, the summary line and the noninjectivity verdict line.
The form entries pin the sha256 of a canonical text of ``analyze(w)``, of
``twisting_element(w)`` (its matrix, None, or the ``AmbiguousTwistError``
message) and of ``polar(w)`` (the particular, then every kernel-basis form
in order, or None), for fixed forms and 60 seeded random ones.  The solver
entries pin ``kernel_basis``, ``solve_affine`` and ``mat_inv`` on the
inputs of ``tests/test_exactnum.py``.  The core entries pin the sha256 of a
canonical text of the free-algebra and tensor-square arithmetic and of the
multiplicative extensions (``substitute``, ``coproduct_image``) on 40 seeded
random polynomial pairs.  The api entries pin every name in
``hopfw.__all__`` with its call signature, and the method entries every
public method and operator of ``NcPoly``, ``TensorSquare`` and
``PolyMatrix`` (a class may gain methods, not lose or change them).
Signatures are pinned without annotations: parameter names, order, kinds
and defaults are what a caller can break on.

Print every pin, to regenerate them (only when a change of output is
intended), with::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import dataclasses
import hashlib
import inspect
import io
import itertools
import json
import os
import random
import sys
import tempfile
from enum import EnumMeta
from fractions import Fraction

import pytest

import hopfw
from hopfw.cli import _example_form, main
from hopfw.exactnum import (
    Matrix,
    SingularMatrixError,
    format_matrix,
    kernel_basis,
    mat_inv,
    solve_affine,
)
from hopfw.formats import dump_form, dump_presentation, parse_presentation
from hopfw.forms import (
    AmbiguousTwistError,
    MultilinearForm,
    _analyze_every_slot,
    analyze,
    base_change,
    check_condition_i_prime,
    make_bilinear,
    make_orthogonal,
    make_signature,
    polar,
    twisting_element,
)
from hopfw.hopf import build_ahmn, build_bw, build_hb, build_hw, build_hww, system_for
from hopfw.rewrite import RewriteSystem, unresolved_overlaps
from hopfw.ncalg import (
    Alphabet,
    Generator,
    NcPoly,
    PolyMatrix,
    TensorSquare,
    coproduct_image,
    matric_family,
    parse_poly,
    substitute,
)
from slice_oracle import assert_scan_matches_slices

# every pin here is checked again under two hash seeds: no dump, verdict or
# printed value may follow the order in which completion pops its queue
pytestmark = pytest.mark.hashseed

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
# completion degree of each pinned system; hw-signature-4 at D=5 runs for minutes
SYSTEM_DEGREES = {key: 6 for key in PRESENTATIONS} | {
    "hw-signature-3": 4,
    "hw-signature-4": 4,
    "bw-signature-4": 4,
    "hww-signature-4": 4,
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
    # below the degree these identities need: the cyclic2 axioms (16 FAIL in
    # antipode-ideal/left/right), the cyclic2 derived suite (64 FAIL) and
    # manin (27 FAIL) print FAIL for identities that hold and pass at D=4,
    # and so does the bilinear-1235 derived suite at D=2 (20 FAIL), which
    # passes at D=3; its twist Q = [[4, 5], [-1, -1]] is not I, so its tsu
    # and Rus rows show the X = Q^-1 U Q they are stated through.
    # That is ROADMAP item 2's bug, pinned byte for byte until item 15 makes
    # these rows UNCERTIFIED on purpose; ahmn(3,2) gives 12 UNCERTIFIED
    "axioms-hw-cyclic2-D3": ["--suite", "axioms", "FORM:cyclic2", "--degree", "3"],
    "derived-cyclic2-D3": ["--suite", "derived", "FORM:cyclic2", "--degree", "3"],
    "derived-bilinear-1235-D2": ["--suite", "derived", "FORM:bilinear-1235", "--degree", "2"],
    "manin-D3": ["--suite", "manin", "--degree", "3"],
    "axioms-ahmn-3-2-D3": [
        "--suite", "axioms", "--algebra", "ahmn", "--m", "3", "--n", "2", "--degree", "3"
    ],
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

# u and s matric generators (n = 2) plus free generators
CORE_ALPHABET = Alphabet(
    matric_family("u", 2) + matric_family("s", 2) + [Generator.free("x"), Generator.free("y")]
)
CORE_COEFFS = (1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2), Fraction(3, 5))
CORE_SEEDS = range(40)

METHOD_CLASSES = (NcPoly, TensorSquare, PolyMatrix)
OPERATORS = ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__matmul__", "__eq__")

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
    "systems": {
        "ahmn-3-2": "f28addf6bc48d779b46e236ff5ceec53adadbc869a252a6cbbb8db5db4872626",
        "bw-cyclic2": "6fa1f568dc02bf4bbb3214f626b088491b4249efd8569364449a843c36a89223",
        "bw-signature-3": "157d00b2b8f5e34365442f127d9b842e5259f0c51f92170beba8631198fea8c9",
        "bw-signature-4": "8c5091a739dba2c6b75f24ed938a9f6f0d0d7683c5405c158137326b69cb4245",
        "hb-bilinear-1235": "932b31394463ac118f66414e0821c5fd650f602d9aae3c9036d59bdec46adad8",
        "hb-symplectic2": "6d7eea7080bb2a924da6a0b71871c4aef1c6f4b26d39e4e177f7a1aefb1cde21",
        "hw-cyclic2": "bce3136e0c929ec68b198cd7da9f71a5a5755e0fb3f3c771d0d134ae771f3c7e",
        "hw-signature-3": "35f0bba4d1240bc07cea55e809751f300e568850db28a6373d60e88615561d72",
        "hw-signature-4": "726f1d9ec60c7a905f63cdf99637bd7c2d8d42a2e5b8ae7a2e3837d13da29927",
        "hww-cyclic2": "2087491adbe8b1bbfdeaf375fc391262b06c7196a0cc561e15b361ec396cc2fc",
        "hww-signature-3": "864cf8f59acf5e50d9d68b5c870f55df8f9ee9011f6478e463685c8d4362d0d0",
        "hww-signature-4": "4a6f7d086fa804699b375f36e37c1b96e52298f55bd6061434a70aa2a97861ae"
    },
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
        "axioms-ahmn-3-2-D3": {
            "exit": 2,
            "lines": 45,
            "stdout_sha256": "18e481be5f68cfa1b7d41306d8f1b1c3c133989b7403b3e26631730f2a2686af"
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
            "exit": 0,
            "lines": 53,
            "stdout_sha256": "106a025b1f8b1ecdbc2ab90d7dbcb75a88bb80259f7597c8324483a183a4bdf4"
        },
        "axioms-hw-cyclic2": {
            "exit": 0,
            "lines": 65,
            "stdout_sha256": "e3f7eafe42683a351dd52c3311273861c2d5ea573567d48accddd4ecbe0e0e89"
        },
        "axioms-hw-cyclic2-D3": {
            "exit": 1,
            "lines": 65,
            "stdout_sha256": "b58782517153db9d911abbf5db08e989a162955569aba140846412ad2e987ec5"
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
        "derived-bilinear-1235-D2": {
            "exit": 1,
            "lines": 21,
            "stdout_sha256": "11c7689688522fa594833213b92eff5425477f41c96e534f95eb697697a4ab7f"
        },
        "derived-cyclic2": {
            "exit": 0,
            "lines": 65,
            "stdout_sha256": "676b63344e8105e3b40da8c8ba1452456c4204afbc89bfe86cb524b83315d2a7"
        },
        "derived-cyclic2-D3": {
            "exit": 1,
            "lines": 65,
            "stdout_sha256": "f19f6ac517359ff356ce7aeeb27fb6ee1ee43866ab275fd1051da60596e59f00"
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
        "manin-D3": {
            "exit": 1,
            "lines": 28,
            "stdout_sha256": "1d1152a164b525bb49d280214c339c5551d7aa163dac0ee129bd6ae41892c822"
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
    },
    "core": {
        "seed-00": "de6ef02a54af9fdb90fd9e59477c10ac9ccfca4a310e317e6d3fe9b412e21a38",
        "seed-01": "5f522458f578173c46451ca32ff69e26f9654b51ca13696049d288616bd2e685",
        "seed-02": "09e0a6eb9324dc22cef80142d5f2435062a4ea4a54251eebfa483e2652c43306",
        "seed-03": "df4e95ef14ba47df521a7dc626454e5705251ef149a565f79534caa553587741",
        "seed-04": "8c49be4ed6d92057f9234922ab1cd6715c202d79d114da48268cc146e63a77a6",
        "seed-05": "dce24c17236a8d2e6bd1b3ad8d8b28d58cafe66b964cbc4cddbde9fbfca756f0",
        "seed-06": "90b71e173af5189d4d5f783692eb39dc16e4a1716ac69c6729eba75f9c3dffb2",
        "seed-07": "141a6aaae6c20c4d0c9321a52350d9e74d9d97779f56e07aff138b244dfa8359",
        "seed-08": "c8b51888eebbc6acba0be9822365d79b0e1055368d951865fbe3ec4674fa6817",
        "seed-09": "f180a3bedec083ffb79a8e742df158583dd32cefa4babb940ae99467a3f7e40c",
        "seed-10": "e98c70129d97981b91948feb56ee557b75472cca0b97df14ef66a778a9cc5475",
        "seed-11": "c087fc9f68a8e8029804a190a8aad111199372d35e386c17c6ab2f2ac7d420cd",
        "seed-12": "cca855b93a861cf5804d33efc1258938ad886d648b625df1f042c78def8944d8",
        "seed-13": "b3b8343ea736a78cf1419d48b0f66b0c35ce4b320d7c86a66148c65b2708ca05",
        "seed-14": "bf2a7882c4ed9f560f0ffaa72587a275e1b5a5e75be3e331da2ea0c4364f9a23",
        "seed-15": "2e50ae41ac7d55c4ab1c86ce92bbc02e6f3b27b4d4fcd9a85601bc2818a66122",
        "seed-16": "52f7767997ef426520c2528ac418ce48ed6756de061fa335eb374eb55d65a898",
        "seed-17": "b835e948d3af686c1bea8c7b536487f0cc43e818d37e635ae3f6a329cc4ca6f3",
        "seed-18": "da66a1cb738e3e44f9447cb33db33769a63e122cb667b667e4b1ba0a1d12c4ed",
        "seed-19": "f3cf6862b416774cb74edae2543399ba109b62d3fb706090e99533db6df9cb0d",
        "seed-20": "f3db993c0f913c538aae68c49f4f07612d14e5e3eb83e71e4e43c4f1333ca6ce",
        "seed-21": "55df92e622886020e011fe405ec813a1b851aa6678a76aa0ee94c2b24082be8c",
        "seed-22": "adf06570bb66cac9695d647e00fb447b452dc4819444419453cc78e203337e29",
        "seed-23": "e3d4a48b7420c6e91a370f1d3d518170532c7f9028a13a34764ed7d6413e6ec2",
        "seed-24": "656fe64591b0bb5a6849a97cd55d4f823c86c16e5c4f0b5c5187258d7a3ca370",
        "seed-25": "c93325e1a37c256e301304d77e40f13f617929a72d9e5799e0eec5bc47451d55",
        "seed-26": "663e58b1ee604528b04fbd2d79e48db40aa9d39c3a171621f4fdf73a8fd1855e",
        "seed-27": "c1b2046435365a4d042d57320466cdeafb0698b7cf2897cf2d9da0343201b10a",
        "seed-28": "9f784431a206734658f879249f2333751ea30d92b05f36a7ad958a8ca6d9bb34",
        "seed-29": "59c93499f07fb1306652843c365f0d544ca57bf8ff5b2ebc913f60065a194334",
        "seed-30": "70df5a00076f0c50f28bfc7b4230c3a8c855196fbbe5ef939018a182a5fef95c",
        "seed-31": "7e1dd5f5fb074b9bc1c1243d40ab8e04baee52f022d6cce64d16ad7d18c39c30",
        "seed-32": "decde00a1845918796a7848c04c5c6c279b742e51d7d7b0b25e458124109c071",
        "seed-33": "66bf3c8488ab31f916169f1817eb2deeeb7f83e3963c4a2dbee808720ff4b7f1",
        "seed-34": "1794309e0587c1e77f520bc80ecd08f59901837f67947946b5beb83804711f63",
        "seed-35": "4fb1931d17a617022855b94bcdaa033f5b30e73224825768573c04445bdc56b6",
        "seed-36": "5511b320dd2be5f71696cb73f0017595748805fe9034808217f9dff5e3b4427a",
        "seed-37": "f99b7d6385465dcff11f2eb7d176de49ee54962c0bf785947d86b2e018bd2af0",
        "seed-38": "4535e30a531290ceeb862c058b6d00af32ac03d5b7080307ced087f6e07c5776",
        "seed-39": "24ea236a2c3784b0ac989ac3919b5d80ce6250f7596f6536e5f9a5c87d4d85b1"
    },
    "api": {
        "Alphabet": "(generators)",
        "AmbiguousTwistError": "class",
        "CheckResult": "(name, status, detail='')",
        "FormFileError": "class",
        "Generator": "(family, row=0, col=0, name='')",
        "HomCandidate": "(label, source, target, images)",
        "HopfStructure": "(delta, counit, antipode)",
        "InternalConsistencyError": "class",
        "Matrix": "(rows, cols, entries)",
        "MissingImageError": "(gen)",
        "MultilinearForm": "(dim, arity, entries)",
        "NcPoly": "(alphabet, terms=None)",
        "NotCertifiedError": "(degree, certified)",
        "NotInvariantError": "class",
        "PolarSolution": "(particular, kernel_basis)",
        "PolyMatrix": "(alphabet, rows)",
        "Presentation": "(kind, n, m, alphabet, generators, relations, relation_labels, structure=None, form=None)",
        "ProbeReport": "(witness_ok, commutator_certified, degree, verdict, details=<factory>)",
        "RepresentationReport": "(results, witness_images, witness_distinct)",
        "RewriteSystem": "(alphabet, rules, degree_bound, complete_through)",
        "Rule": "(lead, tail)",
        "SUITES": "dict",
        "Scalar": "fractions.Fraction",
        "SingularMatrixError": "class",
        "Status": "enum PASS FAIL UNCERTIFIED",
        "SuiteInputs": "(form=None, algebra=None, polar=None, m=None, n=None, degree=None)",
        "TensorSquare": "(alphabet, terms=None)",
        "TwistReport": "(nondegenerate, q, preregular, twist_ambiguous=False)",
        "__version__": "str",
        "all_pass": "(results)",
        "analyze": "(w)",
        "base_change": "(w, g)",
        "bilinear_iso_suite": "(b, degree)",
        "build_ahmn": "(m, n)",
        "build_algebra": "(inputs)",
        "build_bw": "(w)",
        "build_hb": "(b)",
        "build_hw": "(w)",
        "build_hww": "(w, wt)",
        "check_antipode": "(pres, degree, system=None)",
        "check_condition_i_prime": "(w)",
        "check_coproduct": "(pres, degree, system=None)",
        "check_counit": "(pres)",
        "check_hom": "(hom, degree, system=None)",
        "check_invariance": "(w, q)",
        "check_left_inverse_identity": "(pres, wt, degree, system=None)",
        "check_representation": "(pres, images, witness=None)",
        "complete": "(relations, degree_bound, on_progress=None)",
        "coproduct_image": "(p, images, *, target=None)",
        "default_degree": "(m)",
        "derived_relations_suite": "(pres, wt, degree, system=None)",
        "diagonal_iso_suite": "(n, m, degree)",
        "dump_form": "(w)",
        "dump_presentation": "(pres)",
        "flattening": "(w, slot)",
        "form_from_obj": "(obj)",
        "form_to_obj": "(w)",
        "format_matrix": "(m)",
        "format_rational": "(q)",
        "hopf_axiom_suite": "(pres, degree, system=None)",
        "hw_to_hww_hom": "(hw, hww)",
        "ideal_member": "(p, system)",
        "in_polar": "(wt, w)",
        "is_invertible": "(m)",
        "is_one_site_nondegenerate": "(w)",
        "is_q_cyclic": "(w, q)",
        "kernel_basis": "(a)",
        "load_form": "(path)",
        "load_form_text": "(text, where='form')",
        "m2_iso_homs": "(b)",
        "make_bilinear": "(rows)",
        "make_orthogonal": "(n, m)",
        "make_signature": "(m)",
        "manin_suite": "(degree, system=None)",
        "mat_inv": "(m)",
        "mat_vec": "(a, v)",
        "matric_family": "(family, n)",
        "noninjectivity_probe": "(w, wt, degree)",
        "normal_form": "(p, system)",
        "pair_reduction_suite": "(pres, degree, system=None)",
        "parse_generator_token": "(text)",
        "parse_poly": "(alphabet, text)",
        "parse_presentation": "(text)",
        "parse_rational": "(text)",
        "parse_tensor": "(alphabet, text)",
        "pi_q": "(w, q)",
        "polar": "(w)",
        "polar_contraction": "(wt, w)",
        "q_inverse_from_polar": "(w, wt)",
        "rat": "(num, den=1)",
        "rref": "(m)",
        "run_suite": "(name, inputs)",
        "save_form": "(path, w)",
        "solve_affine": "(a, b)",
        "substitute": "(p, images, *, antihom=False, target=None)",
        "system_for": "(pres, degree, on_progress=None)",
        "theta_iso_homs": "(n, m)",
        "twisting_element": "(w)",
        "unitriangular_free_images": "(pres)",
        "unresolved_overlaps": "(system)",
        "worst_status": "(results)"
    },
    "methods": {
        "NcPoly.__add__": "(self, other)",
        "NcPoly.__eq__": "(self, other)",
        "NcPoly.__hash__": "hashable",
        "NcPoly.__mul__": "(self, other)",
        "NcPoly.__neg__": "(self)",
        "NcPoly.__rmul__": "(self, other)",
        "NcPoly.__sub__": "(self, other)",
        "NcPoly.alphabet": "member_descriptor",
        "NcPoly.constant": "(self)",
        "NcPoly.degree": "(self)",
        "NcPoly.from_gens": "(alphabet, gens, c=Fraction(1, 1))",
        "NcPoly.from_word": "(alphabet, word, c=Fraction(1, 1))",
        "NcPoly.is_zero": "(self)",
        "NcPoly.leading_coeff": "(self)",
        "NcPoly.leading_word": "(self)",
        "NcPoly.monic": "(self)",
        "NcPoly.scale": "(self, c)",
        "NcPoly.terms": "member_descriptor",
        "NcPoly.to_str": "(self)",
        "NcPoly.unit": "(alphabet, c=Fraction(1, 1))",
        "NcPoly.zero": "(alphabet)",
        "PolyMatrix.T": "property",
        "PolyMatrix.__add__": "(self, other)",
        "PolyMatrix.__eq__": "(self, value, /)",
        "PolyMatrix.__hash__": "hashable",
        "PolyMatrix.__matmul__": "(self, other)",
        "PolyMatrix.__sub__": "(self, other)",
        "PolyMatrix.alphabet": "member_descriptor",
        "PolyMatrix.entries": "(self)",
        "PolyMatrix.family": "(alphabet, family, n)",
        "PolyMatrix.identity": "(alphabet, n)",
        "PolyMatrix.images": "(self, family)",
        "PolyMatrix.of": "(alphabet, images, family, n)",
        "PolyMatrix.rows": "member_descriptor",
        "PolyMatrix.scalar": "(alphabet, m)",
        "TensorSquare.__add__": "(self, other)",
        "TensorSquare.__eq__": "(self, other)",
        "TensorSquare.__hash__": "unhashable",
        "TensorSquare.__mul__": "(self, other)",
        "TensorSquare.__neg__": "(self)",
        "TensorSquare.__rmul__": "(self, other)",
        "TensorSquare.__sub__": "(self, other)",
        "TensorSquare.alphabet": "member_descriptor",
        "TensorSquare.is_zero": "(self)",
        "TensorSquare.of": "(left, right)",
        "TensorSquare.scale": "(self, c)",
        "TensorSquare.terms": "member_descriptor",
        "TensorSquare.to_str": "(self)",
        "TensorSquare.unit": "(alphabet, c=Fraction(1, 1))"
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


def _random_poly(rng, max_terms, max_len):
    """Up to ``max_terms`` random words of length <= ``max_len``; a repeated
    word adds its coefficients, so terms may cancel."""
    gens = CORE_ALPHABET.generators
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        word = CORE_ALPHABET.word(rng.choice(gens) for _ in range(rng.randint(0, max_len)))
        terms[word] = terms.get(word, 0) + rng.choice(CORE_COEFFS)
    return NcPoly(CORE_ALPHABET, terms)


def _matric_delta():
    """delta(g[i,j]) = sum_k g[i,k] # g[k,j], with the factors flipped for s;
    free generators are primitive."""
    a = CORE_ALPHABET
    delta = {}
    for g in a.generators:
        if g.family == "free":
            terms = {(a.char(g), ""): 1, ("", a.char(g)): 1}
        else:
            terms = {}
            for k in (1, 2):
                left = a.char(Generator(g.family, g.row, k))
                right = a.char(Generator(g.family, k, g.col))
                terms[(right, left) if g.family == "s" else (left, right)] = 1
        delta[g] = TensorSquare(a, terms)
    return delta


def _sorted_terms(x) -> list:
    """The terms of a polynomial or tensor square, leading term first."""
    return [(k, x.terms[k]) for k in x._leading_first(x.terms)]


def core_text(seed: int) -> str:
    """Canonical text of the arithmetic on one seeded pair (p, q)."""
    rng = random.Random(seed)
    a = CORE_ALPHABET
    p, q = _random_poly(rng, 6, 4), _random_poly(rng, 6, 4)
    # g -> g + noise, so few images vanish; the counit's off-diagonal ones do
    images = {g: NcPoly.from_gens(a, [g]) + _random_poly(rng, 2, 2) for g in a.generators}
    counit = {g: NcPoly.unit(a, int(g.row == g.col)) for g in a.generators}
    t, t2, unit2 = TensorSquare.of(p, q), TensorSquare.of(q, p), TensorSquare.unit(a, 2)
    values = {
        "p": p,
        "q": q,
        "p+q": p + q,
        "p-q": p - q,
        "-p": -p,
        "p*q": p * q,
        "q*p": q * p,
        "2*p": 2 * p,
        "p.scale(0)": p.scale(0),
        "p.monic()": p.monic(),
        "substitute": substitute(p, images),
        "substitute-antihom": substitute(p, images, antihom=True),
        "substitute-counit": substitute(p, counit, target=a),
        "p#q": t,
        "p#q+q#p": t + t2,
        "p#q-q#p": t - t2,
        "-p#q": -t,
        "p#q*q#p": t * t2,
        "p#q.scale(-1/3)": t.scale(Fraction(-1, 3)),
        "unit2*p#q": unit2 * t,
        "p#q*unit2": t * unit2,
        "coproduct": coproduct_image(p, _matric_delta()),
    }
    lines = []
    for name, v in values.items():
        lines += [f"{name}: {v.to_str()}", f"{name} repr: {v!r}"]
    spell = a.word_token
    lines += [
        # words spelled by token: the letter an alphabet gives a generator
        # is internal to the engine, the order of the terms is not
        f"sorted_terms: {[(spell(w), c) for w, c in _sorted_terms(p)]!r}",
        f"tensor sorted_terms: {[((spell(k[0]), spell(k[1])), c) for k, c in _sorted_terms(t)]!r}",
        f"poly_to_str: {q.to_str()}",
        f"degree: {p.degree()} constant: {p.constant()}",
        f"round trip: {parse_poly(a, p.to_str()) == p}",
        f"p+q == q+p: {p + q == q + p}",
    ]
    return "\n".join(lines) + "\n"


def _signature(fn, drop_first=False) -> str:
    """The call signature without annotations."""
    try:
        sig = inspect.signature(fn)
    except ValueError:
        return "-"
    params = [p.replace(annotation=p.empty) for p in sig.parameters.values()]
    return str(sig.replace(parameters=params[drop_first:], return_annotation=sig.empty))


def _api_entry(obj) -> str:
    if isinstance(obj, EnumMeta):
        return "enum " + " ".join(obj.__members__)
    if not callable(obj):
        return type(obj).__name__
    if not obj.__module__.startswith("hopfw."):
        return f"{obj.__module__}.{obj.__qualname__}"
    if isinstance(obj, type):
        # the constructor this package defines, if any
        for k in obj.__mro__:
            if k.__module__.startswith("hopfw.") and "__init__" in vars(k):
                return _signature(vars(k)["__init__"], drop_first=True)
        return "class"
    return _signature(obj)


def api_entries() -> dict:
    return {name: _api_entry(getattr(hopfw, name)) for name in sorted(hopfw.__all__)}


def method_entries() -> dict:
    out = {}
    for cls in METHOD_CLASSES:
        for name in sorted(dir(cls)):
            if name.startswith("_") and name not in OPERATORS + ("__hash__",):
                continue
            attr = getattr(cls, name)
            if name == "__hash__":
                out[f"{cls.__name__}.{name}"] = "hashable" if attr else "unhashable"
            elif callable(attr):
                out[f"{cls.__name__}.{name}"] = _signature(attr)
            else:
                out[f"{cls.__name__}.{name}"] = type(attr).__name__
    return out


def current(workdir):
    """The values this file pins, computed from the code as it stands."""
    return {
        "presentations": {
            key: _sha(dump_presentation(build())) for key, build in PRESENTATIONS.items()
        },
        "systems": {
            key: _sha(system_for(PRESENTATIONS[key](), SYSTEM_DEGREES[key]).dump())
            for key in PRESENTATIONS
        },
        "verify": {key: _run_verify(args, workdir) for key, args in VERIFY_CALLS.items()},
        "forms": {key: _sha(form_text(_form_by_key(key))) for key in FORM_KEYS},
        "solvers": {key: _sha(solver_text(key)) for key in SOLVER_KEYS},
        "core": {f"seed-{seed:02d}": _sha(core_text(seed)) for seed in CORE_SEEDS},
        "api": api_entries(),
        "methods": method_entries(),
    }


@pytest.mark.parametrize("key", sorted(PRESENTATIONS))
def test_presentation_dump_is_pinned(key):
    pres = PRESENTATIONS[key]()
    text = dump_presentation(pres)
    assert _sha(text) == GOLDEN["presentations"][key]
    # the dump reads back to the same presentation, less its form
    back = parse_presentation(text)
    assert back == dataclasses.replace(pres, form=None)
    assert dump_presentation(back) == text


@pytest.mark.parametrize("key", sorted(PRESENTATIONS))
def test_system_dump_is_pinned(key):
    system = system_for(PRESENTATIONS[key](), SYSTEM_DEGREES[key])
    text = system.dump()
    assert _sha(text) == GOLDEN["systems"][key]
    assert unresolved_overlaps(system) == []
    back = RewriteSystem.parse(text)
    assert back == system
    assert back.dump() == text
    assert_scan_matches_slices(back, random.Random(key))


@pytest.mark.parametrize("key", sorted(VERIFY_CALLS))
def test_verify_output_is_pinned(key, tmp_path):
    assert _run_verify(VERIFY_CALLS[key], str(tmp_path)) == GOLDEN["verify"][key]


@pytest.mark.parametrize("key", FORM_KEYS)
def test_form_analysis_and_polar_are_pinned(key):
    assert _sha(form_text(_form_by_key(key))) == GOLDEN["forms"][key]


@pytest.mark.parametrize("key", FORM_KEYS)
def test_analysis_of_every_slot_agrees_with_its_parts(key):
    # hopfw analyze builds and reduces each flattening once for both answers
    w = _form_by_key(key)
    assert _analyze_every_slot(w) == (analyze(w), check_condition_i_prime(w))


@pytest.mark.parametrize("key", FORM_KEYS)
def test_polar_dimension_is_read_off_nondegeneracy(key):
    # what hopfw analyze prints without building the polar space
    w = _form_by_key(key)
    sol = polar(w)
    if analyze(w).nondegenerate:
        assert sol.affine_dimension() == w.dim**w.arity - w.dim * w.dim
    else:
        assert sol is None


def test_random_forms_cover_every_twist_outcome():
    outcomes = {_twist_text(_random_form(seed)).split(":")[0] for seed in RANDOM_FORM_SEEDS}
    assert {"None", "AmbiguousTwistError"} <= outcomes and len(outcomes) > 2


@pytest.mark.parametrize("key", SOLVER_KEYS)
def test_solver_output_is_pinned(key):
    assert _sha(solver_text(key)) == GOLDEN["solvers"][key]


@pytest.mark.parametrize("seed", CORE_SEEDS)
def test_core_arithmetic_is_pinned(seed):
    assert _sha(core_text(seed)) == GOLDEN["core"][f"seed-{seed:02d}"]


def test_public_api_is_pinned():
    assert api_entries() == GOLDEN["api"]


def test_public_methods_are_kept():
    now = method_entries()
    assert {k: now.get(k) for k in GOLDEN["methods"]} == GOLDEN["methods"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        json.dump(current(tmp), sys.stdout, indent=4, sort_keys=True)
    print()
