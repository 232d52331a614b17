"""Batch command-line interface.

Commands::

    hopfw analyze FORM                      # nondegeneracy / twist / polar report
    hopfw present --algebra hw --form FORM  # write a presentation dump
    hopfw gb PRESENTATION --degree D        # complete to a truncated rewriting system
    hopfw nf SYSTEM --poly "u[1,1]*s[1,1]"  # normal form against a saved system
    hopfw verify --suite axioms --form FORM # per-identity PASS/FAIL/UNCERTIFIED
    hopfw example cyclic2                   # built-in example forms

Suites: axioms, derived, pair-reduction, manin, diagonal-iso, bilinear-iso,
noninjectivity.  Each reads only the inputs it declares in ``hopf.SUITES``;
a form file, ``--algebra``, ``--polar``, ``--m`` or ``--n`` that the chosen
suite does not read is a usage error.  ``present`` reads ``--form`` for bw,
hw and hb, ``--form`` and ``--polar`` for hww, and ``--m`` and ``--n`` for
ahmn; any other of them is a usage error too (``hopf.refuse_unread``).

``analyze`` refuses a form whose flattenings would hold more than
``ANALYZE_MAX_ENTRIES`` entries, before it builds any.

Exit codes: 0 success / all checks pass, 1 a check failed, 2 at least one
check was uncertified at the degree bound (none failed), 3 usage or input
parse error.  Without ``--degree`` the truncation is twice the arity.  A
FAIL is a value that must vanish and did not: exact for the counit, a
representation or the probe's witness, but for a normal form only "no
certificate at this truncation", not a refutation (ROADMAP item 2; the
axioms of cyclic2 fail 16 of 64 checks at ``--degree 3`` and pass at 4).
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import math
import re
import sys

from .exactnum import format_matrix, format_rational, is_invertible, rat
from .formats import (
    FormFileError,
    dump_form,
    dump_presentation,
    load_form,
    parse_presentation,
)
from .forms import (
    MultilinearForm,
    _analyze_every_slot,
    in_polar,
    make_bilinear,
    make_orthogonal,
    make_signature,
)
from .hopf import (
    _ALGEBRAS,
    SUITES,
    Status,
    SuiteInputs,
    build_algebra,
    default_degree,
    refuse_unread,
    run_suite,
    system_for,
    worst_status,
)
from .ncalg import parse_poly
from .rewrite import NotCertifiedError, RewriteSystem, normal_form

OK = 0
REFUTED = 1
UNCERTIFIED = 2
USAGE = 3

# the most entries ``analyze`` builds: the m flattenings of a form of dim n
# and arity m hold m * n^m entries.  signature-6 holds 279 936 of them and
# runs in under a second; signature-7 would hold 5 764 801
ANALYZE_MAX_ENTRIES = 1_000_000


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad flags; the contract here is 3."""

    def error(self, message):
        self.exit(USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    p = _Parser(prog="hopfw", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="nondegeneracy, twist and polar report")
    pa.add_argument("form", help="form file (JSON)")
    pa.set_defaults(func=_cmd_analyze)

    pp = sub.add_parser("present", help="build a presentation and dump it")
    pp.add_argument("--algebra", required=True, choices=tuple(_ALGEBRAS))
    pp.add_argument("--form", help="form file (all algebras except ahmn)")
    pp.add_argument("--polar", help="polar tensor file (hww; default: canonical member)")
    pp.add_argument("--m", type=int, help="arity (ahmn)")
    pp.add_argument("--n", type=int, help="dimension (ahmn)")
    pp.add_argument("--out", help="output file (default stdout)")
    pp.set_defaults(func=_cmd_present)

    pg = sub.add_parser("gb", help="complete a presentation through a degree bound")
    pg.add_argument("presentation", help="presentation dump file")
    pg.add_argument("--degree", type=int, help="truncation degree")
    pg.add_argument("--out", help="output file (default stdout)")
    pg.set_defaults(func=_cmd_gb)

    pn = sub.add_parser("nf", help="normal form of a polynomial against a saved system")
    pn.add_argument("system", help="system dump file")
    pn.add_argument("--poly", required=True, help="polynomial, e.g. 'u[1,1]*s[1,1] - 1'")
    pn.set_defaults(func=_cmd_nf)

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("--suite", required=True, choices=tuple(SUITES))
    pv.add_argument("form", nargs="?", help="form file (suite-dependent)")
    pv.add_argument("--algebra", choices=tuple(_ALGEBRAS), help="axioms (default hw)")
    pv.add_argument("--polar", help="polar tensor file")
    pv.add_argument("--degree", type=int)
    pv.add_argument("--m", type=int, help="arity (ahmn / diagonal-iso)")
    pv.add_argument("--n", type=int, help="dimension (ahmn / diagonal-iso)")
    pv.set_defaults(func=_cmd_verify)

    pe = sub.add_parser("example", help="write a built-in example form")
    pe.add_argument(
        "name", help="signature-M | orthogonal-N-M | symplectic2 | cyclic2"
    )
    pe.add_argument("--out", help="output file (default stdout)")
    pe.set_defaults(func=_cmd_example)

    return p


def _write_out(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _resolve_degree(flag: int | None) -> int | None:
    """--degree, which must be positive; None means twice the arity."""
    if flag is not None and flag < 1:
        raise ValueError("--degree must be positive")
    return flag


def _bool(v: bool) -> str:
    return "true" if v else "false"


# ---------------------------------------------------------------------------
# commands


def _cmd_analyze(args) -> int:
    w = load_form(args.form)
    entries = w.arity * w.dim**w.arity
    if entries > ANALYZE_MAX_ENTRIES:
        raise ValueError(
            f"the {w.arity} flattenings of a form of dim {w.dim} and arity {w.arity} would hold "
            f"{entries} entries, above the bound of {ANALYZE_MAX_ENTRIES}"
        )
    report, all_slots = _analyze_every_slot(w)
    lines = [f"dim: {w.dim}", f"arity: {w.arity}"]
    lines.append(f"one_site_nondegenerate: {_bool(report.nondegenerate)}")
    lines.append(f"all_slots_nondegenerate: {_bool(all_slots)}")
    if report.twist_ambiguous:
        lines.append("twist: ambiguous")
    elif report.q is None:
        lines.append("twist: none")
    else:
        lines.append(f"twist: {format_matrix(report.q)}")
        lines.append(f"twist_invertible: {_bool(is_invertible(report.q))}")
    lines.append(f"preregular: {_bool(report.preregular)}")
    if report.nondegenerate:
        # the last-slot flattening has rank n, so each of the n rows of a
        # polar tensor ranges over an n^(m-1) - n dimensional affine space
        lines.append(f"polar_affine_dimension: {w.dim ** w.arity - w.dim ** 2}")
        for c in (rat(1, math.factorial(w.arity - 1)), rat(1, w.arity)):
            verdict = "member" if in_polar(w.scale(c), w) else "mismatch"
            lines.append(f"self_scale[{format_rational(c)}]: {verdict}")
    else:
        lines.append("polar_affine_dimension: none")
    print("\n".join(lines))
    return OK


def _inputs(args, suite: str | None = None, degree: int | None = None) -> SuiteInputs:
    """The form, --algebra, --polar, --m and --n given on the command line;
    unread ones are refused while form and polar are file names, unopened."""
    given = SuiteInputs(args.form, args.algebra, args.polar, args.m, args.n, degree)
    refuse_unread(given, suite)
    return dataclasses.replace(
        given,
        form=load_form(args.form) if args.form else None,
        polar=load_form(args.polar) if args.polar else None,
    )


def _cmd_present(args) -> int:
    _write_out(dump_presentation(build_algebra(_inputs(args))), args.out)
    return OK


def _cmd_gb(args) -> int:
    with open(args.presentation, "r", encoding="utf-8") as fh:
        pres = parse_presentation(fh.read())
    degree = _resolve_degree(args.degree) or default_degree(pres.m)

    def progress(deg: int, nrules: int) -> None:
        print(f"degree {deg}: {nrules} rules", file=sys.stderr)

    system = system_for(pres, degree, on_progress=progress)
    _write_out(system.dump(), args.out)
    return OK


def _cmd_nf(args) -> int:
    with open(args.system, "r", encoding="utf-8") as fh:
        system = RewriteSystem.parse(fh.read())
    poly = parse_poly(system.alphabet, args.poly)
    try:
        nf = normal_form(poly, system)
    except NotCertifiedError as exc:
        print(f"uncertified: {exc}", file=sys.stderr)
        return UNCERTIFIED
    print(nf.to_str())
    return OK


def _print_results(results) -> None:
    for r in results:
        line = f"{r.status.value} {r.name}"
        if r.detail:
            line += f" ({r.detail})"
        print(line)
    tally = collections.Counter(r.status for r in results)
    print(
        f"summary: {tally[Status.PASS]} pass, {tally[Status.FAIL]} fail, "
        f"{tally[Status.UNCERTIFIED]} uncertified"
    )


def _exit_code(results) -> int:
    """A failed check outranks an uncertified one, which outranks a pass."""
    codes = {Status.FAIL: REFUTED, Status.UNCERTIFIED: UNCERTIFIED, Status.PASS: OK}
    return codes[worst_status(results)]


def _cmd_verify(args) -> int:
    inputs = _inputs(args, args.suite, _resolve_degree(args.degree))
    results = run_suite(args.suite, inputs)
    _print_results(results)
    verdict = SUITES[args.suite].verdict
    if verdict is not None:
        print(f"verdict: {verdict(results, inputs)}")
    return _exit_code(results)


_EXAMPLE_SIG = re.compile(r"signature-(\d+)\Z")
_EXAMPLE_ORTH = re.compile(r"orthogonal-(\d+)-(\d+)\Z")


def _example_form(name: str) -> MultilinearForm:
    if name == "symplectic2":
        return make_bilinear([[0, 1], [-1, 0]])
    if name == "cyclic2":
        return MultilinearForm(
            2, 3, {(1, 1, 2): rat(1), (1, 2, 1): rat(1), (2, 1, 1): rat(1)}
        )
    m = _EXAMPLE_SIG.match(name)
    if m:
        return make_signature(int(m.group(1)))
    m = _EXAMPLE_ORTH.match(name)
    if m:
        return make_orthogonal(int(m.group(1)), int(m.group(2)))
    raise ValueError(f"unknown example {name!r}")


def _cmd_example(args) -> int:
    w = _example_form(args.name)
    _write_out(dump_form(w), args.out)
    return OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FormFileError, ValueError, OSError) as exc:
        print(f"hopfw: error: {exc}", file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
