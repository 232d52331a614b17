#!/usr/bin/env python3
"""Write benchmark/expected.json: the frozen oracle values of the benchmark.

    python3 benchmark/freeze.py

The values are system and presentation dump hashes, rule counts, polar
dimensions, twisting elements and (name, status) verdict lists.  Dumps and
verdicts must not change under a refactor or an optimisation, so rerun this
only for a change that is meant to alter them, and say so in that change.
Verdicts are frozen at D >= 4 only, where every check certifies.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402

H = bench.H


def system_entry(system) -> dict:
    return {"rules": len(system.rules), "sha256": bench.sha256(system.dump())}


def verdicts(results) -> list[list[str]]:
    return [[r.name, r.status.value] for r in results]


def main() -> int:
    e3, c2 = H.make_signature(3), bench.cyclic2()
    pe3, pc2 = H.build_hw(e3), H.build_hw(c2)
    se3_5 = H.complete(list(pe3.relations), 5)
    sc2_8 = H.complete(list(pc2.relations), 8)
    se3_4 = H.complete(list(pe3.relations), 4)
    exp: dict = {
        "systems": {
            "hw-signature3-D5": system_entry(se3_5),
            "hw-cyclic2-D8": system_entry(sc2_8),
            "hw-signature3-D4": system_entry(se3_4),
        },
        "presentations": {
            "hw-signature3": bench.sha256(H.dump_presentation(pe3)),
            "hw-cyclic2": bench.sha256(H.dump_presentation(pc2)),
        },
        "polar_dims": {},
        "twists": {},
        "verdicts": {
            "axioms-hw-signature3-D5": verdicts(H.hopf_axiom_suite(pe3, 5, se3_5)),
            "derived-hw-signature3-D5": verdicts(
                H.derived_relations_suite(pe3, H.polar(e3).particular, 5, se3_5)),
            "manin-D5": verdicts(H.manin_suite(5, se3_5)),
            "axioms-hw-cyclic2-D8": verdicts(H.hopf_axiom_suite(pc2, 8, sc2_8)),
            "derived-hw-cyclic2-D8": verdicts(
                H.derived_relations_suite(pc2, H.polar(c2).particular, 8, sc2_8)),
        },
    }
    bench.WORK.mkdir(exist_ok=True)
    form_path = bench.WORK / "freeze-cyclic2.json"
    H.save_form(str(form_path), c2)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = bench.cli_main(["verify", "--suite", "axioms", str(form_path),
                                   "--algebra", "hw", "--degree", "6"])
    finally:
        form_path.unlink()
    if code != 0:
        sys.exit(f"hopfw verify exited {code}")
    exp["verdicts"]["cli-axioms-hw-cyclic2-D6"] = [
        list(v) for v in bench.parse_verdict_lines(out.getvalue())]

    for name, make in bench.FIXED_FORMS.items():
        w = make()
        report, sol = H.analyze(w), H.polar(w)
        exp["twists"][name] = H.format_matrix(report.q)
        exp["polar_dims"][name] = sol.affine_dimension()
        for kind in bench.builders_for(name, w):
            pres = bench.BUILDERS[kind](w, sol.particular)
            exp["presentations"][f"{kind}-{name}"] = bench.sha256(H.dump_presentation(pres))
        del sol

    bench.EXPECTED_PATH.write_text(json.dumps(exp, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {bench.EXPECTED_PATH.relative_to(bench.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
