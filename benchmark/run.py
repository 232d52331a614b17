#!/usr/bin/env python3
"""hopfw benchmark: three workloads that drive hopfw's public API and CLI.

    python3 benchmark/run.py --workload certify --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout: hopfw is imported from ``src/`` next to
this directory, never from an installed copy.  Workloads:

* ``certify`` -- the write path: build, complete, run the suites;
* ``query``   -- the read path: normal forms and membership against systems
  completed in set-up, plus ``hopfw nf`` through ``hopfw.cli.main``;
* ``forms``   -- exact linear algebra, the presentation builders and the
  presentation dump format, with no completion and no reduction.

One process, one thread, a closed loop with one client.  A run sets up
several times (``setup_s`` is the median), then repeats the workload body
("pass") until ``--seconds`` have gone by, with at least the workload's
``min_passes`` passes.  Every time is scaled by the reference ticks timed next to it (see
``Clock``), and each step or call is reported as its median over the passes.
Every output is checked, against frozen values in ``expected.json`` or
against oracles that need no frozen value.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
traced and untraced passes, records a span around every call the benchmark
makes into a hopfw layer, writes the spans to ``.benchwork/`` and reports the
per-layer metrics, each layer's self time and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import functools
import gc
import hashlib
import io
import json
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".benchwork"
EXPECTED_PATH = BENCH_DIR / "expected.json"


def _import_hopfw():
    if not (SRC / "hopfw" / "__init__.py").is_file():
        sys.exit(f"benchmark: no hopfw sources under {SRC}; run it from a checkout")
    sys.path.insert(0, str(SRC))
    import hopfw
    import hopfw.cli

    if Path(hopfw.__file__).resolve().parent != SRC / "hopfw":
        sys.exit(f"benchmark: imported hopfw from {hopfw.__file__}, not from {SRC}")
    return hopfw


H = _import_hopfw()
cli_main = H.cli.main

# name -> (unit, better).  BENCHMARK.json lists the same names; selftest.py
# checks that the two agree.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "run_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "pass_share": ("share", "higher"),
    "query_p50_ms": ("ms", "lower"),
    "query_p99_ms": ("ms", "lower"),
    "query_qps": ("1/s", "higher"),
    "cli_p50_ms": ("ms", "lower"),
}

# Spans the benchmark records, with the counts each one carries.
SPAN_COUNTS = {
    "rewrite.complete": ("rules", "tail_s"),
    "rewrite.normal_form": (),
    "rewrite.ideal_member": (),
    "rewrite.unresolved_overlaps": ("bad",),
    "rewrite.dump": ("bytes",),
    "rewrite.parse": (),
    "hopf.build": ("relations",),
    "hopf.suite": ("checks", "pass"),
    "forms.analyze": (),
    "forms.polar": ("kernel_dim_sum",),
    "forms.in_polar": (),
    "formats.dump_presentation": ("bytes",),
    "formats.parse_presentation": (),
    "cli.main": (),
}
LAYERS = ("rewrite", "hopf", "forms", "formats", "cli")
_COUNT_UNITS = {"tail_s": ("s", "lower"), "bytes": ("B", "lower"), "pass": ("count", "higher")}


def _per_layer_metrics() -> dict[str, tuple[str, str]]:
    out = {}
    for span, counts in SPAN_COUNTS.items():
        out[f"{span}.calls"] = ("count", "lower")
        out[f"{span}.busy_s"] = ("s", "lower")
        for c in counts:
            out[f"{span}.{c}"] = _COUNT_UNITS.get(c, ("count", "lower"))
    out["rewrite.complete.rules_per_s"] = ("1/s", "higher")
    for layer in LAYERS:
        out[f"{layer}.busy_s"] = ("s", "lower")
        out[f"{layer}.self_s"] = ("s", "lower")
    out["bench.self_s"] = ("s", "lower")
    out["trace.spans"] = ("count", "lower")
    out["trace.overhead_s"] = ("s", "lower")
    out["trace.overhead_share"] = ("share", "lower")
    return out


PER_LAYER = _per_layer_metrics()


# ---------------------------------------------------------------------------
# tracing


class Span:
    """One timed call; a context manager that files itself with its tracer."""

    __slots__ = ("tracer", "name", "label", "run", "parent", "start", "end", "counts")

    def __init__(self, tracer: "Tracer", name: str, label: str) -> None:
        self.tracer = tracer
        self.name = name
        self.label = label
        self.counts: dict[str, float] = {}

    def __enter__(self) -> "Span":
        tr = self.tracer
        self.run = tr.run
        self.parent = tr.stack[-1] if tr.stack else None
        tr.stack.append(len(tr.spans))
        tr.spans.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self.end = time.perf_counter()
        self.tracer.stack.pop()
        return False

    def __setitem__(self, key: str, value: float) -> None:
        self.counts[key] = value


class _NullSpan:
    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def __setitem__(self, key: str, value: float) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracing off: every span is the same do-nothing object."""

    def span(self, name: str, label: str = "") -> _NullSpan:
        return _NULL_SPAN


class Tracer:
    """Keeps spans in memory; ``run`` tags each span with its run id."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.run = ""

    def span(self, name: str, label: str = "") -> Span:
        return Span(self, name, label)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                rec = {"name": s.name, "label": s.label, "start": s.start, "end": s.end,
                       "parent": s.parent, "run": s.run, **s.counts}
                fh.write(json.dumps(rec) + "\n")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics from the spans of one traced run.

    Each span name is reported from the phase that makes the call: from the
    passes when any traced pass made it, else from set-up.  A value is the
    median over that phase's runs of the run's total.  Layer busy and self
    times, and the harness's own self time, come from the passes."""
    spans = tracer.spans
    child_s = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_s[s.parent] += s.end - s.start
    totals: dict[str, dict[str, dict[str, float]]] = {}
    for i, s in enumerate(spans):
        t = totals.setdefault(s.run, {})
        dur = s.end - s.start
        agg = t.setdefault(s.name, {"calls": 0, "busy_s": 0.0})
        agg["calls"] += 1
        agg["busy_s"] += dur
        for k, v in s.counts.items():
            agg[k] = agg.get(k, 0) + v
        layer = s.name.split(".")[0]
        lay = t.setdefault(layer, {"busy_s": 0.0, "self_s": 0.0})
        lay["self_s"] += dur - child_s[i]
        parent_layer = spans[s.parent].name.split(".")[0] if s.parent is not None else None
        if parent_layer != layer:
            lay["busy_s"] += dur
        t.setdefault("trace", {"spans": 0})["spans"] += 1

    def phase_runs(phase: str) -> list[dict]:
        return [t for run, t in totals.items() if run.split(":")[1] == phase]

    def med(runs: list[dict], name: str, key: str) -> float:
        return statistics.median(t.get(name, {}).get(key, 0) for t in runs) if runs else 0.0

    passes, setups = phase_runs("pass"), phase_runs("setup")
    out: dict[str, float] = {}
    for name, counts in SPAN_COUNTS.items():
        runs = passes if any(name in t for t in passes) else setups
        for key in ("calls", "busy_s") + counts:
            out[f"{name}.{key}"] = med(runs, name, key)
    runs = passes if any("rewrite.complete" in t for t in passes) else setups
    rates = [t["rewrite.complete"]["rules"] / t["rewrite.complete"]["busy_s"]
             for t in runs if "rewrite.complete" in t]
    out["rewrite.complete.rules_per_s"] = statistics.median(rates) if rates else 0.0
    for layer in LAYERS:
        out[f"{layer}.busy_s"] = med(passes, layer, "busy_s")
        out[f"{layer}.self_s"] = med(passes, layer, "self_s")
    out["bench.self_s"] = med(passes, "bench", "self_s")
    out["trace.spans"] = med(passes, "trace", "spans")
    return out


# ---------------------------------------------------------------------------
# checking


class Ledger:
    """Counts attempted and failed operations; keeps the first few failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)
        return ok

    def equal(self, got, want, what: str) -> bool:
        return self.check(got == want, f"{what}: got {_short(got)}, want {_short(want)}")

    def verdicts(self, got: list, want: list, what: str) -> None:
        """One operation per check: (name, status) pairs, in order."""
        for i in range(max(len(got), len(want))):
            g = tuple(got[i]) if i < len(got) else None
            w = tuple(want[i]) if i < len(want) else None
            self.equal(g, w, f"{what}[{i}]")


def _short(x) -> str:
    s = repr(x)
    return s if len(s) <= 120 else s[:117] + "..."


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_expected(path: Path = EXPECTED_PATH) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# timing

# Every reported time is scaled to a fixed interpreter speed: the speed at
# which one reference tick takes REF_TICK_S.  A shared machine switches
# between faster and slower states every few seconds, and a tick then takes
# from about 2.6 to 4.7 ms.  hopfw's calls slow down with it, short
# reductions by as much as the ticks and long completions by less, so a time
# divided by the ticks around it repeats far better than the raw wall time,
# though not exactly.
REF_TICK_S = 0.0025
REF_LOOPS = 1000
BLOCK = 400  # query-leg calls between two ticks


def reference_work() -> int:
    """Fixed pure-Python work of the kinds hopfw does (string keys, dict
    updates, Fraction arithmetic); it never changes and calls no hopfw code."""
    terms: dict[str, Fraction] = {}
    for i in range(REF_LOOPS):
        w = "xyz"[i % 3] + str(i * 7919 % 211)
        terms[w] = terms.get(w, 0) + Fraction(i % 5 - 2, 1 + i % 3)
    return sum(len(w) for w, c in terms.items() if c)


class Clock:
    """Wall-clock timing scaled by the reference ticks around each interval.

    Steps and blocks of calls are timed raw, with a tick on either side, and
    scaled by ``settle`` once the ticks after them exist."""

    def __init__(self) -> None:
        self.tick_end: list[float] = []
        self.tick_s: list[float] = []

    def tick(self) -> None:
        """Time one piece of reference work."""
        t = time.perf_counter()
        reference_work()
        end = time.perf_counter()
        self.tick_end.append(end)
        self.tick_s.append(end - t)

    def factor(self, start: float, end: float) -> float:
        """Scale for the interval [start, end]: REF_TICK_S over the median of
        the ticks that end within one interval length of it, and at least
        the last tick before it and the first after it.  A long step thus
        gets the machine's speed over a long stretch, a short one the speed
        of the moment."""
        d = end - start
        ends = self.tick_end
        lo = min(bisect.bisect_left(ends, start - d), bisect.bisect_right(ends, start) - 1)
        hi = max(bisect.bisect_right(ends, end + d), bisect.bisect_right(ends, end) + 1)
        return REF_TICK_S / statistics.median(self.tick_s[max(lo, 0):hi])

    @contextlib.contextmanager
    def step(self, steps: dict[str, tuple], key: str):
        """Time one step of a pass body into ``steps[key]``, raw."""
        self.tick()
        t = time.perf_counter()
        yield
        steps[key] = (t, time.perf_counter())
        self.tick()

    def calls(self, items: list, call, leg: "Leg", block: int = BLOCK) -> None:
        """``call`` each item, filing its raw latency and its result in
        ``leg``; ticks before the first call and after every ``block``."""
        now = time.perf_counter
        self.tick()
        for start in range(0, len(items), block):
            first = len(leg.latencies)
            t0 = now()
            for item in items[start:start + block]:
                t = now()
                r = call(item)
                leg.latencies.append(now() - t)
                leg.results.append(r)
            leg.blocks.append((t0, now(), first, len(leg.latencies)))
            self.tick()

    def scaled(self, steps: dict[str, tuple]) -> dict[str, float]:
        return {k: (e - s) * self.factor(s, e) for k, (s, e) in steps.items()}

    def settle(self, p: "Pass") -> None:
        """Replace the raw times of a finished pass by scaled ones."""
        p.steps = self.scaled(p.steps)
        for leg in (p.queries, p.cli):
            for s, e, i, j in leg.blocks:
                f = self.factor(s, e)
                leg.latencies[i:j] = [x * f for x in leg.latencies[i:j]]
            leg.blocks = []


# ---------------------------------------------------------------------------
# inputs


def cyclic2():
    """The cyclic sum of the (1,1,2) indicator on K^2 (``hopfw example cyclic2``)."""
    return H.MultilinearForm(2, 3, {(1, 1, 2): 1, (1, 2, 1): 1, (2, 1, 1): 1})


def small_coeff(rng: random.Random):
    c = rng.choice((-3, -2, -1, 1, 2, 3))
    if rng.random() < 0.2:
        return Fraction(c, rng.choice((2, 3)))
    return c


def random_word(rng: random.Random, chars: list[str], length: int) -> str:
    return "".join(rng.choices(chars, k=length))


class PolySource:
    """Draws seeded polynomials of degree <= ``degree`` over a presentation."""

    def __init__(self, pres, degree: int) -> None:
        self.alphabet = pres.alphabet
        self.degree = degree
        self.chars = [pres.alphabet.char(g) for g in pres.alphabet.generators]
        # integral coefficients as ints: input generation stays cheap
        self.relations = [
            (r.degree(), [(w, c.numerator if c.denominator == 1 else c)
                          for w, c in r.terms.items()])
            for r in pres.relations
        ]

    def member(self, rng: random.Random):
        """sum c * a * r * b over 1-3 defining relations r: an ideal member
        with a certificate of degree <= degree."""
        chars = self.chars
        while True:
            terms: dict[str, object] = {}
            for _ in range(rng.randint(1, 3)):
                rdeg, rterms = rng.choice(self.relations)
                room = self.degree - rdeg
                la = rng.randint(0, room)
                a = random_word(rng, chars, la)
                b = random_word(rng, chars, rng.randint(0, room - la))
                c = small_coeff(rng)
                for w, rc in rterms:
                    key = a + w + b
                    terms[key] = terms.get(key, 0) + c * rc
            p = H.NcPoly(self.alphabet, terms)
            if not p.is_zero():
                return p

    def poly(self, rng: random.Random):
        terms = {}
        for _ in range(rng.randint(1, 6)):
            terms[random_word(rng, self.chars, rng.randint(0, self.degree))] = small_coeff(rng)
        return H.NcPoly(self.alphabet, terms)


@dataclass(frozen=True)
class NfQuery:
    kind: str  # "member": ideal_member must say True; "nf": normal_form
    key: str  # which system
    poly: object
    partner: object  # a member: nf(poly + partner) must equal nf(poly)


def nf_queries(rng, sources: dict, count: int) -> list[NfQuery]:
    """``sources`` maps a system key to (PolySource, weight).  Half the
    queries are members; each nf query is paired with one of them."""
    keys = list(sources)
    weights = [sources[k][1] for k in keys]
    members: dict[str, list] = {k: [] for k in keys}
    out = []
    for _ in range(count):
        key = rng.choices(keys, weights)[0]
        src = sources[key][0]
        if rng.random() < 0.5 or not members[key]:
            m = src.member(rng)
            members[key].append(m)
            out.append(NfQuery("member", key, m, None))
        else:
            out.append(NfQuery("nf", key, src.poly(rng), rng.choice(members[key])))
    return out


def order_keeping_ties(rng: random.Random, relations: list) -> list[int]:
    """A seeded order of ``relations`` in which those that share a leading
    word keep their builder order.  ``complete`` queues by (degree, leading
    word, arrival), so arrival decides only between such ties; on hw(e3) the
    one tied pair decides whether D=5 completion takes about 20 % longer."""
    order = rng.sample(range(len(relations)), len(relations))
    slots: dict[str, list[int]] = {}
    for pos, j in enumerate(order):
        slots.setdefault(relations[j].leading_word(), []).append(pos)
    for positions in slots.values():
        for pos, j in zip(positions, sorted(order[p] for p in positions)):
            order[pos] = j
    return order


def random_cyclic_form(rng: random.Random, dim: int, arity: int):
    """A sparse form invariant under cyclic rotation of its slots, so its
    twisting element is the identity; redrawn until one-site nondegenerate,
    which makes it preregular.  It always has dim + 2 rotation orbits of
    arity entries each, so its cost does not vary much with the seed."""
    while True:
        orbits: dict[tuple, Fraction] = {}
        while len(orbits) < dim + 2:
            idx = tuple(rng.randint(1, dim) for _ in range(arity))
            rots = {idx[k:] + idx[:k] for k in range(arity)}
            if len(rots) == arity:
                orbits.setdefault(min(rots), Fraction(rng.choice((-2, -1, 1, 2))))
        entries = {idx[k:] + idx[:k]: c for idx, c in orbits.items() for k in range(arity)}
        if _last_slot_rank(entries, dim) == dim:
            return H.MultilinearForm(dim, arity, entries)


def _last_slot_rank(entries: dict, dim: int) -> int:
    """Rank of the flattening with the last slot as column index, computed
    here so that input generation does not go through the code under test."""
    rows: dict[tuple, list] = {}
    for idx, c in entries.items():
        rows.setdefault(idx[:-1], [Fraction(0)] * dim)[idx[-1] - 1] = Fraction(c)
    rank = 0
    mat = list(rows.values())
    for col in range(dim):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                f = mat[r][col] / mat[rank][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# calls into the layers, one span each


def traced_complete(tr, label: str, relations, degree: int):
    last = [time.perf_counter()]

    def progress(deg: int, nrules: int) -> None:
        last[0] = time.perf_counter()

    with tr.span("rewrite.complete", label) as sp:
        system = H.complete(relations, degree, on_progress=progress)
        sp["tail_s"] = time.perf_counter() - last[0]
        sp["rules"] = len(system.rules)
    return system


def traced_build(tr, label: str, build, *args):
    with tr.span("hopf.build", label) as sp:
        pres = build(*args)
        sp["relations"] = len(pres.relations)
    return pres


def traced_polar(tr, label: str, w):
    with tr.span("forms.polar", label) as sp:
        sol = H.polar(w)
        sp["kernel_dim_sum"] = sol.affine_dimension()
    return sol


def traced_suite(tr, label: str, suite, *args) -> list[tuple[str, str]]:
    with tr.span("hopf.suite", label) as sp:
        results = suite(*args)
        sp["checks"] = len(results)
        sp["pass"] = sum(1 for r in results if r.status is H.Status.PASS)
    return [(r.name, r.status.value) for r in results]


@dataclass
class Leg:
    """Latencies of one query or CLI leg of a pass."""

    latencies: list[float] = field(default_factory=list)
    results: list = field(default_factory=list)
    blocks: list[tuple] = field(default_factory=list)  # (start, end, first, stop) until settled


def nf_leg(tr, clock: Clock, queries: list[NfQuery], systems: dict) -> Leg:
    def call(q: NfQuery):
        if q.kind == "member":
            with tr.span("rewrite.ideal_member"):
                return H.ideal_member(q.poly, systems[q.key])
        with tr.span("rewrite.normal_form"):
            return H.normal_form(q.poly, systems[q.key])

    leg = Leg()
    clock.calls(queries, call, leg)
    return leg


def cli_leg(tr, clock: Clock, calls: list[list[str]], leg: Leg | None = None) -> Leg:
    def call(argv: list[str]):
        out = io.StringIO()
        with tr.span("cli.main", argv[0]), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli_main(list(argv))
            except SystemExit as exc:  # argparse exits on a usage error
                code = exc.code
        return code, out.getvalue()

    leg = leg or Leg()
    clock.calls(calls, call, leg, block=1)
    return leg


def polar_leg(tr, clock: Clock, queries: list, forms: dict, leg: Leg) -> None:
    def call(q: tuple):
        name, wt, _ = q
        with tr.span("forms.in_polar", name):
            return H.in_polar(wt, forms[name])

    clock.calls(queries, call, leg)


def part(items: list, k: int, n: int) -> list:
    """The k-th of n nearly equal consecutive slices of ``items``."""
    return items[k * len(items) // n:(k + 1) * len(items) // n]


def check_nf_leg(ledger: Ledger, leg: Leg, queries: list[NfQuery], systems: dict,
                 first: Leg | None, what: str) -> None:
    """The first pass is checked by oracles; later passes must repeat it."""
    if first is not None:
        for i, r in enumerate(leg.results):
            ledger.equal(r, first.results[i], f"{what} query {i} differs from pass 0")
        return
    for i, (q, r) in enumerate(zip(queries, leg.results)):
        system = systems[q.key]
        if q.kind == "member":
            ledger.equal(r, True, f"{what} member {i}")
            continue
        ok = (all(system.is_normal(w) for w in r.terms)
              and H.normal_form(r, system) == r
              and H.normal_form(q.poly + q.partner, system) == r)
        ledger.check(ok, f"{what} nf oracle {i}: {q.poly.to_str()}")


def parse_verdict_lines(text: str) -> list[tuple[str, str]]:
    out = []
    for line in text.splitlines():
        status, _, rest = line.partition(" ")
        if status in ("PASS", "FAIL", "UNCERTIFIED"):
            out.append((rest.split(" (", 1)[0], status))
    return out


def check_system(ledger: Ledger, system, want: dict, what: str) -> None:
    ledger.equal(len(system.rules), want["rules"], f"{what} rule count")
    ledger.equal(sha256(system.dump()), want["sha256"], f"{what} dump sha256")


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Pass:
    steps: dict  # time of each step of the body but its legs, scaled by settle
    queries: Leg
    cli: Leg
    out: dict


class Workload:
    """A workload: ``setup`` makes the inputs (several times per run), ``run``
    is one timed pass over them, ``check`` compares a pass with its oracles."""

    name = ""
    setup_reps = 3
    min_passes = 3
    legs_in_body = False  # whether run_s counts the query and CLI legs

    def __init__(self, seed: int, work: Path, expected: dict) -> None:
        self.seed = seed
        self.work = work
        self.expected = expected
        self.first: Pass | None = None
        self.clock = Clock()

    def body_s(self, p: Pass) -> float:
        """Scaled time of one pass body."""
        legs = sum(p.queries.latencies) + sum(p.cli.latencies) if self.legs_in_body else 0.0
        return sum(p.steps.values()) + legs

    def rng(self, purpose: str) -> random.Random:
        return random.Random(f"{self.name}:{purpose}:{self.seed}")

    def setup(self, tr):
        raise NotImplementedError

    def run(self, tr, st, i: int) -> Pass:
        raise NotImplementedError

    def check_setup(self, ledger: Ledger, st) -> None:
        pass

    def check(self, ledger: Ledger, st, p: Pass, i: int) -> None:
        raise NotImplementedError


class Certify(Workload):
    """hw(e3) at D=5 and hw(cyclic2) at D=8: build, complete the relations in
    a seeded order, run the suites.  Then a read leg on the fresh systems and
    ``hopfw verify --suite axioms`` on cyclic2 at D=6 through the CLI."""

    name = "certify"
    setup_reps = 5
    # One completion of about 5 s fills most of a pass, and the machine's
    # speed drifts over seconds: more passes make its median steady.
    min_passes = 4
    QUERIES = 3000
    CLI_CALLS = 4
    ORDERS = 16

    def setup(self, tr):
        rng = self.rng("inputs")
        e3, c2 = H.make_signature(3), cyclic2()
        pe3 = traced_build(tr, "hw-signature3", H.build_hw, e3)
        pc2 = traced_build(tr, "hw-cyclic2", H.build_hw, c2)
        orders = [(order_keeping_ties(rng, pe3.relations),
                   rng.sample(range(len(pc2.relations)), len(pc2.relations)))
                  for _ in range(self.ORDERS)]
        queries = nf_queries(
            rng, {"e3": (PolySource(pe3, 5), 3), "c2": (PolySource(pc2, 8), 1)}, self.QUERIES)
        form_path = self.work / "cyclic2.json"
        H.save_form(str(form_path), c2)
        argv = ["verify", "--suite", "axioms", str(form_path), "--algebra", "hw",
                "--degree", "6"]
        return {"e3": e3, "c2": c2, "orders": orders, "queries": queries,
                "cli": [argv] * self.CLI_CALLS}

    def run(self, tr, st, i):
        order_e3, order_c2 = st["orders"][i % len(st["orders"])]
        steps: dict[str, tuple] = {}
        timed = functools.partial(self.clock.step, steps)
        with timed("build hw-signature3"):
            pe3 = traced_build(tr, "hw-signature3", H.build_hw, st["e3"])
        with timed("complete hw-signature3-D5"):
            se3 = traced_complete(tr, "hw-signature3-D5", [pe3.relations[j] for j in order_e3], 5)
        with timed("polar signature3"):
            wt3 = traced_polar(tr, "signature3", st["e3"]).particular
        with timed("build hw-cyclic2"):
            pc2 = traced_build(tr, "hw-cyclic2", H.build_hw, st["c2"])
        with timed("complete hw-cyclic2-D8"):
            sc2 = traced_complete(tr, "hw-cyclic2-D8", [pc2.relations[j] for j in order_c2], 8)
        with timed("polar cyclic2"):
            wt2 = traced_polar(tr, "cyclic2", st["c2"]).particular
        out = {"pe3": pe3, "se3": se3, "pc2": pc2, "sc2": sc2}
        for key, suite, args in (
            ("axioms-hw-signature3-D5", H.hopf_axiom_suite, (pe3, 5, se3)),
            ("derived-hw-signature3-D5", H.derived_relations_suite, (pe3, wt3, 5, se3)),
            ("manin-D5", H.manin_suite, (5, se3)),
            ("axioms-hw-cyclic2-D8", H.hopf_axiom_suite, (pc2, 8, sc2)),
            ("derived-hw-cyclic2-D8", H.derived_relations_suite, (pc2, wt2, 8, sc2)),
        ):
            with timed(key):
                out[key] = traced_suite(tr, key, suite, *args)
        with timed("unresolved hw-cyclic2-D8"), \
                tr.span("rewrite.unresolved_overlaps", "hw-cyclic2-D8") as sp:
            out["unresolved"] = H.unresolved_overlaps(sc2)
            sp["bad"] = len(out["unresolved"])
        gc.collect()  # the legs start from the same heap state on every pass
        queries = nf_leg(tr, self.clock, st["queries"], {"e3": se3, "c2": sc2})
        return Pass(steps, queries, cli_leg(tr, self.clock, st["cli"]), out)

    def check(self, ledger, st, p, i):
        exp, out = self.expected, p.out
        check_system(ledger, out["se3"], exp["systems"]["hw-signature3-D5"], "hw(e3) D=5")
        check_system(ledger, out["sc2"], exp["systems"]["hw-cyclic2-D8"], "hw(cyclic2) D=8")
        for key, pres in (("hw-signature3", out["pe3"]), ("hw-cyclic2", out["pc2"])):
            ledger.equal(sha256(H.dump_presentation(pres)), exp["presentations"][key],
                         f"{key} presentation sha256")
        for key in ("axioms-hw-signature3-D5", "derived-hw-signature3-D5", "manin-D5",
                    "axioms-hw-cyclic2-D8", "derived-hw-cyclic2-D8"):
            ledger.verdicts(out[key], exp["verdicts"][key], key)
        ledger.equal(out["unresolved"], [], "unresolved overlaps of hw(cyclic2) D=8")
        systems = {"e3": out["se3"], "c2": out["sc2"]}
        check_nf_leg(ledger, p.queries, st["queries"], systems,
                     self.first and self.first.queries, "certify")
        for code, text in p.cli.results:
            ledger.equal(code, 0, "hopfw verify exit code")
            ledger.verdicts(parse_verdict_lines(text),
                            exp["verdicts"]["cli-axioms-hw-cyclic2-D6"], "hopfw verify")


class Query(Workload):
    """Systems completed in set-up; each pass replays a seeded stream of
    ``ideal_member`` and ``normal_form`` queries, makes a few ``hopfw nf``
    calls against the saved hw(e3) D=4 dump and parses that dump once."""

    name = "query"
    setup_reps = 3
    legs_in_body = True
    QUERIES = 20000
    CLI_CALLS = 6

    def setup(self, tr):
        rng = self.rng("inputs")
        pe3 = traced_build(tr, "hw-signature3", H.build_hw, H.make_signature(3))
        pc2 = traced_build(tr, "hw-cyclic2", H.build_hw, cyclic2())
        se3 = traced_complete(tr, "hw-signature3-D4", list(pe3.relations), 4)
        sc2 = traced_complete(tr, "hw-cyclic2-D8", list(pc2.relations), 8)
        with tr.span("rewrite.dump", "hw-signature3-D4") as sp:
            text = se3.dump()
            sp["bytes"] = len(text.encode("utf-8"))
        path = self.work / "hw-signature3-D4.gb"
        path.write_text(text, encoding="utf-8")
        e3 = PolySource(pe3, 4)
        queries = nf_queries(rng, {"e3": (e3, 4), "c2": (PolySource(pc2, 8), 1)}, self.QUERIES)
        cli_polys = [e3.poly(rng) for _ in range(self.CLI_CALLS)]
        return {"se3": se3, "sc2": sc2, "text": text, "queries": queries,
                "cli_polys": cli_polys,
                "cli": [["nf", str(path), f"--poly={p.to_str()}"] for p in cli_polys]}

    def run(self, tr, st, i):
        steps: dict[str, tuple] = {}
        queries = nf_leg(tr, self.clock, st["queries"], {"e3": st["se3"], "c2": st["sc2"]})
        cli = cli_leg(tr, self.clock, st["cli"])
        with self.clock.step(steps, "parse hw-signature3-D4"), \
                tr.span("rewrite.parse", "hw-signature3-D4"):
            parsed = H.RewriteSystem.parse(st["text"])
        return Pass(steps, queries, cli, {"parsed": parsed})

    def check_setup(self, ledger, st):
        exp = self.expected["systems"]
        check_system(ledger, st["se3"], exp["hw-signature3-D4"], "hw(e3) D=4")
        check_system(ledger, st["sc2"], exp["hw-cyclic2-D8"], "hw(cyclic2) D=8")

    def check(self, ledger, st, p, i):
        systems = {"e3": st["se3"], "c2": st["sc2"]}
        check_nf_leg(ledger, p.queries, st["queries"], systems,
                     self.first and self.first.queries, "query")
        for poly, (code, text) in zip(st["cli_polys"], p.cli.results):
            ledger.equal(code, 0, "hopfw nf exit code")
            ledger.equal(text, H.normal_form(poly, st["se3"]).to_str() + "\n",
                         f"hopfw nf {poly.to_str()}")
        ledger.check(p.out["parsed"] == st["se3"], "RewriteSystem.parse of the saved dump")


FIXED_FORMS = {
    "signature4": lambda: H.make_signature(4),
    "signature5": lambda: H.make_signature(5),
    "orthogonal-4-4": lambda: H.make_orthogonal(4, 4),
    "orthogonal-3-5": lambda: H.make_orthogonal(3, 5),
    "orthogonal-2-8": lambda: H.make_orthogonal(2, 8),
}
# Presentations are not built for signature5: build_hw alone takes about 9 s
# there, and its dump and parse another 20 s; bw and hww cost the same.
NO_BUILDERS = {"signature5"}
RANDOM_SHAPES = ((3, 4), (4, 4), (2, 7))  # (dim, arity)


BUILDERS = {  # kind -> build(form, polar particular)
    "hw": lambda w, wt: H.build_hw(w),
    "bw": lambda w, wt: H.build_bw(w),
    "hww": lambda w, wt: H.build_hww(w, wt),
    "ahmn": lambda w, wt: H.build_ahmn(w.arity, w.dim),
}


def builders_for(name: str, w) -> list[str]:
    if name in NO_BUILDERS:
        return []
    kinds = ["hw", "bw", "hww"]
    if len(w.entries) == w.dim and all(len(set(idx)) == 1 for idx in w.entries):
        kinds.append("ahmn")  # diagonal forms: the power-sum presentation
    return kinds


class Forms(Workload):
    """analyze + polar on e4, e5, three diagonal forms and seeded random
    cyclic forms; presentations of each form but e5 with a dump/parse round
    trip.  Then a leg of seeded polar-membership queries and ``hopfw
    analyze`` through the CLI, both on the fixed forms."""

    name = "forms"
    setup_reps = 5
    QUERIES = 10000
    QUERY_MIX = (("orthogonal-2-8", 3), ("orthogonal-3-5", 3), ("orthogonal-4-4", 6),
                 ("signature4", 8))
    POOL = 50
    CLI_CALLS = 12

    def setup(self, tr):
        rng = self.rng("inputs")
        forms = {name: make() for name, make in FIXED_FORMS.items()}
        randoms = []
        for k, (dim, arity) in enumerate(RANDOM_SHAPES):
            name = f"random{k}-{dim}-{arity}"
            forms[name] = random_cyclic_form(rng, dim, arity)
            randoms.append(name)
        # The legs use fixed forms in fixed proportions, so that their cost
        # does not depend on the seed.  The query mix puts the median inside
        # the orthogonal-4-4 latencies and the 99th percentile inside the
        # signature4 ones, away from the gaps between forms.
        sols = {name: traced_polar(tr, name, forms[name]) for name, _ in self.QUERY_MIX}
        pools = {}  # a tensor costs more to make than to test, so queries reuse them
        for name, _ in self.QUERY_MIX:
            sol, pool = sols[name], []
            for _ in range(self.POOL):
                coeffs = [0] * sol.affine_dimension()
                for _ in range(rng.randint(1, 3)):
                    coeffs[rng.randrange(len(coeffs))] = small_coeff(rng)
                wt = sol.member(coeffs)
                pool.append((name, wt, True))
                pool.append((name, wt.scale(rng.choice((-1, 2, Fraction(1, 2)))), False))
            pools[name] = pool
        cycle = [name for name, share in self.QUERY_MIX for _ in range(share)]
        queries = [rng.choice(pools[cycle[k % len(cycle)]]) for k in range(self.QUERIES)]
        path = self.work / "signature4.json"
        H.save_form(str(path), forms["signature4"])
        cli = [["analyze", str(path)]] * self.CLI_CALLS
        cli_dims = [sols["signature4"].affine_dimension()] * self.CLI_CALLS
        return {"forms": forms, "randoms": randoms, "queries": queries,
                "cli": cli, "cli_dims": cli_dims}

    def run(self, tr, st, i):
        # The legs run in slices after each form, so that their samples spread
        # over the whole pass, as run_s does; run_s leaves them out.
        queries, cli, out = Leg(), Leg(), {}
        steps: dict[str, tuple] = {}
        timed = functools.partial(self.clock.step, steps)
        n = len(st["forms"])
        for k, (name, w) in enumerate(st["forms"].items()):
            with timed(f"analyze {name}"), tr.span("forms.analyze", name):
                report = H.analyze(w)
            with timed(f"polar {name}"):
                sol = traced_polar(tr, name, w)
            particular = sol.particular
            rec = {"report": report, "dim": sol.affine_dimension(), "dumps": {}}
            if name in st["randoms"]:
                rec["particular"] = particular
                rec["kernel_member"] = sol.member([1] + [0] * (sol.affine_dimension() - 1))
            del sol  # signature5 has 3 100 kernel vectors of length 3 125
            for kind in builders_for(name, w):
                label = f"{kind}-{name}"
                with timed(f"build {label}"):
                    pres = traced_build(tr, label, BUILDERS[kind], w, particular)
                with timed(f"dump {label}"), \
                        tr.span("formats.dump_presentation", label) as sp:
                    text = H.dump_presentation(pres)
                    sp["bytes"] = len(text.encode("utf-8"))
                with timed(f"parse {label}"), \
                        tr.span("formats.parse_presentation", label):
                    parsed = H.parse_presentation(text)
                rec["dumps"][kind] = (text, parsed)
            out[name] = rec
            polar_leg(tr, self.clock, part(st["queries"], k, n), st["forms"], queries)
            cli_leg(tr, self.clock, part(st["cli"], k, n), cli)
        return Pass(steps, queries, cli, out)

    def check(self, ledger, st, p, i):
        exp = self.expected
        for name, rec in p.out.items():
            w, report = st["forms"][name], rec["report"]
            ledger.check(report.preregular, f"{name} preregular")
            if name in st["randoms"]:
                ledger.check(report.q is not None and report.q == H.Matrix.identity(w.dim),
                             f"{name} twist is the identity")
                ledger.check(H.in_polar(rec["particular"], w), f"{name} particular in polar")
                ledger.check(H.in_polar(rec["kernel_member"], w), f"{name} kernel member in polar")
                ledger.check(report.q is not None and H.is_q_cyclic(w, report.q),
                             f"{name} is_q_cyclic")
                try:
                    H.q_inverse_from_polar(w, rec["particular"])
                    ledger.check(True, "")
                except (ValueError, H.InternalConsistencyError) as exc:
                    ledger.check(False, f"{name} q_inverse_from_polar: {exc}")
            else:
                ledger.equal(H.format_matrix(report.q), exp["twists"][name], f"{name} twist")
                ledger.equal(rec["dim"], exp["polar_dims"][name], f"{name} polar dimension")
            for kind, (text, parsed) in rec["dumps"].items():
                ledger.equal(sha256(H.dump_presentation(parsed)), sha256(text),
                             f"{kind}({name}) round trip")
                if name not in st["randoms"]:
                    ledger.equal(sha256(text), exp["presentations"][f"{kind}-{name}"],
                                 f"{kind}({name}) presentation sha256")
        for (name, _, member), r in zip(st["queries"], p.queries.results):
            ledger.equal(r, member, f"in_polar query on {name}")
        for (code, text), dim in zip(p.cli.results, st["cli_dims"]):
            ledger.equal(code, 0, "hopfw analyze exit code")
            lines = text.splitlines()
            ledger.check("preregular: true" in lines, "hopfw analyze: preregular")
            ledger.check(f"polar_affine_dimension: {dim}" in lines,
                         "hopfw analyze: polar dimension")


WORKLOADS = {w.name: w for w in (Certify, Query, Forms)}


# ---------------------------------------------------------------------------
# the run


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (1 <= q <= 99), inclusive method."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def per_call(per_pass) -> list[float]:
    """The time of each repeated call: the i-th value is the median over the
    passes of their i-th latency.  Every pass makes the same calls in the
    same order."""
    return [statistics.median(xs) for xs in zip(*per_pass)]


def run(workload: str, seed: int, seconds: float, trace: bool,
        expected: dict | None = None, min_passes: int | None = None) -> dict:
    """One benchmark run; returns the result object the command prints.
    ``min_passes`` defaults to the workload's own."""
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{workload}-seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        return _run(workload, seed, seconds, trace, expected, min_passes, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(workload, seed, seconds, trace, expected, min_passes, work) -> dict:
    wl = WORKLOADS[workload](seed, work, expected if expected is not None else load_expected())
    if min_passes is None:
        min_passes = wl.min_passes
    if trace:
        min_passes = max(min_passes, 4)  # two traced and two untraced passes
    ledger = Ledger()
    tracer = Tracer() if trace else None
    null = NullTracer()
    setup_s, st = [], None
    for r in range(wl.setup_reps):
        st = None
        gc.collect()
        tr = tracer or null
        if tracer:
            tracer.run = f"{workload}-seed{seed}:setup:{r}"
        steps: dict[str, tuple] = {}
        with wl.clock.step(steps, "setup"), tr.span("bench.setup"):
            st = wl.setup(tr)
        setup_s.append(wl.clock.scaled(steps)["setup"])
        wl.check_setup(ledger, st)

    passes: list[Pass] = []
    traced_body, plain_body, pass_s = [], [], []
    t_start = time.perf_counter()
    # Stop when the next pass is more likely to end after --seconds than before.
    while len(passes) < min_passes or (
        time.perf_counter() - t_start + statistics.median(pass_s) / 2 <= seconds
    ):
        i = len(passes)
        traced = tracer is not None and i % 2 == 0
        tr = tracer if traced else null
        if traced:
            tracer.run = f"{workload}-seed{seed}:pass:{i}"
        gc.collect()
        t_pass = time.perf_counter()
        try:
            with tr.span("bench.pass"):
                p = wl.run(tr, st, i)
            wl.clock.settle(p)
            wl.check(ledger, st, p, i)
        except Exception as exc:  # a crash is a failed operation, reported
            traceback.print_exc()
            ledger.check(False, f"pass {i} raised {exc!r}")
            break
        (traced_body if traced else plain_body).append(wl.body_s(p))
        pass_s.append(time.perf_counter() - t_pass)
        p.out = None  # keep memory flat however many passes run
        if wl.first is None:
            wl.first = p  # later passes must repeat its query results
        else:
            p.queries.results = p.cli.results = None
        passes.append(p)

    lat = [x for p in passes for x in p.queries.latencies]
    cli = [x for p in passes for x in p.cli.latencies]
    info = {
        "workload": workload, "seed": seed, "passes": len(passes),
        "setup_reps": wl.setup_reps, "query_samples": len(lat), "cli_samples": len(cli),
        "setup_s": ",".join(f"{x:.3f}" for x in setup_s),
        "body_s": ",".join(f"{wl.body_s(p):.3f}" for p in passes),
        "tick_ms": f"{statistics.median(wl.clock.tick_s) * 1e3:.3f}",
        "notes": ledger.notes,
    }
    units = PER_LAYER if tracer else END_TO_END
    if not plain_body:  # a pass raised before an untraced pass finished
        metrics = dict.fromkeys(units, 0.0)
    elif tracer:
        metrics = layer_metrics(tracer)
        overhead = statistics.median(traced_body) - statistics.median(plain_body)
        metrics["trace.overhead_s"] = overhead
        metrics["trace.overhead_share"] = overhead / statistics.median(plain_body)
        trace_path = WORK / f"trace-{workload}-seed{seed}.jsonl"
        tracer.write(trace_path)
        info["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        lat_q = per_call(p.queries.latencies for p in passes)
        lat_cli = per_call(p.cli.latencies for p in passes)
        run_s = sum(statistics.median(p.steps[k] for p in passes) for k in passes[0].steps)
        if wl.legs_in_body:
            run_s += sum(lat_q) + sum(lat_cli)
        metrics = {
            "setup_s": statistics.median(setup_s),
            "run_s": run_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "pass_share": 1 - ledger.failed / ledger.attempted,
            "query_p50_ms": percentile(lat_q, 50) * 1e3,
            "query_p99_ms": percentile(lat_q, 99) * 1e3,
            "query_qps": len(lat_q) / sum(lat_q),
            "cli_p50_ms": statistics.median(lat_cli) * 1e3,
        }
    result = {
        "correct": ledger.failed == 0 and ledger.attempted > 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k][0]} for k in units},
    }
    return {"result": result, "info": info}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    info, result = out["info"], out["result"]
    for note in info.pop("notes"):
        print(f"FAILED: {note}", file=sys.stderr)
    print(" ".join(f"{k}={v}" for k, v in info.items()))
    for name, m in result["metrics"].items():
        print(f"{name:<34} {m['value']:>16.6f} {m['unit']}")
    print(f"{'fail_share':<34} {result['failed'] / result['attempted']:>16.6f} share"
          f"  ({result['failed']} of {result['attempted']} operations)")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
