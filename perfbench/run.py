#!/usr/bin/env python3
"""End-to-end and per-layer benchmark for motionsem.

Run from the repository root:

    python3 perfbench/run.py --workload hot-sweep --seed 1 --seconds 30 --trace 0

Each workload is a closed loop with one client and no threads: the next
operation starts only after the previous one has finished.  Inputs are
generated from --seed only; the program under test sees nothing but the
generated inputs.  Every output is checked, and the last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics.

Times are reported at a reference speed: a fixed reference is timed
between windows of operations and scales them, so that the host's slow
and fast spells do not move the figures (see "Machine speed reference").
The raw times are on the details line.

--trace 0 reports the end-to-end metrics.  --trace 1 runs the same
workload and seed with spans recorded around the benchmark's own calls
into the package's public functions, and reports the per-layer metrics.
Spans are kept in memory and written to .perfbench_out/ at the end.

The package is imported from the checked-out src/.  The benchmark
process writes no bytecode; its child processes write theirs to a
temporary directory under .perfbench_tmp/, so a run writes nothing under
src/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from array import array
from collections import Counter
from dataclasses import make_dataclass
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DATA = SRC / "motionsem" / "data"
TMP_ROOT = ROOT / ".perfbench_tmp"
OUT_DIR = ROOT / ".perfbench_out"

LANGS = ("fr", "en")
ZONES = ("inside", "contact", "proximal", "distal")
PHASES = ("pre", "during", "post")
PROVENANCES = ("verb", "prep", "interaction")
DISPLAY = {"verb": "Verb", "prep": "Preposition", "interaction": "Interaction"}
ROLE_PHASE = {"initial": "pre", "medial": "during", "final": "post"}
# Published CLI exit codes of the errors the workloads provoke.
EXIT_CODES = {"UnknownLemma": 3, "NotACoLVerb": 4}
MOBILE = "mobile"
CHILD_TIMEOUT_S = 60
HARD_STOP_S = 120  # keeps every run well inside its time limit
# Operations are timed in windows of this length; the speed reference is
# measured between windows (see SpeedReference).
WINDOW_S = {"kernel": 0.25, "child": 0.3}
# Times of the speed references at which the reported times are stated:
# about their medians on a 2-vCPU Xeon KVM guest.
REF_NOMINAL_MS = {"kernel": 6.0, "child": 50.0}
# How operation times follow each reference's slow-down (see
# SpeedReference): a time is scaled by (nominal / measured) ** exponent.
REF_EXPONENT = {"kernel": 0.75, "child": 1.0}
REF_KERNEL_REPS = 20

# Per workload: `stream` inputs are generated and cycled; the digest and
# the outcome histogram cover the first `digest_ops` operations, which
# every run completes; `min_ops` keeps at least ten samples beyond the
# tail percentile; `cap` fixes the latency buffer so that its memory does
# not depend on how fast the program is.
CONFIG = {
    "hot-sweep": dict(
        stream=20000, digest_ops=20000, min_ops=20000, cap=800_000, tail=99,
        setup_reps=15, probe_reps=5, span_ops=200,
    ),
    "fresh-lexicon": dict(
        copies=(2, 8), pairs_per_copy=12, digest_ops=40, min_ops=1000, cap=100_000, tail=99,
        setup_reps=15, probe_reps=5, span_ops=20,
    ),
    "cli-query": dict(
        stream=400, digest_ops=30, min_ops=200, cap=10_000, tail=95,
        setup_reps=15, probe_reps=5, span_ops=400,
    ),
}

# In-child set-up: import the entry point the workload uses and load the
# data it needs before its first operation; timed inside the child so
# interpreter start-up is excluded.
SETUP_CODE = {
    "hot-sweep": (
        "import motionsem\n"
        "motionsem.default_lexicon('fr'); motionsem.default_lexicon('en')\n"
        "motionsem.default_rulebase()\n"
    ),
    "fresh-lexicon": "import motionsem\nmotionsem.default_class_inventory()\n",
    "cli-query": (
        "import motionsem.cli\n"
        "from motionsem import default_lexicon, default_rulebase\n"
        "default_lexicon('fr'); default_lexicon('en'); default_rulebase()\n"
    ),
}

# Public functions wrapped by spans in a traced run, and the span names.
SPANS = {
    "compose": "compose",
    "compute_features": "compose.features",
    "applicable_rules": "rules.applicable",
    "validate_trace": "trace.validate",
    "explain": "compose.explain",
    "render_records": "trace.render",
    "load_lexicon": "lexicon.load",
    "default_lexicon": "lexicon.default_load",
    "default_class_inventory": "lexicon.inventory",
    "load_rulebase": "rules.load",
    "parse_corpus": "corpus.parse",
    "run_corpus": "corpus.run",
}

# Per-layer timings: metric name, span name, unit.
LAYER_TIMES = (
    ("compose.total_us", "compose", "us"),
    ("compose.features_us", "compose.features", "us"),
    ("rules.applicable_us", "rules.applicable", "us"),
    ("trace.validate_us", "trace.validate", "us"),
    ("compose.explain_us", "compose.explain", "us"),
    ("trace.render_us", "trace.render", "us"),
    ("lexicon.load_ms", "lexicon.load", "ms"),
    ("lexicon.default_load_ms", "lexicon.default_load", "ms"),
    ("lexicon.inventory_ms", "lexicon.inventory", "ms"),
    ("rules.load_ms", "rules.load", "ms"),
    ("corpus.parse_ms", "corpus.parse", "ms"),
    ("corpus.run_ms", "corpus.run", "ms"),
    ("cli.interpreter_ms", "cli.interpreter", "ms"),
    ("cli.import_ms", "cli.import", "ms"),
)
# Spans the traced run adds only to break compose down; they are not part
# of an untraced operation.
EXTRA_SPANS = ("compose.features", "rules.applicable", "trace.validate")
PARSE_SPANS = ("lexicon.load", "rules.load")


class BenchError(Exception):
    """The benchmark cannot run here (no sources, wrong package)."""


# ---------------------------------------------------------------------------
# Program under test


def load_program():
    """Import motionsem from the checked-out src/ and return its public API."""
    if not (SRC / "motionsem" / "__init__.py").is_file():
        raise BenchError(f"no package sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import motionsem
    import motionsem.rules

    if Path(motionsem.__file__).resolve().parent != (SRC / "motionsem").resolve():
        raise BenchError(f"imported motionsem from {motionsem.__file__}, not {SRC}")
    names = (
        "MotionComplex compose compute_features applicable_rules validate_trace "
        "explain render_records load_lexicon default_lexicon default_class_inventory "
        "load_rulebase default_rulebase parse_corpus run_corpus"
    ).split()
    api = SimpleNamespace(**{name: getattr(motionsem, name) for name in names})
    api.Guard = motionsem.rules.Guard
    return api


def error_name(exc: BaseException) -> str:
    name = type(exc).__name__
    return name[: -len("Error")] if name.endswith("Error") else name


# ---------------------------------------------------------------------------
# Tracing


class Tracer:
    """Spans recorded from the benchmark's side of each call, kept in memory.

    Durations of every span are kept per name; full span records (op id,
    name, start, end, parent) only for the first `span_ops` operations.
    """

    def __init__(self, span_ops: int):
        self.span_ops = span_ops
        self.durations: dict[str, array] = {}
        self.spans: list[tuple] = []
        self.op = -1  # -1: outside any operation
        self.last = 0
        self.guard_checks = 0
        self.counts = Counter()
        self.self_ns = array("q")

    def wrap(self, name, fn):
        durations = self.durations.setdefault(name, array("q"))
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                self.add(name, t0, t1, durations)

        return traced

    def add(self, name, t0, t1, durations=None):
        if durations is None:
            durations = self.durations.setdefault(name, array("q"))
        durations.append(t1 - t0)
        self.last = t1 - t0
        if self.op < self.span_ops:
            parent = "op" if self.op >= 0 and name != "op" else ""
            self.spans.append((self.op, name, t0, t1, parent))

    def traced_api(self, api):
        wrapped = {
            key: self.wrap(SPANS[key], fn) if key in SPANS else fn
            for key, fn in vars(api).items()
        }
        return SimpleNamespace(**wrapped)

    @contextlib.contextmanager
    def counting_guards(self, guard_cls):
        """Count Guard.matches calls while the block runs."""
        original = guard_cls.__dict__.get("matches")
        if original is None:
            yield
            return

        def matches(guard, features):
            self.guard_checks += 1
            return original(guard, features)

        guard_cls.matches = matches
        try:
            yield
        finally:
            guard_cls.matches = original

    def total(self, name) -> int:
        return sum(self.durations.get(name, ()))

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op\tname\tstart_ns\tend_ns\tparent\n")
            for op, name, t0, t1, parent in self.spans:
                fh.write(f"{op}\t{name}\t{t0}\t{t1}\t{parent}\n")


# ---------------------------------------------------------------------------
# Output checks, implemented from the lexicon entries' fields


def verb_fields(entry):
    role = entry.lref_role.label if entry.lref_role is not None else None
    start = entry.start_zone.label if entry.start_zone is not None else None
    end = entry.end_zone.label if entry.end_zone is not None else None
    return (entry.category, role, start, end)


def prep_fields(entry):
    role = entry.role.label if entry.role is not None else None
    return (entry.kind, role, entry.zone.label, entry.attained)


def fields_of(lexicon):
    return (
        {lemma: verb_fields(e) for lemma, e in lexicon.verbs.items()},
        {lemma: prep_fields(e) for lemma, e in lexicon.preps.items()},
    )


def expected_outcome(verbs, preps, verb, prep):
    """Error name the query must raise, or None when it must compose."""
    if verb not in verbs or prep not in preps:
        return "UnknownLemma"
    if verbs[verb][0] != "CoL":
        return "NotACoLVerb"
    return None


def verb_projection(fields, location):
    _, role, start, end = fields
    facts = {(location, "pre", start), (location, "post", end)}
    if role == "medial":
        facts.add((location, "during", "inside"))
    return facts


def prep_projection(fields, location):
    kind, role, zone, attained = fields
    if kind != "dir":
        return set()
    return {(location, ROLE_PHASE[role], "proximal" if attained is False else zone)}


def check_records(lines, vfields, pfields, verb, ground, golden=None):
    """Problems with a block of trace records; empty when it is sound.

    Checks the role bindings, the record shape and canonical order, zone
    continuity per location, provenance soundness against the entries'
    projections, that every verb fact is present, and (for golden inputs)
    the hand-written EXPECT lines with the ground renamed.
    """
    problems = []
    lref_names = (ground, f"lref#{verb}")
    if len(lines) < 3 or lines[0] != f"mobile {MOBILE}" or lines[2] != f"ground {ground}":
        return [f"bad bindings {lines[:3]!r}"]
    lref = lines[1][len("lref "):] if lines[1].startswith("lref ") else None
    if lref not in lref_names:
        return [f"bad lref binding {lines[1]!r}"]
    records = [line.split(" ") for line in lines[3:]]
    for rec in records:
        if (
            len(rec) != 4
            or rec[0] not in (lref, ground)
            or rec[1] not in PHASES
            or rec[2] not in ZONES
            or rec[3] not in PROVENANCES
        ):
            return [f"bad record {' '.join(rec)!r}"]
    keys = [(r[0], PHASES.index(r[1])) for r in records]
    if len(set(keys)) != len(keys):
        problems.append("two zones for one location and phase")
    if keys != sorted(keys):
        problems.append("records out of canonical order")
    zones: dict[str, dict[int, int]] = {}
    for loc, phase, zone, _ in records:
        zones.setdefault(loc, {})[PHASES.index(phase)] = ZONES.index(zone)
    for loc, per_phase in zones.items():
        defined = sorted(per_phase)
        for a, b in zip(defined, defined[1:]):
            if (a, b) != (0, 2) and abs(per_phase[a] - per_phase[b]) > 1:
                problems.append(f"discontinuity at {loc} {PHASES[a]}->{PHASES[b]}")
    vproj = verb_projection(vfields, lref)
    pproj = prep_projection(pfields, ground)
    facts = set()
    for loc, phase, zone, prov in records:
        fact = (loc, phase, zone)
        facts.add(fact)
        if prov == "verb" and fact not in vproj:
            problems.append(f"verb-tagged {fact} not in the verb projection")
        elif prov == "prep" and fact not in pproj:
            problems.append(f"prep-tagged {fact} not in the prep projection")
        elif prov == "interaction" and (fact in vproj or fact in pproj):
            problems.append(f"interaction-tagged {fact} is in an entry projection")
    if not vproj <= facts:
        problems.append("a verb fact is missing")
    if not any(r[0] == ground for r in records):
        problems.append("no record for the ground")
    if golden is not None and not isinstance(golden[1], str):
        gground, tuples = golden
        want = {(ground if t[0] == gground else t[0],) + t[1:] for t in tuples}
        if {tuple(r) for r in records} != want:
            problems.append("records differ from the golden EXPECT lines")
    return problems


def check_explain(text, complex_, vfields, pfields, golden=None):
    """Problems with an explain() text, and the fired rule id it names."""
    verb, prep, ground, lang = complex_
    lines = text.split("\n")
    if len(lines) < 4 or lines[0] != f"motion complex: {verb} + {prep} + {ground}  [{lang}]":
        return [f"bad explain header {lines[:1]!r}"], None
    if lines[1] != f"mobile: {MOBILE}" or not lines[3].startswith("fired rule: "):
        return ["bad explain preamble"], None
    fired = lines[3].split()[2]
    try:
        zones_at = lines.index("zones:")
        records_at = lines.index("records:")
    except ValueError:
        return ["explain lacks a zones or records section"], fired
    records = [line[2:] for line in lines[records_at + 1:]]
    problems = check_records(records, vfields, pfields, verb, ground, golden)
    table = {tuple(line.split()) for line in lines[zones_at + 2 : records_at - 1]}
    wanted = {tuple(r.split(" ")[:3]) + (DISPLAY.get(r.split(" ")[-1]),) for r in records[3:]}
    if table != wanted:
        problems.append("zone table disagrees with the records")
    return problems, fired


def read_golden(path: Path):
    """{(lang, verb, prep): (ground, expected tuples) or (ground, error name)}."""
    golden = {}
    key = ground = None
    tuples: list[tuple] = []
    error = None
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tag, _, rest = line.replace("\t", " ", 1).partition(" ")
        if tag == "INPUT":
            parts = rest.split("\t") if "\t" in rest else rest.split()
            verb, prep, ground, lang = (p.strip() for p in parts)
            key = (lang, verb, prep)
        elif tag == "EXPECT":
            tuples.append(tuple(rest.split()))
        elif tag == "EXPECT-ERROR":
            error = rest.strip()
        elif tag == "END":
            golden[key] = (ground, error if error is not None else frozenset(tuples))
            key, tuples, error = None, [], None
    return golden


class SeedData:
    """The shipped lexicons and rule base, loaded through the package, with
    their entries' fields and the golden corpus as the benchmark reads it."""

    def __init__(self, api):
        self.lexicons = {lang: api.default_lexicon(lang) for lang in LANGS}
        self.rules = api.default_rulebase()
        self.fields = {lang: fields_of(lex) for lang, lex in self.lexicons.items()}
        self.golden = read_golden(DATA / "golden.corpus")


# ---------------------------------------------------------------------------
# Run bookkeeping


class Run:
    """State shared by one run: API, tracer, checks, digest and counters."""

    def __init__(self, api, tracer, config):
        self.api = tracer.traced_api(api) if tracer is not None else api
        self.tracer = tracer
        self.config = config
        self.failed = 0
        self.failures: list[str] = []
        self.digest = hashlib.sha256()
        self.histogram = Counter()
        self.seen_pairs: set = set()
        self.repeats = 0
        self.queries = 0
        self.expected_errors = 0
        self.ops = 0

    def fail(self, where, problems):
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(f"{where}: {'; '.join(problems)}")

    def record(self, index, pair, output, outcomes, problems, expected_errors, queries=1):
        """Account for one operation.

        `outcomes` holds the fired rule id or error name of each of its
        `queries` queries; `pair` is None when the op's pairs are new by
        construction.
        """
        self.ops += 1
        self.queries += queries
        self.expected_errors += expected_errors
        if problems:
            self.fail(f"op {index} {pair}", problems)
        if index < self.config["digest_ops"]:
            self.digest.update(output.encode("utf-8") + b"\0")
            self.histogram.update(outcomes)
        if pair is None:
            return
        if pair in self.seen_pairs:
            self.repeats += 1
        else:
            self.seen_pairs.add(pair)

    def compose(self, lexicon, rules, verb, prep, ground, lang, expect_ok):
        """compose(); a traced run also times the layers compose is made of.

        compose.self_us is estimated as compose's span minus the spans of
        the benchmark's own compute_features and applicable_rules calls on
        the same entries.
        """
        api, tr = self.api, self.tracer
        complex_ = api.MotionComplex(verb, prep, ground, MOBILE, lang)
        if tr is None or not expect_ok:
            return api.compose(complex_, lexicon, rules)
        features = api.compute_features(lexicon.verbs[verb], lexicon.preps[prep])
        features_ns = tr.last
        candidates = api.applicable_rules(features, rules)
        applicable_ns = tr.last
        before = tr.guard_checks
        derivation = api.compose(complex_, lexicon, rules)
        tr.self_ns.append(tr.last - features_ns - applicable_ns)
        tr.counts["guard_checks"] += tr.guard_checks - before
        tr.counts["candidates"] += len(candidates)
        tr.counts["composed"] += 1
        tr.counts["defeats"] += len(derivation.defeated)
        tr.counts["inconsistent"] += sum(
            d.reason == "conclusion inconsistent" for d in derivation.defeated
        )
        if api.validate_trace(derivation.trace):
            raise AssertionError("validate_trace rejects a composed trace")
        return derivation


def check_output(fmt, output, complex_, vfields, pfields, derivation, golden):
    """Problems with one successful query output (explain or records)."""
    verb, _, ground, _ = complex_
    if fmt == "text":
        problems, fired = check_explain(output, complex_, vfields, pfields, golden)
        if fired != derivation.fired.id:
            problems.append(f"explain names rule {fired}, derivation fired {derivation.fired.id}")
        return problems
    return check_records(output.split("\n"), vfields, pfields, verb, ground, golden)


def query(run, data, op, golden, check=True):
    """One in-process query: compose, then explain or render_records.

    Only the program's calls are timed.  Returns ((start_ns, end_ns),
    output, outcome, problems, expected error name or None); with
    check=False the output is returned unchecked.
    """
    lang, verb, prep, ground, fmt = op
    verbs, preps = data.fields[lang]
    expected = expected_outcome(verbs, preps, verb, prep)
    api = run.api
    clock = time.perf_counter_ns
    t0 = clock()
    try:
        derivation = run.compose(
            data.lexicons[lang], data.rules, verb, prep, ground, lang, expected is None
        )
        output = api.explain(derivation) if fmt == "text" else api.render_records(derivation.trace)
    except Exception as exc:  # an unexpected error is a failed op, not a crash
        t1 = clock()
        name = error_name(exc)
        problems = [] if name == expected else [f"raised {name}: {exc}"]
        if golden is not None and isinstance(golden[1], str) and golden[1] != name:
            problems.append("error differs from golden EXPECT-ERROR")
        return (t0, t1), name, name, problems, expected
    t1 = clock()
    if expected is not None:
        return (t0, t1), output, derivation.fired.id, [f"composed, expected {expected}"], expected
    if not check:
        return (t0, t1), output, derivation.fired.id, [], None
    if golden is not None and isinstance(golden[1], str):
        return (t0, t1), output, derivation.fired.id, ["composed, golden expects an error"], None
    problems = check_output(
        fmt, output, (verb, prep, ground, lang), verbs[verb], preps[prep], derivation, golden
    )
    return (t0, t1), output, derivation.fired.id, problems, None


# ---------------------------------------------------------------------------
# Workloads: step(index) runs, checks and records one operation and returns
# the (start_ns, end_ns) window of its timed calls into the program.


class HotSweep:
    """Seed lexicons and rules loaded once; a seeded stream over all 300 pairs.

    Each op gets a ground from a pool, composes, and goes through explain
    or render_records in a 50/50 mix.  The first pass over the stream is
    checked in full; later passes must reproduce the first-pass output.
    """

    def __init__(self, run, seed):
        self.run = run
        self.data = SeedData(run.api)
        rng = random.Random(f"hot-sweep:{seed}")
        pairs = [
            (lang, verb, prep)
            for lang in LANGS
            for verb in sorted(self.data.fields[lang][0])
            for prep in sorted(self.data.fields[lang][1])
        ]
        grounds = [f"site{i:02d}" for i in range(48)]
        self.ops = []
        for _ in range(run.config["stream"]):
            lang, verb, prep = rng.choice(pairs)
            if rng.random() < 0.02:  # unknown lemma
                if rng.random() < 0.5:
                    verb = f"zz-verb{rng.randrange(8)}"
                else:
                    prep = f"zz-prep{rng.randrange(8)}"
            fmt = "text" if rng.random() < 0.5 else "records"
            self.ops.append((lang, verb, prep, rng.choice(grounds), fmt))
        self.first_pass: list[str] = []

    def step(self, index):
        run = self.run
        n = len(self.ops)
        op = self.ops[index % n]
        pair = op[:3]
        if index < n:
            window, output, outcome, problems, expected = query(
                run, self.data, op, self.data.golden.get(pair)
            )
            self.first_pass.append(output)
        else:
            window, output, outcome, _, expected = query(run, self.data, op, None, check=False)
            problems = [] if output == self.first_pass[index % n] else ["output changed between passes"]
        run.record(index, pair, output, (outcome,), problems, expected is not None)
        return window


def read_inventory():
    pairs = []
    for raw in (DATA / "col_classes.txt").read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            start, end = line.split()
            pairs.append((start, end))
    return sorted(pairs)


def generate_lexicon(rng, index, inventory, copies):
    """A fresh lexicon text with lemmas unique to this op, plus its fields.

    Each copy holds every CoL class in the inventory with initial and
    final roles, two medial path verbs, three non-CoL verbs, and
    prepositions of all four shapes with both attainment values: 45
    entries.
    """
    lang = rng.choice(LANGS)
    tag = f"o{index}-"
    verbs, preps = {}, {}
    for _ in range(copies):
        for start, end in inventory:
            for role in ("initial", "final"):
                verbs[f"{tag}v{len(verbs)}"] = ("CoL", role, start, end)
        for _ in range(2):
            verbs[f"{tag}v{len(verbs)}"] = ("CoL", "medial", "contact", "contact")
        for category in ("CoPs", "ICoPs", "CoPtu"):
            verbs[f"{tag}v{len(verbs)}"] = (category, None, None, None)
        for zone in ZONES:
            preps[f"{tag}p{len(preps)}"] = ("pos", None, zone, None)
            preps[f"{tag}p{len(preps)}"] = ("dir", "initial", zone, None)
            preps[f"{tag}p{len(preps)}"] = ("dir", "medial", zone, None)
            preps[f"{tag}p{len(preps)}"] = ("dir", "final", zone, True)
            preps[f"{tag}p{len(preps)}"] = ("dir", "final", zone, False)
    lines = []
    for lemma, (category, role, start, end) in verbs.items():
        cols = ["V", lemma, category] + ([role, start, end] if category == "CoL" else [])
        if rng.random() < 0.3:
            cols.append(f"gloss=to {lemma}")
        lines.append("\t".join(cols))
    for lemma, (kind, role, zone, attained) in preps.items():
        cols = ["P", lemma, kind] + ([role] if role else []) + [zone]
        if attained is False or (attained and rng.random() < 0.5):
            cols.append(f"attained={'true' if attained else 'false'}")
        lines.append("\t".join(cols))
    rng.shuffle(lines)
    text = f"# generated lexicon {index}\nLANG\t{lang}\n" + "\n".join(lines) + "\n"
    return lang, text, verbs, preps


class FreshLexicon:
    """Every op parses a new lexicon and the rule base, then composes a
    sample of distinct pairs once each through render_records.

    Lexicon and sample sizes vary per op (90 to 360 entries, 12 pairs per
    45 entries), which keeps parsing near a third of each op and spreads
    op latencies, so their median moves smoothly when the machine's
    speed does.
    """

    def __init__(self, run, seed):
        self.run = run
        self.seed = seed
        self.inventory = read_inventory()
        self.rules_text = (DATA / "default.rules").read_text(encoding="utf-8")
        self.grounds = [f"place{i:02d}" for i in range(32)]

    def step(self, index):
        run, api, config = self.run, self.run.api, self.run.config
        rng = random.Random(f"fresh-lexicon:{self.seed}:{index}")
        copies = rng.randint(*config["copies"])
        lang, text, verbs, preps = generate_lexicon(rng, index, self.inventory, copies)
        verb_names, prep_names = list(verbs), list(preps)
        sample = [
            divmod(k, len(prep_names))
            for k in rng.sample(range(len(verb_names) * len(prep_names)), config["pairs_per_copy"] * copies)
        ]
        jobs = []
        for v, p in sample:
            verb, prep = verb_names[v], prep_names[p]
            jobs.append((verb, prep, rng.choice(self.grounds), expected_outcome(verbs, preps, verb, prep)))
        clock = time.perf_counter_ns
        results = []
        t0 = clock()
        lexicon = api.load_lexicon(io.StringIO(text))
        rules = api.load_rulebase(io.StringIO(self.rules_text))
        for verb, prep, ground, expected in jobs:
            try:
                derivation = run.compose(lexicon, rules, verb, prep, ground, lang, expected is None)
                results.append((api.render_records(derivation.trace), derivation.fired.id, None))
            except Exception as exc:  # checked against the expected error below
                results.append((error_name(exc), error_name(exc), error_name(exc)))
        t1 = clock()

        problems = []
        if len(lexicon.verbs) != len(verbs) or len(lexicon.preps) != len(preps):
            problems.append("parsed lexicon size differs from the generated one")
        for (verb, prep, ground, expected), (output, _, error) in zip(jobs, results):
            if error != expected:
                problems.append(f"{verb}+{prep}: {error or 'composed'}, expected {expected or 'a trace'}")
            elif error is None:
                problems += check_records(output.split("\n"), verbs[verb], preps[prep], verb, ground)
        run.record(
            index, None, "\n".join(output for output, _, _ in results),
            [outcome for _, outcome, _ in results], problems,
            sum(job[3] is not None for job in jobs), queries=len(jobs),
        )
        return t0, t1


class CliQuery:
    """`python -m motionsem.cli` child processes, one at a time.

    Most ops are `query` with a seeded verb, preposition, language and
    format, including unknown lemmas (exit 3) and non-CoL verbs (exit 4);
    a few are `corpus golden.corpus` and `lint`.  Each child's stdout and
    exit code are compared with the same commit's in-process output.
    """

    def __init__(self, run, seed, env, cwd):
        self.run, self.env, self.cwd = run, env, cwd
        self.data = SeedData(run.api)
        rng = random.Random(f"cli-query:{seed}")
        grounds = [f"site{i:02d}" for i in range(48)]
        self.ops = []
        for _ in range(run.config["stream"]):
            roll = rng.random()
            if roll < 0.04:
                self.ops.append(("corpus",))
                continue
            if roll < 0.08:
                self.ops.append(("lint",))
                continue
            lang = rng.choice(LANGS)
            verbs, preps = self.data.fields[lang]
            verb = rng.choice(sorted(verbs))
            prep = rng.choice(sorted(preps))
            if rng.random() < 0.05:
                verb = f"zz-verb{rng.randrange(8)}"
            fmt = "text" if rng.random() < 0.5 else "records"
            self.ops.append(("query", lang, verb, prep, rng.choice(grounds), fmt))

    def argv(self, op):
        base = [sys.executable, "-m", "motionsem.cli"]
        if op[0] == "corpus":
            return base + ["corpus", str(DATA / "golden.corpus")]
        if op[0] == "lint":
            return base + ["lint"]
        _, lang, verb, prep, ground, fmt = op
        return base + ["query", verb, prep, ground, "--lang", lang, "--format", fmt]

    def reference(self, op):
        """(stdout, exit code, outcome, problems, expected error) in process."""
        if op[0] != "query":
            import motionsem.cli

            out, err = io.StringIO(), io.StringIO()
            argv = self.argv(op)[3:]
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = motionsem.cli.main(argv)
            problems = [] if code == 0 else [f"in-process {op[0]} exits {code}"]
            if op[0] == "corpus":
                problems += golden_problems(self.run, self.data)
            return out.getvalue(), code, op[0], problems, None
        _, lang, verb, prep, ground, fmt = op
        _, output, outcome, problems, expected = query(
            self.run, self.data, op[1:], self.data.golden.get((lang, verb, prep))
        )
        if expected is not None:
            return "", EXIT_CODES[expected], outcome, problems, expected
        return output + "\n", 0, outcome, problems, None

    def step(self, index):
        op = self.ops[index % len(self.ops)]
        clock = time.perf_counter_ns
        t0 = clock()
        child = run_child(self.argv(op), self.env, self.cwd)
        t1 = clock()
        if self.run.tracer is not None:
            self.run.tracer.add(f"cli.{op[0]}", t0, t1)
        stdout, code, outcome, problems, expected = self.reference(op)
        if child.returncode != code:
            problems.append(f"exit {child.returncode}, expected {code}")
        if child.stdout != stdout:
            problems.append("stdout differs from the in-process output")
        if code != 0 and not child.stderr.startswith("error: "):
            problems.append("error exit without an error message")
        pair = op[1:4] if op[0] == "query" else op
        output = f"{child.returncode}\n{child.stdout}"
        self.run.record(index, pair, output, (outcome,), problems, expected is not None)
        return t0, t1


def golden_problems(run, data):
    """Compose every golden input in process and compare with its EXPECT lines."""
    problems = []
    for (lang, verb, prep), golden in sorted(data.golden.items()):
        _, _, _, found, _ = query(run, data, (lang, verb, prep, golden[0], "records"), golden)
        problems += [f"golden {verb}+{prep}: {p}" for p in found]
    return problems


# ---------------------------------------------------------------------------
# Child processes


def child_env(pycache: Path) -> dict:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONPYCACHEPREFIX"] = str(pycache)
    env["PYTHONUTF8"] = "1"
    return env


def run_child(argv, env, cwd):
    return subprocess.run(
        argv, env=env, cwd=cwd, capture_output=True, text=True, encoding="utf-8",
        timeout=CHILD_TIMEOUT_S,
    )


def timed_child(code, env, cwd) -> float:
    """Seconds a child reports for `code`, timed inside the child."""
    script = f"import time\nt = time.perf_counter()\n{code}print(time.perf_counter() - t)\n"
    child = run_child([sys.executable, "-c", script], env, cwd)
    if child.returncode != 0:
        raise BenchError(f"child failed: {child.stderr.strip()}")
    return float(child.stdout.strip().splitlines()[-1])


def probe_layers(run, env, cwd, reps):
    """Time each layer on its own, outside the workload's loop.

    Gives every per-layer metric a value on every workload: a metric the
    loop measures itself is taken from the loop, the rest from here.
    """
    api, tracer = run.api, run.tracer
    rules_text = (DATA / "default.rules").read_text(encoding="utf-8")
    lex_texts = {lang: (DATA / f"{lang}.lex").read_text(encoding="utf-8") for lang in LANGS}
    golden_text = (DATA / "golden.corpus").read_text(encoding="utf-8")
    for _ in range(reps):
        api.default_class_inventory()
        api.load_rulebase(io.StringIO(rules_text))
        for lang in LANGS:
            api.load_lexicon(io.StringIO(lex_texts[lang]))
        data = SeedData(api)
        report = api.run_corpus(
            api.parse_corpus(io.StringIO(golden_text)), data.lexicons, data.rules
        )
        if not report.ok:
            run.fail("probe", ["golden corpus run is not green"])
        for fmt in ("text", "records"):
            _, _, _, problems, _ = query(run, data, ("fr", "sortir", "dans", "jardin", fmt), None)
            if problems:
                run.fail("probe", problems)
    clock = time.perf_counter_ns
    query_argv = [sys.executable, "-m", "motionsem.cli", "query", "sortir", "dans", "jardin"]
    for _ in range(reps):
        t0 = clock()
        run_child([sys.executable, "-c", "pass"], env, cwd)
        tracer.add("cli.interpreter", t0, clock())
        seconds = timed_child("import motionsem.cli\n", env, cwd)
        tracer.add("cli.import", 0, round(seconds * 1e9))
        t0 = clock()
        child = run_child(query_argv, env, cwd)
        tracer.add("cli.query_probe", t0, clock())
        if child.returncode != 0:
            run.fail("probe", [f"query exits {child.returncode}"])


# ---------------------------------------------------------------------------
# Machine speed reference
#
# The host's speed switches between spells of seconds to minutes in which
# pure-Python code runs up to 1.8 times slower, whatever runs in it, so raw
# times of runs a few minutes apart differ by more than any bound worth
# setting.  Times are therefore reported at a reference speed: each raw
# time is multiplied by (nominal / measured) ** exponent, where measured
# is the time of a fixed reference taken on either side of it.  Each kind
# of work has the reference that tracks its drift best:
#   kernel  in-process operations: the pure-Python parse-and-render code
#           below, of the same kind as the program's, kept in the benchmark
#           so that no change to the program changes it.  It slows more
#           than the program in a slow spell: over many windows, when the
#           kernel ran 1.65 to 1.85 times slower, hot-sweep and
#           fresh-lexicon median latencies rose 1.45 to 1.55 times, which
#           the exponent 0.75 matches;
#   child   child processes (cli-query operations and set-up): the wall
#           time of `python -c pass`, the interpreter's own start-up, which
#           tracks them with exponent 1.
# Raw times and the references' medians are printed on the details line.


_REF_ZONES = ("inside", "contact", "proximal", "distal")
_REF_ROLES = ("initial", "medial", "final")
_REF_TEXT = "# reference\n" + "".join(
    f"V\tw{i}\t{'CoL' if i % 3 else 'CoPs'}\t{_REF_ROLES[i % 3]}\t{_REF_ZONES[i % 4]}"
    f"\t{_REF_ZONES[(i + 1) % 4]}{chr(9) + 'gloss=x' if i % 5 == 0 else ''}\n"
    for i in range(48)
)
_REF_PHASE = {"initial": "pre", "medial": "during", "final": "post"}


_RefEntry = make_dataclass(
    "_RefEntry", ["lemma", "category", "role", "start", "end", ("gloss", str, "")], frozen=True
)


def _ref_zone(tag, lineno):
    if tag not in _REF_ZONES:
        raise ValueError(f"line {lineno}: zone {tag}")
    return tag


def _ref_parse(text):
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        f = line.split("\t")
        extra = dict(kv.split("=", 1) for kv in f[6:])
        entries[f[1]] = _RefEntry(
            f[1], f[2], f[3], _ref_zone(f[4], lineno), _ref_zone(f[5], lineno),
            extra.get("gloss", ""),
        )
    return entries


def _ref_facts(entry):
    if entry.category != "CoL":
        return ()
    phase = _REF_PHASE[entry.role]
    facts = tuple((phase, z, "verb") for z in (entry.start, entry.end) if z != "contact")
    return facts or (("during", "contact", "verb"),)


def _ref_render(entries):
    rows = []
    for entry in sorted(entries.values(), key=lambda e: (e.role, e.lemma)):
        for phase, zone, source in _ref_facts(entry):
            rows.append(f"{entry.lemma}\t{phase}\t{zone}\t{source}")
    return "\n".join(rows)


class SpeedReference:
    """Measures one reference and turns raw times into reference-speed times."""

    def __init__(self, kind, env, cwd):
        self.kind, self.env, self.cwd = kind, env, cwd
        self.nominal_ns = REF_NOMINAL_MS[kind] * 1e6
        self.samples = array("q")
        self.check = _ref_render(_ref_parse(_REF_TEXT))

    def measure(self) -> int:
        """Time the reference once, in ns."""
        clock = time.perf_counter_ns
        if self.kind == "child":
            t0 = clock()
            child = run_child([sys.executable, "-c", "pass"], self.env, self.cwd)
            elapsed = clock() - t0
            if child.returncode != 0:
                raise BenchError(f"python -c pass exits {child.returncode}")
        else:
            # The collector is off so that the program's live objects
            # cannot make the reference slower.
            enabled = gc.isenabled()
            gc.disable()
            try:
                t0 = clock()
                for _ in range(REF_KERNEL_REPS):
                    out = _ref_render(_ref_parse(_REF_TEXT))
                elapsed = clock() - t0
            finally:
                if enabled:
                    gc.enable()
            if out != self.check:
                raise BenchError("speed reference kernel is not deterministic")
        self.samples.append(elapsed)
        return elapsed

    def scale(self, before: int, after: int) -> float:
        """Factor for times taken between two measurements."""
        return (2 * self.nominal_ns / (before + after)) ** REF_EXPONENT[self.kind]

    def summary(self) -> dict:
        return {
            "kind": self.kind,
            "nominal_ms": REF_NOMINAL_MS[self.kind],
            "exponent": REF_EXPONENT[self.kind],
            "median_ms": median(self.samples) / 1e6,
            "samples": len(self.samples),
        }


# ---------------------------------------------------------------------------
# Driver


def median(values):
    return statistics.median(values) if len(values) else 0.0


def layer_metrics(run, probe, busy_ns):
    """Per-layer metrics of a traced run (loop spans first, then the probe)."""
    loop = run.tracer

    def durations(name):
        values = loop.durations.get(name)
        return values if values else probe.durations.get(name, ())

    metrics = {}
    for metric, span, unit in LAYER_TIMES:
        scale = 1e3 if unit == "us" else 1e6
        metrics[metric] = (median(durations(span)) / scale, unit)
    metrics["cli.overhead_ms"] = (
        (median(durations("cli.query_probe")) - median(durations("cli.interpreter"))) / 1e6,
        "ms",
    )
    self_ns = loop.self_ns if len(loop.self_ns) else probe.self_ns
    metrics["compose.self_us"] = (median(self_ns) / 1e3, "us")
    counts = loop.counts if loop.counts["composed"] else probe.counts
    composed = max(counts["composed"], 1)
    metrics["compose.defeats_per_op"] = (counts["defeats"] / composed, "count")
    metrics["compose.inconsistent_ratio"] = (
        counts["inconsistent"] / max(counts["inconsistent"] + counts["composed"], 1),
        "ratio",
    )
    metrics["rules.candidates_per_op"] = (counts["candidates"] / composed, "count")
    metrics["rules.guards_checked_per_op"] = (counts["guard_checks"] / composed, "count")
    metrics["errors.expected_error_ratio"] = (run.expected_errors / max(run.queries, 1), "ratio")
    metrics["workload.pair_repeat_ratio"] = (run.repeats / max(run.ops, 1), "ratio")
    metrics["trace.ops_per_s"] = (run.ops / (busy_ns / 1e9), "1/s")
    shares = span_shares(loop)
    metrics["op.parse_share"] = (sum(shares.get(name, 0.0) for name in PARSE_SPANS), "ratio")
    metrics["op.compose_share"] = (shares.get("compose", 0.0), "ratio")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def span_shares(tracer):
    """Each span's share of operation time, leaving out the spans that only
    a traced run adds."""
    op_ns = tracer.total("op") - sum(tracer.total(name) for name in EXTRA_SPANS)
    if op_ns <= 0:
        return {}
    return {
        name: tracer.total(name) / op_ns
        for name in sorted(tracer.durations)
        if name != "op" and name not in EXTRA_SPANS
    }


def timing_metrics(setup, ops, busy_ns, latencies, tail):
    """End-to-end time metrics from set-up times (s), op latencies (ns) and
    their sum."""
    cuts = statistics.quantiles(sorted(latencies), n=100, method="inclusive")
    metrics = {
        "setup_s": (median(setup), "s"),
        "ops_per_s": (ops / (busy_ns / 1e9), "1/s"),
        "latency_p50_ms": (cuts[49] / 1e6, "ms"),
        "latency_p90_ms": (cuts[89] / 1e6, "ms"),
        "latency_tail_ms": (cuts[tail - 1] / 1e6, "ms"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def run_benchmark(workload, seed, seconds, trace, config=None):
    """Run one workload; returns (result dict, details dict)."""
    config = dict(CONFIG[workload] if config is None else config)
    api = load_program()
    TMP_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=TMP_ROOT))
    try:
        return _run(api, workload, seed, seconds, trace, config, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            TMP_ROOT.rmdir()


def _run(api, workload, seed, seconds, trace, config, tmp):
    pycache = tmp / "pycache"
    env = child_env(pycache)
    cwd = str(tmp)
    warm = run_child([sys.executable, "-m", "motionsem.cli", "lint"], env, cwd)

    tracer = Tracer(config["span_ops"]) if trace else None
    run = Run(api, tracer, config)
    if warm.returncode != 0:
        run.fail("warm-up", [f"lint exits {warm.returncode}: {warm.stderr.strip()}"])

    probe = None
    if trace:
        probe = Tracer(0)
        probe_run = Run(api, probe, config)
        with probe.counting_guards(api.Guard):
            probe_layers(probe_run, env, cwd, config["probe_reps"])
        run.failed += probe_run.failed
        run.failures += probe_run.failures

    if workload == "hot-sweep":
        bench = HotSweep(run, seed)
    elif workload == "fresh-lexicon":
        bench = FreshLexicon(run, seed)
    else:
        bench = CliQuery(run, seed, env, cwd)

    # Operations are timed in windows; the speed reference is measured
    # between windows, and each window's times are scaled by the mean of
    # the measurements on either side.  Set-up is measured untraced,
    # between windows spread over the run, with the child reference on
    # either side of it.
    speed = SpeedReference("child" if workload == "cli-query" else "kernel", env, cwd)
    starts = SpeedReference("child", env, cwd)
    setup_reps = 0 if trace else config["setup_reps"]
    setup_raw: list[float] = []
    setup: list[float] = []

    def measure_setup():
        before = starts.measure()
        seconds = timed_child(SETUP_CODE[workload], env, cwd)
        setup_raw.append(seconds)
        setup.append(seconds * starts.scale(before, starts.measure()))

    cap = config["cap"]
    latencies = array("q", bytes(8 * cap))
    scaled = array("d", bytes(8 * cap))
    busy_ns = 0
    scaled_busy_ns = 0.0
    gc.collect()
    clock = time.perf_counter_ns
    window_ns = int(WINDOW_S[speed.kind] * 1e9)
    ref_before = speed.measure()
    start = clock()
    deadline = start + int(seconds * 1e9)
    hard_stop = start + HARD_STOP_S * 10**9
    setup_every = int(seconds * 1e9) // max(setup_reps, 1)
    next_setup = start
    window_end = start + window_ns
    window_first = window_busy = 0
    guards = tracer.counting_guards(api.Guard) if trace else contextlib.nullcontext()
    index = 0
    with guards:
        while True:
            if tracer is not None:
                tracer.op = index
            t0, t1 = bench.step(index)
            latency = t1 - t0
            if tracer is not None:
                tracer.add("op", t0, t1)
            latencies[index % cap] = latency
            window_busy += latency
            index += 1
            now = clock()
            done = (now >= deadline and index >= config["min_ops"]) or now >= hard_stop
            if now < window_end and not done:
                continue
            ref_after = speed.measure()
            factor = speed.scale(ref_before, ref_after)
            for i in range(max(window_first, index - cap), index):
                scaled[i % cap] = latencies[i % cap] * factor
            busy_ns += window_busy
            scaled_busy_ns += window_busy * factor
            ref_before, window_first, window_busy = ref_after, index, 0
            if done:
                break
            if len(setup) < setup_reps and now >= next_setup:
                measure_setup()
                next_setup += setup_every
            window_end = clock() + window_ns
    while len(setup) < setup_reps:
        measure_setup()
    if workload == "cli-query":
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    kept = min(index, cap)
    tail = config["tail"]
    if trace:
        metrics = layer_metrics(run, probe, scaled_busy_ns)
        tracer.write(OUT_DIR / f"spans-{workload}.tsv")
    else:
        metrics = timing_metrics(setup, index, scaled_busy_ns, scaled[:kept], tail)
        metrics["peak_rss_mb"] = {"value": peak_kb / 1024, "unit": "MB"}
    raw = timing_metrics(setup_raw, index, busy_ns, latencies[:kept], tail)
    if not setup_raw:
        del raw["setup_s"]
    result = {
        "correct": run.failed == 0,
        "attempted": run.ops,
        "failed": run.failed,
        "metrics": metrics,
    }
    details = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "samples": kept,
        "tail_percentile": tail,
        "samples_beyond_tail": kept - round(kept * tail / 100),
        "failed_ratio": run.failed / max(run.ops, 1),
        "failures": run.failures,
        "digest": run.digest.hexdigest(),
        "digest_ops": config["digest_ops"],
        "histogram": dict(sorted(run.histogram.items())),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "raw": {name: metric["value"] for name, metric in raw.items()},
        "speed_reference": speed.summary(),
    }
    if setup_reps:
        details["setup_reference"] = starts.summary()
    if trace:
        details["layer_shares"] = span_shares(tracer)
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(CONFIG), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.dont_write_bytecode = True  # a run writes nothing under src/
    # On SIGTERM, unwind so that the running child is killed and waited
    # for and the temporary directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        result, details = run_benchmark(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for failure in details["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    print("details " + json.dumps(details, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
