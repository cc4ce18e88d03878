"""Value-type contract of the public record classes, and import hygiene."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from motionsem.compose import Defeat, Derivation, MotionComplex
from motionsem.corpus import CaseResult, CorpusCase, CorpusReport
from motionsem.lexicon import Lexicon, PrepEntry, VerbEntry, default_lexicon
from motionsem.rules import (
    ComplexFeatures,
    CompositionRule,
    Conclusion,
    Guard,
    LintCell,
    LintReport,
    RuleBase,
)
from motionsem.trace import (
    Provenance,
    SpatiotemporalTrace,
    Violation,
    ZoneAssignment,
)
from motionsem.zones import LrefRole, Phase, Zone

SRC = Path(__file__).resolve().parent.parent / "src"

VERB = VerbEntry("sortir", "CoL", LrefRole.INITIAL, Zone.INSIDE, Zone.PROXIMAL)
PREP = PrepEntry("dans", "pos", Zone.INSIDE)
ASSIGNMENT = ZoneAssignment("jardin", Phase.POST, Zone.INSIDE, Provenance.INTERACTION)
TRACE = SpatiotemporalTrace("mobile", "lref#sortir", "jardin", (ASSIGNMENT,))
FEATURES = ComplexFeatures(LrefRole.INITIAL, "pos", None, False, None)
GUARD = Guard((("prepkind", "pos"),))
CONCLUSION = Conclusion("bind", Phase.POST, None, Provenance.INTERACTION)
RULE = CompositionRule("D1", "defeasible", 10, GUARD, CONCLUSION)
COMPLEX = MotionComplex("sortir", "dans", "jardin", "mobile", "fr")
CELL = LintCell(LrefRole.INITIAL, "pos", None)
TUPLE4 = ("jardin", "post", "inside", "interaction")

# Every public record class, with the fields of one example value.
RECORDS = [
    (ZoneAssignment, tuple(ASSIGNMENT)),
    (SpatiotemporalTrace, tuple(TRACE)),
    (Violation, ("jardin", (Phase.PRE, Phase.POST), "discontinuity", "jump")),
    (VerbEntry, tuple(VERB)),
    (PrepEntry, ("vers", "dir", Zone.INSIDE, LrefRole.FINAL, False)),
    (Lexicon, ("fr", {"sortir": VERB}, {"dans": PREP})),
    (ComplexFeatures, tuple(FEATURES)),
    (Guard, tuple(GUARD)),
    (Conclusion, tuple(CONCLUSION)),
    (CompositionRule, tuple(RULE)),
    (RuleBase, ("v1", (RULE,))),
    (LintCell, tuple(CELL)),
    (LintReport, ((CELL,), ((CELL, "A/B"),))),
    (MotionComplex, tuple(COMPLEX)),
    (Defeat, ("D2i", "S1", "identification forbidden")),
    (Derivation, (COMPLEX, FEATURES, RULE, (), TRACE)),
    (CorpusCase, ("c1", COMPLEX, (TUPLE4,), None)),
    (CaseResult, ("c1", "fail", "D1", (TUPLE4,), (), "assignment tuples differ")),
    (CorpusReport, ((CaseResult("c1", "pass"),), {"D1": 1})),
]


def _hashable(values) -> bool:
    try:
        hash(values)
    except TypeError:
        return False
    return True


@pytest.mark.parametrize("cls, values", RECORDS, ids=[c.__name__ for c, _ in RECORDS])
def test_record_is_an_immutable_value(cls, values):
    a, b = cls(*values), cls(*values)
    assert a is not b and a == b and not a != b
    if _hashable(values):
        assert hash(a) == hash(b)
    for name in ("version", "rules") if cls is RuleBase else a._fields:
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(b, name))
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    if cls is Lexicon:  # its mappings are read-only too
        for mapping in (a.verbs, a.preps):
            with pytest.raises(TypeError):
                mapping["x"] = VERB
            with pytest.raises(TypeError):
                del mapping[next(iter(mapping))]
    assert a == b
    if cls is RuleBase:
        assert a != values
    else:
        assert tuple(a) == values and a == values  # named tuples unpack


def test_lexicon_holds_read_only_copies():
    verbs, preps = {"sortir": VERB}, {"dans": PREP}
    lexicon = Lexicon("fr", verbs, preps)
    verbs["entrer"] = VERB._replace(lemma="entrer")
    del preps["dans"]
    assert dict(lexicon.verbs) == {"sortir": VERB}
    assert dict(lexicon.preps) == {"dans": PREP}
    loaded = default_lexicon("fr")
    for lex in (lexicon._replace(verbs={}), loaded):
        with pytest.raises(TypeError):
            lex.verbs["x"] = VERB
        with pytest.raises(TypeError):
            lex.preps["x"] = PREP
    assert lexicon._replace(verbs={}).verbs == {}
    with pytest.raises(TypeError):
        hash(loaded)  # compares by value, but cannot be hashed


# One example per module, pinned to the repr text these classes have always had.
PINNED_REPRS = [
    (
        ASSIGNMENT,
        "ZoneAssignment(location='jardin', phase=<Phase.POST: 2>, "
        "zone=<Zone.INSIDE: 0>, provenance=<Provenance.INTERACTION: 'interaction'>)",
    ),
    (
        VERB,
        "VerbEntry(lemma='sortir', category='CoL', lref_role=<LrefRole.INITIAL: 0>, "
        "start_zone=<Zone.INSIDE: 0>, end_zone=<Zone.PROXIMAL: 2>, gloss=None)",
    ),
    (
        RuleBase("v1", (RULE,)),
        "RuleBase(version='v1', rules=(CompositionRule(id='D1', "
        "strength='defeasible', priority=10, guard=Guard(atoms=(('prepkind', "
        "'pos'),)), conclusion=Conclusion(kind='bind', phase=<Phase.POST: 2>, "
        "zone=None, provenance=<Provenance.INTERACTION: 'interaction'>)),))",
    ),
    (
        COMPLEX,
        "MotionComplex(verb_lemma='sortir', prep_lemma='dans', ground='jardin', "
        "mobile='mobile', language='fr')",
    ),
    (
        CaseResult("c1", "fail", "D2i", (TUPLE4,), (), "assignment tuples differ"),
        "CaseResult(case_id='c1', status='fail', fired_rule='D2i', "
        "missing=(('jardin', 'post', 'inside', 'interaction'),), unexpected=(), "
        "detail='assignment tuples differ')",
    ),
]


@pytest.mark.parametrize(
    "value, text", PINNED_REPRS, ids=[type(v).__name__ for v, _ in PINNED_REPRS]
)
def test_repr_text_is_pinned(value, text):
    assert repr(value) == text


def test_cli_import_does_not_load_dataclasses():
    # -S keeps site-installed .pth hooks from preloading modules
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import motionsem.cli\n"
        "print('dataclasses' in sys.modules)\n"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    )
    assert done.stdout == "False\n"


# The names the benchmark (perfbench/run.py, load_program) reads from the package.
BENCHMARK_API = (
    "MotionComplex compose compute_features applicable_rules validate_trace "
    "explain render_records load_lexicon default_lexicon default_class_inventory "
    "load_rulebase default_rulebase parse_corpus run_corpus"
).split()


def test_benchmark_api_is_present():
    import motionsem
    import motionsem.rules

    assert len(BENCHMARK_API) == 14
    for name in BENCHMARK_API:
        assert name in motionsem.__all__ and callable(getattr(motionsem, name))
    # names the package resolves on first use must stay as public as the rest
    star: dict = {}
    exec("from motionsem import *", star)
    for name in motionsem.__all__:
        assert star[name] is getattr(motionsem, name)
    assert set(star) - {"__builtins__"} == set(motionsem.__all__)
    # the traced benchmark counts guard checks by wrapping Guard.matches; a
    # matches inherited or renamed would silently stop the count
    assert "matches" in motionsem.rules.Guard.__dict__
