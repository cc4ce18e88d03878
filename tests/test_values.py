"""Value-type contract of the public record classes, and import hygiene."""

from __future__ import annotations

import ast
import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from motionsem.compose import Defeat, Derivation, MotionComplex
from motionsem.corpus import CaseResult, CorpusCase, CorpusReport
from motionsem.errors import IllFormedEntryError
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


RECORD_IDS = [c.__name__ for c, _ in RECORDS]

# The classes whose sample's required fields alone make no value: a CoL verb
# without its role and zones, a directional prep without its role, a bind
# without its phase.  The constructor refuses them, with this message.
REFUSED_ALONE = {
    VerbEntry: "CoL entry 'sortir' lacks zone constraints",
    PrepEntry: "directional prep 'vers' lacks a role",
    Conclusion: "'bind' has phase None, equal to no member",
}


def refused_alone(cls, *args, **kwargs) -> bool:
    """Whether cls refuses its sample's required fields alone, as REFUSED_ALONE says."""
    if cls not in REFUSED_ALONE:
        return False
    with pytest.raises(IllFormedEntryError) as info:
        cls(*args, **kwargs)
    assert str(info.value) == REFUSED_ALONE[cls]
    return True


@pytest.mark.parametrize("cls, values", RECORDS, ids=RECORD_IDS)
def test_record_is_an_immutable_value(cls, values):
    a, b = cls(*values), cls(*values)
    assert a is not b and a == b and not a != b
    if _hashable(values):
        assert hash(a) == hash(b)
    for name in a._fields:
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
    assert tuple(a) == values and a == values  # named tuples unpack


@pytest.mark.parametrize("cls, values", RECORDS, ids=RECORD_IDS)
def test_record_survives_pickle_and_copy(cls, values):
    a = cls(*values)
    for b in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert type(b) is cls and b == a and repr(b) == repr(a)
    if cls is Lexicon:
        assert isinstance(pickle.loads(pickle.dumps(a)).verbs, type(a.verbs))


# The fields and defaults of each named-tuple record class, as declared.
FIELDS = {
    ZoneAssignment: ("location phase zone provenance", {}),
    SpatiotemporalTrace: (
        "mobile lref ground assignments", {"lref": None, "ground": None, "assignments": ()}
    ),
    Violation: ("location phases kind message", {}),
    VerbEntry: (
        "lemma category lref_role start_zone end_zone gloss",
        {"lref_role": None, "start_zone": None, "end_zone": None, "gloss": None},
    ),
    PrepEntry: ("lemma kind zone role attained", {"role": None, "attained": None}),
    Lexicon: ("language verbs preps", {}),
    ComplexFeatures: ("lref_role prep_kind prep_role zone_compatible attained", {}),
    Guard: ("atoms", {}),
    Conclusion: (
        "kind phase zone provenance", {"phase": None, "zone": None, "provenance": None}
    ),
    CompositionRule: ("id strength priority guard conclusion", {}),
    RuleBase: ("version rules", {"rules": ()}),
    LintCell: ("lref_role prep_kind prep_role", {}),
    LintReport: ("gap_cells tie_cells", {}),
    MotionComplex: ("verb_lemma prep_lemma ground mobile language", {}),
    Defeat: ("rule_id defeated_by reason", {}),
    Derivation: ("complex features fired defeated trace", {}),
    CorpusCase: (
        "id complex expected_tuples expected_error",
        {"expected_tuples": (), "expected_error": None},
    ),
    CaseResult: (
        "case_id status fired_rule missing unexpected detail",
        {"fired_rule": None, "missing": (), "unexpected": (), "detail": ""},
    ),
    CorpusReport: ("results rule_histogram", {}),
}


@pytest.mark.parametrize("cls, values", RECORDS, ids=RECORD_IDS)
def test_record_fields_and_defaults_are_pinned(cls, values):
    assert set(FIELDS) == {c for c, _ in RECORDS}
    names, defaults = FIELDS[cls]
    assert cls._fields == tuple(names.split())
    assert cls._field_defaults == defaults
    given = dict(zip(cls._fields, values))
    required = {name: given[name] for name in cls._fields if name not in defaults}
    if not refused_alone(cls, **required):
        assert cls(**required) == tuple({**given, **defaults, **required}.values())
    # repr names every field, in order, with the value's own repr
    value = cls(*values)
    fields = ", ".join(f"{name}={field!r}" for name, field in zip(cls._fields, value))
    assert repr(value) == f"{cls.__name__}({fields})"


# The named-tuple contract every record class keeps.
@pytest.mark.parametrize("cls, values", RECORDS, ids=RECORD_IDS)
def test_constructor_refuses_arguments_that_do_not_bind(cls, values):
    given = dict(zip(cls._fields, values))
    required = [name for name in cls._fields if name not in cls._field_defaults]
    assert cls(values[0], **dict(list(given.items())[1:])) == values
    # the required fields come first and bind alone, the rest take defaults
    head = values[: len(required)]
    if not refused_alone(cls, *head):
        assert cls(*head) == (*head, *cls._field_defaults.values())
    missing = dict(given)
    del missing[required[-1]]
    with pytest.raises(TypeError):
        cls(**missing)
    with pytest.raises(TypeError):
        cls(*values[: len(required) - 1])
    with pytest.raises(TypeError):
        cls(*values, values[-1])
    with pytest.raises(TypeError):
        cls(*values, bogus=1)
    with pytest.raises(TypeError):
        cls(**given, bogus=1)
    with pytest.raises(TypeError):
        cls(*values, **{cls._fields[0]: values[0]})
    with pytest.raises(TypeError):
        cls(*values[:1], **given)


@pytest.mark.parametrize("cls, values", RECORDS, ids=RECORD_IDS)
def test_make_of_the_wrong_length_raises(cls, values):
    assert cls._make(iter(values)) == cls(*values)
    with pytest.raises(TypeError):
        cls._make(values[:-1])
    with pytest.raises(TypeError):
        cls._make((*values, values[-1]))


@pytest.mark.parametrize("cls, values", RECORDS, ids=RECORD_IDS)
def test_replace_takes_field_names_only(cls, values):
    value = cls(*values)
    last = cls._fields[-1]
    assert value._replace() == value and type(value._replace()) is cls
    assert value._replace(**{last: values[-1]}) == values
    with pytest.raises(ValueError):
        value._replace(bogus=1)
    with pytest.raises(ValueError):
        value._replace(**{last: values[-1]}, bogus=1)


@pytest.mark.parametrize("cls, values", RECORDS, ids=RECORD_IDS)
def test_asdict_and_match_follow_the_fields(cls, values):
    value = cls(*values)
    assert value._asdict() == dict(zip(cls._fields, values))
    assert type(value._asdict()) is dict and list(value._asdict()) == list(cls._fields)
    assert cls.__match_args__ == cls._fields
    match value:
        case cls(head):
            assert head is getattr(value, cls._fields[0]) and head == values[0]
        case _:
            pytest.fail("a class pattern did not match its own record")
    match tuple(values):
        case cls():
            pytest.fail("a plain tuple matched a record class pattern")


def test_a_subclass_of_a_record_class_keeps_its_fields():
    class Glossed(VerbEntry):
        __slots__ = ()

    with pytest.raises(IllFormedEntryError, match="^CoL entry 'sortir' lacks zone"):
        Glossed("sortir", "CoL", gloss="go out")  # a subclass keeps the entry's checks
    value = Glossed("voyager", "CoPs", gloss="travel")
    assert Glossed._fields == VerbEntry._fields and value.gloss == "travel"
    assert value == ("voyager", "CoPs", None, None, None, "travel")
    assert type(value._replace(gloss=None)) is Glossed
    assert repr(value).startswith("Glossed(lemma='voyager'")


@pytest.mark.parametrize("cls, values", RECORDS, ids=RECORD_IDS)
def test_record_keeps_its_own_docstring(cls, values):
    # not the generated "Name(field, ...)" text a bare named tuple carries
    doc = cls.__doc__
    assert doc and doc.strip() and not doc.startswith(f"{cls.__name__}(")
    assert cls.__dict__["__doc__"] is doc


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


# Modules a `query` process never loads.  IMPORT_CHECK runs under python -S,
# which keeps site-installed .pth hooks from preloading modules, with src/ on
# PYTHONPATH; its last line is the query's exit code and the modules loaded.
UNLOADED = ("typing", "re", "argparse", "dataclasses", "enum", "motionsem.corpus")
IMPORT_CHECK = (
    "import sys\n"
    "import motionsem.cli\n"
    "code = motionsem.cli.main(['query', 'sortir', 'dans', 'jardin'])\n"
    f"print(code, *[name for name in {UNLOADED!r} if name in sys.modules])\n"
)


def _query_child(code: str) -> list[str]:
    """The last stdout line of `python -S -c code`, split; the query must print."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stderr == "" and "jardin post inside interaction" in done.stdout
    return done.stdout.splitlines()[-1].split()


@pytest.fixture(scope="module")
def after_query() -> list[str]:
    return _query_child(IMPORT_CHECK)


@pytest.mark.parametrize("module", UNLOADED)
def test_cli_query_does_not_load(after_query, module):
    assert after_query[0] == "0" and module not in after_query[1:]


# COMPILE_CHECK prints the query's exit code, the names of the sources it
# compiled at run time (exec or eval of a string, as collections.namedtuple
# does per class; compiling a .py file on import does not count) and, last,
# the compile events of one namedtuple made afterwards, which proves the hook
# sees them.  Under -S, functools compiles its own CacheInfo named tuple on
# import, so the stdlib modules the package builds on are imported first.
COMPILE_CHECK = (
    "import collections, functools, sys\n"
    "events = []\n"
    "sys.addaudithook(lambda event, args: event == 'compile' and events.append(args))\n"
    "import motionsem.cli\n"
    "code = motionsem.cli.main(['query', 'sortir', 'dans', 'jardin'])\n"
    "seen = [str(args[1]) for args in events if not str(args[1]).endswith('.py')]\n"
    "before = len(events)\n"
    "collections.namedtuple('Probe', 'field')\n"
    "print(code, *seen, len(events) - before)\n"
)


def test_cli_query_compiles_nothing_at_run_time():
    assert _query_child(COMPILE_CHECK) == ["0", "1"]


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


# The public names that no code in src/motionsem/ refers to, each with the
# reason it is public all the same: an acceptance criterion reads it, or it is
# a value type of the API.  A name with a caller needs no entry.
UNCALLED_PUBLIC = {
    "interpolate_zones": "acceptance criterion 4 reads it",
    "validate_trace": "acceptance criterion 4 reads it",
    "dump_lexicon": "acceptance criterion 8 reads it",
    "dump_rulebase": "acceptance criterion 8 reads it",
}


def referred_names(tree: ast.Module) -> set[str]:
    """The names each top-level statement of tree refers to, less the one it defines."""
    names = set()
    for statement in tree.body:
        refers = {
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(statement)
            if isinstance(node, ast.Attribute) or isinstance(node, ast.Name)
            and isinstance(node.ctx, ast.Load)
        }
        names |= refers - {getattr(statement, "name", None)}
    return names


def test_every_public_name_has_a_caller_in_the_package_or_a_reason():
    import motionsem

    referred = set()
    for path in (SRC / "motionsem").glob("*.py"):
        referred |= referred_names(ast.parse(path.read_text(encoding="utf-8")))
    uncalled = {name for name in motionsem.__all__ if name not in referred}
    assert uncalled == set(UNCALLED_PUBLIC)
