"""Acceptance suite: one test per shipped criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines alongside the pytest report.
"""

from __future__ import annotations

import io
import itertools
from contextlib import contextmanager
from importlib import resources

from motionsem.compose import MotionComplex, compose
from motionsem.errors import InfelicitousError
from motionsem.lexicon import default_lexicon, dump_lexicon, load_lexicon
from motionsem.rules import (
    RuleBase,
    default_rulebase,
    dump_rulebase,
    lint_rulebase,
    load_rulebase,
)
from motionsem.trace import (
    Provenance,
    SpatiotemporalTrace,
    ZoneAssignment,
    validate_trace,
)
from motionsem.zones import Phase, Zone, interpolate_zones, zone_distance

FR = default_lexicon("fr")
EN = default_lexicon("en")
RULES = default_rulebase()


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL - {description}")
        raise
    print(f"criterion {number}: PASS - {description}")


def compose_fr(verb, prep, ground="jardin"):
    return compose(MotionComplex(verb, prep, ground, "mobile", "fr"), FR, RULES)


def compose_en(verb, prep, ground="garden"):
    return compose(MotionComplex(verb, prep, ground, "mobile", "en"), EN, RULES)


def normalized(trace: SpatiotemporalTrace):
    renames = {trace.ground: "GROUND"}
    if trace.lref is not None:
        renames.setdefault(trace.lref, "LREF")
    tuples = frozenset(
        (renames.get(loc, loc), phase, zone, prov)
        for loc, phase, zone, prov in trace.tuples()
    )
    return (trace.ground == trace.lref, tuples)


def test_criterion_1_worked_example_exact_tuples():
    with criterion(1, "exit-into-garden worked example reproduced exactly"):
        d = compose_fr("sortir", "dans")
        assert set(d.trace.tuples()) == {
            ("jardin", "post", "inside", "interaction"),
            ("lref#sortir", "pre", "inside", "verb"),
            ("lref#sortir", "post", "proximal", "verb"),
        }
        # ground is bound as the final location, distinct from the lref
        assert d.trace.ground == "jardin" and d.trace.lref == "lref#sortir"
        ground_phases = {
            phase for loc, phase, _, _ in d.trace.tuples() if loc == "jardin"
        }
        assert ground_phases == {"post"}


def test_criterion_2_cross_lingual_contrast():
    with criterion(2, "English counterpart: same tuples, no interaction tags"):
        d_fr = compose_fr("sortir", "dans")
        d_en = compose_en("go-out", "into")
        fr_identified, fr_tuples = normalized(d_fr.trace)
        en_identified, en_tuples = normalized(d_en.trace)
        assert fr_identified == en_identified is False
        # identical role bindings and zone tuples, provenance aside
        strip = lambda tuples: {(l, p, z) for l, p, z, _ in tuples}
        assert strip(fr_tuples) == strip(en_tuples)
        en_ground = [t for t in d_en.trace.tuples() if t[0] == d_en.trace.ground]
        assert en_ground and all(t[3] != "interaction" for t in en_ground)
        fr_ground = [t for t in d_fr.trace.tuples() if t[0] == d_fr.trace.ground]
        assert any(t[3] == "interaction" for t in fr_ground)


def test_criterion_3_minimal_pairs():
    with criterion(3, "minimal verb pairs differ exactly in one end zone"):
        near = normalized(compose_fr("sortir", "dans").trace)[1]
        far = normalized(compose_fr("partir", "dans").trace)[1]
        assert near ^ far == {
            ("LREF", "post", "proximal", "verb"),
            ("LREF", "post", "distal", "verb"),
        }
        enter = normalized(compose_fr("entrer", "vers").trace)[1]
        land = normalized(compose_fr("atterrir", "vers", ground="piste").trace)[1]
        assert enter ^ land == {
            ("LREF", "post", "inside", "verb"),
            ("LREF", "post", "contact", "verb"),
        }


def test_criterion_4_zone_algebra_exhaustive():
    with criterion(4, "zone metric, interpolation reversal, discontinuity rejection"):
        zones = list(Zone)
        for a, b, c in itertools.product(zones, zones, zones):
            assert zone_distance(a, b) == zone_distance(b, a)
            assert (zone_distance(a, b) == 0) == (a is b)
            assert zone_distance(a, c) <= zone_distance(a, b) + zone_distance(b, c)
        for a, b in itertools.product(zones, zones):
            walk = interpolate_zones(a, b)
            assert walk == list(reversed(interpolate_zones(b, a)))
            assert len(walk) == zone_distance(a, b) + 1

        def trace_with(slot_a, zone_a, slot_b, zone_b):
            return SpatiotemporalTrace(
                mobile="m",
                assignments=(
                    ZoneAssignment("loc", slot_a, zone_a, Provenance.VERB),
                    ZoneAssignment("loc", slot_b, zone_b, Provenance.VERB),
                ),
            )

        rejected = 0
        for slot in ((Phase.PRE, Phase.DURING), (Phase.DURING, Phase.POST)):
            for a, b in itertools.product(zones, zones):
                if zone_distance(a, b) > 1:
                    assert validate_trace(trace_with(slot[0], a, slot[1], b))
                    rejected += 1
        assert rejected == 12  # every discontinuous two-phase trace
        spike = SpatiotemporalTrace(
            mobile="m",
            assignments=(
                ZoneAssignment("loc", Phase.PRE, Zone.INSIDE, Provenance.VERB),
                ZoneAssignment("loc", Phase.DURING, Zone.DISTAL, Provenance.VERB),
                ZoneAssignment("loc", Phase.POST, Zone.INSIDE, Provenance.VERB),
            ),
        )
        assert len(validate_trace(spike)) == 2


def test_criterion_5_rulebase_totality():
    with criterion(5, "shipped rule base covers the 12-cell grid tie-free"):
        report = lint_rulebase(RULES)
        assert report.gap_cells == ()
        assert report.tie_cells == ()


def _sweep(lexicon, rules, language):
    outcomes = {}
    for verb in lexicon.verbs.values():
        if not verb.is_col:
            continue
        for prep in lexicon.preps.values():
            key = (verb.lemma, prep.lemma)
            complex_ = MotionComplex(verb.lemma, prep.lemma, "g", "m", language)
            try:
                d = compose(complex_, lexicon, rules)
            except InfelicitousError:
                outcomes[key] = "infelicitous"
                continue
            assert validate_trace(d.trace) == [], key
            outcomes[key] = ("ok", d.fired.id, d.trace.tuples())
    return outcomes


def test_criterion_6_oracle_sweep():
    with criterion(6, "brute-force sweep: valid traces or infelicitous, stable"):
        first = {
            lang: _sweep(lex, RULES, lang) for lang, lex in (("fr", FR), ("en", EN))
        }
        # second run from freshly loaded data, not shared objects
        fr2, en2 = default_lexicon("fr"), default_lexicon("en")
        rules2 = default_rulebase()
        second = {
            "fr": _sweep(fr2, rules2, "fr"),
            "en": _sweep(en2, rules2, "en"),
        }
        assert first == second
        assert all(outcomes for outcomes in first.values())


def test_criterion_7_nonmonotonicity_witness():
    with criterion(7, "strict override flips the defeasible default"):
        complex_ = MotionComplex("sortir", "dans", "jardin", "mobile", "fr")
        default = compose(complex_, FR, RULES)
        assert default.fired.id == "D2i"
        assert ("jardin", "post", "inside", "interaction") in default.trace.tuples()

        override = load_rulebase(
            io.StringIO(
                "R\tOVR\tstrict\t1\tprepkind=pos,zonecompat=no\t"
                "bind(pre) prov=interaction\n"
            )
        ).rules[0]
        base = RuleBase(RULES.version, RULES.rules + (override,))
        flipped = compose(complex_, FR, base)
        assert flipped.fired.id == "OVR"
        assert ("jardin", "pre", "inside", "interaction") in flipped.trace.tuples()
        assert ("jardin", "post", "inside", "interaction") not in flipped.trace.tuples()
        assert any(
            d.rule_id == "D2i" and d.defeated_by == "OVR" for d in flipped.defeated
        )


def test_criterion_8_round_trips():
    with criterion(8, "lexicons and rule base survive load-serialize-load"):
        for lang in ("fr", "en"):
            lexicon = default_lexicon(lang)
            assert load_lexicon(io.StringIO(dump_lexicon(lexicon))) == lexicon
        base = default_rulebase()
        assert load_rulebase(io.StringIO(dump_rulebase(base))) == base


def test_shipped_golden_corpus_is_green():
    # not a numbered criterion on its own, but the regression surface the
    # corpus runner exposes must stay green alongside them
    from motionsem.corpus import parse_corpus, run_corpus

    with resources.files("motionsem.data").joinpath("golden.corpus").open(
        "r", encoding="utf-8"
    ) as fh:
        cases = parse_corpus(fh)
    report = run_corpus(cases, {"fr": FR, "en": EN}, RULES)
    assert report.ok, report.render()
