"""Compositional spatiotemporal semantics for motion complexes.

A motion complex is a change-of-location verb plus a spatial preposition
plus the location the preposition introduces ("sortir dans le jardin").
This package models both lexical families over a shared four-zone
qualitative space and composes them through a prioritized defeasible
rule base into a per-phase spatiotemporal trace, keeping track of which
facts came from the verb, which from the preposition, and which only
emerge from their interaction.
"""

from .zones import LrefRole, Phase, Zone, interpolate_zones, zone_distance
from .trace import (
    Provenance,
    SpatiotemporalTrace,
    Violation,
    ZoneAssignment,
    render_records,
    validate_trace,
)
from .lexicon import (
    Lexicon,
    PrepEntry,
    VerbEntry,
    classify_prep,
    classify_verb,
    default_class_inventory,
    default_lexicon,
    dump_lexicon,
    load_lexicon,
    lookup_prep,
    lookup_verb,
)
from .rules import (
    ComplexFeatures,
    CompositionRule,
    Conclusion,
    Guard,
    RuleBase,
    applicable_rules,
    default_rulebase,
    dump_rulebase,
    lint_rulebase,
    load_rulebase,
)
from .compose import (
    Derivation,
    MotionComplex,
    compose,
    compute_features,
    explain,
    prep_projection,
    verb_projection,
)
from .corpus import CorpusCase, CorpusReport, parse_corpus, run_corpus

__all__ = [
    "Zone",
    "Phase",
    "LrefRole",
    "zone_distance",
    "interpolate_zones",
    "Provenance",
    "ZoneAssignment",
    "SpatiotemporalTrace",
    "Violation",
    "validate_trace",
    "render_records",
    "VerbEntry",
    "PrepEntry",
    "Lexicon",
    "load_lexicon",
    "dump_lexicon",
    "default_lexicon",
    "default_class_inventory",
    "classify_verb",
    "classify_prep",
    "lookup_verb",
    "lookup_prep",
    "Guard",
    "Conclusion",
    "CompositionRule",
    "RuleBase",
    "ComplexFeatures",
    "load_rulebase",
    "dump_rulebase",
    "default_rulebase",
    "applicable_rules",
    "lint_rulebase",
    "MotionComplex",
    "Derivation",
    "compose",
    "compute_features",
    "explain",
    "verb_projection",
    "prep_projection",
    "CorpusCase",
    "CorpusReport",
    "parse_corpus",
    "run_corpus",
]
