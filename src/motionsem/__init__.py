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
)

# corpus is imported on first use of one of its names (PEP 562), so that
# `import motionsem` and the query and lint commands do not load it.
_CORPUS_NAMES = ("CorpusCase", "CorpusReport", "parse_corpus", "run_corpus")


def __getattr__(name):
    if name in _CORPUS_NAMES:
        from . import corpus

        return getattr(corpus, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    "CorpusCase",
    "CorpusReport",
    "parse_corpus",
    "run_corpus",
]
