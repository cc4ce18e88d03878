"""Composition of a motion verb, a spatial preposition, and a ground location.

The meaning of "verb + preposition + ground" is not the plain union of
the two lexical entries.  The engine builds the verb's constraints on
its implicit reference location, the preposition's constraint on its
ground, and lets a prioritized defeasible rule base decide how the two
locations relate: identified with each other, or bound to different
motion phases.  Assignments that follow from neither entry alone are
tagged as interaction information.

Everything here is pure: lexicons, rule bases and traces are immutable
values, and repeated composition of the same inputs yields identical
results.  A rule base memoizes derivations per entry shape (see
compose()); the memo never changes a result.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import (
    AmbiguousRuleBaseError,
    InfelicitousError,
    NotACoLVerbError,
    UnknownLanguageError,
)
from .lexicon import Lexicon, PrepEntry, VerbEntry, lookup_prep, lookup_verb
from .rules import ComplexFeatures, CompositionRule, RuleBase
from .trace import (
    Provenance,
    SpatiotemporalTrace,
    ZoneAssignment,
    discontinuities,
    render_records,
    sorted_assignments,
    validate_trace,
)
from .zones import LrefRole, Phase, Zone


class _MotionComplexFields(NamedTuple):
    verb_lemma: str
    prep_lemma: str
    ground: str
    mobile: str
    language: str


class MotionComplex(_MotionComplexFields):
    """A pre-parsed motion description: verb, preposition, ground, mobile."""

    __slots__ = ()

    def __new__(cls, verb_lemma, prep_lemma, ground, mobile, language):
        self = super().__new__(cls, verb_lemma, prep_lemma, ground, mobile, language)
        for name, value in zip(cls._fields, self):
            if not value:
                raise ValueError(f"motion complex field {name} must be nonempty")
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)  # so _replace validates too


class Defeat(NamedTuple):
    """A rule that was applicable but did not fire."""

    rule_id: str
    defeated_by: str | None
    reason: str


class Derivation(NamedTuple):
    """The outcome of one composition: exactly one fired rule plus audit trail."""

    complex: MotionComplex
    features: ComplexFeatures
    fired: CompositionRule
    defeated: tuple[Defeat, ...]
    trace: SpatiotemporalTrace


def lref_location(complex: MotionComplex) -> str:
    """Name for the verb's reference location when it stays implicit."""
    return f"lref#{complex.verb_lemma}"


def verb_constraints(verb: VerbEntry) -> dict[Phase, Zone]:
    """Zones a CoL verb assigns to its reference location, per phase.

    Medial verbs carry a lexical default: the mobile is inside the path
    location while under way.
    """
    if not verb.is_col:
        raise NotACoLVerbError(f"{verb.lemma!r} is {verb.category}, not CoL")
    assert verb.start_zone is not None and verb.end_zone is not None
    constraints = {Phase.PRE: verb.start_zone, Phase.POST: verb.end_zone}
    if verb.lref_role is LrefRole.MEDIAL:
        constraints[Phase.DURING] = Zone.INSIDE
    return constraints


def prep_constraint(prep: PrepEntry) -> tuple[Phase, Zone]:
    """The single phase/zone commitment a preposition makes about its ground.

    Directional prepositions commit at the phase of their own role.  A
    positional preposition is phaseless by itself; in a motion complex
    its static relation is read as describing the end state, so the
    commitment lands on the post phase.
    """
    if prep.is_directional:
        assert prep.role is not None
        return (prep.role.phase, prep.effective_zone)
    return (Phase.POST, prep.effective_zone)


def verb_projection(verb: VerbEntry, location: str) -> set[tuple[str, Phase, Zone]]:
    """What the verb entry alone says, anchored at the given location."""
    return {(location, p, z) for p, z in verb_constraints(verb).items()}


def prep_projection(prep: PrepEntry, location: str) -> set[tuple[str, Phase, Zone]]:
    """What the preposition entry alone says about the given ground.

    Positional entries project nothing here: their static relation has
    no motion phase of its own, which is exactly why a phased assignment
    sourced from one counts as interaction information.
    """
    if not prep.is_directional:
        return set()
    phase, zone = prep_constraint(prep)
    return {(location, phase, zone)}


def compute_features(verb: VerbEntry, prep: PrepEntry) -> ComplexFeatures:
    """Feature vector for rule guards, including the zone-compatibility flag.

    The flag answers: could ground and reference location be one and the
    same place?  It merges the verb's per-phase zones with the
    preposition's commitment on a single location and checks that the
    result is clash-free and continuous.  A non-CoL verb raises
    NotACoLVerbError (from verb_constraints).
    """
    merged = verb_constraints(verb)  # a fresh dict, safe to extend
    phase, zone = prep_constraint(prep)
    if phase in merged and merged[phase] is not zone:
        compatible = False
    else:
        merged[phase] = zone
        compatible = not discontinuities(merged)

    attained = prep.attained if prep.is_directional else None
    return ComplexFeatures(
        lref_role=verb.lref_role,
        prep_kind=prep.kind,
        prep_role=prep.role,
        zone_compatible=compatible,
        attained=attained,
    )


def _build_trace(
    rule: CompositionRule,
    complex: MotionComplex,
    verb: VerbEntry,
    prep: PrepEntry,
) -> SpatiotemporalTrace | None:
    """Materialize a rule conclusion, or None when its constraints clash."""
    conclusion = rule.conclusion
    collected: dict[tuple[str, Phase], tuple[Zone, Provenance]] = {}

    def put(location: str, phase: Phase, zone: Zone, prov: Provenance) -> bool:
        key = (location, phase)
        if key in collected:
            return collected[key][0] is zone  # keep the earlier provenance
        collected[key] = (zone, prov)
        return True

    if conclusion.kind == "identify":
        lref = ground = complex.ground
        for phase, zone in verb_constraints(verb).items():
            put(lref, phase, zone, Provenance.VERB)
        pphase, pzone = prep_constraint(prep)
        if not put(ground, pphase, pzone, Provenance.PREP):
            return None
    elif conclusion.kind == "bind":
        lref, ground = lref_location(complex), complex.ground
        for phase, zone in verb_constraints(verb).items():
            if not put(lref, phase, zone, Provenance.VERB):
                return None
        assert conclusion.phase is not None
        zone = conclusion.zone if conclusion.zone is not None else prep.effective_zone
        prov = (
            conclusion.provenance
            if conclusion.provenance is not None
            else Provenance.PREP
        )
        if not put(ground, conclusion.phase, zone, prov):
            return None
    else:
        return None  # forbid conclusions never materialize

    assignments = tuple(
        sorted_assignments(
            tuple(
                ZoneAssignment(loc, phase, zone, prov)
                for (loc, phase), (zone, prov) in collected.items()
            )
        )
    )
    trace = SpatiotemporalTrace(
        mobile=complex.mobile, lref=lref, ground=ground, assignments=assignments
    )
    if validate_trace(trace):
        return None
    return trace


def compose(
    complex: MotionComplex, lexicon: Lexicon, rules: RuleBase
) -> Derivation:
    """Derive the spatiotemporal trace of a motion complex.

    Applicable rules are tried from strongest to weakest.  A forbid rule
    vetoes every identify conclusion ranked below it; a conclusion whose
    constraints clash is skipped.  The first rule that yields a
    well-formed trace fires; if none does, the combination is
    semantically anomalous.

    A derivation depends on the ground, mobile and lref names only
    through renaming, so the rule base memoizes one per entry shape (the
    zones and roles of the two entries, never their lemmas) and later
    calls rename it.  The memo is bounded by the finite shape space and
    ignored by the rule base's ==, hash and repr; concurrent fills at
    worst compute the same value twice.  A ground named like the
    reference location merges the two locations of a bind conclusion,
    so such a call derives afresh and leaves the memo alone.  Errors are
    never memoized.
    """
    if complex.language != lexicon.language:
        raise UnknownLanguageError(
            f"complex is {complex.language!r} but lexicon is {lexicon.language!r}"
        )
    verb = lookup_verb(lexicon, complex.verb_lemma)
    prep = lookup_prep(lexicon, complex.prep_lemma)
    if not verb.is_col:
        raise NotACoLVerbError(
            f"{verb.lemma!r} is a {verb.category} verb; only CoL verbs compose"
        )

    shape = (
        verb.lref_role,
        verb.start_zone,
        verb.end_zone,
        prep.kind,
        prep.role,
        prep.zone,
        prep.attained,
    )
    lref = lref_location(complex)
    memo = rules._derivations
    template = memo.get(shape)
    if template is not None and (
        complex.ground != lref or template.fired.conclusion.kind == "identify"
    ):
        return _rename(template, complex, lref)
    derivation = _derive(complex, verb, prep, rules)
    if complex.ground != lref:
        memo[shape] = derivation
    return derivation


def _rename(template: Derivation, complex: MotionComplex, lref: str) -> Derivation:
    """The template's derivation for another complex of the same shape."""
    old = template.trace
    ground = complex.ground
    if template.fired.conclusion.kind == "identify":
        lref = ground
    assignments = tuple(
        sorted_assignments(
            tuple(
                ZoneAssignment(
                    ground if a.location == old.ground else lref,
                    a.phase,
                    a.zone,
                    a.provenance,
                )
                for a in old.assignments
            )
        )
    )
    return Derivation(
        complex=complex,
        features=template.features,
        fired=template.fired,
        defeated=template.defeated,
        trace=SpatiotemporalTrace(
            mobile=complex.mobile, lref=lref, ground=ground, assignments=assignments
        ),
    )


def _derive(
    complex: MotionComplex, verb: VerbEntry, prep: PrepEntry, rules: RuleBase
) -> Derivation:
    features = compute_features(verb, prep)
    candidates, tie = rules.ranking(features)

    defeated: list[Defeat] = []
    veto: CompositionRule | None = None
    for index, rule in enumerate(candidates):
        if tie is not None and index == tie[0]:
            raise AmbiguousRuleBaseError(
                f"rules {', '.join(tie[1])} tie on strength and priority for "
                f"{complex.verb_lemma} + {complex.prep_lemma}"
            )
        if rule.conclusion.kind == "forbid":
            if veto is None:
                veto = rule
            continue
        if rule.conclusion.kind == "identify" and veto is not None:
            defeated.append(
                Defeat(rule.id, veto.id, "identification forbidden")
            )
            continue
        trace = _build_trace(rule, complex, verb, prep)
        if trace is None:
            defeated.append(Defeat(rule.id, None, "conclusion inconsistent"))
            continue
        break
    else:
        raise InfelicitousError(
            f"no rule yields a well-formed trace for "
            f"{complex.verb_lemma} + {complex.prep_lemma} + {complex.ground}"
        )

    fired = rule
    for rule in candidates[index + 1 :]:
        if rule.conclusion.kind == "forbid":
            continue
        if fired.guard.subsumes(rule.guard):
            defeated.append(Defeat(rule.id, fired.id, "guard subsumed"))
        else:
            defeated.append(Defeat(rule.id, fired.id, "lower priority"))

    return Derivation(
        complex=complex,
        features=features,
        fired=fired,
        defeated=tuple(defeated),
        trace=trace,
    )


def explain(derivation: Derivation) -> str:
    """Human-readable account of a derivation, deterministic for fixed input.

    Ends with the machine-diffable trace records so a reader has both
    views in one place.
    """
    c = derivation.complex
    trace = derivation.trace
    fired = derivation.fired
    lines = [
        f"motion complex: {c.verb_lemma} + {c.prep_lemma} + {c.ground}  [{c.language}]",
        f"mobile: {c.mobile}",
        "",
        f"fired rule: {fired.id} ({fired.strength}, priority {fired.priority})",
    ]
    if derivation.defeated:
        lines.append("defeated:")
        for d in derivation.defeated:
            by = f" by {d.defeated_by}" if d.defeated_by else ""
            lines.append(f"  {d.rule_id} ({d.reason}{by})")
    else:
        lines.append("defeated: none")

    lines.append("")
    lines.append("bindings:")
    if trace.lref == trace.ground:
        lines.append(
            f"  ground: {trace.ground} (identified with the reference location)"
        )
    else:
        lines.append(f"  reference location: {trace.lref} (implicit)")
        ground_phases = sorted(
            {a.phase for a in trace.assignments if a.location == trace.ground},
            key=int,
        )
        at = ", ".join(p.label for p in ground_phases) or "no phase"
        lines.append(f"  ground: {trace.ground} (bound at {at})")

    lines.append("")
    lines.append("zones:")
    rows = [("location", "phase", "zone", "source")]
    for a in sorted_assignments(trace.assignments):
        rows.append((a.location, a.phase.label, a.zone.label, a.provenance.display))
    widths = [max(len(row[i]) for row in rows) for i in range(4)]
    for row in rows:
        lines.append(
            "  " + "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
        )

    lines.append("")
    lines.append("records:")
    lines += [f"  {record}" for record in render_records(trace).splitlines()]
    return "\n".join(lines)
