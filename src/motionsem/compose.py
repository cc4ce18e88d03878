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
results.  A derivation is built once per entry shape as a memo entry
holding the trace's rows in each order the two locations can sort in,
and every call, a miss as a hit, renames that entry without sorting (a
failed verdict's entry words its error on every call; see compose()).
Whether the ground is the reference location is decided by the rule base
alone, never by the ground's name: the name of the reference location is
reserved (MotionComplex), and an identify conclusion holds exactly when
compute_features finds the zones compatible.
explain() writes the rule lines on every call, and its body has one
renderer (_render): it renders a hand-built trace directly, and every
other trace once per shape of trace with markers for the names, which
each call fills in (see _plain_layout).  Neither cache ever changes a result.
"""

import functools
from collections.abc import Callable
from operator import itemgetter

from .errors import (
    AmbiguousRuleBaseError, InfelicitousError, NotACoLVerbError, Record,
    UnknownLanguageError, _new, is_name,
)
from .lexicon import Lexicon, PrepEntry, VerbEntry, lookup_prep, lookup_verb
from .rules import ComplexFeatures, CompositionRule, Defeat, RuleBase, _verdict
from .trace import (
    _LOCATION_PHASE,
    PROVENANCE_DISPLAY,
    Provenance,
    SpatiotemporalTrace,
    ZoneAssignment,
    discontinuities,
    render_records,
)
from .zones import LrefRole, Phase, Zone

_LREF = "lref#"  # the reference location's name is this and the verb lemma (lref_location)


class MotionComplex(Record, fields="verb_lemma prep_lemma ground mobile language"):
    """A pre-parsed motion description: verb, preposition, ground, mobile.

    Raises ValueError if a field is empty, or if the ground takes the name
    of the verb's reference location (lref_location), which is reserved.
    """

    __slots__ = ()

    def __new__(cls, verb_lemma, prep_lemma, ground, mobile, language):
        self = _new(cls, (verb_lemma, prep_lemma, ground, mobile, language))
        if not all(self):
            name = next(name for name, value in zip(cls._fields, self) if not value)
            raise ValueError(f"motion complex field {name} must be nonempty")
        if isinstance(ground, str) and _LREF in ground and ground == lref_location(self):
            raise ValueError(
                f"motion complex ground {ground!r} is reserved for the reference location"
            )
        return self


def check_names(complex_: MotionComplex) -> None:
    """The name rule of `query` and corpus INPUT (errors.is_name; README, Data files).

    Raises ValueError if the verb, preposition, ground or mobile is not a
    name; compose() itself takes any nonempty name that MotionComplex does
    (only the reference location's is reserved).
    """
    for name, value in zip(MotionComplex._fields, complex_[:4]):
        if not is_name(value):
            raise ValueError(
                f"motion complex field {name} must be printable and not blank"
            )


class Derivation(Record, fields="complex features fired defeated trace"):
    """The outcome of one composition: exactly one fired rule plus audit trail.

    defeated holds a Defeat per applicable rule that did not fire.
    """

    __slots__ = ()


def lref_location(complex: MotionComplex) -> str:
    """Name for the verb's reference location when it stays implicit."""
    return f"{_LREF}{complex.verb_lemma}"


def verb_constraints(verb: VerbEntry) -> dict[Phase, Zone]:
    """Zones a CoL verb assigns to its reference location, per phase.

    Medial verbs carry a lexical default: the mobile is inside the path
    location while under way, between the contact->contact that is their
    one lexicalized pair, so their own zones never jump.  A non-CoL verb
    raises NotACoLVerbError.
    """
    if not verb.is_col:
        raise NotACoLVerbError(
            f"{verb.lemma!r} is a {verb.category} verb; only CoL verbs compose"
        )
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
        return (prep.role.phase, prep.effective_zone)
    return (Phase.POST, prep.effective_zone)


def compute_features(verb: VerbEntry, prep: PrepEntry) -> ComplexFeatures:
    """Feature vector for rule guards, including the zone-compatibility flag.

    The flag answers: could ground and reference location be one and the
    same place?  It merges the preposition's commitment into the verb's
    per-phase zones on a single location, and is false if the two clash
    or the merged zones jump a zone; an identify conclusion holds exactly
    when it is true.  A non-CoL verb raises NotACoLVerbError (from
    verb_constraints).
    """
    zones = verb_constraints(verb)
    phase, zone = prep_constraint(prep)
    compatible = zones.setdefault(phase, zone) is zone and not discontinuities(zones)
    return ComplexFeatures(
        verb.lref_role, prep.kind, prep.role, compatible, prep.attained
    )


def compose(
    complex: MotionComplex, lexicon: Lexicon, rules: RuleBase
) -> Derivation:
    """Derive the spatiotemporal trace of a motion complex.

    rules.resolve, whose verdict lint reads too, tries the applicable rules
    from strongest to weakest; the first whose conclusion holds fires.  A
    tie raises AmbiguousRuleBaseError, and no rule firing (an anomalous
    combination) InfelicitousError.  Whether the ground is the reference
    location is that rule's conclusion, never a matter of the ground's name.

    A verb that is not CoL is refused (verb_constraints) before the memo is read.
    A derivation depends on the ground, mobile and lref names only
    through renaming, so it is built as a memo entry for the entry shape
    (the zones and roles of the two entries, never their lemmas, which
    hold members by construction; see VerbEntry): the features and the
    verdict the rule base stores for them (rules._verdict, which lint reads
    too), then a fired rule's rows as (at_ground, phase, zone, provenance)
    in canonical order for a ground sorting after the lref and for one
    sorting before it (one order if they are identified), or a failed
    verdict's tie (its ids, or none).  Every call, a miss as a hit, renames
    a fired entry (see _rename) or raises a failed one's error, worded from
    its own complex.  load_rulebase gives a text loaded again the same base,
    memos and all (see RuleBase).
    """
    verb_lemma, prep_lemma, ground, mobile, language = complex
    if language != lexicon.language:
        raise UnknownLanguageError(
            f"complex is {language!r} but lexicon is {lexicon.language!r}"
        )
    verb = lookup_verb(lexicon, verb_lemma)
    prep = lookup_prep(lexicon, prep_lemma)
    if verb.category != "CoL":  # not verb.is_col, read without a property call
        verb_constraints(verb)  # raises NotACoLVerbError before the memo is read

    shape = (
        verb.lref_role, verb.start_zone, verb.end_zone,
        prep.kind, prep.role, prep.zone, prep.attained,
    )
    memo = rules._derivations
    entry = memo.get(shape)  # features, fired rule or None, defeats, row orders or tie
    if entry is None:
        features = compute_features(verb, prep)
        fired, defeated, tied = _verdict(features, rules)
        orders = tied if fired is None else _orders(fired, verb, prep)
        entry = memo[shape] = features, fired, defeated, orders
    if entry[1] is None:  # a failed verdict, worded from this call's complex
        if tied := entry[3]:
            raise AmbiguousRuleBaseError(
                f"rules {', '.join(tied)} tie on strength and priority for "
                f"{' + '.join(complex[:2])}", tied
            )
        names = " + ".join(complex[:3])
        raise InfelicitousError(f"no rule yields a well-formed trace for {names}")
    return _rename(entry, complex, ground, mobile)


def _rename(entry: tuple, complex: MotionComplex, ground: str, mobile: str) -> Derivation:
    """The derivation of a memo entry (see compose()) for one complex.

    Picks the entry's row order for this ground and lref and names each
    row's location: no sort, and the plain named tuples are built from
    their fields without their Python-level __new__.
    """
    features, fired, defeated, orders = entry
    lref = ground if len(orders) == 1 else lref_location(complex)  # 1: identified
    assignments = []  # a loop: a comprehension would be a call of its own
    for at_ground, phase, zone, source in orders[ground < lref]:
        location = ground if at_ground else lref
        assignments.append(_new(ZoneAssignment, (location, phase, zone, source)))
    trace = _new(SpatiotemporalTrace, (mobile, lref, ground, tuple(assignments)))
    return _new(Derivation, (complex, features, fired, defeated, trace))


def _orders(
    rule: CompositionRule, verb: VerbEntry, prep: PrepEntry
) -> tuple[tuple, ...]:
    """The fired conclusion's rows in each order they can take.

    A row is (at_ground, phase, zone, provenance), in canonical (location,
    phase) order.  An identify puts the ground's fact with the verb's
    constraints on one location, in one order, keeping the verb's
    provenance where they coincide: resolve() fired it, so they neither
    clash nor jump a zone.  A bind puts the lref's rows before the
    ground's row and after it, for a ground sorting after and before the
    lref.
    """
    zones = verb_constraints(verb)  # the lref's, a fresh dict
    if rule.conclusion.kind == "identify":
        phase, zone = prep_constraint(prep)
        # a coincident fact keeps the verb's provenance
        source = Provenance.VERB if phase in zones else Provenance.PREP
        zones.setdefault(phase, zone)
        return (tuple([
            (True, p, z, source if p == phase else Provenance.VERB)
            for p, z in sorted(zones.items())
        ]),)
    _, phase, zone, source = rule.conclusion  # a bind: resolve() fires no other kind
    zone = prep.effective_zone if zone is None else zone
    source = Provenance.PREP if source is None else source
    rows = tuple([(False, p, z, Provenance.VERB) for p, z in sorted(zones.items())])
    ground = ((True, phase, zone, source),)
    return rows + ground, ground + rows


def explain(derivation: Derivation) -> str:
    """Human-readable account of a derivation, deterministic for fixed input.

    The complex, the fired rule and the defeats are written from the
    derivation's fields on every call.  The body that follows (bindings,
    zone table and the machine-diffable trace records, so a reader has
    both views in one place) is laid out once per shape of trace, keyed
    by that shape alone, and kept in a bounded cache (see _plain_layout);
    a call fills in the names.  One walk over the rows decides whether the
    trace is plain and builds that key: a trace that is not, as only
    hand-built ones are (an absent binding, a row at a third location or
    none at the ground or at an lref of another name, a name with a line
    break, a mobile that is not a str), has its body rendered directly.
    The cache never changes the text.
    """
    complex_, _, fired, defeated, trace = derivation
    verb, prep, ground, mobile, language = complex_
    text = (
        f"motion complex: {verb} + {prep} + {ground}  [{language}]\nmobile: {mobile}\n\n"
        f"fired rule: {fired.id} ({fired.strength}, priority {fired.priority})\n"
        f"defeated:{'' if defeated else ' none'}"
    )
    for rule_id, by, reason in defeated:
        by = f" by {by}" if by else ""
        text += f"\n  {rule_id} ({reason}{by})"
    mobile, lref, ground, assignments = trace  # the body's names, from the trace
    if type(mobile) is type(lref) is type(ground) is str and (
        f"{mobile}{lref}{ground}".isprintable()
    ):
        # the layout key, four fields a row; plain: each row at the lref or the ground,
        # a ground row and, unless identified, an lref row
        rows, grounds = [], 0
        for location, phase, zone, source in assignments:
            at_ground = location == ground
            if not (at_ground or location == lref):
                break
            grounds += at_ground
            rows += (at_ground, phase, zone, source)
        else:
            if grounds and (lref == ground or grounds < len(assignments)):
                ground_first = ground < lref
                parts, pick = _plain_layout(ground_first, tuple(rows))
                first, second = (ground, lref) if ground_first else (lref, ground)
                width = max(8, len(lref), len(ground))
                cells = first.ljust(width), second.ljust(width), "location".ljust(width)
                return f"{text}\n\n{''.join(pick((mobile, first, second, *cells) + parts))}"
    return f"{text}\n\n{_render(trace, str, 'location')}"


# Slot markers: NUL and one digit each, so all have one width and never
# occur in a plain name, which is printable.  Slot 0 is the mobile, 1
# and 2 the two locations in sort order, and 3, 4 and 5 the same
# locations and the heading of the location column, padded to its width.
_SLOTS = tuple(f"\0{slot}" for slot in range(6))


@functools.lru_cache(maxsize=1024)
def _plain_layout(ground_first: bool, rows: tuple) -> tuple[tuple, Callable]:
    """explain()'s body for every plain trace of one shape.

    rows holds four fields per assignment: whether its location is the
    ground (if every one is, the two are identified), phase, zone and
    provenance.  The body is rendered once with slot markers for the
    names and split at them into literal parts; a getter picks its pieces
    in order from the slots' values followed by the literal parts.
    Markers sort like the names they stand for, so the rows keep their
    order.

    The cache is keyed by content, never by identity.  It needs no types:
    a trace holds only members, and no two members of one field are equal.
    It holds the last 1024 layouts; the seed lexicons under the default
    rules need 154.
    """
    slot = _SLOTS
    if all(rows[::4]):
        lref = ground = slot[1]
    else:
        lref, ground = (slot[2], slot[1]) if ground_first else (slot[1], slot[2])
    assignments = tuple(
        ZoneAssignment(ground if at_ground else lref, phase, zone, source)
        for at_ground, phase, zone, source in zip(*[iter(rows)] * 4)
    )
    trace = SpatiotemporalTrace(slot[0], lref, ground, assignments)
    cell = {slot[1]: slot[3], slot[2]: slot[4]}.get
    head, *pieces = _render(trace, cell, slot[5]).split("\0")
    parts, picks = [head], [len(slot)]
    for piece in pieces:
        picks += (int(piece[0]), len(slot) + len(parts))
        parts.append(piece[1:])
    return tuple(parts), itemgetter(*picks)


def _render(trace: SpatiotemporalTrace, cell: Callable, heading: str) -> str:
    """explain()'s body for a trace: bindings, zone table and records.

    cell gives a location's cell in the zone table and heading that
    column's heading; each column is padded to its widest cell.
    """
    lines = ["bindings:"]
    rows = sorted(trace.assignments, key=_LOCATION_PHASE)
    if trace.lref == trace.ground:
        lines.append(
            f"  ground: {trace.ground} (identified with the reference location)"
        )
    else:
        lines.append(f"  reference location: {trace.lref} (implicit)")
        ground_phases = dict.fromkeys(row[1].label for row in rows if row[0] == trace.ground)
        at = ", ".join(ground_phases) or "no phase"
        lines.append(f"  ground: {trace.ground} (bound at {at})")

    lines.append("")
    lines.append("zones:")
    table = [(heading, "phase", "zone", "source")] + [
        (cell(location), phase.label, zone.label, PROVENANCE_DISPLAY[source])
        for location, phase, zone, source in rows
    ]
    widths = [max(len(row[i]) for row in table) for i in range(4)]
    for row in table:
        cells = "  ".join(c.ljust(w) for c, w in zip(row, widths))
        lines.append(f"  {cells.rstrip()}")

    lines.append("")
    lines.append("records:")
    lines += [f"  {record}" for record in render_records(trace).splitlines()]
    return "\n".join(lines)
