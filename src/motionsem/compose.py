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
and every call, a miss as a hit, renames that entry without sorting;
rule bases with equal rules share the memo (see compose()).  Whether
the ground can be the reference location is decided by one check,
_merge, for the features and the trace alike.
explain() has one renderer (_render): it renders a hand-built trace
directly, and renders every other trace once per shape of derivation
with markers for the names, which each call fills in (see
_plain_layout).  Neither cache ever changes a result.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from collections.abc import Callable
from itertools import chain
from operator import itemgetter

from .errors import IllFormedEntryError, NotACoLVerbError, UnknownLanguageError
from .lexicon import (
    Lexicon, PrepEntry, VerbEntry, _new, _require_zones, lookup_prep, lookup_verb
)
from .rules import ComplexFeatures, CompositionRule, Defeat, RuleBase, resolve
from .trace import (
    PROVENANCE_DISPLAY,
    Provenance,
    SpatiotemporalTrace,
    ZoneAssignment,
    discontinuities,
    render_records,
)
from .zones import LrefRole, Phase, Zone


class MotionComplex(namedtuple(
    "MotionComplex", "verb_lemma prep_lemma ground mobile language"
)):
    """A pre-parsed motion description: verb, preposition, ground, mobile."""

    __slots__ = ()

    def __new__(cls, verb_lemma, prep_lemma, ground, mobile, language):
        self = _new(cls, (verb_lemma, prep_lemma, ground, mobile, language))
        if not all(self):
            name = next(name for name, value in zip(cls._fields, self) if not value)
            raise ValueError(f"motion complex field {name} must be nonempty")
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)  # so _replace validates too


# The Unicode space separators (category Zs) other than U+0020, mapped to it:
# a name may hold them, but str.isprintable counts only U+0020 as printable.
_SPACE_SEPARATORS = dict.fromkeys(
    (0x00A0, 0x1680, *range(0x2000, 0x200B), 0x202F, 0x205F, 0x3000), " "
)


def check_names(complex_: MotionComplex) -> None:
    """The name rule of `query` and corpus INPUT: each name prints on one line.

    Raises ValueError if the verb, preposition, ground or mobile is blank
    or unprintable; compose() itself takes any nonempty name.
    """
    for name, value in zip(MotionComplex._fields, complex_[:4]):
        if value.isspace() or not value.translate(_SPACE_SEPARATORS).isprintable():
            raise ValueError(
                f"motion complex field {name} must be printable and not blank"
            )


class Derivation(namedtuple("Derivation", "complex features fired defeated trace")):
    """The outcome of one composition: exactly one fired rule plus audit trail.

    defeated holds a Defeat per applicable rule that did not fire.
    """

    __slots__ = ()


# Enum members read once: a class attribute read costs about 130 ns a time.
_PRE, _DURING, _POST = Phase.PRE, Phase.DURING, Phase.POST
_MEDIAL, _INSIDE = LrefRole.MEDIAL, Zone.INSIDE
_VERB_SOURCE, _PREP_SOURCE = Provenance.VERB, Provenance.PREP


def lref_location(complex: MotionComplex) -> str:
    """Name for the verb's reference location when it stays implicit."""
    return f"lref#{complex.verb_lemma}"


def verb_constraints(verb: VerbEntry) -> dict[Phase, Zone]:
    """Zones a CoL verb assigns to its reference location, per phase.

    Medial verbs carry a lexical default: the mobile is inside the path
    location while under way.  A non-CoL verb raises NotACoLVerbError,
    and a CoL entry without its role or a zone IllFormedEntryError.
    """
    if not verb.is_col:
        raise NotACoLVerbError(
            f"{verb.lemma!r} is a {verb.category} verb; only CoL verbs compose"
        )
    _require_zones(verb)
    constraints = {_PRE: verb.start_zone, _POST: verb.end_zone}
    if verb.lref_role is _MEDIAL:
        constraints[_DURING] = _INSIDE
    return constraints


def prep_constraint(prep: PrepEntry) -> tuple[Phase, Zone]:
    """The single phase/zone commitment a preposition makes about its ground.

    Directional prepositions commit at the phase of their own role.  A
    positional preposition is phaseless by itself; in a motion complex
    its static relation is read as describing the end state, so the
    commitment lands on the post phase.  A directional entry without a
    role raises IllFormedEntryError.
    """
    if prep.is_directional:
        if prep.role is None:
            raise IllFormedEntryError(f"directional prep {prep.lemma!r} lacks a role")
        return (prep.role.phase, prep.effective_zone)
    return (_POST, prep.effective_zone)


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
    same place?  It merges the preposition's commitment into the verb's
    per-phase zones on a single location (_merge, the check an identify
    conclusion must pass).  A non-CoL verb raises NotACoLVerbError (from
    verb_constraints).
    """
    compatible = _merge(verb_constraints(verb), *prep_constraint(prep))
    attained = prep.attained if prep.is_directional else None
    return ComplexFeatures(
        lref_role=verb.lref_role,
        prep_kind=prep.kind,
        prep_role=prep.role,
        zone_compatible=compatible,
        attained=attained,
    )


def _merge(zones: dict[Phase, Zone], phase: Phase, zone: Zone) -> bool:
    """Add one fact to a location's zones; False if it clashes or they jump a zone."""
    return zones.setdefault(phase, zone) is zone and not discontinuities(zones)


def compose(
    complex: MotionComplex, lexicon: Lexicon, rules: RuleBase
) -> Derivation:
    """Derive the spatiotemporal trace of a motion complex.

    rules.resolve, which lint runs too, tries the applicable rules from
    strongest to weakest: the first that yields a well-formed trace
    fires, and if none does, the combination is semantically anomalous.

    A derivation depends on the ground, mobile and lref names only
    through renaming, so it is built as a memo entry for the entry shape
    (the zones and roles of the two entries, never their lemmas): the
    features, fired rule and defeats, and the rows as (at_ground, phase,
    zone, provenance) in canonical order for a ground sorting after the
    lref and for one sorting before it (one order if they are
    identified).  Every call, a miss as a hit, renames that entry (see
    _rename).  The rule base memoizes the entry per shape.  Rule bases
    with equal rules of equal field types share that memo, also when
    loaded separately (see RuleBase).  The memo is bounded by the finite
    shape space and ignored by the rule base's ==, hash and repr;
    concurrent fills at worst compute the same value twice.  A ground
    named like the reference location merges the two locations of a bind
    conclusion, so such a call derives afresh and leaves the memo alone.
    Errors are never memoized.
    """
    if complex.language != lexicon.language:
        raise UnknownLanguageError(
            f"complex is {complex.language!r} but lexicon is {lexicon.language!r}"
        )
    verb = lookup_verb(lexicon, complex.verb_lemma)
    prep = lookup_prep(lexicon, complex.prep_lemma)

    shape = (  # with the category, a non-CoL verb never hits an entry: _derive raises
        verb.category,
        verb.lref_role,
        verb.start_zone,
        verb.end_zone,
        prep.kind,
        prep.role,
        prep.zone,
        prep.attained,
    )
    lref = lref_location(complex)
    one_location = complex.ground == lref
    memo = rules._derivations
    entry = memo.get(shape)  # features, fired rule, defeats, row orders
    if entry is None or one_location and entry[1].conclusion.kind != "identify":
        entry = _derive(complex, verb, prep, rules, one_location)
        if not one_location:
            memo[shape] = entry
    return _rename(entry, complex, lref)


def _rename(entry: tuple, complex: MotionComplex, lref: str) -> Derivation:
    """The derivation of a memo entry (see compose()) for one complex.

    Picks the entry's row order for this ground and lref and names each
    row's location: no sort, and the plain named tuples are built from
    their fields without their Python-level __new__.
    """
    features, fired, defeated, orders = entry
    ground = complex.ground
    if len(orders) == 1:  # identified: the ground is the lref
        lref = ground
    assignments = tuple([
        _new(ZoneAssignment, (ground if at_ground else lref, phase, zone, source))
        for at_ground, phase, zone, source in orders[ground < lref]
    ])
    trace = _new(SpatiotemporalTrace, (complex.mobile, lref, ground, assignments))
    return _new(Derivation, (complex, features, fired, defeated, trace))


def _derive(
    complex: MotionComplex, verb: VerbEntry, prep: PrepEntry, rules: RuleBase,
    one_location: bool,
) -> tuple:
    """The memo entry for a complex's shape (see compose(), resolve and _orders)."""
    features = compute_features(verb, prep)
    fired, orders, defeated = resolve(
        features, rules, lambda rule: _orders(rule, verb, prep, one_location), complex
    )
    return features, fired, defeated, orders


def _orders(
    rule: CompositionRule, verb: VerbEntry, prep: PrepEntry, one_location: bool
) -> tuple[tuple, ...] | None:
    """A conclusion's rows in each order they can take, or None if ill formed.

    A row is (at_ground, phase, zone, provenance), in canonical (location,
    phase) order.  On one location (an identify conclusion, or a bind
    with one_location) the ground's fact joins the verb's constraints,
    keeping the verb's provenance where they coincide, in one order; they
    are ill formed if they clash or jump a zone (_merge).  On two, the
    lref's rows come before the ground's row and after it, for a ground
    sorting after and before the lref; they are ill formed if the lref's
    jump a zone, as a hand-built entry's may.
    """
    conclusion = rule.conclusion
    if conclusion.kind == "identify":
        one_location = True
        phase, zone = prep_constraint(prep)
        source = _PREP_SOURCE
    elif conclusion.kind == "bind":
        _, phase, zone, source = conclusion
        if phase is None:
            raise IllFormedEntryError(f"bind in rule {rule.id!r} lacks a phase")
        zone = prep.effective_zone if zone is None else zone
        source = _PREP_SOURCE if source is None else source
    else:
        return None  # resolve() passes no forbid; no other kind builds rows

    zones = verb_constraints(verb)  # the lref's, a fresh dict
    if not one_location:
        if discontinuities(zones):
            return None
        rows = tuple([(False, p, z, _VERB_SOURCE) for p, z in sorted(zones.items())])
        ground = ((True, phase, zone, source),)
        return rows + ground, ground + rows
    if phase in zones:
        source = _VERB_SOURCE  # a coincident fact keeps the verb's provenance
    if not _merge(zones, phase, zone):
        return None
    return (tuple([
        (True, p, z, source if p == phase else _VERB_SOURCE)
        for p, z in sorted(zones.items())
    ]),)


def explain(derivation: Derivation) -> str:
    """Human-readable account of a derivation, deterministic for fixed input.

    Ends with the machine-diffable trace records so a reader has both
    views in one place.  All but the names is laid out once per fired
    rule, defeats and shape of trace, and kept in a bounded cache (see
    _plain_layout); a call fills in the names.  A trace that is not
    plain, as only hand-built ones are (an absent binding, a third
    location, a name with a line break, a phase or zone that is not
    exactly a Phase or Zone member), is rendered directly with its
    names, as is a rule or defeat field holding a NUL.  The cache never
    changes the text.
    """
    complex_, _, fired, defeated, trace = derivation
    rule = (fired.id, fired.strength, fired.priority, *chain.from_iterable(defeated))
    mobile, lref, ground, assignments = trace
    if (  # plain: the locations are exactly lref and ground, printable str names
        type(lref) is str
        and type(ground) is str
        and {lref, ground} == {a[0] for a in assignments}
        and f"{mobile}{lref}{ground}".isprintable()
    ):
        rows = []  # four fields a row; only exact members, as 2.0 == Phase.POST
        for location, phase, zone, source in assignments:
            if type(phase) is not Phase or type(zone) is not Zone:
                break
            rows += (location == ground, phase, zone, source)
        else:
            ground_first = ground < lref
            layout = _plain_layout(ground_first, tuple(rows), *rule)
            if layout is not None:
                parts, pick = layout
                first, second = (ground, lref) if ground_first else (lref, ground)
                width = max(8, len(lref), len(ground))
                cells = first.ljust(width), second.ljust(width), "location".ljust(width)
                return "".join(pick((*complex_, mobile, first, second, *cells) + parts))
    return _render(complex_, trace, str, "location", *rule)


# Slot markers: NUL and one hex digit each, so all have one width and
# never occur in a plain name, which is printable.  Slots 0 to 4 are the
# motion complex's fields in order, 5 the mobile, 6 and 7 the two
# locations in sort order, and 8, 9 and 10 the same locations and the
# heading of the location column, padded to its width.
_SLOTS = tuple(f"\0{slot:x}" for slot in range(11))


@functools.lru_cache(maxsize=1024, typed=True)
def _plain_layout(
    ground_first: bool, rows: tuple, *rule
) -> tuple[tuple, Callable] | None:
    """explain()'s text for every plain trace of one shape and rule outcome.

    rows holds four fields per assignment: whether its location is the
    ground (if every one is, the two are identified), phase, zone and
    provenance.  The text is rendered once with slot markers for the
    names and split at them into literal parts; a getter picks its pieces
    in order from the slots' values followed by the literal parts.
    Markers sort like the names they stand for, so the rows keep their
    order.  None when a rule field holds a NUL, which would read as one.

    The cache is keyed by content, never by identity, and typed, with the
    rule outcome flattened to its fields, so that fields which compare
    equal but print differently (priority 43 and 43.0) get layouts of
    their own.  The rows need no types: explain() passes only exact Phase
    and Zone members, and a provenance equals nothing but itself.  It
    holds the last 1024 layouts; the seed lexicons under the default
    rules need 162.
    """
    if any("\0" in f"{field}" for field in rule):
        return None
    slot = _SLOTS
    if all(rows[::4]):
        lref = ground = slot[6]
    else:
        lref, ground = (slot[7], slot[6]) if ground_first else (slot[6], slot[7])
    assignments = tuple(
        ZoneAssignment(ground if at_ground else lref, phase, zone, source)
        for at_ground, phase, zone, source in zip(*[iter(rows)] * 4)
    )
    trace = SpatiotemporalTrace(slot[5], lref, ground, assignments)
    cell = {slot[6]: slot[8], slot[7]: slot[9]}.get
    head, *pieces = _render(slot[:5], trace, cell, slot[10], *rule).split("\0")
    parts, picks = [head], [len(slot)]
    for piece in pieces:
        picks += (int(piece[0], 16), len(slot) + len(parts))
        parts.append(piece[1:])
    return tuple(parts), itemgetter(*picks)


def _render(
    complex_, trace: SpatiotemporalTrace, cell: Callable, heading: str,
    rule_id, strength, priority, *defeats
) -> str:
    """explain()'s text for a motion complex's fields, a trace and a rule outcome.

    cell gives a location's cell in the zone table and heading that
    column's heading; each column is padded to its widest cell.
    """
    verb, prep, ground, mobile, language = complex_
    lines = [
        f"motion complex: {verb} + {prep} + {ground}  [{language}]",
        f"mobile: {mobile}",
        "",
        f"fired rule: {rule_id} ({strength}, priority {priority})",
    ]
    if defeats:
        lines.append("defeated:")
        for defeated, by, reason in zip(*[iter(defeats)] * 3):
            by = f" by {by}" if by else ""
            lines.append(f"  {defeated} ({reason}{by})")
    else:
        lines.append("defeated: none")

    lines.append("")
    lines.append("bindings:")
    rows = trace.tuples()
    if trace.lref == trace.ground:
        lines.append(
            f"  ground: {trace.ground} (identified with the reference location)"
        )
    else:
        lines.append(f"  reference location: {trace.lref} (implicit)")
        ground_phases = dict.fromkeys(row[1] for row in rows if row[0] == trace.ground)
        at = ", ".join(ground_phases) or "no phase"
        lines.append(f"  ground: {trace.ground} (bound at {at})")

    lines.append("")
    lines.append("zones:")
    table = [(heading, "phase", "zone", "source")] + [
        (cell(location), phase, zone, PROVENANCE_DISPLAY[Provenance(source)])
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
