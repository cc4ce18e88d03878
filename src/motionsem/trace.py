"""Spatiotemporal traces: per-phase zone relations between a mobile and locations.

A trace is the composed meaning of a motion description.  For each
location it tracks, it may assign the mobile one zone per phase, and it
remembers where each assignment came from: the verb entry, the
preposition entry, or the interaction of the two.

Traces are immutable values; all functions here are pure.  tuples()
and render_records() give a trace's rows in their one canonical order,
by (location, phase), and explain's zone table prints those rows too.
"""

from operator import itemgetter
from types import MappingProxyType

from .errors import Record, _member
from .zones import Constant, Phase, Zone, zone_distance


class Provenance(Constant, kind="provenance"):
    """Which constituent contributed an assignment."""

    VERB = "verb"
    PREP = "prep"
    INTERACTION = "interaction"


PROVENANCE_DISPLAY = MappingProxyType(
    dict(zip(Provenance, ("Verb", "Preposition", "Interaction")))
)
_PHASE_ORDER = tuple(Phase)
_LOCATION_PHASE = itemgetter(0, 1)  # phases are ints, so they sort as such


class ZoneAssignment(Record, fields="location phase zone provenance"):
    """The mobile's zone with respect to one location in one phase.

    It holds its phase, zone and provenance as the members they equal (a
    phase 2.0 as Phase.POST); any other value raises IllFormedEntryError.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        return tuple.__new__(cls, (
            self[0], _member(self, 1, Phase), _member(self, 2, Zone),
            _member(self, 3, Provenance),
        ))

    def tuple(self) -> tuple[str, str, str, str]:
        location, phase, zone, prov = self
        return location, phase.label, zone.label, prov.label


class SpatiotemporalTrace(
    Record, fields="mobile lref ground assignments", defaults=(None, None, ())
):
    """Zone assignments plus role bindings for one motion description.

    lref is the location bound as the verb's reference location, ground
    the one introduced by the preposition; they may be the same location
    when the two are identified.  Either binding may be absent (None) on
    hand-built traces.  assignments holds its rows in a tuple, each as a
    ZoneAssignment: a row that ZoneAssignment refuses raises
    IllFormedEntryError.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        mobile, lref, ground, rows = super().__new__(cls, *args, **kwargs)
        rows = tuple([
            row if isinstance(row, ZoneAssignment) else ZoneAssignment._make(row)
            for row in rows
        ])
        return tuple.__new__(cls, (mobile, lref, ground, rows))

    def tuples(self) -> tuple[tuple[str, str, str, str], ...]:
        """Assignment tuples in canonical (location, phase) order."""
        return tuple([a.tuple() for a in sorted(self.assignments, key=_LOCATION_PHASE)])


class Violation(Record, fields="location phases kind message"):
    """One broken trace invariant, with enough detail to locate it.

    kind is "discontinuity" or "conflict".
    """

    __slots__ = ()

    def __str__(self) -> str:
        names = "/".join(p.label for p in self.phases)
        return f"{self.location} [{names}]: {self.message}"


def validate_trace(trace: SpatiotemporalTrace) -> list[Violation]:
    """Check a trace against the zone-continuity and uniqueness invariants.

    Returns an empty list when the trace is well formed.  Violations are
    data, not exceptions: callers decide what a broken trace means.

    Continuity is enforced only across consecutive *defined* phases: a
    missing during phase acts as an implicit connector, so pre and post
    may then differ by any number of zones.
    """
    violations: list[Violation] = []
    per_location: dict[str, dict[Phase, Zone]] = {}

    for location, phase, zone, _ in trace.assignments:
        zones = per_location.setdefault(location, {})
        if phase in zones:
            message = "duplicate assignment for this phase"
            if zones[phase] is not zone:
                message = f"two zones assigned in one phase ({zones[phase].label} vs {zone.label})"
            violations.append(Violation(location, (phase,), "conflict", message))
            continue
        zones[phase] = zone

    for location in sorted(per_location):
        zones = per_location[location]
        for a, b in discontinuities(zones):
            violations.append(
                Violation(
                    location,
                    (a, b),
                    "discontinuity",
                    f"jump from {zones[a].label} to {zones[b].label} "
                    f"skips an intermediate zone",
                )
            )

    return violations


def discontinuities(zones: dict[Phase, Zone]) -> list[tuple[Phase, Phase]]:
    """Consecutive defined phases whose zones are not adjacent.

    A missing during phase licenses the pre->post jump, so pre and post
    may then differ by any number of zones.
    """
    defined = [p for p in _PHASE_ORDER if p in zones]
    return [
        (a, b)
        for a, b in zip(defined, defined[1:])
        if b - a == 1 and zone_distance(zones[a], zones[b]) > 1  # b - a == 2: pre->post
    ]


def render_records(trace: SpatiotemporalTrace) -> str:
    """Deterministic textual records for a trace.

    Role-binding lines first, then one line per assignment, ordered by
    (location, phase).  The same record shape is mirrored by corpus
    EXPECT lines.
    """
    lines = [f"mobile {trace.mobile}"]
    if trace.lref is not None:
        lines.append(f"lref {trace.lref}")
    if trace.ground is not None:
        lines.append(f"ground {trace.ground}")
    for location, phase, zone, prov in sorted(trace.assignments, key=_LOCATION_PHASE):
        lines.append(" ".join((location, phase.label, zone.label, prov.label)))
    return "\n".join(lines)
