"""Spatiotemporal traces: per-phase zone relations between a mobile and locations.

A trace is the composed meaning of a motion description.  For each
location it tracks, it may assign the mobile one zone per phase, and it
remembers where each assignment came from: the verb entry, the
preposition entry, or the interaction of the two.

Traces are immutable values; all functions here are pure.  tuples()
and render_records() give a trace's rows in their one canonical order,
by (location, phase), and explain's zone table prints those rows too.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from operator import itemgetter
from types import MappingProxyType

from .zones import PHASE_LABELS, ZONE_LABELS, Phase, Zone, _member, zone_distance


class Provenance(enum.Enum):
    """Which constituent contributed an assignment."""

    VERB = "verb"
    PREP = "prep"
    INTERACTION = "interaction"

    # Members are singletons compared by identity, so they can hash by
    # identity too, in C; Enum's own __hash__ runs Python code, and every
    # printed row and every explain layout key hashes a provenance.
    __hash__ = object.__hash__

    @property
    def label(self) -> str:
        """Short name used in trace records and corpus files."""
        return PROVENANCE_LABELS[self]

    @classmethod
    def from_label(cls, label: str) -> "Provenance":
        """The provenance named label, in any case."""
        return _member(_PROVENANCE_BY_NAME, label, "provenance")


# Read-only tables built once at import, like the label tables in zones.
PROVENANCE_LABELS = MappingProxyType({p: p.value for p in Provenance})
_PROVENANCE_BY_NAME = Provenance.__members__  # each read of __members__ builds a proxy
PROVENANCE_DISPLAY = MappingProxyType(
    dict(zip(Provenance, ("Verb", "Preposition", "Interaction")))
)
_PHASE_ORDER = tuple(Phase)
_LOCATION_PHASE = itemgetter(0, 1)  # phases are IntEnums, so they sort as ints


class ZoneAssignment(namedtuple("ZoneAssignment", "location phase zone provenance")):
    """The mobile's zone with respect to one location in one phase."""

    __slots__ = ()

    def tuple(self) -> tuple[str, str, str, str]:
        location, phase, zone, prov = self
        return location, PHASE_LABELS[phase], ZONE_LABELS[zone], PROVENANCE_LABELS[prov]


class SpatiotemporalTrace(namedtuple(
    "SpatiotemporalTrace", "mobile lref ground assignments", defaults=(None, None, ())
)):
    """Zone assignments plus role bindings for one motion description.

    lref is the location bound as the verb's reference location, ground
    the one introduced by the preposition; they may be the same location
    when the two are identified.  Either binding may be absent (None) on
    hand-built traces.  assignments is a tuple of ZoneAssignment.
    """

    __slots__ = ()

    def tuples(self) -> tuple[tuple[str, str, str, str], ...]:
        """Assignment tuples in canonical (location, phase) order."""
        return tuple([a.tuple() for a in sorted(self.assignments, key=_LOCATION_PHASE)])


class Violation(namedtuple("Violation", "location phases kind message")):
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
            if zones[phase] is not zone:
                violations.append(
                    Violation(
                        location,
                        (phase,),
                        "conflict",
                        f"two zones assigned in one phase "
                        f"({zones[phase].label} vs {zone.label})",
                    )
                )
            else:
                violations.append(
                    Violation(
                        location,
                        (phase,),
                        "conflict",
                        "duplicate assignment for this phase",
                    )
                )
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
    for a in sorted(trace.assignments, key=_LOCATION_PHASE):
        lines.append(" ".join(a.tuple()))
    return "\n".join(lines)
