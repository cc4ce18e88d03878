"""Spatiotemporal traces: per-phase zone relations between a mobile and locations.

A trace is the composed meaning of a motion description.  For each
location it tracks, it may assign the mobile one zone per phase, and it
remembers where each assignment came from: the verb entry, the
preposition entry, or the interaction of the two.

Traces are immutable values; all functions here are pure.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from .zones import Phase, Zone, zone_distance


class Provenance(enum.Enum):
    """Which constituent contributed an assignment."""

    VERB = "verb"
    PREP = "prep"
    INTERACTION = "interaction"

    @property
    def label(self) -> str:
        """Short name used in trace records and corpus files."""
        return self.value

    @property
    def display(self) -> str:
        """Long name used in human-readable explanations."""
        return _DISPLAY[self]

    @classmethod
    def from_label(cls, label: str) -> "Provenance":
        try:
            return cls(label)
        except ValueError:
            raise ValueError(f"unknown provenance name: {label!r}") from None


_DISPLAY = {
    Provenance.VERB: "Verb",
    Provenance.PREP: "Preposition",
    Provenance.INTERACTION: "Interaction",
}


class ZoneAssignment(NamedTuple):
    """The mobile's zone with respect to one location in one phase."""

    location: str
    phase: Phase
    zone: Zone
    provenance: Provenance

    def tuple(self) -> tuple[str, str, str, str]:
        return (self.location, self.phase.label, self.zone.label, self.provenance.label)


class SpatiotemporalTrace(NamedTuple):
    """Zone assignments plus role bindings for one motion description.

    lref is the location bound as the verb's reference location, ground
    the one introduced by the preposition; they may be the same location
    when the two are identified.  Either binding may be absent on
    hand-built traces.
    """

    mobile: str
    lref: str | None = None
    ground: str | None = None
    assignments: tuple[ZoneAssignment, ...] = ()

    def locations(self) -> list[str]:
        """All locations the trace mentions, sorted."""
        seen = {a.location for a in self.assignments}
        seen.update(loc for loc in (self.lref, self.ground) if loc is not None)
        return sorted(seen)

    def zone_at(self, location: str, phase: Phase) -> Zone | None:
        for a in self.assignments:
            if a.location == location and a.phase is phase:
                return a.zone
        return None

    def tuples(self) -> tuple[tuple[str, str, str, str], ...]:
        """Assignment tuples in canonical (location, phase) order."""
        return tuple(a.tuple() for a in sorted_assignments(self.assignments))


def sorted_assignments(
    assignments: tuple[ZoneAssignment, ...],
) -> list[ZoneAssignment]:
    return sorted(assignments, key=lambda a: (a.location, int(a.phase)))


class Violation(NamedTuple):
    """One broken trace invariant, with enough detail to locate it."""

    location: str
    phases: tuple[Phase, ...]
    kind: str  # "discontinuity" or "conflict"
    message: str

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

    for a in trace.assignments:
        zones = per_location.setdefault(a.location, {})
        if a.phase in zones:
            if zones[a.phase] is not a.zone:
                violations.append(
                    Violation(
                        a.location,
                        (a.phase,),
                        "conflict",
                        f"two zones assigned in one phase "
                        f"({zones[a.phase].label} vs {a.zone.label})",
                    )
                )
            else:
                violations.append(
                    Violation(
                        a.location,
                        (a.phase,),
                        "conflict",
                        "duplicate assignment for this phase",
                    )
                )
            continue
        zones[a.phase] = a.zone

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
    defined = [p for p in (Phase.PRE, Phase.DURING, Phase.POST) if p in zones]
    return [
        (a, b)
        for a, b in zip(defined, defined[1:])
        if not (a is Phase.PRE and b is Phase.POST)
        and zone_distance(zones[a], zones[b]) > 1
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
    for a in sorted_assignments(trace.assignments):
        lines.append(" ".join(a.tuple()))
    return "\n".join(lines)
