"""Qualitative spatial zones and motion phases.

A location induces four nested regions around itself: its inside, the
external zone of contact with its boundary, a surrounding zone of
proximity, and the far-away outside.  Movement between non-neighbouring
zones has to traverse the zones in between, so the four values carry a
fixed linear adjacency order.
"""

from __future__ import annotations

import enum

from .errors import UnknownNameError


class Zone(enum.IntEnum):
    """One of the four regions induced by a location, ordered by distance."""

    INSIDE = 0
    CONTACT = 1
    PROXIMAL = 2
    DISTAL = 3

    @property
    def label(self) -> str:
        """Stable lowercase name used in data files and trace output."""
        return ZONE_LABELS[self]

    @classmethod
    def from_label(cls, label: str) -> "Zone":
        """The zone named label, in any case."""
        return _member(ZONE_BY_NAME, label, "zone")


class Phase(enum.IntEnum):
    """Temporal slice of a motion event: before, along the path, after."""

    PRE = 0
    DURING = 1
    POST = 2

    @property
    def label(self) -> str:
        return PHASE_LABELS[self]

    @classmethod
    def from_label(cls, label: str) -> "Phase":
        return _member(PHASE_BY_NAME, label, "phase")


class LrefRole(enum.IntEnum):
    """Which motion phase a reference location anchors.

    A change-of-location verb implicitly evokes a reference location;
    directional prepositions explicitly focus one.  The role says whether
    that location is the initial location, the path, or the final
    location of the motion.
    """

    INITIAL = 0
    MEDIAL = 1
    FINAL = 2

    @property
    def label(self) -> str:
        return ROLE_LABELS[self]

    @classmethod
    def from_label(cls, label: str) -> "LrefRole":
        return _member(ROLE_BY_NAME, label, "role")

    @property
    def phase(self) -> Phase:
        """The motion phase this role maps onto (fixed bijection)."""
        return _ROLE_PHASES[self]


# Read-only tables built once at import, so that parsing and rendering
# never rebuild a label: labels indexed by member value (each enum counts
# from 0), members by upper-case name (from_label accepts any case).
ZONE_LABELS = tuple(zone.name.lower() for zone in Zone)
PHASE_LABELS = tuple(phase.name.lower() for phase in Phase)
ROLE_LABELS = tuple(role.name.lower() for role in LrefRole)
ZONE_BY_NAME = Zone.__members__
PHASE_BY_NAME = Phase.__members__
ROLE_BY_NAME = LrefRole.__members__
_ROLE_PHASES = (Phase.PRE, Phase.DURING, Phase.POST)


def _member(by_name, label: str, kind: str):
    """The member named label in any case: the one lookup of every label."""
    member = by_name.get(label.upper())
    if member is None:
        raise UnknownNameError(f"unknown {kind} name: {label!r}")
    return member


def zone_distance(a: Zone, b: Zone) -> int:
    """Number of adjacency steps between two zones (a metric)."""
    return abs(a - b)


def interpolate_zones(start: Zone, end: Zone) -> list[Zone]:
    """The unique monotone walk from start to end, inclusive of both.

    Consecutive elements are adjacent; the result has
    zone_distance(start, end) + 1 elements.
    """
    step = 1 if end >= start else -1
    return [Zone(v) for v in range(int(start), int(end) + step, step)]

