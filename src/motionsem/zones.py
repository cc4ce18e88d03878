"""Qualitative spatial zones and motion phases.

A location induces four nested regions around itself: its inside, the
external zone of contact with its boundary, a surrounding zone of
proximity, and the far-away outside.  Movement between non-neighbouring
zones has to traverse the zones in between, so the four values carry a
fixed linear adjacency order.
"""

from __future__ import annotations

import enum


class Zone(enum.IntEnum):
    """One of the four regions induced by a location, ordered by distance."""

    INSIDE = 0
    CONTACT = 1
    PROXIMAL = 2
    DISTAL = 3

    @property
    def label(self) -> str:
        """Stable lowercase name used in data files and trace output."""
        return self.name.lower()

    @classmethod
    def from_label(cls, label: str) -> "Zone":
        try:
            return cls[label.upper()]
        except KeyError:
            raise ValueError(f"unknown zone name: {label!r}") from None


class Phase(enum.IntEnum):
    """Temporal slice of a motion event: before, along the path, after."""

    PRE = 0
    DURING = 1
    POST = 2

    @property
    def label(self) -> str:
        return self.name.lower()

    @classmethod
    def from_label(cls, label: str) -> "Phase":
        try:
            return cls[label.upper()]
        except KeyError:
            raise ValueError(f"unknown phase name: {label!r}") from None


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
        return self.name.lower()

    @classmethod
    def from_label(cls, label: str) -> "LrefRole":
        try:
            return cls[label.upper()]
        except KeyError:
            raise ValueError(f"unknown role name: {label!r}") from None

    @property
    def phase(self) -> Phase:
        """The motion phase this role maps onto (fixed bijection)."""
        return _ROLE_TO_PHASE[self]


_ROLE_TO_PHASE = {
    LrefRole.INITIAL: Phase.PRE,
    LrefRole.MEDIAL: Phase.DURING,
    LrefRole.FINAL: Phase.POST,
}


def zone_distance(a: Zone, b: Zone) -> int:
    """Number of adjacency steps between two zones (a metric)."""
    return abs(int(a) - int(b))


def interpolate_zones(start: Zone, end: Zone) -> list[Zone]:
    """The unique monotone walk from start to end, inclusive of both.

    Consecutive elements are adjacent; the result has
    zone_distance(start, end) + 1 elements.
    """
    step = 1 if end >= start else -1
    return [Zone(v) for v in range(int(start), int(end) + step, step)]

