"""Qualitative spatial zones and motion phases.

A location induces four nested regions around itself: its inside, the
external zone of contact with its boundary, a surrounding zone of
proximity, and the far-away outside.  Movement between non-neighbouring
zones has to traverse the zones in between, so the four values carry a
fixed linear adjacency order.
"""

from types import MappingProxyType

from .errors import UnknownNameError


class _ConstantType(type):
    """The type of a Constant class: iteration, len and lookup by value."""

    def __iter__(cls):
        return iter(cls.__members__.values())

    def __len__(cls):
        return len(cls.__members__)

    def __call__(cls, value):
        """The member of value; a member gives itself."""
        try:
            return cls._by_value[value]
        except (KeyError, TypeError):
            raise ValueError(f"{value!r} is not a valid {cls.__qualname__}") from None


class Constant(metaclass=_ConstantType):
    """A class of named constants: the base of Zone, Phase, LrefRole and Provenance.

    It gives them what they used from enum without importing it: enum's
    class builds cost more at import than the rest of this module.  A
    subclass names its kind (for from_label's error) in its class line and
    lists its members in its body, in value order, as NAME = value:

        class Phase(Constant, int, kind="phase"):
            PRE = 0

    With int as a base, each member is an int of its value, equal to it
    and hashed like it; otherwise a member is equal only to itself and
    hashed by identity.  Each is made once, with the class: it has a
    read-only name, value and label (the lowercase name used in data files
    and trace output), an enum member's repr and str, and pickles and
    copies back to itself.  The class iterates over its members in order,
    has their count as len, a read-only __members__ (name -> member) and
    from_label; called with a value, it gives the one member of that value
    or raises ValueError.
    """

    __slots__ = ()

    def __init_subclass__(cls, kind, **kwargs):
        super().__init_subclass__(**kwargs)
        number = issubclass(cls, int)
        if number:
            cls.__str__ = int.__repr__  # as an IntEnum member: prints as its int
        members, by_value = {}, {}
        for name, value in list(vars(cls).items()):
            if name.isupper():
                member = int.__new__(cls, value) if number else object.__new__(cls)
                member.__dict__.update(name=name, value=value, label=name.lower())
                setattr(cls, name, member)
                members[name] = by_value[value] = by_value[member] = member
        cls._kind, cls._by_value = kind, by_value
        cls.__members__ = MappingProxyType(members)

    @classmethod
    def from_label(cls, label: str):
        """The member named label, in any ASCII case: no look-alike such as 'ſ' or 'ı'."""
        member = cls.__members__.get(label.upper()) if label.isascii() else None
        if member is None:
            raise UnknownNameError(f"unknown {cls._kind} name: {label!r}")
        return member

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r} of a {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r} of a {type(self).__name__}")

    def __repr__(self):
        return f"<{type(self).__name__}.{self.name}: {self.value!r}>"

    def __str__(self):
        return f"{type(self).__name__}.{self.name}"

    def __reduce__(self):  # for pickle and copy: the class called with the value
        return type(self), (self.value,)


class Zone(Constant, int, kind="zone"):
    """One of the four regions induced by a location, ordered by distance."""

    INSIDE = 0
    CONTACT = 1
    PROXIMAL = 2
    DISTAL = 3


class Phase(Constant, int, kind="phase"):
    """Temporal slice of a motion event: before, along the path, after."""

    PRE = 0
    DURING = 1
    POST = 2


class LrefRole(Constant, int, kind="role"):
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
    def phase(self) -> Phase:
        """The motion phase this role maps onto (fixed bijection)."""
        return _ROLE_PHASES[self]


_ROLE_PHASES = (Phase.PRE, Phase.DURING, Phase.POST)


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
