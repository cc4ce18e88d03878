"""Defeasible composition rules: guards, conclusions, file format, linting.

Rules live in a plain-text configuration so the behaviour of
verb-preposition association can be amended without code changes:

    VERSION <string>
    R <id> <strength> <priority> <guard-expr> <conclusion-expr>

Fields are tab separated.  A guard is a comma-joined conjunction of
feature atoms; a conclusion either identifies the preposition's ground
with the verb's reference location, binds the ground to a motion phase,
or forbids identification outright (the strict continuity guard):

    guard atoms:  lrefrole=initial|medial|final  prepkind=pos|dir
                  preprole=initial|medial|final  zonecompat=yes|no
                  attained=yes|no
    conclusions:  identify
                  bind(<phase>) [zone=<zone>] [prov=verb|prep|interaction]
                  forbid(identify)

Strict rules outrank every defeasible rule regardless of priority;
among rules of equal strength, higher priority wins and exact ties are
an error, never silently ordered.
"""

from __future__ import annotations

from importlib import resources
from typing import Iterable, NamedTuple, Sequence

from .errors import IllFormedEntryError
from .trace import Provenance
from .zones import LrefRole, Phase, Zone

GUARD_KEYS = ("lrefrole", "prepkind", "preprole", "zonecompat", "attained")

_GUARD_VALUES = {
    "lrefrole": ("initial", "medial", "final"),
    "prepkind": ("pos", "dir"),
    "preprole": ("initial", "medial", "final"),
    "zonecompat": ("yes", "no"),
    "attained": ("yes", "no"),
}


class ComplexFeatures(NamedTuple):
    """The feature vector a guard is evaluated against.

    preprole is None for positional prepositions; attained is None unless
    the preposition is directional-final.  zone_compatible says whether
    identifying ground and reference location would yield a consistent,
    continuous set of zone constraints.
    """

    lref_role: LrefRole
    prep_kind: str
    prep_role: LrefRole | None
    zone_compatible: bool
    attained: bool | None

    def atom_value(self, key: str) -> str | None:
        if key == "lrefrole":
            return self.lref_role.label
        if key == "prepkind":
            return self.prep_kind
        if key == "preprole":
            return None if self.prep_role is None else self.prep_role.label
        if key == "zonecompat":
            return "yes" if self.zone_compatible else "no"
        if key == "attained":
            if self.attained is None:
                return None
            return "yes" if self.attained else "no"
        raise ValueError(f"unknown guard key {key!r}")


class Guard(NamedTuple):
    """Conjunction of feature atoms; an atom on an absent feature never matches."""

    atoms: tuple[tuple[str, str], ...]

    def matches(self, features: ComplexFeatures) -> bool:
        return all(features.atom_value(k) == v for k, v in self.atoms)

    def subsumes(self, other: "Guard") -> bool:
        """True when this guard is strictly more specific than other."""
        mine, theirs = set(self.atoms), set(other.atoms)
        return theirs < mine

    def render(self) -> str:
        return ",".join(f"{k}={v}" for k, v in self.atoms)


class Conclusion(NamedTuple):
    """What a fired rule does with the ground location.

    kind "identify": the ground is the verb's reference location.
    kind "bind": the ground is a separate location assigned one zone at
    one phase (zone/prov default to the preposition's commitment).
    kind "forbid": vetoes identify conclusions of lower-ranked rules.
    """

    kind: str  # "identify" | "bind" | "forbid"
    phase: Phase | None = None
    zone: Zone | None = None
    provenance: Provenance | None = None

    def render(self) -> str:
        if self.kind == "identify":
            return "identify"
        if self.kind == "forbid":
            return "forbid(identify)"
        parts = [f"bind({self.phase.label})"]
        if self.zone is not None:
            parts.append(f"zone={self.zone.label}")
        if self.provenance is not None:
            parts.append(f"prov={self.provenance.label}")
        return " ".join(parts)


class CompositionRule(NamedTuple):
    id: str
    strength: str  # "strict" | "defeasible"
    priority: int
    guard: Guard
    conclusion: Conclusion

    @property
    def is_strict(self) -> bool:
        return self.strength == "strict"

    def sort_key(self) -> tuple[int, int]:
        """Rank key: strict first, then priority, both descending."""
        return (1 if self.is_strict else 0, self.priority)

    def render(self) -> str:
        return "\t".join(
            [
                "R",
                self.id,
                self.strength,
                str(self.priority),
                self.guard.render(),
                self.conclusion.render(),
            ]
        )


Tie = tuple[int, tuple[str, ...]]  # position in a ranked list, sorted rule ids


def first_tie(ranked: Sequence[CompositionRule]) -> Tie | None:
    """The first group of rules in a ranked list sharing strength and priority.

    Returns the group's position and its sorted rule ids, or None when
    every rank is held by a single rule.
    """
    for index in range(len(ranked) - 1):
        key = ranked[index].sort_key()
        if ranked[index + 1].sort_key() == key:
            ids = sorted(r.id for r in ranked[index:] if r.sort_key() == key)
            return index, tuple(ids)
    return None


class RuleBase:
    """A versioned set of composition rules.

    Carries two lazily filled memos that ==, hash and repr ignore: the
    ranking per feature vector (at most 30) and compose()'s derivation
    per entry shape (at most 960).  Its fields cannot be reassigned.
    """

    __slots__ = ("version", "rules", "_rankings", "_derivations")

    def __init__(self, version: str, rules: tuple[CompositionRule, ...] = ()):
        object.__setattr__(self, "version", version)
        object.__setattr__(self, "rules", rules)
        object.__setattr__(self, "_rankings", {})
        object.__setattr__(self, "_derivations", {})

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.version, self.rules) == (other.version, other.rules)

    def __hash__(self) -> int:
        return hash((self.version, self.rules))

    def __repr__(self) -> str:
        return f"RuleBase(version={self.version!r}, rules={self.rules!r})"

    def ranking(
        self, features: ComplexFeatures
    ) -> tuple[tuple[CompositionRule, ...], Tie | None]:
        """The applicable rules for features, ranked, and their first tie."""
        ranking = self._rankings.get(features)
        if ranking is None:
            ranked = tuple(applicable_rules(features, self))
            ranking = self._rankings[features] = (ranked, first_tie(ranked))
        return ranking

    def with_rule(self, rule: CompositionRule) -> "RuleBase":
        """A copy of this base with one extra rule (ids must stay unique)."""
        if any(r.id == rule.id for r in self.rules):
            raise IllFormedEntryError(f"rule id {rule.id!r} already present")
        return RuleBase(version=self.version, rules=self.rules + (rule,))


def parse_guard(text: str, lineno: int | None = None) -> Guard:
    atoms: list[tuple[str, str]] = []
    seen: set[str] = set()
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk or "=" not in chunk:
            raise IllFormedEntryError(f"bad guard atom {chunk!r}", lineno)
        key, value = chunk.split("=", 1)
        if key not in GUARD_KEYS:
            raise IllFormedEntryError(f"unknown guard key {key!r}", lineno)
        if value not in _GUARD_VALUES[key]:
            raise IllFormedEntryError(f"bad value {value!r} for {key}", lineno)
        if key in seen:
            raise IllFormedEntryError(f"guard repeats key {key!r}", lineno)
        seen.add(key)
        atoms.append((key, value))
    if not atoms:
        raise IllFormedEntryError("empty guard", lineno)
    return Guard(atoms=tuple(atoms))


def parse_conclusion(text: str, lineno: int | None = None) -> Conclusion:
    parts = text.split()
    if not parts:
        raise IllFormedEntryError("empty conclusion", lineno)
    head, options = parts[0], parts[1:]

    if head == "identify":
        if options:
            raise IllFormedEntryError("identify takes no options", lineno)
        return Conclusion(kind="identify")

    if head == "forbid(identify)":
        if options:
            raise IllFormedEntryError("forbid(identify) takes no options", lineno)
        return Conclusion(kind="forbid")

    if head.startswith("bind(") and head.endswith(")"):
        try:
            phase = Phase.from_label(head[len("bind(") : -1])
        except ValueError as exc:
            raise IllFormedEntryError(str(exc), lineno) from None
        zone: Zone | None = None
        prov: Provenance | None = None
        for opt in options:
            if opt.startswith("zone="):
                try:
                    zone = Zone.from_label(opt[len("zone=") :])
                except ValueError as exc:
                    raise IllFormedEntryError(str(exc), lineno) from None
            elif opt.startswith("prov="):
                try:
                    prov = Provenance.from_label(opt[len("prov=") :])
                except ValueError as exc:
                    raise IllFormedEntryError(str(exc), lineno) from None
            else:
                raise IllFormedEntryError(f"unknown bind option {opt!r}", lineno)
        return Conclusion(kind="bind", phase=phase, zone=zone, provenance=prov)

    raise IllFormedEntryError(f"unknown conclusion {head!r}", lineno)


def load_rulebase(source: Iterable[str]) -> RuleBase:
    """Parse a rule-base stream; errors carry line numbers."""
    version = "unversioned"
    saw_version = False
    rules: list[CompositionRule] = []
    ids: set[str] = set()

    for lineno, raw in enumerate(source, start=1):
        line = raw.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = line.split("\t")
        tag = fields[0].strip()

        if tag == "VERSION":
            if saw_version:
                raise IllFormedEntryError("second VERSION line", lineno)
            if len(fields) != 2 or not fields[1].strip():
                raise IllFormedEntryError("VERSION line needs exactly one value", lineno)
            version = fields[1].strip()
            saw_version = True
            continue

        if tag != "R":
            raise IllFormedEntryError(f"unknown line tag {tag!r}", lineno)
        if len(fields) != 6:
            raise IllFormedEntryError(
                "rule line needs R <id> <strength> <priority> <guard> <conclusion>",
                lineno,
            )
        rule_id = fields[1].strip()
        strength = fields[2].strip()
        if not rule_id:
            raise IllFormedEntryError("empty rule id", lineno)
        if rule_id in ids:
            raise IllFormedEntryError(f"rule id {rule_id!r} repeated", lineno)
        if strength not in ("strict", "defeasible"):
            raise IllFormedEntryError(f"bad strength {strength!r}", lineno)
        try:
            priority = int(fields[3].strip())
        except ValueError:
            raise IllFormedEntryError(f"bad priority {fields[3]!r}", lineno) from None
        guard = parse_guard(fields[4].strip(), lineno)
        conclusion = parse_conclusion(fields[5].strip(), lineno)
        ids.add(rule_id)
        rules.append(
            CompositionRule(
                id=rule_id,
                strength=strength,
                priority=priority,
                guard=guard,
                conclusion=conclusion,
            )
        )

    return RuleBase(version=version, rules=tuple(rules))


def dump_rulebase(base: RuleBase) -> str:
    lines = [f"VERSION\t{base.version}"]
    lines += [rule.render() for rule in base.rules]
    return "\n".join(lines) + "\n"


def load_rulebase_path(path: str) -> RuleBase:
    with open(path, "r", encoding="utf-8") as fh:
        return load_rulebase(fh)


def default_rulebase() -> RuleBase:
    """The rule base shipped with the package (data/default.rules)."""
    with resources.files("motionsem.data").joinpath("default.rules").open(
        "r", encoding="utf-8"
    ) as fh:
        return load_rulebase(fh)


# ---------------------------------------------------------------------------
# Linting

# The verb contributes three possible reference-location roles and the
# preposition four feature shapes; together they span the grid every rule
# base must cover.
PREP_SHAPES: tuple[tuple[str, LrefRole | None], ...] = (
    ("pos", None),
    ("dir", LrefRole.INITIAL),
    ("dir", LrefRole.MEDIAL),
    ("dir", LrefRole.FINAL),
)


def _completions(
    lref_role: LrefRole, prep_kind: str, prep_role: LrefRole | None
) -> list[ComplexFeatures]:
    attained_values: tuple[bool | None, ...]
    if prep_kind == "dir" and prep_role is LrefRole.FINAL:
        attained_values = (True, False)
    else:
        attained_values = (None,)
    return [
        ComplexFeatures(lref_role, prep_kind, prep_role, compat, att)
        for compat in (True, False)
        for att in attained_values
    ]


class LintCell(NamedTuple):
    lref_role: LrefRole
    prep_kind: str
    prep_role: LrefRole | None

    def label(self) -> str:
        prep = self.prep_kind if self.prep_role is None else (
            f"{self.prep_kind}-{self.prep_role.label}"
        )
        return f"{self.lref_role.label} x {prep}"


class LintReport(NamedTuple):
    gap_cells: tuple[LintCell, ...]
    tie_cells: tuple[tuple[LintCell, str], ...]  # cell, offending rule ids

    @property
    def ok(self) -> bool:
        return not self.gap_cells and not self.tie_cells

    def render(self) -> str:
        lines = ["rule base grid: 3 roles x 4 preposition shapes = 12 cells"]
        if self.ok:
            lines.append("coverage: complete, no possible ties")
        if self.gap_cells:
            lines.append(f"gaps ({len(self.gap_cells)} cells):")
            lines += [f"  {cell.label()}" for cell in self.gap_cells]
        if self.tie_cells:
            lines.append(f"possible ties ({len(self.tie_cells)}):")
            lines += [f"  {cell.label()}: {ids}" for cell, ids in self.tie_cells]
        return "\n".join(lines)


def applicable_rules(
    features: ComplexFeatures, base: RuleBase
) -> list[CompositionRule]:
    """All rules whose guard holds, ranked strict-first then by priority.

    The sort is stable, so rules tying on strength and priority keep
    their file order; resolution rejects such ties instead of relying
    on it.
    """
    hits = [r for r in base.rules if r.guard.matches(features)]
    hits.sort(key=lambda r: r.sort_key(), reverse=True)
    return hits


def lint_rulebase(base: RuleBase) -> LintReport:
    """Check the 12-cell grid for uncovered cells and possible ties.

    A cell gaps when some feature completion (zone compatibility,
    attainment) leaves it with no conclusion-producing rule; a veto-only
    cell is still a gap.  A possible tie is a completion where the two
    top-ranked applicable rules share strength and priority.
    """
    gaps: list[LintCell] = []
    ties: list[tuple[LintCell, str]] = []

    for lref_role in LrefRole:
        for prep_kind, prep_role in PREP_SHAPES:
            cell = LintCell(lref_role, prep_kind, prep_role)
            cell_gap = False
            cell_ties: list[str] = []
            for features in _completions(lref_role, prep_kind, prep_role):
                hits, tie = base.ranking(features)
                if not any(r.conclusion.kind != "forbid" for r in hits):
                    cell_gap = True
                if tie is not None and tie[0] == 0:
                    cell_ties.append("/".join(tie[1]))
            if cell_gap:
                gaps.append(cell)
            for tie in sorted(set(cell_ties)):
                ties.append((cell, tie))

    return LintReport(gap_cells=tuple(gaps), tie_cells=tuple(ties))
