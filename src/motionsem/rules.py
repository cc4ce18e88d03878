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

Role, phase, zone and provenance names are accepted in any case; the
other words are exact.  An unknown phase, zone or provenance name raises
UnknownNameError from the enum's from_label, as in every data file; an
unknown guard value is a bad value of its key.

Strict rules outrank every defeasible rule regardless of priority;
among rules of equal strength, higher priority wins and exact ties are
an error, never silently ordered.
"""

from __future__ import annotations

import functools
import itertools
from collections import namedtuple
from collections.abc import Callable, Iterable, Sequence

from .errors import (
    AmbiguousRuleBaseError, FormatError, IllFormedEntryError, InfelicitousError,
    data_lines, read_bundled,
)
from .trace import Provenance
from .zones import ROLE_BY_NAME, ROLE_LABELS, LrefRole, Phase, Zone

_GUARD_VALUES = {
    "lrefrole": ROLE_LABELS,
    "prepkind": ("pos", "dir"),
    "preprole": ROLE_LABELS,
    "zonecompat": ("yes", "no"),
    "attained": ("yes", "no"),
}
GUARD_KEYS = tuple(_GUARD_VALUES)


class ComplexFeatures(namedtuple(
    "ComplexFeatures", "lref_role prep_kind prep_role zone_compatible attained"
)):
    """The feature vector a guard is evaluated against.

    prep_role is None for positional prepositions; attained is None unless
    the preposition is directional-final.  zone_compatible says whether
    identifying ground and reference location would yield a consistent,
    continuous set of zone constraints.
    """

    __slots__ = ()

    @property
    def atoms(self) -> frozenset[tuple[str, str]]:
        """The guard atoms these features satisfy; absent features give none."""
        return _feature_atoms(self)


@functools.cache  # compute_features() produces at most 30 vectors
def _feature_atoms(features: Sequence) -> frozenset[tuple[str, str]]:
    lref_role, prep_kind, prep_role, zone_compatible, attained = features
    atoms = {("lrefrole", ROLE_LABELS[lref_role]), ("prepkind", prep_kind)}
    atoms.add(("zonecompat", "yes" if zone_compatible else "no"))
    if prep_role is not None:
        atoms.add(("preprole", ROLE_LABELS[prep_role]))
    if attained is not None:
        atoms.add(("attained", "yes" if attained else "no"))
    return frozenset(atoms)


class Guard(namedtuple("Guard", "atoms")):
    """Conjunction of feature atoms; an atom on an absent feature never matches."""

    __slots__ = ()

    def matches(self, features: ComplexFeatures) -> bool:
        return features.atoms.issuperset(self.atoms)

    def subsumes(self, other: "Guard") -> bool:
        """True when this guard is strictly more specific than other."""
        mine, theirs = set(self.atoms), set(other.atoms)
        return theirs < mine

    def render(self) -> str:
        return ",".join(f"{k}={v}" for k, v in self.atoms)


class Conclusion(namedtuple(
    "Conclusion", "kind phase zone provenance", defaults=(None, None, None)
)):
    """What a fired rule does with the ground location.

    kind "identify": the ground is the verb's reference location.
    kind "bind": the ground is a separate location assigned one zone at
    one phase (zone/prov default to the preposition's commitment).
    kind "forbid": vetoes identify conclusions of lower-ranked rules.
    """

    __slots__ = ()

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


class CompositionRule(namedtuple(
    "CompositionRule", "id strength priority guard conclusion"
)):
    """A guard and a conclusion, ranked by strength ("strict" or "defeasible")."""

    __slots__ = ()

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


class Defeat(namedtuple("Defeat", "rule_id defeated_by reason")):
    """A rule that was applicable but did not fire (defeated_by may be None)."""

    __slots__ = ()


@functools.lru_cache(maxsize=8)
def _memos(rules: tuple[CompositionRule, ...], types: tuple) -> dict:
    """The derivation memo shared by every base with these rules.

    types holds the type of each field of each rule and of its
    conclusion: rule tuples that compare equal but print differently,
    such as priority 43 and 43.0, must not share derivations.
    """
    return {}


class RuleBase:
    """A versioned set of composition rules.

    Carries one lazily filled memo that ==, hash and repr ignore:
    compose()'s compiled derivation per shape (at most 960).  No derivation
    reads the version, so every base with equal rules of equal field
    types (43 is not 43.0) shares one memo: construction takes it from a
    registry of the last 8 rule tuples, and a base the registry has since
    dropped keeps its own.  Sharing never changes a result, and
    concurrent fills at worst compute the same value twice.  Its fields
    cannot be reassigned.
    """

    __slots__ = ("version", "rules", "_derivations")

    def __init__(self, version: str, rules: tuple[CompositionRule, ...] = ()):
        types = tuple([(*map(type, r), *map(type, r.conclusion)) for r in rules])
        object.__setattr__(self, "version", version)
        object.__setattr__(self, "rules", rules)
        object.__setattr__(self, "_derivations", _memos(rules, types))

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

    def __reduce__(self):  # for pickle and copy, which cannot assign the fields
        return self.__class__, (self.version, self.rules)

    def with_rule(self, rule: CompositionRule) -> "RuleBase":
        """A copy of this base with one extra rule (ids must stay unique)."""
        if any(r.id == rule.id for r in self.rules):
            raise IllFormedEntryError(f"rule id {rule.id!r} already present")
        return RuleBase(version=self.version, rules=self.rules + (rule,))


def parse_guard(text: str) -> Guard:
    atoms: list[tuple[str, str]] = []
    seen: set[str] = set()
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk or "=" not in chunk:
            raise IllFormedEntryError(f"bad guard atom {chunk!r}")
        key, value = chunk.split("=", 1)
        if key not in GUARD_KEYS:
            raise IllFormedEntryError(f"unknown guard key {key!r}")
        if key in ("lrefrole", "preprole"):  # role names, like every label, in any case
            role = ROLE_BY_NAME.get(value.upper())
            value = value if role is None else ROLE_LABELS[role]
        if value not in _GUARD_VALUES[key]:
            raise IllFormedEntryError(f"bad value {value!r} for {key}")
        if key in seen:
            raise IllFormedEntryError(f"guard repeats key {key!r}")
        seen.add(key)
        atoms.append((key, value))
    if not atoms:
        raise IllFormedEntryError("empty guard")
    return Guard(atoms=tuple(atoms))


def parse_conclusion(text: str) -> Conclusion:
    parts = text.split()
    if not parts:
        raise IllFormedEntryError("empty conclusion")
    head, options = parts[0], parts[1:]

    if head == "identify":
        if options:
            raise IllFormedEntryError("identify takes no options")
        return Conclusion(kind="identify")

    if head == "forbid(identify)":
        if options:
            raise IllFormedEntryError("forbid(identify) takes no options")
        return Conclusion(kind="forbid")

    if head.startswith("bind(") and head.endswith(")"):
        phase = Phase.from_label(head[len("bind(") : -1])
        zone: Zone | None = None
        prov: Provenance | None = None
        for opt in options:
            if opt.startswith("zone="):
                zone = Zone.from_label(opt[len("zone=") :])
            elif opt.startswith("prov="):
                prov = Provenance.from_label(opt[len("prov=") :])
            else:
                raise IllFormedEntryError(f"unknown bind option {opt!r}")
        return Conclusion(kind="bind", phase=phase, zone=zone, provenance=prov)

    raise IllFormedEntryError(f"unknown conclusion {head!r}")


def load_rulebase(source: Iterable[str]) -> RuleBase:
    """Parse the lines of a rule base; errors carry line numbers."""
    version = "unversioned"
    saw_version = False
    rules: list[CompositionRule] = []
    ids: set[str] = set()

    for lineno, line in data_lines(source):
        fields = line.split("\t")
        tag = fields[0].strip()
        try:
            if tag == "VERSION":
                if saw_version:
                    raise IllFormedEntryError("second VERSION line")
                if len(fields) != 2 or not fields[1].strip():
                    raise IllFormedEntryError("VERSION line needs exactly one value")
                version = fields[1].strip()
                saw_version = True
                continue

            if tag != "R":
                raise IllFormedEntryError(f"unknown line tag {tag!r}")
            if len(fields) != 6:
                raise IllFormedEntryError(
                    "rule line needs R <id> <strength> <priority> <guard> <conclusion>"
                )
            rule_id = fields[1].strip()
            strength = fields[2].strip()
            if not rule_id:
                raise IllFormedEntryError("empty rule id")
            if rule_id in ids:
                raise IllFormedEntryError(f"rule id {rule_id!r} repeated")
            if strength not in ("strict", "defeasible"):
                raise IllFormedEntryError(f"bad strength {strength!r}")
            try:
                priority = int(fields[3].strip())
            except ValueError:
                raise IllFormedEntryError(f"bad priority {fields[3]!r}") from None
            guard = parse_guard(fields[4].strip())
            conclusion = parse_conclusion(fields[5].strip())
        except FormatError as exc:
            raise exc.at_line(lineno)
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


def default_rulebase() -> RuleBase:
    """The rule base shipped with the package (data/default.rules)."""
    return load_rulebase(read_bundled("default.rules"))


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


class LintCell(namedtuple("LintCell", "lref_role prep_kind prep_role")):
    """One cell of lint's grid: a verb role and a preposition shape."""

    __slots__ = ()

    def label(self) -> str:
        prep = self.prep_kind if self.prep_role is None else (
            f"{self.prep_kind}-{self.prep_role.label}"
        )
        return f"{self.lref_role.label} x {prep}"


class LintReport(namedtuple("LintReport", "gap_cells tie_cells")):
    """lint's verdict: the cells with a gap, and (cell, tied rule ids) pairs."""

    __slots__ = ()

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
    hits.sort(key=CompositionRule.sort_key, reverse=True)
    return hits


def resolve(
    features: ComplexFeatures, base: RuleBase, build: Callable, names: Sequence[str]
) -> tuple[CompositionRule, object, tuple[Defeat, ...]]:
    """The rule that fires for features, what it builds, and the defeats.

    The one resolution of a rule base, run by compose() and lint alike:
    one pass over applicable_rules().  A tie the pass reaches before a
    rule fires raises AmbiguousRuleBaseError; a forbid vetoes every
    identify below it; build(rule) gives what an identify or bind makes,
    or None if it is inconsistent, and the first that makes something
    fires (else InfelicitousError).  Each later rule but a forbid is
    defeated, "guard subsumed" if the fired guard is more specific.  The
    errors name the verb, preposition and ground in names.
    """
    candidates = applicable_rules(features, base)
    defeated: list[Defeat] = []
    veto: CompositionRule | None = None
    for index, rule in enumerate(candidates):
        key = rule.sort_key()
        ids = tuple(sorted(r.id for r in candidates[index:] if r.sort_key() == key))
        if len(ids) > 1:
            raise AmbiguousRuleBaseError(
                f"rules {', '.join(ids)} tie on strength and priority for "
                f"{' + '.join(names[:2])}",
                ids,
            )
        if rule.conclusion.kind == "forbid":
            veto = veto or rule  # the highest forbid vetoes
            continue
        if rule.conclusion.kind == "identify" and veto is not None:
            defeated.append(Defeat(rule.id, veto.id, "identification forbidden"))
            continue
        built = build(rule)
        if built is not None:
            break
        defeated.append(Defeat(rule.id, None, "conclusion inconsistent"))
    else:
        raise InfelicitousError(
            f"no rule yields a well-formed trace for {' + '.join(names[:3])}"
        )

    for later in candidates[index + 1 :]:
        if later.conclusion.kind != "forbid":
            subsumed = rule.guard.subsumes(later.guard)
            reason = "guard subsumed" if subsumed else "lower priority"
            defeated.append(Defeat(later.id, rule.id, reason))
    return rule, built, tuple(defeated)


def _well_formed(features: ComplexFeatures, rule: CompositionRule) -> bool | None:
    """lint's build for resolve(): whether a conclusion holds for loaded entries.

    An identify holds iff the zones are compatible (compose's own check).
    A bind always does, as a loaded verb's zones never jump: a non-medial
    verb has no during phase and the medial path is contact->inside->contact.
    """
    kind = rule.conclusion.kind
    return kind == "bind" or kind == "identify" and features.zone_compatible or None


def lint_rulebase(base: RuleBase) -> LintReport:
    """Check the 12-cell grid for feature vectors that compose() rejects.

    Runs resolve() with _well_formed on each completion (zone
    compatibility, attainment) of each cell.  A cell gaps when one raises
    InfelicitousError (a veto-only cell is a gap) and lists the rules of
    each AmbiguousRuleBaseError as a tie.  So a base that lint passes
    never makes compose() raise either for entries a lexicon loads,
    unless the ground is named like the reference location.
    """
    gaps: dict[LintCell, None] = {}
    ties: list[tuple[LintCell, str]] = []
    for cell in [LintCell(role, *shape) for role in LrefRole for shape in PREP_SHAPES]:
        cell_ties: set[str] = set()
        attained = (True, False) if cell.prep_role is LrefRole.FINAL else (None,)
        for compatible, attainment in itertools.product((True, False), attained):
            features = ComplexFeatures(*cell, compatible, attainment)
            try:
                resolve(features, base, functools.partial(_well_formed, features), ())
            except InfelicitousError:
                gaps[cell] = None
            except AmbiguousRuleBaseError as exc:
                cell_ties.add("/".join(exc.rule_ids))
        ties += [(cell, tie) for tie in sorted(cell_ties)]
    return LintReport(gap_cells=tuple(gaps), tie_cells=tuple(ties))
