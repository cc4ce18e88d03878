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

Fields, atoms and conclusion words are cut and stripped at ASCII
whitespace only, an id and the VERSION value are names (errors.is_name),
and a priority is ASCII text.  Role, phase, zone and provenance
names are accepted in any ASCII case; the other words are exact.  An
unknown phase, zone or provenance name raises UnknownNameError from its
class's from_label, as in every data file; an unknown guard value is a
bad value of its key.

Guard, Conclusion, CompositionRule and RuleBase refuse, in load_rulebase's
words, what no rule line gives: a guard with no atom, an unknown key, a bad
value or a key twice; a conclusion of another kind, a bind with no phase, an
identify or forbid with a field; a rule id that is no name, a strength not
strict or defeasible, a priority not an int (a bool is none), a guard or a
conclusion of another type; a rule base of other values, or with an id
twice.  A bind holds the member of each value.

Strict rules outrank every defeasible rule regardless of priority;
among rules of equal strength, higher priority wins and exact ties are
an error, never silently ordered.
"""

import functools
import itertools
from collections.abc import Iterable

from .errors import (
    WHITESPACE, FormatError, IllFormedEntryError, Record, _check_name, _member, data_lines,
    read_bundled, split_fields,
)
from .lexicon import PREP_SHAPES
from .trace import Provenance
from .zones import LrefRole, Phase, Zone

_GUARD_VALUES = {
    "lrefrole": tuple(role.label for role in LrefRole),
    "prepkind": ("pos", "dir"),
    "preprole": tuple(role.label for role in LrefRole),
    "zonecompat": ("yes", "no"),
    "attained": ("yes", "no"),
}
GUARD_KEYS = tuple(_GUARD_VALUES)


class ComplexFeatures(
    Record, fields="lref_role prep_kind prep_role zone_compatible attained"
):
    """The feature vector a guard is evaluated against.

    prep_role is None for positional prepositions; attained is None unless
    the preposition is directional-final.  zone_compatible says whether
    identifying ground and reference location would yield a consistent,
    continuous set of zone constraints.
    """

    __slots__ = ()

    @property
    def atoms(self) -> frozenset[tuple[str, str]]:
        """The guard atoms these features satisfy; absent features give none.

        A role is read as the member it equals (1.0 is LrefRole.MEDIAL); one
        that equals no member raises ValueError.
        """
        lref_role, prep_kind, prep_role, zone_compatible, attained = self
        atoms = {("lrefrole", LrefRole(lref_role).label), ("prepkind", prep_kind)}
        atoms.add(("zonecompat", "yes" if zone_compatible else "no"))
        if prep_role is not None:
            atoms.add(("preprole", LrefRole(prep_role).label))
        if attained is not None:
            atoms.add(("attained", "yes" if attained else "no"))
        return frozenset(atoms)


class Guard(Record, fields="atoms"):
    """Conjunction of (key, value) feature atoms; an atom on an absent feature never matches."""

    __slots__ = ()

    def __new__(cls, atoms):
        folded: dict[str, str] = {}
        for atom in atoms:
            if type(atom) is not tuple or len(atom) != 2 or not isinstance(atom[1], str):
                raise IllFormedEntryError(f"bad guard atom {atom!r}")
            key, value = atom
            if key not in GUARD_KEYS:
                raise IllFormedEntryError(f"unknown guard key {key!r}")
            # role names, like every label, in any ASCII case (as from_label reads)
            label = value.lower() if key in ("lrefrole", "preprole") and value.isascii() else value
            if label not in _GUARD_VALUES[key]:
                raise IllFormedEntryError(f"bad value {value!r} for {key}")
            if key in folded:
                raise IllFormedEntryError(f"guard repeats key {key!r}")
            folded[key] = label
        if not folded:
            raise IllFormedEntryError("guard has no atom")
        return tuple.__new__(cls, (tuple(folded.items()),))

    def matches(self, atoms: frozenset[tuple[str, str]]) -> bool:
        """Whether atoms, a ComplexFeatures' atoms, hold every atom of this guard."""
        return atoms.issuperset(self.atoms)

    def subsumes(self, other: "Guard") -> bool:
        """True when this guard is strictly more specific than other."""
        mine, theirs = set(self.atoms), set(other.atoms)
        return theirs < mine

    def render(self) -> str:
        return ",".join(f"{k}={v}" for k, v in self.atoms)


class Conclusion(
    Record, fields="kind phase zone provenance", defaults=(None, None, None)
):
    """What a fired rule does with the ground location.

    kind "identify": the ground is the verb's reference location.
    kind "bind": the ground is a separate location assigned one zone at
    one phase (zone/prov default to the preposition's commitment).
    kind "forbid": vetoes identify conclusions of lower-ranked rules.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        kind, _, zone, provenance = self = super().__new__(cls, *args, **kwargs)
        if kind == "bind":
            zone = None if zone is None else _member(self, 2, Zone)
            provenance = None if provenance is None else _member(self, 3, Provenance)
            return tuple.__new__(cls, (kind, _member(self, 1, Phase), zone, provenance))
        if kind not in ("identify", "forbid"):
            raise IllFormedEntryError(f"unknown conclusion {kind!r}")
        if self[1:] != (None, None, None):
            raise IllFormedEntryError(f"{self.render()} takes no options")
        return self

    def render(self) -> str:
        if self.kind != "bind":
            return "identify" if self.kind == "identify" else "forbid(identify)"
        parts = [f"bind({self.phase.label})"]
        if self.zone is not None:
            parts.append(f"zone={self.zone.label}")
        if self.provenance is not None:
            parts.append(f"prov={self.provenance.label}")
        return " ".join(parts)


class CompositionRule(Record, fields="id strength priority guard conclusion"):
    """A guard and a conclusion, ranked by strength ("strict" or "defeasible").

    The id is a name that dump_rulebase writes and load_rulebase reads back
    as it is, as the VERSION value of a RuleBase is.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        rule_id, strength, priority, _, _ = self = super().__new__(cls, *args, **kwargs)
        _check_name(rule_id, "rule id")
        if strength not in ("strict", "defeasible"):
            raise IllFormedEntryError(f"bad strength {strength!r}")
        if type(priority) is not int:  # 43.0 and True equal an int but print as none
            raise IllFormedEntryError(f"bad priority {str(priority)!r}")
        for field, of in ((self.guard, Guard), (self.conclusion, Conclusion)):
            if not isinstance(field, of):
                raise IllFormedEntryError(f"bad {of.__name__.lower()} {field!r}")
        return self

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


class Defeat(Record, fields="rule_id defeated_by reason"):
    """A rule that was applicable but did not fire (defeated_by may be None)."""

    __slots__ = ()


class RuleBase(Record, fields="version rules", defaults=((),)):
    """A versioned set of composition rules.

    Its instance dict holds, outside the fields that ==, hash and repr read,
    two lazily filled memos: resolve()'s verdict per feature vector (at most
    30, filled by _verdict alone for compose() and lint) and compose()'s entry
    per shape (at most 420), a failed verdict's too.  A constructed base starts
    them empty; load_rulebase gives an equal text the same base, and a copy or
    pickle carries them (a shallow copy shares them).  Concurrent fills at
    worst compute a value twice.  No attribute can be assigned or deleted.
    """

    def __new__(cls, *args, **kwargs):
        version, rules = self = super().__new__(cls, *args, **kwargs)
        vars(self).update(_derivations={}, _verdicts={})
        _check_name(version, "version")
        if type(rules) is not tuple or not all(isinstance(r, CompositionRule) for r in rules):
            raise IllFormedEntryError(f"bad rules {rules!r}")
        ids: set[str] = set()
        for rule in rules:
            _add_id(rule.id, ids)
        return self

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def _add_id(rule_id: str, ids: set[str]) -> None:
    """Add rule_id to ids unless it is there (for RuleBase and load_rulebase)."""
    if rule_id in ids:
        raise IllFormedEntryError(f"rule id {rule_id!r} repeated")
    ids.add(rule_id)


def parse_guard(text: str) -> Guard:
    """The Guard of a guard field; an atom with no "=" stays text, a bad atom."""
    chunks = [chunk.strip(WHITESPACE) for chunk in text.split(",")]
    return Guard([tuple(chunk.split("=", 1)) if "=" in chunk else chunk for chunk in chunks])


def parse_conclusion(text: str) -> Conclusion:
    parts = split_fields(text)
    if not parts:
        raise IllFormedEntryError("empty conclusion")
    head, options = parts[0], parts[1:]

    if head in ("identify", "forbid(identify)"):  # the constructor refuses an option as a field
        return Conclusion("identify" if head == "identify" else "forbid", *options[:1])

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
        return Conclusion("bind", phase, zone, prov)

    raise IllFormedEntryError(f"unknown conclusion {head!r}")


def load_rulebase(source: Iterable[str]) -> RuleBase:
    """Parse the lines of a rule base; errors carry line numbers.

    An equal text gives the same base, with the derivations it has
    memoized: the last 8 texts are kept, and an error never is.
    """
    return _load_rulebase(tuple(source))


@functools.lru_cache(maxsize=8)
def _load_rulebase(source: tuple[str, ...]) -> RuleBase:
    version = None
    rules: list[CompositionRule] = []
    ids: set[str] = set()

    for lineno, line in data_lines(source):
        fields = line.split("\t")
        tag = fields[0].strip(WHITESPACE)
        try:
            if tag == "VERSION":
                if version is not None:
                    raise IllFormedEntryError("second VERSION line")
                version = fields[1].strip(WHITESPACE) if len(fields) == 2 else ""
                if not version:
                    raise IllFormedEntryError("VERSION line needs exactly one value")
                _check_name(version, "version")  # RuleBase, built after the loop, tags no line
                continue

            if tag != "R":
                raise IllFormedEntryError(f"unknown line tag {tag!r}")
            if len(fields) != 6:
                raise IllFormedEntryError(
                    "rule line needs R <id> <strength> <priority> <guard> <conclusion>"
                )
            rule_id = fields[1].strip(WHITESPACE)
            strength = fields[2].strip(WHITESPACE)
            _add_id(rule_id, ids)  # RuleBase, built after the loop, tags no line
            try:  # of bytes, int() strips WHITESPACE alone; of a str, it would read '٣'
                priority = int(fields[3].encode("ascii"))
            except ValueError:  # UnicodeEncodeError is one
                raise IllFormedEntryError(f"bad priority {fields[3]!r}") from None
            guard = parse_guard(fields[4])
            conclusion = parse_conclusion(fields[5])
            rules.append(CompositionRule(rule_id, strength, priority, guard, conclusion))
        except FormatError as exc:
            raise exc.at_line(lineno)

    return RuleBase("unversioned" if version is None else version, tuple(rules))


def dump_rulebase(base: RuleBase) -> str:
    lines = [f"VERSION\t{base.version}"]
    lines += [rule.render() for rule in base.rules]
    return "\n".join(lines) + "\n"


def default_rulebase() -> RuleBase:
    """The rule base shipped with the package (data/default.rules)."""
    return load_rulebase(read_bundled("default.rules"))


# ---------------------------------------------------------------------------
# Linting


class LintCell(Record, fields="lref_role prep_kind prep_role"):
    """One cell of lint's grid: a verb role and a preposition shape."""

    __slots__ = ()

    def label(self) -> str:
        prep = self.prep_kind if self.prep_role is None else (
            f"{self.prep_kind}-{self.prep_role.label}"
        )
        return f"{self.lref_role.label} x {prep}"


class LintReport(Record, fields="gap_cells tie_cells"):
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
    atoms = features.atoms
    hits = [r for r in base.rules if r.guard.matches(atoms)]
    hits.sort(key=CompositionRule.sort_key, reverse=True)
    return hits


def resolve(
    features: ComplexFeatures, base: RuleBase
) -> tuple[CompositionRule | None, tuple[Defeat, ...], tuple[str, ...]]:
    """The verdict of a rule base on features: (fired, defeats, tied).

    The one resolution, which compose() and lint read as the base stores it
    (_verdict); it keeps no memo of its own.  One pass over the ranks of
    applicable_rules(): a rank of two or more rules reached before a rule
    fires is a tie, fired is None and tied their sorted ids.  A forbid
    vetoes every identify below it.  The first conclusion that holds fires
    (a bind always, an identify when the zones are compatible), else fired
    is None.  Each later rule but a forbid is defeated, "guard subsumed" if
    the fired guard is more specific.  defeats holds the fates in rank
    order, those a failed verdict reached too.
    """
    fired = veto = None
    defeats: list[Defeat] = []
    ranks = itertools.groupby(applicable_rules(features, base), CompositionRule.sort_key)
    for _, group in ranks:
        rank = tuple(group)
        rule = rank[0]
        kind = rule.conclusion.kind
        if fired is not None:  # every later rule but a forbid is defeated
            defeats += [
                Defeat(r.id, fired.id, "guard subsumed"
                       if fired.guard.subsumes(r.guard) else "lower priority")
                for r in rank if r.conclusion.kind != "forbid"
            ]
        elif len(rank) > 1:
            return None, tuple(defeats), tuple(sorted(r.id for r in rank))
        elif kind == "forbid":
            veto = veto or rule  # the highest forbid vetoes
        elif kind == "identify" and veto is not None:
            defeats.append(Defeat(rule.id, veto.id, "identification forbidden"))
        elif kind == "bind" or features.zone_compatible:  # else an identify
            fired = rule
        else:
            defeats.append(Defeat(rule.id, None, "conclusion inconsistent"))
    return fired, tuple(defeats), ()


def _verdict(features: ComplexFeatures, base: RuleBase) -> tuple:
    """resolve()'s verdict on features, stored in base when first read (see RuleBase)."""
    verdict = base._verdicts.get(features)
    if verdict is None:
        verdict = base._verdicts[features] = resolve(features, base)
    return verdict


def feature_vectors() -> tuple[ComplexFeatures, ...]:
    """The 30 feature vectors compute_features can produce, in lint's order: each
    verb role x each (kind, role) cell of lexicon.PREP_SHAPES x zone compatibility
    (True, then False) x each attainment that the cell's shapes hold."""
    cells: dict[tuple, dict] = {}
    for kind, _, role, attained in PREP_SHAPES:
        cells.setdefault((kind, role), {})[attained] = None
    return tuple([
        ComplexFeatures(lref_role, *cell, compatible, attained)
        for lref_role in LrefRole for cell, attainments in cells.items()
        for compatible in (True, False) for attained in attainments
    ])


def lint_rulebase(base: RuleBase) -> LintReport:
    """Check the 12-cell grid for feature vectors that compose() rejects.

    Reads the verdict the base stores for compose() (_verdict) on each of
    feature_vectors(), grouped by cell: a cell gaps where one fires no rule
    and ties none (a veto-only cell is a gap), and lists each tie.  So a
    base lint passes never makes compose() raise either, whatever the ground is named.
    """
    gaps: dict[LintCell, None] = {}
    ties: list[tuple[LintCell, str]] = []
    for cell, vectors in itertools.groupby(feature_vectors(), lambda f: LintCell(*f[:3])):
        cell_ties: set[str] = set()
        for features in vectors:
            fired, _, tied = _verdict(features, base)
            if tied:
                cell_ties.add("/".join(tied))
            elif fired is None:
                gaps[cell] = None
        ties += [(cell, tie) for tie in sorted(cell_ties)]
    return LintReport(tuple(gaps), tuple(ties))
