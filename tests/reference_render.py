"""Reference renderers: explain(), render_records() and tuples() as they
were before explain() printed from cached layouts, kept as the oracle that
tests/test_render.py compares the library against.  They label rows from
tables of their own, so that they share no table with the code they
check.  Test code only."""

from __future__ import annotations

from operator import itemgetter

from motionsem.compose import Derivation
from motionsem.trace import Provenance, SpatiotemporalTrace, ZoneAssignment

_LOCATION_PHASE = itemgetter(0, 1)  # phases are ints, so they sort as such
# labels indexed by phase and zone value, and a provenance's label and display name
PHASE_LABELS = ("pre", "during", "post")
ZONE_LABELS = ("inside", "contact", "proximal", "distal")
PROVENANCE_LABELS = {
    Provenance.VERB: "verb", Provenance.PREP: "prep", Provenance.INTERACTION: "interaction"
}
PROVENANCE_DISPLAY = {
    Provenance.VERB: "Verb",
    Provenance.PREP: "Preposition",
    Provenance.INTERACTION: "Interaction",
}


def sorted_assignments(
    assignments: tuple[ZoneAssignment, ...],
) -> list[ZoneAssignment]:
    return sorted(assignments, key=_LOCATION_PHASE)


def labelled(assignment: ZoneAssignment) -> tuple[str, str, str, str]:
    location, phase, zone, prov = assignment
    return location, PHASE_LABELS[phase], ZONE_LABELS[zone], PROVENANCE_LABELS[prov]


def tuples(trace: SpatiotemporalTrace) -> tuple[tuple[str, str, str, str], ...]:
    """Assignment tuples in canonical (location, phase) order."""
    return tuple(labelled(a) for a in sorted_assignments(trace.assignments))


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
        lines.append(" ".join(labelled(a)))
    return "\n".join(lines)


def explain(derivation: Derivation) -> str:
    """Human-readable account of a derivation, deterministic for fixed input.

    Ends with the machine-diffable trace records so a reader has both
    views in one place.
    """
    c = derivation.complex
    trace = derivation.trace
    fired = derivation.fired
    lines = [
        f"motion complex: {c.verb_lemma} + {c.prep_lemma} + {c.ground}  [{c.language}]",
        f"mobile: {c.mobile}",
        "",
        f"fired rule: {fired.id} ({fired.strength}, priority {fired.priority})",
    ]
    if derivation.defeated:
        lines.append("defeated:")
        for d in derivation.defeated:
            by = f" by {d.defeated_by}" if d.defeated_by else ""
            lines.append(f"  {d.rule_id} ({d.reason}{by})")
    else:
        lines.append("defeated: none")

    lines.append("")
    lines.append("bindings:")
    if trace.lref == trace.ground:
        lines.append(
            f"  ground: {trace.ground} (identified with the reference location)"
        )
    else:
        lines.append(f"  reference location: {trace.lref} (implicit)")
        ground_phases = sorted(
            {a.phase for a in trace.assignments if a.location == trace.ground},
            key=int,
        )
        at = ", ".join(PHASE_LABELS[p] for p in ground_phases) or "no phase"
        lines.append(f"  ground: {trace.ground} (bound at {at})")

    lines.append("")
    lines.append("zones:")
    rows = [("location", "phase", "zone", "source")]
    for location, phase, zone, prov in sorted_assignments(trace.assignments):
        rows.append(
            (location, PHASE_LABELS[phase], ZONE_LABELS[zone], PROVENANCE_DISPLAY[prov])
        )
    widths = [max(len(row[i]) for row in rows) for i in range(4)]
    for row in rows:
        lines.append(
            "  " + "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
        )

    lines.append("")
    lines.append("records:")
    lines += [f"  {record}" for record in render_records(trace).splitlines()]
    return "\n".join(lines)
