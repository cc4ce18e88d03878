"""Every entry shape, the rule bases the exhaustive tests use, and the
test-side helpers they share (hand_built, the entries' projections).

A CoL verb names one of 48 role x start zone x end zone triples
(VERB_TRIPLES), and VerbEntry takes the 21 of them its class inventory
lexicalizes (VERB_SHAPES).  With the 20 preposition shapes that makes 420
shapes, each of which a lexicon file loads, and the bound of a rule
base's derivation memo.  The shape lexicons are built once and shared by
every test that sweeps them.
"""

from __future__ import annotations

import functools
import io

from motionsem.compose import prep_constraint, verb_constraints
from motionsem.lexicon import Lexicon, PrepEntry, VerbEntry, default_class_inventory
from motionsem.rules import default_rulebase, load_rulebase
from motionsem.zones import LrefRole, Phase, Zone

MEMO_BASES = {
    "default": default_rulebase(),
    "identify-only": load_rulebase(
        io.StringIO("R\tonly\tdefeasible\t1\tprepkind=dir\tidentify\n")
    ),
    "tie-and-bind": load_rulebase(
        io.StringIO(
            "R\tA\tdefeasible\t5\tprepkind=pos\tbind(post)\n"
            "R\tB\tdefeasible\t5\tprepkind=pos\tbind(pre)\n"
            "R\tC\tdefeasible\t9\tprepkind=dir\tbind(pre) zone=distal\n"
            "R\tD\tdefeasible\t3\tprepkind=dir\tidentify\n"
        )
    ),
}

VERB_TRIPLES = [(role, start, end) for role in LrefRole for start in Zone for end in Zone]


def lexicalized(role: LrefRole, start: Zone, end: Zone) -> bool:
    """Whether a CoL verb may take this triple: a medial verb the fixed path
    encoding contact->contact, an initial or final one a pair of the class
    inventory."""
    if role is LrefRole.MEDIAL:
        return (start, end) == (Zone.CONTACT, Zone.CONTACT)
    return (start, end) in default_class_inventory()


VERB_SHAPES = [triple for triple in VERB_TRIPLES if lexicalized(*triple)]
PREP_SHAPES = [PrepEntry("p", "pos", zone) for zone in Zone] + [
    PrepEntry("p", "dir", zone, role=role, attained=attained)
    for zone in Zone
    for role in LrefRole
    for attained in ((True, False) if role is LrefRole.FINAL else (None,))
]


@functools.cache
def shape_lexicons(lemma: str) -> tuple[Lexicon, ...]:
    """One French lexicon per shape: verb lemma and preposition p."""
    return tuple(
        Lexicon("fr", {lemma: VerbEntry(lemma, "CoL", *verb)}, {"p": prep})
        for verb in VERB_SHAPES
        for prep in PREP_SHAPES
    )


def hand_built(record, **fields):
    """record with fields replaced around its class's checks, as no constructor takes
    them (a rule id must be a name, a priority an int); explain prints whatever it
    is given."""
    return tuple.__new__(type(record), map(fields.get, record._fields, record))


def verb_projection(verb: VerbEntry, location: str) -> set[tuple[str, Phase, Zone]]:
    """What the verb entry alone says, anchored at the given location."""
    return {(location, p, z) for p, z in verb_constraints(verb).items()}


def prep_projection(prep: PrepEntry, location: str) -> set[tuple[str, Phase, Zone]]:
    """What the preposition entry alone says about the given ground.

    Positional entries project nothing here: their static relation has
    no motion phase of its own, which is exactly why a phased assignment
    sourced from one counts as interaction information.
    """
    if not prep.is_directional:
        return set()
    phase, zone = prep_constraint(prep)
    return {(location, phase, zone)}
