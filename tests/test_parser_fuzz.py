"""Fuzzed data files: every parser either parses or raises a line-numbered FormatError.

Lines are assembled from the formats' own tokens, with labels in mixed
case, empty fields, stray tabs and non-ASCII text mixed in.  Hypothesis
draws a seed and a seeded random.Random builds the lines: drawing each
field through hypothesis would cost far more time per line than parsing.
"""

from __future__ import annotations

import io
import os
import random
import re
import unicodedata
from importlib import resources

import pytest
from hypothesis import example, given, settings, strategies as st

from motionsem import errors, lexicon as lexicon_module
from motionsem.compose import MotionComplex, check_names
from motionsem.corpus import parse_corpus
from motionsem.errors import DuplicateLemmaError, FormatError, data_lines
from motionsem.lexicon import (
    Lexicon, PrepEntry, VerbEntry, default_lexicon, dump_lexicon, load_lexicon,
)
from motionsem.rules import (
    CompositionRule, Conclusion, Guard, RuleBase, _load_rulebase, default_rulebase,
    dump_rulebase, load_rulebase,
)
from motionsem.trace import Provenance
from motionsem.zones import LrefRole, Phase, Zone
from test_corpus import REFUSED_NAMES

LABELS = [m.name.lower() for enum in (Zone, Phase, LrefRole) for m in enum]
NOISE = ["", " ", "\t", "é", "jusqu'à", "ß", "ınsıde", "ﬁnal", "\u00a0", "#", "=", "x"]
ODD_CHARS = "aZ09 \t\r=,()#-éßı\u00a0\u0130"
SEPARATORS = ["\t\t", " ", "\t \t", " \t"]


def variants(word: str) -> list[str]:
    """The word in lowercase, upper case, title case and two mixed cases."""
    mixed = "".join(c.upper() if i % 2 else c for i, c in enumerate(word))
    return [word, word.upper(), word.title(), mixed, mixed.swapcase()]


def cased(words: list[str]) -> list[str]:
    return [v for word in words for v in variants(word)]


def noise(rng: random.Random) -> str:
    if rng.random() < 0.5:
        return rng.choice(NOISE)
    return "".join(rng.choice(ODD_CHARS) for _ in range(rng.randrange(4)))


def line_of(rng: random.Random, slots: list[list[str]]) -> str:
    """A line with a field per slot, each slot a list of valid tokens.

    Most fields are valid, so that errors come from deep in a parser; in
    every other line one field is noise, and now and then a line is cut
    short, gains an extra field or is joined by something other than one
    tab.
    """
    shape = rng.randrange(16)
    if shape == 0:
        slots = slots[: rng.randint(1, len(slots))]
    noisy = rng.randrange(2 * len(slots))
    fields = [noise(rng) if i == noisy else rng.choice(s) for i, s in enumerate(slots)]
    if shape == 1:
        fields.append(noise(rng))
    return (rng.choice(SEPARATORS) if shape == 2 else "\t").join(fields)


def lines_of(seed: int, blocks: list[list[list[list[str]]]]) -> list[str]:
    """Up to 12 blocks (each a list of line slots); lines may go missing."""
    rng = random.Random(seed)
    lines = []
    for _ in range(rng.randint(1, 12)):
        block = rng.choice(blocks)
        lines += [line_of(rng, slots) for slots in block if rng.random() > 0.08]
        if rng.random() < 0.15:
            lines.append(rng.choice(NOISE + ["# comment"]))
    return lines


ZONES = cased([z.name.lower() for z in Zone])
ROLES = cased([r.name.lower() for r in LrefRole])
LEMMAS = ["sortir", "dans", "se baisser", "jusqu'à", "x"]

LEXICON_BLOCKS = [
    [[["LANG"], cased(["fr", "en"]) + ["de", "fr en"]]],
    [[["V"], LEMMAS, ["CoL"], ROLES, ZONES, ZONES, ["gloss=to go"]]],
    [[["V"], LEMMAS, ["CoL"], ROLES, ZONES, ZONES]],
    [[["V"], LEMMAS, ["CoPs", "ICoPs", "CoPtu", "col"], ["gloss=", "gloss=é"]]],
    [[["P"], LEMMAS, ["dir"], ROLES, ZONES, ["attained=true", "attained=false"]]],
    [[["P"], LEMMAS, ["dir", "Dir"], ROLES, ZONES]],
    [[["P"], LEMMAS, ["pos"], ZONES, ["attained=false", "attained=maybe"]]],
    [[["P"], LEMMAS, ["pos"], ZONES]],
]

GUARDS = ["prepkind=pos", "preprole=final,attained=yes", "zonecompat=maybe"]
GUARDS += ["lrefrole=Initial", "color=red", "prepkind=pos,prepkind=dir", "a,b"]
GUARDS += ["lrefrole=medial, prepkind=dir", "attained=no", "prepkind=dir"]
BINDS = [f"bind({phase})" for phase in cased(["pre", "during", "post"])]
BINDS += ["bind(", "bind()", "bind(nowhere)"]
OPTIONS = [f"zone={zone}" for zone in ZONES[:6]] + ["zone=outside", "colour=red"]
OPTIONS += ["Zone=inside", "zone:inside", "prov"]
OPTIONS += ["prov=prep", "prov=verb", "prov=interaction", "prov=Verb", ""]
RULE_HEAD = [["R"], ["D1", "D2", "S1", "D3", ""], ["strict", "defeasible", "Strict"]]
RULE_HEAD += [["1", "-3", "٣", "1.5", "x", "7"], GUARDS]

RULE_BLOCKS = [
    [[["VERSION"], ["1", "2024-custom", "v 2", ""]]],
    [RULE_HEAD + [["identify", "forbid(identify)", "identify now", "veto"]]],
    [RULE_HEAD + [[f"{bind} {option}" for bind in BINDS for option in OPTIONS]]],
]

CASE_HEAD = [[["CASE"], ["c1", "c2", "c 3"]]]
CASE_HEAD += [[["INPUT"], ["sortir", "se baisser"], ["dans"], ["jardin"], ["fr", "en"]]]
EXPECT = [["EXPECT"], ["jardin"], cased(["post"]), ZONES, ["interaction", "verb"]]

CORPUS_BLOCKS = [
    CASE_HEAD + [EXPECT, EXPECT, [["END"]]],
    CASE_HEAD + [[["EXPECT-ERROR"], ["UnknownLemma", "NotACoLVerb"]], [["END"]]],
]


def check_every_suffix(parse, lines, unlined=()):
    """Parse each suffix of the lines, so that errors behind the first show too.

    Each must parse or raise a FormatError that names a line in range;
    any other exception fails the test.
    """
    for start in range(len(lines) + 1):
        text = "\n".join(lines[start:])
        try:
            parse(io.StringIO(text))
        except FormatError as exc:
            if str(exc) not in unlined:
                assert exc.line is not None, (str(exc), text)
                assert str(exc).startswith(f"line {exc.line}: "), (str(exc), text)
                assert 1 <= exc.line <= len(lines) - start, (str(exc), text)


SEEDS = st.integers(0, 2**32 - 1)


@settings(max_examples=100, deadline=None)
@given(seed=SEEDS)
def test_fuzzed_lexicons(seed):
    check_every_suffix(
        load_lexicon,
        lines_of(seed, LEXICON_BLOCKS),
        unlined=["lexicon has no LANG header"],
    )


def clear_parse_memos():
    """Empty the process-wide parse memos, so the next load parses cold."""
    lexicon_module._SHAPES.clear()
    _load_rulebase.cache_clear()


def load_each_line_alone(lines: list[str]) -> Lexicon:
    """The reference of load_lexicon: each line loaded alone, the results merged.

    An entry line is loaded under the LANG line before it, in place, so that
    errors name the same line; each one-line load starts from empty parse
    memos, so it never meets a shape twice.  The merge keeps the entries in
    order and raises on a lemma seen before.
    """
    verbs, preps, header = {}, {}, []
    for lineno, line in data_lines(lines):
        alone = [""] * (lineno - 1) + [line]
        if header:
            alone[header[0] - 1] = header[1]
        clear_parse_memos()
        lexicon = load_lexicon(alone)
        if not header:
            header = [lineno, line]
        for entries, loaded, noun in ((verbs, lexicon.verbs, "verb"),
                                      (preps, lexicon.preps, "preposition")):
            for lemma, entry in loaded.items():
                if lemma in entries:
                    raise DuplicateLemmaError(f"{noun} {lemma!r} defined twice", lineno)
                entries[lemma] = entry
    if not header:
        return load_lexicon([])  # raises: no LANG header
    return Lexicon(language=lexicon.language, verbs=verbs, preps=preps)


def outcome(load, lines):
    """The repr of what load makes of the lines, or its error's type, text and line."""
    try:
        return repr(load(lines))
    except FormatError as exc:
        return type(exc), str(exc), exc.line


# Valid tails (the fields after the lemma) of both tags, for lexicons that
# repeat a few shapes.
TAILS = [
    ("V", ["CoL", "initial", "inside", "proximal"]),
    ("V", ["CoL", "final", "proximal", "inside"]),
    ("V", ["CoL", "medial", "contact", "contact"]),
    ("V", ["CoPs"]),
    ("V", ["CoPtu"]),
    ("P", ["pos", "inside"]),
    ("P", ["dir", "initial", "inside"]),
    ("P", ["dir", "final", "contact", "attained=false"]),
    ("P", ["dir", "final", "inside"]),
    ("P", ["dir", "final", "inside", "attained=true"]),
]


def shared_shapes(seed: int) -> list[str]:
    """A lexicon whose entries share a few tails, spelt in varied ways.

    Half the lines respell their tail: labels change case and a field
    gains stray spaces or a trailing carriage return.  A verb carries a
    gloss or not.  In some lexicons a line now and then takes the other
    tag, or repeats a lemma, or leaves it blank.
    """
    rng = random.Random(seed)
    pool = rng.sample(TAILS, 4)
    slip = rng.choice([0, 0, 0.04])
    lines = [f"LANG\t{rng.choice(['fr', 'en'])}"]
    for i in range(rng.randint(1, 30)):
        tag, fields = rng.choice(pool)
        if tag == "V" and rng.random() < 0.5:
            fields = fields + [f"gloss=to w{i}"]
        if rng.random() < 0.5:
            fields = [rng.choice(variants(f)) if f in LABELS else f for f in fields]
            k = rng.randrange(len(fields))
            # ASCII whitespace alone pads a field: a no-break space would
            # make it another, refused shape
            fields[k] = rng.choice(["", " ", "\x0b"]) + fields[k] + rng.choice(["", " ", "\r"])
        lemma = f"w{i}"
        if rng.random() < slip:
            tag = {"V": "P", "P": "V"}[tag]
        if rng.random() < slip:
            lemma = rng.choice([f"w{rng.randrange(i + 1)}", " "])
        lines.append("\t".join([tag, lemma, *fields]))
    return lines


@pytest.mark.parametrize(
    "lines",
    [
        ["LANG\tfr", "V\ta\tCoPs", "P\tb\tCoPs"],
        ["LANG\tfr", "P\ta\tpos\tinside", "V\tb\tpos\tinside"],
        ["LANG\tfr", "V\ta\tCoPs\tgloss=x", "V\tb\tCoPs", "V\tc\tCoPs\tgloss=y"],
        ["LANG\tfr", "V\ta\tCoPs", "V\ta\tCoPs"],
        ["LANG\tfr", "P\ta\tpos\tinside", "P\ta \tpos\tinside"],
        ["LANG\tfr", "P\ta\tpos\tinside", "P\t \tpos\tinside"],
        ["LANG\tfr", "V\ta\tCoPs", "V\t\tCoPs\tgloss=x"],
        ["P\ta\tpos\tinside", "LANG\tfr", "P\tb\tpos\tinside"],
        ["LANG\tfr", "P\ta\tpos\tinside", "LANG\ten", "P\tb\tpos\tinside"],
        ["LANG\tfr", "V\ta\tCoL\tinitial\tinside\tproximal", "V\tb\tCoL\tINITIAL\tinside"],
    ],
    ids=["verb-then-prep", "prep-then-verb", "gloss", "duplicate", "spaced-duplicate",
         "blank-lemma", "empty-lemma", "before-LANG", "second-LANG", "short"],
)
def test_a_shared_shape_loads_as_its_lines_load_alone(lines):
    assert outcome(load_lexicon, lines) == outcome(load_each_line_alone, lines)


@settings(max_examples=100, deadline=None)
@given(seed=SEEDS)
def test_a_lexicon_loads_as_its_lines_load_alone(seed):
    lines = shared_shapes(seed)
    assert outcome(load_lexicon, lines) == outcome(load_each_line_alone, lines)
    lines = lines_of(seed, LEXICON_BLOCKS)
    for start in range(len(lines) + 1):
        expected = outcome(load_each_line_alone, lines[start:])
        assert outcome(load_lexicon, lines[start:]) == expected


# Lines that a load refuses for their shape, guard or conclusion, with {} for
# the lemma or rule id; each loader's header line comes first.
REFUSED = [
    (load_lexicon, "LANG\tfr", "V\t{}\tCoPs\tinside"),
    (load_lexicon, "LANG\tfr", "V\t{}\tCoL\tinitial\tcontact\tdistal"),
    (load_lexicon, "LANG\tfr", "V\t{}\tCoL\tmedial\tproximal\tproximal"),
    (load_lexicon, "LANG\tfr", "P\t{}\tpos\tnowhere"),
    (load_lexicon, "LANG\tfr", "P\t{}\tdir\tinitial\tinside\tattained=true"),
    (load_rulebase, "VERSION\t1", "R\t{}\tdefeasible\t1\tprepkind=maybe\tidentify"),
    (load_rulebase, "VERSION\t1", "R\t{}\tdefeasible\t1\tprepkind=pos\tbind(later)"),
]


@pytest.mark.parametrize(
    "load, header, refused",
    REFUSED,
    ids=["verb-zone-fields", "unlexicalized", "medial", "unknown-zone", "attained"]
    + ["bad-guard", "bad-conclusion"],
)
def test_a_warm_memo_keeps_no_error(load, header, refused):
    lines = [header, "# a comment", "", refused.format("x")]
    clear_parse_memos()
    cold = outcome(load, lines)
    assert cold[2] == 4
    for name in ("w", "y"):  # the same shape under other names, on another line
        message = cold[1].replace("line 4", "line 2").replace("'x'", f"'{name}'")
        assert outcome(load, [header, refused.format(name)])[1:] == (message, 2)
    assert outcome(load, lines) == cold


@pytest.mark.parametrize(
    "load, text, tag",
    [
        (load_lexicon, "LANG\tfr\n{}# note\n", "# note"),
        (load_lexicon, "LANG\tfr\n{}V\tx\tCoPs\n", "V"),
        (load_rulebase, "VERSION\t1\n{}# note\n", "# note"),
        (load_rulebase, "VERSION\t1\n{}R\tx\tdefeasible\t1\tprepkind=pos\tidentify\n", "R"),
        (parse_corpus, "CASE a\n{}# note\nINPUT s d j fr\nEXPECT-ERROR X\nEND\n", "#"),
        (parse_corpus, "CASE a\n{}INPUT s d j fr\nEXPECT-ERROR X\nEND\n", "INPUT"),
    ],
    ids=["lexicon-comment", "lexicon-entry", "rules-comment", "rules-entry"]
    + ["corpus-comment", "corpus-entry"],
)
def test_a_line_that_starts_with_a_no_break_space_is_data_in_every_format(
    load, text, tag
):
    load(io.StringIO(text.format(" ")))  # a comment, or a tag after ASCII space
    with pytest.raises(FormatError) as info:
        load(io.StringIO(text.format("\u00a0")))
    assert str(info.value) == f"line 2: unknown line tag {chr(0xA0) + tag!r}"
    assert info.value.line == 2


# Each field a data file reads as a name: its loader, its lines with {} for
# the name, the line the name is on and the field's name in a message.
NAME_FIELDS = {
    "lemma": (load_lexicon, "LANG\tfr\nP\t{}\tpos\tinside", 2, "lemma"),
    "rule-id": (load_rulebase, "VERSION\t1\nR\t{}\tstrict\t1\tprepkind=pos\tidentify", 2,
                "rule id"),
    "version": (load_rulebase, "# a base\nVERSION\t{}", 2, "version"),
    "case-id": (parse_corpus, "CASE {}\nINPUT s d j fr\nEXPECT-ERROR X\nEND", 1, "case id"),
    "location": (parse_corpus, "CASE a\nINPUT s d j fr\nEXPECT {} post inside prep\nEND", 3,
                 "location"),
    "error-name": (parse_corpus, "CASE a\nINPUT s d j fr\nEXPECT-ERROR {}\nEND", 3,
                   "error name"),
}


@pytest.mark.parametrize("key", REFUSED_NAMES)
@pytest.mark.parametrize("field", NAME_FIELDS)
def test_a_name_field_refuses_a_name_that_query_refuses(field, key):
    load, text, line, label = NAME_FIELDS[field]
    name = REFUSED_NAMES[key]
    with pytest.raises(FormatError) as info:
        load([row.format(name) + "\n" for row in text.split("\n")])
    assert (info.value.line, str(info.value)) == (line, f"line {line}: bad {label} {name!r}")
    assert str(info.value).isprintable()  # the name is quoted with repr


@pytest.mark.parametrize(
    "load, text, message",
    [
        (load_rulebase, "VERSION\t\n", "VERSION line needs exactly one value"),
        (parse_corpus, "CASE \t\n", "CASE line needs an id"),
        (parse_corpus, "CASE a\nEXPECT-ERROR \n", "EXPECT-ERROR needs a name"),
    ],
    ids=["version", "case-id", "error-name"],
)
def test_a_missing_name_keeps_its_own_message(load, text, message):
    with pytest.raises(FormatError) as info:
        load(io.StringIO(text))
    assert str(info.value) == f"line {text.count(chr(10))}: {message}"


def is_printable_name(text):
    """Not blank, and printable once each Unicode space separator reads as a space."""
    spaced = "".join(" " if unicodedata.category(c) == "Zs" else c for c in text)
    return text.strip() != "" and spaced.isprintable()


NAME_TEXT = st.text("sé \u00a0\u2003\t\x0b\r\x1b\x85\u2028\x00", max_size=5)


@settings(max_examples=60, deadline=None)
@given(lemma=NAME_TEXT, rule_id=NAME_TEXT, version=NAME_TEXT)
@example(lemma="sor\x1btir", rule_id="D2\x1b[2Ki", version="\u00a0")
def test_a_name_a_data_file_gives_is_one_a_command_takes(lemma, rule_id, version):
    lines = ["LANG\tfr\n", f"V\t{lemma}\tCoPs\n", f"P\t{lemma}\tpos\tinside\n"]
    try:
        lexicon = load_lexicon(lines)
    except FormatError:
        pass
    else:
        (verb,), (prep,) = lexicon.verbs, lexicon.preps
        check_names(MotionComplex(verb, prep, "jardin", "mobile", "fr"))
    rules = [f"VERSION\t{version}\n", f"R\t{rule_id}\tstrict\t1\tprepkind=pos\tidentify\n"]
    try:
        base = load_rulebase(rules)
    except FormatError:
        return
    assert is_printable_name(base.version) and is_printable_name(base.rules[0].id)


def load_inventory(source):
    """The class inventory of the text of source, written over the bundled one."""
    path = os.path.join(errors.DATA_DIR, "col_classes.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(source.read())
    lexicon_module.default_class_inventory.cache_clear()
    return lexicon_module.default_class_inventory()


LEX = "LANG\tfr\n"
RULE = "VERSION\t1\nR\tD1\tdefeasible\t5\tprepkind=pos\t"
GUARD = "VERSION\t1\nR\tD1\tdefeasible\t5\t{}\tidentify"
CASE = "CASE a\nINPUT sortir dans jardin fr\nEXPECT jardin {}\nEND\n"
# Each keyword field of each format: its loader, the text with {} in place
# of the field, its ASCII spelling (for a cut, the empty text between two
# fields), whether it loads padded with ASCII whitespace and whether it is
# a label, which loads in any ASCII case.
KEYWORD_FIELDS = {
    "lexicon-lang": (load_lexicon, "LANG\t{}\nP\tdans\tpos\tinside", "fr", True, False),
    "lexicon-category": (
        load_lexicon, LEX + "V\ts\t{}\tinitial\tinside\tproximal", "CoL", True, False
    ),
    "lexicon-verb-role": (
        load_lexicon, LEX + "V\ts\tCoL\t{}\tinside\tproximal", "initial", True, True
    ),
    "lexicon-start-zone": (
        load_lexicon, LEX + "V\ts\tCoL\tinitial\t{}\tproximal", "inside", True, True
    ),
    "lexicon-end-zone": (
        load_lexicon, LEX + "V\te\tCoL\tfinal\tproximal\t{}", "inside", True, True
    ),
    "lexicon-kind": (load_lexicon, LEX + "P\tdans\t{}\tinside", "pos", True, False),
    "lexicon-pos-zone": (load_lexicon, LEX + "P\tdans\tpos\t{}", "inside", True, True),
    "lexicon-dir-role": (load_lexicon, LEX + "P\tà\tdir\t{}\tinside", "final", True, True),
    "lexicon-dir-zone": (load_lexicon, LEX + "P\tà\tdir\tfinal\t{}", "inside", True, True),
    "lexicon-attained": (
        load_lexicon, LEX + "P\tà\tdir\tfinal\tinside\t{}", "attained=false", True, False
    ),
    "rules-strength": (
        load_rulebase, "VERSION\t1\nR\tD1\t{}\t5\tprepkind=pos\tidentify", "defeasible",
        True, False,
    ),
    "rules-priority": (
        load_rulebase, "VERSION\t1\nR\tD1\tdefeasible\t{}\tprepkind=pos\tidentify", "3",
        True, False,
    ),
    "rules-atom": (load_rulebase, GUARD, "prepkind=pos", True, False),
    "rules-second-atom": (
        load_rulebase, GUARD.format("prepkind=dir,{}"), "lrefrole=initial", True, False
    ),
    "rules-guard-role": (
        load_rulebase, GUARD.format("prepkind=dir,lrefrole={}"), "initial", False, True
    ),
    "rules-identify": (load_rulebase, RULE + "{}", "identify", True, False),
    "rules-forbid": (load_rulebase, RULE + "{}", "forbid(identify)", True, False),
    "rules-bind": (load_rulebase, RULE + "{} zone=inside", "bind(post)", True, False),
    "rules-bind-phase": (load_rulebase, RULE + "bind({})", "post", False, True),
    "rules-bind-cut": (load_rulebase, RULE + "bind(post){}zone=inside", "", True, False),
    "rules-zone": (load_rulebase, RULE + "bind(post) {}", "zone=inside", True, False),
    "rules-zone-label": (load_rulebase, RULE + "bind(post) zone={}", "inside", False, True),
    "rules-prov-label": (load_rulebase, RULE + "bind(post) prov={}", "interaction", False, True),
    "inventory-start": (load_inventory, "{} distal", "inside", True, True),
    "inventory-end": (load_inventory, "inside {}", "distal", True, True),
    "inventory-cut": (load_inventory, "contact{}distal", "", True, False),
    "corpus-phase": (parse_corpus, CASE.format("{} inside interaction"), "post", True, True),
    "corpus-zone": (parse_corpus, CASE.format("post {} interaction"), "inside", True, True),
    "corpus-provenance": (parse_corpus, CASE.format("post inside {}"), "interaction", True, True),
    "corpus-cut": (parse_corpus, CASE.format("post{}inside interaction"), "", True, False),
}
# Non-ASCII spellings that str.upper() or int() used to read as ASCII ones.
LOOK_ALIKES = {"i": "ı", "s": "ſ", "fi": "ﬁ", "3": "٣"}


@pytest.mark.parametrize("load, text, word, padded, label", KEYWORD_FIELDS.values(),
                         ids=KEYWORD_FIELDS)
def test_a_keyword_is_spelt_and_padded_in_ascii_alone_in_every_format(
    request, load, text, word, padded, label
):
    if load is load_inventory:
        request.getfixturevalue("bundled_data")
    loaded = load(io.StringIO(text.format(word or " ")))
    ascii_forms = [pad + word + pad for pad in (" ", "\x0b")] if padded else []
    ascii_forms += [word.upper(), word.title()] if label else []
    for spelling in ascii_forms:
        assert load(io.StringIO(text.format(spelling))) == loaded, spelling

    spellings = [f for pad in ("\u00a0", "\u2003") for f in (pad + word, word + pad)]
    spellings += [word.replace(a, b) for a, b in LOOK_ALIKES.items() if a in word]
    for spelling in spellings:
        # refused as a field with an ASCII letter in place of each other
        # character is: a no-break space or a look-alike is data
        masked = "".join(c if c.isascii() else "Q" for c in spelling)
        with pytest.raises(FormatError) as oracle:
            load(io.StringIO(text.format(masked)))
        escapes = iter([repr(c)[1:-1] for c in spelling if not c.isascii()])
        expected = re.sub("Q", lambda _: next(escapes), str(oracle.value))
        with pytest.raises(FormatError) as info:
            load(io.StringIO(text.format(spelling)))
        assert (str(info.value), info.value.line) == (expected, oracle.value.line)


def test_a_rule_id_version_and_gloss_keep_a_no_break_space_at_their_edge():
    base = load_rulebase(io.StringIO(
        "VERSION\t\u00a01\u00a0\nR\t\u00a0D1\u00a0\tdefeasible\t5\tprepkind=pos\tidentify\n"
    ))
    assert (base.version, base.rules[0].id) == ("\u00a01\u00a0", "\u00a0D1\u00a0")
    text = "LANG\tfr\nV\tcourir\tICoPs\t gloss=\u00a0to run\u00a0 \n"
    assert load_lexicon(io.StringIO(text)).verbs["courir"].gloss == "\u00a0to run\u00a0"


@settings(max_examples=100, deadline=None)
@given(seed=SEEDS)
def test_fuzzed_rule_bases(seed):
    check_every_suffix(load_rulebase, lines_of(seed, RULE_BLOCKS))


SHIPPED_RULES = dump_rulebase(default_rulebase()).splitlines()[1:]


def shipped_rules(seed: int) -> list[str]:
    """Some of the shipped rules under new ids, about half of them respelt.

    A respelt rule pads a field with ASCII whitespace or a carriage return,
    or gives a bind conclusion a zone or provenance option in any case.
    """
    rng = random.Random(seed)
    lines = [f"VERSION\t{rng.choice(['1', 'v 2', '2024-custom'])}"]
    for i, line in enumerate(rng.sample(SHIPPED_RULES, rng.randint(1, len(SHIPPED_RULES)))):
        fields = line.split("\t")
        fields[1] = f"r{i}"
        if rng.random() < 0.5:
            k = rng.randrange(2, 6)
            fields[k] = rng.choice(["", " ", "\x0b"]) + fields[k] + rng.choice(["", " ", "\r"])
        if fields[5].startswith("bind") and rng.random() < 0.5:
            fields[5] += " " + rng.choice(OPTIONS)
        lines.append("\t".join(fields))
    return lines


def broken(seed: int, lines: list[str]) -> list[str]:
    """The lines, each ended by a newline, with a \\r or \\n put inside a field of some.

    Fed as a list, a line keeps a break inside it; a file's lines never do.
    """
    rng = random.Random(seed)
    for _ in range(rng.randrange(3)):
        if lines:
            k = rng.randrange(len(lines))
            at = rng.randrange(len(lines[k]) + 1)
            lines[k] = lines[k][:at] + rng.choice("\r\n") + lines[k][at:]
    return [line + "\n" for line in lines]


LOADED_LINES = SEEDS.flatmap(lambda seed: st.sampled_from([
    broken(seed, shared_shapes(seed)),
    broken(seed, lines_of(seed, LEXICON_BLOCKS)),
    broken(seed, shipped_rules(seed)),
    broken(seed, lines_of(seed, RULE_BLOCKS)),
]))


@settings(max_examples=60, deadline=None)
@given(lines=LOADED_LINES)
@example(["LANG\tfr\n", "V\tx\tCoPs\tgloss=a\rb\n"])
def test_what_a_loader_gives_its_constructor_gives_back_unchanged(lines):
    # and its dump, read back as read_data_file reads a file, loads equal
    for load, dump in ((load_lexicon, dump_lexicon), (load_rulebase, dump_rulebase)):
        try:
            value = load(lines)
        except FormatError:
            continue
        if load is load_lexicon:
            assert Lexicon(*value) == value
            for entry in value.verbs.values():
                assert VerbEntry(*entry) == entry
            for entry in value.preps.values():
                assert PrepEntry(*entry) == entry
        else:
            assert RuleBase(value.version, value.rules) == value
            for rule in value.rules:
                assert CompositionRule(*rule) == rule
                assert Guard(*rule.guard) == rule.guard
                assert Conclusion(*rule.conclusion) == rule.conclusion
        assert load(io.StringIO(dump(value), newline=None)) == value


@settings(max_examples=100, deadline=None)
@given(seed=SEEDS)
def test_fuzzed_corpora(seed):
    check_every_suffix(parse_corpus, lines_of(seed, CORPUS_BLOCKS))


@pytest.mark.parametrize("variant", range(5))
def test_mixed_case_labels_parse_like_lowercase(variant):
    seen = set()
    for language in ("fr", "en"):
        lexicon = default_lexicon(language)
        text = dump_lexicon(lexicon)
        seen.update(f for line in text.splitlines() for f in line.split("\t")[3:])
        lines = [
            "\t".join(
                variants(field)[variant] if i >= 3 and field in LABELS else field
                for i, field in enumerate(line.split("\t"))
            )
            for line in text.splitlines()
        ]
        assert load_lexicon(io.StringIO("\n".join(lines))) == lexicon
    assert {m.name.lower() for m in (*Zone, *LrefRole)} <= seen  # every label recased

    # the shipped rule base, plus a bind for every zone and provenance
    text = resources.files("motionsem.data").joinpath("default.rules").read_text("utf-8")
    text += "".join(
        f"R\tX{z.label}{p.label}\tdefeasible\t0\tprepkind=dir\t"
        f"bind(post) zone={z.label} prov={p.label}\n"
        for z in Zone
        for p in Provenance
    )
    rule_labels = set(LABELS) | {p.label for p in Provenance}
    seen.clear()

    def recase(match: re.Match) -> str:
        if match[0] not in rule_labels:
            return match[0]  # keywords such as pos, yes and identify stay exact
        seen.add(match[0])
        return variants(match[0])[variant]

    recased = re.sub(r"(?<=[=(])[a-z]+", recase, text)
    assert load_rulebase(io.StringIO(recased)) == load_rulebase(io.StringIO(text))
    assert seen == rule_labels  # every role, phase, zone and provenance label
    bad_values = [("prepkind=POS", "'POS' for prepkind"), ("lrefrole=Mid", "'Mid'")]
    for atom, quoted in bad_values:
        with pytest.raises(FormatError, match=f"line 1: bad value {quoted}"):
            load_rulebase(io.StringIO(f"R\tx\tdefeasible\t1\t{atom}\tidentify\n"))
