"""The output surface: canonical outcome text in sections, and its digests.

Each section is the text of many outcomes, one a line group: the repr,
explain() and render_records() of a derivation, or the error's class and
message; for a command, its argv, exit code, stdout and stderr.  The
sections are:

    shapes-cold   the 420 shapes of tests/shapes.py x MEMO_BASES x grounds a, g, zz,
                  each base copied with an empty derivation memo
    shapes-warm   the same shapes x MEMO_BASES, ground g, on the filled bases
    seed-pairs    every verb x preposition of both seed lexicons x a, g, zz
    cli           a fixed list of in-process cli.main calls

tests/data/surface.sha256 holds one sha256 per section, and
tests/test_surface.py checks that none has moved.  A change that moves
output on purpose regenerates the file and names each moved section:

    python3 tests/surface.py                  # print the sections that moved
    python3 tests/surface.py --write          # regenerate tests/data/surface.sha256
    python3 tests/surface.py --text SECTION   # print a section's text, to diff
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "data" / "surface.sha256"
if __name__ == "__main__":  # pytest puts both on the path itself
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from motionsem import cli  # noqa: E402
from motionsem.compose import MotionComplex, compose, explain  # noqa: E402
from motionsem.errors import DATA_DIR, MotionSemError  # noqa: E402
from motionsem.lexicon import default_lexicon  # noqa: E402
from motionsem.rules import RuleBase, default_rulebase  # noqa: E402
from motionsem.trace import render_records  # noqa: E402
from shapes import MEMO_BASES, shape_lexicons  # noqa: E402

GROUNDS = ("a", "g", "zz")  # before and after the name lref#v

# (file name, text) of the rule files the commands below name
RULE_FILES = {
    "no-positional.rules": "R\tD4\tdefeasible\t1\tprepkind=dir\tbind(post)\n",
    "tie.rules": (
        "R\tA\tdefeasible\t1\tprepkind=pos\tidentify\n"
        "R\tB\tdefeasible\t1\tprepkind=pos\tbind(post)\n"
    ),
    "bad.rules": "R\tA\tdefeasible\tfive\tprepkind=pos\tidentify\n",
}
# Each command, with the rule files above named by their paths.
COMMANDS = (
    ("query", "sortir", "dans", "jardin"),
    ("query", "sortir", "dans", "jardin", "--format", "records"),
    ("query", "entrer", "vers", "maison", "--mobile", "Max"),
    ("query", "traverser", "par", "pont", "--format", "records"),
    ("query", "go-out", "from", "garden", "--lang", "en"),
    ("query", "leave", "out-of", "garden", "--lang", "en"),
    ("query", "enter", "towards", "house", "--lang", "en", "--format", "records"),
    ("query", "sortir", "dans", ""),
    ("query", "sortir", "dans", "lref#sortir"),
    ("query", "sortir", "dans", "jardin", "--rules", "bad.rules"),
    ("query", "sortir", "nulle-part", "jardin"),
    ("query", "leave", "of", "garden", "--lang", "en"),
    ("query", "courir", "dans", "jardin"),
    ("query", "entrer", "dans", "jardin", "--rules", "no-positional.rules"),
    ("query", "sortir", "dans", "jardin", "--rules", "tie.rules"),
    ("lint",),
    ("lint", "--rules", "tie.rules"),
    ("corpus", os.path.join(DATA_DIR, "golden.corpus")),
)


def outcome(complex_: MotionComplex, lexicon, base: RuleBase) -> str:
    """The canonical text of one compose() call: its derivation or its error."""
    try:
        derivation = compose(complex_, lexicon, base)
    except MotionSemError as exc:
        return f"{type(exc).__name__}: {exc}\n"
    return f"{derivation!r}\n{explain(derivation)}\n{render_records(derivation.trace)}\n"


def shapes(bases: dict[str, RuleBase], grounds: tuple[str, ...]) -> str:
    return "".join(
        outcome(MotionComplex("v", "p", ground, "m", "fr"), lexicon, bases[name])
        for name in sorted(bases)
        for lexicon in shape_lexicons("v")
        for ground in grounds
    )


def seed_pairs() -> str:
    base = default_rulebase()
    parts = []
    for language in ("fr", "en"):
        lexicon = default_lexicon(language)
        for verb in lexicon.verbs:
            for prep in lexicon.preps:
                for ground in GROUNDS:
                    complex_ = MotionComplex(verb, prep, ground, "m", language)
                    parts.append(outcome(complex_, lexicon, base))
    return "".join(parts)


def commands() -> str:
    parts = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in RULE_FILES.items():
            Path(tmp, name).write_text(text, encoding="utf-8")
        for argv in COMMANDS:
            words = [os.path.join(tmp, word) if word in RULE_FILES else word for word in argv]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(words)
            shown = [os.path.basename(word) for word in argv]
            parts.append(f"$ {shown} -> {code}\n{out.getvalue()}--\n{err.getvalue()}")
    return "".join(parts)


def sections() -> dict[str, str]:
    """Each section's name and canonical text."""
    cold = {name: RuleBase(base.version, base.rules) for name, base in MEMO_BASES.items()}
    return {
        "shapes-cold": shapes(cold, GROUNDS),
        "shapes-warm": shapes(cold, ("g",)),
        "seed-pairs": seed_pairs(),
        "cli": commands(),
    }


def digests() -> dict[str, str]:
    return {
        name: hashlib.sha256(text.encode("utf-8")).hexdigest()
        for name, text in sections().items()
    }


def checked_in() -> dict[str, str]:
    lines = DIGESTS.read_text(encoding="utf-8").splitlines()
    return {name: digest for digest, name in (line.split() for line in lines)}


def moved() -> list[str]:
    """The sections whose digest differs from the checked-in one."""
    now, pinned = digests(), checked_in()
    return sorted(name for name in now.keys() | pinned.keys() if now.get(name) != pinned.get(name))


def main(argv: list[str]) -> int:
    if argv == ["--write"]:
        text = "".join(f"{digest}  {name}\n" for name, digest in digests().items())
        DIGESTS.write_text(text, encoding="utf-8")
        return 0
    if len(argv) == 2 and argv[0] == "--text" and argv[1] in (texts := sections()):
        sys.stdout.write(texts[argv[1]])
        return 0
    if argv:
        sys.exit(f"usage: {sys.argv[0]} [--write | --text SECTION]")
    changed = moved()
    for name in changed:
        print(f"moved: {name}")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
