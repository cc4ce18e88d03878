"""explain(), render_records() and tuples() against the reference renderers.

explain() prints from cached layouts; tests/reference_render.py keeps the
renderers that built every line afresh.  Their output must agree byte
for byte on every shape, ground order, seed pair and hand-built trace.
"""

from __future__ import annotations

import pytest

import reference_render as reference
from motionsem.compose import Defeat, MotionComplex, _plain_layout, compose, explain
from motionsem.errors import MotionSemError
from motionsem.lexicon import default_lexicon
from motionsem.trace import render_records
from motionsem.zones import Zone
from shapes import MEMO_BASES, shape_lexicons

RULES = MEMO_BASES["default"]


def assert_renders_like_the_reference(derivation):
    assert explain(derivation) == reference.explain(derivation)
    assert render_records(derivation.trace) == reference.render_records(derivation.trace)
    assert derivation.trace.tuples() == reference.tuples(derivation.trace)


# g and a-ground-... sort before lref#v, zz after it; a-ground-... is longer
# than the "location" heading; lref#u, another verb's reference location
# name, is an ordinary ground (lref#v itself is refused by MotionComplex)
SHAPE_GROUNDS = ("g", "zz", "a-ground-longer-than-location", "lref#u")


@pytest.mark.parametrize("name", sorted(MEMO_BASES))
def test_every_shape_renders_like_the_reference(name):
    base = MEMO_BASES[name]
    rendered = 0
    for lex in shape_lexicons("v"):
        for ground in SHAPE_GROUNDS:
            try:
                derivation = compose(MotionComplex("v", "p", ground, "m", "fr"), lex, base)
            except MotionSemError:
                continue
            assert_renders_like_the_reference(derivation)
            rendered += 1
    assert rendered > 0


@pytest.mark.parametrize("language", ["fr", "en"])
def test_every_seed_pair_renders_like_the_reference(language):
    lexicon = default_lexicon(language)
    rendered = 0
    for verb in lexicon.verbs:
        grounds = ("g", "zz", "jardin", f"lref#{verb}s", "{0} 100%", "a ground name")
        for prep in lexicon.preps:
            for ground in grounds:
                complex_ = MotionComplex(verb, prep, ground, "mobile", language)
                try:
                    derivation = compose(complex_, lexicon, RULES)
                except MotionSemError:
                    continue
                assert_renders_like_the_reference(derivation)
                rendered += 1
    assert rendered > 0


def hand_built_variants(derivation):
    """Derivations no compose() call returns, each printed as the reference does."""
    trace = derivation.trace
    rows = trace.assignments
    third = rows[0]._replace(location="third")
    clash = rows[0]._replace(zone=Zone.DISTAL)
    traces = [
        trace._replace(lref=None),
        trace._replace(ground=None),
        trace._replace(lref=None, ground=None),
        trace._replace(assignments=rows + (third,)),
        trace._replace(assignments=rows[::-1]),
        trace._replace(assignments=rows + (clash,)),
        trace._replace(assignments=rows + rows[:1]),
        trace._replace(assignments=()),
        trace._replace(assignments=rows[:1]),
        trace._replace(ground=trace.lref),
        trace._replace(mobile="two\nlines"),
        trace._replace(mobile="{5} 100%s"),
        trace._replace(ground="tab\there", assignments=()),
        trace._replace(lref=None, ground="{1}", mobile="{0}"),
    ]
    defeats = [
        (),
        (Defeat("X", None, "conclusion inconsistent"), Defeat("Y", "X", "lower priority")),
        (Defeat("{0}", "%s", "100%"),),
        (Defeat("X\x006", "\x00a", "\x000 NUL"),),  # NUL starts explain's slot markers
    ]
    for variant in traces:
        for defeated in defeats:
            yield derivation._replace(trace=variant, defeated=defeated)
    yield derivation._replace(fired=derivation.fired._replace(id="R{1}", strength="{x}"))
    yield derivation._replace(fired=derivation.fired._replace(id="R\x006", strength="\0"))


@pytest.mark.parametrize("verb", ["sortir", "entrer", "passer"])
def test_hand_built_derivations_render_like_the_reference(verb):
    fr = default_lexicon("fr")
    derivation = compose(MotionComplex(verb, "dans", "jardin", "mobile", "fr"), fr, RULES)
    for variant in hand_built_variants(derivation):
        assert_renders_like_the_reference(variant)


def test_names_that_break_lines_render_like_the_reference():
    fr = default_lexicon("fr")
    for ground in ("a\nb", "a\rb", "a b", "end\n", "\x85"):
        for mobile in ("m", "m\n", "m\x0bn"):
            complex_ = MotionComplex("sortir", "de", ground, mobile, "fr")
            assert_renders_like_the_reference(compose(complex_, fr, RULES))


@pytest.mark.parametrize("field", ["phase", "zone"])
def test_a_float_phase_or_zone_raises_like_the_reference(field):
    # 2.0 == Phase.POST, with the same hash: the layout of the Phase.POST
    # trace explained first must not serve it; a plain int prints as the member
    fr = default_lexicon("fr")
    derivation = compose(MotionComplex("sortir", "dans", "jardin", "m", "fr"), fr, RULES)
    explain(derivation)
    trace = derivation.trace

    def converted(number):
        rows = tuple(
            a._replace(**{field: number(getattr(a, field))}) for a in trace.assignments
        )
        return derivation._replace(trace=trace._replace(assignments=rows))

    for render in (explain, reference.explain):
        with pytest.raises(TypeError, match="tuple indices must be integers"):
            render(converted(float))
    assert_renders_like_the_reference(converted(int))


def test_fields_that_compare_equal_but_print_differently_get_their_own_layout():
    fr = default_lexicon("fr")
    derivation = compose(MotionComplex("sortir", "de", "maison", "m", "fr"), fr, RULES)
    assert derivation.defeated
    fired, first = derivation.fired, derivation.defeated[0]
    variants = [
        derivation._replace(fired=fired._replace(priority=float(fired.priority))),
        derivation._replace(fired=fired._replace(priority=True)),
        derivation._replace(defeated=(first._replace(rule_id=1),)),
        derivation._replace(defeated=(first._replace(rule_id=1.0),)),
        derivation._replace(defeated=(first._replace(rule_id=True),)),
    ]
    texts = [explain(d) for d in [derivation, *variants]]
    assert len(set(texts)) == len(texts)
    for d, text in zip([derivation, *variants], texts):
        assert text == reference.explain(d)


def test_layout_cache_is_bounded_and_eviction_changes_no_text():
    fr = default_lexicon("fr")
    derivation = compose(MotionComplex("entrer", "dans", "jardin", "m", "fr"), fr, RULES)
    _plain_layout.cache_clear()
    bound = _plain_layout.cache_info().maxsize
    assert bound == 1024
    variants = [  # one layout each
        derivation._replace(fired=derivation.fired._replace(priority=priority))
        for priority in range(bound + 10)
    ]
    texts = [explain(d) for d in variants]
    assert _plain_layout.cache_info().currsize == bound
    evicted = variants[:10]
    assert [explain(d) for d in evicted] == texts[:10]
    assert texts[:10] == [reference.explain(d) for d in evicted]


SORTIR_DANS_JARDIN = """\
motion complex: sortir + dans + jardin  [fr]
mobile: mobile

fired rule: D2i (defeasible, priority 43)
defeated: none

bindings:
  reference location: lref#sortir (implicit)
  ground: jardin (bound at post)

zones:
  location     phase  zone      source
  jardin       post   inside    Interaction
  lref#sortir  pre    inside    Verb
  lref#sortir  post   proximal  Verb

records:
  mobile mobile
  lref lref#sortir
  ground jardin
  jardin post inside interaction
  lref#sortir pre inside verb
  lref#sortir post proximal verb"""

ENTRER_DANS_JARDIN = """\
motion complex: entrer + dans + jardin  [fr]
mobile: mobile

fired rule: D1 (defeasible, priority 50)
defeated: none

bindings:
  ground: jardin (identified with the reference location)

zones:
  location  phase  zone      source
  jardin    pre    proximal  Verb
  jardin    post   inside    Verb

records:
  mobile mobile
  lref jardin
  ground jardin
  jardin pre proximal verb
  jardin post inside verb"""


@pytest.mark.parametrize(
    "verb, expected", [("sortir", SORTIR_DANS_JARDIN), ("entrer", ENTRER_DANS_JARDIN)]
)
def test_explain_text_is_pinned(verb, expected):
    fr = default_lexicon("fr")
    complex_ = MotionComplex(verb, "dans", "jardin", "mobile", "fr")
    assert explain(compose(complex_, fr, RULES)) == expected
