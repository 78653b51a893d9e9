"""Braid words, diagrams, Wirtinger presentations and the meridian."""

import pytest

from dpsurgery.knots import (BraidWord, FIGURE_EIGHT, KnotGroupData, TREFOIL, UNKNOT,
                             braid_to_diagram, knot_group_from_braid, torus_knot,
                             wirtinger_presentation)
from dpsurgery.presentations import AbelianGroup, abelianization
from dpsurgery.words import Word


def test_braid_parse_format():
    braid = BraidWord.parse("B2: 1 1 1")
    assert braid == TREFOIL
    assert braid.format() == "B2: 1 1 1"
    assert BraidWord.parse("B3: 1 -2 1 -2") == FIGURE_EIGHT
    assert BraidWord.parse("B1:") == UNKNOT
    with pytest.raises(ValueError):
        BraidWord.parse("2: 1 1")
    with pytest.raises(ValueError):
        BraidWord(2, (2,))
    with pytest.raises(ValueError):
        BraidWord(2, (0,))


def test_knot_closure_detection():
    assert TREFOIL.is_knot_closure()
    assert FIGURE_EIGHT.is_knot_closure()
    assert not BraidWord(2, (1, 1)).is_knot_closure()  # two components
    assert not BraidWord(3, (1,)).is_knot_closure()    # strand 3 untouched


def test_single_crossing_unknot():
    diagram = braid_to_diagram(BraidWord(2, (1,)))
    assert diagram.arcs == 1
    assert len(diagram.crossings) == 1


def test_trefoil_diagram():
    diagram = braid_to_diagram(TREFOIL)
    assert diagram.arcs == 3
    assert len(diagram.crossings) == 3


def test_figure_eight_diagram():
    diagram = braid_to_diagram(FIGURE_EIGHT)
    assert diagram.arcs == 4
    assert len(diagram.crossings) == 4


def test_rejects_multi_component_closures():
    with pytest.raises(ValueError):
        braid_to_diagram(BraidWord(2, (1, 1)))


def test_wirtinger_unknot():
    data = wirtinger_presentation(braid_to_diagram(UNKNOT))
    assert data.presentation.generators == ("x0",)
    assert data.presentation.relators == ()


def test_wirtinger_abelianizations():
    for braid in (TREFOIL, FIGURE_EIGHT, torus_knot(3)):
        data = knot_group_from_braid(braid)
        assert abelianization(data.presentation) == AbelianGroup.free(1)


def test_simplified_keeps_meridian_and_group():
    for braid in (TREFOIL, FIGURE_EIGHT, torus_knot(4)):
        data = knot_group_from_braid(braid)
        small = data.simplified()
        assert small.presentation.ngens <= data.presentation.ngens
        assert abelianization(small.presentation) == AbelianGroup.free(1)
        assert small.presentation.label("muK") == Word.gen(small.meridian)


def test_meridian_label_must_be_one_generator():
    p = knot_group_from_braid(TREFOIL).presentation
    for word in (Word.gen(0, -1), Word.gen(0, 2)):
        with pytest.raises(ValueError, match="meridian"):
            KnotGroupData(p.with_labels({"muK": word}))


def test_torus_knot_constructor():
    assert torus_knot(1) == TREFOIL
    assert torus_knot(2).letters == (1,) * 5
    with pytest.raises(ValueError):
        torus_knot(0)
