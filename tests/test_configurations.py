"""Configurations: intersection arithmetic, complement homology, family presentations."""

from math import gcd

import pytest

from dpsurgery.configurations import (AmbientManifold, Configuration, SurfaceComponent,
                                      algebraic_intersection, complement_h1,
                                      spheres_presentation, tori_presentation)
from dpsurgery.coset import coset_enumerate
from dpsurgery.presentations import AbelianGroup, abelianization
from dpsurgery.scenarios import (nodal_configuration, rational_configuration,
                                 spheres_configuration, tori_configuration)
from dpsurgery.verify import Status, verify_abelian_isomorphism


S2XS2 = AmbientManifold("S2xS2", True, ((0, 1), (1, 0)), ("A", "B"))
CP2 = AmbientManifold("CP2", True, ((1,),), ("h",))


def test_algebraic_intersection_hyperbolic():
    config = Configuration(
        S2XS2,
        (SurfaceComponent("S1", 0, (1, 0)), SurfaceComponent("S2", 0, (0, 1))),
        ((0, 1, 1),))
    assert algebraic_intersection(config, 0, 1) == 1
    assert algebraic_intersection(config, 0, 0) == 0


def test_algebraic_intersection_degrees():
    config = nodal_configuration(2, 3)
    assert algebraic_intersection(config, 0, 1) == 6
    assert len(config.double_points) == 6


def test_double_point_validation():
    with pytest.raises(ValueError):
        Configuration(
            S2XS2,
            (SurfaceComponent("S1", 0, (1, 0)), SurfaceComponent("S2", 0, (0, 1))),
            ())  # classes pair to 1 but no double point is listed


def test_complement_h1_nodal():
    assert complement_h1(nodal_configuration(2, 3)) == AbelianGroup(1)
    assert complement_h1(nodal_configuration(2, 4)) == AbelianGroup(1, (2,))


def test_complement_h1_rational():
    for p in range(1, 4):
        for q in range(1, 5):
            assert complement_h1(rational_configuration(p, q)) == AbelianGroup.of_orders(q)


def test_complement_h1_spheres():
    for m in range(1, 5):
        for n in range(1, 5):
            assert complement_h1(spheres_configuration(m, n)) == \
                AbelianGroup.of_orders(m, n)


def test_complement_h1_nodal_gcd_sweep():
    for d1 in range(1, 5):
        for d2 in range(1, 5):
            expected = AbelianGroup.of_orders(0, gcd(d1, d2))
            assert complement_h1(nodal_configuration(d1, d2)) == expected


def test_complement_h1_requires_simply_connected():
    ambient = AmbientManifold("T4ish", False, ((0, 1), (1, 0)), ("A", "B"))
    config = Configuration(
        ambient,
        (SurfaceComponent("S1", 1, (1, 0)), SurfaceComponent("S2", 1, (0, 1))),
        ((0, 1, 1),))
    with pytest.raises(ValueError):
        complement_h1(config)


def test_h1_agrees_with_presentation_abelianization():
    builtin_configs = [nodal_configuration(2, 3), nodal_configuration(1, 2),
                       rational_configuration(1, 3), rational_configuration(2, 4),
                       spheres_configuration(3, 2), tori_configuration(3, 2),
                       tori_configuration(2, 3)]
    for config in builtin_configs:
        assert complement_h1(config) == abelianization(config.pi1)


def test_spheres_presentation_trivial_case():
    p = spheres_presentation(1, 1)
    result = coset_enumerate(p, (), 100)
    assert result.completed and result.index == 1


def test_spheres_presentation_3_2():
    verdict = verify_abelian_isomorphism(spheres_presentation(3, 2),
                                         AbelianGroup.of_orders(3, 2))
    assert verdict.status is Status.ISOMORPHIC


def test_spheres_presentation_2_2_abelianization():
    assert abelianization(spheres_presentation(2, 2)) == AbelianGroup(0, (2, 2))


def test_tori_presentation_collapses_when_trivial():
    result = coset_enumerate(tori_presentation(1, 1), (), 1000)
    assert result.completed and result.index == 1


def test_tori_presentation_3_2():
    verdict = verify_abelian_isomorphism(tori_presentation(3, 2),
                                         AbelianGroup.of_orders(3, 2))
    assert verdict.status is Status.ISOMORPHIC
    # exact engine counts on a larger cell
    result = coset_enumerate(tori_presentation(9, 10), (), 100_000)
    assert (result.completed, result.index, result.allocated) == (True, 90, 145)


def test_tori_presentation_2_3_abelianization():
    assert abelianization(tori_presentation(2, 3)) == AbelianGroup.of_orders(6)


def test_presentation_labels_name_component_meridians():
    config = tori_configuration(3, 2)
    assert config.pi1.label("mu1") is not None
    assert config.pi1.label("mu2") is not None
    with pytest.raises(ValueError):
        spheres_presentation(0, 1)
