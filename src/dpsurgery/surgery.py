"""Twisted surgery at a double point of a surface configuration.

The operation removes a neighborhood of the torus linking an intersection
point and glues in a knot exterior times a circle.  Two independent paths
to the fundamental group of the new complement are provided:

* `surgered_presentation` builds the full amalgam over the linking torus,
  keeping the base generators at their indices and relators intact; it
  carries no labels, and `apply_surgery` gives it the configuration's own,
  since the amalgam equates each meridian at the point with a new one;
* `case_presentation` emits the collapsed presentation available when the
  base group is abelian of one of three recognized shapes; it carries no
  labels, since only the group is checked.

Both read the knot group through its meridian muK, generator 0, alone.  A
case's target group is the abelianization of its `base_presentation`.

The two paths are cross-validated against each other by the test suite, on
the Wirtinger knot group and on its meridian-kept simplification.  The
``surgery`` report's `group-preserved` and both `cross-validation` paths
decide by `verify.decide_group` on the simplification, then by one
Reidemeister-Schreier step on it.  Only `group-preserved` of an infinite
target (F1) retries the raw knot group, after a cap and before that step.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import gcd

from .configurations import STANDARD, Configuration, SurfaceComponent, twist_spun_tag
from .knots import BraidWord, KnotGroupData, knot_group_from_braid
from .presentations import AbelianGroup, Presentation, abelianization
from .verify import Bounds, DEFAULT_BOUNDS, Verdict, verify_abelian_isomorphism
from .words import Word, commutator, free_reduce


# case tag -> its parameters, in the order `describe` prints them
CASE_FIELDS = {"F1": ("d",), "F2": ("p", "q"), "F3": ("m", "n")}


@dataclass(frozen=True)
class CaseParams:
    """One of the three recognized abelian base groups, stated once by
    `base_presentation`; the target group is its abelianization.

    F1: infinite cyclic base with relation mu1 * mu2^d = 1 (requires k = 0).
    F2: cyclic base of order q with relation mu1^p * mu2 = 1 ((p+k, q) = 1).
    F3: base Z_m + Z_n with mu1, mu2 generating the summands ((m, k*n) = 1).
    """

    tag: str
    k: int
    d: int = 0
    p: int = 0
    q: int = 0
    m: int = 0
    n: int = 0

    def __post_init__(self):
        if self.tag not in CASE_FIELDS:
            raise ValueError(f"unknown case tag {self.tag!r}")
        if any(getattr(self, name) < 1 for name in CASE_FIELDS[self.tag]):
            raise ValueError(f"{self.tag} needs {', '.join(CASE_FIELDS[self.tag])} >= 1")

    def target(self) -> AbelianGroup:
        return abelianization(self.base_presentation())

    def describe(self) -> str:
        fields = (f"{name}={getattr(self, name)}" for name in CASE_FIELDS[self.tag])
        return f"{self.tag}({', '.join(fields)}, k={self.k})"

    def base_presentation(self) -> Presentation:
        """The matching two-meridian presentation of the base group."""
        mu1, mu2 = Word.gen(0), Word.gen(1)
        if self.tag == "F1":
            relators = (free_reduce(mu1 * mu2 ** self.d),)
        elif self.tag == "F2":
            relators = (mu1 ** self.q, free_reduce(mu1 ** self.p * mu2))
        else:
            relators = (mu1 ** self.m, mu2 ** self.n, commutator(mu1, mu2))
        return Presentation(("mu1", "mu2"), relators, (("mu1", mu1), ("mu2", mu2)))


def check_case_hypothesis(c: CaseParams) -> bool:
    """The arithmetic condition under which the group claim is made."""
    if c.tag == "F1":
        return c.k == 0
    if c.tag == "F2":
        return gcd(c.p + c.k, c.q) == 1
    return gcd(c.m, c.k * c.n) == 1


class HypothesisError(ValueError):
    """Raised when a verification is requested outside its hypothesis."""


def _unique_name(base: str, taken: set[str]) -> str:
    name = base
    suffix = 0
    while name in taken:
        suffix += 1
        name = f"{base}_{suffix}"
    taken.add(name)
    return name


def surgered_presentation(base: Presentation, knot: KnotGroupData, k: int) -> Presentation:
    """Full amalgam over the linking torus: base and knot-exterior-times-circle.

    The base must label the point's two meridians mu1 and mu2.  The circle
    factor adds one central generator s; the torus identifications are
    mu1 = muK and mu2 = muK^k * s.  The result carries no labels.
    """
    mu1 = base.label("mu1")
    mu2 = base.label("mu2")
    if mu1 is None or mu2 is None:
        raise ValueError("base presentation must label mu1 and mu2")

    kp = knot.presentation
    taken = set(base.generators)
    knot_names = [_unique_name(name, taken) for name in kp.generators]
    s_name = _unique_name("s", taken)
    generators = base.generators + tuple(knot_names) + (s_name,)
    offset = base.ngens
    s_index = len(generators) - 1

    relators = list(base.relators)
    shift = {i: offset + i for i in range(kp.ngens)}
    for r in kp.relators:
        relators.append(r.reindex(shift))
    s = Word.gen(s_index)
    for i in range(kp.ngens):
        relators.append(commutator(Word.gen(offset + i), s))
    mu_k = Word.gen(offset)
    relators.append(free_reduce(mu1 * mu_k.inverse()))
    relators.append(free_reduce(mu2 * (mu_k ** k * s).inverse()))

    return Presentation(generators, tuple(free_reduce(r) for r in relators))


def case_presentation(c: CaseParams, knot: KnotGroupData) -> Presentation:
    """The collapsed presentation over the knot group with one circle generator.

    Relators: the knot relators, centrality of the circle generator, and the
    case relation(s): F1 adds muK^(1+k*d) * s^d; F2 adds muK^q and
    muK^(p+k) * s; F3 adds muK^m and (muK^k * s)^n.
    """
    kp = knot.presentation
    taken = set(kp.generators)
    s_name = _unique_name("s", taken)
    generators = kp.generators + (s_name,)
    s_index = len(generators) - 1
    s = Word.gen(s_index)
    mu = Word.gen(0)

    relators = list(kp.relators)
    for i in range(kp.ngens):
        relators.append(commutator(Word.gen(i), s))
    if c.tag == "F1":
        relators.append(free_reduce(mu ** (1 + c.k * c.d) * s ** c.d))
    elif c.tag == "F2":
        relators.append(mu ** c.q)
        relators.append(free_reduce(mu ** (c.p + c.k) * s))
    else:
        relators.append(mu ** c.m)
        relators.append(free_reduce((mu ** c.k * s) ** c.n))

    return Presentation(generators, tuple(free_reduce(r) for r in relators))


def verify_group_preserved(c: CaseParams, knot: KnotGroupData,
                           bounds: Bounds = DEFAULT_BOUNDS,
                           raw: KnotGroupData | None = None) -> Verdict:
    """Verify that the surgered group matches the case's abelian target.

    The case presentation is built on `knot`, typically simplified, and, for
    an infinite target (F1), on `raw`, the unsimplified knot group, only
    after a cap (`decide_group`).  Refuses to run when the arithmetic
    hypothesis fails: no claim is made.
    """
    if not check_case_hypothesis(c):
        raise HypothesisError(f"hypothesis of {c.describe()} fails; no claim is made")
    fallbacks = (("the unsimplified Wirtinger group", case_presentation(c, data))
                 for data in (raw,) if data is not None)
    verdict = verify_abelian_isomorphism(case_presentation(c, knot), c.target(), bounds,
                                         fallbacks)
    return Verdict(verdict.status, (f"{c.describe()}: hypothesis holds",) + verdict.evidence)


@dataclass(frozen=True)
class SurgerySpec:
    configuration: Configuration
    point: int
    knot: BraidWord
    twist: int

    def __post_init__(self):
        if not (0 <= self.point < len(self.configuration.double_points)):
            raise ValueError(f"double point index {self.point} out of range")
        if not self.knot.is_knot_closure():
            raise ValueError("surgery knot must be a knot closure")


def _is_line_in_projective_plane(config: Configuration, component: int) -> bool:
    surface = config.components[component]
    return (surface.genus == 0
            and config.ambient.form == ((1,),)
            and tuple(surface.homology_class) == (1,))


def surgered_components(spec: SurgerySpec) -> tuple[SurfaceComponent, ...]:
    """Components after the spec's twisted surgery at its double point.

    The first component at the point acquires a twist-spun connected-sum tag
    unless a recognized untwisting applies: twist +-1 always untwists, and
    twist 0 untwists a degree-one sphere in the projective plane.  Every
    other component is untouched.
    """
    config, k = spec.configuration, spec.twist
    comp_a = config.double_points[spec.point][0]
    if k in (1, -1) or (k == 0 and _is_line_in_projective_plane(config, comp_a)):
        tag = STANDARD
    else:
        tag = twist_spun_tag(spec.knot, k)
    components = list(config.components)
    components[comp_a] = replace(components[comp_a], embedding_tag=tag)
    return tuple(components)


def apply_surgery(spec: SurgerySpec) -> Configuration:
    """Surger the configuration at one double point.

    Homology classes, genus and double point data never change; the
    embedding tags follow `surgered_components`.  The complement
    presentation, when present, is replaced by the full amalgam, which
    keeps the configuration's meridian labels.
    """
    config = spec.configuration
    comp_a, comp_b, _ = config.double_points[spec.point]

    pi1 = None
    if config.pi1 is not None:
        base = config.pi1
        point_base = Presentation(base.generators, base.relators,
                                  (("mu1", base.label(f"mu{comp_a + 1}")),
                                   ("mu2", base.label(f"mu{comp_b + 1}"))))
        amalgam = surgered_presentation(point_base, knot_group_from_braid(spec.knot),
                                        spec.twist)
        pi1 = Presentation(amalgam.generators, amalgam.relators, base.labels)

    return replace(config, components=surgered_components(spec), pi1=pi1,
                   symplectic_positive=False)
