"""Surface configurations in simply connected 4-manifolds.

A configuration is a list of embedded surface components together with the
signed transverse double points between them.  The stored data is enough
for the homological bookkeeping: an intersection form with a chosen basis,
the component classes, and optionally a presentation of the complement's
fundamental group whose labels mu1, mu2, ... name the component meridians.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .knots import BraidWord
from .presentations import AbelianGroup, Presentation
from .snf import cokernel_invariants
from .words import Word, commutator, free_reduce


# an embedding tag is the text a report prints for it
STANDARD = "Standard"


def twist_spun_tag(knot: BraidWord, twist: int) -> str:
    return f"ConnectSumTwistSpun({knot.format()}, {twist})"


@dataclass(frozen=True)
class AmbientManifold:
    name: str
    simply_connected: bool
    form: tuple[tuple[int, ...], ...]
    basis_labels: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "form", tuple(tuple(int(x) for x in row) for row in self.form))
        object.__setattr__(self, "basis_labels", tuple(self.basis_labels))
        n = len(self.form)
        if len(self.basis_labels) != n:
            raise ValueError("one basis label per form row is required")
        for row in self.form:
            if len(row) != n:
                raise ValueError("intersection form must be square")
        for i in range(n):
            for j in range(n):
                if self.form[i][j] != self.form[j][i]:
                    raise ValueError("intersection form must be symmetric")

    @property
    def rank(self) -> int:
        return len(self.form)

    def pairing(self, a, b) -> int:
        return sum(a[i] * self.form[i][j] * b[j]
                   for i in range(self.rank) for j in range(self.rank))


@dataclass(frozen=True)
class SurfaceComponent:
    label: str
    genus: int
    homology_class: tuple[int, ...]
    embedding_tag: str = STANDARD

    def __post_init__(self):
        object.__setattr__(self, "homology_class",
                           tuple(int(x) for x in self.homology_class))
        if self.genus < 0:
            raise ValueError("genus must be non-negative")


@dataclass(frozen=True)
class Configuration:
    ambient: AmbientManifold
    components: tuple[SurfaceComponent, ...]
    double_points: tuple[tuple[int, int, int], ...] = ()
    pi1: Presentation | None = None
    symplectic_positive: bool = False

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        object.__setattr__(self, "double_points",
                           tuple((int(a), int(b), int(s)) for a, b, s in self.double_points))
        rank = self.ambient.rank
        for comp in self.components:
            if len(comp.homology_class) != rank:
                raise ValueError(f"component {comp.label}: class length != ambient rank")
        k = len(self.components)
        pair_sums: dict[tuple[int, int], int] = {}
        for a, b, s in self.double_points:
            if not (0 <= a < k and 0 <= b < k) or a == b:
                raise ValueError(f"bad double point ({a}, {b}, {s})")
            if s not in (1, -1):
                raise ValueError("double point sign must be +-1")
            key = (min(a, b), max(a, b))
            pair_sums[key] = pair_sums.get(key, 0) + s
        for i in range(k):
            for j in range(i + 1, k):
                expected = self.ambient.pairing(self.components[i].homology_class,
                                                self.components[j].homology_class)
                got = pair_sums.get((i, j), 0)
                if got != expected:
                    raise ValueError(
                        f"double points of pair ({i}, {j}) sum to {got}, but the "
                        f"classes pair to {expected}")
        if self.pi1 is not None:
            for i in range(k):
                if self.pi1.label(f"mu{i + 1}") is None:
                    raise ValueError(f"pi1 presentation must label mu{i + 1}")


def algebraic_intersection(config: Configuration, i: int, j: int) -> int:
    """Pairing of the classes of components i and j under the ambient form."""
    comps = config.components
    return config.ambient.pairing(comps[i].homology_class, comps[j].homology_class)


def complement_h1(config: Configuration) -> AbelianGroup:
    """First homology of the complement, from the meridian relation matrix.

    One relation per basis class A: sum_j (A . Sigma_j) mu_j = 0.  Requires a
    simply connected ambient manifold.
    """
    if not config.ambient.simply_connected:
        raise ValueError("complement homology needs a simply connected ambient manifold")
    k = len(config.components)
    free_rank, torsion = cokernel_invariants(meridian_relations(config, range(k)), k)
    return AbelianGroup(free_rank, torsion)


def meridian_relations(config: Configuration, components: Sequence[int]) -> list[list[int]]:
    """The meridian relation rows of `complement_h1`, one per basis class A,
    with column j the coefficient A . Sigma_c of the j-th listed component c."""
    rank = config.ambient.rank
    return [[config.ambient.pairing([1 if t == i else 0 for t in range(rank)],
                                    config.components[c].homology_class)
             for c in components]
            for i in range(rank)]


def _descending_product(words: list[Word]) -> Word:
    out = Word.identity()
    for w in reversed(words):
        out = out * w
    return out


def spheres_presentation(m: int, n: int) -> Presentation:
    """Complement group of m + n linked sphere families joined into two surfaces.

    Generators are the m meridians mu_i and n meridians nu_j of the parallel
    sphere copies; the relators are the commutators [mu_i, nu_j], the two
    full products, and the tube identifications equating each family.
    """
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    names = tuple(f"mu{i + 1}" for i in range(m)) + tuple(f"nu{j + 1}" for j in range(n))
    mu = [Word.gen(i) for i in range(m)]
    nu = [Word.gen(m + j) for j in range(n)]
    relators: list[Word] = []
    for i in range(m):
        for j in range(n):
            relators.append(commutator(mu[i], nu[j]))
    product_mu = Word.identity()
    for w in mu:
        product_mu = product_mu * w
    product_nu = Word.identity()
    for w in nu:
        product_nu = product_nu * w
    relators.append(product_mu)
    relators.append(product_nu)
    for i in range(1, m):
        relators.append(free_reduce(mu[0] * mu[i].inverse()))
    for j in range(1, n):
        relators.append(free_reduce(nu[0] * nu[j].inverse()))
    return Presentation(names, tuple(relators), (("mu1", mu[0]), ("mu2", nu[0])))


def tori_presentation(m: int, n: int) -> Presentation:
    """Complement group of the two braided-torus families, fiber sums applied.

    The displayed relator list of the neighborhood complement, together with
    the killing of the four section curves; the boundary curves gamma and
    eta then die as commutators of killed generators.  Labels mu1 and mu2
    name the meridians of the m-torus and the n-torus.
    """
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    names = (("alpha1", "alpha2", "alpha3", "alpha4")
             + tuple(f"nu{i + 1}" for i in range(m))
             + tuple(f"mu{j + 1}" for j in range(n))
             + ("gamma", "eta"))
    a1, a2, a3, a4 = (Word.gen(i) for i in range(4))
    nu = [Word.gen(4 + i) for i in range(m)]
    mu = [Word.gen(4 + m + j) for j in range(n)]
    gamma = Word.gen(4 + m + n)
    eta = Word.gen(4 + m + n + 1)

    relators: list[Word] = []
    for j in range(n):
        for i in range(m):
            relators.append(commutator(mu[j], nu[i]))
    relators.append(free_reduce(commutator(a1, a2) * gamma.inverse()))
    relators.append(free_reduce(_descending_product(mu) * gamma.inverse()))
    for i in range(m):
        relators.append(commutator(gamma, nu[i]))
    relators.append(free_reduce(commutator(a3, a4) * eta.inverse()))
    relators.append(free_reduce(_descending_product(nu) * eta.inverse()))
    for j in range(n):
        relators.append(commutator(eta, mu[j]))
    for i in range(m):
        relators.append(commutator(a1, nu[i]))
    for i in range(m - 1):
        relators.append(free_reduce(a2 * nu[i] * a2.inverse() * nu[i + 1].inverse()))
    full_nu = _descending_product(nu)
    relators.append(free_reduce(
        a2 * nu[m - 1] * a2.inverse() * (full_nu * nu[0] * full_nu.inverse()).inverse()))
    for j in range(n):
        relators.append(commutator(a4, mu[j]))
    for j in range(n - 1):
        relators.append(free_reduce(a3 * mu[j] * a3.inverse() * mu[j + 1].inverse()))
    full_mu = _descending_product(mu)
    relators.append(free_reduce(
        a3 * mu[n - 1] * a3.inverse() * (full_mu * mu[0] * full_mu.inverse()).inverse()))
    # fiber sums kill the four section curves
    for w in (a1, a2, a3, a4):
        relators.append(w)
    return Presentation(names, tuple(relators), (("mu1", nu[0]), ("mu2", mu[0])))
