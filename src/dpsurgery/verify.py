"""Decision procedures built from the bounded engines.

Every procedure here is bounded, deterministic, and returns a Verdict whose
evidence lists the facts actually established.  Inconclusive is a first-class
outcome: no bounded run is ever silently converted into a yes or a no.

`decide_group` alone turns presentations of one group into an order or an
index, in one order: the simplified presentation, the raw one only after a
cap, then on the first the commutator route (finite targets) or
Knuth-Bendix and the exponent-quotient witness (infinite targets).
Surgery's `group-preserved` and `cross-validation` both call it.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import chain
from math import prod

from .coset import coset_enumerate
from .presentations import (AbelianGroup, Presentation, abelianization, exponent_matrix,
                            format_word, simplify_presentation)
from .rewriting import knuth_bendix
from .snf import cokernel_map
from .words import Word, commutator


class Status(enum.Enum):
    ISOMORPHIC = "Isomorphic"
    NOT_ISOMORPHIC = "NotIsomorphic"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class Verdict:
    status: Status
    evidence: tuple[str, ...]

    def __post_init__(self):
        if not self.evidence:
            raise ValueError("a verdict must cite at least one evidence fact")


@dataclass(frozen=True)
class Bounds:
    max_cosets: int = 100_000
    max_rules: int = 500

    def __post_init__(self):
        if self.max_cosets < 1 or self.max_rules < 1:
            raise ValueError("bounds must be >= 1")


DEFAULT_BOUNDS = Bounds()


def certify_abelian(p: Presentation, max_rules: int = 500) -> Verdict:
    """Try to certify that the presented group is abelian by rewriting.

    Eliminates redundant generators by Tietze moves, then runs bounded
    Knuth-Bendix completion under shortlex and reduces every commutator of
    the remaining generators.  All commutators reducing to the empty
    word certifies abelianness even if completion was cut short (each rule
    is a consequence of the relators).  A confluent system together with an
    irreducible commutator refutes it.  Anything else is inconclusive.
    """
    work = p
    notes = []
    if p.ngens > 1:
        work = simplify_presentation(p)
        if work.ngens < p.ngens:
            notes.append(f"eliminated {p.ngens - work.ngens} redundant generators "
                         f"before rewriting ({work.ngens} remain)")
    if work.ngens <= 1:
        return Verdict(Status.ISOMORPHIC,
                       tuple(notes) + ("at most one generator remains: abelian by inspection",))

    system = knuth_bendix(work, max_rules)
    pending = []
    for i in range(work.ngens):
        for j in range(i + 1, work.ngens):
            comm = commutator(Word.gen(i), Word.gen(j)).letters
            if system.reduce(comm) != ():
                pending.append((i, j))
    total = work.ngens * (work.ngens - 1) // 2
    if not pending:
        notes.append(f"all {total} generator commutators reduce to the identity "
                     f"({len(system.rules)} rules, confluent={system.confluent})")
        return Verdict(Status.ISOMORPHIC, tuple(notes))
    if system.confluent:
        i, j = pending[0]
        notes.append(f"confluent system ({len(system.rules)} rules) leaves commutator "
                     f"[{work.generators[i]},{work.generators[j]}] irreducible: group is nonabelian")
        return Verdict(Status.NOT_ISOMORPHIC, tuple(notes))
    notes.append(f"rewrite-rule cap {max_rules} exhausted with {len(pending)} of {total} "
                 f"commutators unresolved")
    return Verdict(Status.INCONCLUSIVE, tuple(notes))


def nonabelian_quotient_witness(p: Presentation, max_cosets: int) -> str | None:
    """Search small exponent quotients for a finite nonabelian image.

    Adding g^e for every generator g gives a quotient of the group; if the
    quotient is finite of order N while its abelianization has order M < N,
    the group surjects onto a nonabelian group and cannot be abelian.
    """
    for exponent in (2, 3, 4, 5):
        extra = tuple(Word.gen(i, exponent) for i in range(p.ngens))
        q = Presentation(p.generators, p.relators + extra)
        result = coset_enumerate(q, (), max_cosets)
        if not result.completed:
            continue
        ab_order = abelianization(q).order()
        if ab_order is not None and result.index != ab_order:
            return (f"exponent-{exponent} quotient has order {result.index} but "
                    f"abelianization of order {ab_order}: nonabelian finite quotient")
    return None


@dataclass(frozen=True)
class DerivedOrder:
    """What the commutator-subgroup route established about a group G.

    `order` is |G| when G' was found trivial or enumerated; `nonabelian`
    says G' was shown nontrivial.  Neither set means the route did not
    decide, and `evidence` lists what it did.
    """
    order: int | None
    nonabelian: bool
    evidence: tuple[str, ...]


def commutator_subgroup_order(p: Presentation, max_cosets: int) -> DerivedOrder:
    """|G| = |G^ab| * |G'| from a presentation of the commutator subgroup G'.

    Needs a finite abelianization A.  The quotient map G -> A is read off the
    Smith column transform of the exponent matrix, and the cosets of
    G' = ker(G -> A) are the elements of A, so the coset table of G' is
    A's regular action: no enumeration.  A breadth-first Schreier
    transversal over it and Reidemeister-Schreier rewriting of every
    conjugate t r t^-1 (t a transversal word, r a relator) present G' on
    |A|(n-1)+1 Schreier generators (Magnus-Karrass-Solitar 1966, 2.3;
    Holt-Eick-O'Brien 2005, 2.5), which Tietze moves then simplify.  No
    generator left means G' = 1.  Otherwise G' is enumerated at the cap; a
    nonzero abelianization of G' shows G' != 1 even when that enumeration
    caps or is skipped (an infinite G'^ab).  The transversal's |A| rows and
    the Schreier generators count against `max_cosets`: past it the route
    does not run.
    """
    torsion, images = cokernel_map(exponent_matrix(p), p.ngens)
    index, n = prod(torsion), p.ngens
    if 0 in torsion or index * n + 1 > max_cosets:
        return DerivedOrder(None, False, ())

    # breadth-first transversal: act[c][x] is coset c times letter x, and a
    # tree entry (c, x) is the one that first reached its coset
    moves = [tuple(-y % q if x & 1 else y for y, q in zip(images[x >> 1], torsion))
             for x in range(2 * n)]
    zero = (0,) * len(torsion)
    coset_of, elements, act, tree = {zero: 0}, [zero], [], set()
    for c, element in enumerate(elements):
        row = []
        for x, move in enumerate(moves):
            step = tuple((e + y) % q for e, y, q in zip(element, move, torsion))
            d = coset_of.get(step)
            if d is None:
                d = coset_of[step] = len(elements)
                elements.append(step)
                tree.add((c, x))
            row.append(d)
        act.append(row)

    # Schreier generator s(c, g) = t_c g t_cg^-1; it is freely 1 on a tree edge
    schreier = [[None] * n for _ in range(index)]
    names = []
    for c in range(index):
        for g in range(n):
            if (c, 2 * g) not in tree and (act[c][2 * g], 2 * g + 1) not in tree:
                schreier[c][g] = len(names)
                names.append(f"s{c}_{g}")
    # t_c r t_c^-1 read as a path from c: g^-1 at coset c steps back along s(cg^-1, g)
    relators = []
    for r in p.relators:
        for start in range(index):
            c, letters = start, []
            for x in r.letters:
                if x & 1:
                    c = act[c][x]
                    s = schreier[c][x >> 1]
                    if s is not None:
                        letters.append(2 * s + 1)
                else:
                    s = schreier[c][x >> 1]
                    if s is not None:
                        letters.append(2 * s)
                    c = act[c][x]
            relators.append(Word(tuple(letters)))
    derived = simplify_presentation(Presentation(tuple(names), tuple(relators)))
    evidence = [f"commutator subgroup by Reidemeister-Schreier over the {index} elements "
                f"of the abelianization: {len(names)} Schreier generators, "
                f"{derived.ngens} after Tietze"]
    if not derived.ngens:
        evidence.append("commutator subgroup is trivial")
        return DerivedOrder(index, False, tuple(evidence))
    ab = abelianization(derived)
    nontrivial = ab != AbelianGroup.trivial()
    if nontrivial:
        evidence.append(f"commutator subgroup has abelianization {ab}: group is nonabelian")
        if ab.order() is None:
            return DerivedOrder(None, True, tuple(evidence))
    result = coset_enumerate(derived, (), max_cosets)
    if not result.completed:
        evidence.append(f"commutator subgroup enumeration inconclusive: table cap "
                        f"{max_cosets} exhausted ({result.allocated} cosets allocated)")
        return DerivedOrder(None, nontrivial, tuple(evidence))
    evidence.append(f"commutator subgroup enumerated: order {result.index} "
                    f"({result.allocated} cosets allocated, cap {max_cosets})")
    return DerivedOrder(index * result.index, result.index > 1, tuple(evidence))


def _generator_word(images: list[int]) -> Word:
    """A word whose image is 1 in Z, from the generators' images, whose gcd is 1.

    The first generator mapping to +-1 when there is one; otherwise the
    product of x_j^(u_j) with sum(u_j * c_j) = 1, by extended Euclid folded
    over the images.
    """
    for j, c in enumerate(images):
        if abs(c) == 1:
            return Word.gen(j)
    g, coefficients = 0, []
    for c in images:
        # invariant: r = s * g + t * c for both rows
        r0, r1, s0, s1, t0, t1 = g, c, 1, 0, 0, 1
        while r1:
            q = r0 // r1
            r0, r1, s0, s1, t0, t1 = r1, r0 - q * r1, s1, s0 - q * s1, t1, t0 - q * t1
        g, coefficients = r0, [s0 * u for u in coefficients] + [t0]
    return Word(tuple(x for j, u in enumerate(coefficients) for x in Word.gen(j, g * u).letters))


def cyclic_subgroup_verdict(p: Presentation, max_cosets: int) -> Verdict:
    """Decide whether a group with abelianization Z is Z, by one coset enumeration.

    Let g be a word whose image generates G^ab = Z (read off the Smith
    column transform, `snf.cokernel_map`).  If [G : <g>] = 1, G is cyclic,
    so abelian and equal to G^ab.  If G is Z, the map G -> G^ab is an
    isomorphism, so g generates G.  Hence G is Z exactly when the index is
    1, and an index N > 1 refutes it.  The enumeration is over the subgroup
    <g> (Holt-Eick-O'Brien 2005, ch. 5); past the cap the verdict is
    inconclusive.
    """
    factors, images = cokernel_map(exponent_matrix(p), p.ngens)
    if factors != (0,):
        raise ValueError("the abelianization is not Z")
    g = _generator_word([image[0] for image in images])
    name = format_word(g, p.generators)
    result = coset_enumerate(p, (g,), max_cosets)
    if not result.completed:
        return Verdict(Status.INCONCLUSIVE, (
            f"index of the subgroup generated by {name} inconclusive: table cap "
            f"{max_cosets} exhausted ({result.allocated} cosets allocated)",))
    fact = (f"{name} maps to a generator of the abelianization Z; the subgroup it "
            f"generates has index {result.index} ({result.allocated} cosets allocated, "
            f"cap {max_cosets})")
    if result.index == 1:
        return Verdict(Status.ISOMORPHIC, (fact, "group is cyclic, hence isomorphic to Z"))
    return Verdict(Status.NOT_ISOMORPHIC, (
        fact, f"a group isomorphic to Z would be generated by {name}: index {result.index} "
              f"refutes it"))


@dataclass(frozen=True)
class GroupDecision:
    """`decide_group`'s verdict, the group order it found, and whether G' gave it."""
    verdict: Verdict
    order: int | None
    derived: bool


_NONABELIAN = "nonabelian group cannot be isomorphic to an abelian target"


def decide_group(p: Presentation, target: AbelianGroup, bounds: Bounds = DEFAULT_BOUNDS,
                 fallbacks: Iterable[tuple[str, Presentation]] = ()) -> GroupDecision:
    """Decide whether a group whose abelianization is the target is the target.

    `p` presents the group; `fallbacks` lazily yields (name, presentation)
    pairs of it, each enumerated only after the one before capped, its facts
    prefixed `on <name>: `.  A finite target is settled by the order (equal
    to the abelianization's, the group is abelian), Z by the index of one
    cyclic subgroup (`cyclic_subgroup_verdict`).  When all cap, the
    commutator subgroup (`commutator_subgroup_order`), or Knuth-Bendix and
    the quotient witness, run once, on `p`.  The verdict assumes the
    abelianization check of `verify_abelian_isomorphism`; the order does not.
    """
    evidence: list[str] = []
    attempts = chain([("", p)], ((f"on {name}: ", q) for name, q in fallbacks))
    order, nonabelian, derived = None, False, False

    def decision(status: Status, *facts: str) -> GroupDecision:
        return GroupDecision(Verdict(status, tuple(evidence) + facts), order, derived)

    target_order = target.order()
    if target_order is not None:
        for prefix, q in attempts:
            result = coset_enumerate(q, (), bounds.max_cosets)
            evidence.extend(prefix + fact for fact in result.evidence())
            if result.completed:
                order = result.index
                break
        else:
            route = commutator_subgroup_order(p, bounds.max_cosets)
            evidence.extend(route.evidence)
            order, nonabelian, derived = route.order, route.nonabelian, route.order is not None
        if order == target_order:
            return decision(Status.ISOMORPHIC, f"group order {order} equals abelianization "
                            f"order: group is abelian, hence isomorphic to {target}")
        if order is not None:
            return decision(Status.NOT_ISOMORPHIC,
                            f"group order {order} != {target_order} = |target|")
        if nonabelian:
            return decision(Status.NOT_ISOMORPHIC, _NONABELIAN)
    else:
        if target == AbelianGroup.free(1):
            for prefix, q in attempts:
                cyclic = cyclic_subgroup_verdict(q, bounds.max_cosets)
                evidence.extend(prefix + fact for fact in cyclic.evidence)
                if cyclic.status is not Status.INCONCLUSIVE:
                    return decision(cyclic.status)
        cert = certify_abelian(p, bounds.max_rules)
        evidence.extend(cert.evidence)
        if cert.status is Status.ISOMORPHIC:
            return decision(Status.ISOMORPHIC,
                            f"abelian group with abelianization {target}: isomorphic")
        if cert.status is Status.NOT_ISOMORPHIC:
            return decision(Status.NOT_ISOMORPHIC, _NONABELIAN)
        witness = nonabelian_quotient_witness(p, min(bounds.max_cosets, 20_000))
        if witness is not None:
            return decision(Status.NOT_ISOMORPHIC, witness, _NONABELIAN)
    return decision(Status.INCONCLUSIVE, "bounds exhausted without a decision")


def verify_abelian_isomorphism(p: Presentation, target: AbelianGroup,
                               bounds: Bounds = DEFAULT_BOUNDS,
                               fallbacks: Iterable[tuple[str, Presentation]] = ()) -> Verdict:
    """Decide whether the presented group is isomorphic to the abelian target:
    the abelianization must equal it, then `decide_group` decides on `p`
    (typically simplified), on `fallbacks` (the raw one) only after a cap,
    and after all cap by the commutator route or Knuth-Bendix on `p`."""
    ab = abelianization(p)
    if ab != target:
        return Verdict(Status.NOT_ISOMORPHIC, (f"abelianization is {ab}, target is {target}",))
    verdict = decide_group(p, target, bounds, fallbacks).verdict
    return Verdict(verdict.status, (f"abelianization matches target {target}",) + verdict.evidence)
