"""Decision procedures built from the bounded engines.

Every procedure here is bounded, deterministic, and returns a Verdict whose
evidence lists the facts actually established.  Inconclusive is a first-class
outcome: no bounded run is ever silently converted into a yes or a no.

`decide_group` alone turns presentations of one group into an order or an
index, in one order: the index test on the simplified presentation, on the
raw one only after a cap, then on the first one Reidemeister-Schreier step
(the commutator subgroup or, for infinite targets, the kernel check), and
Knuth-Bendix last, for an infinite target both left open.
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


def certify_abelian(p: Presentation, max_rules: int) -> Verdict:
    """Try to certify that the presented group is abelian by rewriting.

    Eliminates redundant generators by Tietze moves, then runs bounded
    Knuth-Bendix completion under shortlex and reduces every commutator of
    the remaining generators.  All commutators reducing to the empty
    word certifies abelianness even if completion was cut short (each rule
    is a consequence of the relators).  A confluent system together with an
    irreducible commutator refutes it.  Anything else is inconclusive.
    """
    work = simplify_presentation(p) if p.ngens > 1 else p
    notes = []
    if work.ngens < p.ngens:
        notes.append(f"eliminated {p.ngens - work.ngens} redundant generators "
                     f"before rewriting ({work.ngens} remain)")
    if work.ngens <= 1:
        return Verdict(Status.ISOMORPHIC,
                       tuple(notes) + ("at most one generator remains: abelian by inspection",))

    system = knuth_bendix(work, max_rules)
    pending = [(i, j) for i in range(work.ngens) for j in range(i + 1, work.ngens)
               if system.reduce(commutator(Word.gen(i), Word.gen(j)).letters) != ()]
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


def _schreier_kernel(p: Presentation, factors: tuple[int, ...], images: list[tuple[int, ...]],
                     max_cosets: int) -> tuple[int, Presentation] | None:
    """N = ker(G -> Q = Z_f1 + ... + Z_fm), `images` the generators' coordinates.

    The cosets of N are the elements of Q, so Q's regular action is N's coset
    table: no enumeration.  Over a breadth-first Schreier transversal,
    rewriting every conjugate t r t^-1 (r a relator) presents N on |Q|(n-1)+1
    Schreier generators (Magnus-Karrass-Solitar 1966, 2.3; Holt-Eick-O'Brien
    2005, 2.5).  Returns their count and the Tietze-simplified presentation,
    or None when they and the |Q| transversal rows exceed `max_cosets`.
    """
    index, n = prod(factors), p.ngens
    if index * n + 1 > max_cosets:
        return None
    # breadth-first transversal: act[c][x] is coset c times letter x, and a
    # tree entry (c, x) is the one that first reached its coset
    moves = [tuple(-y % q if x & 1 else y for y, q in zip(images[x >> 1], factors))
             for x in range(2 * n)]
    zero = (0,) * len(factors)
    coset_of, elements, act, tree = {zero: 0}, [zero], [], set()
    for c, element in enumerate(elements):
        row = []
        for x, move in enumerate(moves):
            step = tuple((e + y) % q for e, y, q in zip(element, move, factors))
            d = coset_of.get(step)
            if d is None:
                d = coset_of[step] = len(elements)
                elements.append(step)
                tree.add((c, x))
            row.append(d)
        act.append(row)
    # Schreier generator s(c, g) = t_c g t_cg^-1; it is freely 1 on a tree edge
    schreier = {}
    for c, row in enumerate(act):
        for g in range(n):
            if (c, 2 * g) not in tree and (row[2 * g], 2 * g + 1) not in tree:
                schreier[c, g] = len(schreier)
    # t_c r t_c^-1 read as a path from c: g^-1 at coset c steps back along s(cg^-1, g)
    relators = []
    for r in p.relators:
        for start in range(index):
            c, letters = start, []
            for x in r.letters:
                d = act[c][x]
                s = schreier.get((d if x & 1 else c, x >> 1))
                if s is not None:
                    letters.append(2 * s + (x & 1))
                c = d
            relators.append(Word(tuple(letters)))
    names = tuple(f"s{c}_{g}" for c, g in schreier)
    return len(names), simplify_presentation(Presentation(names, tuple(relators)))


def commutator_subgroup_order(p: Presentation, max_cosets: int) -> DerivedOrder:
    """|G| = |G^ab| * |G'| from a presentation of the commutator subgroup G'.

    Needs a finite abelianization A, with G -> A read off the Smith column
    transform; G' = ker(G -> A) comes from `_schreier_kernel`, and past its
    guard the route does not run.  No generator left means G' = 1.
    Otherwise G' is enumerated at the cap; a nonzero abelianization of G'
    shows G' != 1 even when that enumeration caps or is skipped.
    """
    torsion, images = cokernel_map(exponent_matrix(p), p.ngens)
    kernel = None if 0 in torsion else _schreier_kernel(p, torsion, images, max_cosets)
    if kernel is None:
        return DerivedOrder(None, False, ())
    index, (count, derived) = prod(torsion), kernel
    evidence = [f"commutator subgroup by Reidemeister-Schreier over the {index} elements "
                f"of the abelianization: {count} Schreier generators, "
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


def nonabelian_quotient_witness(p: Presentation, max_cosets: int) -> str | None:
    """Refute abelianness by the abelianization of a finite-index kernel.

    Let G^ab = Z^r + T.  For k = 2..5, N = ker(G -> Z_k^r + T), the free
    coordinates read modulo k, comes from `_schreier_kernel`: no coset
    enumeration.  An abelian G is G^ab, whose kernel is (kZ)^r = Z^r, so any
    other abelianization of N shows G nonabelian.  Stops at the first kernel
    past the guard.
    """
    factors, images = cokernel_map(exponent_matrix(p), p.ngens)
    expected = AbelianGroup.free(factors.count(0))
    for k in (2, 3, 4, 5):
        quotient = tuple(q or k for q in factors)
        kernel = _schreier_kernel(p, quotient, images, max_cosets)
        if kernel is None:
            break
        count, presentation = kernel
        ab = abelianization(presentation)
        if ab != expected:
            return (f"kernel of the map onto {AbelianGroup.of_orders(*quotient)} by Reidemeister-"
                    f"Schreier ({count} Schreier generators, {presentation.ngens} after Tietze) "
                    f"has abelianization {ab}; an abelian group would give {expected}")
    return None


def _generator_word(images: list[int]) -> Word:
    """A word of image 1 in Z, from the generators' images (gcd 1): a generator
    of image +-1 if any, else prod x_j^(u_j) with sum(u_j * c_j) = 1, by
    extended Euclid folded over the images."""
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


@dataclass(frozen=True)
class GroupDecision:
    """A verdict, the group order found (finite abelianization), and whether G' gave it."""
    verdict: Verdict
    order: int | None
    derived: bool


def subgroup_index_test(p: Presentation, ab: AbelianGroup, max_cosets: int) -> GroupDecision:
    """Decide whether G is its abelianization `ab` = Z^r + T, r <= 1, by one coset enumeration.

    H is 1 when r = 0, else <g> with g onto a generator of Z = ab/T (read off
    `snf.cokernel_map`).  H meets G' = ker(G -> ab) trivially, so
    [G : H] = |T| * |G'|: G is ab exactly when the index is |T|, which for
    r = 0 is the order, returned as such.  Enumeration over H:
    Holt-Eick-O'Brien 2005, ch. 5; past the cap it is inconclusive.
    """
    if ab.free_rank > 1:
        raise ValueError("the abelianization has free rank above 1")
    torsion, g = ab.torsion, None
    if ab.free_rank:
        g = _generator_word([image[-1] for image in cokernel_map(exponent_matrix(p), p.ngens)[1]])
    result = coset_enumerate(p, () if g is None else (g,), max_cosets)
    index, expected = result.index, prod(torsion)
    status = (Status.INCONCLUSIVE if index is None else
              Status.ISOMORPHIC if index == expected else Status.NOT_ISOMORPHIC)
    if g is None:
        return GroupDecision(Verdict(status, tuple(result.evidence())), index, False)
    name = format_word(g, p.generators)
    if index is None:
        return GroupDecision(Verdict(status, (
            f"index of the subgroup generated by {name} inconclusive: table cap "
            f"{max_cosets} exhausted ({result.allocated} cosets allocated)",)), None, False)
    if status is Status.ISOMORPHIC:
        conclusion = (f"index {index} = |{AbelianGroup(0, torsion)}|: group is abelian, hence "
                      f"isomorphic to {ab}" if torsion else "group is cyclic, hence isomorphic to Z")
    else:
        claim = f"give index {expected}" if torsion else f"be generated by {name}"
        conclusion = f"a group isomorphic to {ab} would {claim}: index {index} refutes it"
    onto = f"{ab} modulo its torsion" if torsion else "the abelianization Z"
    return GroupDecision(Verdict(status, (
        f"{name} maps to a generator of {onto}; the subgroup it generates has index {index} "
        f"({result.allocated} cosets allocated, cap {max_cosets})", conclusion)), None, False)


_NONABELIAN = "nonabelian group cannot be isomorphic to an abelian target"


def decide_group(p: Presentation, target: AbelianGroup, bounds: Bounds = DEFAULT_BOUNDS,
                 fallbacks: Iterable[tuple[str, Presentation]] = ()) -> GroupDecision:
    """Decide whether a group whose abelianization is the target is the target.

    `p` presents the group; `fallbacks` lazily yields (name, presentation)
    pairs of it, each enumerated only after the one before capped, its facts
    prefixed `on <name>: `.  A target Z^r + T, r <= 1, is settled by
    `subgroup_index_test`.  When all cap, or r >= 2, one Reidemeister-Schreier
    step runs once, on `p`: `commutator_subgroup_order` (finite targets) or
    the kernel check `nonabelian_quotient_witness`, then Knuth-Bendix.  The
    verdict assumes the abelianization check of `verify_abelian_isomorphism`;
    the order does not.
    """
    evidence: list[str] = []
    attempts = chain([("", p)], ((f"on {name}: ", q) for name, q in fallbacks))
    order, nonabelian, derived = None, False, False

    def decision(status: Status, *facts: str) -> GroupDecision:
        return GroupDecision(Verdict(status, tuple(evidence) + facts), order, derived)

    for prefix, q in attempts if target.free_rank <= 1 else ():
        test = subgroup_index_test(q, target, bounds.max_cosets)
        evidence.extend(prefix + fact for fact in test.verdict.evidence)
        if test.verdict.status is not Status.INCONCLUSIVE:
            if target.free_rank:
                return decision(test.verdict.status)
            order = test.order
            break
    target_order = target.order()
    if target_order is not None:
        if order is None:
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
        witness = nonabelian_quotient_witness(p, bounds.max_cosets)
        if witness is not None:
            return decision(Status.NOT_ISOMORPHIC, witness, _NONABELIAN)
        cert = certify_abelian(p, bounds.max_rules)
        evidence.extend(cert.evidence)
        if cert.status is Status.ISOMORPHIC:
            return decision(Status.ISOMORPHIC,
                            f"abelian group with abelianization {target}: isomorphic")
        if cert.status is Status.NOT_ISOMORPHIC:
            return decision(Status.NOT_ISOMORPHIC, _NONABELIAN)
    return decision(Status.INCONCLUSIVE, "bounds exhausted without a decision")


def verify_abelian_isomorphism(p: Presentation, target: AbelianGroup,
                               bounds: Bounds = DEFAULT_BOUNDS,
                               fallbacks: Iterable[tuple[str, Presentation]] = ()) -> Verdict:
    """Decide whether the presented group is isomorphic to the abelian target:
    the abelianization must equal it, then `decide_group` decides on `p`
    (typically simplified), on `fallbacks` (the raw one) only after a cap,
    and after all cap by one Reidemeister-Schreier step on `p`."""
    ab = abelianization(p)
    if ab != target:
        return Verdict(Status.NOT_ISOMORPHIC, (f"abelianization is {ab}, target is {target}",))
    verdict = decide_group(p, target, bounds, fallbacks).verdict
    return Verdict(verdict.status, (f"abelianization matches target {target}",) + verdict.evidence)
