"""Decision procedures built from the bounded engines.

Every procedure here is bounded, deterministic, and returns a Verdict whose
evidence lists the facts actually established.  Inconclusive is a first-class
outcome: no bounded run is ever silently converted into a yes or a no.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .coset import coset_enumerate
from .presentations import AbelianGroup, Presentation, abelianization, simplify_presentation
from .rewriting import knuth_bendix
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

    def __str__(self) -> str:
        return self.status.value


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


def verify_abelian_isomorphism(p: Presentation, target: AbelianGroup,
                               bounds: Bounds = DEFAULT_BOUNDS) -> Verdict:
    """Decide whether the presented group is isomorphic to the abelian target.

    Steps: (a) abelianization must equal the target; (b) finite targets are
    settled by coset enumeration of the total order (a group whose order
    equals its abelianization's order is abelian); (c) infinite targets need
    an abelianness certificate; (d) otherwise the verdict is inconclusive,
    unless a finite nonabelian quotient witnesses a refutation.
    """
    ab = abelianization(p)
    if ab != target:
        return Verdict(Status.NOT_ISOMORPHIC,
                       (f"abelianization is {ab}, target is {target}",))
    evidence = [f"abelianization matches target {target}"]

    target_order = target.order()
    if target_order is not None:
        result = coset_enumerate(p, (), bounds.max_cosets)
        if result.completed:
            if result.index == target_order:
                evidence.extend(result.evidence())
                evidence.append(f"group order {result.index} equals abelianization order: "
                                f"group is abelian, hence isomorphic to {target}")
                return Verdict(Status.ISOMORPHIC, tuple(evidence))
            evidence.extend(result.evidence())
            evidence.append(f"group order {result.index} != {target_order} = |target|")
            return Verdict(Status.NOT_ISOMORPHIC, tuple(evidence))
        evidence.extend(result.evidence())
    else:
        cert = certify_abelian(p, bounds.max_rules)
        evidence.extend(cert.evidence)
        if cert.status is Status.ISOMORPHIC:
            evidence.append(f"abelian group with abelianization {target}: isomorphic")
            return Verdict(Status.ISOMORPHIC, tuple(evidence))
        if cert.status is Status.NOT_ISOMORPHIC:
            evidence.append("nonabelian group cannot be isomorphic to an abelian target")
            return Verdict(Status.NOT_ISOMORPHIC, tuple(evidence))

    witness = nonabelian_quotient_witness(p, min(bounds.max_cosets, 20_000))
    if witness is not None:
        evidence.append(witness)
        evidence.append("nonabelian group cannot be isomorphic to an abelian target")
        return Verdict(Status.NOT_ISOMORPHIC, tuple(evidence))
    evidence.append("bounds exhausted without a decision")
    return Verdict(Status.INCONCLUSIVE, tuple(evidence))
