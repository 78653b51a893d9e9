"""Seeded input generators for the four benchmark workloads.

Every generator takes a ``random.Random`` built from the run's seed and
yields requests forever; a run stops drawing when its time is up.  A
request is a dict with ``kind`` ("cli" for an argv handed to
``dpsurgery.cli.main``, "scenario" for JSON text handed to
``scenarios.run_scenario_text``), the input itself, and the reference
facts the oracle needs (``expect``).  The expected values are derived here
from the input parameters by elementary arithmetic, never by calling the
package.

Requests are drawn in decks (stratified sampling): a deck holds one
request per cell of the input properties that drive the cost, in seeded
order, and the remaining parameters are drawn inside the cell.  Nothing
is filtered on how the program behaves: inputs whose enumerations hit a
cap stay in the population.
"""

from __future__ import annotations

import json
import random
from itertools import count
from math import gcd

WORKLOADS = {
    "theorem-family": "the paper's headline certificates (theorem 1.1 cases i-iii, "
                      "theorem 7.2); Alexander and small-index coset work share the time",
    "surgery-sweep": "random knot braids through single surgeries; coset enumeration "
                     "dominates and latency is heavy-tailed from capped enumerations",
    "alexander-batch": "random knot braids through the Alexander pipeline; Fox "
                       "determinants dominate and the coset engine is never called",
    "config-groups": "scenario JSON over configuration builtins and inline pi1 text; "
                     "large-index coset tables and SNF on large exponent matrices",
}

# Engine caps for surgery-sweep.  At the CLI defaults (100 000 cosets, 500
# rules) one capped request runs for 5-35 s, and one with several capped
# enumerations for minutes, longer than a whole run, so a run's throughput
# would hinge on whether it drew one.  At these caps a capped request costs
# well under a second and a run draws several.  The other workloads never
# approach a cap and run at the defaults.
SURGERY_BOUNDS = ["--bounds-cosets", "500", "--bounds-rules", "200"]


def random_knot_braid(rng: random.Random, strands: int, length: int,
                      tries: int = 200) -> tuple[int, ...]:
    """Random braid word on `strands` strands whose closure is a knot.

    Letters are drawn independently, so a word may cancel in places.  A
    knot closure needs an (s-1)-cycle's parity, so `length` must have the
    parity of strands-1 and be at least strands-1; otherwise ValueError is
    raised at once instead of sampling forever.  After `tries` rejected
    draws the word is built directly: one letter per adjacent transposition
    of a full cycle, padded with squares x, x.
    """
    if strands < 1 or length < strands - 1 or (length - (strands - 1)) % 2:
        raise ValueError(f"no knot closure with {strands} strands and {length} letters")
    if strands == 1:
        return ()

    def letter(i: int) -> int:
        return i if rng.random() < 0.5 else -i

    for _ in range(tries):
        letters = tuple(letter(rng.randint(1, strands - 1)) for _ in range(length))
        if closes_to_knot(strands, letters):
            return letters
    word = [letter(i) for i in range(1, strands)]
    for _ in range((length - (strands - 1)) // 2):
        i = rng.randint(1, strands - 1)
        at = rng.randint(0, len(word))
        x = letter(i)
        word[at:at] = [x, x]
    return tuple(word)


def closes_to_knot(strands: int, letters) -> bool:
    """True when the braid permutation is a single cycle."""
    perm = list(range(strands))
    for x in letters:
        i = abs(x) - 1
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    seen, at = 1, perm[0]
    while at != 0:
        at = perm[at]
        seen += 1
    return seen == strands


def braid_text(strands: int, letters) -> str:
    return f"B{strands}: {' '.join(str(x) for x in letters)}".rstrip()


def _knot_lengths(strands: int, low: int, high: int) -> list[int]:
    return [n for n in range(max(low, strands - 1), high + 1)
            if (n - (strands - 1)) % 2 == 0]


def _decks(rng: random.Random, cells: list):
    """Stratified draw: every cell once per deck, decks in seeded order."""
    while True:
        deck = list(cells)
        rng.shuffle(deck)
        yield from deck


def _strata(tuples: list[tuple], parts: int, key) -> list[list[tuple]]:
    """`tuples` sorted by `key` and cut into `parts` contiguous groups."""
    ordered = sorted(tuples, key=key)
    return [ordered[i * len(ordered) // parts:(i + 1) * len(ordered) // parts]
            for i in range(parts)]


def _target(rank: int, *orders: int) -> dict:
    """A group Z^rank + sum of Z_q, as the oracle expects it."""
    return {"rank": rank, "orders": [q for q in orders if q != 1]}


# Case parameters for surgery-sweep that satisfy the hypothesis, grouped by
# the size of the target group (d for F1), which drives the enumeration cost.
_SURGERY_CASES = {
    "F1": _strata([(d,) for d in range(1, 7)], 3, key=lambda t: t),
    "F2": _strata([(p, q, k) for p in range(1, 6) for q in range(2, 8) for k in (-2, -1, 1, 2, 3)
                   if gcd(p + k, q) == 1], 4, key=lambda t: (t[1], t)),
    "F3": _strata([(m, n, k) for m in range(2, 6) for n in range(1, 6) for k in (-2, -1, 1, 2, 3)
                   if gcd(m, k * n) == 1], 6, key=lambda t: (t[0] * t[1], t)),
}


def surgery_sweep(rng: random.Random):
    """Knot braids on 2-4 strands, 3-12 letters, each with an F1/F2/F3 case.

    Cells are (case tag, parameter group, strands, length); the letters and
    the case parameters are drawn inside each cell.
    """
    cells = [(tag, group, strands, length)
             for tag, groups in _SURGERY_CASES.items() for group in groups
             for strands in (2, 3, 4) for length in _knot_lengths(strands, 3, 12)]
    for tag, group, strands, length in _decks(rng, cells):
        knot = braid_text(strands, random_knot_braid(rng, strands, length))
        params = rng.choice(group)
        if tag == "F1":
            (d,) = params
            args, target = [f"d={d}", "k=0"], _target(1)
        elif tag == "F2":
            p, q, k = params
            args, target = [f"p={p}", f"q={q}", f"k={k}"], _target(0, q)
        else:
            m, n, k = params
            args, target = [f"m={m}", f"n={n}", f"k={k}"], _target(0, m, n)
        argv = (["--format", "machine"] + SURGERY_BOUNDS + ["surgery", f"case={tag}"]
                + args + [f"knot={knot}"])
        yield {"kind": "cli", "argv": argv,
               "expect": {"workload": "surgery-sweep", "target": target}}


def alexander_batch(rng: random.Random):
    """Knot braids on 3-6 strands and 8-40 letters; cells are (strands, length)."""
    cells = [(strands, length) for strands in range(3, 7)
             for length in _knot_lengths(strands, 8, 40)]
    for strands, length in _decks(rng, cells):
        knot = braid_text(strands, random_knot_braid(rng, strands, length))
        yield {"kind": "cli", "argv": ["--format", "machine", "alexander", knot],
               "expect": {"workload": "alexander-batch", "braid": knot}}


# theorem parameters, grouped by the order of the target group, which with
# the family size sets the cost of a run
_THEOREM_II = _strata([(p, q, k) for p in range(1, 4) for q in range(2, 6) for k in (1, -1)
                       if gcd(p + k, q) == 1], 3, key=lambda t: (t[1], t))
_THEOREM_III = _strata([(m, n, k) for m in range(2, 6) for n in range(1, 5) for k in (1, -1)
                        if gcd(m, k * n) == 1], 4, key=lambda t: (t[0] * t[1], t))
_THEOREM_72 = _strata([(m, n, k) for m in range(2, 6) for n in range(1, 5) for k in (1, 2, 3)
                       if gcd(m, n) == 1 and gcd(m, k * n) == 1 and gcd(k, m) == 1],
                      3, key=lambda t: (t[0] * t[1], t))


def theorem_family(rng: random.Random):
    """theorem-1-1 cases i, ii, iii and theorem-7-2.

    Cells are (pipeline, family size, parameter group): sizes 6-10 for
    theorem-1-1 (default 10) and 3-6 for theorem-7-2 (default 5); the case
    parameters satisfy the hypothesis and are drawn inside their group of
    similar target order.
    """
    cells = ([("i", size, None) for size in range(6, 11)]
             + [("ii", size, g) for size in range(6, 11) for g in _THEOREM_II]
             + [("iii", size, g) for size in range(6, 11) for g in _THEOREM_III]
             + [("7-2", size, g) for size in range(3, 7) for g in _THEOREM_72])
    for case, size, group in _decks(rng, cells):
        if case == "i":
            argv = ["theorem-1-1", "case=i", f"d2={rng.randint(2, 6)}"]
            target = _target(1)
        elif case == "ii":
            p, q, k = rng.choice(group)
            argv = ["theorem-1-1", "case=ii", f"p={p}", f"q={q}", f"k={k}"]
            target = _target(0, q)
        elif case == "iii":
            m, n, k = rng.choice(group)
            argv = ["theorem-1-1", "case=iii", f"m={m}", f"n={n}", f"k={k}"]
            target = _target(0, m, n)
        else:
            m, n, k = rng.choice(group)
            argv = ["theorem-7-2", f"m={m}", f"n={n}", f"k={k}"]
            target = _target(0, m, n)
        yield {"kind": "cli", "argv": ["--format", "machine", "verify"] + argv + [f"count={size}"],
               "expect": {"workload": "theorem-family", "theorem": argv[0],
                          "target": target, "count": size}}


def _spheres_pi1(m: int, n: int) -> str:
    """The spheres complement presentation (m + n meridians) in pi1 grammar text."""
    mus = [f"a{i}" for i in range(1, m + 1)]
    nus = [f"b{j}" for j in range(1, n + 1)]
    rels = [f"[{x},{y}]" for x in mus for y in nus]
    rels.append(" ".join(mus))
    rels.append(" ".join(nus))
    rels += [f"{mus[0]} {x}^-1" for x in mus[1:]]
    rels += [f"{nus[0]} {y}^-1" for y in nus[1:]]
    return (f"gens: {' '.join(mus + nus)} ; rels: {' , '.join(rels)} ; "
            f"labels: mu1={mus[0]} mu2={nus[0]} ;")


def _inline_entry(a: int, b: int, two_generators: bool) -> dict:
    """Spheres of classes (a, 0), (0, b) in S2xS2; H1 and pi1 are Z_a + Z_b."""
    if two_generators:
        pi1 = f"gens: x y ; rels: x^{a} , y^{b} , [x,y] ; labels: mu1=x mu2=y ;"
    else:
        pi1 = _spheres_pi1(a, b)
    text = group_text(_target(0, a, b))
    return {"configuration": {
        "ambient": {"name": "S2xS2", "simply_connected": True,
                    "form": [[0, 1], [1, 0]], "basis": ["A", "B"]},
        "components": [{"label": "S_a", "genus": 0, "class": [a, 0]},
                       {"label": "S_b", "genus": 0, "class": [0, b]}],
        "double_points": [[0, 1, 1]] * (a * b),
        "pi1": pi1},
        "verify": {"homology": text, "group": text}}


# Size ladder for the sized entries of config-groups: rung k is an m x n
# table with m = k and n = k or k+1.  A spheres or tori run has m*n cosets
# and its cost grows about as (m*n)^2 (20 x 20 takes about 2 s), so sizes
# are laid out in rounds: each round of scenarios has one entry per rung,
# and every run sees the same spread of table sizes.
_LADDER = range(2, 15)
_SIZED_KINDS = ("spheres", "tori", "inline")


def _light_entry(rng: random.Random) -> tuple[dict, dict]:
    kind = rng.choice(("nodal", "rational", "inline"))
    if kind == "nodal":
        d1, d2 = rng.randint(1, 6), rng.randint(1, 6)
        target = _target(1, gcd(d1, d2))
        return {"builtin": "nodal", "params": {"d1": d1, "d2": d2}}, target
    if kind == "rational":
        p, q = rng.randint(1, 6), rng.randint(1, 8)
        return {"builtin": "rational", "params": {"p": p, "q": q}}, _target(0, q)
    a, b = rng.randint(2, 9), rng.randint(2, 9)
    return _inline_entry(a, b, two_generators=True), _target(0, a, b)


def config_groups(rng: random.Random):
    """Scenarios of one sized entry plus one or two small entries.

    The sized entry is a spheres or tori builtin, or an inline configuration
    whose pi1 is spheres-style grammar text with m + n generators and m*n
    commutators; the kinds rotate over the rungs from round to round.  The
    small entries are nodal or rational builtins or a two-generator inline
    configuration.  Entry order inside a scenario is shuffled.
    """
    for round_index in count():
        rungs = list(_LADDER)
        rng.shuffle(rungs)
        for k in rungs:
            kind = _SIZED_KINDS[(k + round_index) % len(_SIZED_KINDS)]
            m, n = k, k + rng.randint(0, 1)
            if rng.random() < 0.5:
                m, n = n, m
            target = _target(0, m, n)
            if kind == "inline":
                entries = [(_inline_entry(m, n, two_generators=False), target)]
            else:
                entries = [({"builtin": kind, "params": {"m": m, "n": n}}, target)]
            entries += [_light_entry(rng) for _ in range(rng.randint(1, 2))]
            rng.shuffle(entries)
            yield {"kind": "scenario",
                   "text": json.dumps({"checks": [e for e, _ in entries]}),
                   "expect": {"workload": "config-groups",
                              "entries": [{"homology": t, "group": t} for _, t in entries]}}


GENERATORS = {
    "theorem-family": theorem_family,
    "surgery-sweep": surgery_sweep,
    "alexander-batch": alexander_batch,
    "config-groups": config_groups,
}


def requests(workload: str, seed: int):
    """Endless request stream of one workload; the same seed gives the same stream."""
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"))


# -- reference group strings ---------------------------------------------------

def group_text(target: dict) -> str:
    """Invariant-factor form of Z^rank + sum Z_q, written like the CLI prints it."""
    factors = []
    for q in target["orders"]:
        if q == 0:
            continue
        n, p = q, 2
        while n > 1:
            if n % p == 0:
                power = 1
                while n % p == 0:
                    n //= p
                    power *= p
                factors.append((p, power))
            p += 1
    by_prime: dict[int, list[int]] = {}
    for p, power in factors:
        by_prime.setdefault(p, []).append(power)
    for powers in by_prime.values():
        powers.sort(reverse=True)
    depth = max((len(v) for v in by_prime.values()), default=0)
    invariants = []
    for level in range(depth):
        value = 1
        for powers in by_prime.values():
            if level < len(powers):
                value *= powers[level]
        invariants.append(value)
    invariants.sort()
    rank = target["rank"] + sum(1 for q in target["orders"] if q == 0)
    parts = [] if rank == 0 else ["Z" if rank == 1 else f"Z^{rank}"]
    parts += [f"Z_{v}" for v in invariants]
    return " + ".join(parts) if parts else "0"
