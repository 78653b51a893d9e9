"""Builtins and JSON scenario files: every command is checked and run here.

Builtins reproduce the reference configurations and the paper's claims:

* ``nodal d1= d2= [k= knot=]``      two plane curves; surgery needs d1=1
* ``rational p= q= [k= knot=]``     a (p,q) curve and a ruling sphere
* ``spheres m= n=``                 two sphere families (no invariant here)
* ``tori m= n= [k= knot=]``         the symplectic two-torus configuration
* ``theorem-1-1 case=i|ii|iii ...`` the full knotted-family pipeline
* ``theorem-7-2 m= n= k= count=``   the branched-cover action certificate
* ``surgery case=F1|F2|F3 ...``    one surgery, by the builtin of its case
* ``alexander braids= | count=``    Alexander polynomials, or the family's
* ``distinguish braids= [m= n=]``   two surgeries on tori compared
* ``snf matrix=``                   Smith normal form with transforms

``BUILTINS`` maps each name to its runner.  Nodal, rational and tori run the
surgery pipeline when ``k=`` or ``knot=`` is given (twist 0, trefoil
``B2: 1 1 1`` by default).  ``take_params`` is the one check of every input
field: builtin params from argv and JSON, and each block of a scenario file.
``surgery`` and scenario ``case`` blocks check a case's tag, fields (by the
specs of its builtin) and twist in one call of ``_take_case``, and
``_admit`` alone decides whether a case describes the surgery at its double
point.  All of it runs before any computation.

A scenario file is a JSON object `{"bounds": {...}, "checks": [entry, ...]}`
where each entry either names a builtin (`{"builtin": ..., "params": {...}}`)
or describes a configuration inline, checked by ``_configuration_lines`` as a
configuration builtin is; see the README for the schema.  A
refusal reads ``<where>: <block>: <rule>``: the file for the top level,
``bounds`` and each ``checks[i]``, and ``checks[i]`` for the blocks inside.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from functools import partial
from math import gcd

from .actions import build_cover_plan, exotic_action_certificate
from .configurations import (AmbientManifold, Configuration, SurfaceComponent,
                             complement_h1, meridian_relations, spheres_presentation,
                             tori_presentation)
from .alexander import alexander_of_braid, coefficient_multiset, knot_family
from .knots import BraidWord, knot_group_from_braid, parse_int
from .presentations import AbelianGroup, Presentation, abelianization, exponent_matrix, \
    parse_presentation
from .reports import CITED, FAIL, INCONCLUSIVE, PASS, CheckLine, Report, line_from_verdict
from .snf import cokernel_invariants, mat_mul, smith_normal_form
from .surgery import CASE_FIELDS, CaseParams, SurgerySpec, case_presentation, \
    check_case_hypothesis, surgered_components, surgered_presentation, verify_group_preserved
from .sw import distinguish, family_report
from .verify import Bounds, DEFAULT_BOUNDS, decide_group, verify_abelian_isomorphism
from .words import Word, commutator


class ParamError(ValueError):
    """Bad builtin parameters; reported before any computation."""


class ScenarioError(ValueError):
    """Bad scenario file; message carries position or field diagnostics."""


# -- builtin configurations --------------------------------------------------

def nodal_configuration(d1: int, d2: int) -> Configuration:
    """Two smooth plane curves of degrees d1, d2 in general position."""
    ambient = AmbientManifold("CP2", True, ((1,),), ("h",))
    comps = (SurfaceComponent("C1", (d1 - 1) * (d1 - 2) // 2, (d1,)),
             SurfaceComponent("C2", (d2 - 1) * (d2 - 2) // 2, (d2,)))
    points = tuple((0, 1, 1) for _ in range(d1 * d2))
    mu1, mu2 = Word.gen(0), Word.gen(1)
    # abelian by the nodal-curve theorem; the one relation is d1*mu1 + d2*mu2 = 0
    pi1 = Presentation(("mu1", "mu2"),
                       (mu1 ** d1 * mu2 ** d2, commutator(mu1, mu2)),
                       (("mu1", mu1), ("mu2", mu2)))
    return Configuration(ambient, comps, points, pi1, symplectic_positive=True)


def rational_configuration(p: int, q: int) -> Configuration:
    """A (p,q) curve and a (1,0) ruling sphere in the quadric surface."""
    ambient = AmbientManifold("P1xP1", True, ((0, 1), (1, 0)), ("A", "B"))
    comps = (SurfaceComponent("C1", (p - 1) * (q - 1), (p, q)),
             SurfaceComponent("C2", 0, (1, 0)))
    points = tuple((0, 1, 1) for _ in range(q))
    mu1, mu2 = Word.gen(0), Word.gen(1)
    # abelian by the generalized nodal-curve theorem; relations q*mu1 = 0,
    # p*mu1 + mu2 = 0
    pi1 = Presentation(("mu1", "mu2"),
                       (mu1 ** q, mu1 ** p * mu2, commutator(mu1, mu2)),
                       (("mu1", mu1), ("mu2", mu2)))
    return Configuration(ambient, comps, points, pi1, symplectic_positive=True)


def spheres_configuration(m: int, n: int) -> Configuration:
    """Connected surfaces of classes (m,0) and (0,n) built from sphere families.

    Not symplectic: the classes cannot be represented by connected symplectic
    surfaces, so no canonical nonvanishing invariant is available.
    """
    ambient = AmbientManifold("S2xS2", True, ((0, 1), (1, 0)), ("A", "B"))
    comps = (SurfaceComponent("S_m", 0, (m, 0)),
             SurfaceComponent("S_n", 0, (0, n)))
    points = tuple((0, 1, 1) for _ in range(m * n))
    return Configuration(ambient, comps, points, spheres_presentation(m, n),
                         symplectic_positive=False)


def tori_configuration(m: int, n: int) -> Configuration:
    """The symplectic configuration of two braided tori meeting in m*n points.

    The ambient record models the relevant rank-two sublattice of the fiber
    sum; the complement presentation is the full displayed one.
    """
    ambient = AmbientManifold("X(fiber-sum)", True, ((0, 1), (1, 0)), ("F1", "F2"))
    comps = (SurfaceComponent("T_m", 1, (m, 0)),
             SurfaceComponent("T_n", 1, (0, n)))
    points = tuple((0, 1, 1) for _ in range(m * n))
    return Configuration(ambient, comps, points, tori_presentation(m, n),
                         symplectic_positive=True)


def _configuration(name: str, p: dict) -> Configuration:
    """Builtin `name` at `p`; `<name>_configuration` is looked up as it runs, not at import."""
    return globals()[f"{name}_configuration"](**p)


# -- parameter handling -------------------------------------------------------

# a `take_params` kind is int, str, bool or dict (a JSON object), or [kind]
# for a list of that kind; its name in a refusal, singular and plural
_KIND_NAMES = {int: ("an integer", "integers"), str: ("a string", "strings"),
               bool: ("a boolean", "booleans"), dict: ("an object", "objects")}


def _kind_name(kind, plural: bool = False) -> str:
    if isinstance(kind, list):
        return f"{'lists' if plural else 'a list'} of {_kind_name(kind[0], True)}"
    return _KIND_NAMES[kind][plural]


def _read(value, kind):
    """`value` as `kind`, or None.  An integer is an int or a string that
    `parse_int` reads, as argv gives them; nothing else is converted, so a
    JSON float or boolean is never truncated and a number is not a string."""
    if isinstance(kind, list):
        items = [_read(item, kind[0]) for item in value] if isinstance(value, list) else [None]
        return None if any(item is None for item in items) else items
    if kind is int and isinstance(value, str):
        try:
            return parse_int(value)
        except ValueError:
            return None
    boolean = isinstance(value, bool) and kind is not bool
    return value if isinstance(value, kind) and not boolean else None


def take_params(params: dict, spec: dict[str, tuple]) -> dict:
    """Check params against {name: (kind, default, predicate, description)};
    a default of None makes the field required.

    The one check of every input field: builtin params from argv (strings)
    or JSON, and each block of a scenario file.  Every refusal is listed.
    """
    if not isinstance(params, dict):
        raise ParamError(f"must be {_kind_name(dict)}")
    problems = [f"unknown parameter {key!r}" for key in params if key not in spec]
    out = {}
    for name, (kind, default, predicate, description) in spec.items():
        if name in params:
            value = _read(params[name], kind)
            if value is None:
                problems.append(f"{name} must be {_kind_name(kind)}")
                continue
        elif default is None:
            problems.append(f"missing required parameter {name!r}")
            continue
        else:
            value = default
        if predicate is not None and not predicate(value):
            # a list is named, not quoted: it can be long
            shown = name if isinstance(value, list) else f"{name}={value!r}"
            problems.append(f"{shown} out of range: {description}")
            continue
        out[name] = value
    if problems:
        raise ParamError("; ".join(problems))
    return out


def parse_knot(text: str) -> BraidWord:
    """A braid word whose closure is a knot, or ParamError."""
    try:
        braid = BraidWord.parse(text)
    except ValueError as err:
        raise ParamError(str(err)) from None
    if not braid.is_knot_closure():
        raise ParamError(f"braid {braid.format()} does not close to a knot")
    return braid


# twist and knot of the surgery pipeline, which nodal, rational and tori run
# when either is given
SURGERY_PARAMS = {"k": (int, 0, None, ""), "knot": (str, "B2: 1 1 1", None, "")}
_DEGREE = (int, None, lambda v: v >= 1, "degree >= 1")
_M = (int, None, lambda v: v >= 1, "m >= 1")
_N = (int, None, lambda v: v >= 1, "n >= 1")
_COUNT = (int, 10, lambda v: v >= 1, "count >= 1")
EXAMPLE_PARAMS = {
    "nodal": {"d1": _DEGREE, "d2": _DEGREE, **SURGERY_PARAMS},
    "rational": {"p": (int, None, lambda v: v >= 1, "p >= 1"),
                 "q": (int, None, lambda v: v >= 1, "q >= 1"), **SURGERY_PARAMS},
    "spheres": {"m": _M, "n": _N},
    "tori": {"m": _M, "n": _N, **SURGERY_PARAMS},
}

# surgery case tag -> the builtin that runs it, its parameters in the order of
# the case's `CASE_FIELDS`, and its fixed parameters (F1 is nodal with d1=1);
# `_CASE_OF` maps each of these builtins back to its tag
SURGERY_CASES = {"F1": ("nodal", ("d2",), {"d1": 1}),
                 "F2": ("rational", ("p", "q"), {}),
                 "F3": ("tori", ("m", "n"), {})}
_CASE_OF = {builtin: tag for tag, (builtin, _, _) in SURGERY_CASES.items()}
# the one rule for a case tag, at argv's `case=` and a case block's "tag"
_CASE_TAG = (str, None, lambda v: v.upper() in SURGERY_CASES, "one of " + ", ".join(
    f"{tag} (with {' '.join(f'{field}=' for field in fields)})"
    for tag, fields in CASE_FIELDS.items()))


def _default(spec: tuple, value) -> tuple:
    """A `take_params` spec with `value` for its default."""
    return (spec[0], value) + spec[2:]


def _take_case(params: dict, key: str, specs: dict) -> tuple[CaseParams, dict]:
    """One `take_params` call on the case tag at `key`, `specs`, the tag's
    fields (by their builtin's specs) and its twist `k`: the case and the
    checked parameters."""
    if key not in params:
        raise ParamError(f"missing required parameter {key!r}: {_CASE_TAG[3]}")
    tag = params[key]
    if not (isinstance(tag, str) and tag.upper() in SURGERY_CASES):
        # refused by the tag rule alone: an unknown tag names no fields
        take_params({key: tag}, {key: _CASE_TAG})
    tag = tag.upper()
    builtin, names, _ = SURGERY_CASES[tag]
    fields = {field: EXAMPLE_PARAMS[builtin][name] for field, name in zip(CASE_FIELDS[tag], names)}
    p = take_params(params, {key: _CASE_TAG, **specs, **fields, "k": SURGERY_PARAMS["k"]})
    return CaseParams(tag, p["k"], **{field: p[field] for field in fields}), p


def _admit(case: CaseParams, config: Configuration, point: int, twist: int) -> None:
    """The one rule for whether `case` describes the surgery with `twist` at
    double point `point` of `config`, checked before any computation: its
    group claim holds only for its own twist and for its base relations on
    the meridians of the point's two components.  With two components, equal
    lattices give the case's target as the complement H1."""
    if len(config.components) != 2:
        raise ParamError(f"case {case.describe()} needs a two-component configuration, "
                         f"not {len(config.components)} components")
    if case.k != twist:
        raise ParamError(f"case k={case.k} differs from twist {twist}")
    if not config.ambient.simply_connected:
        raise ParamError(f"case {case.describe()} needs a simply connected ambient manifold")
    a, b, _ = config.double_points[point]
    base, meridians = exponent_matrix(case.base_presentation()), meridian_relations(config, (a, b))
    # lattices L1, L2 are equal when Z^2 / L1, Z^2 / L2 and Z^2 / (L1 + L2)
    # are isomorphic: a surjection between isomorphic finitely generated
    # abelian groups is injective
    if not (cokernel_invariants(base, 2) == cokernel_invariants(base + meridians, 2)
            == cokernel_invariants(meridians, 2)):
        raise ParamError(f"case {case.describe()} does not match the meridian relations "
                         f"at double point {point}")


def _title(name: str, ordered: list[tuple[str, object]]) -> str:
    return " ".join([name] + [f"{k}={v}" for k, v in ordered])


# -- builtin pipelines --------------------------------------------------------

def _surgery_lines(spec: SurgerySpec, case: CaseParams | None,
                   bounds: Bounds) -> list[CheckLine]:
    """One surgery's checks: with a case, its hypothesis and, when that holds,
    the preserved group and both paths' cross-validation; then, unless the
    hypothesis failed, the embedding tags."""
    tags = CheckLine("embedding-tags", PASS, tuple(
        f"component {i + 1}: {c.embedding_tag}"
        for i, c in enumerate(surgered_components(spec))))
    if case is None:
        return [tags]
    hypothesis = check_case_hypothesis(case)
    lines = [CheckLine("hypothesis", PASS if hypothesis else FAIL,
                       (f"{case.describe()}: arithmetic condition "
                        f"{'holds' if hypothesis else 'fails'}",))]
    if not hypothesis:
        lines.append(CheckLine("group-preserved", FAIL,
                               ("refused: no claim is made when the hypothesis fails",)))
        return lines
    raw_knot = knot_group_from_braid(spec.knot)
    knot_data = raw_knot.simplified()
    verdict = verify_group_preserved(case, knot_data, bounds, raw_knot)
    lines.append(line_from_verdict("group-preserved", verdict))

    # cross-validation: both construction paths built on the meridian-kept
    # simplification, their orders decided as in group-preserved; the target
    # is finite, so no raw knot group is retried
    paths = {"amalgam": surgered_presentation(case.base_presentation(), knot_data, case.k),
             "collapsed": case_presentation(case, knot_data)}
    ab1, ab2 = map(abelianization, paths.values())
    facts = [f"amalgam abelianization {ab1}, collapsed abelianization {ab2}"]
    agree, capped, target = ab1 == ab2, False, case.target()
    if target.order() is not None:
        decisions = {name: decide_group(path, target, bounds) for name, path in paths.items()}
        orders = [d.order for d in decisions.values()]
        derived = [name for name, d in decisions.items() if d.derived]
        if None in orders:
            facts.append("order comparison skipped: an enumeration hit its cap")
            capped = True
        else:
            facts.append(f"enumerated orders {orders[0]} and {orders[1]}")
            if derived:
                facts.append(f"{' and '.join(derived)} order{'s' if len(derived) > 1 else ''} "
                             f"from the commutator subgroup")
            agree = agree and orders[0] == orders[1]
    verdict = FAIL if not agree else INCONCLUSIVE if capped else PASS
    lines.append(CheckLine("cross-validation", verdict, tuple(facts)))
    lines.append(tags)
    return lines


def _expected_homology(name: str, p: dict) -> AbelianGroup:
    if name == "nodal":
        return AbelianGroup.of_orders(0, gcd(p["d1"], p["d2"]))
    if name == "rational":
        return AbelianGroup.of_orders(p["q"])
    return AbelianGroup.of_orders(p["m"], p["n"])


def _configuration_lines(config: Configuration, expected: dict[str, AbelianGroup],
                         surgery: tuple[SurgerySpec, CaseParams | None] | None,
                         bounds: Bounds) -> list[CheckLine]:
    """A configuration's checks, builtin or inline: `homology` and `group`, each against its
    group in `expected` when given, then those of `surgery`, a (spec, case) pair."""
    lines = []
    if "homology" in expected:
        homology = complement_h1(config)
        lines.append(CheckLine("homology", PASS if homology == expected["homology"] else FAIL,
                               (f"complement H1 = {homology}, expected {expected['homology']}",)))
    if "group" in expected:
        lines.append(line_from_verdict(
            "group", verify_abelian_isomorphism(config.pi1, expected["group"], bounds)))
    if surgery is not None:
        lines.extend(_surgery_lines(*surgery, bounds))
    return lines


def _example_report(name: str, p: dict, surgery_title: list,
                    surgery: tuple[BraidWord, CaseParams] | None, bounds: Bounds) -> Report:
    """The checks of configuration builtin `name` at its checked parameters
    `p`; with `surgery`, a (knot, case) pair, those of its surgery at point 0."""
    config = _configuration(name, p)
    if surgery is not None:
        knot, case = surgery
        _admit(case, config, 0, case.k)
        surgery = (SurgerySpec(config, 0, knot, case.k), case)
    expected = _expected_homology(name, p)
    lines = _configuration_lines(config, {"homology": expected, "group": expected}, surgery, bounds)
    return Report(_title(name, sorted(p.items()) + surgery_title), tuple(lines))


def _run_example(name: str, params: dict, bounds: Bounds) -> Report:
    p = take_params(params, EXAMPLE_PARAMS[name])
    k, knot_text = p.pop("k", 0), p.pop("knot", "")
    if "k" not in params and "knot" not in params:
        return _example_report(name, p, [], None, bounds)
    knot = parse_knot(knot_text)
    tag = _CASE_OF[name]
    names = SURGERY_CASES[tag][1]
    case = CaseParams(tag, k, **{field: p[key] for field, key in zip(CASE_FIELDS[tag], names)})
    surgery_title = [("k", k)] + ([("knot", knot_text)] if "knot" in params else [])
    return _example_report(name, p, surgery_title, (knot, case), bounds)


def _run_surgery(params: dict, bounds: Bounds) -> Report:
    """One twisted surgery, run by the builtin of its case with the case's
    fixed parameters; the knot always shows in the title."""
    case, p = _take_case(params, "case", {"knot": SURGERY_PARAMS["knot"]})
    knot = parse_knot(p["knot"])
    builtin, names, fixed = SURGERY_CASES[case.tag]
    values = {**fixed, **{name: p[field] for field, name in zip(CASE_FIELDS[case.tag], names)}}
    return _example_report(builtin, values, [("k", case.k), ("knot", p["knot"])],
                           (knot, case), bounds)


# theorem-1-1 case -> surgery case tag, default twist, default field values
_THEOREM11_CASES = {"i": ("F1", 0, (2,)), "ii": ("F2", 1, (1, 3)), "iii": ("F3", 1, (3, 2))}


def _run_theorem_1_1(params: dict, bounds: Bounds) -> Report:
    # an unknown case reads no parameters; take_params then refuses it
    tag, twist, defaults = _THEOREM11_CASES.get(str(params.get("case")), ("F1", 0, ()))
    builtin, names, fixed = SURGERY_CASES[tag]
    p = take_params(params, {
        "case": (str, None, lambda v: v in _THEOREM11_CASES, "one of i, ii, iii"),
        # the builtin's own field specs, with this case's defaults
        **{name: _default(EXAMPLE_PARAMS[builtin][name], default)
           for name, default in zip(names, defaults)},
        "k": (int, twist, None, ""),
        "count": _COUNT,
    })
    values = [p[name] for name in names]
    case = CaseParams(tag, p["k"], **dict(zip(CASE_FIELDS[tag], values)))
    if not check_case_hypothesis(case):
        raise ParamError(f"hypothesis of {case.describe()} fails; no claim is made")
    config = _configuration(builtin, {**fixed, **dict(zip(names, values))})
    if len(config.double_points) < 2:
        raise ParamError(f"{case.describe()} gives {len(config.double_points)} double "
                         f"point; a family needs at least two")
    ordered = [(key, p[key]) for key in ("case", *names, "k", "count")]
    lines = list(family_report(config, p["count"], case, bounds).lines())
    lines.append(CheckLine("topological-equivalence", CITED,
                           ("all family members are topologically equivalent to the "
                            "unsurgered configuration (surgery-theoretic result, cited)",)))
    return Report(_title("theorem-1-1", ordered), tuple(lines))


def _run_theorem_7_2(params: dict, bounds: Bounds) -> Report:
    p = take_params(params, {"m": _M, "n": _N, "k": (int, 1, None, ""),
                             "count": (int, 5, lambda v: v >= 2, "count >= 2")})
    m, n = p["m"], p["n"]
    title = _title("theorem-7-2", [(key, p[key]) for key in ("m", "n", "k", "count")])
    config = tori_configuration(m, n)
    plan = build_cover_plan(config, m, n, bounds)
    checks = (exotic_action_certificate(config, m, n, p["k"], p["count"], bounds)
              if plan.verdict == PASS else ())
    return Report(title, (plan, *checks))


def _run_alexander(params: dict, bounds: Bounds) -> Report:
    """The polynomials of the closures of `braids`, or without them of the
    torus knot family K_1 .. K_count."""
    if "braids" in params:
        braids = take_params(params, {"braids": ([str], None, None, "")})["braids"]
        if not braids:
            raise ParamError("alexander needs at least one braid word or 'family count=N'")
        title = "alexander"
        knots = [(f"alexander {braid.format()}", alexander_of_braid(braid))
                 for braid in [parse_knot(text) for text in braids]]
    else:
        count = take_params(params, {"count": _COUNT})["count"]
        title = f"alexander family count={count}"
        knots = [(f"alexander K_{index} {braid.format()}", delta)
                 for index, (braid, _, delta) in enumerate(knot_family(count), start=1)]
    return Report(title, tuple(
        CheckLine(name, PASS, (f"polynomial {delta.format()}",
                               f"coefficient multiset {list(coefficient_multiset(delta))}"))
        for name, delta in knots))


def _run_distinguish(params: dict, bounds: Bounds) -> Report:
    p = take_params(params, {"braids": ([str], None, lambda v: len(v) == 2, "two braid words"),
                             "m": _default(_M, 3), "n": _default(_N, 2)})
    knot1, knot2 = map(parse_knot, p["braids"])
    line = distinguish(knot1, knot2, tori_configuration(p["m"], p["n"]))
    return Report(f"distinguish on tori m={p['m']} n={p['n']}", (line,))


def _run_snf(params: dict, bounds: Bounds) -> Report:
    """The Smith normal form D = U*M*V of `matrix`: rows split by ";",
    entries by spaces."""
    rows = []
    matrix = take_params(params, {"matrix": (str, None, None, "")})["matrix"]
    for chunk in filter(None, map(str.strip, matrix.split(";"))):
        try:
            rows.append([parse_int(tok) for tok in chunk.split()])
        except ValueError:
            raise ParamError(f"bad matrix row {chunk!r}") from None
    if not rows:
        raise ParamError("empty matrix")
    if len({len(row) for row in rows}) > 1:
        raise ParamError("ragged matrix rows")
    d, u, v = smith_normal_form(rows)
    ok = mat_mul(mat_mul(u, rows), v) == d
    diag = [d[i][i] for i in range(min(len(d), len(d[0])))]

    def fmt(mat):
        return "[" + "; ".join(" ".join(str(x) for x in row) for row in mat) + "]"

    return Report("snf", (CheckLine(
        "snf", PASS if ok else FAIL,
        (f"D = {fmt(d)}", f"U = {fmt(u)}", f"V = {fmt(v)}",
         f"diagonal {diag}", f"U*M*V == D: {ok}")),))


# builtin name -> runner(params, bounds)
BUILTINS = {
    **{name: partial(_run_example, name) for name in EXAMPLE_PARAMS},
    "theorem-1-1": _run_theorem_1_1,
    "theorem-7-2": _run_theorem_7_2,
    "surgery": _run_surgery,
    "alexander": _run_alexander,
    "distinguish": _run_distinguish,
    "snf": _run_snf,
}


# the one rule for a builtin name, at `run_builtin` and a scenario entry
_BUILTIN = (str, None, BUILTINS.__contains__, f"one of {', '.join(BUILTINS)}")


def run_builtin(name: str, params: dict, bounds: Bounds = DEFAULT_BOUNDS) -> Report:
    """Execute one builtin; raises ParamError before any computation."""
    if name not in BUILTINS:
        take_params({"builtin": name}, {"builtin": _BUILTIN})
    return BUILTINS[name](params, bounds)


# -- scenario files -----------------------------------------------------------

@contextmanager
def _refusals(where: str, block: str, caught: type[Exception] = ValueError):
    """A `caught` error raised inside is an input error of `block`, read as
    `<where>: <block>: <rule>`; an inner block's refusal passes unchanged."""
    try:
        yield
    except ScenarioError:
        raise
    except caught as err:
        raise ScenarioError(f"{where}: {block}: {err}") from None


def _block(data, spec: dict, where: str, block: str) -> dict:
    """One scenario block checked by one `take_params` call."""
    with _refusals(where, block, ParamError):
        return take_params(data, spec)


# optional text fields: read only when the block gives them
_TEXT = (str, "", None, "")


def _configuration_from_json(data: dict, where: str) -> Configuration:
    """A Configuration from its JSON block and the blocks inside it."""
    c = _block(data, {"ambient": (dict, None, None, ""), "components": ([dict], None, None, ""),
                      "double_points": ([[int]], [], lambda v: all(len(p) == 3 for p in v),
                                        "each double point is [component, component, sign]"),
                      "pi1": _TEXT, "symplectic_positive": (bool, False, None, "")},
               where, "configuration")
    a = _block(c["ambient"], {"name": (str, "ambient", None, ""),
                              "simply_connected": (bool, True, None, ""),
                              "form": ([[int]], None, None, ""), "basis": ([str], [], None, "")},
               where, "ambient")
    components = [_block(comp, {"label": (str, f"C{i + 1}", None, ""),
                                "genus": (int, 0, None, ""), "class": ([int], None, None, "")},
                         where, f"components[{i}]")
                  for i, comp in enumerate(c["components"])]
    if "basis" not in c["ambient"]:
        a["basis"] = [f"A{i + 1}" for i in range(len(a["form"]))]
    with _refusals(where, "configuration"):
        return Configuration(
            AmbientManifold(a["name"], a["simply_connected"], a["form"], a["basis"]),
            tuple(SurfaceComponent(comp["label"], comp["genus"], comp["class"])
                  for comp in components),
            c["double_points"], parse_presentation(c["pi1"]) if "pi1" in data else None,
            c["symplectic_positive"])


def _case_from_json(data: dict, where: str) -> CaseParams:
    """A case block, read as `surgery case=` reads its params."""
    with _refusals(where, "case", ParamError):
        return _take_case(data, "tag", {})[0]


def _run_configuration_entry(entry: dict, where: str, bounds: Bounds) -> list[CheckLine]:
    config = _configuration_from_json(entry["configuration"], where)
    verify = entry.get("verify", {})
    wanted = _block(verify, {"homology": _TEXT, "group": _TEXT}, where, "verify")
    with _refusals(where, "verify"):
        expected = {field: AbelianGroup.parse(wanted[field]) for field in verify}
        if "homology" in expected and not config.ambient.simply_connected:
            raise ParamError("homology needs a simply connected ambient manifold")
        if "group" in expected and config.pi1 is None:
            raise ParamError("group needs a pi1 presentation")
    surgery = None
    if "surgery" in entry:
        s = _block(entry["surgery"], {"point": (int, None, None, ""), "knot": (str, None, None, ""),
                                      "twist": (int, None, None, ""), "case": (dict, {}, None, "")},
                   where, "surgery")
        with _refusals(where, "surgery"):
            # the spec checks the point index
            spec = SurgerySpec(config, s["point"], parse_knot(s["knot"]), s["twist"])
            case = _case_from_json(s["case"], where) if "case" in entry["surgery"] else None
            if case is not None:
                _admit(case, config, spec.point, spec.twist)
        surgery = (spec, case)
    # outside the refusals: a ValueError of the engine is not an input error
    return [CheckLine(f"{where} {line.name}", line.verdict, line.evidence)
            for line in _configuration_lines(config, expected, surgery, bounds)]


def run_scenario_text(text: str, overrides: dict[str, int] | None = None,
                      source: str = "scenario") -> Report:
    """Run a scenario given as JSON text.

    `overrides` maps a field of the scenario's `bounds` ("cosets", "rules")
    to a value that replaces the file's own; the other field keeps the
    file's value, or the default.
    """
    def unique_keys(pairs: list[tuple[str, object]]) -> dict:
        data = {}
        for key, value in pairs:
            if key in data:
                raise ScenarioError(f"{source}: duplicate key {key!r}")
            data[key] = value
        return data

    try:
        data = json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as err:
        raise ScenarioError(f"{source}: line {err.lineno} column {err.colno}: {err.msg}") from None
    top = _block(data, {"bounds": (dict, {}, None, ""), "checks": ([dict], [], None, "")},
                 source, "top level")
    b = _block({**top["bounds"], **(overrides or {})},
               {"cosets": (int, DEFAULT_BOUNDS.max_cosets, None, ""),
                "rules": (int, DEFAULT_BOUNDS.max_rules, None, "")}, source, "bounds")
    try:
        bounds = Bounds(b["cosets"], b["rules"])
    except ValueError as err:
        raise ScenarioError(f"{source}: {err}") from None

    reports: list[Report] = []
    extra_lines: list[CheckLine] = []
    for index, entry in enumerate(top["checks"]):
        where = f"checks[{index}]"
        if "builtin" in entry:
            e = _block(entry, {"builtin": _BUILTIN, "params": (dict, {}, None, "")},
                       source, where)
            with _refusals(where, "params", ParamError):
                reports.append(run_builtin(e["builtin"], e["params"], bounds))
        elif "configuration" in entry:
            _block(entry, {"configuration": (dict, None, None, ""),
                           "verify": (dict, {}, None, ""), "surgery": (dict, {}, None, "")},
                   source, where)
            extra_lines.extend(_run_configuration_entry(entry, where, bounds))
        else:
            raise ScenarioError(f"{source}: {where}: needs 'builtin' or 'configuration'")

    if len(reports) == 1 and not extra_lines:
        return reports[0]
    lines: list[CheckLine] = []
    for rep in reports:
        lines.extend(CheckLine(f"{rep.title} :: {line.name}", line.verdict, line.evidence)
                     for line in rep.lines)
    lines.extend(extra_lines)
    return Report(f"scenario ({len(top['checks'])} entries)", tuple(lines))


def run_scenario(path: str, overrides: dict[str, int] | None = None) -> Report:
    """Run a scenario file; identical parameters give byte-identical reports."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as err:
        raise ScenarioError(f"cannot read scenario {path!r}: {err}") from None
    return run_scenario_text(text, overrides, source=path)
