"""Builtin example pipelines and JSON scenario files.

Builtins reproduce the library's reference configurations end to end:

* ``nodal d1= d2= [k= knot=]``      two plane curves; surgery needs d1=1
* ``rational p= q= [k= knot=]``     a (p,q) curve and a ruling sphere
* ``spheres m= n=``                 two sphere families (no invariant here)
* ``tori m= n= [k= knot=]``         the symplectic two-torus configuration
* ``theorem-1-1 case=i|ii|iii ...`` the full knotted-family pipeline
* ``theorem-7-2 m= n= k= count=``   the branched-cover action certificate

Nodal, rational and tori run the surgery pipeline when ``k=`` or ``knot=``
is given (twist 0, trefoil ``B2: 1 1 1`` by default).  ``take_params`` and
``parse_knot`` check every parameter, from argv and from JSON alike, before
any computation.

``SURGERY_CASES`` maps a case tag F1/F2/F3 to its builtin, and the
``surgery`` command, the builtins, theorem-1-1 and scenario ``case`` blocks
all build their case with ``surgery_case`` and report with ``_surgery_lines``.

A scenario file is a JSON object `{"bounds": {...}, "checks": [entry, ...]}`
where each entry either names a builtin (`{"builtin": ..., "params": {...}}`)
or describes a configuration inline; see the README for the schema.
"""

from __future__ import annotations

import json
from math import gcd

from .actions import build_cover_plan, exotic_action_certificate
from .configurations import (AmbientManifold, Configuration, SurfaceComponent,
                             complement_h1, meridian_relations, spheres_presentation,
                             tori_presentation)
from .knots import BraidWord, knot_group_from_braid, parse_int
from .presentations import AbelianGroup, Presentation, abelianization, exponent_matrix, \
    parse_presentation
from .reports import CITED, FAIL, INCONCLUSIVE, PASS, CheckLine, Report, line_from_verdict
from .snf import element_order_in_cokernel
from .surgery import CaseParams, SurgerySpec, case_presentation, check_case_hypothesis, \
    on_unsimplified, surgered_components, surgered_presentation, verify_group_preserved
from .sw import family_report
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


BUILTIN_CONFIGURATIONS = {
    "nodal": nodal_configuration,
    "rational": rational_configuration,
    "spheres": spheres_configuration,
    "tori": tori_configuration,
}


# -- parameter handling -------------------------------------------------------

def _integer(value) -> int | None:
    """`value` as an int: an int, or a string that `parse_int` reads, as argv
    gives them.

    None for anything else; a JSON float or boolean is never truncated.
    """
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        try:
            return parse_int(value)
        except ValueError:
            pass
    return None


def take_params(params: dict, spec: dict[str, tuple]) -> dict:
    """Validate params against {name: (kind, default, predicate, description)}.

    The one parameter check of both front ends: argv values arrive as
    strings, scenario JSON values as JSON types.
    """
    problems = []
    for key in params:
        if key not in spec:
            problems.append(f"unknown parameter {key!r}")
    out = {}
    for name, (kind, default, predicate, description) in spec.items():
        if name in params:
            value = params[name]
            if kind is int:
                value = _integer(value)
                if value is None:
                    problems.append(f"{name} must be an integer")
                    continue
            elif kind is str:
                value = str(value)
        else:
            if default is None:
                problems.append(f"missing required parameter {name!r}")
                continue
            value = default
        if predicate is not None and not predicate(value):
            problems.append(f"{name}={value!r} out of range: {description}")
            continue
        out[name] = value
    if problems:
        raise ParamError("; ".join(problems))
    return out


def parse_knot(text) -> BraidWord:
    """A braid word whose closure is a knot, or ParamError."""
    try:
        braid = BraidWord.parse(str(text))
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
EXAMPLE_PARAMS = {
    "nodal": {"d1": _DEGREE, "d2": _DEGREE, **SURGERY_PARAMS},
    "rational": {"p": (int, None, lambda v: v >= 1, "p >= 1"),
                 "q": (int, None, lambda v: v >= 1, "q >= 1"), **SURGERY_PARAMS},
    "spheres": {"m": _M, "n": _N},
    "tori": {"m": _M, "n": _N, **SURGERY_PARAMS},
}

# surgery case tag -> the builtin that runs it, {case field: builtin
# parameter} and fixed builtin parameters (F1 is nodal with d1=1)
SURGERY_CASES = {"F1": ("nodal", {"d": "d2"}, {"d1": 1}),
                 "F2": ("rational", {"p": "p", "q": "q"}, {}),
                 "F3": ("tori", {"m": "m", "n": "n"}, {})}


def surgery_case(builtin: str, params: dict, k: int) -> CaseParams:
    """The k-twisted case of `builtin` at `params`; ParamError if a fixed one differs."""
    tag = next(tag for tag, (name, _, _) in SURGERY_CASES.items() if name == builtin)
    _, fields, fixed = SURGERY_CASES[tag]
    for key, value in fixed.items():
        if params[key] != value:
            raise ParamError(f"surgery on the {builtin} configuration needs {key}={value}")
    return CaseParams(tag, k, **{field: params[name] for field, name in fields.items()})


def _title(name: str, ordered: list[tuple[str, object]]) -> str:
    if not ordered:
        return name
    return name + " " + " ".join(f"{k}={v}" for k, v in ordered)


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
    # simplification, their orders decided as in group-preserved
    builds = {"amalgam": lambda data: surgered_presentation(case.base_presentation(), data,
                                                            case.k),
              "collapsed": lambda data: case_presentation(case, data)}
    paths = {name: build(knot_data) for name, build in builds.items()}
    ab1, ab2 = map(abelianization, paths.values())
    facts = [f"amalgam abelianization {ab1}, collapsed abelianization {ab2}"]
    agree, capped = ab1 == ab2, False
    if case.target().order() is not None:
        decisions = {name: decide_group(paths[name], case.target(), bounds,
                                        on_unsimplified(build, raw_knot))
                     for name, build in builds.items()}
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
        return AbelianGroup.cyclic(p["q"])
    return AbelianGroup.of_orders(p["m"], p["n"])


def _run_example(name: str, params: dict, bounds: Bounds) -> Report:
    p = take_params(params, EXAMPLE_PARAMS[name])
    k, knot_text = p.pop("k", 0), p.pop("knot", "")
    ordered = sorted(p.items())
    case = None
    if "k" in params or "knot" in params:
        knot = parse_knot(knot_text)
        ordered += [("k", k)] + ([("knot", knot_text)] if "knot" in params else [])
        case = surgery_case(name, p, k)
    config = BUILTIN_CONFIGURATIONS[name](**p)

    lines = []
    homology = complement_h1(config)
    expected = _expected_homology(name, p)
    lines.append(CheckLine("homology", PASS if homology == expected else FAIL,
                           (f"complement H1 = {homology}, expected {expected}",)))
    verdict = verify_abelian_isomorphism(config.pi1, expected, bounds)
    lines.append(line_from_verdict("group", verdict))
    ab = abelianization(config.pi1)
    lines.append(CheckLine("h1-matches-abelianization", PASS if ab == homology else FAIL,
                           (f"presentation abelianization {ab}, homology {homology}",)))
    if case is not None:
        lines.extend(_surgery_lines(SurgerySpec(config, 0, knot, k), case, bounds))
    return Report(_title(name, ordered), tuple(lines))


# theorem-1-1 case -> surgery case tag, default twist, builtin parameters read
_THEOREM11_CASES = {
    "i": ("F1", 0, {"d2": (int, 2, lambda v: v >= 2, "d2 >= 2 (need at least two points)")}),
    "ii": ("F2", 1, {"p": (int, 1, lambda v: v >= 1, "p >= 1"),
                     "q": (int, 3, lambda v: v >= 2, "q >= 2")}),
    "iii": ("F3", 1, {"m": (int, 3, lambda v: v >= 1, "m >= 1"),
                      "n": (int, 2, lambda v: v >= 1, "n >= 1")}),
}


def _run_theorem_1_1(params: dict, bounds: Bounds) -> Report:
    # an unknown case reads no parameters; take_params then refuses it
    tag, twist, spec = _THEOREM11_CASES.get(str(params.get("case")), ("", 0, {}))
    p = take_params(params, {
        "case": (str, None, lambda v: v in _THEOREM11_CASES, "one of i, ii, iii"),
        **spec,
        "k": (int, twist, None, ""),
        "count": (int, 10, lambda v: v >= 1, "count >= 1"),
    })
    builtin, _, fixed = SURGERY_CASES[tag]
    builtin_params = {**fixed, **{key: p[key] for key in spec}}
    case = surgery_case(builtin, builtin_params, p["k"])
    if not check_case_hypothesis(case):
        raise ParamError(f"hypothesis of {case.describe()} fails; no claim is made")
    config = BUILTIN_CONFIGURATIONS[builtin](**builtin_params)
    ordered = [(key, p[key]) for key in ("case", *spec, "k", "count")]
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
    if plan.verdict != PASS:
        return Report(title, (plan,))
    return Report(title, (plan, *exotic_action_certificate(config, m, n, p["k"], p["count"],
                                                           bounds)))


BUILTIN_NAMES = ("nodal", "rational", "spheres", "tori", "theorem-1-1", "theorem-7-2")


def run_builtin(name: str, params: dict, bounds: Bounds = DEFAULT_BOUNDS) -> Report:
    """Execute one builtin pipeline; raises ParamError before any computation."""
    if name not in BUILTIN_NAMES:
        raise ParamError(f"unknown builtin {name!r}; choose from {', '.join(BUILTIN_NAMES)}")
    if name == "theorem-1-1":
        return _run_theorem_1_1(params, bounds)
    if name == "theorem-7-2":
        return _run_theorem_7_2(params, bounds)
    return _run_example(name, params, bounds)


# -- scenario files -----------------------------------------------------------

def _json_object(value, what: str, fields: tuple[str, ...] | None = None) -> dict:
    """`value` as a JSON object; with `fields`, a key outside them is refused."""
    if not isinstance(value, dict):
        raise ScenarioError(f"{what} must be an object")
    if fields is not None:
        for key in value:
            if key not in fields:
                raise ScenarioError(f"{what} has unknown field {key!r}")
    return value


def _json_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ScenarioError(f"{what} must be a list")
    return value


def _json_int(value, what: str) -> int:
    number = _integer(value)
    if number is None:
        raise ScenarioError(f"{what} must be an integer")
    return number


def _json_bool(value, what: str) -> bool:
    if not isinstance(value, bool):
        raise ScenarioError(f"{what} must be a boolean")
    return value


def _json_ints(value, what: str, length: int | None = None) -> tuple[int, ...]:
    if isinstance(value, list) and length in (None, len(value)):
        numbers = tuple(map(_integer, value))
        if None not in numbers:
            return numbers
    count = "" if length is None else f" {length}"
    raise ScenarioError(f"{what} must be a list of{count} integers")


def _configuration_from_json(data, where: str) -> Configuration:
    """A Configuration from its JSON block; a field of the wrong type is named."""
    data = _json_object(data, f"{where}: 'configuration'",
                        ("ambient", "components", "double_points", "pi1", "symplectic_positive"))
    try:
        ambient_data = _json_object(data["ambient"], f"{where}: 'ambient'",
                                    ("name", "simply_connected", "form", "basis"))
        form = tuple(_json_ints(row, f"{where}: each 'form' row")
                     for row in _json_list(ambient_data["form"], f"{where}: 'form'"))
        basis = _json_list(ambient_data.get("basis", [f"A{i + 1}" for i in range(len(form))]),
                           f"{where}: 'basis'")
        ambient = AmbientManifold(str(ambient_data.get("name", "ambient")),
                                  _json_bool(ambient_data.get("simply_connected", True),
                                             f"{where}: 'simply_connected'"),
                                  form, tuple(str(x) for x in basis))
        comps = []
        for i, c in enumerate(_json_list(data["components"], f"{where}: 'components'")):
            at = f"{where}: components[{i}]"
            c = _json_object(c, at, ("label", "genus", "class"))
            comps.append(SurfaceComponent(str(c.get("label", f"C{i + 1}")),
                                          _json_int(c.get("genus", 0), f"{at} 'genus'"),
                                          _json_ints(c["class"], f"{at} 'class'")))
        points = tuple(_json_ints(point, f"{where}: each 'double_points' entry", 3)
                       for point in _json_list(data.get("double_points", []),
                                               f"{where}: 'double_points'"))
        pi1 = None
        if "pi1" in data:
            pi1 = parse_presentation(str(data["pi1"]))
        return Configuration(ambient, tuple(comps), points, pi1,
                             _json_bool(data.get("symplectic_positive", False),
                                        f"{where}: 'symplectic_positive'"))
    except KeyError as err:
        raise ScenarioError(f"{where}: missing field {err}") from None
    except ScenarioError:
        raise
    except ValueError as err:
        raise ScenarioError(f"{where}: {err}") from None


def _case_from_json(data, where: str) -> CaseParams:
    data = _json_object(data, f"{where}: 'case'")
    try:
        tag = str(data["tag"]).upper()
        if tag not in SURGERY_CASES:
            raise ScenarioError(f"{where}: unknown case tag {data['tag']!r}")
        builtin, fields, fixed = SURGERY_CASES[tag]
        _json_object(data, f"{where}: 'case'", ("tag", "k", *fields))
        params = {name: _json_int(data[field], f"{where}: case {field!r}")
                  for field, name in fields.items()}
        return surgery_case(builtin, {**fixed, **params},
                            _json_int(data["k"], f"{where}: case 'k'"))
    except KeyError as err:
        raise ScenarioError(f"{where}: case needs field {err}") from None
    except ScenarioError:
        raise
    except ValueError as err:
        raise ScenarioError(f"{where}: case: {err}") from None


def _expected_group(text, where: str) -> AbelianGroup:
    try:
        return AbelianGroup.parse(str(text))
    except ValueError as err:
        raise ScenarioError(f"{where}: {err}") from None


def _complement_h1(config: Configuration, what: str) -> AbelianGroup:
    if not config.ambient.simply_connected:
        raise ScenarioError(f"{what} needs a simply connected ambient manifold")
    return complement_h1(config)


def _same_lattice(rows1: list[list[int]], rows2: list[list[int]]) -> bool:
    """Whether two relation matrices on the same two meridians span the same
    lattice: every row of each lies in the row space of the other."""
    return all(element_order_in_cokernel(span, 2, row) == 1
               for span, rows in ((rows1, rows2), (rows2, rows1)) for row in rows)


def _run_configuration_entry(entry: dict, index: int, bounds: Bounds) -> list[CheckLine]:
    where = f"checks[{index}]"
    config = _configuration_from_json(entry["configuration"], where)
    lines: list[CheckLine] = []
    wanted = _json_object(entry.get("verify", {}), f"{where}: 'verify'", ("homology", "group"))
    if "homology" in wanted:
        computed = _complement_h1(config, f"{where}: 'homology'")
        expected = _expected_group(wanted["homology"], where)
        lines.append(CheckLine(f"{where} homology",
                               PASS if computed == expected else FAIL,
                               (f"complement H1 = {computed}, expected {expected}",)))
    if "group" in wanted:
        if config.pi1 is None:
            raise ScenarioError(f"{where}: group check needs a pi1 presentation")
        expected = _expected_group(wanted["group"], where)
        verdict = verify_abelian_isomorphism(config.pi1, expected, bounds)
        lines.append(line_from_verdict(f"{where} group", verdict))
    if "surgery" in entry:
        s = _json_object(entry["surgery"], f"{where}: 'surgery'",
                         ("point", "knot", "twist", "case"))
        try:
            point = _json_int(s["point"], f"{where}: surgery 'point'")
            knot = parse_knot(s["knot"])
            twist = _json_int(s["twist"], f"{where}: surgery 'twist'")
            # the spec checks the point index
            spec = SurgerySpec(config, point, knot, twist)
            case = _case_from_json(s["case"], where) if "case" in s else None
        except KeyError as err:
            raise ScenarioError(f"{where}: surgery needs field {err}") from None
        except ScenarioError:
            raise
        except ValueError as err:
            raise ScenarioError(f"{where}: {err}") from None
        if case is not None:
            # the case's group claim holds only for its own twist and for
            # its base relations on the meridians of the point's components
            if len(config.components) != 2:
                raise ScenarioError(f"{where}: surgery case {case.describe()} needs a "
                                    f"two-component configuration, not "
                                    f"{len(config.components)} components")
            if case.k != twist:
                raise ScenarioError(f"{where}: surgery case k={case.k} differs from "
                                    f"twist {twist}")
            homology = _complement_h1(config, f"{where}: surgery 'case'")
            if case.target() != homology:
                raise ScenarioError(f"{where}: surgery case {case.describe()} needs "
                                    f"complement H1 {case.target()}, not {homology}")
            a, b, _ = config.double_points[point]
            if not _same_lattice(exponent_matrix(case.base_presentation()),
                                 meridian_relations(config, (a, b))):
                raise ScenarioError(f"{where}: surgery case {case.describe()} does not "
                                    f"match the meridian relations at double point {point}")
        # outside the try: a ValueError of the engine is not an input error
        lines.extend(CheckLine(f"{where} {line.name}", line.verdict, line.evidence)
                     for line in _surgery_lines(spec, case, bounds))
    return lines


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
    _json_object(data, f"{source}: top level", ("bounds", "checks"))
    bounds_data = _json_object(data.get("bounds", {}), f"{source}: 'bounds'", ("cosets", "rules"))
    bounds_data = {**bounds_data, **(overrides or {})}
    cosets = _integer(bounds_data.get("cosets", DEFAULT_BOUNDS.max_cosets))
    rules = _integer(bounds_data.get("rules", DEFAULT_BOUNDS.max_rules))
    if cosets is None or rules is None or cosets < 1 or rules < 1:
        raise ScenarioError(f"{source}: bounds must be integers >= 1")
    bounds = Bounds(cosets, rules)
    checks = _json_list(data.get("checks", []), f"{source}: 'checks'")

    reports: list[Report] = []
    extra_lines: list[CheckLine] = []
    for index, entry in enumerate(checks):
        where = f"checks[{index}]"
        entry = _json_object(entry, where)
        if "builtin" in entry:
            _json_object(entry, where, ("builtin", "params"))
            params = _json_object(entry.get("params", {}), f"{where}: 'params'")
            try:
                reports.append(run_builtin(str(entry["builtin"]), params, bounds))
            except ParamError as err:
                raise ScenarioError(f"{where}: {err}") from None
        elif "configuration" in entry:
            _json_object(entry, where, ("configuration", "verify", "surgery"))
            extra_lines.extend(_run_configuration_entry(entry, index, bounds))
        else:
            raise ScenarioError(f"{where}: needs 'builtin' or 'configuration'")

    if len(reports) == 1 and not extra_lines:
        return reports[0]
    lines: list[CheckLine] = []
    for rep in reports:
        lines.extend(CheckLine(f"{rep.title} :: {line.name}", line.verdict, line.evidence)
                     for line in rep.lines)
    lines.extend(extra_lines)
    return Report(f"scenario ({len(checks)} entries)", tuple(lines))


def run_scenario(path: str, overrides: dict[str, int] | None = None) -> Report:
    """Run a scenario file; identical parameters give byte-identical reports."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as err:
        raise ScenarioError(f"cannot read scenario {path!r}: {err}") from None
    return run_scenario_text(text, overrides, source=path)
