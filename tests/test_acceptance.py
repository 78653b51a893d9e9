"""Acceptance gate: one test per top-level criterion, with timing budgets.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Criterion 3 also checks the q=2 cell F2(p=1, q=2, k=1), which
lies outside the case hypothesis, as an exact refusal: the verifier must
decline to run it, and the group check of its case presentation, run as a
negative control, must prove the group is not Z_2 by its enumerated order
(see that test's docstring).
"""

import random
import time

import pytest

from dpsurgery.alexander import (alexander_of_braid, alexander_polynomial,
                                 coefficient_multiset, knot_family)
from dpsurgery.coset import coset_enumerate
from dpsurgery.configurations import spheres_presentation, tori_presentation
from dpsurgery.knots import (FIGURE_EIGHT, TREFOIL, UNKNOT,
                             braid_to_diagram, knot_group_from_braid)
from dpsurgery.laurent import LaurentPoly
from dpsurgery.presentations import AbelianGroup, abelianization, parse_presentation
from dpsurgery.scenarios import (nodal_configuration, rational_configuration,
                                 run_builtin, spheres_configuration)
from dpsurgery.snf import mat_mul, smith_normal_form
from dpsurgery.surgery import (CaseParams, HypothesisError, case_presentation,
                               surgered_presentation, verify_group_preserved)
from dpsurgery.sw import knot_surgery_transform
from dpsurgery.configurations import complement_h1
from dpsurgery.verify import Status, verify_abelian_isomorphism

from test_alexander import coloring_determinant, random_knot_braids
from test_snf import cofactor_det, minor_gcd


def _report(name, detail=""):
    print(f"\nACCEPTANCE {name}: PASS" + (f" ({detail})" if detail else ""))


def test_criterion_1_homology_reproduction():
    """Complement homology of all builtin families, exact, under a second."""
    start = time.monotonic()
    assert complement_h1(nodal_configuration(2, 3)) == AbelianGroup(1)
    assert complement_h1(nodal_configuration(2, 4)) == AbelianGroup(1, (2,))
    for p in range(1, 4):
        for q in range(1, 5):
            assert complement_h1(rational_configuration(p, q)) == AbelianGroup.of_orders(q)
    for m in range(1, 5):
        for n in range(1, 5):
            assert complement_h1(spheres_configuration(m, n)) == \
                AbelianGroup.of_orders(m, n)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"homology sweep took {elapsed:.2f}s, budget 1s"
    _report("criterion-1 homology reproduction", f"{elapsed:.2f}s")


def test_criterion_2_presentation_collapse():
    """Sphere and torus configuration groups verify as Z_m + Z_n, m, n <= 3."""
    worst = 0.0
    for m in range(1, 4):
        for n in range(1, 4):
            target = AbelianGroup.of_orders(m, n)
            for build in (spheres_presentation, tori_presentation):
                start = time.monotonic()
                verdict = verify_abelian_isomorphism(build(m, n), target)
                elapsed = time.monotonic() - start
                worst = max(worst, elapsed)
                assert verdict.status is Status.ISOMORPHIC, \
                    (build.__name__, m, n, verdict.evidence)
                assert any(f"index {m * n}" in fact for fact in verdict.evidence)
                assert any("abelianization matches" in fact for fact in verdict.evidence)
                assert elapsed < 10.0
    _report("criterion-2 presentation collapse", f"worst run {worst:.2f}s")


KNOTS = {"trefoil": knot_group_from_braid(TREFOIL),
         "fig8": knot_group_from_braid(FIGURE_EIGHT)}


def test_criterion_3_case_verification_matrix():
    """The attainable verification matrix at default bounds, no inconclusives."""
    inconclusive = 0
    for name, knot in KNOTS.items():
        for d in (1, 2):
            verdict = verify_group_preserved(CaseParams("F1", 0, d=d), knot)
            assert verdict.status is Status.ISOMORPHIC, (name, d, verdict.evidence)
            assert any("the subgroup it generates has index 1" in fact
                       for fact in verdict.evidence)
        for q in (3, 5):
            verdict = verify_group_preserved(CaseParams("F2", 1, p=1, q=q), knot)
            assert verdict.status is Status.ISOMORPHIC, (name, q, verdict.evidence)
            assert any(f"index {q}" in fact for fact in verdict.evidence)
        for m, n in ((3, 2), (5, 2), (2, 3)):
            verdict = verify_group_preserved(CaseParams("F3", 1, m=m, n=n), knot)
            assert verdict.status is Status.ISOMORPHIC, (name, m, n, verdict.evidence)
            inconclusive += verdict.status is Status.INCONCLUSIVE
    assert inconclusive == 0
    # negative control: the failed-hypothesis cell must never certify Z_4
    case = CaseParams("F2", 1, p=1, q=4)
    verdict = verify_abelian_isomorphism(case_presentation(case, KNOTS["trefoil"]), case.target())
    assert verdict.status is not Status.ISOMORPHIC
    _report("criterion-3 case verification matrix",
            "7 positive cells x 2 knots + negative control")


def test_criterion_3_f2_q2_cell_as_stated():
    """The q=2 cell F2(p=1, q=2, k=1) is refused exactly, never certified as Z_2.

    The group claim for F2 needs gcd(p+k, q) = 1, which fails here:
    gcd(1+1, 2) = 2.  With p = k = 1 and q = 2 the case relations
    muK^2 = 1 and muK^(p+k) s = 1 force s = 1, so the surgered group is
    K / <<muK^2>>, the orbifold group of the 2-fold branched cover.  For a
    2-bridge knot that cover is a lens space with |H_1| = det(K), and the
    orbifold group is dihedral of order 2 det(K): 6 for the trefoil
    (det 3) and 10 for the figure eight (det 5).  Its abelianization is
    Z_2, equal to the target, so only the order step of
    `verify_abelian_isomorphism` can tell the two apart.

    The test checks that `verify_group_preserved` raises HypothesisError,
    that the group check of the case presentation against Z_2, run as a
    negative control, is exactly NOT_ISOMORPHIC (the enumeration is tiny, so
    INCONCLUSIVE is a failure too) and quotes the order, and that both
    construction paths enumerate to 2 det(K), with det(K) from the coloring
    matrix, which does not use the coset engine.
    """
    case = CaseParams("F2", 1, p=1, q=2)
    orders = []
    for name, braid in (("trefoil", TREFOIL), ("fig8", FIGURE_EIGHT)):
        knot = KNOTS[name]
        order = 2 * coloring_determinant(braid_to_diagram(braid))
        with pytest.raises(HypothesisError):
            verify_group_preserved(case, knot)
        verdict = verify_abelian_isomorphism(case_presentation(case, knot), case.target())
        assert verdict.status is Status.NOT_ISOMORPHIC, (name, verdict.evidence)
        assert "abelianization matches target Z_2" in verdict.evidence
        assert f"group order {order} != 2 = |target|" in verdict.evidence
        amalgam = surgered_presentation(case.base_presentation(), knot, case.k)
        for presentation in (amalgam, case_presentation(case, knot)):
            result = coset_enumerate(presentation, (), 100_000)
            assert result.completed and result.index == order, (name, result.evidence())
        orders.append(order)
    assert orders == [6, 10]
    _report("criterion-3 q=2 cell refused",
            "orders 6 (trefoil) and 10 (figure eight) on both paths, not Z_2")


def test_criterion_4_cross_validation():
    """Both construction paths agree on every attainable matrix cell."""
    cases = [CaseParams("F1", 0, d=1), CaseParams("F1", 0, d=2),
             CaseParams("F2", 1, p=1, q=3), CaseParams("F2", 1, p=1, q=5),
             CaseParams("F3", 1, m=3, n=2), CaseParams("F3", 1, m=5, n=2),
             CaseParams("F3", 1, m=2, n=3)]
    cells = 0
    for knot in KNOTS.values():
        for case in cases:
            amalgam = surgered_presentation(case.base_presentation(), knot, case.k)
            collapsed = case_presentation(case, knot)
            assert abelianization(amalgam) == abelianization(collapsed)
            if case.target().order() is not None:
                r1 = coset_enumerate(amalgam, (), 100_000)
                r2 = coset_enumerate(collapsed, (), 100_000)
                assert r1.completed and r2.completed and r1.index == r2.index
            cells += 1
    _report("criterion-4 cross-validation", f"{cells} cells")


def test_criterion_5_alexander_engine():
    """Named values, the random-braid property battery, and the torus family."""
    assert alexander_of_braid(UNKNOT) == LaurentPoly.one()
    assert alexander_of_braid(TREFOIL) == LaurentPoly(-1, (1, -1, 1))
    assert alexander_of_braid(FIGURE_EIGHT) == LaurentPoly(-1, (-1, 3, -1))
    for braid in random_knot_braids(50):
        diagram = braid_to_diagram(braid)
        delta = alexander_polynomial(diagram)
        assert delta.evaluate_unit(1) == 1
        assert delta.is_palindromic()
        assert abs(delta.evaluate_unit(-1)) == coloring_determinant(diagram)
    family = knot_family(10)
    multisets = [coefficient_multiset(delta) for _, _, delta in family]
    assert [len(m) for m in multisets] == list(range(3, 22, 2))
    assert len(set(multisets)) == 10
    _report("criterion-5 alexander engine", "50 random braids + family of 10")


def test_criterion_6_theorem_1_1_at_desk_scale():
    """All three knotted-family pipelines, count 10, under 60 seconds."""
    start = time.monotonic()
    runs = [("i", {"case": "i", "d2": 2, "count": 10}),
            ("ii", {"case": "ii", "p": 1, "q": 3, "k": 1, "count": 10}),
            ("iii", {"case": "iii", "m": 3, "n": 2, "k": 1, "count": 10})]
    for label, params in runs:
        report = run_builtin("theorem-1-1", params)
        assert report.exit_code() == 0, (label, report.render_text())
        pair_lines = [line for line in report.lines
                      if line.name.startswith("smoothly-distinct")]
        assert len(pair_lines) == 45
        assert all(line.verdict == "pass" for line in pair_lines)
        tag1 = [line for line in report.lines if "component-1-standard" in line.name]
        assert [(line.verdict, line.evidence) for line in tag1] == [
            ("pass", ("component 1 embedding tag for r=1..10: Standard",))]
        groups = [line for line in report.lines if line.name.startswith("group-preserved")]
        assert len(groups) == 10 and all(line.verdict == "pass" for line in groups)
        assert any(line.verdict == "cited" for line in report.lines)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"{elapsed:.1f}s exceeds the 60s budget"
    _report("criterion-6 knotted families at desk scale",
            f"3 x 45 pairs in {elapsed:.1f}s")


def test_criterion_7_exotic_actions():
    """Certificates pass on the stated quadruples and fail by the named check."""
    for m, n, k in ((3, 2, 1), (5, 2, 1), (2, 3, 1), (4, 3, 1)):
        report = run_builtin("theorem-7-2", {"m": m, "n": n, "k": k, "count": 5})
        assert report.exit_code() == 0, (m, n, k, report.render_text())
    report = run_builtin("theorem-7-2", {"m": 3, "n": 2, "k": 3, "count": 5})
    assert report.exit_code() != 0
    assert any(line.name == "plotnick-gcd" and line.verdict == "fail"
               for line in report.lines)
    report = run_builtin("theorem-7-2", {"m": 2, "n": 3, "k": 2, "count": 5})
    assert report.exit_code() != 0
    assert any(line.name == "group-preservation-gcd" and line.verdict == "fail"
               for line in report.lines)
    _report("criterion-7 exotic action certificates", "4 passing + 2 named failures")


def test_criterion_8_algebra_kernel_properties():
    """SNF oracle on 200 matrices, group-order oracles, transform multiplicativity."""
    rng = random.Random(808)
    for _ in range(200):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        matrix = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        d, u, v = smith_normal_form(matrix)
        assert mat_mul(mat_mul(u, matrix), v) == d
        assert abs(cofactor_det(u)) == 1 and abs(cofactor_det(v)) == 1
        product = 1
        for t in range(1, min(rows, cols) + 1):
            product *= d[t - 1][t - 1]
            assert abs(product) == minor_gcd(matrix, t)

    for order in range(2, 25):
        result = coset_enumerate(
            parse_presentation(f"gens: a ; rels: a^{order} ;"), (), 10_000)
        assert result.completed and result.index == order
    for half in range(2, 13):
        result = coset_enumerate(
            parse_presentation(f"gens: r s ; rels: r^{half} , s^2 , s r s r ;"),
            (), 10_000)
        assert result.completed and result.index == 2 * half

    for _ in range(100):
        def poly():
            return LaurentPoly.make(rng.randint(-3, 3),
                                    [rng.randint(-4, 4) for _ in range(rng.randint(1, 4))])
        d1, d2 = poly(), poly()
        one = LaurentPoly.one()
        chained = knot_surgery_transform(knot_surgery_transform(one, d1), d2)
        assert chained == knot_surgery_transform(one, d1 * d2)
    _report("criterion-8 algebra kernel properties",
            "200 SNF + 35 group orders + 100 transforms")
