"""Exact verification engine for twisted double point surgery on surface
configurations in 4-manifolds: finitely presented group machinery, knot
invariants, complement homology, and machine-checkable certificates."""

from .presentations import AbelianGroup, Presentation, abelianization
from .words import Word, free_reduce, commutator
from .snf import smith_normal_form
from .coset import CosetResult, coset_enumerate
from .rewriting import knuth_bendix
from .verify import Bounds, Status, Verdict, certify_abelian, verify_abelian_isomorphism
from .knots import BraidWord, KnotDiagram, KnotGroupData, braid_to_diagram, \
    wirtinger_presentation, knot_group_from_braid, torus_knot, \
    UNKNOT, TREFOIL, FIGURE_EIGHT
from .laurent import LaurentPoly
from .alexander import alexander_polynomial, alexander_of_braid, \
    coefficient_multiset, knot_family
from .configurations import AmbientManifold, Configuration, SurfaceComponent, \
    algebraic_intersection, complement_h1, spheres_presentation, tori_presentation
from .surgery import CaseParams, SurgerySpec, apply_surgery, case_presentation, \
    check_case_hypothesis, surgered_presentation, verify_group_preserved, \
    HypothesisError
from .sw import applicability_check, distinguish, family_report, knot_surgery_transform
from .actions import build_cover_plan, exotic_action_certificate
from .scenarios import ParamError, ScenarioError, run_builtin, run_scenario, \
    run_scenario_text, nodal_configuration, rational_configuration, \
    spheres_configuration, tori_configuration
from .reports import Report, CheckLine

__all__ = [name for name in dir() if not name.startswith("_")]
