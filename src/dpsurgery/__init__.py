"""Exact verification engine for twisted double point surgery on surface
configurations in 4-manifolds: finitely presented group machinery, knot
invariants, complement homology, and machine-checkable certificates."""

# Loading every engine module here lets a tracer that rebinds functions in
# the already loaded modules (perfbench/tracer.py) reach them all; it also
# reads `dpsurgery.Word`.  `cli` stays out, so `python -m dpsurgery.cli`
# runs without runpy's warning about a module already in sys.modules.
from . import actions, alexander, configurations, coset, knots, laurent, \
    presentations, reports, rewriting, scenarios, snf, surgery, sw, verify, words
from .words import Word
