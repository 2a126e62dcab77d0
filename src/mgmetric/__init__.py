"""Multiplicative generalized metric spaces and certified fixed points.

The package builds ternary multiplicative metrics (values >= 1, full
argument symmetry, a rectangle inequality), audits their axioms by
deterministic sampling, certifies contractive conditions for self-maps
on closed balls, and locates fixed points by Picard iteration with
residual and a-priori iteration certificates.  All distances are kept
in log-domain internally.  Each public name is imported from its module
on first access, so importing the package loads none of its modules.
"""

import importlib

__version__ = "0.1.0"

# The public names, by module.
_NAMES = {
    "metric": "SLACK ClosedBall DifferenceMetric GMetric Interval LogDistance MultMetric "
              "PairSumMetric PerimeterMetric PiecewiseMap PiecewiseRow Point SelfMap Witness "
              "ball_contains gm_from_exp gm_from_product piecewise_map usual_metric",
    "contraction": "ContractionParams implicit_bound implicit_contraction_holds "
                   "root_contraction_holds seed_condition_holds",
    "sampling": "AxiomReport CertificateReport EmptyRegion certify_region check_gm_axioms "
                "check_gm_properties check_mult_axioms",
    "solver": "BelowFloor DomainExit FixedPointResult InexactFixedPoint MaxIterationsExceeded "
              "NonFiniteStep PicardTrace SeedConditionViolated SolveError a_priori_iterations "
              "mu_class mu_of solve_fixed_point",
    "fixtures": "EXP_ABS_METRIC NamedFixture get_fixture half_shift_map load_fixture_config "
                "quarter_shift_map registry",
}
_MODULE_OF = {name: module for module, names in _NAMES.items() for name in names.split()}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
