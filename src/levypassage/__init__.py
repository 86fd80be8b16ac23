"""Monte Carlo toolkit for first-passage times of heavy-tailed Lévy processes
over moving boundaries 1 +- t**gamma."""

__version__ = "0.1.0"

from .decompose import (DecompositionT, InvalidDecompositionError,
                        build_decomposition, delta, laplace_bound)
from .estimate import (ExponentFit, SurvivalEstimate,
                       discrete_survival_experiment, fit_exponent,
                       lemma_n0N_experiment, product_bound_check,
                       survival_counts)
from .fluctuation import (LadderSample, PositivityProfile, kappa,
                          ladder_process, renewal_estimate, spitzer_profile)
from .levymodel import (Boundary, LevyModel, characteristic_exponent,
                        levy_unit_tail_scale, stable_model,
                        standard_symmetric_model, tail_only_model)
from .passage import (SurvivalVerdict, boundary_value, brownian_integral_test,
                      survives)
from .rvcalc import (RegVaryingTail, SlowlyVaryingSpec, eval_slowly_varying,
                     tail_mass)
from .simulate import (PathSample, TimeGrid, sample_path,
                       sample_subordinator_path)
from .stable import StableParams, positivity_parameter, sample_stable

__all__ = [
    "Boundary", "DecompositionT", "ExponentFit", "InvalidDecompositionError",
    "LadderSample", "LevyModel", "PathSample", "PositivityProfile",
    "RegVaryingTail", "SlowlyVaryingSpec", "StableParams", "SurvivalEstimate",
    "SurvivalVerdict", "TimeGrid", "boundary_value", "brownian_integral_test",
    "build_decomposition", "characteristic_exponent",
    "delta", "discrete_survival_experiment",
    "eval_slowly_varying", "fit_exponent", "kappa", "ladder_process",
    "laplace_bound", "lemma_n0N_experiment", "levy_unit_tail_scale",
    "positivity_parameter", "product_bound_check",
    "renewal_estimate", "sample_path", "sample_stable",
    "sample_subordinator_path", "spitzer_profile", "stable_model",
    "standard_symmetric_model", "survival_counts",
    "survives", "tail_mass", "tail_only_model",
]
