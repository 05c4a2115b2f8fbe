"""Continuous-collapse dynamics of neutral two-level mesons.

Exact master-equation solutions and closed-form transition probabilities,
stochastic unravelings (Ito, Stratonovich, mollified-noise ODE), and the
regularized noise-autocorrelation integral whose limit is 1/2.
"""

from .core import (DensityBlocks, Grid, GridState, InvariantViolationError,
                   ModelParams, ParameterError, flavor_to_mass,
                   make_gaussian_state)
from .integrators import (INTEGRATOR_KINDS, EnsembleResult,
                          IntegratorSpec, integrate_wong_zakai, run_ensemble,
                          step_ito_linear, step_ito_nonlinear,
                          step_stratonovich)
from .master_eq import (SuperoperatorKernel, TransitionRecord,
                        csl_flavor_probabilities, decoherence_rates,
                        dyson_expand, dyson_flavor_probabilities,
                        evolve_me_csl_exact, evolve_me_numeric,
                        evolve_me_qmupl_exact, flavor_record,
                        me_envelope, me_flavor_probabilities,
                        qmupl_flavor_probabilities, transition_probability)
from .models import (CSL, QMUPL, CollapseModel, build_csl, build_hamiltonian, build_qmupl,
                     smearing_kernel, smearing_self_convolution)
from .noise import (MOLLIFIER_KINDS, MollifiedNoise, Mollifier, NoisePath,
                    i_epsilon_monte_carlo, i_epsilon_quadrature, mollify,
                    sample_wiener)

__version__ = "0.1.0"
