"""Finite-N precision limits for quantum phase estimation.

Computes, for permutation-symmetric N-qubit probes under optional
decoherence (local dephasing, photon loss, collective dephasing):

* the maximal quantum Fisher information over input states and the
  Cramer-Rao uncertainty it implies;
* the exactly optimal Bayesian costs (flat prior via covariant
  measurements, Gaussian prior via the QFI duality);
* the closed-form asymptotic limits both approaches converge to, and the
  pi-factor gap between them in the decoherence-free case.

See the ``phaselim`` command-line interface for batch sweeps.
"""

from .angmom import (clebsch_gordan, coupling_matrix_entry, dephasing_weight,
                     multiplicity_dimension, transfer_coefficient)
from .asymptotics import (AsymptoteSpec, BayesPi, CollectiveLimit,
                          DephasingLimit, GeneralUnitary, HeisenbergCR,
                          LossLimit, evaluate, group_size_threshold)
from .bayes import (CovariantResult, FlatPrior, GaussianPrior, IndefiniteBound,
                    ParticleNumberMixture, bayesian_cr_bound, covariant_cost,
                    covariant_m_matrix, gaussian_prior_cost,
                    gaussian_prior_solve, indefinite_bayes_bound, mixture_qfi)
from .qcore import (CollectiveDephasing, LocalDephasing, Loss, NoiseFree,
                    NoiseModel, SymmetricPureState, channel_output,
                    fidelity_qfi_check, noon_state, product_plus_state,
                    resample_state, sine_profile_state, state_qfi)
from .qfi_opt import IterationConfig, OptimizationTrace, cr_bound, qfi_iterate

__version__ = "0.1.0"
