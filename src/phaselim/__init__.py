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

from .angmom import (CgKey, HalfInt, clebsch_gordan, coupling_matrix_entry,
                     dephasing_weight, multiplicity_dimension,
                     transfer_coefficient)
from .asymptotics import (AsymptoteSpec, BayesPi, CollectiveLimit,
                          ConvergenceReport, DephasingLimit, GeneralUnitary,
                          HeisenbergCR, LossLimit, convergence_report,
                          evaluate, group_size_threshold)
from .bayes import (CovariantResult, FlatPrior, GaussianPrior, IndefiniteBound,
                    ParticleNumberMixture, bayesian_cr_bound, covariant_cost,
                    covariant_m_matrix, gaussian_prior_cost,
                    gaussian_prior_solve, indefinite_bayes_bound, mixture_qfi)
from .qcore import (AngularBlockMatrix, CollectiveDephasing, LocalDephasing,
                    Loss, LossComponent, NoiseFree, NoiseModel, SectorMixture,
                    SymmetricPureState, apply_collective_dephasing,
                    apply_dephasing, apply_loss, fidelity_qfi_check,
                    generator_commutator, lift_pure, noon_state,
                    product_plus_state, qfi, qfi_loss, resample_state,
                    sine_profile_state, sld, state_qfi)
from .qfi_opt import (IterationConfig, OptimizationTrace, channel_adjoint_apply,
                      cr_bound, qfi_iterate)

__version__ = "0.1.0"
