"""Certified brackets, monotone refinements and desk-scale oracles for the
exponential decay rates of birth-death chains under the four boundary codes
and under general killing."""

from .model import (BoundaryCode, ChainModel, UniquenessVerdict, Verdict,
                    WeightSystem, build_weights, classify_uniqueness,
                    load_model, model_from_dict, dump_model)
from .catalog import catalog, catalog_names, TABLE61_ROWS, TABLE71_ROWS, table71_v
from .series import Certainty, ExtremumReport, Labelled, TailSum
from .estimates import (Bracket, BasicBracketReport, basic_bracket, delta_dn,
                        delta_nd, kappa_bilateral, kappa_dd, kappa_nn)
from .approx import (ApproxTrace, dd_first_step, delta_prime_seq_nd, delta_seq_nd,
                     eta1_closed, eta_seq_nn, first_step_closed)
from .duality import DualPair, dualize, similarity_check, v_transform
from .oracle import (SpectralResult, TruncationTrace, difference_form,
                     eigen_identity_check, principal_eigen, shooting_rate,
                     splitting_bracket, truncation_limit, v_products)
from .killing import (KillingBounds, ReductionResult, corollary_9_9,
                      dispatch_9_12, limsup_upper, r_operator_bounds,
                      reduce_9_11, sqrt_test_bound, upper_9_9, xi_zeta)
from .poincare import SobolevConstant, b_constants_split, sobolev_constant

__version__ = "0.1.0"
