"""Weight-sequence calculus in log domain.

Sequence transforms (conjugate, dual, bidual, regularizations), associated
weight functions and counting functions, growth predicates and Matuszewska
index estimates, extension/restriction bounds for the matching entire
function classes, and diagonal-operator spectral sums.
"""

from .errors import (CensoredWindowError, InconclusiveTailError,
                     InvalidSequenceError, PreconditionError,
                     UntrustedEvaluationError, WeightSeqError)
from .seqcore import (DEFAULT_P, ClosedForm, SequenceFamily, WeightSequence,
                      custom, factorial_shift, from_quotients, gevrey,
                      little_m, load_sequence, make_family, qgevrey,
                      quotients, root_sequence, save_sequence,
                      small_gevrey_family)
from .transforms import (bidual, conjugate, dual, log_convex_minorant,
                         normalize_head, regularize_almost_decreasing)
from .weights import (AssociatedWeight, GrowthGauge, build_gauge, counting,
                      integral_representation_residual, markin_bound, omega,
                      omega_extended, uniform_bound_construct, valid_to)
from .analysis import (IndexEstimate, Verdict, check_property,
                       index_reciprocity_report, matuszewska,
                       mixed_om1_check, relation,
                       root_vs_quotient_lower_index)
from .extension import (CoefficientFunction, cauchy_restriction_bound,
                        taylor_majorant, weighted_sup_norm)
from .operator_lab import (DiagonalOperatorModel, SpectralVector,
                           bounded_solution_check, build_counterexample,
                           exponential_class_sum, membership_verdict,
                           weighted_class_sum)

__version__ = "0.1.0"
