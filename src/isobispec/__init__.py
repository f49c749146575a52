"""Numerical verification of iso-bispectral potential families for
Sturm-Liouville-type operators with constant delay."""

from .errors import (ContourThroughZero, ConvergenceFailure, DegenerateFamily,
                     DelayOutOfRange, GridTooCoarseForRho, IsobispecError,
                     LeftTrustRegion, NoConvergence, OutOfSupport,
                     SupportMismatch, ZeroOperator)
from .grid import Grid, PiecewiseFn, norm_l2, inner_l2, write_csv
from .integral_op import (Eigenpair, NystromOperator, apply_M, build_nystrom,
                          eig_report, leading_real_eigenpair, normalize_family)
from .potential import (FamilySpec, Potential, build_potential, family_spec,
                        make_family, omega, potential_from_callable,
                        structural_report, zero_potential)
from .charfn import (CharFnEval, WFunction, compute_Q, compute_w, eval_delta,
                     eval_theta, make_evaluator, sinc)
from .shooting import (ShootingSolution, char_values, char_values_array, shoot,
                       shoot_general)
from .spectra import (Rect, Spectrum, count_zeros, find_spectrum, refine,
                      residual_bound, seeds)
from .harness import (RunConfig, VerificationReport, lambda_validation_grid,
                      run_crosscheck, run_verify_remark2, run_verify_theorem1)

__version__ = "0.1.0"
