"""Stopped Brownian-increment tamed Euler schemes for SDEs.

The package implements the quartic-exponential increment-taming family and
its derivatives, reproducible coupled Brownian paths, two Euler-type
schemes (classical and stopped increment-tamed), a model zoo with Lyapunov
data and a sampled condition checker, quantitative diagnostics
(exponential moments, moment bounds, stopping probability), and a Monte
Carlo experiment engine measuring strong convergence rates.
"""

from .core import (ErrorRow, ErrorTable, GridSpec, LyapunovSpec, RateFit,
                   SdeModel, validate_start)
from .taming import (TamingParams, stopping_threshold, tame,
                     tame_jacobian_diag, tame_laplacian, verify_taming_bounds)
from .brownian import (BlockStream, BrownianGrid, coarsen_increments,
                       dump_increments, generate_block, generate_path,
                       load_increments)
from .schemes import BatchRuns, SchemeKind, run_path, run_paths
from .models import (catalog, check_conditions, model_gbm,
                     model_ginzburg_landau, model_vdp)
from .diagnostics import (AnalysisConstants, epsilon_n, exp_moment_estimate,
                          moment_bound, n0_for, stopping_probability)
from .experiments import (ConvergenceConfig, divergence_comparison, fit_rate,
                          moment_sweep, strong_error)

__version__ = "0.1.0"
