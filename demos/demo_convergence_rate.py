"""Strong-rate measurement for the stopped increment-tamed scheme.

Couples each approximation to a reference driven by the same Brownian path
(the closed form for geometric Brownian motion, a fine-grid run of the same
scheme for the cubic-drift model) and fits the log-log slope of the sup-
over-gridpoints L2 error.

The classical Euler scheme on GBM lands on the textbook slope 1/2.  The
increment-tamed scheme decays faster (~0.7) over this range of N: its error
budget is dominated by the taming distortion of the increments, whose L2
size falls between h^{1/2} and h as the step shrinks.  The asymptotic
guarantee is a 1/2-rate upper bound, so the faster observed decay is
consistent with it.
"""

from biteuler.experiments import ConvergenceConfig, fit_rate, strong_error
from biteuler.schemes import SchemeKind

NS = (16, 32, 64, 128, 256, 512, 1024)
M = 4000


def show(table, fit):
    print(f"\n{table.scheme} on {table.model} (M = {M}, r = {table.r:g}):")
    print(f"{'N':>6} {'sup L2 error':>14} {'stderr':>10} {'overflow':>9}")
    for row in table.rows:
        print(f"{row.N:6d} {row.sup_error:14.6f} {row.std_error:10.6f} "
              f"{row.overflow_fraction:9.4f}")
    print(f"fitted slope: {fit.slope:.4f} (intercept {fit.intercept:.3f}, "
          f"residual {fit.residual:.2e})")


for scheme in (SchemeKind.EULER_MARUYAMA, SchemeKind.STOPPED_BIT):
    config = ConvergenceConfig(model="gbm", scheme=scheme, Ns=NS, M=M,
                               seed=42, reference="exact")
    table = strong_error(config)
    show(table, fit_rate(table))

config = ConvergenceConfig(model="ginzburg-landau",
                           scheme=SchemeKind.STOPPED_BIT, Ns=NS, M=M,
                           seed=42, reference="fine", N_ref=2**13)
table = strong_error(config)
show(table, fit_rate(table))
