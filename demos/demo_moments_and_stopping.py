"""Lyapunov moments and stopping probabilities across resolutions.

The stopped tamed scheme keeps E[U(Y^N_T)] essentially flat in N (uniform
moment boundedness at desk scale), and the probability of ever touching the
stopping radius decays to zero as N grows.  The Gronwall-style moment bound
is evaluated alongside; with honest growth constants its crossover index N0
is astronomically large, so at these N the bound is reported as infinite
rather than being quietly tightened.
"""

from biteuler.core import GridSpec
from biteuler.diagnostics import stopping_probability
from biteuler.experiments import moment_sweep
from biteuler.models import catalog

entry = catalog()["ginzburg-landau"]
model = entry.model
Ns = (16, 32, 64, 128, 256, 512, 1024)

report = moment_sweep(model, model.lyapunov, Ns, M=4000, seed=42,
                      x0=entry.default_x0)
print(f"moment sweep on {report.model} (M = {report.M}):")
print(f"{'N':>6} {'E[U(Y_T)]':>12} {'stderr':>10} {'exp functional':>15} "
      f"{'bound':>10}")
for row in report.rows:
    print(f"{row.N:6d} {row.eu_estimate:12.6f} {row.eu_stderr:10.6f} "
          f"{row.exp_estimate:15.6f} {row.bound:10.4g}")
print(f"max/min ratio: {report.ratio:.4f}  (fitted growth constant "
      f"c = {report.consts_c:.3f}, p = {report.consts_p}; bound valid from "
      f"log10 N0 = {report.n0.log10_N0:.0f})")

print("\nstopping probabilities P[tau < T]:")
for k in range(4, 13):
    rep = stopping_probability(model, GridSpec(1.0, 2**k), M=4000, seed=42,
                               x0=entry.default_x0)
    print(f"  N = 2^{k:<2d}: {rep.estimate:.4f} +- {rep.stderr:.4f}")

print("\n(the start state sits deep inside the stopping radius and the")
print("cubic drift is strongly inward, so the estimate is already zero at")
print("these resolutions; starting outside the radius gives exactly 1)")
