"""Explosion contrast: classical Euler vs the stopped tamed scheme.

On the cubic-drift model started at x0 = 5 the classical scheme overshoots
and leaves the float range within a handful of steps at coarse resolutions,
while the stopped increment-tamed scheme is bounded by construction: its
per-step noise is capped at (T/N)^{1/4} per coordinate and the update
freezes once the state norm passes the stopping radius.
"""

from biteuler.experiments import divergence_comparison
from biteuler.models import model_ginzburg_landau
from biteuler.schemes import SchemeKind

model = model_ginzburg_landau()
Ns = tuple(2**k for k in range(2, 11))
report = divergence_comparison(model, Ns, M=4000, x0=[5.0], seed=42)

print(f"model {report.model}, x0 = {report.x0}, M = {report.M}")
print(f"{'N':>6} {'scheme':>6} {'overflow':>10} {'exploded':>10} "
      f"{'E[|Y_T|^2] (capped)':>22}")
for N in Ns:
    for kind in (SchemeKind.EULER_MARUYAMA, SchemeKind.STOPPED_BIT):
        row = report.row(kind, N)
        print(f"{N:6d} {row.scheme:>6} {row.overflow_fraction:10.4f} "
              f"{row.explode_fraction:10.4f} {row.second_moment_capped:22.6g}")
