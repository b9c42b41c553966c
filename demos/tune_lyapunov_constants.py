"""Re-derive the committed Lyapunov constants of the model zoo.

The constants shipped in biteuler.models were produced by this script:
Ginzburg-Landau's _GL_EPS, _GL_RHO and _GL_C are its tuned values for
dX = (X - X**3) dt + dW, rounded up, and _VDP_CONSTANTS are van der Pol's
tuned values at sigma0 = 0.5 as printed; model_vdp tunes any other sigma0
the same way when it builds the model.  The tuners hard-code the unit
coefficients of the shipped drifts and noise, as the models do, so
``tune_ginzburg_landau_spec()`` takes nothing and ``tune_vdp_spec(sigma0)``
only the noise scale.  Run it after changing a model and its tuner, and
paste the printed values into those constants.  The sampled condition
checker then has to pass with margin, which the final section verifies.
"""

from biteuler.models import (catalog, check_conditions,
                             tune_ginzburg_landau_spec, tune_vdp_spec)

eps, rho, c = tune_ginzburg_landau_spec()
print("ginzburg-landau defaults (alpha=beta=sigma0=1):")
print(f"  tuned eps={eps}, rho={rho}, c={c}")
print("  committed: eps=0.25, rho=1.5, c=1.5 (rounded up from the tuned "
      "values; any values at or above the tuned ones pass)")

eps, u0, rho, c = tune_vdp_spec(0.5)
print("\nvdp defaults (a=b=c_damp=1, sigma0=0.5):")
print(f"  tuned eps={eps}, u0={u0}, rho={rho}, c={c}")
print(f"  committed: eps={eps}, u0={u0}, rho={rho}, c={c!r}")

print("\nverifying the shipped entries against the sampled checker:")
for name, entry in sorted(catalog().items()):
    if entry.model.lyapunov is None:
        print(f"  {name}: no Lyapunov data (by design)")
        continue
    report = check_conditions(entry.model, entry.model.lyapunov, 1.0, 10.0,
                              10000, seed=99)
    worst = max(report.generator.worst_margin,
                report.monotonicity.worst_margin,
                report.coercivity.worst_margin)
    print(f"  {name}: violations = {report.total_violations}, "
          f"worst margin = {worst:.4f} (negative = slack)")
    assert report.passed
