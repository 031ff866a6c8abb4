"""Closed-form fractional calculus versus the quadrature oracle.

Walks through the package's exact kernels: power-rule integrals and
derivatives, the causal temporal weight matrix, and the piecewise-constant
seminorm, each checked live against an independent Gauss-Jacobi evaluation.
"""
import numpy as np
from scipy.special import gamma as scipy_gamma

from fracstep import (
    PowerFunction,
    TemporalGrid,
    derivative_power_function,
    integral_power_function,
    temporal_weights,
)
from fracstep.assembly import initial_time_factors
from fracstep.fracops import derivative_pairing_pwc, fractional_seminorm_pwc
from fracstep.quadrature import singular_integral

print("=== power-rule integral against the defining convolution ===")
for sigma, gamma, t in [(0.0, 0.5, 1.0), (-0.49, 0.6, 1.0), (2.0, 0.25, 1.7)]:
    closed = integral_power_function(PowerFunction(1.0, sigma), gamma)(t)
    oracle = singular_integral(0.0, t, p=sigma, q=gamma - 1.0) / scipy_gamma(gamma)
    print(f"  I^{gamma} [t^{sigma:+.2f}] ({t}) = {closed:.12f}"
          f"   quadrature {oracle:.12f}   diff {abs(closed - oracle):.1e}")

print()
print("=== power-rule derivative: D^g t^g is the constant Gamma(1+g) ===")
for gamma in (0.2, 0.5, 0.8):
    values = derivative_power_function(PowerFunction(1.0, gamma), gamma)([0.5, 1.0, 2.0])
    print(f"  g={gamma}: {values[0]:.12f} {values[1]:.12f} {values[2]:.12f}"
          f"   Gamma(1+g) = {scipy_gamma(1 + gamma):.12f}")

print()
print("=== causal weight matrix on a uniform grid (alpha = 0.5, tau = 1) ===")
grid = TemporalGrid.uniform(5, 5.0)
weights = temporal_weights(grid, 0.5)
dense = weights.dense()
np.set_printoptions(precision=6, suppress=False)
print(dense)
print(f"  row sums telescope: row 3 sum {dense[3].sum():.12f}"
      f"  closed {initial_time_factors(grid, 0.5)[3]:.12f}")

print()
print("=== seminorm of the unit indicator on (0,1), gamma = 0.25 ===")
unit = TemporalGrid.uniform(1, 1.0)
pairing = derivative_pairing_pwc(unit, [1.0], 0.25)
print(f"  left/right derivative pairing  {pairing:.12f}")
print(f"  via quadrature                 "
      f"{singular_integral(0, 1, p=-0.25, q=-0.25) / scipy_gamma(0.75) ** 2:.12f}")
print(f"  seminorm (pairing/cos(pi/4))^(1/2) = "
      f"{fractional_seminorm_pwc(unit, [1.0], 0.25):.12f}")
