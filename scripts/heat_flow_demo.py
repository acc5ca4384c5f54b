#!/usr/bin/env python3
"""Demo: heat flow of a polynomial kernel, checked three independent ways.

Solves the trace-driven heat evolution for a small initial kernel, prints
the kernel at each time, and cross-checks the closed-form answer against
exact Gaussian-moment smoothing and the symbol evolution law solved exactly
on the symbol grid.
"""

import argparse

import numpy as np

from grosslap.chaos import DISTRIBUTION, Expansion2, coefficient_polynomials
from grosslap.evolution import gaussian_heat_kernel, solve


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--times", type=float, nargs="+",
                    default=[0.0, 0.5, 1.0, 2.0])
    ap.add_argument("--cutoff", type=int, default=8)
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args()

    # initial kernel: y1^2 + y1 y2 (occupation coefficients carry unit
    # orbit values; the mixed term evaluates with multiplicity 1 here)
    xi0 = Expansion2(1, 1, args.cutoff, args.cutoff,
                     {((2,), (0,)): 1 + 0j, ((1,), (1,)): 1 + 0j},
                     role=DISTRIBUTION)

    sol = solve(xi0, args.times, method="both", seed=args.seed)
    print("closed-form heat flow (function action):")
    for t, k in zip(sol.times, sol.kernels):
        terms = ", ".join(f"{key}: {v.real:+.6f}"
                          for key, v in sorted(k.coeffs.items()))
        print(f"  t={t:4.2f}  {terms}")
    print(f"  gaussian moment cross-check gap: "
          f"{sol.checks['gaussian_gap']:.3e}")

    rng = np.random.default_rng(args.seed)
    y = rng.uniform(-1, 1, (1, 2))
    print(f"\nsample evaluation at y={tuple(y[0].tolist())}:")
    for t, k in zip(sol.times, sol.kernels):
        direct = coefficient_polynomials([k], y)[0, 0].real
        oracle = gaussian_heat_kernel(xi0, t, y)[0].real
        print(f"  t={t:4.2f}  kernel={direct:+.10f}  gaussian={oracle:+.10f}")

    print(f"\nclosed form (distribution action) vs the exact symbol flow: "
          f"max gap {sol.checks['residual_max']:.3e} over "
          f"{(args.cutoff + 1) ** 2} grid points")


if __name__ == "__main__":
    main()
