"""Seeded solver inputs for the benchmark workloads.

Every file is a `grosslap solve` input.  The workload seed decides the
coefficient values of the initial kernels and, for `heat`, which 135 of the
225 low-degree keys are present; the term counts, cutoffs, output times and
the `driven` processes Z and Theta are fixed, so every seed asks the program for about the
same amount of work.  The fault-probe input does not depend on the seed.

Regenerate every input file of one seed with

    python3 bench/inputs.py --seed 7 --out .bench_work/inputs
"""

from __future__ import annotations

import argparse
import json
import math
import os
from typing import Dict, Iterator, List, Tuple

import numpy as np

HEAT_DIMS = (2, 2)
HEAT_CUTOFF = 6
HEAT_DEGREE = 4
HEAT_TERMS = 135          # of the 225 keys with degree <= 4 per variable
HEAT_TIMES = [0.25, 0.5, 0.75, 1.0]

DRIVEN_DIMS = (1, 1)
DRIVEN_CUTOFF = 8
DRIVEN_DEGREE = 2
DRIVEN_SCALE = 0.2
DRIVEN_PROCESS_SEED = 0
DRIVEN_GRID = [0.0, 1.0, 2.0]
DRIVEN_TIMES = [0.5, 1.0, 1.5]


def occupations(dim: int, degree: int) -> Iterator[Tuple[int, ...]]:
    """Occupation vectors of total `degree` over `dim` slots."""
    if dim == 1:
        yield (degree,)
        return
    for first in range(degree, -1, -1):
        for rest in occupations(dim - 1, degree - first):
            yield (first,) + rest


def keys_up_to(dim1: int, dim2: int, deg1: int,
               deg2: int) -> List[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """Every (alpha, beta) with |alpha| <= deg1 and |beta| <= deg2."""
    alphas = [a for n in range(deg1 + 1) for a in occupations(dim1, n)]
    betas = [b for m in range(deg2 + 1) for b in occupations(dim2, m)]
    return [(a, b) for a in alphas for b in betas]


def kernel(dims: Tuple[int, int], cutoff: int, values: Dict) -> dict:
    """A distribution kernel in the solver's JSON form."""
    terms = [{"alpha": list(a), "beta": list(b), "re": v.real, "im": v.imag}
             for (a, b), v in values.items()]
    return {"label": "", "kernel": {
        "dim1": dims[0], "dim2": dims[1], "cutoff1": cutoff,
        "cutoff2": cutoff, "role": "distribution", "terms": terms}}


def _uniform_values(rng: np.random.Generator, keys) -> Dict:
    re = rng.uniform(-1.0, 1.0, len(keys))
    im = rng.uniform(-1.0, 1.0, len(keys))
    return {k: complex(r, i) for k, r, i in zip(keys, re, im)}


def _phase_values(rng: np.random.Generator, keys, modulus: float) -> Dict:
    phases = rng.uniform(0.0, 2.0 * math.pi, len(keys))
    return {k: modulus * complex(math.cos(p), math.sin(p))
            for k, p in zip(keys, phases)}


def heat_input(seed: int) -> dict:
    """Heat flow of a random kernel with a fixed number of terms."""
    rng = np.random.default_rng([seed, 1])
    keys = keys_up_to(*HEAT_DIMS, HEAT_DEGREE, HEAT_DEGREE)
    chosen = sorted(rng.choice(len(keys), HEAT_TERMS, replace=False))
    keys = [keys[i] for i in chosen]
    return {"xi0": kernel(HEAT_DIMS, HEAT_CUTOFF, _uniform_values(rng, keys)),
            "times": HEAT_TIMES}


def driven_input(seed: int) -> dict:
    """Piecewise-constant Z and Theta on two intervals, distribution action.

    The quadrature of the source term, which is most of the work, does not
    involve the initial kernel, and its panel count moves with Z and Theta.
    So Z and Theta are the same for every seed and the seed draws only the
    initial kernel.
    """
    keys = keys_up_to(*DRIVEN_DIMS, DRIVEN_DEGREE, DRIVEN_DEGREE)
    fixed = np.random.default_rng(DRIVEN_PROCESS_SEED)

    def process() -> dict:
        return {"grid": DRIVEN_GRID, "kernels": [
            kernel(DRIVEN_DIMS, DRIVEN_CUTOFF,
                   _phase_values(fixed, keys, DRIVEN_SCALE))
            for _ in DRIVEN_GRID[1:]]}

    rng = np.random.default_rng([seed, 2])
    return {"xi0": kernel(DRIVEN_DIMS, DRIVEN_CUTOFF,
                          _phase_values(rng, keys, 1.0)),
            "Z": process(), "Theta": process(),
            "times": DRIVEN_TIMES, "action": "distribution"}


def nan_input() -> dict:
    """Probe F2: a heat-flow input with one NaN coefficient."""
    return {"xi0": kernel((1, 1), 2, {((2,), (0,)): complex(math.nan, 0.0)}),
            "times": [0.5]}


def write_inputs(seed: int, out_dir: str) -> Dict[str, str]:
    """Write every input file for `seed` into `out_dir`; return their paths."""
    os.makedirs(out_dir, exist_ok=True)
    docs = {"heat": heat_input(seed), "driven": driven_input(seed),
            "nan": nan_input()}
    paths = {}
    for name, doc in docs.items():
        path = os.path.join(out_dir, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        paths[name] = path
    return paths


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="output directory")
    args = parser.parse_args()
    for path in write_inputs(args.seed, args.out).values():
        print(path)


if __name__ == "__main__":
    main()
