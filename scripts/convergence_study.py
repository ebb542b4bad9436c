"""Sup-error of the steady solver vs spatial resolution, f = sin.

Prints one row per (alpha, n_x) with the error against the Galerkin
reference at N = 100, with the sweep count and why the solve stopped
(``stalled`` once the updates are walk noise at the resolution floor).
Spectral decay down to the iteration floor is the expected picture.
"""

import argparse

import numpy as np

from fracsmc.oracles import galerkin_solve
from fracsmc.poisson import PoissonConfig, smc_solve


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--alphas", type=float, nargs="+", default=[0.4, 1.2, 2.0])
    ap.add_argument("--n-x", type=int, nargs="+", default=[2, 4, 6, 8])
    ap.add_argument("--walks", type=int, default=100)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    xs = np.linspace(-0.99, 0.99, 201)
    print("alpha  n_x  sweeps  stop     e_inf")
    for alpha in args.alphas:
        ref = galerkin_solve(np.sin, alpha, 100)
        for n_x in args.n_x:
            cfg = PoissonConfig(
                alpha=alpha, n_x=n_x, n_walks=args.walks,
                seed=args.seed, k_max=40,
            )
            sol = smc_solve(cfg, np.sin)
            err = np.max(np.abs(sol(xs) - ref(xs)))
            print(
                f"{alpha:<6g} {n_x:<4d} {len(sol.history):<7d} "
                f"{sol.stop_reason:<8s} {err:.3e}"
            )


if __name__ == "__main__":
    main()
