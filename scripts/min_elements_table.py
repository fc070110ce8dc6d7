#!/usr/bin/env python3
"""Tabulate the predicted stealth element count against Monte-Carlo truth.

For each realization budget the closed-form prediction is compared with the
empirical fraction of coating-gain draws a panel of that size can cancel
outright.
"""

import argparse
import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from irstealth.config import build_scenario, single_radar_config
from irstealth.optimizers import alignment_designs, min_irs_elements
from irstealth.power_model import QcqpInstance


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--zeta-bar", type=float, default=0.8)
    parser.add_argument("--n2", type=int, default=200)
    parser.add_argument("--beta-max", type=float, default=1.0)
    parser.add_argument("--draws", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    scenario = build_scenario(single_radar_config())
    # Coating block of the surface response toward the radar; the echo
    # crosses it twice.
    coating = scenario.geometry.true_blocks[1][0]
    nirs_vector = np.conj(coating * coating)[: args.n2]
    rng = np.random.default_rng(args.seed)
    amplitude = np.sqrt(1.0 - args.zeta_bar)
    gains = np.array([np.vdot(nirs_vector,
                              amplitude * np.exp(1j * rng.uniform(0, 2 * np.pi,
                                                                  args.n2)))
                      for _ in range(args.draws)])

    print("realizations  predicted_n1  cancel_fraction")
    for realizations in (1, 2, 5, 10, 20, 50):
        n1 = min_irs_elements(args.zeta_bar, args.n2, args.beta_max,
                              realizations)
        # One link of unit amplitude and response over every draw's gain.
        problem = QcqpInstance(np.ones((1, max(n1, 1))), gains[None, :], args.beta_max)
        cancelled = np.mean([sol.objective <= 1e-18 for sol in alignment_designs(problem)])
        print(f"{realizations:12d}  {n1:12d}  {cancelled:15.3f}")


if __name__ == "__main__":
    main()
