"""Workload definitions: scenario config documents, operation rounds, seed rule.

A workload is a round of ``irstealth run`` operations that the timed phase
repeats.  Every config is a JSON document written by the benchmark itself
(not by library helpers), so a refactor of library names cannot change the
inputs.  The values follow the library's documented default scenario.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Default scenario: 8x8 half-wavelength radar arrays, 100 MHz linear-FM
# pulses (100 us interval, 30 us pulse, 15 dBm), wavelength 0.05 m, target
# 100 m up with a quarter-wavelength-spaced n1x x 2 panel beside a 100 x 2
# coating of absorbing efficiency 0.8 and a 5 x 5 cross-shaped sensing array.
WAVELENGTH = 0.05
ALPHA_DB = -30.0
HEIGHT = 100.0
LATERAL = 200.0
RADAR = {"mx": 8, "my": 8, "spacing": 0.025, "tx_power_dbm": 15.0,
         "pri": 100e-6, "pulse": 30e-6, "bandwidth": 100e6, "noise_dbm": -90.0}
TARGET = {"n1y": 2, "n2x": 100, "n2y": 2, "spacing": 0.0125, "beta_max": 1.0,
          "zeta": 0.8, "cssa_lx": 5, "cssa_ly": 5, "cssa_noise_dbm": -90.0,
          "epoch_jitter": 2e-6}
# Azimuth offsets of radars two to five, which stand LATERAL metres to the
# side on the ground plane; radar one sits right under the target.
OFFSETS_DEG = (45.0, -45.0, 22.5, -22.5)


def scenario_doc(num_radars: int, n1x: int) -> dict:
    """Config document for ``num_radars`` radars and an n1x x 2 panel."""
    positions = [[0.0, 0.0, 0.0]]
    for off in OFFSETS_DEG[: num_radars - 1]:
        positions.append([HEIGHT * math.tan(math.radians(off)), LATERAL, 0.0])
    return {"wavelength": WAVELENGTH, "alpha_db": ALPHA_DB, "seed": 1,
            "radars": [dict(RADAR, position=p) for p in positions],
            "target": dict(TARGET, position=[0.0, 0.0, HEIGHT], n1x=n1x)}


CONFIGS = {
    "radars3-n50": scenario_doc(3, 25),
    "radars5-n800": scenario_doc(5, 400),
    "radar1-n8": scenario_doc(1, 4),
}


@dataclass(frozen=True)
class Op:
    """One ``irstealth run`` invocation of a round.

    ``fixed_seed`` pins the program seed independently of the workload seed;
    only the known-fault operation uses it, and a non-empty ``expect_error``
    says the operation is expected to exit non-zero with that stderr line.
    ``full_stealth`` asks the checks for ``pgd`` <= 1e-6 x coating-only power.
    """

    preset: str
    config: str
    trials: int
    full_stealth: bool = False
    fixed_seed: int | None = None
    expect_error: str = ""


# Sensing fault: on objective data from sensed parameters, projected
# gradient exhausts its 100 000-iteration budget on the first trial of
# master seed 2 (16 snapshots) and the preset aborts.
SENSING_FAULT = Op("estimation-pipeline", "radars3-n50", 1, fixed_seed=2,
                   expect_error="error: no convergence within 100000 iterations")

ROUNDS = {
    # Three radars, not five: with true data at K = 4 or 5 and N1 = 50,
    # projected gradient sometimes exhausts its iteration budget and the
    # preset aborts (master seed 110008, 8 trials), so the operation would
    # fail on some seeds only.
    "sweep-n50": (Op("power-vs-num-radars", "radars3-n50", 16),
                  Op("power-vs-aoa-error", "radars3-n50", 8)),
    "panel-n800": (Op("power-vs-num-radars", "radars5-n800", 1, full_stealth=True),),
    "sensing": (Op("estimation-pipeline", "radar1-n8", 16),) * 3 + (SENSING_FAULT,),
}

SEED_STRIDE = 10_000


def op_seed(workload_seed: int, index: int, op: Op) -> int:
    """Program ``--seed`` of the index-th operation (0-based) of a run."""
    if op.fixed_seed is not None:
        return op.fixed_seed
    return workload_seed * SEED_STRIDE + index
