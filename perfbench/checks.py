"""Checks of each operation's CSV against the reference model and the method.

Every design (sweep value, trial) is checked for:

* the documented row layout: every sweep value of the preset, trials
  0..T-1, one row per applicable solver, and a seed column equal to
  ``SeedSequence(master seed).generate_state(T)[trial]``;
* ``no-irs`` equal to the reference coating-only power P0 to 1e-9 relative;
* ``pgd`` on true data (every point of ``power-vs-num-radars``, error 0 of
  ``power-vs-aoa-error``) never beaten by another solver by more than
  1e-9 P0, and ``pgd-true`` <= ``pgd-estimated`` + 1e-9 P0;
* with one radar, ``pgd``, ``reverse-alignment`` and ``pgd-true`` equal to
  the closed-form optimum within 1e-9 P0;
* on full-stealth operations, ``pgd`` <= 1e-6 P0 for every radar count.
"""

from __future__ import annotations

import numpy as np

import reference

HEADER = "sweep,solver,trial,seed,power_watts,power_db"
TOL = 1e-9
STEALTH = 1e-6
MULTI = {"pgd", "mmse", "dft-codebook", "random-phase", "no-irs"}
SINGLE = {"pgd", "reverse-alignment", "dft-codebook", "random-phase", "no-irs"}
SWEEPS = {"power-vs-num-radars": None,  # 1..K of the config
          "power-vs-aoa-error": (0.0, 0.5, 1.0, 2.0),
          "estimation-pipeline": (16.0, 32.0, 64.0)}


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != HEADER:
            raise ValueError(f"unexpected CSV header {header!r}")
        rows = []
        for line in fh:
            sweep, solver, trial, seed, watts, _ = line.strip().split(",")
            rows.append((float(sweep), solver, int(trial), int(seed), float(watts)))
    return rows


class Checker:
    """Checks operations of one workload; builds scenarios through the library."""

    def __init__(self, configs):
        from irstealth.config import ScenarioConfig, build_scenario
        self._from_dict = ScenarioConfig.from_dict
        self._build = build_scenario
        self._configs = configs
        self.worst_no_irs = None   # largest |no-irs - P0| / P0 seen

    def _reference(self, doc, seed, num_radars):
        """Link weights and coating gains of the built scenario for one trial."""
        cfg = self._from_dict(dict(doc, seed=seed, radars=doc["radars"][:num_radars]))
        scenario = self._build(cfg)
        return reference.link_terms(
            doc, [r.position for r in scenario.radars],
            [r.beamformer for r in scenario.radars], scenario.target.position,
            scenario.target.nirs.phi)

    def check(self, op, seed, path) -> tuple[int, list[str]]:
        """Number of designs in the CSV and the list of failed checks."""
        doc = self._configs[op.config]
        k_max = len(doc["radars"])
        tgt = doc["target"]
        panel = (tgt["n1x"] * tgt["n1y"], tgt["beta_max"])
        rows = read_csv(path)
        sweeps = SWEEPS[op.preset] or tuple(float(k) for k in range(1, k_max + 1))
        seeds = np.random.SeedSequence(seed).generate_state(op.trials)
        designs = {}
        for sweep, solver, trial, row_seed, watts in rows:
            designs.setdefault((sweep, trial, row_seed), {})[solver] = watts
        expected = {(s, t, int(seeds[t])) for s in sweeps for t in range(op.trials)}
        problems = []
        if set(designs) != expected:
            problems.append(f"designs {sorted(designs)[:4]}... differ from the "
                            f"{len(expected)} expected (sweep, trial, seed) points")
        if len(rows) != sum(len(p) for p in designs.values()):
            problems.append("duplicate (sweep, solver, trial) rows")
        cache = {}
        for (sweep, trial, row_seed), power in sorted(designs.items()):
            k = int(sweep) if op.preset == "power-vs-num-radars" else k_max
            if (row_seed, k) not in cache:
                cache[row_seed, k] = self._reference(doc, row_seed, k)
            link = cache[row_seed, k]
            if "no-irs" in power:
                p0 = reference.coating_power(*link)
                self.worst_no_irs = max(self.worst_no_irs or 0.0,
                                        abs(power["no-irs"] - p0) / p0)
            where = f"sweep {sweep:g} trial {trial}"
            problems += _check_design(op, power, link, panel, sweep, where)
        return len(designs), problems


def _check_design(op, power, link, panel, sweep, where):
    w, c = link
    k = w.shape[0]
    p0 = reference.coating_power(w, c)
    bad = []
    if not all(np.isfinite(v) and v >= 0 for v in power.values()):
        bad.append(f"{where}: non-finite or negative power {power}")
        return bad
    if op.preset == "estimation-pipeline":
        if set(power) != {"pgd-estimated", "pgd-true"}:
            return [f"{where}: solvers {sorted(power)}"]
        if power["pgd-true"] > power["pgd-estimated"] + TOL * p0:
            bad.append(f"{where}: pgd-true {power['pgd-true']:.6e} > "
                       f"pgd-estimated {power['pgd-estimated']:.6e}")
        optimal = ("pgd-true",)
    else:
        solvers = SINGLE if k == 1 else MULTI
        if set(power) != solvers:
            return [f"{where}: solvers {sorted(power)}, expected {sorted(solvers)}"]
        if abs(power["no-irs"] - p0) > TOL * p0:
            bad.append(f"{where}: no-irs {power['no-irs']:.12e} vs reference "
                       f"{p0:.12e}")
        if op.preset == "power-vs-num-radars" or sweep == 0.0:
            best_other = min(v for s, v in power.items() if s != "pgd")
            if power["pgd"] > best_other + TOL * p0:
                bad.append(f"{where}: pgd {power['pgd']:.6e} beaten by "
                           f"{best_other:.6e}")
        if op.full_stealth and power["pgd"] > STEALTH * p0:
            bad.append(f"{where}: pgd {power['pgd']:.6e} above 1e-6 of {p0:.6e}")
        optimal = ("pgd", "reverse-alignment")
    if k == 1:
        best = reference.single_radar_optimum(w, c, *panel)
        for solver in optimal:
            if abs(power[solver] - best) > TOL * p0:
                bad.append(f"{where}: {solver} {power[solver]:.6e} vs closed "
                           f"form {best:.6e}")
    return bad
