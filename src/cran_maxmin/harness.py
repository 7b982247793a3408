"""Experiment configuration, the Monte-Carlo sweep driver, and CSV emission.

A sweep runs every (fronthaul capacity, trial, scheme) combination; channels
are redrawn per trial from a sub-seed, shared across capacities and schemes
so the comparison is paired.  Rows are ordered by (capacity, trial, scheme)
regardless of worker completion order, and aggregate rows (trial = "mean")
follow the raw rows.  With timing disabled (the default) identical
(config, seed) pairs produce byte-identical CSV files.
"""

from __future__ import annotations

import json
import logging
import math
import numbers
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

from cran_maxmin.association import (
    SolveCache,
    run_algorithm1,
    run_benchmark2,
    run_benchmark3,
)
from cran_maxmin.beamforming import SolverIndeterminate, SolverTolerances
from cran_maxmin.channels import generate_channels, generate_topology, noise_power, \
    pathloss_db, trial_seed
from cran_maxmin.model import NetworkConfig

_log = logging.getLogger(__name__)

# The scheme registry: the only list of schemes.  The lambdas look the
# runners up by module-level name at call time, so a patched or wrapped
# runner is the one that runs.
RUNNERS = {
    "alg1": lambda ch, cfg, tol, topo, cache: run_algorithm1(
        ch, cfg, tol, "residual", cache=cache),
    "bench1": lambda ch, cfg, tol, topo, cache: run_algorithm1(
        ch, cfg, tol, "leakage", cache=cache),
    "bench2": lambda ch, cfg, tol, topo, cache: run_benchmark2(
        ch, cfg, tol, topo, cache=cache),
    "bench3": lambda ch, cfg, tol, topo, cache: run_benchmark3(
        ch, cfg, tol, topo, cache=cache),
}

CSV_COLUMNS = ("fronthaul_bps", "scheme", "trial", "gamma_linear", "gamma_db",
               "iterations", "runtime_ms", "status")


# The scenario every experiment shares, declared here and nowhere else: a
# 10 MHz band, -169 dBm/Hz noise with a 7 dB noise figure, RRHs and users
# uniform in a 500 m disk, and path loss a + b log10(d) dB.
BANDWIDTH_HZ = 10e6
NOISE_PSD_DBM_HZ = -169.0
NOISE_FIGURE_DB = 7.0
RADIUS_M = 500.0
PATHLOSS_A_DB = 30.6
PATHLOSS_B = 36.7


def _is_number(value, kind=numbers.Real, inf_ok=False) -> bool:
    """A number of the kind, not a bool and not NaN; infinite only if inf_ok."""
    if not isinstance(value, kind) or isinstance(value, bool):
        return False
    return isinstance(value, numbers.Integral) or math.isfinite(value) \
        or (inf_ok and not math.isnan(value))


def _numbers(value, inf_ok=False) -> bool:
    """A number or a list of numbers, as `_is_number`."""
    values = value if isinstance(value, (list, tuple)) else [value]
    return all(_is_number(v, inf_ok=inf_ok) for v in values)


class ConfigError(ValueError):
    """Configuration problem, reported with the offending field."""


@dataclass
class ExperimentConfig:
    n_rrh: int = 3
    n_users: int = 6
    n_antennas: int = 2
    tx_power_dbm: float | list = 30.0
    min_distance_m: float = 1.0
    fronthaul_sweep_bps: list = field(default_factory=lambda: [5e6, 10e6, 15e6,
                                                               20e6, 40e6, 80e6])
    fronthaul_cap_bps: Optional[float | list] = None  # single-instance runs
    trials: int = 20
    seed: int = 1
    schemes: list = field(default_factory=lambda: list(RUNNERS))

    def __post_init__(self):
        for name in ("n_rrh", "n_users", "n_antennas", "trials", "seed"):
            value = getattr(self, name)
            if not _is_number(value, numbers.Integral):
                raise ConfigError(f"{name}: must be an integer, got {value!r}")
        if not _is_number(self.min_distance_m) or not self.min_distance_m > 0:
            raise ConfigError(f"min_distance_m: must be a finite number > 0, "
                              f"got {self.min_distance_m!r}")
        if self.trials < 1:
            raise ConfigError("trials: must be >= 1")
        if not _numbers(self.tx_power_dbm):
            raise ConfigError(f"tx_power_dbm: must be a finite number or a list of them, "
                              f"got {self.tx_power_dbm!r}")
        sweep = self.fronthaul_sweep_bps
        # +inf b/s is a fronthaul without limit
        if not isinstance(sweep, (list, tuple)) or not _numbers(sweep, inf_ok=True):
            raise ConfigError(f"fronthaul_sweep_bps: must be a list of numbers, got {sweep!r}")
        if not sweep or sweep[0] < 0:
            raise ConfigError("fronthaul_sweep_bps: must be nonempty and nonnegative")
        if any(b >= a for a, b in zip(sweep[1:], sweep[:-1])):
            raise ConfigError("fronthaul_sweep_bps: must be strictly increasing")
        self.fronthaul_sweep_bps = [float(v) for v in sweep]
        if not isinstance(self.schemes, (list, tuple)) or not self.schemes \
                or any(s not in RUNNERS for s in self.schemes):
            raise ConfigError(f"schemes: must be a nonempty subset of "
                              f"{tuple(RUNNERS)}, got {self.schemes}")
        # derive every piece once: a bad field fails here, not in a sweep worker
        try:
            self.network_config(self.single_fronthaul())
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        try:
            with open(path, "r", encoding="utf-8") as f:
                doc = json.load(f)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except OSError as exc:  # a directory, no permission, ...
            raise ConfigError(f"config file {path} cannot be read: {exc.strerror}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}")
        if not isinstance(doc, dict):
            raise ConfigError(f"config file {path} must hold a JSON object, "
                              f"not {type(doc).__name__}")
        known = set(cls.__dataclass_fields__)
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        try:
            return cls(**doc)
        except TypeError as exc:
            raise ConfigError(str(exc))

    # -- derived pieces -----------------------------------------------------
    def tolerances(self) -> SolverTolerances:
        """The solver's accuracy, the same for every experiment."""
        return SolverTolerances()

    def power_caps_w(self) -> tuple:
        dbm = self.tx_power_dbm
        if not isinstance(dbm, (list, tuple)):
            dbm = [dbm] * self.n_rrh
        if len(dbm) != self.n_rrh:
            raise ConfigError(f"tx_power_dbm: expected {self.n_rrh} values")
        return tuple(10.0 ** ((float(v) - 30.0) / 10.0) for v in dbm)

    def noise_power_w(self) -> float:
        return noise_power(NOISE_PSD_DBM_HZ, NOISE_FIGURE_DB, BANDWIDTH_HZ)

    def network_config(self, fronthaul_bps) -> NetworkConfig:
        """NetworkConfig at fronthaul_bps, one value for every RRH or a list."""
        return NetworkConfig(self.n_rrh, self.n_users, self.n_antennas,
                             BANDWIDTH_HZ, self.power_caps_w(), fronthaul_bps,
                             self.noise_power_w())

    def single_fronthaul(self) -> float | list:
        if self.fronthaul_cap_bps is not None:
            return self.fronthaul_cap_bps
        return self.fronthaul_sweep_bps[0]


def draw_trial(cfg: ExperimentConfig, trial: int):
    """Topology and channels for one trial: the topology from sub-seed
    2 trial, the fading from sub-seed 2 trial + 1."""
    topo = generate_topology(cfg.n_rrh, cfg.n_users, RADIUS_M,
                             trial_seed(cfg.seed, 2 * trial))
    loss_db = pathloss_db(topo.distances(), PATHLOSS_A_DB, PATHLOSS_B, cfg.min_distance_m)
    ch = generate_channels(loss_db, cfg.n_antennas, trial_seed(cfg.seed, 2 * trial + 1))
    return topo, ch


def _run_trial(cfg: ExperimentConfig, trial: int) -> list:
    topo, ch = draw_trial(cfg, trial)
    tol = cfg.tolerances()
    # the removal/activation paths only depend on the channels, so one cache
    # serves every capacity and scheme of the trial
    cache = SolveCache(ch, cfg.power_caps_w(), cfg.noise_power_w(), tol)
    rows = []
    for t_bps in cfg.fronthaul_sweep_bps:
        netcfg = cfg.network_config(t_bps)
        for scheme in cfg.schemes:
            start = time.perf_counter()
            try:
                report = RUNNERS[scheme](ch, netcfg, tol, topo, cache)
                gamma = report.final_gamma
                iters = len(report.iterations)
                status = "ok"
            except SolverIndeterminate:
                gamma, iters, status = math.nan, 0, "indeterminate"
            except Exception as exc:  # one broken run must not lose the sweep
                _log.exception("trial %d at %r b/s, scheme %s: %r", trial, t_bps, scheme, exc)
                gamma, iters, status = math.nan, 0, "error"
            elapsed_ms = 1e3 * (time.perf_counter() - start)
            rows.append({
                "fronthaul_bps": t_bps,
                "scheme": scheme,
                "trial": trial,
                "gamma_linear": gamma,
                "gamma_db": to_db(gamma),
                "iterations": iters,
                "runtime_ms": elapsed_ms,
                "status": status,
            })
    return rows


def to_db(gamma: float) -> float:
    if math.isnan(gamma):
        return math.nan
    return 10.0 * math.log10(gamma) if gamma > 0 else -math.inf


def run_sweep(cfg: ExperimentConfig, workers: int = 1):
    """Run the full (capacity x trial x scheme) grid, in a pool of at most
    one worker per trial if workers > 1.

    Returns (rows, aggregates): raw rows sorted by (capacity, trial, scheme)
    and one mean row per (capacity, scheme) over the trials that solved;
    failed trials are excluded from the mean and counted in the status field.
    """
    trials = list(range(cfg.trials))
    workers = min(workers, len(trials))  # a pool forks all its workers at once
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_run_trial, [cfg] * len(trials), trials))
    else:
        chunks = [_run_trial(cfg, t) for t in trials]
    rows = [row for chunk in chunks for row in chunk]
    scheme_order = {s: i for i, s in enumerate(cfg.schemes)}
    rows.sort(key=lambda r: (r["fronthaul_bps"], r["trial"],
                             scheme_order[r["scheme"]]))

    aggregates = []
    for t_bps in cfg.fronthaul_sweep_bps:
        for scheme in cfg.schemes:
            group = [r for r in rows
                     if r["fronthaul_bps"] == t_bps and r["scheme"] == scheme]
            ok = [r for r in group if r["status"] == "ok"]
            nfail = len(group) - len(ok)
            if ok:
                mean_gamma = sum(r["gamma_linear"] for r in ok) / len(ok)
                mean_iters = sum(r["iterations"] for r in ok) / len(ok)
                mean_ms = sum(r["runtime_ms"] for r in ok) / len(ok)
            else:
                mean_gamma, mean_iters, mean_ms = math.nan, math.nan, math.nan
            aggregates.append({
                "fronthaul_bps": t_bps,
                "scheme": scheme,
                "trial": "mean",
                "gamma_linear": mean_gamma,
                "gamma_db": to_db(mean_gamma),
                "iterations": mean_iters,
                "runtime_ms": mean_ms,
                "status": f"mean_of_{len(ok)}_failed_{nfail}",
            })
    return rows, aggregates


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def write_csv(path, rows, aggregates, timing: bool = False) -> None:
    """Emit raw rows then aggregate rows.  Unless timing is requested the
    runtime column is zeroed so reruns are byte-identical."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(CSV_COLUMNS) + "\n")
        for row in list(rows) + list(aggregates):
            out = dict(row)
            if not timing:
                out["runtime_ms"] = 0.0
            f.write(",".join(_fmt(out[col]) for col in CSV_COLUMNS) + "\n")
