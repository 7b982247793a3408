"""The three workloads: what a run sets up, times and checks.

Each workload has
  setup()          the inputs, drawn from the seed (timed as set-up);
  run_round(inp)   one pass over the workload's fixed operations, untraced;
  reference(inp, tracer)
                   one more pass with the tracer's wrappers installed, for the
                   per-layer metrics (and, for desk_sweep, for its checks);
  check(inp, rounds, ref, tracer)
                   the correctness checks, run after the timed part.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

import checks
from spans import program_targets


@dataclass
class Round:
    op_s: list              # wall time of each operation
    attempted: int
    failed: int
    workers: int
    output: object          # what the checks read
    wall: float = 0.0       # filled in by the runner
    cpu: float = 0.0


def warm_up(cm) -> None:
    """One small feasibility probe, so lazy imports and BLAS start-up are
    paid before timing."""
    cfg = cm.harness.ExperimentConfig(n_rrh=2, n_users=3, n_antennas=2, trials=1)
    _, ch = cm.harness.draw_trial(cfg, 0)
    caps, noise = cfg.power_caps_w(), cfg.noise_power_w()
    gamma = 1e-3 * cm.beamforming.mrt_gamma_upper_bound(ch, caps, noise)
    cm.beamforming.check_feasible(ch, cm.model.AssociationMap.full(2, 3), gamma,
                                  caps, noise)


class DeskSweep:
    """run_sweep on configs/desk.json, trials 0-2, with 2 worker processes.

    The inputs are the config's own draws and do not depend on the seed:
    trial 2 is there for its named failure, which only the config's seed
    (11) produces.  An operation is one trial, timed as the sum of its rows'
    runtime_ms; attempted and failed count rows (scheme runs).
    """

    trials = 3
    workers = 2
    needs_reference = True
    # solve_socp stalls on the nearest-RRH max-min of trial 2, so both
    # schemes that evaluate that association fail at every capacity
    named_failures = {(2, "bench2"), (2, "bench3")}

    def __init__(self, cm, root, seed, out_dir):
        self.cm, self.root, self.out_dir = cm, root, out_dir

    def setup(self):
        harness = self.cm.harness
        cfg = harness.ExperimentConfig.from_json(self.root / "configs" / "desk.json")
        cfg = dataclasses.replace(cfg, trials=self.trials)
        draws = [harness.draw_trial(cfg, t)[1] for t in range(cfg.trials)]
        warm_up(self.cm)
        return SimpleNamespace(cfg=cfg, draws=draws)

    def run_round(self, inp, workers=None):
        workers = workers or self.workers
        rows, aggregates = self.cm.harness.run_sweep(inp.cfg, workers=workers)
        per_trial = {}
        for r in rows:
            per_trial[r["trial"]] = per_trial.get(r["trial"], 0.0) + r["runtime_ms"] / 1e3
        return Round(list(per_trial.values()), len(rows),
                     sum(r["status"] != "ok" for r in rows), workers, (rows, aggregates))

    def reference(self, inp, tracer):
        # one process, so every span lands in this process's tracer
        with tracer.patch(program_targets(self.cm)):
            return self.run_round(inp, workers=1)

    def _csv(self, output) -> bytes:
        path = self.out_dir / "desk_sweep-rows.csv"
        self.cm.harness.write_csv(path, *output, timing=False)
        return path.read_bytes()

    def check(self, inp, rounds, ref, tracer):
        base = self._csv(rounds[0].output)
        fails = []
        for i, r in enumerate(rounds[1:], 1):
            fails += checks.same_bytes(f"desk round {i} vs round 0", base, self._csv(r.output))
        fails += checks.same_bytes("desk 1 worker vs 2 workers", base, self._csv(ref.output))
        rows = ref.output[0]
        fails += checks.only_named_failures(rows, self.named_failures)

        runs = {}
        for span in tracer.spans:
            report = span.attrs.get("report")
            if span.name != "association.scheme" or report is None:
                continue
            ch, net = span.attrs["args"][:2]
            trial = next((t for t, d in enumerate(inp.draws) if np.array_equal(d.h, ch.h)), -1)
            runs[(trial, net.fronthaul_cap_bps[0], report.scheme_label)] = (ch, net, report)
        ok = [r for r in rows if r["status"] == "ok"]
        for r in ok:
            key = (r["trial"], r["fronthaul_bps"], r["scheme"])
            if key not in runs:
                fails.append(f"desk {key}: no scheme run on this draw was seen")
                continue
            ch, net, rep = runs[key]
            if rep.final_gamma != r["gamma_linear"]:
                fails.append(f"desk {key}: row gamma is not the scheme's gamma")
            fails += [f"desk {key} {m}" for m in checks.certify(
                ch, net, rep.final_gamma, rep.final_beamformers, rep.final_association)]
        for t in range(inp.cfg.trials):
            fails += checks.nondecreasing(f"desk trial {t} bench3 gamma", [
                r["gamma_linear"] for r in ok if r["trial"] == t and r["scheme"] == "bench3"])
        return fails


class PaperProbe:
    """Serial check_feasible on the full association of paper-profile draws
    (configs/paper.json with the seed as its seed and a 35 m minimum
    distance), at three targets per draw.  An operation is one call."""

    draws = 5
    # With the config's 1 m guard, a user within a few metres of an RRH makes
    # every probe of its draw indeterminate (seed 9, draws 0 and 1), a failure
    # that depends on the seed; 35 m, the usual macro-cell minimum distance,
    # bounds the path-loss spread.
    min_distance_m = 35.0
    # Targets well away from the feasibility boundary: half the zero-forcing
    # floor is feasible by construction, and the max-min optimum of these
    # draws sits below 1e-2 of the interference-free bound.
    floor_share = 0.5
    bound_shares = (0.1, 1.0)
    workers = 1
    needs_reference = False

    def __init__(self, cm, root, seed, out_dir):
        self.cm, self.root, self.seed = cm, root, seed

    def setup(self):
        harness, bf = self.cm.harness, self.cm.beamforming
        cfg = harness.ExperimentConfig.from_json(self.root / "configs" / "paper.json")
        cfg = dataclasses.replace(cfg, seed=self.seed, min_distance_m=self.min_distance_m)
        caps, noise = cfg.power_caps_w(), cfg.noise_power_w()
        draws = [harness.draw_trial(cfg, t)[1] for t in range(self.draws)]
        probes = []
        for d, ch in enumerate(draws):
            ub = bf.mrt_gamma_upper_bound(ch, caps, noise)
            probes.append((d, self.floor_share * checks.zero_forcing_floor(ch, caps, noise)))
            probes += [(d, share * ub) for share in self.bound_shares]
        warm_up(self.cm)
        return SimpleNamespace(cfg=cfg, caps=caps, noise=noise, draws=draws, probes=probes,
                               full=self.cm.model.AssociationMap.full(cfg.n_rrh, cfg.n_users),
                               tol=cfg.tolerances())

    def run_round(self, inp):
        ops, outcomes = [], []
        for d, gamma in inp.probes:
            start = time.perf_counter()
            out = self.cm.beamforming.check_feasible(inp.draws[d], inp.full, gamma,
                                                     inp.caps, inp.noise, inp.tol)
            ops.append(time.perf_counter() - start)
            outcomes.append(out)
        return Round(ops, len(ops), sum(o.status == "indeterminate" for o in outcomes),
                     1, outcomes)

    def reference(self, inp, tracer):
        with tracer.patch(program_targets(self.cm)):
            return self.run_round(inp)

    def check(self, inp, rounds, ref, tracer):
        fails = []
        verdicts = [o.status for o in rounds[0].output]
        for r in rounds[1:] + ([ref] if ref else []):
            if [o.status for o in r.output] != verdicts:
                fails.append("paper verdicts differ between passes")
        net = inp.cfg.network_config(inp.cfg.fronthaul_sweep_bps[0])
        per_draw = 1 + len(self.bound_shares)
        for d, ch in enumerate(inp.draws):
            targets = [g for _, g in inp.probes[d * per_draw:(d + 1) * per_draw]]
            mine = sorted(zip(targets, rounds[0].output[d * per_draw:(d + 1) * per_draw]),
                          key=lambda pair: pair[0])
            label = f"paper draw {d}"
            fails += checks.verdicts_monotone(label, [o.status for _, o in mine])
            floor = checks.zero_forcing_floor(ch, inp.caps, inp.noise)
            for gamma, out in mine:
                fails += checks.infeasible_above_floor(label, gamma, out.status, floor)
                if out.status == "feasible":
                    fails += [f"{label} {m}" for m in checks.certify(
                        ch, net, gamma, out.beamformers, inp.full, fronthaul=False)]
        return fails


class OracleTiny:
    """Serial exhaustive_best on 2 RRH x 3 user x 2 antenna draws from the
    seed, 1 W caps and 8 Mb/s fronthaul, as in acceptance criterion 4.  An
    operation is one instance."""

    instances = 8
    fronthaul_bps = 8e6
    workers = 1
    needs_reference = False

    def __init__(self, cm, root, seed, out_dir):
        self.cm, self.seed = cm, seed

    def setup(self):
        harness = self.cm.harness
        cfg = harness.ExperimentConfig(n_rrh=2, n_users=3, n_antennas=2, tx_power_dbm=30.0,
                                       seed=self.seed, trials=self.instances,
                                       fronthaul_sweep_bps=[self.fronthaul_bps])
        draws = [harness.draw_trial(cfg, t)[1] for t in range(cfg.trials)]
        warm_up(self.cm)
        return SimpleNamespace(net=cfg.network_config(self.fronthaul_bps), draws=draws,
                               tol=cfg.tolerances())

    def run_round(self, inp):
        ops, results = [], []
        for ch in inp.draws:
            start = time.perf_counter()
            try:
                results.append(self.cm.oracle.exhaustive_best(ch, inp.net, inp.tol))
            except self.cm.beamforming.SolverIndeterminate:
                results.append(None)
            ops.append(time.perf_counter() - start)
        return Round(ops, len(ops), results.count(None), 1, results)

    def reference(self, inp, tracer):
        with tracer.patch(program_targets(self.cm)):
            return self.run_round(inp)

    def check(self, inp, rounds, ref, tracer):
        fails = []
        for r in rounds[1:] + ([ref] if ref else []):
            if r.output != rounds[0].output:
                fails.append("oracle results differ between passes")
        for i, (ch, res) in enumerate(zip(inp.draws, rounds[0].output)):
            if res is None:
                continue
            label = f"oracle instance {i}"
            gamma, assoc = res
            alg1 = self.cm.association.run_algorithm1(ch, inp.net, inp.tol)
            fails += checks.dominates(label, gamma, alg1.final_gamma)
            g_fix, bf = self.cm.oracle.solve_fixed_association(ch, assoc, inp.net, inp.tol)
            fails += checks.close(label, gamma, g_fix)
            fails += [f"{label} {m}" for m in checks.certify(ch, inp.net, g_fix, bf, assoc)]
        return fails


WORKLOADS = {"desk_sweep": DeskSweep, "paper_probe": PaperProbe, "oracle_tiny": OracleTiny}
