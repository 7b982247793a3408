"""Command-line surface: gen-channels, solve, sweep, oracle.

Exit codes: 0 success, 1 usage/validation error, 2 solver indeterminate.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys

# One BLAS/OpenMP thread per process, set before numpy loads: the solver's
# dense kernels are small, so extra threads only contend, and a sweep's
# workers already occupy the cores.  A value the user has set wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from cran_maxmin.beamforming import SolverIndeterminate  # noqa: E402
from cran_maxmin.channels import Topology  # noqa: E402
from cran_maxmin.harness import (  # noqa: E402
    RUNNERS,
    ConfigError,
    ExperimentConfig,
    draw_trial,
    run_sweep,
    to_db,
    write_csv,
)
from cran_maxmin.model import load_channel_state, save_channel_state  # noqa: E402
from cran_maxmin.oracle import exhaustive_best  # noqa: E402


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cran-maxmin",
        description="Max-min SINR beamforming and user association "
                    "under per-RRH fronthaul caps")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-channels", help="draw a topology and channels")
    gen.add_argument("--config", required=True)
    gen.add_argument("--seed", required=True, type=int)
    gen.add_argument("--out", required=True)

    solve = sub.add_parser("solve", help="run one scheme on one instance")
    solve.add_argument("--scheme", required=True, choices=list(RUNNERS))
    solve.add_argument("--channels", required=True)
    solve.add_argument("--config", required=True)
    solve.add_argument("--fronthaul-bps", type=float, default=None)
    solve.add_argument("--trace-out", default=None)

    sweep = sub.add_parser("sweep", help="Monte-Carlo sweep over fronthaul capacities")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--out", required=True)
    sweep.add_argument("--threads", type=int, default=1)
    sweep.add_argument("--timing", action="store_true",
                       help="write measured runtimes (breaks byte determinism)")

    oracle = sub.add_parser("oracle", help="exact best association (tiny instances)")
    oracle.add_argument("--channels", required=True)
    oracle.add_argument("--config", required=True)
    oracle.add_argument("--fronthaul-bps", type=float, default=None)
    return parser


def _cmd_gen_channels(args) -> int:
    cfg = ExperimentConfig.from_json(args.config)
    topo, ch = draw_trial(dataclasses.replace(cfg, seed=args.seed), 0)
    save_channel_state(ch, args.out, positions=(topo.rrh_pos, topo.user_pos))
    print(f"wrote {args.out}: K={ch.n_users} N={ch.n_rrh} M={ch.n_antennas}")
    return 0


@contextlib.contextmanager
def _output_file(path):
    """Refuse an output path that cannot be written before the run: open it
    in append mode, which creates the file if need be and truncates nothing.
    If the run fails, a file that did not exist before is removed."""
    if not path:
        yield
        return
    existed = os.path.exists(path)
    with open(path, "a", encoding="utf-8"):
        pass
    try:
        yield
    except BaseException:
        if not existed:
            os.remove(path)
        raise


def _load_instance(args):
    """(config, channels, NetworkConfig at --fronthaul-bps or the config's
    single capacity, topology or None).  The topology holds the file's
    positions, which it may lack.  A channel file of another shape than the
    config is refused."""
    cfg = ExperimentConfig.from_json(args.config)
    ch, positions = load_channel_state(args.channels)
    if (ch.n_users, ch.n_rrh, ch.n_antennas) != (cfg.n_users, cfg.n_rrh, cfg.n_antennas):
        raise ConfigError(
            f"channel file is K={ch.n_users} N={ch.n_rrh} M={ch.n_antennas}, "
            f"config says K={cfg.n_users} N={cfg.n_rrh} M={cfg.n_antennas}")
    fronthaul = cfg.single_fronthaul() if args.fronthaul_bps is None else args.fronthaul_bps
    topo = None if positions is None else Topology(*positions)
    return cfg, ch, cfg.network_config(fronthaul), topo


def _gamma_text(gamma) -> str:
    """A trace value; "-" for a step whose max-min was never solved."""
    return "-" if gamma is None else f"{gamma:.6g}"


def _cmd_solve(args) -> int:
    cfg, ch, netcfg, topo = _load_instance(args)
    with _output_file(args.trace_out):
        report = RUNNERS[args.scheme](ch, netcfg, cfg.tolerances(), topo, None)
        # bench2's records hold the link its step activated
        label = "added" if report.scheme_label == "bench2" else "removed"
        for rec in report.iterations:
            link = "-" if rec.removed_user is None \
                else f"({rec.removed_user},{rec.removed_rrh})"
            print(f"t={rec.t} gamma1={_gamma_text(rec.gamma1)} gamma2={rec.gamma2:.6g} "
                  f"gamma={_gamma_text(rec.gamma)} {label}={link} "
                  f"omega_sizes={list(rec.omega_sizes)}")
        print(f"final gamma={report.final_gamma:.6g} ({to_db(report.final_gamma):.3f} dB) "
              f"omega={[sorted(s) for s in report.final_association.omega]}")
        if args.trace_out:
            with open(args.trace_out, "w", encoding="utf-8") as f:
                json.dump(report.to_dict(), f, indent=2, allow_nan=False)
                f.write("\n")
    return 0


def _cmd_sweep(args) -> int:
    cfg = ExperimentConfig.from_json(args.config)
    if args.threads < 1:
        raise ConfigError(f"--threads: must be >= 1, got {args.threads}")
    with _output_file(args.out):
        rows, aggregates = run_sweep(cfg, args.threads)
        write_csv(args.out, rows, aggregates, timing=args.timing)
    print(f"wrote {args.out}: {len(rows)} rows, {len(aggregates)} aggregates")
    return 0


def _cmd_oracle(args) -> int:
    cfg, ch, netcfg, _ = _load_instance(args)
    gamma, assoc = exhaustive_best(ch, netcfg, cfg.tolerances())
    print(f"gamma_opt={gamma:.6g} ({to_db(gamma):.3f} dB)")
    print(f"assoc_opt={[sorted(s) for s in assoc.omega]}")
    return 0


_COMMANDS = {
    "gen-channels": _cmd_gen_channels,
    "solve": _cmd_solve,
    "sweep": _cmd_sweep,
    "oracle": _cmd_oracle,
}


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SolverIndeterminate as exc:
        print(f"solver indeterminate: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    console_main()
