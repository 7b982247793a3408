"""Sweep driver and CLI: configuration validation, output shape, byte-level
determinism, and aggregate consistency."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cran_maxmin import association, beamforming, cli, harness
from cran_maxmin.association import nearest_rrh_association, run_benchmark3
from cran_maxmin.beamforming import SolverIndeterminate
from cran_maxmin.cli import cli_main
from cran_maxmin.harness import (
    RUNNERS,
    ConfigError,
    ExperimentConfig,
    draw_trial,
    run_sweep,
    write_csv,
)
from cran_maxmin.model import load_channel_state

TINY = dict(
    n_rrh=2, n_users=3, n_antennas=2,
    fronthaul_sweep_bps=[8e6, 200e6],
    trials=2, seed=7, schemes=["alg1", "bench3"],
)


def tiny_config(**overrides):
    kw = dict(TINY)
    kw.update(overrides)
    return ExperimentConfig(**kw)


class TestExperimentConfig:
    def test_defaults_valid(self):
        cfg = ExperimentConfig()
        assert cfg.trials >= 1 and cfg.schemes

    def test_trials_validated(self):
        with pytest.raises(ConfigError, match="trials"):
            tiny_config(trials=0)

    def test_sweep_strictly_increasing(self):
        with pytest.raises(ConfigError, match="increasing"):
            tiny_config(fronthaul_sweep_bps=[2e6, 2e6])
        with pytest.raises(ConfigError, match="nonempty"):
            tiny_config(fronthaul_sweep_bps=[])

    def test_schemes_validated(self):
        with pytest.raises(ConfigError, match="schemes"):
            tiny_config(schemes=["alg1", "magic"])

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"n_rrh": 2, "bogus": 1}))
        with pytest.raises(ConfigError, match="bogus"):
            ExperimentConfig.from_json(path)

    def test_missing_file_names_path(self, tmp_path):
        path = tmp_path / "nope.json"
        with pytest.raises(ConfigError, match="nope.json"):
            ExperimentConfig.from_json(path)

    def test_power_conversion(self):
        cfg = tiny_config(tx_power_dbm=30.0)
        assert cfg.power_caps_w() == pytest.approx((1.0, 1.0))
        cfg = tiny_config(tx_power_dbm=[30.0, 20.0])
        assert cfg.power_caps_w() == pytest.approx((1.0, 0.1))
        with pytest.raises(ConfigError):
            tiny_config(tx_power_dbm=[30.0]).power_caps_w()

    @pytest.mark.parametrize("field, value", [
        ("min_distance_m", 0),
        ("tx_power_dbm", [30.0, 30.0]),
        ("fronthaul_cap_bps", [1e7, 1e7]),
        ("fronthaul_sweep_bps", [-1.0, 2.0]),
    ])
    def test_every_field_checked_at_load(self, field, value, tmp_path):
        # n_rrh is 3: the two lists are one entry short
        with pytest.raises(ConfigError, match=field):
            ExperimentConfig(n_rrh=3, **{field: value})
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"n_rrh": 3, field: value}))
        with pytest.raises(ConfigError, match=field):
            ExperimentConfig.from_json(path)

    @pytest.mark.parametrize("field, value", [
        ("trials", "x"),
        ("trials", 2.5),
        ("tx_power_dbm", "abc"),
        ("seed", "x"),
        ("min_distance_m", "abc"),
        ("fronthaul_sweep_bps", 5e6),
        ("fronthaul_sweep_bps", ["a"]),
        ("schemes", None),
    ])
    def test_bad_value_names_its_field(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field}: "):
            ExperimentConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("fronthaul_sweep_bps", [math.nan]),
        ("fronthaul_sweep_bps", [5e6, math.nan]),
        ("fronthaul_cap_bps", math.nan),
        ("fronthaul_cap_bps", [1e7, math.nan, 1e7]),
        ("tx_power_dbm", math.nan),
        ("tx_power_dbm", [30.0, math.inf, 30.0]),
        ("min_distance_m", math.inf),
        ("min_distance_m", math.nan),
    ])
    def test_non_finite_number_names_its_field(self, field, value, tmp_path):
        # JSON reads NaN and Infinity; only a fronthaul capacity may be +inf
        with pytest.raises(ConfigError, match=f"^{field}"):
            ExperimentConfig(n_rrh=3, **{field: value})
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"n_rrh": 3, field: value}))
        assert "NaN" in path.read_text() or "Infinity" in path.read_text()
        with pytest.raises(ConfigError, match=f"^{field}"):
            ExperimentConfig.from_json(path)

    def test_infinite_fronthaul_is_no_limit(self):
        cfg = tiny_config(fronthaul_sweep_bps=[8e6, math.inf], fronthaul_cap_bps=math.inf)
        assert cfg.network_config(cfg.fronthaul_sweep_bps[-1]).fronthaul_cap_bps == \
            (math.inf, math.inf)

    @pytest.mark.parametrize("field, value", [
        ("rrh_placement", "uniform"),
        ("rrh_ring_frac", 0.5),
        ("redraw", "both"),
        ("bisection_rel_tol", 1e-4),
        ("cone_feas_tol", 1e-7),
        ("max_bisection_iters", 60),
        ("bandwidth_hz", 10e6),
        ("noise_psd_dbm_hz", -169.0),
        ("noise_figure_db", 7.0),
        ("radius_m", 500.0),
        ("pathloss_a_db", 30.6),
        ("pathloss_b", 36.7),
    ])
    def test_removed_field_is_refused(self, field, value, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dict(TINY, **{field: value})))
        with pytest.raises(ConfigError, match=f"unknown config fields: \\['{field}'\\]"):
            ExperimentConfig.from_json(path)
        assert cli_main(["sweep", "--config", str(path),
                         "--out", str(tmp_path / "o.csv")]) == 1
        assert "unknown config fields" in capsys.readouterr().err

    def test_network_config_from_scalar_fronthaul(self):
        cfg = tiny_config()
        net = cfg.network_config(5e6)
        assert net.fronthaul_cap_bps == (5e6, 5e6)
        assert net.noise_power_w == pytest.approx(6.309573444801942e-13, rel=1e-9)


@pytest.fixture(scope="module")
def sweep_result():
    cfg = tiny_config()
    return cfg, run_sweep(cfg)


class TestRunSweep:
    def test_shape(self, sweep_result):
        cfg, (rows, aggregates) = sweep_result
        assert len(rows) == len(cfg.fronthaul_sweep_bps) * cfg.trials * len(cfg.schemes)
        assert len(aggregates) == len(cfg.fronthaul_sweep_bps) * len(cfg.schemes)

    def test_row_ordering(self, sweep_result):
        cfg, (rows, _) = sweep_result
        keys = [(r["fronthaul_bps"], r["trial"], cfg.schemes.index(r["scheme"]))
                for r in rows]
        assert keys == sorted(keys)

    def test_all_ok_and_statuses(self, sweep_result):
        _, (rows, aggregates) = sweep_result
        assert all(r["status"] == "ok" for r in rows)
        assert all(a["status"] == "mean_of_2_failed_0" for a in aggregates)
        assert all(a["trial"] == "mean" for a in aggregates)

    def test_aggregates_are_arithmetic_means(self, sweep_result):
        cfg, (rows, aggregates) = sweep_result
        for agg in aggregates:
            group = [r["gamma_linear"] for r in rows
                     if r["fronthaul_bps"] == agg["fronthaul_bps"]
                     and r["scheme"] == agg["scheme"]]
            assert agg["gamma_linear"] == sum(group) / len(group)

    def test_alg1_dominates_nearest_rrh_at_large_capacity(self, sweep_result):
        cfg, (_, aggregates) = sweep_result
        big_t = cfg.fronthaul_sweep_bps[-1]
        by_scheme = {a["scheme"]: a["gamma_linear"] for a in aggregates
                     if a["fronthaul_bps"] == big_t}
        assert by_scheme["alg1"] >= by_scheme["bench3"] * (1 - 1e-3)

    def test_deterministic_rows(self, sweep_result):
        cfg, (rows, aggregates) = sweep_result
        rows2, agg2 = run_sweep(cfg)
        assert rows == rows2 or _rows_equal(rows, rows2)
        assert _rows_equal(aggregates, agg2, skip_runtime=True)

    def test_worker_pool_matches_serial(self, sweep_result):
        cfg, (rows, _) = sweep_result
        rows2, _ = run_sweep(cfg, workers=2)
        assert _rows_equal(rows, rows2)


def test_a_sweep_trial_reads_no_final_beamformers(monkeypatch):
    # rows carry gamma and the iteration count only: the only power-mins a
    # trial solves are the tightenings its link selections read
    counts = dict.fromkeys(("max_min", "power_min", "select"), 0)

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    for name in ("max_min", "power_min"):
        monkeypatch.setattr(association.SolveCache, name,
                            counted(name, getattr(association.SolveCache, name)))
    for name in ("select_removal", "benchmark1_select"):
        monkeypatch.setattr(association, name, counted("select", getattr(association, name)))
    cfg = ExperimentConfig.from_json(Path(__file__).resolve().parent.parent
                                     / "configs" / "desk.json")
    rows = harness._run_trial(cfg, 0)
    assert all(r["status"] == "ok" for r in rows)
    assert counts["power_min"] == 0
    assert counts["max_min"] == counts["select"] > 0


def test_workers_default_to_one_whatever_the_environment(tmp_path, monkeypatch):
    # the sweep once read its worker count from CRAN_MAXMIN_WORKERS
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setenv("CRAN_MAXMIN_WORKERS", "2")
    monkeypatch.setattr(harness, "ProcessPoolExecutor", no_pool)
    cfg = tiny_config(fronthaul_sweep_bps=[8e6], schemes=["bench3"])
    rows, _ = run_sweep(cfg)
    assert len(rows) == cfg.trials
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(TINY, fronthaul_sweep_bps=[8e6], schemes=["bench3"])))
    out = tmp_path / "results.csv"
    assert cli_main(["sweep", "--config", str(path), "--out", str(out)]) == 0
    assert out.exists()


def test_sweep_starts_at_most_one_worker_per_trial(tmp_path, monkeypatch, capsys):
    # a process pool forks all of its max_workers at the first submit
    made = []

    class RecordingPool:
        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
    cfg = tiny_config(fronthaul_sweep_bps=[8e6], schemes=["bench3"])
    run_sweep(cfg, workers=64)
    assert made == [cfg.trials]
    run_sweep(tiny_config(trials=1, fronthaul_sweep_bps=[8e6], schemes=["bench3"]), workers=64)
    assert made == [cfg.trials]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(TINY, fronthaul_sweep_bps=[8e6], schemes=["bench3"])))
    assert cli_main(["sweep", "--config", str(path), "--out", str(tmp_path / "o.csv"),
                     "--threads", "64"]) == 0
    assert made == [cfg.trials] * 2


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_threads_below_one_is_one_error_line(tmp_path, monkeypatch, capsys, threads):
    calls = []
    monkeypatch.setattr(cli, "run_sweep", lambda *args: calls.append(args))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY))
    out = tmp_path / "o.csv"
    code = cli_main(["sweep", "--config", str(path), "--out", str(out), "--threads", threads])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: --threads") and err.count("\n") == 1
    assert calls == [] and not out.exists()


def test_failing_run_is_an_error_row(sweep_result, monkeypatch, caplog):
    # a run that raises something other than SolverIndeterminate costs only
    # its own row; the rest of the sweep is as if nothing had failed
    from cran_maxmin import harness
    cfg, (rows, _) = sweep_result
    real = harness.run_benchmark3
    calls = []

    def flaky(ch, netcfg, *args, **kwargs):
        calls.append(1)
        if len(calls) == 2:  # trial 0 at the second capacity
            raise ZeroDivisionError("injected")
        return real(ch, netcfg, *args, **kwargs)

    monkeypatch.setattr(harness, "run_benchmark3", flaky)
    with caplog.at_level("ERROR", logger="cran_maxmin.harness"):
        rows2, aggregates = run_sweep(cfg, workers=1)
    broken = [i for i, r in enumerate(rows2) if r["status"] != "ok"]
    assert len(broken) == 1
    row = rows2[broken[0]]
    assert (row["trial"], row["fronthaul_bps"], row["scheme"], row["status"]) == \
        (0, cfg.fronthaul_sweep_bps[1], "bench3", "error")
    assert math.isnan(row["gamma_linear"]) and row["iterations"] == 0
    others = [r for i, r in enumerate(rows) if i != broken[0]]
    assert _rows_equal(others, rows2[:broken[0]] + rows2[broken[0] + 1:])
    [record] = caplog.records
    assert record.levelname == "ERROR"
    for part in ("trial 0", repr(cfg.fronthaul_sweep_bps[1]), "bench3", "injected"):
        assert part in record.getMessage()
    failed = [a["status"] for a in aggregates
              if (a["fronthaul_bps"], a["scheme"]) == (cfg.fronthaul_sweep_bps[1], "bench3")]
    assert failed == ["mean_of_1_failed_1"]


def _rows_equal(a, b, skip_runtime=True):
    if len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
        for key in ra:
            if skip_runtime and key == "runtime_ms":
                continue
            if ra[key] != rb[key]:
                return False
    return True


class TestCsv:
    def test_byte_identical_without_timing(self, tmp_path):
        cfg = tiny_config(trials=1, fronthaul_sweep_bps=[8e6])
        rows, agg = run_sweep(cfg)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(p1, rows, agg)
        rows2, agg2 = run_sweep(cfg)
        write_csv(p2, rows2, agg2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_and_mean_rows(self, tmp_path):
        cfg = tiny_config(trials=1, fronthaul_sweep_bps=[8e6])
        rows, agg = run_sweep(cfg)
        path = tmp_path / "out.csv"
        write_csv(path, rows, agg)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == ("fronthaul_bps,scheme,trial,gamma_linear,gamma_db,"
                            "iterations,runtime_ms,status")
        assert len(lines) == 1 + len(rows) + len(agg)
        mean_lines = [l for l in lines[1:] if ",mean," in l]
        assert len(mean_lines) == len(agg)

    def test_aggregate_recomputable_from_csv(self, tmp_path):
        cfg = tiny_config()
        rows, agg = run_sweep(cfg)
        path = tmp_path / "out.csv"
        write_csv(path, rows, agg)
        lines = path.read_text().strip().split("\n")[1:]
        raw, means = {}, {}
        for line in lines:
            f = line.split(",")
            key = (f[0], f[1])
            if f[2] == "mean":
                means[key] = float(f[3])
            else:
                raw.setdefault(key, []).append(float(f[3]))
        for key, vals in raw.items():
            assert means[key] == sum(vals) / len(vals)


class TestCli:
    def _config_file(self, tmp_path, **overrides):
        path = tmp_path / "config.json"
        doc = dict(TINY)
        doc.update(overrides)
        path.write_text(json.dumps(doc))
        return path

    def test_gen_channels(self, tmp_path, capsys):
        cfg = self._config_file(tmp_path)
        out = tmp_path / "chan.json"
        assert cli_main(["gen-channels", "--config", str(cfg), "--seed", "3",
                         "--out", str(out)]) == 0
        ch, _ = load_channel_state(out)
        assert (ch.n_users, ch.n_rrh, ch.n_antennas) == (3, 2, 2)

    def test_gen_channels_is_trial_0(self, tmp_path, capsys):
        cfg = self._config_file(tmp_path)
        out = tmp_path / "chan.json"
        cli_main(["gen-channels", "--config", str(cfg), "--seed", "3",
                  "--out", str(out)])
        ch, _ = load_channel_state(out)
        _, expected = draw_trial(tiny_config(seed=3), 0)
        assert np.array_equal(ch.h, expected.h)

    @pytest.mark.parametrize("scheme", list(RUNNERS))
    def test_solve_accepts_every_registered_scheme(self, tmp_path, capsys, scheme):
        cfg = self._config_file(tmp_path)
        chan = tmp_path / "chan.json"
        cli_main(["gen-channels", "--config", str(cfg), "--seed", "3",
                  "--out", str(chan)])
        assert cli_main(["solve", "--scheme", scheme, "--channels", str(chan),
                         "--config", str(cfg), "--fronthaul-bps", "8e6"]) == 0

    def test_solve_unknown_scheme_exit_1(self, tmp_path, capsys):
        cfg = self._config_file(tmp_path)
        chan = tmp_path / "chan.json"
        cli_main(["gen-channels", "--config", str(cfg), "--seed", "3",
                  "--out", str(chan)])
        assert cli_main(["solve", "--scheme", "magic", "--channels", str(chan),
                         "--config", str(cfg)]) == 1

    def test_solve_prints_trace(self, tmp_path, capsys):
        cfg = self._config_file(tmp_path)
        chan = tmp_path / "chan.json"
        cli_main(["gen-channels", "--config", str(cfg), "--seed", "3",
                  "--out", str(chan)])
        capsys.readouterr()
        code = cli_main(["solve", "--scheme", "alg1", "--channels", str(chan),
                         "--config", str(cfg), "--fronthaul-bps", "8e6"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("t=1 gamma1=")
        assert "final gamma=" in out

    @pytest.mark.parametrize("scheme,label", [
        ("alg1", "removed"), ("bench1", "removed"), ("bench2", "added")])
    def test_solve_trace_labels_the_link_by_scheme(self, tmp_path, capsys, scheme, label):
        # the desk sweep's trial 0 at 5 Mb/s: bench2's second step activates
        # link (5, 2); the JSON trace keeps the removed_* keys for every scheme
        desk = Path(__file__).resolve().parent.parent / "configs" / "desk.json"
        chan, trace = tmp_path / "chan.json", tmp_path / "trace.json"
        cli_main(["gen-channels", "--config", str(desk), "--seed", "11", "--out", str(chan)])
        capsys.readouterr()
        assert cli_main(["solve", "--scheme", scheme, "--channels", str(chan),
                         "--config", str(desk), "--fronthaul-bps", "5e6",
                         "--trace-out", str(trace)]) == 0
        steps = capsys.readouterr().out.splitlines()[:-1]
        other = "added" if label == "removed" else "removed"
        assert all(f" {label}=" in line and f" {other}=" not in line for line in steps)
        if scheme == "bench2":
            assert "added=(5,2) omega_sizes=[3, 2, 2]" in steps[1]
            rec = json.loads(trace.read_text())["iterations"][1]
            assert (rec["removed_user"], rec["removed_rrh"]) == (5, 2)

    def test_solve_trace_out(self, tmp_path, capsys):
        cfg = self._config_file(tmp_path)
        chan = tmp_path / "chan.json"
        cli_main(["gen-channels", "--config", str(cfg), "--seed", "3",
                  "--out", str(chan)])
        trace = tmp_path / "trace.json"
        code = cli_main(["solve", "--scheme", "bench3", "--channels", str(chan),
                         "--config", str(cfg), "--trace-out", str(trace)])
        assert code == 0
        doc = json.loads(trace.read_text())
        assert doc["scheme"] == "bench3"
        assert {"t", "gamma1", "gamma2", "gamma", "removed_user", "removed_rrh",
                "omega_sizes"} <= set(doc["iterations"][0])

    @pytest.mark.parametrize("scheme", ["alg1", "bench2", "bench3"])
    def test_solve_trace_out_is_strict_json(self, tmp_path, capsys, scheme):
        # no fronthaul binds at 1e12 b/s, so every gamma2 is infinite; bench2's
        # bisection then solves only the first and last of its 4 steps
        def refuse(name):
            raise ValueError(f"{name} is not JSON")

        config = Path(__file__).resolve().parent.parent / "configs" / "tiny.json"
        chan, trace = tmp_path / "chan.json", tmp_path / "trace.json"
        cli_main(["gen-channels", "--config", str(config), "--seed", "42", "--out", str(chan)])
        capsys.readouterr()
        assert cli_main(["solve", "--scheme", scheme, "--channels", str(chan),
                         "--config", str(config), "--fronthaul-bps", "1e12",
                         "--trace-out", str(trace)]) == 0
        out = capsys.readouterr().out
        doc = json.loads(trace.read_text(), parse_constant=refuse)
        rows = doc["iterations"]
        assert all(r["gamma2"] is None for r in rows)
        skipped = [r["t"] for r in rows if r["gamma1"] is None]
        assert skipped == [r["t"] for r in rows if r["gamma"] is None]
        assert (len(skipped) > 0) == (scheme == "bench2")
        assert out.count("gamma1=- ") == out.count("gamma=- ") == len(skipped)

    def test_stalled_final_read_exits_2_after_the_trace(self, tmp_path, capsys,
                                                         monkeypatch):
        # the answer's beamformers are solved when `solve` first reads them,
        # after it has printed every iteration
        def stalled(self, gamma):
            raise SolverIndeterminate("power-min stalled")

        cfg = self._config_file(tmp_path)
        chan, trace = tmp_path / "chan.json", tmp_path / "trace.json"
        cli_main(["gen-channels", "--config", str(cfg), "--seed", "3", "--out", str(chan)])
        capsys.readouterr()
        monkeypatch.setattr(beamforming._BeamProblem, "solve_power_min", stalled)
        code = cli_main(["solve", "--scheme", "bench3", "--channels", str(chan),
                         "--config", str(cfg), "--fronthaul-bps", "1e6",
                         "--trace-out", str(trace)])
        out, err = capsys.readouterr()
        assert code == 2
        assert out.startswith("t=1 gamma1=") and "final gamma=" not in out
        assert err == "solver indeterminate: power-min stalled\n"
        assert not trace.exists()

    def test_solve_refuses_an_unwritable_trace_out_before_solving(self, tmp_path, capsys,
                                                                  monkeypatch):
        cfg = self._config_file(tmp_path)
        chan = tmp_path / "chan.json"
        cli_main(["gen-channels", "--config", str(cfg), "--seed", "3", "--out", str(chan)])
        capsys.readouterr()
        calls = []
        monkeypatch.setitem(harness.RUNNERS, "alg1", lambda *args: calls.append(args))
        folder = tmp_path / "folder"
        folder.mkdir()
        for trace in (folder, tmp_path / "missing" / "trace.json"):
            code = cli_main(["solve", "--scheme", "alg1", "--channels", str(chan),
                             "--config", str(cfg), "--trace-out", str(trace)])
            err = capsys.readouterr().err
            assert code == 1
            assert err.startswith("error: ") and err.count("\n") == 1 and str(trace) in err
        assert calls == []

    @pytest.mark.parametrize("error, code", [(ValueError("solve failed"), 1),
                                             (SolverIndeterminate("solve failed"), 2)],
                             ids=["error", "indeterminate"])
    def test_failed_solve_leaves_its_trace_path_as_it_was(self, tmp_path, capsys,
                                                          monkeypatch, error, code):
        def broken(*args):
            raise error

        cfg = self._config_file(tmp_path)
        chan = tmp_path / "chan.json"
        cli_main(["gen-channels", "--config", str(cfg), "--seed", "3", "--out", str(chan)])
        monkeypatch.setitem(harness.RUNNERS, "alg1", broken)
        new, old = tmp_path / "new.json", tmp_path / "old.json"
        old.write_bytes(b"earlier trace\n")
        for trace in (new, old):
            assert cli_main(["solve", "--scheme", "alg1", "--channels", str(chan),
                             "--config", str(cfg), "--trace-out", str(trace)]) == code
            assert "solve failed" in capsys.readouterr().err
        assert not new.exists() and old.read_bytes() == b"earlier trace\n"

    def test_gen_channels_writes_exactly_the_known_keys(self, tmp_path, capsys):
        out = tmp_path / "chan.json"
        assert cli_main(["gen-channels", "--config", str(self._config_file(tmp_path)),
                         "--seed", "3", "--out", str(out)]) == 0
        assert set(json.loads(out.read_text())) == {"n_rrh", "n_users", "n_antennas", "h",
                                                    "rrh_pos", "user_pos"}

    @pytest.mark.parametrize("key, value", [("noise_power_w", 1e-13), ("bogus", 1)])
    def test_channel_file_with_an_unknown_key_is_one_error_line(self, tmp_path, capsys,
                                                                key, value):
        # the noise power comes from the config alone
        cfg = self._config_file(tmp_path)
        chan = tmp_path / "chan.json"
        cli_main(["gen-channels", "--config", str(cfg), "--seed", "3", "--out", str(chan)])
        capsys.readouterr()
        chan.write_text(json.dumps(dict(json.loads(chan.read_text()), **{key: value})))
        code = cli_main(["solve", "--scheme", "alg1", "--channels", str(chan),
                         "--config", str(cfg)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1 and f"'{key}'" in err
        assert ("noise power comes from the config" in err) == (key == "noise_power_w")

    def test_solve_replays_the_sweep_rows_of_its_draw(self, tmp_path, capsys):
        # gen-channels at the config's seed writes the sweep's trial 0; its
        # nearest RRHs by distance differ from those by channel gain
        desk = Path(__file__).resolve().parent.parent / "configs" / "desk.json"
        cfg = ExperimentConfig.from_json(desk)
        chan = tmp_path / "chan.json"
        assert cli_main(["gen-channels", "--config", str(desk), "--seed", str(cfg.seed),
                         "--out", str(chan)]) == 0
        topo, ch = draw_trial(cfg, 0)
        assert nearest_rrh_association(ch) != nearest_rrh_association(ch, topo)
        rows = harness._run_trial(cfg, 0)
        for bps in (5e6, 40e6):
            trace = tmp_path / "trace.json"
            assert cli_main(["solve", "--scheme", "bench3", "--channels", str(chan),
                             "--config", str(desk), "--fronthaul-bps", repr(bps),
                             "--trace-out", str(trace)]) == 0
            doc = json.loads(trace.read_text())
            [row] = [r for r in rows if r["scheme"] == "bench3" and r["fronthaul_bps"] == bps]
            assert doc["final_gamma"] == row["gamma_linear"]
            swept = run_benchmark3(ch, cfg.network_config(bps), cfg.tolerances(), topo)
            assert doc["final_gamma"] == swept.final_gamma
            assert doc["final_omega"] == [sorted(s) for s in swept.final_association.omega]

    def test_sweep_writes_csv(self, tmp_path, capsys):
        cfg = self._config_file(tmp_path, trials=1, fronthaul_sweep_bps=[8e6])
        out = tmp_path / "results.csv"
        assert cli_main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        assert out.exists()

    def test_sweep_refuses_an_unwritable_out_before_any_trial(self, tmp_path, capsys,
                                                              monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "run_sweep", lambda *args: calls.append(args))
        cfg = self._config_file(tmp_path)
        folder = tmp_path / "folder"
        folder.mkdir()
        code = cli_main(["sweep", "--config", str(cfg), "--out", str(folder)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1 and str(folder) in err
        assert calls == []

    def test_failed_sweep_leaves_its_out_path_as_it_was(self, tmp_path, capsys, monkeypatch):
        def broken(*args):
            raise ValueError("sweep failed")

        monkeypatch.setattr(cli, "run_sweep", broken)
        cfg = self._config_file(tmp_path)
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        old.write_bytes(b"earlier results\n")
        for out in (new, old):
            code = cli_main(["sweep", "--config", str(cfg), "--out", str(out)])
            assert code == 1 and "sweep failed" in capsys.readouterr().err
        assert not new.exists() and old.read_bytes() == b"earlier results\n"

    def test_missing_config_exit_1_names_path(self, tmp_path, capsys):
        code = cli_main(["sweep", "--config", str(tmp_path / "missing.json"),
                         "--out", str(tmp_path / "o.csv")])
        err = capsys.readouterr().err
        assert code == 1
        assert "missing.json" in err

    def test_mismatched_channel_file_exit_1(self, tmp_path, capsys):
        cfg = self._config_file(tmp_path)
        chan = tmp_path / "chan.json"
        cli_main(["gen-channels", "--config", str(cfg), "--seed", "3",
                  "--out", str(chan)])
        cfg_bad = self._config_file(tmp_path, n_users=4)
        assert cli_main(["solve", "--scheme", "alg1", "--channels", str(chan),
                         "--config", str(cfg_bad)]) == 1

    @pytest.mark.parametrize("command", [["solve", "--scheme", "alg1"], ["oracle"]])
    def test_mismatched_channel_file_names_both_shapes(self, tmp_path, capsys, command):
        cfg = self._config_file(tmp_path)
        chan = tmp_path / "chan.json"
        cli_main(["gen-channels", "--config", str(cfg), "--seed", "3",
                  "--out", str(chan)])
        capsys.readouterr()
        cfg_bad = self._config_file(tmp_path, n_users=4)
        assert cli_main(command + ["--channels", str(chan), "--config", str(cfg_bad)]) == 1
        assert "channel file is K=3 N=2 M=2, config says K=4 N=2 M=2" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("text", ["5", '[["n_rrh", 2]]', '"n_rrh"', "null"])
    @pytest.mark.parametrize("kind", ["config", "channels"])
    def test_file_not_an_object_is_one_error_line(self, tmp_path, capsys, kind, text):
        cfg = self._config_file(tmp_path)
        chan = tmp_path / "chan.json"
        cli_main(["gen-channels", "--config", str(cfg), "--seed", "3",
                  "--out", str(chan)])
        capsys.readouterr()
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        files = {"config": cfg, "channels": chan, kind: bad}
        code = cli_main(["solve", "--scheme", "alg1", "--channels", str(files["channels"]),
                         "--config", str(files["config"])])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "bad.json must hold a JSON object" in err

    @pytest.mark.parametrize("kind", ["config", "channels"])
    def test_directory_path_is_one_error_line(self, tmp_path, capsys, kind):
        cfg = self._config_file(tmp_path)
        chan = tmp_path / "chan.json"
        cli_main(["gen-channels", "--config", str(cfg), "--seed", "3",
                  "--out", str(chan)])
        capsys.readouterr()
        folder = tmp_path / "folder"
        folder.mkdir()
        files = {"config": cfg, "channels": chan, kind: folder}
        code = cli_main(["solve", "--scheme", "alg1", "--channels", str(files["channels"]),
                         "--config", str(files["config"])])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{folder} cannot be read" in err

    def test_unknown_flag_exit_1(self, capsys):
        assert cli_main(["sweep", "--bogus"]) == 1

    def test_oracle_subcommand(self, tmp_path, capsys):
        cfg = self._config_file(tmp_path)
        chan = tmp_path / "chan.json"
        cli_main(["gen-channels", "--config", str(cfg), "--seed", "3",
                  "--out", str(chan)])
        capsys.readouterr()
        code = cli_main(["oracle", "--channels", str(chan), "--config", str(cfg),
                         "--fronthaul-bps", "8e6"])
        out = capsys.readouterr().out
        assert code == 0
        assert "gamma_opt=" in out and "assoc_opt=" in out

    def test_console_entry_point(self):
        proc = subprocess.run([sys.executable, "-m", "cran_maxmin.cli"],
                              capture_output=True, text=True)
        assert proc.returncode == 1  # no subcommand -> usage error

    def test_one_blas_thread_unless_set(self):
        names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        code = ("import os, cran_maxmin.cli; "
                "print(*(os.environ[n] for n in %r))" % (names,))
        unset = {k: v for k, v in os.environ.items() if k not in names}
        for env, expected in ((unset, "1"), (dict(unset, **dict.fromkeys(names, "2")), "2")):
            proc = subprocess.run([sys.executable, "-c", code], env=env,
                                  capture_output=True, text=True, check=True)
            assert proc.stdout.split() == [expected] * 3
