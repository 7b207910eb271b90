"""Command-line contract: exit codes, report formats, determinism."""

import csv
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import causalcov
from causalcov import (
    ExperimentConfig,
    NonFiniteBound,
    VarSystem,
    arma_corollary_bound,
    bounds,
    cli,
    load_config,
    montecarlo,
    process,
)
from causalcov.cli import SWEEP_COLUMNS, VERIFY_COLUMNS, main
from conftest import random_operator, spy_draws


def write_config(path, payload) -> str:
    path.write_text(json.dumps(payload))
    return str(path)


def base_config(**overrides) -> dict:
    cfg = {
        "model": {"type": "var", "a_lags": [[[0.5]]], "h": [[1.0]]},
        "T": 24,
        "k": 1,
        "replicates": 400,
        "seed": 13,
        "events": ["chernoff-direction"],
    }
    cfg.update(overrides)
    return cfg


def _chernoff(direction) -> dict:
    return {"event": "chernoff-direction", "params": {"direction": direction}}


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


THREE_EVENTS = [
    "lower-tail-eigenvalue",
    "chernoff-direction",
    {"event": "upper-tail-opnorm", "params": {"q": 2.0}},
]


def assert_rows_match_single_runs(cfg, rows) -> None:
    """Each report row is run_tail_experiment alone on its own cell at the
    sub-seed derive_seed(s, 0).  A sweep row reads the prefix of one sample
    at the grid's longest T', so this holds bit for bit where each cell's
    T' is a multiple of the simulator's 16-step block."""
    config = load_config(cfg)
    params = {ev.event: ev.params for ev in config.events}
    seed = process.derive_seed(config.seed, 0)
    for row in rows:
        spec = config.process_spec(row["T"], row["k"])
        exp = montecarlo.run_tail_experiment(
            spec, row["event"], dict(params[row["event"]]), R=config.replicates, seed=seed
        )
        assert row["seed"] == exp.seed == seed
        assert (row["hits"], row["frequency"], row["bound"]) == (exp.hits, exp.frequency, exp.bound)
        assert (row["ci_low"], row["ci_high"]) == exp.ci


# ---------------------------------------------------------------------------
# config parsing


class TestConfig:
    def test_round_trip(self, tmp_path):
        cfg_path = write_config(tmp_path / "c.json", base_config())
        config = load_config(cfg_path)
        again = ExperimentConfig.from_dict(config.to_dict())
        assert again.to_dict() == config.to_dict()

    def test_unknown_key_rejected(self, tmp_path):
        cfg = base_config(bogus=1)
        with pytest.raises(Exception, match="unknown config keys"):
            load_config(write_config(tmp_path / "c.json", cfg))

    def test_operator_model(self, tmp_path):
        cfg = {
            "model": {
                "type": "operator",
                "d": 1,
                "p": 1,
                "k": 1,
                "blocks": [[[[1.0]]], [[[0.3]], [[1.0]]]],
            },
            "T": 2,
            "replicates": 16,
            "events": ["lower-tail-eigenvalue"],
        }
        config = load_config(write_config(tmp_path / "c.json", cfg))
        assert config.k == 1 and config.T == 2
        spec = config.process_spec()
        assert spec.source.n_blocks == 2
        assert config.to_dict()["model"] == cfg["model"]
        again = ExperimentConfig.from_dict(json.loads(json.dumps(config.to_dict())))
        assert np.array_equal(again.model.dense(), config.model.dense())
        assert np.array_equal(config.model.dense(), [[1.0, 0.0], [0.3, 1.0]])
        # a d=2, p=1, k=2 operator keeps every entry through the round trip
        op = random_operator(np.random.default_rng(3), d=2, p=1, k=2, n_blocks=3)
        rows = [[op.block(i, j).tolist() for j in range(i + 1)] for i in range(3)]
        model = {"type": "operator", "d": 2, "p": 1, "k": 2, "blocks": rows}
        config = ExperimentConfig.from_dict({"model": model, "T": 6})
        again = ExperimentConfig.from_dict(json.loads(json.dumps(config.to_dict())))
        assert again.to_dict() == config.to_dict()
        assert np.array_equal(again.model.dense(), op.dense())

    def test_auto_k_resolves_to_excitation_index(self, tmp_path):
        cfg = base_config(
            model={
                "type": "var",
                "a_lags": [[[0.0, 0.0], [1.0, 0.0]]],
                "h": [[1.0], [0.0]],
            },
            k="auto",
        )
        config = load_config(write_config(tmp_path / "c.json", cfg))
        assert config.k == 2 and config.k_auto

    def test_event_validation(self, tmp_path):
        with pytest.raises(Exception, match="unknown event"):
            load_config(write_config(tmp_path / "c.json", base_config(events=["nope"])))
        with pytest.raises(Exception, match="requires a 'q'"):
            load_config(
                write_config(
                    tmp_path / "c.json", base_config(events=[{"event": "upper-tail-opnorm"}])
                )
            )


# ---------------------------------------------------------------------------
# subcommands


class TestBounds:
    def test_auto_k_meets_the_explicit_k_test(self, tmp_path):
        # Gamma_1 is singular and Gamma_2's eigenvalue ratio is 3.95e-11:
        # "auto" resolves to the k = 2 that an explicit k already passes,
        # and the report's kappa is that k
        model = {"type": "var", "a_lags": [[[0.5, 0.0], [1e-5, 0.5]]], "h": [[1.0], [0.0]]}
        reports = {}
        for k in ("auto", 2):
            cfg = write_config(tmp_path / f"{k}.json", base_config(model=model, T=4096, k=k))
            out = tmp_path / f"out-{k}"
            assert main(["bounds", "--config", cfg, "--out", str(out)]) == 0
            reports[k] = json.loads((out / "bounds.json").read_text())
        assert reports["auto"]["k"] == reports["auto"]["kappa"] == reports[2]["kappa"] == 2
        assert reports["auto"].pop("k_auto") is True and reports[2].pop("k_auto") is False
        assert reports["auto"] == reports[2]

    def test_report_contents(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", base_config(T=10, k=3))
        out = tmp_path / "out"
        assert main(["bounds", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "bounds.json").read_text())
        assert report["effective_horizon"] == 9
        assert "truncation_notice" in report
        assert report["kappa"] == 1
        assert report["psi_k"] > 0.0
        assert report["anticonc_bound"] > 0.0
        assert report["gamma_k_spectrum"]
        assert report["c_sys"] > 1.0
        assert "arma_corollary_bound" in report
        meta = json.loads((out / "bounds.meta.json").read_text())
        assert meta["numpy"] == np.__version__

    def test_iid_psi_is_one(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            base_config(model={"type": "var", "a_lags": [[[0.0]]], "h": [[1.0]]}),
        )
        out = tmp_path / "out"
        assert main(["bounds", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "bounds.json").read_text())
        assert report["psi_k"] == pytest.approx(1.0, abs=1e-8)

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", base_config())
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["bounds", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["bounds", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "bounds.json").read_bytes() == (out2 / "bounds.json").read_bytes()

    @pytest.mark.parametrize("subcommand", ["bounds", "verify", "sweep"])
    def test_var_route_never_builds_the_operator(self, tmp_path, monkeypatch, subcommand):
        events = [
            "lower-tail-eigenvalue",
            "chernoff-direction",
            {"event": "upper-tail-opnorm", "params": {"q": 2.0}},
        ]
        cfg = write_config(
            tmp_path / "c.json",
            base_config(events=events, replicates=64, grid={"T": [12, 24], "k": [1, 2]}),
        )
        codes = [main([subcommand, "--config", cfg, "--out", str(tmp_path / "dense")])]

        def refuse(*args, **kwargs):
            raise AssertionError("a VAR source must not build its dense operator")

        monkeypatch.setattr(process, "var_to_operator", refuse)
        codes.append(main([subcommand, "--config", cfg, "--out", str(tmp_path / "free")]))
        assert codes[0] == codes[1]
        reports = sorted(p.name for p in (tmp_path / "dense").glob("*") if ".meta." not in p.name)
        assert reports
        for name in reports:
            dense, free = tmp_path / "dense" / name, tmp_path / "free" / name
            assert dense.read_bytes() == free.read_bytes()

    def test_load_forms_the_series_once(self, tmp_path, monkeypatch):
        # the load-time overflow check forms the companion powers and the
        # impulses for the longest horizon; the bounds runs then read them
        # without extending the powers
        cfg = write_config(tmp_path / "c.json", base_config(T=48, grid={"T": [24, 48]}))
        config = load_config(cfg)
        analysis = process.var_analysis(config.model)
        assert [len(analysis._derived_series[name]) for name in ("powers", "impulses")] == [48, 48]

        def refuse(*args, **kwargs):
            raise AssertionError("the analysis must be built once, at load")

        def no_growth(self, n):
            raise AssertionError(f"powers extended to {n} after load")

        monkeypatch.setattr(process, "companion", refuse)
        monkeypatch.setattr(process.VarAnalysis, "_powers", no_growth)
        monkeypatch.setattr(cli, "load_config", lambda path: config)
        for subcommand in ("bounds", "sweep"):
            assert main([subcommand, "--config", cfg, "--out", str(tmp_path / "o")]) in (0, 1)

    def test_insufficient_excitation_exit_2(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            base_config(
                model={
                    "type": "var",
                    "a_lags": [[[0.0, 0.0], [0.0, 0.0]]],
                    "h": [[1.0], [0.0]],
                },
                k="auto",
            ),
        )
        assert main(["bounds", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


class TestVerify:
    def test_pass_and_column_order(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", base_config())
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        with open(out / "verify.csv", newline="") as fh:
            header = next(csv.reader(fh))
        assert tuple(header) == VERIFY_COLUMNS
        rows = read_rows(out / "verify.csv")
        assert len(rows) == 1
        assert rows[0]["event"] == "chernoff-direction"
        assert rows[0]["certified"] == "true"
        summary = json.loads((out / "verify.json").read_text())
        assert summary["overall_pass"] is True

    def test_negative_control_exit_1(self, tmp_path, monkeypatch):
        # a deliberately wrong bound must fail certification end to end
        real = montecarlo._chernoff
        monkeypatch.setattr(montecarlo, "_chernoff", lambda *args: (1e-300, real(*args)[1]))
        cfg = write_config(tmp_path / "c.json", base_config())
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 1
        summary = json.loads((out / "verify.json").read_text())
        assert summary["overall_pass"] is False

    def test_step_budget_determinism(self, tmp_path, monkeypatch):
        # T=24: batches of 1360 replicates by default, of 8 (the floor) at
        # STEPS=24 and of 1000 at 24007; 2100 replicates leave a last batch of
        # 740, 4 and 100.  The sweep's cells have T' = 24, 30 and 32, one a
        # multiple of the 16-step block; its one pass at T' = 32 runs batches
        # of 1024, 8 and 744 replicates
        cfg = write_config(tmp_path / "c.json", base_config(replicates=2100))
        grid = {"T": [24, 32], "k": [1, 3]}
        sweep_cfg = write_config(tmp_path / "sw.json", base_config(replicates=2100, grid=grid))
        outs, sweep_codes = [], []
        for steps in (montecarlo.STEPS, 24, 24 * 1000 + 7):
            monkeypatch.setattr(montecarlo, "STEPS", steps)
            out = tmp_path / f"s{steps}"
            assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
            assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
            sweep_codes.append(main(["sweep", "--config", sweep_cfg, "--out", str(out)]))
            outs.append(out)
        assert sweep_codes[1:] == sweep_codes[:-1]
        for out in outs[1:]:
            for name in ("verify.csv", "verify.json", "simulate.csv", "sweep.csv", "sweep.json"):
                assert (outs[0] / name).read_bytes() == (out / name).read_bytes(), name

    def test_events_share_one_sample(self, tmp_path, monkeypatch):
        draws = spy_draws(monkeypatch)
        cfg = write_config(tmp_path / "c.json", base_config(events=THREE_EVENTS, replicates=300))
        out = tmp_path / "out"
        main(["verify", "--config", cfg, "--out", str(out)])
        # 300 replicates, not 3 x 300, all at the sub-seed of cell 0
        assert sum(count for _, _, count in draws) == 300
        assert {seed for _, seed, _ in draws} == {process.derive_seed(13, 0)}
        rows = json.loads((out / "verify.json").read_text())["results"]
        assert [r["event"] for r in rows] == [
            "lower-tail-eigenvalue", "chernoff-direction", "upper-tail-opnorm"
        ]
        assert_rows_match_single_runs(cfg, rows)

    def test_seed_and_replicates_overrides(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", base_config())
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        main(["verify", "--config", cfg, "--out", str(out1), "--seed", "99", "--replicates", "128"])
        main(["verify", "--config", cfg, "--out", str(out2), "--seed", "99", "--replicates", "128"])
        rows = read_rows(out1 / "verify.csv")
        assert rows[0]["replicates"] == "128"
        assert (out1 / "verify.csv").read_bytes() == (out2 / "verify.csv").read_bytes()


class TestIdentify:
    def test_report_and_csv(self, tmp_path):
        # 60 replicates: enough for a zero-hit Wilson edge to clear the 0.2 budget
        cfg = write_config(tmp_path / "c.json", base_config(T=512, replicates=60))
        out = tmp_path / "out"
        assert main(["identify", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "identify.json").read_text())
        assert report["burnin_satisfied"] is True
        assert report["certified"] is True
        assert report["exceedance"]["hits"] == 0
        rows = read_rows(out / "identify.csv")
        assert len(rows) == 60
        assert float(rows[0]["op_error"]) > 0.0

    @pytest.mark.parametrize("seed", [1, 4])
    def test_one_row_batch_determinism(self, tmp_path, monkeypatch, seed):
        # identify simulates T' + 1 = 65 steps; at eight replicates per batch
        # the ninth replicate runs alone, and must round as in the one batch of
        # nine, in its path and in the stacked least-squares fit
        model = {"type": "var", "a_lags": [[[0.5, 0.1], [0.0, 0.4]]], "h": [[1.0, 0.0], [0.0, 1.0]]}
        cfg = write_config(
            tmp_path / "c.json", base_config(model=model, T=64, replicates=9, seed=seed)
        )
        outs = []
        for steps in (montecarlo.STEPS, 8 * 65):
            monkeypatch.setattr(montecarlo, "STEPS", steps)
            out = tmp_path / f"s{steps}"
            main(["identify", "--config", cfg, "--out", str(out)])
            outs.append(out)
        for name in ("identify.csv", "identify.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_reports_above_the_time_block_do_not_depend_on_steps(self, tmp_path, monkeypatch):
        # T' + 1 = 557 steps run in three time blocks, the last of 45 steps.
        # Batches of 128 replicates at the default STEPS, of 8 at 256 * 8 and
        # of 40 at 40 * 256 + 3; 133 replicates leave a last batch of 5, 5 and
        # 13.  Each fit's Gram and cross sums are accumulated block by block,
        # in the same order whatever the batch
        model = {
            "type": "var",
            "a_lags": [[[0.4, 0.1], [0.0, 0.4]], [[0.15, 0.0], [0.05, 0.15]]],
            "h": [[1.0, 0.0], [0.3, 0.8]],
        }
        cfg = write_config(
            tmp_path / "c.json", base_config(model=model, T=557, k=2, replicates=133, seed=3)
        )
        block = montecarlo._TIME_BLOCK
        outs = []
        for steps in (montecarlo.STEPS, 8 * block, 40 * block + 3):
            monkeypatch.setattr(montecarlo, "STEPS", steps)
            out = tmp_path / f"s{steps}"
            main(["identify", "--config", cfg, "--out", str(out)])
            outs.append(out)
        for out in outs[1:]:
            for name in ("identify.csv", "identify.json"):
                assert (outs[0] / name).read_bytes() == (out / name).read_bytes(), name
        assert len(read_rows(outs[0] / "identify.csv")) == 133

    def test_burnin_unsatisfied_omits_certification(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", base_config(T=16, replicates=10))
        out = tmp_path / "out"
        assert main(["identify", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "identify.json").read_text())
        assert report["burnin_satisfied"] is False
        assert "certified" not in report

    @pytest.mark.parametrize("required", [True, False])
    def test_require_burnin(self, tmp_path, monkeypatch, required):
        calls = []
        run = cli.run_identification_experiment

        def counted_run(*args, **kwargs):
            calls.append(1)
            return run(*args, **kwargs)

        monkeypatch.setattr(cli, "run_identification_experiment", counted_run)
        cfg = write_config(
            tmp_path / "c.json", base_config(T=8, replicates=10, require_burnin=required)
        )
        out = tmp_path / "out"
        code = main(["identify", "--config", cfg, "--out", str(out)])
        if required:
            # fails before any replicate is simulated or any report is written
            assert code == 2 and not calls
            assert not (out / "identify.json").exists()
        else:
            assert code == 0 and calls
            report = json.loads((out / "identify.json").read_text())
            assert report["burnin_satisfied"] is False
            assert "certified" not in report


class TestSweep:
    def test_one_by_one_grid_matches_verify(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", base_config(grid={"T": [24]}))
        out_s, out_v = tmp_path / "s", tmp_path / "v"
        assert main(["sweep", "--config", cfg, "--out", str(out_s)]) == 0
        cfg_v = write_config(tmp_path / "cv.json", base_config())
        assert main(["verify", "--config", cfg_v, "--out", str(out_v)]) == 0
        srow = read_rows(out_s / "sweep.csv")[0]
        vrow = read_rows(out_v / "verify.csv")[0]
        for col in VERIFY_COLUMNS:
            assert srow[col] == vrow[col]

    def test_grid_shape_and_psi_column(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            base_config(T=24, events=["lower-tail-eigenvalue"], replicates=64,
                        grid={"T": [12, 24], "k": [1, 2, 4]}),
        )
        out = tmp_path / "out"
        main(["sweep", "--config", cfg, "--out", str(out)])
        with open(out / "sweep.csv", newline="") as fh:
            header = next(csv.reader(fh))
        assert tuple(header) == SWEEP_COLUMNS
        rows = read_rows(out / "sweep.csv")
        assert len(rows) == 6
        # identical diagonal blocks here, so psi_k >= 1/k on every row
        for row in rows:
            assert float(row["psi_k"]) >= 1.0 / float(row["k"]) - 1e-9


    def test_each_cell_sampled_once(self, tmp_path, monkeypatch):
        draws = spy_draws(monkeypatch)
        grid = {"T": [16, 48], "k": [1, 2], "delta": [0.05, 0.2]}
        cfg = write_config(
            tmp_path / "c.json", base_config(events=THREE_EVENTS, replicates=64, grid=grid)
        )
        out = tmp_path / "out"
        main(["sweep", "--config", cfg, "--out", str(out)])
        # one sample of R replicates for the whole grid, at the longest T' and
        # at derive_seed(s, 0): R * T'_max * p normals, with p = 1
        assert {(t_eff, seed) for t_eff, seed, _ in draws} == {(48, process.derive_seed(13, 0))}
        assert sum(count for _, _, count in draws) == 64
        assert sum(t_eff * count for t_eff, _, count in draws) == 64 * 48
        rows = json.loads((out / "sweep.json").read_text())["results"]
        assert len(rows) == 4 * 2 * len(THREE_EVENTS)
        # every cell's T' is a multiple of 16, so each prefix has the bytes of
        # the cell's own sample
        assert_rows_match_single_runs(cfg, rows)
        # the two deltas of a cell share its event rows
        keep = ("event", "hits", "ci_low", "ci_high", "bound", "seed")
        by_delta = [
            [tuple(r[c] for c in keep) for r in rows if r["delta"] == delta]
            for delta in grid["delta"]
        ]
        assert by_delta[0] == by_delta[1]

    @pytest.mark.parametrize("subcommand", ["verify", "sweep"])
    def test_event_order_only_permutes_rows(self, tmp_path, subcommand):
        grid = {"T": [12, 24], "delta": [0.05, 0.2]}
        results = []
        for name, events in (("fwd", THREE_EVENTS), ("rev", THREE_EVENTS[::-1])):
            cfg = write_config(
                tmp_path / f"{name}.json",
                base_config(events=events, replicates=200, T=12, grid=grid),
            )
            out = tmp_path / name
            main([subcommand, "--config", cfg, "--out", str(out)])
            results.append(json.loads((out / f"{subcommand}.json").read_text())["results"])
        n = len(THREE_EVENTS)
        fwd, rev = results
        assert len(fwd) % n == 0
        for i in range(0, len(fwd), n):
            assert fwd[i : i + n] == rev[i : i + n][::-1]

    def test_one_anticoncentration_per_cell(self, tmp_path, monkeypatch):
        calls = {"anticoncentration_bound": [], "psi_k": [], "svd": 0, "gram": []}
        real_anticonc, real_psi, real_svd = cli.anticoncentration_bound, bounds.psi_k, np.linalg.svd
        real_gram = process.VarAnalysis._certified_gram

        def counted_anticonc(op):
            calls["anticoncentration_bound"].append((op.T, op.k))
            return real_anticonc(op)

        def counted_psi(op):
            calls["psi_k"].append((op.T, op.k))
            return real_psi(op)

        def counted_svd(*args, **kwargs):
            calls["svd"] += 1
            return real_svd(*args, **kwargs)

        def counted_gram(analysis, n):
            calls["gram"].append(n)
            return real_gram(analysis, n)

        monkeypatch.setattr(cli, "anticoncentration_bound", counted_anticonc)
        monkeypatch.setattr(bounds, "psi_k", counted_psi)
        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        monkeypatch.setattr(process.VarAnalysis, "_certified_gram", counted_gram)
        events = [
            "lower-tail-eigenvalue",
            "chernoff-direction",
            {"event": "upper-tail-opnorm", "params": {"q": 2.0}},
        ]
        cfg = write_config(
            tmp_path / "c.json",
            base_config(
                replicates=32,
                events=events,
                grid={"T": [12, 24], "k": [1, 2], "delta": [0.05, 0.2]},
            ),
        )
        out = tmp_path / "out"
        main(["sweep", "--config", cfg, "--out", str(out)])
        grid_cells = [(12, 1), (12, 2), (24, 1), (24, 2)]
        # the sweep head, the lower-tail and the upper-tail events of every
        # delta read one analysis per (T, k); a VAR runs neither the psi_k
        # search nor a dense SVD, and lam_max(L^T L), which does not depend
        # on k, is certified once per T
        assert calls["anticoncentration_bound"] == grid_cells
        assert calls["psi_k"] == []
        assert calls["svd"] == 0
        assert calls["gram"] == [12, 24]
        results = json.loads((out / "sweep.json").read_text())
        assert len(results["results"]) == len(grid_cells) * 2 * len(events)
        cells = results["cells"]
        assert [c["delta"] for c in cells[:2]] == [0.05, 0.2]
        assert cells[0]["psi_k"] == cells[1]["psi_k"]
        assert cells[0]["ls_error_bound"] != cells[1]["ls_error_bound"]

    def test_raw_operator_analysis_once(self, tmp_path, monkeypatch):
        # a raw operator keeps the dense route: one psi_k search and one SVD
        # serve the sweep head and every event of every delta
        calls = {"psi_k": 0, "svd": 0}
        real_psi, real_svd = bounds.psi_k, np.linalg.svd

        def counted_psi(op):
            calls["psi_k"] += 1
            return real_psi(op)

        def counted_svd(*args, **kwargs):
            calls["svd"] += 1
            return real_svd(*args, **kwargs)

        monkeypatch.setattr(bounds, "psi_k", counted_psi)
        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        op = random_operator(np.random.default_rng(3), d=2, p=1, k=2, n_blocks=3)
        rows = [[op.block(i, j).tolist() for j in range(i + 1)] for i in range(3)]
        cfg = write_config(
            tmp_path / "c.json",
            {
                "model": {"type": "operator", "d": 2, "p": 1, "k": 2, "blocks": rows},
                "T": 6,
                "replicates": 32,
                "events": [
                    "lower-tail-eigenvalue",
                    "chernoff-direction",
                    {"event": "upper-tail-opnorm", "params": {"q": 2.0}},
                ],
                "grid": {"delta": [0.05, 0.2]},
            },
        )
        main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")])
        assert calls == {"psi_k": 1, "svd": 1}


class TestSimulate:
    def test_paths_csv(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", base_config(replicates=3, T=6))
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        rows = read_rows(out / "simulate.csv")
        assert len(rows) == 18
        assert set(rows[0]) == {"replicate", "t", "x0"}
        again = tmp_path / "again"
        main(["simulate", "--config", cfg, "--out", str(again)])
        assert (out / "simulate.csv").read_bytes() == (again / "simulate.csv").read_bytes()

    def test_one_batch_at_a_time(self, tmp_path, monkeypatch, capsys):
        # T' = 6 and STEPS = 12 (so STEPS // T' = 2, below the floor of 8):
        # batches of 8, 8 and 1 replicates, the last padded to eight rows; the CSV holds the paths
        # of one block of 17
        cfg = write_config(tmp_path / "c.json", base_config(replicates=17, T=6))
        draws = spy_draws(monkeypatch)
        monkeypatch.setattr(montecarlo, "STEPS", 2 * 6)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert "(17 paths, horizon 6)" in capsys.readouterr().out
        assert [count for _, _, count in draws] == [8, 8, 1]
        spec = load_config(cfg).process_spec()
        block = process.paths_from_noise(spec, process.noise_block(spec, 13, 0, 17))
        rows = read_rows(out / "simulate.csv")
        assert [(int(r["replicate"]), int(r["t"])) for r in rows] == [
            (i, t) for i in range(17) for t in range(6)
        ]
        assert [r["x0"] for r in rows] == [repr(v) for v in block[:, :, 0].ravel().tolist()]


class TestErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["bounds"],
            ["nonsense", "--config", "c.json"],
            ["bounds", "--config", "c.json", "--seed", "x"],
        ],
        ids=["no-subcommand", "no-config", "unknown-subcommand", "bad-seed"],
    )
    def test_bad_usage_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage: causalcov" in capsys.readouterr().err

    def test_help_lists_every_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for name in ("bounds", "verify", "identify", "sweep", "simulate"):
            assert f"\n  {name} " in out

    def test_options_before_the_subcommand(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", base_config())
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "bounds"]) == 0
        assert (out / "bounds.json").exists()

    def test_missing_config_exit_2(self, tmp_path):
        assert main(["verify", "--config", str(tmp_path / "none.json")]) == 2

    def test_invalid_json_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["verify", "--config", str(bad)]) == 2

    def test_unknown_key_exit_2(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", base_config(typo_key=True))
        assert main(["verify", "--config", cfg]) == 2

    def test_null_block_length_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", base_config(k=None))
        assert main(["bounds", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "k must be an integer, got None" in capsys.readouterr().err

    def test_horizon_shorter_than_block_exit_2(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", base_config(T=2, k=4))
        assert main(["bounds", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize(
        "overrides, message",
        [
            pytest.param(
                {"grid": {"delta": [0.1, 1.5]}},
                "grid.delta[] must lie in (0, 1), got 1.5",
                id="grid-delta",
            ),
            pytest.param(
                {"grid": {"T": [256, 8], "k": [1, 16]}},
                "block length k=16 exceeds horizon T=8",
                id="grid-block",
            ),
            pytest.param(
                {
                    "model": {
                        "type": "var",
                        "a_lags": [[[0.5, 0.1], [0, 0.4]]],
                        "h": [[1, 0], [0, 1]],
                    },
                    "events": [_chernoff([[1, 0, 0]])],
                },
                "direction must have 2 columns (the state dimension), got 3",
                id="direction-width",
            ),
            pytest.param(
                {
                    "model": {"type": "var", "a_lags": [[[0.5]], [[0.1]]], "h": [[1.0]]},
                    "events": [_chernoff([[1.0]])],
                },
                "direction must have 2 columns (the state dimension), got 1",
                id="direction-width-lifted",
            ),
            pytest.param(
                {"model": {"type": "var", "a_lags": [[["0.5"]]], "h": [[1.0]]}},
                "invalid var model: a_lags[0] is not a numeric matrix",
                id="lag-string",
            ),
            pytest.param(
                {"model": {"type": "var", "a_lags": [[[0.5]]], "h": [[True]]}},
                "invalid var model: h is not a numeric matrix",
                id="h-boolean",
            ),
            pytest.param(
                {"events": [_chernoff([["1.0"]])]},
                "direction is not a numeric matrix",
                id="direction-string",
            ),
            pytest.param(
                {"events": [{"event": "upper-tail-opnorm", "params": {"q": float("inf")}}]},
                "q must be a finite number > 1, got inf",
                id="q-infinity",
            ),
            pytest.param(
                {"events": [{"event": "upper-tail-opnorm", "params": {"q": float("nan")}}]},
                "q must be a finite number > 1, got nan",
                id="q-nan",
            ),
        ],
    )
    @pytest.mark.parametrize("subcommand", ["verify", "sweep"])
    def test_rejected_at_load_exit_2(
        self, tmp_path, capsys, monkeypatch, subcommand, overrides, message
    ):
        def never(*args, **kwargs):
            raise AssertionError("sampling started before the config was rejected")

        monkeypatch.setattr(cli, "run_tail_experiments", never)
        monkeypatch.setattr(cli, "run_tail_sweep", never)
        cfg = write_config(tmp_path / "c.json", base_config(**overrides))
        assert main([subcommand, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err
        assert not list((tmp_path / "o").glob("*"))

    @pytest.mark.parametrize("q", [float("inf"), float("nan")])
    def test_bounds_rejects_non_finite_q(self, tmp_path, capsys, q):
        # JSON's Infinity and NaN parse as floats; neither is a q > 1
        events = [{"event": "upper-tail-opnorm", "params": {"q": q}}]
        cfg = write_config(tmp_path / "c.json", base_config(events=events))
        assert main(["bounds", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert f"q must be a finite number > 1, got {q}" in capsys.readouterr().err
        assert not list((tmp_path / "o").glob("*"))

    def test_seed_below_2_to_64(self, tmp_path, capsys):
        # mix64 reduces a seed mod 2**64, so 2**64 + 5 would replay seed 5
        big, top = str(2**64 + 5), str(2**64 - 1)
        out = str(tmp_path / "o")
        too_big = write_config(tmp_path / "big.json", base_config(replicates=2, seed=2**64 + 5))
        assert main(["simulate", "--config", too_big, "--out", out]) == 2
        assert f"error: seed must be < 2**64, got {big}" in capsys.readouterr().err
        cfg = write_config(tmp_path / "c.json", base_config(replicates=2))
        assert main(["simulate", "--config", cfg, "--out", out, "--seed", big]) == 2
        assert f"error: --seed must be < 2**64, got {big}" in capsys.readouterr().err
        assert not list((tmp_path / "o").glob("*"))
        assert main(["simulate", "--config", cfg, "--out", out, "--seed", top]) == 0


    EXPLOSIVE = {
        "type": "var",
        "a_lags": [[[1.5, 0.0], [0.0, 0.5]]],
        "h": [[1.0, 0.0], [0.0, 1.0]],
    }

    @pytest.mark.parametrize("subcommand", ["bounds", "verify", "identify", "sweep", "simulate"])
    def test_explosive_var_exit_2(self, tmp_path, capsys, subcommand):
        cfg = write_config(
            tmp_path / "c.json", base_config(model=self.EXPLOSIVE, T=2000, replicates=100)
        )
        start = time.perf_counter()
        code = main([subcommand, "--config", cfg, "--out", str(tmp_path / "o")])
        elapsed = time.perf_counter() - start
        assert code == 2
        # 1.5^876 is the first power above sqrt(float max)
        assert "overflows at lag 876" in capsys.readouterr().err
        assert elapsed < 1.0
        assert not list((tmp_path / "o").glob("*"))

    def test_sweep_bounds_every_cell_before_sampling(self, tmp_path, capsys, monkeypatch):
        # one noise column: at k = 1 the summed decoupled covariance is singular,
        # so cell (512, 1) has no bound, and the run fails before it samples (512, 2)
        def never(*args, **kwargs):
            raise AssertionError("sampling started before every cell was bounded")

        monkeypatch.setattr(cli, "run_tail_sweep", never)
        model = {"type": "var", "a_lags": [[[0.5, 0.1], [0, 0.4]]], "h": [[0], [1]]}
        grid = {"T": [512, 64], "k": [2, 1]}
        cfg = write_config(
            tmp_path / "c.json", base_config(model=model, T=512, replicates=20000, grid=grid)
        )
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "summed decoupled covariance is singular" in capsys.readouterr().err
        assert not list((tmp_path / "o").glob("*"))

    def test_explosive_var_grid_horizon_checked(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.json", base_config(model=self.EXPLOSIVE, T=60, grid={"T": [60, 900]})
        )
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "overflows at lag 876" in capsys.readouterr().err

    def test_explosive_var_short_horizon_runs(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", base_config(model=self.EXPLOSIVE, T=60))
        out = tmp_path / "o"
        assert main(["bounds", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "bounds.json").read_text())
        assert np.isfinite(report["anticonc_bound"]) and np.isfinite(report["upper_tail_bound"])

    @pytest.mark.parametrize("subcommand", ["bounds", "verify", "identify", "sweep", "simulate"])
    def test_oversized_noise_map_exit_2(self, tmp_path, capsys, subcommand):
        # A = 0.5 is stable, but H itself cannot be squared
        model = {"type": "var", "a_lags": [[[0.5]]], "h": [[1e200]]}
        cfg = write_config(tmp_path / "c.json", base_config(model=model, T=10, replicates=50))
        assert main([subcommand, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "overflows at lag 0" in err and "noise map" in err
        assert not list((tmp_path / "o").glob("*"))

    @pytest.mark.parametrize("subcommand", ["bounds", "verify", "sweep", "simulate"])
    def test_overflowing_operator_exit_2(self, tmp_path, capsys, subcommand):
        # every entry of L is finite, but its square is not
        model = {"type": "operator", "d": 1, "p": 1, "k": 1,
                 "blocks": [[[[1e200]]], [[[0.0]], [[1e200]]]]}
        cfg = write_config(tmp_path / "c.json", base_config(model=model, T=2, replicates=50))
        assert main([subcommand, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "operator model overflows: 2 * T' * ||L||_F^2 (T' = 2) is not a finite" in err
        assert not list((tmp_path / "o").glob("*"))

    @pytest.mark.parametrize("k", ["auto", 1])
    @pytest.mark.parametrize("subcommand", ["bounds", "verify", "identify", "sweep", "simulate"])
    def test_overflowing_covariance_exit_2(self, tmp_path, capsys, subcommand, k):
        # every entry of A^j B squares to a finite float, but their sum over lags does not
        model = {"type": "var", "a_lags": [[[0.5]]], "h": [[1.2e154]]}
        cfg = write_config(tmp_path / "c.json", base_config(model=model, T=10, k=k, replicates=50))
        assert main([subcommand, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "var model overflows within horizon 10" in err
        assert not list((tmp_path / "o").glob("*"))

    @pytest.mark.parametrize("subcommand", ["bounds", "verify", "sweep", "identify"])
    def test_overflowing_prefactor_exit_2(self, tmp_path, capsys, subcommand):
        # passes the load checks, but the transient A^j has entries near 1e80,
        # so the anticoncentration prefactor (about 8e161) squares past float max
        model = {"type": "var", "a_lags": [[[0.5, 1e80], [0.0, 0.5]]], "h": [[1.0, 0], [0, 1.0]]}
        events = ["lower-tail-eigenvalue", "chernoff-direction"]
        cfg = write_config(tmp_path / "c.json", base_config(model=model, T=10, events=events))
        assert main([subcommand, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        if subcommand == "identify":
            assert "event 'ls-error-exceeds-bound'" in err
        else:
            assert "anticoncentration bound: the prefactor" in err
        assert "not a finite" in err
        assert not list((tmp_path / "o").glob("*"))

    def test_overflowing_arma_corollary_raises(self):
        # base**(d L) of the corollary overflows in the same way
        sys = VarSystem(a_lags=[np.array([[0.5, 1e80], [0.0, 0.5]])], h=np.eye(2))
        with pytest.raises(NonFiniteBound, match="ARMA corollary bound"):
            arma_corollary_bound(sys, 10, 1)

    def test_overflowing_impulse_response_names_lag(self, tmp_path, capsys):
        # 1.5^j * 1e100 first exceeds sqrt(float max) at j = 308, while 1.5^308 is small
        model = {"type": "var", "a_lags": [[[1.5]]], "h": [[1e100]]}
        cfg = write_config(tmp_path / "c.json", base_config(model=model, T=400))
        assert main(["bounds", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "overflows at lag 308: an entry of the impulse response A^308 B" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("subcommand", ["bounds", "verify", "identify", "sweep", "simulate"])
    def test_overflowing_power_norm_exit_2(self, tmp_path, capsys, subcommand):
        # every entry of A^876 is 0.67 sqrt(float max), but ||A^876||_2^2 = 1.5^1752
        # overflows, and with it the power-norm sums and the bounded-real recursion
        model = {
            "type": "var",
            "a_lags": [[[0.75, 0.75], [0.75, 0.75]]],
            "h": [[1e-10, 0.0], [0.0, 1e-10]],
        }
        cfg = write_config(tmp_path / "c.json", base_config(model=model, T=877, replicates=50))
        assert main([subcommand, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "overflows at lag 876" in capsys.readouterr().err
        assert not list((tmp_path / "o").glob("*"))

    @pytest.mark.parametrize(
        "model, direction, message",
        [
            pytest.param(None, [[1e200, 0.0]], "direction is too large", id="gram-overflows"),
            pytest.param(None, [[1e100, 0.0]], "S2 = sum_j tr(Q_j^2)", id="s2-overflows"),
            pytest.param(
                {"type": "var", "a_lags": [[[0.5]]], "h": [[1e100]]}, None, "S2", id="h-overflows"
            ),
        ],
    )
    def test_oversized_chernoff_direction_exit_2(self, tmp_path, capsys, model, direction, message):
        model = model or {"type": "var", "a_lags": [[[0.5, 0.1], [0, 0.4]]], "h": [[1, 0], [0, 1]]}
        event = {"event": "chernoff-direction"}
        if direction is not None:
            event["params"] = {"direction": direction}
        cfg = write_config(
            tmp_path / "c.json", base_config(model=model, T=10, events=[event], replicates=50)
        )
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err
        assert not list((tmp_path / "o").glob("*"))

    @pytest.mark.parametrize("subcommand", ["bounds", "sweep"])
    def test_infinite_ls_bound_exit_2(self, tmp_path, capsys, subcommand):
        # the least-squares constant c_sys overflows, so the LS bound is inf
        model = {"type": "var", "a_lags": [[[0.5]]], "h": [[1e100]]}
        events = ["lower-tail-eigenvalue"]
        cfg = write_config(tmp_path / "c.json", base_config(model=model, T=10, events=events))
        assert main([subcommand, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "event 'ls-error-exceeds-bound': the bound evaluates to inf" in err
        assert not list((tmp_path / "o").glob("*"))

    @pytest.mark.parametrize(
        "subcommand, target, event",
        [
            # _chernoff gives the event its chernoff_lower_tail bound, which
            # the id names
            pytest.param("verify", "_chernoff", "chernoff-direction",
                         id="verify-chernoff_lower_tail-chernoff-direction"),
            pytest.param("sweep", "_chernoff", "chernoff-direction",
                         id="sweep-chernoff_lower_tail-chernoff-direction"),
            ("identify", "ls_bound_details", "ls-error-exceeds-bound"),
        ],
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_bound_exit_2(
        self, tmp_path, capsys, monkeypatch, subcommand, target, event, value
    ):
        real = getattr(montecarlo, target)

        def broken(*args, **kwargs):
            result = real(*args, **kwargs)
            # ls_bound_details' dict, or _chernoff's (bound, threshold)
            return {**result, "bound": value} if isinstance(result, dict) else (value, result[1])

        monkeypatch.setattr(montecarlo, target, broken)
        cfg = write_config(tmp_path / "c.json", base_config(replicates=50))
        assert main([subcommand, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"event {event!r}" in err and "not a finite number" in err
        assert not list((tmp_path / "o").glob("*"))

    @pytest.mark.parametrize(
        "subcommand, module, target",
        [
            ("bounds", cli, "anticoncentration_bound"),
            ("identify", montecarlo, "_pinv_fits"),
        ],
    )
    def test_linalg_error_exit_2(self, tmp_path, capsys, monkeypatch, subcommand, module, target):
        def broken(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(module, target, broken)
        cfg = write_config(tmp_path / "c.json", base_config(replicates=50))
        assert main([subcommand, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "error: linear algebra failed: SVD did not converge" in capsys.readouterr().err


#: the VAR and raw-operator configs of CI's BLAS-threads step: every tail
#: event, a sweep grid, and (operator) the dense route's statistics
PLAIN_DATA_CONFIGS = {
    "var": {
        "model": {
            "type": "var",
            "a_lags": [
                [[0.5, 0.1, 0.0], [0.0, 0.4, 0.2], [0.1, 0.0, 0.3]],
                [[0.1, 0.0, 0.0], [0.0, 0.1, 0.0], [0.0, 0.05, 0.1]],
            ],
            "h": [[1.0, 0.0, 0.0], [0.3, 1.0, 0.0], [0.0, 0.5, 0.8]],
        },
        "T": 24,
        "k": 2,
        "replicates": 300,
        "seed": 7,
        "events": [
            "lower-tail-eigenvalue",
            _chernoff([[1.0, 0.5, 0.0, 0.0, 0.2, 0.0], [0.0, 1.0, 0.0, 0.3, 0.0, 0.1]]),
            {"event": "upper-tail-opnorm", "params": {"q": 2.0}},
        ],
        "grid": {"T": [12, 24], "k": [2, 3]},
    },
    "operator": {
        "model": {
            "type": "operator", "d": 2, "p": 2, "k": 2,
            "blocks": [
                [[[1.0, 0.0, 0.0, 0.0], [0.3, 0.8, 0.0, 0.0], [0.5, 0.2, 1.0, 0.0],
                  [0.1, 0.4, 0.2, 0.9]]],
                [[[0.2, 0.1, 0.0, 0.3], [0.0, 0.2, 0.1, 0.0], [0.1, 0.0, 0.3, 0.1],
                  [0.0, 0.2, 0.0, 0.2]],
                 [[1.2, 0.0, 0.0, 0.0], [0.1, 0.7, 0.0, 0.0], [0.4, 0.0, 0.9, 0.0],
                  [0.0, 0.3, 0.1, 1.1]]],
                [[[0.1, 0.0, 0.2, 0.0], [0.0, 0.1, 0.0, 0.1], [0.2, 0.1, 0.0, 0.0],
                  [0.0, 0.0, 0.1, 0.2]],
                 [[0.3, 0.0, 0.1, 0.0], [0.1, 0.2, 0.0, 0.1], [0.0, 0.1, 0.2, 0.0],
                  [0.2, 0.0, 0.0, 0.3]],
                 [[0.9, 0.0, 0.0, 0.0], [0.2, 1.3, 0.0, 0.0], [0.3, 0.1, 0.8, 0.0],
                  [0.0, 0.2, 0.3, 1.0]]],
            ],
        },
        "T": 6,
        "k": 2,
        "replicates": 300,
        "seed": 7,
        "events": [
            "lower-tail-eigenvalue",
            _chernoff([[1.0, 0.5], [0.0, 1.0]]),
            {"event": "upper-tail-opnorm", "params": {"q": 2.0}},
        ],
        "grid": {"delta": [0.05, 0.1]},
    },
}


class TestReportPath:
    @pytest.mark.parametrize(
        "subcommand, outputs",
        [
            ("bounds", ["bounds.json"]),
            ("verify", ["verify.csv", "verify.json"]),
            ("identify", ["identify.csv", "identify.json"]),
            ("sweep", ["sweep.csv", "sweep.json"]),
            ("simulate", ["simulate.csv"]),
        ],
    )
    def test_reports_then_one_sidecar(self, tmp_path, capsys, subcommand, outputs):
        cfg = write_config(tmp_path / "c.json", base_config(replicates=40))
        out = tmp_path / "out"
        assert main([subcommand, "--config", cfg, "--out", str(out)]) in (0, 1)
        sidecar = f"{subcommand}.meta.json"
        assert sorted(p.name for p in out.iterdir()) == sorted([*outputs, sidecar])
        meta = json.loads((out / sidecar).read_text())
        assert meta["subcommand"] == subcommand and meta["outputs"] == outputs
        wrote = "wrote " + " and ".join(str(out / name) for name in outputs)
        if subcommand == "simulate":
            wrote += " (40 paths, horizon 24)"
        assert capsys.readouterr().out.splitlines()[-1] == wrote

    @pytest.mark.parametrize("model", ["var", "operator"])
    def test_reports_are_plain_data(self, model, capsys):
        # the standard library formats every report: JSON needs no default
        # hook, and each CSV cell is exactly an int, float, str or None (csv
        # writes a NumPy float by its repr, np.float64(x) on NumPy 2, and a
        # bool as True/False)
        config = ExperimentConfig.from_dict(PLAIN_DATA_CONFIGS[model])
        subcommands = ["bounds", "verify", "identify", "sweep", "simulate"]
        if model == "operator":
            subcommands.remove("identify")
        for subcommand in subcommands:
            _, reports = cli.SUBCOMMANDS[subcommand][0](config)
            for name, report in reports.items():
                if isinstance(report, dict):
                    json.dumps({"config": config.to_dict(), **report})
                    continue
                columns, rows = report
                for row in rows:
                    row = list(row)
                    assert len(row) == len(columns), name
                    for column, cell in zip(columns, row):
                        assert type(cell) in (int, float, str, type(None)), (name, column, cell)

    def test_failed_run_writes_nothing(self, tmp_path, capsys):
        blocks = [[[[1.0]]], [[[0.3]], [[1.0]]]]
        model = {"type": "operator", "d": 1, "p": 1, "k": 1, "blocks": blocks}
        cfg = write_config(tmp_path / "c.json", base_config(model=model, T=2))
        out = tmp_path / "out"
        assert main(["identify", "--config", cfg, "--out", str(out)]) == 2
        assert "identify requires a var model" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_subnormal_gram_ends(self, tmp_path):
        # lam_max(L^T L) near 3e-319 with no Ritz floor (a = 1): the
        # certificate ends, and the least-squares bound is inf, so exit 2
        cfg = write_config(
            tmp_path / "c.json",
            {"model": {"type": "var", "a_lags": [[[1.0]]], "h": [[1e-160]]}, "T": 8, "k": 1},
        )
        src = str(Path(causalcov.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "causalcov.cli", "bounds", "--config", cfg,
             "--out", str(tmp_path / "out")],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=60,
        )
        assert proc.returncode == 2
        assert "'ls-error-exceeds-bound': the bound evaluates to inf" in proc.stderr


def test_cli_imports_no_scipy():
    # SciPy is a test dependency only: importing it costs most of a CLI
    # process's start-up
    src = str(Path(causalcov.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, causalcov.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        check=True,
    )
    assert proc.stdout.strip() == "[]"


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "causalcov.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "causalcov" in proc.stdout
