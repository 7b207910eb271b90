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
from conftest import random_operator


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
        assert (out / "bounds.meta.json").exists()

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
        # the load-time overflow check forms the companion powers for the
        # longest horizon; the bounds run then reads them without extending.
        # This model is far from overflow, so the impulses wait for the bounds.
        cfg = write_config(tmp_path / "c.json", base_config(T=48, grid={"T": [24, 48]}))
        config = load_config(cfg)
        assert len(process.var_analysis(config.model)._series["impulses"]) == 1

        def refuse(*args, **kwargs):
            raise AssertionError("the analysis must be built once, at load")

        real_prefix = process.VarAnalysis._prefix

        def no_growth(self, name, n):
            if name == "powers":
                assert n <= len(self._series[name]), f"{name} extended to {n} after load"
            return real_prefix(self, name, n)

        monkeypatch.setattr(process, "companion", refuse)
        monkeypatch.setattr(process.VarAnalysis, "_prefix", no_growth)
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
        monkeypatch.setattr(montecarlo, "chernoff_lower_tail", lambda *args, **kwargs: 1e-300)
        cfg = write_config(tmp_path / "c.json", base_config())
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 1
        summary = json.loads((out / "verify.json").read_text())
        assert summary["overall_pass"] is False

    def test_step_budget_determinism(self, tmp_path, monkeypatch):
        # T=24: 1365 replicates per batch by default, so 2100 leaves an uneven last batch
        cfg = write_config(tmp_path / "c.json", base_config(replicates=2100))
        outs = []
        for steps in (montecarlo.STEPS, 24, 24 * 1000 + 7):
            monkeypatch.setattr(montecarlo, "STEPS", steps)
            out = tmp_path / f"s{steps}"
            assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
            outs.append(out)
        for out in outs[1:]:
            assert (outs[0] / "verify.csv").read_bytes() == (out / "verify.csv").read_bytes()
            assert (outs[0] / "verify.json").read_bytes() == (out / "verify.json").read_bytes()

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
        # identify simulates T' + 1 = 65 steps; at two replicates per batch the
        # fifth replicate runs alone, and must round as in the one batch of five
        model = {"type": "var", "a_lags": [[[0.5, 0.1], [0.0, 0.4]]], "h": [[1.0, 0.0], [0.0, 1.0]]}
        cfg = write_config(
            tmp_path / "c.json", base_config(model=model, T=64, replicates=5, seed=seed)
        )
        outs = []
        for steps in (montecarlo.STEPS, 2 * 65):
            monkeypatch.setattr(montecarlo, "STEPS", steps)
            out = tmp_path / f"s{steps}"
            main(["identify", "--config", cfg, "--out", str(out)])
            outs.append(out)
        for name in ("identify.csv", "identify.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

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


    def test_one_anticoncentration_per_cell(self, tmp_path, monkeypatch):
        calls = {"anticoncentration_bound": [], "psi_k": [], "svd": 0, "gram": []}
        real_anticonc, real_psi, real_svd = cli.anticoncentration_bound, bounds.psi_k, np.linalg.svd
        real_gram = process._gram_estimate

        def counted_anticonc(op):
            calls["anticoncentration_bound"].append((op.T, op.k))
            return real_anticonc(op)

        def counted_psi(op):
            calls["psi_k"].append((op.T, op.k))
            return real_psi(op)

        def counted_svd(*args, **kwargs):
            calls["svd"] += 1
            return real_svd(*args, **kwargs)

        def counted_gram(impulses):
            calls["gram"].append(len(impulses))
            return real_gram(impulses)

        monkeypatch.setattr(cli, "anticoncentration_bound", counted_anticonc)
        monkeypatch.setattr(bounds, "psi_k", counted_psi)
        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        monkeypatch.setattr(process, "_gram_estimate", counted_gram)
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
        # on k, is estimated once per T
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


class TestErrors:
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
        ],
    )
    @pytest.mark.parametrize("subcommand", ["verify", "sweep"])
    def test_rejected_at_load_exit_2(
        self, tmp_path, capsys, monkeypatch, subcommand, overrides, message
    ):
        def never(*args, **kwargs):
            raise AssertionError("sampling started before the config was rejected")

        monkeypatch.setattr(cli, "run_tail_experiment", never)
        cfg = write_config(tmp_path / "c.json", base_config(**overrides))
        assert main([subcommand, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err
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
            ("verify", "chernoff_lower_tail", "chernoff-direction"),
            ("sweep", "chernoff_lower_tail", "chernoff-direction"),
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
            return {**result, "bound": value} if isinstance(result, dict) else value

        monkeypatch.setattr(montecarlo, target, broken)
        cfg = write_config(tmp_path / "c.json", base_config(replicates=50))
        assert main([subcommand, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"event {event!r}" in err and "not a finite number" in err
        assert not list((tmp_path / "o").glob("*"))

    @pytest.mark.parametrize(
        "subcommand, module, target",
        [("bounds", cli, "anticoncentration_bound"), ("identify", montecarlo, "least_squares")],
    )
    def test_linalg_error_exit_2(self, tmp_path, capsys, monkeypatch, subcommand, module, target):
        def broken(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(module, target, broken)
        cfg = write_config(tmp_path / "c.json", base_config(replicates=50))
        assert main([subcommand, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "error: linear algebra failed: SVD did not converge" in capsys.readouterr().err


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
