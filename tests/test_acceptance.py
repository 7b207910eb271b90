"""Acceptance suite: one test per shipped guarantee, oracle-checked.

Each test is numbered; `pytest -v` prints exactly one pass/fail line per
criterion.  Runtime caps are asserted where the guarantee includes one.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy import stats

from causalcov import (
    CausalOperator,
    ProcessSpec,
    VarSystem,
    anticoncentration_bound,
    armastability_bound,
    causal_exp_inequality,
    chernoff_lower_tail,
    derive_seed,
    exact_mgf,
    mgf_upper_bound,
    noise_block,
    paths_from_noise,
    psi_k,
    run_identification_experiment,
    run_tail_experiment,
    upper_tail_bound,
    var_time_covariances,
    var_to_operator,
)
from causalcov import montecarlo
from causalcov.cli import main
from conftest import (
    chi2_lower,
    psi_grid_oracle,
    random_operator,
    random_psd,
    random_var_system,
    run_mgf_experiment,
)

SEED = 0xACCE97


def iid_spec(T: int, d: int = 1) -> ProcessSpec:
    return ProcessSpec.from_operator(CausalOperator.identity(d, T))


def dense_operator(spec: ProcessSpec) -> CausalOperator:
    """The spec's causal operator, formed densely for a VAR source."""
    if isinstance(spec.source, CausalOperator):
        return spec.source
    return var_to_operator(spec.source, spec.T, spec.k)


def rotation_var(rho: float) -> VarSystem:
    """d=2 VAR(1) with spectral radius exactly rho (rotation times rho)."""
    theta = 0.7
    a = rho * np.array(
        [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
    )
    return VarSystem(a_lags=[a], h=np.eye(2))


def test_criterion_01_mgf_domination_suite():
    start = time.monotonic()
    rng = np.random.default_rng(SEED)
    lam_grid = np.round(np.arange(0.0, 2.0001, 0.05), 10)
    violations = 0
    mc_failures = 0
    for i in range(1000):
        n = int(rng.integers(0, 7))
        m = int(rng.integers(1, 7))
        q = random_psd(rng, n + m, scale=1.5)
        q22 = q[n:, n:]
        x0 = np.zeros(n)
        for lam in lam_grid:
            exact = exact_mgf(q, x0, float(lam))
            bound = mgf_upper_bound(q22, float(lam))
            if exact > bound * (1.0 + 1e-12):
                violations += 1
        lam_mc = float(lam_grid[i % lam_grid.size])
        exp = run_mgf_experiment(q, x0, lam_mc, R=100_000, seed=derive_seed(SEED, i))
        if abs(exp.frequency - exp.extras["exact"]) > 5.0 * exp.extras["se"]:
            mc_failures += 1
    elapsed = time.monotonic() - start
    assert violations == 0
    assert mc_failures == 0
    assert elapsed <= 120.0, f"runtime {elapsed:.1f}s exceeds the 2 minute cap"


def test_criterion_02_chernoff_certification():
    start = time.monotonic()
    for T in (8, 16, 32, 64, 128):
        spec = iid_spec(T)
        bound = chernoff_lower_tail(dense_operator(spec), np.eye(1))
        oracle = chi2_lower(T)  # exact P(sum X_t^2 <= T/2)
        assert oracle <= bound, f"T={T}: oracle {oracle} above bound {bound}"
        exp = run_tail_experiment(
            spec, "chernoff-direction", R=100_000, seed=derive_seed(SEED, 200 + T)
        )
        assert exp.bound == pytest.approx(bound)
        assert exp.certified and not exp.vacuous, f"T={T} failed Wilson certification"
        # and the empirical frequency tracks the exact oracle
        se = math.sqrt(oracle * (1.0 - oracle) / exp.replicates)
        assert abs(exp.frequency - oracle) <= 5.0 * se + 1e-9
    elapsed = time.monotonic() - start
    assert elapsed <= 60.0, f"runtime {elapsed:.1f}s exceeds the 1 minute cap"


def _smallest_horizon_below(make_spec, cap: float, t_max: int = 400) -> tuple:
    for T in range(1, t_max + 1):
        spec = make_spec(T)
        if spec is None:
            continue
        report = anticoncentration_bound(dense_operator(spec))
        if report.anticonc_probability < cap:
            return T, spec, report
    raise AssertionError(f"no horizon up to {t_max} brings the bound below {cap}")


def test_criterion_03_anticoncentration_certification():
    start = time.monotonic()
    systems = {
        "iid-d1": lambda T: iid_spec(T, d=1),
        "iid-d2": lambda T: iid_spec(T, d=2),
        "var-rho-0.5": lambda T: ProcessSpec(source=rotation_var(0.5), T=T),
        "var-rho-0.9": lambda T: ProcessSpec(source=rotation_var(0.9), T=T),
        "random-walk": lambda T: ProcessSpec(
            source=VarSystem(a_lags=[np.eye(1)], h=np.eye(1)), T=T
        ),
    }
    for idx, (name, make_spec) in enumerate(systems.items()):
        T, spec, report = _smallest_horizon_below(make_spec, 0.5)
        if T > 1:
            prev = anticoncentration_bound(dense_operator(make_spec(T - 1)))
            assert prev.anticonc_probability >= 0.5, f"{name}: T={T} is not minimal"
        exp = run_tail_experiment(
            spec, "lower-tail-eigenvalue", R=10_000, seed=derive_seed(SEED, 300 + idx)
        )
        assert exp.bound == pytest.approx(report.anticonc_probability)
        assert exp.ci[1] <= exp.bound, (
            f"{name}: T={T} frequency {exp.frequency} not certified against "
            f"bound {exp.bound}"
        )
    elapsed = time.monotonic() - start
    assert elapsed <= 600.0, f"runtime {elapsed:.1f}s exceeds the 10 minute cap"


def test_criterion_04_exponential_inequality_one_sided():
    rng = np.random.default_rng(SEED + 4)
    violations = 0
    for i in range(50):
        d = int(rng.integers(1, 3))
        p = int(rng.integers(1, 3))
        k = int(rng.integers(1, 3))
        n_blocks = int(rng.integers(2, 7))
        op = random_operator(rng, d, p, k, n_blocks)
        d_dir = rng.standard_normal((int(rng.integers(1, d + 1)), d))
        d_mat = d_dir.T @ d_dir
        lam = float(rng.uniform(0.005, 0.5)) / max(1.0, np.trace(d_mat))
        bound = causal_exp_inequality(op, d_mat, lam)
        spec = ProcessSpec.from_operator(op)
        w = noise_block(spec, derive_seed(SEED, 400 + i), 0, 10_000)
        x = paths_from_noise(spec, w)
        energies = np.einsum("rtd,ed,ef,rtf->r", x, d_dir, d_dir, x)
        vals = np.exp(-lam * energies)
        est = float(vals.mean())
        se = float(vals.std(ddof=1)) / math.sqrt(vals.size)
        if est > bound + 5.0 * se:
            violations += 1
    assert violations == 0


def test_criterion_05_psi_correctness():
    # iid scalar: exactly balanced, psi = 1
    val, _ = psi_k(CausalOperator.identity(1, 64))
    assert val == pytest.approx(1.0, abs=1e-8)
    # identical-block systems: psi >= 1/k
    rng = np.random.default_rng(SEED + 5)
    for k in (2, 3, 4):
        blk = rng.standard_normal((2 * k, 2 * k)) * 0.3 + np.eye(2 * k)
        blocks = []
        for i in range(5):
            row = [rng.standard_normal((2 * k, 2 * k)) * 0.2 for _ in range(i)]
            row.append(blk.copy())
            blocks.append(row)
        op = CausalOperator.from_blocks(2, 2, k, blocks)
        val, _ = psi_k(op)
        assert val >= 1.0 / k - 1e-12
    # d=2 random operators: agree with a dense 10^4-point sphere grid
    for i in range(10):
        op = random_operator(rng, d=2, p=2, k=int(rng.integers(1, 3)), n_blocks=5)
        val, _ = psi_k(op)
        grid = psi_grid_oracle(op, n_grid=10_000)
        assert val == pytest.approx(grid, abs=1e-4)


def _criterion_6_7_systems():
    rng = np.random.default_rng(SEED + 6)
    for i in range(100):
        d = int(rng.integers(1, 4))
        n_lags = int(rng.integers(1, 4))
        rho = float(rng.uniform(0.2, 0.95))
        sys = random_var_system(rng, d, n_lags, rho=rho)
        T = int(rng.integers(n_lags + 1, 257))
        yield i, sys, T


def test_criterion_06_operator_recursion_equivalence():
    for i, sys, T in _criterion_6_7_systems():
        spec = ProcessSpec(source=sys, T=T)
        w = noise_block(spec, derive_seed(SEED, 600 + i), 0, 2)
        via_recursion = paths_from_noise(spec, w)
        via_operator = paths_from_noise(ProcessSpec.from_operator(dense_operator(spec)), w)
        scale = max(1.0, float(np.abs(via_recursion).max()))
        rel = float(np.abs(via_recursion - via_operator).max()) / scale
        assert rel <= 1e-10, f"system {i}: relative deviation {rel}"


def test_criterion_07_stability_bound_dominates():
    for i, sys, T in _criterion_6_7_systems():
        covs = var_time_covariances(sys, T)
        total = covs.sum(axis=0)
        exact = float(np.linalg.eigvalsh(0.5 * (total + total.T))[-1])
        bound = armastability_bound(sys, T)
        assert exact <= bound * (1.0 + 1e-10), f"system {i}: {exact} > {bound}"


def test_criterion_08_identification_end_to_end():
    start = time.monotonic()
    scalar = VarSystem(a_lags=[np.array([[0.5]])], h=np.eye(1))
    a1 = np.array([[0.4, 0.1], [0.0, 0.4]])
    a2 = np.array([[0.15, 0.0], [0.05, 0.15]])
    two_lag = VarSystem(a_lags=[a1, a2], h=np.eye(2))
    for idx, (sys, k) in enumerate(((scalar, 1), (two_lag, 2))):
        medians = {}
        for T in (256, 4096):
            exp = run_identification_experiment(
                sys, T=T, k=k, delta=0.1, R=1000, seed=derive_seed(SEED, 800 + idx)
            )
            medians[T] = exp.extras["median_op_error"]
            if T == 4096:
                assert exp.extras["burnin_satisfied"], "horizon is past burn-in"
                assert exp.bound == pytest.approx(0.2)  # budget 2*delta
                assert exp.ci[1] <= 0.2, (
                    f"exceedance {exp.frequency} fails the 2*delta budget"
                )
        shrink = medians[256] / medians[4096]
        assert shrink >= 3.0, f"median error shrank only {shrink:.2f}x"
    elapsed = time.monotonic() - start
    assert elapsed <= 900.0, f"runtime {elapsed:.1f}s exceeds the 15 minute cap"


def test_criterion_09_upper_tail_certification():
    T = 32
    spec = iid_spec(T)
    # calibrate q so the bound is exactly 0.01: 5 exp(-(q-1) T / 8) = 0.01
    q = 1.0 + 8.0 * math.log(500.0) / T
    bound = upper_tail_bound(dense_operator(spec), q)
    assert bound == pytest.approx(0.01, rel=1e-12)
    exp = run_tail_experiment(
        spec, "upper-tail-opnorm", params={"q": q}, R=100_000, seed=derive_seed(SEED, 900)
    )
    assert exp.bound == pytest.approx(0.01, rel=1e-12)
    assert exp.certified and not exp.vacuous
    assert exp.ci[1] <= 0.01


def test_criterion_10_cli_determinism(tmp_path, monkeypatch):
    cfg = {
        "model": {"type": "var", "a_lags": [[[0.6]]], "h": [[1.0]]},
        "T": 48,
        "k": 1,
        "replicates": 3000,
        "seed": 1234,
        "events": [
            "lower-tail-eigenvalue",
            "chernoff-direction",
            {"event": "upper-tail-opnorm", "params": {"q": 2.0}},
        ],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    payloads = []
    # 680 replicates per batch by default (T=48), and 56 per batch; both split
    # 3000 replicates unevenly
    for steps in (montecarlo.STEPS, 48 * 56):
        monkeypatch.setattr(montecarlo, "STEPS", steps)
        out = tmp_path / f"s{steps}"
        assert main(["verify", "--config", str(cfg_path), "--out", str(out)]) == 0
        payloads.append(
            ((out / "verify.csv").read_bytes(), (out / "verify.json").read_bytes())
        )
    assert payloads[0][0] == payloads[1][0], "CSV payloads differ across batch sizes"
    assert payloads[0][1] == payloads[1][1], "JSON payloads differ across batch sizes"
