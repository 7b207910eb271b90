"""The library owns every model rule and every run-parameter rule: the
library and config load reject a malformed model or a bad T, k, delta,
replicates, seed or q alike, with one message.  Every public function
reads its integers, numbers and matrices through the same three rules
(linalg.check_int, check_number and finite_matrix), so a bad value gets
the same InvalidInput text wherever it is passed."""

import warnings

import numpy as np
import pytest

from causalcov import (
    CausalOperator,
    ConfigError,
    ExperimentConfig,
    HorizonTooShort,
    InvalidInput,
    ProcessSpec,
    VarSystem,
    arma_corollary_bound,
    arma_prefactor,
    armastability_bound,
    burnin_check,
    chernoff_lower_tail,
    companion,
    derive_seed,
    error_decomposition,
    exact_mgf,
    gamma_k,
    kappa,
    least_squares,
    ls_bound_details,
    ls_error_bound,
    mgf_subexp_lemma,
    mgf_upper_bound,
    noise_block,
    paths_from_noise,
    run_identification_experiment,
    run_tail_experiment,
    run_tail_experiments,
    self_normalized_bound,
    trace_square,
    upper_tail_bound,
    var_time_covariances,
    var_to_operator,
    wilson_interval,
)
from causalcov.montecarlo import check_event

VAR = {"a_lags": [[[0.5, 0.1], [0.0, 0.4]]], "h": [[1.0, 0.0], [0.0, 1.0]]}
OPERATOR = {"d": 1, "p": 1, "k": 1, "blocks": [[[[1.0]]], [[[0.3]], [[1.0]]]]}
NAN, INF = float("nan"), float("inf")


def _var(**overrides):
    return "var", {**VAR, **overrides}


def _operator(**overrides):
    return "operator", {**OPERATOR, **overrides}


CASES = [
    # var models
    pytest.param(_var(a_lags=[[["x", 0.1], [0.0, 0.4]]]), "a_lags[0] is not a numeric matrix",
                 id="lag-non-numeric"),
    pytest.param(_var(a_lags=[[[0.5, 0.1], [0.0]]]), "a_lags[0] is not a numeric matrix",
                 id="lag-ragged"),
    pytest.param(_var(a_lags=[[[10**400]]], h=[[1.0]]), "a_lags[0] is not a numeric matrix",
                 id="lag-int-beyond-float"),
    pytest.param(_var(a_lags=[[["0.5"]]], h=[[1.0]]), "a_lags[0] is not a numeric matrix",
                 id="lag-string"),
    pytest.param(_var(a_lags=[[[0.5]]], h=[[True]]), "h is not a numeric matrix", id="h-boolean"),
    pytest.param(_var(a_lags=[[0.5, 0.1]]), "a_lags[0] must be a finite 2-d matrix", id="lag-1d"),
    pytest.param(_var(a_lags=[[[[0.5]]]], h=[[1.0]]), "a_lags[0] must be a finite 2-d matrix",
                 id="lag-3d"),
    pytest.param(_var(a_lags=[[[NAN, 0.1], [0.0, 0.4]]]), "a_lags[0] must be a finite 2-d matrix",
                 id="lag-nan"),
    pytest.param(_var(a_lags=[[[0.5, 0.1, 0.0], [0.0, 0.4, 0.0]]]),
                 "lag matrix 1 must be 2 x 2, got (2, 3)", id="lag-not-square"),
    pytest.param(_var(a_lags=[VAR["a_lags"][0], [[0.1]]]), "lag matrix 2 must be 2 x 2, got (1, 1)",
                 id="lags-of-two-sizes"),
    pytest.param(_var(a_lags=[]), "a_lags must be a non-empty list of matrices", id="lags-empty"),
    pytest.param(_var(a_lags=0.5), "a_lags must be a non-empty list of matrices", id="lags-number"),
    pytest.param(_var(h=[[INF, 0.0], [0.0, 1.0]]), "h must be a finite 2-d matrix", id="h-inf"),
    pytest.param(_var(h=[1.0, 0.0]), "h must be a finite 2-d matrix", id="h-1d"),
    pytest.param(_var(h=[[1.0, 0.0]]), "noise map must have 2 rows, got shape (1, 2)",
                 id="h-wrong-rows"),
    pytest.param(_var(a_lags=[[[0.5]]], h=[[]]),
                 "noise map h must have at least one column, got shape (1, 0)", id="h-no-columns"),
    # operator models
    pytest.param(_operator(blocks=[[[["x"]]], [[[0.3]], [[1.0]]]]),
                 "blocks[0][0] is not a numeric matrix", id="block-non-numeric"),
    pytest.param(_operator(blocks=[[[[1.0]]], [[[0.3]], [[NAN]]]]),
                 "blocks[1][1] must be a finite 2-d matrix", id="block-nan"),
    pytest.param(_operator(blocks=[[[[1.0]]], [[[0.3]]]]), "block row 1 must hold 2 blocks, got 1",
                 id="row-short"),
    pytest.param(_operator(blocks=[[[[1.0, 0.0]]], [[[0.3]], [[1.0]]]]),
                 "block (0,0) has shape (1, 2), expected (1, 1)", id="block-shape"),
    pytest.param(_operator(blocks={"0": [[[1.0]]]}), "blocks must be a non-empty list of rows",
                 id="grid-not-a-list"),
    pytest.param(_operator(blocks=[]), "blocks must be a non-empty list of rows", id="grid-empty"),
    pytest.param(_operator(blocks=[[[[1.0]]], 0.3]), "blocks[1] must be a list of matrices",
                 id="row-not-a-list"),
    pytest.param(_operator(d=0), "d must be >= 1, got 0", id="d-zero"),
    pytest.param(_operator(d=1.5), "d must be an integer, got 1.5", id="d-float"),
    pytest.param(_operator(d=True), "d must be an integer, got True", id="d-bool"),
    pytest.param(_operator(k=-1), "k must be >= 1, got -1", id="k-negative"),
    pytest.param(_operator(blocks=[[[[1e200]]], [[[0.0]], [[1e200]]]]),
                 "operator model overflows: 2 * T' * ||L||_F^2 (T' = 2) is not a finite float, "
                 "so the process covariances are not finite", id="operator-overflows"),
]


@pytest.mark.parametrize("model, message", CASES)
def test_api_and_config_reject_a_model_alike(model, message):
    kind, fields = model
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInput) as in_api:
            if kind == "var":
                VarSystem(a_lags=fields["a_lags"], h=fields["h"])
            else:
                CausalOperator.from_blocks(fields["d"], fields["p"], fields["k"], fields["blocks"])
        with pytest.raises(ConfigError) as at_load:
            ExperimentConfig.from_dict({"model": {"type": kind, **fields}, "T": 2})
    assert str(in_api.value) == message
    assert str(at_load.value) == f"invalid {kind} model: {message}"


def test_constructors_keep_their_array_inputs():
    lags = np.stack([0.3 * np.eye(2), 0.1 * np.eye(2)])
    for a_lags in (lags, tuple(lags), list(lags)):
        sys = VarSystem(a_lags=a_lags, h=np.eye(2))
        assert sys.n_lags == 2 and np.array_equal(sys.a_lags[1], 0.1 * np.eye(2))
    rows = [np.ones((1, 1, 1)), np.ones((2, 1, 1))]
    op = CausalOperator.from_blocks(np.int64(1), 1, 1, rows)
    assert np.array_equal(op.dense(), [[1.0, 0.0], [1.0, 1.0]])


@pytest.mark.parametrize("direction", [[["1.0", "0.0"]], [[True, False]]], ids=["string", "bool"])
def test_api_and_config_reject_a_non_numeric_direction_alike(direction):
    event = {"event": "chernoff-direction", "params": {"direction": direction}}
    with pytest.raises(InvalidInput, match="^direction is not a numeric matrix$"):
        check_event(event["event"], event["params"], 2)
    with pytest.raises(ConfigError, match="^direction is not a numeric matrix$"):
        ExperimentConfig.from_dict({"model": {"type": "var", **VAR}, "T": 8, "events": [event]})


def test_api_and_config_reject_an_operator_horizon_alike():
    # T' = 6 at k = 2: T = 7 truncates to 6, but an operator's blocks fix T'
    blocks = [[[[1.0, 0.0], [0.3, 1.0]]] * (i + 1) for i in range(3)]
    op = CausalOperator.from_blocks(1, 1, 2, blocks)
    message = "T=7 conflicts with operator horizon 6"
    with pytest.raises(InvalidInput) as in_api:
        ProcessSpec(source=op, T=7, k=2)
    with pytest.raises(ConfigError) as at_load:
        ExperimentConfig.from_dict(
            {"model": {"type": "operator", "d": 1, "p": 1, "k": 2, "blocks": blocks}, "T": 7}
        )
    assert str(in_api.value) == str(at_load.value) == message


def _spec(T=64, k=1):
    return ProcessSpec(source=VarSystem(**VAR), T=T, k=k)


def _tail_run(**kwargs):
    return run_tail_experiment(_spec(), "lower-tail-eigenvalue", **{"R": 4, **kwargs})


def _identify(**kwargs):
    return run_identification_experiment(VarSystem(**VAR), 64, 1, 0.1, **{"R": 4, **kwargs})


def _q_event(q):
    return {"events": [{"event": "upper-tail-opnorm", "params": {"q": q}}]}


# (config overrides, library calls, message); k > T raises HorizonTooShort
RUN_PARAMETERS = (
    [
        pytest.param({"T": T}, [lambda T=T: _spec(T=T)], message, id=f"T-{label}")
        for T, label, message in (
            (64.7, "float", "T must be an integer, got 64.7"),
            ("64", "string", "T must be an integer, got '64'"),
            (True, "bool", "T must be an integer, got True"),
            (0, "zero", "T must be >= 1, got 0"),
        )
    ]
    + [
        pytest.param({"k": k}, [lambda k=k: _spec(k=k)], message, id=f"k-{label}")
        for k, label, message in (
            (0, "zero", "k must be >= 1, got 0"),
            (1.5, "float", "k must be an integer, got 1.5"),
            (True, "bool", "k must be an integer, got True"),
        )
    ]
    + [
        pytest.param({"T": 8, "k": 16}, [lambda: _spec(T=8, k=16)],
                     "block length k=16 exceeds horizon T=8", id="k-above-T"),
    ]
    + [
        pytest.param({"delta": delta}, [lambda delta=delta: ls_error_bound(VarSystem(**VAR), 64, 1, delta)],
                     message, id=f"delta-{label}")
        for delta, label, message in (
            ("0.1", "string", "delta must be a number, got '0.1'"),
            (True, "bool", "delta must be a number, got True"),
            (0, "zero", "delta must lie in (0, 1), got 0.0"),
            (1, "one", "delta must lie in (0, 1), got 1.0"),
            (NAN, "nan", "delta must lie in (0, 1), got nan"),
        )
    ]
    + [
        pytest.param({"replicates": R}, [lambda R=R: _tail_run(R=R), lambda R=R: _identify(R=R)],
                     message, id=f"replicates-{label}")
        for R, label, message in (
            (2.5, "float", "replicates must be an integer, got 2.5"),
            (True, "bool", "replicates must be an integer, got True"),
            (0, "zero", "replicates must be >= 1, got 0"),
        )
    ]
    + [
        pytest.param({"seed": seed}, [lambda s=seed: _tail_run(seed=s), lambda s=seed: _identify(seed=s)],
                     message, id=f"seed-{label}")
        for seed, label, message in (
            (2.5, "float", "seed must be an integer, got 2.5"),
            (True, "bool", "seed must be an integer, got True"),
        )
    ]
    + [
        pytest.param(_q_event(q), [lambda q=q: upper_tail_bound(_spec(), q)], message, id=f"q-{label}")
        for q, label, message in (
            ("2", "string", "q must be a number, got '2'"),
            (INF, "inf", "q must be a finite number > 1, got inf"),
            (True, "bool", "q must be a number, got True"),
        )
    ]
)


@pytest.mark.parametrize("overrides, calls, message", RUN_PARAMETERS)
def test_api_and_config_reject_a_run_parameter_alike(overrides, calls, message):
    raw = {"model": {"type": "var", **VAR}, "T": 64, "k": 1, **overrides}
    expected = HorizonTooShort if "exceeds horizon" in message else InvalidInput
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(expected) as in_api:
                call()
            assert str(in_api.value) == message
        with pytest.raises(ConfigError) as at_load:
            ExperimentConfig.from_dict(raw)
    assert str(at_load.value) == message


def _two_blocks():
    return CausalOperator.from_blocks(**OPERATOR)


def _fit():
    return least_squares(np.eye(2), np.eye(2))


# (library call, message): each public function reads a bad integer, number
# or matrix through the shared rule and raises its text
VALUE_RULES = [
    pytest.param(lambda: mgf_upper_bound(np.eye(1), "0.5"), "lambda must be a number, got '0.5'",
                 id="mgf-lambda-string"),
    pytest.param(lambda: mgf_upper_bound(np.eye(1), True), "lambda must be a number, got True",
                 id="mgf-lambda-bool"),
    pytest.param(lambda: exact_mgf(np.eye(2), [NAN], 0.5), "x must be a finite 2-d matrix",
                 id="exact-mgf-x-nan"),
    pytest.param(lambda: exact_mgf(np.eye(2), ["1"], 0.5), "x is not a numeric matrix",
                 id="exact-mgf-x-string"),
    pytest.param(lambda: mgf_subexp_lemma(CausalOperator.identity(2, 4), [NAN, 1], 0.1),
                 "direction must be a finite 2-d matrix", id="subexp-direction-nan"),
    pytest.param(lambda: chernoff_lower_tail(_spec(), [["1", "0"], ["0", "1"]]),
                 "weight matrix is not a numeric matrix", id="chernoff-weight-strings"),
    pytest.param(lambda: trace_square([["1", "0"], ["0", "2"]]),
                 "SymMatrix input is not a numeric matrix", id="trace-square-strings"),
    pytest.param(lambda: self_normalized_bound(np.zeros((1, 1)), sigma="2", d=1.5, delta=0.1),
                 "sigma must be a number, got '2'", id="sigma-string"),
    pytest.param(lambda: self_normalized_bound(np.zeros((1, 1)), sigma=NAN, d=1, delta=0.1),
                 "sigma must be finite and >= 0, got nan", id="sigma-nan"),
    pytest.param(lambda: self_normalized_bound(np.zeros((1, 1)), sigma=INF, d=1, delta=0.1),
                 "sigma must be finite and >= 0, got inf", id="sigma-inf"),
    pytest.param(lambda: self_normalized_bound(np.zeros((1, 1)), sigma=2.0, d=1.5, delta=0.1),
                 "d must be an integer, got 1.5", id="self-normalized-d-float"),
    pytest.param(lambda: self_normalized_bound([["0"]], sigma=2.0, d=1, delta=0.1),
                 "det argument is not a numeric matrix", id="det-argument-string"),
    pytest.param(lambda: least_squares([["1"]], [[1.0]]), "x is not a numeric matrix",
                 id="least-squares-x-string"),
    pytest.param(lambda: least_squares(np.eye(2), np.eye(2), a_star=[[NAN, 0.0], [0.0, 1.0]]),
                 "a_star must be a finite 2-d matrix", id="least-squares-truth-nan"),
    pytest.param(lambda: error_decomposition(_fit(), np.eye(2), regularizer=[[True, False]] * 2),
                 "regularizer is not a numeric matrix", id="regularizer-bool"),
    pytest.param(lambda: wilson_interval(2.5, 10), "hits must be an integer, got 2.5",
                 id="wilson-hits-float"),
    pytest.param(lambda: wilson_interval(True, 10), "hits must be an integer, got True",
                 id="wilson-hits-bool"),
    pytest.param(lambda: wilson_interval(1, 0), "n must be >= 1, got 0", id="wilson-n-zero"),
    pytest.param(lambda: noise_block(_spec(), 0, 0.5, 2), "start must be an integer, got 0.5",
                 id="noise-start-float"),
    pytest.param(lambda: noise_block(_spec(), 0, 0, -1), "count must be >= 0, got -1",
                 id="noise-count-negative"),
    pytest.param(lambda: derive_seed("3", 0), "seed must be an integer, got '3'",
                 id="derive-seed-string"),
    pytest.param(lambda: derive_seed(3, -1), "label must be >= 0, got -1",
                 id="derive-seed-label-negative"),
    pytest.param(lambda: _two_blocks().block(-1, 0), "i must be >= 0, got -1", id="block-negative"),
    pytest.param(lambda: _two_blocks().block(2, 0), "i must be < 2 (the block count), got 2",
                 id="block-past-the-end"),
    pytest.param(lambda: CausalOperator(0, 1, 1, np.eye(2)), "d must be >= 1, got 0",
                 id="operator-d-zero"),
    pytest.param(lambda: CausalOperator.identity(2, 4.0), "T must be an integer, got 4.0",
                 id="identity-T-float"),
    pytest.param(lambda: paths_from_noise(_spec(T=8), np.zeros((1, 5, 2))),
                 "noise must have shape (count, 8, 2), got (1, 5, 2)", id="noise-shape"),
]

# (library call, message): a model of the wrong kind fails where its kind
# enters: var_analysis for a VAR function, the sampling entry points for a
# ProcessSpec, and the operator functions for a CausalOperator
NOT_A_VAR = "a VAR model must be a VarSystem, got CausalOperator"
NOT_A_SPEC = "process must be a ProcessSpec, got CausalOperator"
VALUE_RULES += [
    pytest.param(call, message, id=name)
    for name, call, message in [
        ("armastability-operator", lambda: armastability_bound(_two_blocks(), 2), NOT_A_VAR),
        ("arma-prefactor-operator", lambda: arma_prefactor(_two_blocks(), 2, 1), NOT_A_VAR),
        ("arma-corollary-operator", lambda: arma_corollary_bound(_two_blocks(), 2, 1), NOT_A_VAR),
        ("burnin-check-operator", lambda: burnin_check(_two_blocks(), 2, 1, 0.1), NOT_A_VAR),
        ("ls-details-operator", lambda: ls_bound_details(_two_blocks(), 2, 1, 0.1), NOT_A_VAR),
        ("ls-error-operator", lambda: ls_error_bound(_two_blocks(), 2, 1, 0.1), NOT_A_VAR),
        ("gamma-k-operator", lambda: gamma_k(_two_blocks(), 1), NOT_A_VAR),
        ("kappa-operator", lambda: kappa(_two_blocks(), 2), NOT_A_VAR),
        ("time-covariances-operator", lambda: var_time_covariances(_two_blocks(), 2), NOT_A_VAR),
        ("var-to-operator-operator", lambda: var_to_operator(_two_blocks(), 2), NOT_A_VAR),
        ("companion-operator", lambda: companion(_two_blocks()), NOT_A_VAR),
        ("identify-operator",
         lambda: run_identification_experiment(_two_blocks(), 5, 1, 0.1, R=4), NOT_A_VAR),
        ("noise-block-operator", lambda: noise_block(_two_blocks(), 0, 0, 2), NOT_A_SPEC),
        ("paths-operator", lambda: paths_from_noise(_two_blocks(), np.zeros((1, 2, 1))),
         NOT_A_SPEC),
        ("tail-experiments-operator",
         lambda: run_tail_experiments(_two_blocks(), ["lower-tail-eigenvalue"], R=4), NOT_A_SPEC),
        ("subexp-lemma-spec", lambda: mgf_subexp_lemma(_spec(), [1.0, 0.0], 0.1),
         "mgf_subexp_lemma takes a CausalOperator, got ProcessSpec"),
    ]
]


@pytest.mark.parametrize("call, message", VALUE_RULES)
def test_public_functions_read_values_through_the_shared_rules(call, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInput) as raised:
            call()
    assert str(raised.value) == message
