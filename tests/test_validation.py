"""Regression tests for inputs that used to get a wrong verdict or escape a check."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wproto.cli as cli
import wproto.wstates as wstates
from wproto.cli import ConfigError, main, parse_config, run
from wproto.qsim import (
    MAX_QUBITS,
    DensityMatrix,
    InternalConsistencyError,
    MeasurementBasis,
    NormalizationError,
    ProtocolViolationError,
    StateVector,
    Unitary,
    make_basis_state,
)
from wproto.teleport import EncodedUnknownState, UnknownState
from wproto.wstates import (
    CoefficientVector,
    binary_entropy,
    cut_entropy,
    ghz_condition,
    ghz_suitability_scan,
    partition_entropy_formula,
    suitability_scan,
    teleport_condition,
    w_coefficients,
)

NAN = float("nan")


class TestScanNearBalancedCut:
    """The scan's simulator cross-check agrees with ``holds`` at every imbalance."""

    @settings(max_examples=60, deadline=None)
    @example(exponent=-10.0, sign=1)
    @example(exponent=-9.0, sign=1)
    @example(exponent=-7.0, sign=-1)
    @example(exponent=-6.0, sign=1)
    @example(exponent=-5.0, sign=1)
    @given(exponent=st.floats(min_value=-12, max_value=-2), sign=st.sampled_from([1, -1]))
    def test_w_family_and_ghz(self, exponent, sign):
        eps = sign * 10.0**exponent
        side = math.sqrt(0.5 - eps) / math.sqrt(2.0)
        c = CoefficientVector([math.sqrt(0.5 + eps), side, side])
        assert suitability_scan(c) == [teleport_condition(c, m) for m in (1, 2)]
        a1, a2 = math.sqrt(0.5 + eps), math.sqrt(0.5 - eps)
        assert ghz_suitability_scan(a1, a2, 3) == [ghz_condition(a1, a2, m) for m in (1, 2)]

    def test_cross_check_still_catches_a_wrong_formula(self, monkeypatch):
        # a checker that claims a balanced split for the uniform W3 must be
        # contradicted by the simulated spectrum {1/3, 2/3}
        def balanced(c, m):
            return wstates.ConditionReport(m, 0.5, 0.5, 0.0, True)

        monkeypatch.setattr(wstates, "teleport_condition", balanced)
        with pytest.raises(InternalConsistencyError, match="m=1"):
            suitability_scan(w_coefficients(3))


class TestNonFiniteInputRejected:
    def test_coefficient_vector(self):
        with pytest.raises(NormalizationError):
            CoefficientVector([NAN, 1.0])

    def test_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            Unitary(np.array([[NAN, 0.0], [0.0, 1.0]]))

    def test_unknown_state(self):
        with pytest.raises(NormalizationError):
            UnknownState(NAN, 1.0)

    def test_encoded_unknown_state(self):
        with pytest.raises(NormalizationError):
            EncodedUnknownState(
                alpha=NAN,
                beta=1.0,
                m=1,
                zero_state=make_basis_state(1, [0]),
                wm_state=make_basis_state(1, [1]),
            )

    def test_density_matrix(self):
        with pytest.raises(ValueError, match="Hermitian") as err:
            DensityMatrix(1, np.array([[NAN, 0.0], [0.0, NAN]]))
        assert not isinstance(err.value, np.linalg.LinAlgError)

    def test_measurement_basis_gram(self):
        with pytest.raises(ProtocolViolationError):
            MeasurementBasis([1], [StateVector(1, [NAN, 0.0])])

    @pytest.mark.parametrize(
        "constant",
        [
            "NaN",
            "Infinity",
            "-Infinity",
            "1e400",
            # integer literals too large for a float
            pytest.param("1" + "0" * 400, id="int-10^400"),
            pytest.param("-" + "9" * 320, id="int--10^320"),
        ],
    )
    def test_config_names_the_field(self, constant, tmp_path, capsys):
        doc = (
            '{"scenarios": [{"task": "scan", "state": {"coefficients":'
            f' [[{constant}, 0], [1, 0]]}}}}, {{"task": "entropy", "state":'
            f' {{"named": "ghz", "n": 3, "a1": [0.6, {constant}]}}}}]}}'
        )
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert any("scenario 0.state.coefficients[0]" in e for e in err.value.errors)
        assert any("scenario 1.state.a1" in e for e in err.value.errors)
        path = tmp_path / "nan.json"
        path.write_text(doc)
        assert main(["--config", str(path), "--format", "json"]) == 2
        assert "finite" in capsys.readouterr().err


class TestBinaryEntropy:
    def test_values(self):
        from wproto.wstates import binary_entropy

        assert binary_entropy(0.5) == 1.0
        assert binary_entropy(0.0) == binary_entropy(1.0) == 0.0
        assert binary_entropy(0.25) == pytest.approx(0.811278124459, abs=1e-12)
        assert partition_entropy_formula(4, 1) == binary_entropy(0.25)

    def test_ghz_entropy_with_weight_rounded_past_one(self):
        # |a1|^2 = 1 + 8e-11 passes the normalization tolerance; the closed
        # form used to take log2 of a negative number here
        config = parse_config(
            json.dumps({"task": "entropy", "state": {"named": "ghz", "n": 3, "a1": [1.00000000004, 0]}})
        )
        report = run(config)
        assert report.all_matched
        rows = report.payload["scenarios"][0]["results"]["rows"]
        assert [row["formula"] for row in rows] == [0.0, 0.0]


class TestEntropyClosedFormForEveryWState:
    def test_coefficient_vector_rows_carry_the_closed_form(self):
        doc = {"task": "entropy", "state": {"coefficients": [[0.6, 0], [0, 0.8], [0, 0]]}}
        entry = run(parse_config(json.dumps(doc))).payload["scenarios"][0]
        rows = entry["results"]["rows"]
        assert [row["formula"] for row in rows] == [
            0.0, pytest.approx(binary_entropy(0.64), abs=1e-12)
        ]
        assert all(row["match"] for row in rows)
        assert entry["verdict"]["success"]

    def test_modified_w_rows_carry_the_closed_form(self):
        doc = {"task": "entropy", "state": {"named": "modified-w", "n": 5}}
        rows = run(parse_config(json.dumps(doc))).payload["scenarios"][0]["results"]["rows"]
        assert [row["formula"] for row in rows] == pytest.approx(
            [1.0, binary_entropy(0.5 + 1 / 8), binary_entropy(0.5 + 2 / 8), binary_entropy(7 / 8)],
            abs=1e-12,
        )

    def test_cut_entropy_generalizes_the_uniform_formula(self):
        for n in range(2, 9):
            for x in range(1, n):
                assert cut_entropy(w_coefficients(n), x) == pytest.approx(
                    partition_entropy_formula(n, x), abs=1e-14
                )

    def test_wrong_simulated_entropy_fails_the_scenario(self, monkeypatch):
        monkeypatch.setattr(cli, "spectrum_entropy", lambda lam: 1e-6)
        doc = {"task": "entropy", "state": {"coefficients": [[0.6, 0], [0, 0.8], [0, 0]]}}
        report = run(parse_config(json.dumps(doc)))
        entry = report.payload["scenarios"][0]
        assert not entry["verdict"]["success"]
        assert "deviates" in entry["verdict"]["reason"]
        assert not report.all_matched


class TestQubitBudget:
    def write(self, tmp_path, doc) -> str:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    def test_oversized_named_state_is_a_config_error(self, tmp_path, capsys):
        path = self.write(tmp_path, {"task": "scan", "state": {"named": "w", "n": 40}})
        assert main(["--config", path, "--format", "json"]) == 2
        err = capsys.readouterr().err
        assert "scenario 0.state.n" in err and str(MAX_QUBITS) in err
        assert "Traceback" not in err

    def test_oversized_coefficient_vector_is_a_config_error(self):
        coeffs = [[1 / math.sqrt(MAX_QUBITS + 1), 0]] * (MAX_QUBITS + 1)
        doc = {"task": "entropy", "state": {"coefficients": coeffs}}
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(doc))
        assert any("scenario 0.state.coefficients" in e for e in err.value.errors)

    def test_budget_itself_is_accepted(self):
        doc = {"task": "scan", "state": {"named": "ghz", "n": MAX_QUBITS}}
        assert parse_config(json.dumps(doc)).scenarios[0].n == MAX_QUBITS


def test_escaped_exception_is_an_internal_error(monkeypatch, tmp_path, capsys):
    def boom(scenario):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._RUNNERS, "scan", boom)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"task": "scan", "state": {"named": "w", "n": 4}}))
    assert main(["--config", str(path), "--format", "json"]) == cli.EXIT_INTERNAL_ERROR
    assert cli.EXIT_INTERNAL_ERROR not in (0, 1, 2)
    out, err = capsys.readouterr()
    assert out == ""
    assert "internal error: RuntimeError: boom" in err


@pytest.mark.parametrize("grid", [[], 0, False, "", [1, 2], 3])
def test_teleport_grid_must_be_an_object(grid):
    doc = {"task": "teleport", "state": {"named": "w", "n": 4}, "m": 2, "grid": grid}
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert err.value.errors == ["scenario 0.grid: must be an object with count/seed"]


@pytest.mark.parametrize("grid", [None, {}])
def test_teleport_grid_null_or_empty_means_the_defaults(grid):
    doc = {"task": "teleport", "state": {"named": "w", "n": 4}, "m": 2, "grid": grid}
    (s,) = parse_config(json.dumps(doc)).scenarios
    assert (s.grid_count, s.grid_seed) == (cli.DEFAULT_GRID_COUNT, cli.DEFAULT_GRID_SEED)


@pytest.mark.parametrize("grid", [[], 0, False, ""])
def test_grid_on_another_task_is_named_even_when_falsy(grid):
    doc = {"task": "scan", "state": {"named": "w", "n": 4}, "grid": grid}
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert err.value.errors == ["scenario 0.grid: only applies to the teleport task"]
