"""Regression tests for inputs that used to get a wrong verdict or escape a check."""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wproto.cli as cli
import wproto.qsim as qsim
import wproto.sdc as sdc
import wproto.wstates as wstates
from wproto.cli import ConfigError, emit, main, parse_config, run
from wproto.qsim import (
    MAX_QUBITS,
    DensityMatrix,
    InternalConsistencyError,
    MeasurementBasis,
    NormalizationError,
    ProtocolViolationError,
    StateVector,
    Unitary,
)
from wproto.teleport import (
    STRATEGIES,
    encoded_state,
    run_teleport_one_qubit,
    unknown_state_grid,
)
from wproto.wstates import (
    CoefficientVector,
    binary_entropy,
    cut_entropy,
    generalized_ghz,
    ghz_condition,
    ghz_suitability_scan,
    partition_entropy_formula,
    suitability_scan,
    teleport_condition,
    w_coefficients,
)

from oracle_utils import random_condition_coefficients

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
        # contradicted by the simulated spectrum {1/3, 2/3}; the split sums of
        # teleport_condition and of the scans come from one formula, _splits
        def balanced(c):
            return lambda m: wstates.ConditionReport(m, 0.5, 0.5, 0.0, True)

        monkeypatch.setattr(wstates, "_splits", balanced)
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
            run_teleport_one_qubit(w_coefficients(2), 1, StateVector(1, [NAN, 1.0]))

    def test_encoded_unknown_state(self):
        with pytest.raises(NormalizationError):
            encoded_state(w_coefficients(2), 1, NAN, 1.0)

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
        # one wrong entropy per row of the scan's stacked spectra
        monkeypatch.setattr(wstates, "spectrum_entropy", lambda spectra: np.full(len(spectra), 1e-6))
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


class TestOperatorBudget:
    """An sdc set's size rule, count(m) * 4**m, is enforced at the config
    boundary: ``generated`` at m = 10 counts 2^11 operators of 1024x1024
    (32 GiB, were they dense)."""

    def test_oversized_generated_set_exits_two_fast(self, tmp_path):
        path = tmp_path / "config.json"
        doc = {"task": "sdc", "state": {"named": "w", "n": 20}, "m": 10, "set": "generated"}
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "wproto.cli", "--config", str(path), "--format", "json"],
            capture_output=True, text=True, timeout=60,
        )
        assert time.perf_counter() - start < 2.0
        assert done.returncode == 2, done.stderr
        assert "scenario 0.m" in done.stderr and str(cli.MAX_SET_AMPLITUDES) in done.stderr
        assert "Traceback" not in done.stderr

    @pytest.mark.parametrize("m", [9, 12, 19])
    def test_generated_past_m8_is_a_config_error(self, m):
        doc = {"task": "sdc", "state": {"named": "w", "n": 20}, "m": m, "set": "generated"}
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(doc))
        assert [e.split(":")[0] for e in err.value.errors] == ["scenario 0.m"]

    def test_largest_sets_within_budget_parse(self):
        doc = {"task": "sdc", "state": {"named": "w", "n": 16}, "m": 8, "set": "generated"}
        assert parse_config(json.dumps(doc)).scenarios[0].echo["m"] == 8
        # full-products encodes on m = 2 only; the budget alone would allow m <= 6
        arity, count, _ = sdc.ENCODING_SETS["full-products"]
        assert arity == 2
        assert count(6) * 4**6 <= cli.MAX_SET_AMPLITUDES < count(7) * 4**7
        doc = {"task": "sdc", "state": {"named": "w", "n": 4}, "m": 2, "set": "full-products"}
        assert parse_config(json.dumps(doc)).scenarios[0].echo["m"] == 2

    @pytest.mark.parametrize("name", sorted(sdc.ENCODING_SETS))
    def test_set_counts_match_the_builders(self, name):
        arity, count, build = sdc.ENCODING_SETS[name]
        m = arity or 3
        c = w_coefficients(2 * m)
        assert len(build(c, m).operators) == count(m)


class TestGridBudget:
    """A teleport grid is bounded at the config boundary by the amplitudes
    its reports keep: count x outcomes x (2^q + 32), with 4 outcomes on the
    receiver's q = m qubits, or 16 on one qubit for ``serial``."""

    @staticmethod
    def doc(count, strategy="subspace", n=4, m=2):
        return {
            "task": "teleport", "state": {"named": "w", "n": n}, "m": m,
            "strategy": strategy, "grid": {"count": count, "seed": 0},
        }

    def test_oversized_grid_exits_two_fast(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(self.doc(10**12)))
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "wproto.cli", "--config", str(path), "--format", "json"],
            capture_output=True, text=True, timeout=60,
        )
        assert time.perf_counter() - start < 2.0
        assert done.returncode == 2, done.stderr
        assert "scenario 0.grid.count" in done.stderr
        assert str(cli.MAX_SET_AMPLITUDES) in done.stderr
        assert "Traceback" not in done.stderr

    @pytest.mark.parametrize(
        "strategy, per_run", [("subspace", 4 * (4 + 32)), ("transfer", 4 * (4 + 32)),
                              ("serial", 16 * (2 + 32))]
    )
    def test_bound_is_exact(self, strategy, per_run):
        largest = cli.MAX_SET_AMPLITUDES // per_run
        (s,) = parse_config(json.dumps(self.doc(largest, strategy))).scenarios
        assert s.echo["grid"]["count"] == largest
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(self.doc(largest + 1, strategy)))
        assert [e.split(":")[0] for e in err.value.errors] == ["scenario 0.grid.count"]

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_default_grid_refused_only_for_one_qubit_targets_at_m19(self, strategy):
        doc = self.doc(cli.DEFAULT_GRID_COUNT, strategy, n=20, m=18)
        assert parse_config(json.dumps(doc)).scenarios[0].echo["m"] == 18
        doc["m"] = 19
        if strategy == "serial":
            assert parse_config(json.dumps(doc)).scenarios[0].echo["m"] == 19
        else:
            with pytest.raises(ConfigError, match=r"scenario 0\.grid\.count"):
                parse_config(json.dumps(doc))


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


@pytest.mark.parametrize("grid", [None, {}, {"count": None}, {"seed": None}])
def test_teleport_grid_null_or_empty_means_the_defaults(grid):
    doc = {"task": "teleport", "state": {"named": "w", "n": 4}, "m": 2, "grid": grid}
    (s,) = parse_config(json.dumps(doc)).scenarios
    assert s.echo["grid"] == {"count": cli.DEFAULT_GRID_COUNT, "seed": cli.DEFAULT_GRID_SEED}


@pytest.mark.parametrize(
    "with_null, without",
    [
        ({"expect": None}, {}),
        ({"state": {"named": "w", "n": 4, "a1": None}}, {}),
        ({"state": {"named": "w", "n": 4, "coefficients": None}}, {}),
        ({"state": {"named": None, "coefficients": [[0.6, 0], [0.8, 0]]}},
         {"state": {"coefficients": [[0.6, 0], [0.8, 0]]}}),
        ({"state": {"named": "ghz", "n": 3, "a1": None, "a2": [math.sqrt(0.5), 0]}},
         {"state": {"named": "ghz", "n": 3, "a2": [math.sqrt(0.5), 0]}}),
        ({"state": {"named": "ghz", "n": 3, "a1": [0.6, 0], "a2": None}},
         {"state": {"named": "ghz", "n": 3, "a1": [0.6, 0]}}),
    ],
)
def test_null_means_absent_in_scenario_and_state(with_null, without):
    base = {"task": "scan", "state": {"named": "w", "n": 4}}
    (got,) = parse_config(json.dumps({**base, **with_null})).scenarios
    (want,) = parse_config(json.dumps({**base, **without})).scenarios
    assert got.echo == want.echo
    assert got.label == want.label


def test_null_scenarios_are_still_refused():
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps({"scenarios": None}))
    assert err.value.errors == ["scenarios: must be an array"]


@pytest.mark.parametrize("grid", [[], 0, False, ""])
def test_grid_on_another_task_is_named_even_when_falsy(grid):
    doc = {"task": "scan", "state": {"named": "w", "n": 4}, "grid": grid}
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert err.value.errors == ["scenario 0.grid: only applies to the teleport task"]


@pytest.mark.parametrize(
    "state, grid, error",
    [
        (
            {"named": "w", "n": 4},
            {"count": 2, "sed": 5},
            "scenario 0.grid: unknown field 'sed'",
        ),
        (
            {"named": "w", "n": 4, "bogus": 1},
            None,
            "scenario 0.state: unknown field 'bogus'",
        ),
        (
            {"coefficients": [[0.6, 0], [0.8, 0]], "n": 2},
            None,
            "scenario 0.state: unknown field 'n'",
        ),
        (
            {"named": "w", "n": 4, "coefficients": [[0.6, 0], [0.8, 0]]},
            None,
            "scenario 0.state: state needs exactly one of 'named' or 'coefficients'",
        ),
    ],
)
def test_unknown_or_conflicting_nested_fields_are_named(state, grid, error):
    doc = {"task": "teleport", "state": state, "m": 1, "grid": grid}
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert err.value.errors == [error]


class TestHugeAmplitudes:
    """Amplitudes near the float range are a NormalizationError: never an
    OverflowError from Python's abs(a) ** 2, nor a numpy overflow warning."""

    @pytest.mark.parametrize(
        "state",
        [
            {"named": "ghz", "n": 4, "a1": [1e200, 0]},
            {"named": "ghz", "n": 4, "a1": [1.7e308, 1.7e308]},
            {"named": "ghz", "n": 4, "a2": [1e200, 0]},
            {"coefficients": [[1e200, 0], [0.5, 0]]},
        ],
    )
    def test_config_error_without_traceback_or_warning(self, state, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"task": "scan", "state": state}))
        done = subprocess.run(
            [sys.executable, "-m", "wproto.cli", "--config", str(path), "--format", "json"],
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 2, done.stderr
        assert "scenario 0.state" in done.stderr
        assert "Traceback" not in done.stderr and "Warning" not in done.stderr

    @pytest.mark.parametrize("a", [1e200, complex(1.7e308, 1.7e308)])
    def test_library_constructors(self, a):
        with pytest.raises(NormalizationError):
            run_teleport_one_qubit(w_coefficients(2), 1, StateVector(1, [a, 0]))
        with pytest.raises(NormalizationError):
            encoded_state(w_coefficients(2), 1, a, 0)
        with pytest.raises(NormalizationError):
            generalized_ghz(a, 0, 3)
        with pytest.raises(NormalizationError):
            ghz_condition(0, a)


DEEP = "[" * 100_000 + "]" * 100_000
# one digit past the integer digit limit, as a qubit count and as a coefficient
LONG = "9" * (sys.get_int_max_str_digits() + 1)


@pytest.mark.parametrize(
    "text",
    [
        DEEP,
        '{"scenarios": ' + DEEP + "}",
        '{"task": "scan", "state": {"named": "w", "n": ' + LONG + "}}",
        '{"task": "scan", "state": {"coefficients": [[' + LONG + ", 0], [0, 0]]}}",
    ],
    ids=["top", "scenarios", "long-n", "long-coefficient"],
)
def test_deeply_nested_config_is_a_config_error(text, tmp_path, capsys):
    # json.loads raises RecursionError, not JSONDecodeError, past the recursion
    # limit, and a plain ValueError past the integer digit limit
    with pytest.raises(ConfigError, match="config is not valid JSON"):
        parse_config(text)
    path = tmp_path / "deep.json"
    path.write_text(text)
    assert main(["--config", str(path), "--format", "json"]) == 2
    assert "Traceback" not in capsys.readouterr().err


# Config fuzzing.  A well-formed scenario gives its task every field it
# takes, with edge-case numbers; a junk scenario may put a value of the wrong
# type in any field, or a field of another task.
_NUMBERS = st.sampled_from([0, 1, -1, 0.5, 0.6, 0.8, 1e308, -1e308, 1e200, 5e-324, -5e-324]) | (
    st.floats(allow_nan=False, allow_infinity=False)
)
_JUNK = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3), st.just([]), st.just({}), _NUMBERS
)
_PAIR = st.lists(_NUMBERS, min_size=2, max_size=2)


@st.composite
def _unit_pairs(draw, min_size, max_size):
    """[re, im] pairs scaled to unit norm when they are not all zero, so that
    parsing often succeeds and the scenario runs."""
    pairs = st.lists(st.tuples(_NUMBERS, _NUMBERS), min_size=min_size, max_size=max_size)
    raw = np.array(draw(pairs))
    scale = np.abs(raw).max()  # scaled first, so that the norm cannot overflow
    if scale > 0:
        raw = raw / scale
        raw = raw / np.linalg.norm(raw)
    return raw.tolist()


def _balanced(n, m, seed):
    c = random_condition_coefficients(n, m, np.random.default_rng(seed))
    return [[z.real, z.imag] for z in c.coeffs]


_STATE = st.one_of(
    st.fixed_dictionaries(
        {"named": st.sampled_from(cli.NAMED_STATES), "n": st.integers(2, 6)},
        optional={"a1": _PAIR, "a2": _PAIR},
    ),
    st.builds(
        lambda n, a: {"named": "ghz", "n": n, "a1": a[0], "a2": a[1]},
        st.integers(2, 6),
        _unit_pairs(2, 2),
    ),
    st.fixed_dictionaries(
        {
            "coefficients": st.one_of(
                st.lists(_PAIR, min_size=1, max_size=7),
                _unit_pairs(1, 7),
                st.builds(_balanced, st.just(6), st.integers(1, 5), st.integers(0, 99)),
            )
        }
    ),
)
_FIELDS = {
    "m": st.integers(0, 7) | st.integers(1, 2),  # the encoding sets' own m, more often
    "strategy": st.sampled_from(cli.STRATEGIES),
    "set": st.sampled_from(tuple(sdc.ENCODING_SETS)),
    "grid": st.fixed_dictionaries(
        {"count": st.integers(0, 3)}, optional={"seed": st.integers(-1, 2**32)}
    ),
}
_EXPECT = st.sampled_from(("success", "failure"))


@st.composite
def _well_formed(draw, task):
    fields = cli.TASK_FIELDS[task]
    doc = {"task": task, "state": draw(_STATE), **{key: draw(_FIELDS[key]) for key in fields}}
    if 1 <= doc.get("m", 0) <= 6 and draw(st.integers(0, 3)):
        # a resource balanced at the scenario's cut, so that the protocol runs
        n, seed = draw(st.integers(doc["m"] + 1, 7)), draw(st.integers(0, 99))
        doc["state"] = {"coefficients": _balanced(n, doc["m"], seed)}
    if draw(st.booleans()):
        doc["expect"] = draw(_EXPECT)
    return doc


def _junk(valid):
    return valid | _JUNK


_SCENARIO = st.sampled_from(cli.TASKS).flatmap(_well_formed) | st.fixed_dictionaries(
    {"task": _junk(st.sampled_from(cli.TASKS)), "state": _junk(_STATE)},
    optional={"expect": _junk(_EXPECT), **{key: _junk(v) for key, v in _FIELDS.items()}},
)
_CONFIG = _SCENARIO | st.fixed_dictionaries(
    {"scenarios": _junk(st.lists(_SCENARIO, max_size=3))}, optional={"out": _JUNK}
)


@settings(max_examples=400, deadline=None)
@example(text=json.dumps({"task": "scan", "state": {"named": "ghz", "n": 4, "a1": [1e200, 0]}}))
@example(text='{"scenarios": ' + DEEP + "}")
@given(text=_CONFIG.map(json.dumps))
def test_any_config_is_a_config_error_or_a_report(text):
    try:
        config = parse_config(text)
    except ConfigError:
        return
    report = run(config)
    assert emit(report, "json") and emit(report, "table")


_W3, _C4 = wstates.standard_w(3), w_coefficients(4)
# each call with a bool or non-integer index, and the same call with numpy ints
_INDEX_CALLS = {
    "reduced_spectrum": (
        lambda i: qsim.reduced_spectrum(_W3, [i]), [1.9, True], np.int64(1)
    ),
    "apply_unitary": (
        lambda i: qsim.apply_unitary(_W3, qsim.PAULIS[1], [i]), [2.5, True], np.int32(2)
    ),
    "permute_coefficients": (
        lambda i: wstates.permute_coefficients(_C4, [i, 2, 3, 4]), [1.5, True], np.int64(1)
    ),
    "make_basis_state": (lambda i: qsim.make_basis_state(1, [i]), [1.0, True], np.int8(1)),
    "teleport_condition": (lambda i: teleport_condition(_C4, i), [1.5, True], np.int64(1)),
}


@pytest.mark.parametrize("name", sorted(_INDEX_CALLS))
def test_indices_must_be_integers(name):
    # int() used to truncate 1.9 to qubit 1, and True read as 1
    call, bad, good = _INDEX_CALLS[name]
    for value in bad:
        with pytest.raises(ValueError, match="expected an integer"):
            call(value)
    call(good)


def test_decode_raises_the_register_errors():
    # a mixed qubit count or an unnormalized state: the error types every
    # teleport entry point raises, both still ValueErrors
    one, two = qsim.zero_state(1), qsim.zero_state(2)
    with pytest.raises(qsim.DimensionError, match="one qubit count"):
        sdc.decode([one, two])
    with pytest.raises(NormalizationError, match="normalized"):
        sdc.decode([one, StateVector(1, [1.0, 1.0])])
    assert issubclass(qsim.DimensionError, ValueError)
    assert issubclass(NormalizationError, ValueError)


_S = 1 / math.sqrt(2)
# each call with a bool or non-integer size, and the same call with a numpy int
_SIZE_CALLS = {
    "StateVector": (lambda k: StateVector(k, [1, 0]), [True, 1.0], np.int64(1)),
    "DensityMatrix": (lambda k: DensityMatrix(k, np.diag([1, 0])), [True, 1.0], np.int64(1)),
    "make_basis_state": (lambda k: qsim.make_basis_state(k, [1]), [True, 1.0], np.int8(1)),
    "zero_state": (qsim.zero_state, [True, 2.0], np.int32(2)),
    "w_coefficients": (w_coefficients, [True, 4.0], np.int64(4)),
    "modified_w_coefficients": (wstates.modified_w_coefficients, [True, 3.0], np.int16(3)),
    "generalized_ghz": (lambda k: generalized_ghz(_S, _S, k), [True, 3.0], np.int64(3)),
    "ghz": (wstates.ghz, [True, 3.0], np.uint8(3)),
    "sub_w.start": (lambda k: wstates.sub_w(_C4, k, 2), [True, 1.0], np.int64(1)),
    "sub_w.end": (lambda k: wstates.sub_w(_C4, 1, k), [True, 2.0], np.int64(2)),
    "excitation_blocks": (lambda k: wstates.excitation_blocks(_C4, k), [True, 1.5], np.int64(2)),
    "partition_entropy_formula.n": (
        lambda k: partition_entropy_formula(k, 1), [True, 4.0], np.int64(4)
    ),
    "partition_entropy_formula.x": (
        lambda k: partition_entropy_formula(4, k), [True, 1.5], np.int64(1)
    ),
    "pauli_product_set": (sdc.pauli_product_set, [True, 1.0], np.int64(1)),
    "unknown_state_grid.count": (lambda k: unknown_state_grid(k, 1), [True, 2.5], np.int64(2)),
    "unknown_state_grid.seed": (lambda k: unknown_state_grid(2, k), [True, 1.0], np.int64(1)),
}


@pytest.mark.parametrize("name", sorted(_SIZE_CALLS))
def test_sizes_must_be_integers(name):
    # True used to pass as 1 (num_qubits=True), and a float raised a bare
    # TypeError from numpy or Python, or was accepted as a qubit count
    call, bad, good = _SIZE_CALLS[name]
    for value in bad:
        with pytest.raises(ValueError, match="expected an integer"):
            call(value)
    call(good)


def test_size_floors_name_the_bound():
    with pytest.raises(ValueError, match="expected an integer >= 2, got 1"):
        w_coefficients(1)
    with pytest.raises(ValueError, match="expected an integer >= 1, got 0"):
        sdc.pauli_product_set(0)
    assert type(qsim.require_int(np.int64(5), 5)) is int


@pytest.mark.parametrize("message", [(True, False), (0.0, 1.0), (np.float64(0), np.float64(1))])
def test_message_bits_must_be_integers(message):
    # a bool, a float or a numpy float used to select an operator as a bit
    encoding = sdc.pauli_set()
    with pytest.raises(ValueError, match="expected an integer"):
        encoding.operator_for(message)
    assert encoding.operator_for((np.int64(1), np.uint8(0))) is encoding.operators[2]


@pytest.mark.parametrize("m", [True, 1.0, 0])
def test_ghz_partition_size_must_be_an_integer(m):
    # m=True used to come back as partition_size=True
    with pytest.raises(ValueError, match="expected an integer"):
        ghz_condition(_S, _S, m)
    assert ghz_condition(_S, _S, np.int64(2)).partition_size == 2
