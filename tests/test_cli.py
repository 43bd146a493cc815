"""Config parsing, scenario execution, emission, and exit-code contract."""

import json
import re
import subprocess
import sys
from collections import OrderedDict
from enum import IntEnum
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wproto.cli as cli
import wproto.qsim as qsim
import wproto.sdc as sdc
import wproto.teleport as teleport
from wproto.cli import TASKS, ConfigError, RunReport, emit, main, parse_config, run
from wproto.teleport import FIDELITY_THRESHOLD

from oracle_utils import round_floats

REPO = Path(__file__).resolve().parents[1]
ACCEPTANCE_CONFIG = REPO / "configs" / "acceptance.json"


def make_config(scenarios) -> str:
    return json.dumps({"scenarios": scenarios})


class TestParseConfig:
    def test_single_scenario_document(self):
        config = parse_config('{"task": "scan", "state": {"named": "w", "n": 5}}')
        assert len(config.scenarios) == 1
        assert config.scenarios[0].task == "scan"
        assert config.scenarios[0].n == 5

    def test_teleport_scenario(self):
        config = parse_config(
            '{"task": "teleport", "state": {"named": "w", "n": 4},'
            ' "m": 2, "strategy": "serial"}'
        )
        s = config.scenarios[0]
        assert s.echo["strategy"] == "serial" and s.echo["m"] == 2
        assert s.echo["grid"]["count"] == 20  # default

    def test_unnormalized_coefficients_report_deficit(self):
        doc = make_config(
            [{"task": "scan", "state": {"coefficients": [[0.3, 0], [0.9, 0]]}}]
        )
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert any("deficit 0.1" in e for e in err.value.errors)

    def test_errors_aggregate_across_fields(self):
        doc = make_config(
            [
                {"task": "warp", "state": {"named": "w", "n": 4}},
                {"task": "teleport", "state": {"named": "w", "n": 4}, "m": 9,
                 "strategy": "sideways"},
                {"task": "scan", "state": {"named": "x", "n": 4}},
                {"task": "scan", "state": {"named": "w", "n": 1}},
                5,
            ]
        )
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        text = "\n".join(err.value.errors)
        assert "scenario 0.task" in text
        assert "scenario 1.m" in text
        assert "scenario 1.strategy" in text
        assert "scenario 2.state.named: must be one of" in text
        assert "scenario 3.state.n: integer >= 2 required" in text
        assert "scenario 4: must be an object" in text

    def test_malformed_json(self):
        for text, message in [
            (b"{not json", "config is not valid JSON"),
            (b"\xff{}", "config is not valid UTF-8"),
            ("[]", "top level must be an object"),
        ]:
            with pytest.raises(ConfigError, match=message):
                parse_config(text)

    def test_strategy_only_for_teleport(self):
        doc = make_config(
            [{"task": "scan", "state": {"named": "w", "n": 4}, "strategy": "serial"}]
        )
        with pytest.raises(ConfigError):
            parse_config(doc)

    def test_ghz_rejected_for_teleport(self):
        doc = make_config(
            [{"task": "teleport", "state": {"named": "ghz", "n": 4}, "m": 2}]
        )
        with pytest.raises(ConfigError):
            parse_config(doc)

    def test_unknown_fields_rejected(self):
        doc = make_config([{"task": "scan", "state": {"named": "w", "n": 4}, "mm": 1}])
        with pytest.raises(ConfigError):
            parse_config(doc)

    def test_single_scenario_document_carries_no_out(self):
        # only the {"scenarios": [...], "out": ...} form names a report path
        doc = '{"task": "scan", "state": {"named": "w", "n": 4}, "out": 5}'
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert err.value.errors == ["scenario 0: unknown field 'out'"]

    def test_empty_scenario_list_is_valid(self):
        config = parse_config('{"scenarios": []}')
        assert config.scenarios == []


class TestRun:
    def test_scan_w4(self):
        report = run(parse_config('{"task": "scan", "state": {"named": "w", "n": 4}}'))
        entry = report.payload["scenarios"][0]
        holds = {row["m"]: row["holds"] for row in entry["results"]["partitions"]}
        assert holds == {1: False, 2: True, 3: False}
        assert entry["verdict"]["success"]

    def test_teleport_w5_failure_names_the_cause(self):
        doc = make_config(
            [{"task": "teleport", "state": {"named": "w", "n": 5}, "m": 2,
              "grid": {"count": 2, "seed": 1}, "expect": "failure"}]
        )
        report = run(parse_config(doc))
        entry = report.payload["scenarios"][0]
        assert not entry["verdict"]["success"]
        assert "no partition" in entry["verdict"]["reason"]
        assert entry["matched"]
        assert report.all_matched

    def test_sdc_w4_capacity(self):
        doc = make_config(
            [{"task": "sdc", "state": {"named": "w", "n": 4}, "m": 2, "set": "w4"}]
        )
        entry = run(parse_config(doc)).payload["scenarios"][0]
        assert entry["results"]["bits"] == 3
        assert entry["verdict"]["success"]

    @pytest.mark.parametrize("name", ["pauli", "generated"])
    def test_sdc_unbalanced_resource_names_the_sums(self, name):
        # every set gets the split gate's refusal, not whatever building the
        # set would trip over first (here: a vanishing excitation block)
        doc = make_config(
            [{"task": "sdc", "state": {"coefficients": [[0, 0], [0, 0], [1, 0]]}, "m": 1,
              "set": name, "expect": "failure"}]
        )
        entry = run(parse_config(doc)).payload["scenarios"][0]
        assert entry["matched"] and not entry["verdict"]["success"]
        assert "does not split half-and-half at m=1 (sums 0 / 1)" in entry["verdict"]["reason"]

    def test_sdc_gate_runs_before_the_set_is_built(self, monkeypatch):
        def build(c, m):
            raise AssertionError("the set was built for an unsuitable resource")

        monkeypatch.setattr(sdc, "general_encoding_set", build)
        doc = make_config(
            [{"task": "sdc", "state": {"named": "w", "n": 5}, "m": 2, "set": "generated",
              "expect": "failure"}]
        )
        entry = run(parse_config(doc)).payload["scenarios"][0]
        assert entry["matched"]
        assert "does not split half-and-half at m=2" in entry["verdict"]["reason"]

    def test_refused_teleport_builds_no_grid(self, monkeypatch):
        # the split gate refuses before the grid of input states is drawn;
        # the refusal and its condition block are what the gate names
        calls = []
        monkeypatch.setattr(cli, "unknown_state_grid", lambda *args: calls.append(args))
        doc = make_config(
            [{"task": "teleport", "state": {"named": "w", "n": 5}, "m": 2, "strategy": strategy,
              "grid": {"count": 20, "seed": 3}, "expect": "failure"}
             for strategy in ("subspace", "transfer", "serial")]
        )
        report = run(parse_config(doc))
        assert report.all_matched
        for entry in report.payload["scenarios"]:
            assert "does not split half-and-half at m=2" in entry["verdict"]["reason"]
            assert entry["results"]["condition"]["m"] == 2
        assert calls == []

    def test_refused_requests_build_no_protocol_object(self, monkeypatch):
        # a teleport or sdc request refused at its m, as detect-large's are, stops
        # at the split gate: no grid, family, correction, transfer, relay,
        # encoding set or capacity check is built, nor any basis or operator
        built = []

        def count(owner, name):
            original = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *a, **k: built.append(name) or original(*a, **k))

        for name in ("unknown_state_grid", "run_teleport_grid", "capacity_check"):
            count(cli, name)
        for name in ("one_qubit_measurement_family", "bob_strategy1_set", "bob_strategy2_set",
                     "transfer_unitary", "serial_basis"):
            count(teleport, name)
        for name in ("general_encoding_set", "pauli_set", "w4_multiunary_set", "pauli_product_set"):
            count(sdc, name)
        count(qsim.MeasurementBasis, "__init__")
        count(qsim.Unitary, "_fill")
        states = [{"named": "w", "n": 5}, {"named": "modified-w", "n": 4}]  # no cut / only m = 1
        doc = make_config(
            [{"task": "teleport", "state": state, "m": 2, "strategy": strategy,
              "grid": {"count": 20, "seed": 3}, "expect": "failure"}
             for state in states for strategy in ("subspace", "transfer", "serial")]
            + [{"task": "sdc", "state": states[0], "m": 1, "set": "pauli", "expect": "failure"}]
            + [{"task": "sdc", "state": state, "m": 2, "set": name, "expect": "failure"}
               for state in states for name in ("w4", "generated", "full-products")]
        )
        report = run(parse_config(doc))
        assert report.all_matched and len(report.payload["scenarios"]) == 13
        for entry in report.payload["scenarios"]:
            assert "does not split half-and-half at m=" in entry["verdict"]["reason"]
        assert built == []

    def test_teleport_w4_reports_unit_fidelity(self):
        doc = make_config(
            [{"task": "teleport", "state": {"named": "w", "n": 4}, "m": 2,
              "grid": {"count": 4, "seed": 2}}]
        )
        entry = run(parse_config(doc)).payload["scenarios"][0]
        assert entry["results"]["min_fidelity"] >= 1 - 1e-9
        assert entry["verdict"]["success"]

    def test_entropy_rows(self):
        doc = make_config([{"task": "entropy", "state": {"named": "w", "n": 6}}])
        entry = run(parse_config(doc)).payload["scenarios"][0]
        rows = {row["x"]: row for row in entry["results"]["rows"]}
        assert rows[3]["simulated"] == pytest.approx(1.0, abs=1e-10)
        assert all(row["match"] for row in rows.values())

    def test_empty_scenarios(self):
        report = run(parse_config('{"scenarios": []}'))
        assert report.payload["scenarios"] == []
        assert report.all_matched


class TestEmit:
    def test_json_roundtrip_equals_payload(self):
        report = run(parse_config('{"task": "scan", "state": {"named": "w", "n": 4}}'))
        loaded = json.loads(emit(report, "json"))
        reloaded = json.loads(emit(RunReport(loaded, 0.0, report.all_matched), "json"))
        assert loaded == reloaded

    def test_json_deterministic_across_runs(self):
        doc = make_config(
            [{"task": "teleport", "state": {"named": "w", "n": 4}, "m": 2,
              "strategy": "serial", "grid": {"count": 3, "seed": 5}}]
        )
        first = emit(run(parse_config(doc)), "json")
        second = emit(run(parse_config(doc)), "json")
        assert first == second

    def test_table_shows_twelve_decimals(self):
        for scenario, line in [
            ({"task": "entropy", "state": {"named": "w", "n": 6}}, "x=3  simulated=1.000000000000"),
            ({"task": "sdc", "state": {"named": "w", "n": 4}, "m": 2},
             "set=generated  size=8  bits=3  decodable=true"),
        ]:
            table = emit(run(parse_config(make_config([scenario]))), "table").decode()
            assert line in table

    def test_reals_carry_twelve_significant_digits(self):
        doc = make_config([{"task": "entropy", "state": {"named": "w", "n": 3}}])
        loaded = json.loads(emit(run(parse_config(doc)), "json"))
        row = loaded["scenarios"][0]["results"]["rows"][0]
        assert row["simulated"] == float(f"{0.9182958340544896:.12g}")

    def test_unknown_format_rejected(self):
        report = run(parse_config('{"scenarios": []}'))
        with pytest.raises(ValueError):
            emit(report, "yaml")

    @pytest.mark.parametrize("value", [object(), {1, 2}, np.int64(3), b"bytes", np.bool_(True)])
    def test_unsupported_type_raises_type_error_as_json_does(self, value):
        with pytest.raises(TypeError):
            json.dumps(round_floats(value))
        for payload in (value, [1, value], {"key": value}):
            with pytest.raises(TypeError):
                emit(RunReport(payload, 0.0, True), "json")

    @pytest.mark.parametrize("key", [(1, 2), frozenset()])
    def test_unsupported_key_raises_type_error_as_json_does(self, key):
        with pytest.raises(TypeError):
            json.dumps({key: 0})
        with pytest.raises(TypeError):
            emit(RunReport({key: 0}, 0.0, True), "json")


class _Kind(IntEnum):
    ONE = 1
    TWO = 2


class _Label(str):
    pass


# a positional 12-digit text is written as is: reals about each power of ten
# from 1e-6 to 1e17 cross both ends of that form, [1e-4, 1e12), and repr's
_DECADES = st.integers(-6, 17).flatmap(
    lambda e: st.floats(min_value=0.5 * 10.0**e, max_value=2 * 10.0**e)
    | st.floats(min_value=-2 * 10.0**e, max_value=-0.5 * 10.0**e)
)
_REALS = (
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
    | st.sampled_from([-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16, 123456789012.5])
    | st.floats(allow_nan=True, allow_infinity=True).map(np.float64)
    | _DECADES
)
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(2**200), max_value=2**200)
    | _REALS
    | st.text()
    | st.text(st.characters(max_codepoint=0x1F))  # control characters
    | st.text(st.characters(min_codepoint=0x80))  # non-ASCII, astral planes too
)
_KEYS = st.text() | st.sampled_from(["", "\n", "\u00e9", "\U0001f600", "a\"b"])
_PAYLOADS = st.recursive(
    _SCALARS,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(_KEYS, children, max_size=4)
    ),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@example(payload={})
@example(payload=[])
@example(payload=())
@example(payload={"a": [], "b": {}, "c": (), "d": [[]], "e": {"f": {}}})
@example(payload=[float("nan"), float("inf"), -float("inf"), -0.0, np.float64(0.1)])
@example(payload={"z": 1, "a": True, "m": None, "\u00ff": 0.30000000000000004})
@example(payload=[9.99999999999995e-05, 1e-4, 999999999999.4, 999999999999.5, 1e12, 1e15, 1e16,
                  5e-324, 2.2250738585072014e-308, 1234567890123.0, 0.000123456789012345])
@example(payload=[-0.0, 3.0, -3.0, float("nan"), float("inf"), -float("inf")])
@example(payload={"a": [np.float64(0.1), np.float64(1e-5), np.float64(-0.0)],
                  "b": np.float64(123456.7890123456), "c": np.float64("nan")})
@example(payload={"kind": _Kind.TWO, "label": _Label("caf\u00e9"), "items": [_Kind.ONE, _Label("")]})
@example(payload=_Label("\n"))
@example(payload=_Kind.ONE)
@example(payload=OrderedDict([("b", ((1, (2.5, ())), ())), ("a", [{}, [0.1], {"c": []}, ((),)])]))
@example(payload=[(), [[], {}], {"x": {}, "y": ((), [1])}, OrderedDict(), OrderedDict(z=[])])
@given(payload=_PAYLOADS)
def test_json_emission_is_the_rounded_json_dumps(payload):
    expected = json.dumps(round_floats(payload), sort_keys=True, indent=2) + "\n"
    assert emit(RunReport(payload, 0.0, True), "json") == expected.encode("utf-8")


@pytest.mark.parametrize("key", [1, -7, 2.5, float("nan"), True, None])
def test_json_emission_converts_other_keys_as_json_does(key):
    payload = {key: [1.23456789012345]}
    expected = json.dumps(round_floats(payload), sort_keys=True, indent=2) + "\n"
    assert emit(RunReport(payload, 0.0, True), "json") == expected.encode("utf-8")


class TestMainExitCodes:
    def write(self, tmp_path, doc) -> str:
        path = tmp_path / "config.json"
        path.write_text(doc, encoding="utf-8")
        return str(path)

    def test_exit_zero_on_matching_expectations(self, tmp_path, capsys):
        path = self.write(
            tmp_path,
            make_config([{"task": "scan", "state": {"named": "w", "n": 4}}]),
        )
        assert main(["--config", path, "--format", "json"]) == 0
        capsys.readouterr()

    def test_exit_one_on_mismatch(self, tmp_path, capsys):
        path = self.write(
            tmp_path,
            make_config([{"task": "scan", "state": {"named": "w", "n": 5}}]),
        )
        assert main(["--config", path, "--format", "json"]) == 1
        capsys.readouterr()

    def test_exit_two_on_config_error(self, tmp_path, capsys):
        path = self.write(tmp_path, '{"task": "warp"}')
        assert main(["--config", path]) == 2
        err = capsys.readouterr().err
        assert "config error" in err

    def test_exit_two_on_missing_file(self, tmp_path, capsys):
        for name in ("nope.json", "a\x00b"):  # absent, and a path open() refuses
            assert main(["--config", str(tmp_path / name)]) == 2
            assert capsys.readouterr().err.startswith("cannot read config: ")

    @pytest.mark.parametrize(
        "task",
        [{"task": "teleport", "strategy": "transfer", "m": 2, "grid": {"count": 2, "seed": 1}},
         {"task": "sdc", "set": "generated", "m": 2}],
        ids=["transfer", "generated"],
    )
    def test_exit_zero_on_a_subnormal_w_amplitude(self, tmp_path, capsys, task):
        # the receiver's |w> has a subnormal |01> amplitude: the transfer still
        # takes a unit phase from it, so both runs verify instead of exiting 3
        state = {"coefficients": [[0.7071067811865475, 0], [0.7071067811865476, 0], [1e-310, 0]]}
        config = self.write(tmp_path, make_config([{**task, "state": state}]))
        out = tmp_path / "report.json"
        assert main(["--config", config, "--format", "json", "--out", str(out)]) == 0
        results = json.loads(out.read_text())["scenarios"][0]["results"]
        if task["task"] == "teleport":
            assert results["min_fidelity"] >= FIDELITY_THRESHOLD
        else:
            assert results["decodable"] and results["bits"] == 3
        capsys.readouterr()

    def test_out_flag_writes_file(self, tmp_path, capsys):
        config = self.write(
            tmp_path, make_config([{"task": "scan", "state": {"named": "w", "n": 4}}])
        )
        out = tmp_path / "report.json"
        assert main(["--config", config, "--format", "json", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["all_matched"] is True
        capsys.readouterr()

    def test_demo_sample_narrates_in_table_mode(self, tmp_path, capsys):
        # a scan and a refused teleport are skipped; only a runnable teleport is sampled
        skipped = [
            {"task": "scan", "state": {"named": "w", "n": 4}},
            {"task": "teleport", "state": {"named": "w", "n": 5}, "m": 2, "expect": "failure"},
        ]
        runnable = {"task": "teleport", "state": {"named": "w", "n": 4}, "m": 2,
                    "grid": {"count": 2, "seed": 3}}
        for scenarios, narrated in [
            (skipped + [runnable], "  scenario 2: measured "),
            (skipped, "  (no runnable teleport scenario to sample)"),
        ]:
            config = self.write(tmp_path, make_config(scenarios))
            out = tmp_path / "report.txt"
            assert main(
                ["--config", config, "--format", "table", "--out", str(out),
                 "--demo-sample", "--seed", "9"]
            ) == 0
            text = out.read_text()
            demo = text[text.index("single-shot demo (seed=9):\n") :].splitlines()
            assert demo[1:] == [demo[1]] and demo[1].startswith(narrated)
        capsys.readouterr()

    def test_demo_sample_excluded_from_json(self, tmp_path, capsys):
        config = self.write(
            tmp_path,
            make_config(
                [{"task": "teleport", "state": {"named": "w", "n": 4}, "m": 2,
                  "grid": {"count": 2, "seed": 3}}]
            ),
        )
        plain = tmp_path / "plain.json"
        sampled = tmp_path / "sampled.json"
        assert main(["--config", config, "--format", "json", "--out", str(plain)]) == 0
        assert main(
            ["--config", config, "--format", "json", "--out", str(sampled),
             "--demo-sample", "--seed", "9"]
        ) == 0
        assert plain.read_bytes() == sampled.read_bytes()
        capsys.readouterr()

    @pytest.mark.parametrize("seed", ["-1", "x"])
    def test_exit_two_on_bad_seed(self, tmp_path, capsys, seed):
        config = self.write(tmp_path, '{"task": "scan", "state": {"named": "w", "n": 4}}')
        with pytest.raises(SystemExit) as exit_:
            main(["--config", config, "--demo-sample", "--seed", seed])
        assert exit_.value.code == 2
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_exit_two_on_unwritable_output_path(self, tmp_path, capsys, via):
        # a missing directory, and two paths open() refuses: a NUL, a lone surrogate
        for name in ("missing/report.json", "a\x00b", "\ud800"):
            out = str(tmp_path / name)
            doc = {"scenarios": [{"task": "scan", "state": {"named": "w", "n": 4}}]}
            argv = ["--format", "json"]
            if via == "flag":
                argv += ["--out", out]
            else:
                doc["out"] = out
            assert main(["--config", self.write(tmp_path, json.dumps(doc)), *argv]) == 2
            stdout, err = capsys.readouterr()
            assert stdout == ""
            assert err.startswith("cannot write report: ") and "Traceback" not in err
            assert [path.name for path in tmp_path.iterdir()] == ["config.json"]

    def test_exit_two_when_the_report_cannot_be_written_after_the_run(
        self, tmp_path, capsys, monkeypatch
    ):
        # the path passed the check before the run; a directory now stands there
        out = tmp_path / "report.json"
        scan = cli._RUNNERS["scan"]
        monkeypatch.setitem(cli._RUNNERS, "scan", lambda scenario: out.mkdir() or scan(scenario))
        config = self.write(tmp_path, '{"task": "scan", "state": {"named": "w", "n": 4}}')
        assert main(["--config", config, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("cannot write report: ")
        assert out.is_dir()

    def test_unwritable_output_path_fails_before_running(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setitem(cli._RUNNERS, "scan", lambda scenario: calls.append(scenario))
        config = self.write(tmp_path, '{"task": "scan", "state": {"named": "w", "n": 4}}')
        out = str(tmp_path / "missing" / "report.json")
        assert main(["--config", config, "--out", out]) == 2
        assert calls == []
        assert "cannot write report" in capsys.readouterr().err

    def test_failed_run_keeps_an_existing_report(self, tmp_path, capsys, monkeypatch):
        def broken(scenario):
            raise RuntimeError("runner failed")

        monkeypatch.setitem(cli._RUNNERS, "scan", broken)
        config = self.write(tmp_path, '{"task": "scan", "state": {"named": "w", "n": 4}}')
        out = tmp_path / "report.json"
        out.write_bytes(b"previous report\n")
        assert main(["--config", config, "--out", str(out)]) == cli.EXIT_INTERNAL_ERROR
        assert out.read_bytes() == b"previous report\n"
        assert "internal error: RuntimeError: runner failed" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["json", "table"])
    def test_failed_run_leaves_no_report_behind(self, tmp_path, capsys, monkeypatch, fmt):
        # the probe that checks a new path before running takes away the file
        # it creates, so a run that ends without a report leaves none
        def broken(scenario):
            raise RuntimeError("runner failed")

        monkeypatch.setitem(cli._RUNNERS, "scan", broken)
        config = self.write(tmp_path, '{"task": "scan", "state": {"named": "w", "n": 4}}')
        out = tmp_path / "report.json"
        assert main(["--config", config, "--format", fmt, "--out", str(out)]) == cli.EXIT_INTERNAL_ERROR
        assert not out.exists()
        assert "internal error: RuntimeError: runner failed" in capsys.readouterr().err


def test_module_entry_point_runs_acceptance_config(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "wproto.cli", "--config", str(ACCEPTANCE_CONFIG),
         "--format", "json"],
        capture_output=True,
        cwd=REPO,
    )
    assert result.returncode == 0, result.stderr.decode()
    payload = json.loads(result.stdout)
    assert payload["all_matched"] is True
    assert len(payload["scenarios"]) == 16


def test_every_readme_json_block_is_a_valid_config():
    # the README documents the schema; each example it gives must parse
    blocks = re.findall(r"```json\n(.*?)```", (REPO / "README.md").read_text(), re.S)
    assert len(blocks) >= len(TASKS)
    tasks = set()
    for block in blocks:
        config = parse_config(block)
        tasks.update(s.task for s in config.scenarios)
    assert tasks == set(TASKS)


def test_readme_python_blocks_run_and_give_their_commented_results():
    # the quick start states its results in comments; run it and check them
    blocks = re.findall(r"```python\n(.*?)```", (REPO / "README.md").read_text(), re.S)
    assert blocks
    for block in blocks:
        namespace: dict = {}
        exec(compile(block, "README.md", "exec"), namespace)
    wp, c = namespace["wp"], namespace["c"]
    assert [r.partition_size for r in wp.suitability_scan(c) if r.holds] == [2]
    assert namespace["report"].min_fidelity == 1.0
    assert len(namespace["report"].labels) == 16
    assert namespace["columns"].fidelities.shape == (20, 4)
    assert namespace["columns"].min_fidelity >= 1 - 1e-9
    assert wp.capacity_check(c, 2, namespace["enc"]).bits == 3
