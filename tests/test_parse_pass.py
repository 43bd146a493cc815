"""Coefficient lists read in one pass: a list of [re, im] pairs of finite JSON
numbers gives the resource and echo bytes of the per-item reading, and any
other list is read item by item, so its error list is the one it always was."""

import json
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wproto.cli as cli
from wproto.cli import ConfigError, parse_config

WHERE = "scenario 0.state"


def _doc(coefficients: str) -> str:
    return '{"task": "scan", "state": {"coefficients": %s}}' % coefficients


def _json(obj) -> str:
    out: list[str] = []
    cli._write_json(obj, out)
    return "".join(out)


def _outcome(text: str):
    """parse_config's resource bytes and echo, or its error list."""
    try:
        scenario = parse_config(_doc(text)).scenarios[0]
    except ConfigError as exc:
        return exc.errors
    return scenario.resource.coeffs.tobytes(), scenario.echo["state"]


def _per_item(raw: list):
    """The same list read item by item: as tuples, which only ``_as_complex``
    takes; the echo as the per-item reading wrote it, from each complex entry."""
    errors: list[str] = []
    state = cli._coefficient_state([tuple(v) if isinstance(v, list) else v for v in raw], WHERE, errors)
    if state is None or errors:
        return errors
    coeffs = state[0].coeffs
    return coeffs.tobytes(), {"coefficients": [[z.real, z.imag] for z in coeffs]}


def _assert_same(text: str) -> None:
    got, want = _outcome(text), _per_item(json.loads(text))
    if isinstance(want, list):
        assert got == want
    else:
        assert got[0] == want[0]
        echo = got[1]["coefficients"]
        assert all(type(x) is float for pair in echo for x in pair)
        assert _json(got[1]) == _json(want[1])
        assert np.array(echo).tobytes() == np.frombuffer(want[0]).tobytes()


NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-(2**70), 2**70),
    st.sampled_from([-0.0, 0, 1, 2**53 + 1, -(2**63) - 3, 1e308, -1e308, 10**400, -(10**320 - 1)]),
    st.booleans(),
)
ITEMS = st.one_of(
    st.lists(NUMBERS, min_size=2, max_size=2),
    st.lists(NUMBERS, min_size=1, max_size=3),
    st.text(max_size=2),
    st.none(),
)


@settings(max_examples=300, deadline=None)
@given(raw=st.lists(ITEMS, min_size=2, max_size=6))
@example(raw=[[0.6, -0.0], [-0.0, 0.8]])
@example(raw=[[1, 0], [0, 0]])
@example(raw=[[0, -0.0], [2**53 + 1, 0], [1e308, 1]])
def test_any_list_reads_as_the_per_item_path_does(raw):
    _assert_same(json.dumps(raw))


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(2, 12),
    seed=st.integers(0, 2**32 - 1),
    signs=st.sampled_from([0, -0.0]),
)
def test_normalized_lists_give_the_per_item_bytes(n, seed, signs):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=n) + 1j * rng.normal(size=n)
    z[rng.random(n) < 0.3] = 0.0
    z[rng.integers(n)] = 1.0
    z /= np.linalg.norm(z)
    raw = [[signs if x == 0 else x for x in (v.real, v.imag)] for v in z.tolist()]
    text = json.dumps(raw)
    assert isinstance(_outcome(text), tuple)  # it parsed
    _assert_same(text)


def test_well_formed_lists_skip_the_per_item_reader(monkeypatch):
    calls = []
    per_item = cli._as_complex

    def counting(value, where, errors):
        calls.append(where)
        return per_item(value, where, errors)

    monkeypatch.setattr(cli, "_as_complex", counting)
    _outcome("[[0.6, 0], [0, 0.8], [0, -0.0]]")
    assert calls == []
    _outcome("[[0.6, 0], [0, 0.8], [0, true]]")
    assert len(calls) == 3


@pytest.mark.parametrize(
    "text, errors",
    [
        ("[[true, 0], [0.6, 0.8]]", ["[0]: expected a two-element [re, im] array"]),
        (
            '[["0.6", 0], [0.8, 0]]',
            [
                "[0]: expected a two-element [re, im] array",
                ": coefficients have squared norm 0.64 (deficit 0.36); normalize explicitly",
            ],
        ),
        ("[[1e999, 0], [0.6, 0.8]]", ["[0]: [re, im] must be finite numbers within the float range"]),
        (
            "[[1" + "0" * 400 + ", 0], [0.6, 0.8]]",
            ["[0]: [re, im] must be finite numbers within the float range"],
        ),
        (
            "[[0.6, 0, 0], [0.8, 0]]",
            [
                "[0]: expected a two-element [re, im] array",
                ": coefficients have squared norm 0.64 (deficit 0.36); normalize explicitly",
            ],
        ),
        ("[[NaN, 0], [0.6, 0.8]]", ["[0]: [re, im] must be finite numbers within the float range"]),
    ],
    ids=["bool", "string", "json-inf", "int-past-float-range", "three-element-pair", "nan"],
)
def test_malformed_lists_keep_their_error_lists(text, errors):
    assert _outcome(text) == [f"{WHERE}.coefficients{e}" for e in errors]
    _assert_same(text)


@pytest.mark.parametrize(
    "text",
    [
        "[[0.6, -0.0], [-0.0, 0.8]]",
        "[[1, 0], [0, 0]]",
        "[[0, 1], [-0.0, 0]]",
        "[[9007199254740993, 0], [0.6, 0.8]]",
        "[[1e308, 0], [0.6, 0.8]]",
        f"[[{int(sys.float_info.max) + 1}, 0], [0, 1]]",  # rounds to the largest float
    ],
    ids=["negative-zero", "ints", "ints-and-negative-zero", "above-2^53", "1e308", "int-past-max"],
)
def test_edge_numbers_read_as_the_per_item_path_does(text):
    _assert_same(text)


def test_negative_zeros_keep_their_sign():
    coeffs = np.frombuffer(_outcome("[[0.6, -0.0], [-0.0, 0.8]]")[0], dtype=np.complex128)
    assert [math.copysign(1.0, x) for x in (coeffs[0].imag, coeffs[1].real)] == [-1.0, -1.0]
    assert "squared norm inf" in _outcome("[[1e308, 0], [0.6, 0.8]]")[0]
