"""Repository-level guards: module boundaries, the golden reports and the
names the benchmark's tracer wraps."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from wproto.cli import main

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "wproto"
TESTS = Path(__file__).resolve().parent
# (config, golden report); both goldens were emitted before the stacked
# teleport engine, the second one with teleports up to n = 12
GOLDENS = {
    "acceptance": (ROOT / "configs" / "acceptance.json", TESTS / "golden_acceptance.json"),
    "large": (TESTS / "config_large.json", TESTS / "golden_large.json"),
}


def test_no_module_imports_a_private_name_from_another():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("wproto"):
                continue
            offenders += [
                f"{path.name}: {alias.name}"
                for alias in node.names
                if alias.name.startswith("_") and not alias.name.endswith("__")
            ]
    assert not offenders


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_acceptance_report_is_byte_identical_to_golden(tmp_path, name):
    config, golden = GOLDENS[name]
    out = tmp_path / "report.json"
    assert main(["--config", str(config), "--format", "json", "--out", str(out)]) == 0
    assert out.read_bytes() == golden.read_bytes()


def _load_tracer():
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_name_resolves():
    tracer = _load_tracer()
    for layer, targets in tracer.TARGETS.items():
        module = importlib.import_module(f"wproto.{layer}")
        for target in targets:
            name = target.removesuffix(".init")
            assert callable(getattr(module, name, None)), f"wproto.{layer}.{name}"
            if target.endswith(".init"):
                assert inspect.isclass(getattr(module, name)), f"wproto.{layer}.{name}"


def test_traced_work_functions_read_real_parameters():
    # each work function reads arguments as _arg(args, kwargs, index, "name");
    # index and name must match the wrapped function's signature
    tracer = _load_tracer()
    defs = {
        node.name: node
        for node in ast.walk(ast.parse((ROOT / "perfbench" / "tracer.py").read_text()))
        if isinstance(node, ast.FunctionDef)
    }
    read = {}
    for key, work in tracer.WORK.items():
        layer, target = key.split(".", 1)
        obj = getattr(importlib.import_module(f"wproto.{layer}"), target.removesuffix(".init"))
        params = list(inspect.signature(obj.__init__ if inspect.isclass(obj) else obj).parameters)
        for call in ast.walk(defs[work.__name__]):
            if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_arg":
                index, name = (arg.value for arg in call.args[2:4])
                assert params[index] == name, (key, index, name, params)
                read.setdefault(key, set()).add(name)
    assert read["qsim.project"] == {"state", "basis"}
    assert read["qsim.apply_unitary"] == {"state", "subset"}
