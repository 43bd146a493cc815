"""Repository-level guards: module boundaries and the golden acceptance report."""

import ast
from pathlib import Path

from wproto.cli import main

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "wproto"
GOLDEN = Path(__file__).resolve().parent / "golden_acceptance.json"


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


def test_acceptance_report_is_byte_identical_to_golden(tmp_path):
    out = tmp_path / "report.json"
    config = ROOT / "configs" / "acceptance.json"
    assert main(["--config", str(config), "--format", "json", "--out", str(out)]) == 0
    assert out.read_bytes() == GOLDEN.read_bytes()
