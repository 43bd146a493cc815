"""Repository-level guards: module boundaries, the golden reports, the
names the benchmark's tracer wraps and the suite's own warning policy."""

import ast
import importlib
import importlib.util
import inspect
import io
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

import wproto.cli as cli
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


def test_the_cli_holds_no_physics():
    # the CLI parses, calls one library function per task and formats the
    # result: tolerances, spectra, entropies and encoding sets stay below it
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    from_qsim = {
        alias.name
        for node in imports
        if (node.module or "").removeprefix("wproto.") == "qsim"
        for alias in node.names
    }
    assert from_qsim <= {"MAX_QUBITS", "NormalizationError"}
    names = {alias.name for node in imports for alias in node.names}
    names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not [name for name in names if name.endswith("_TOL") or name == "FIDELITY_THRESHOLD"]
    physics = {
        "reduced_spectrum",
        "spectrum_entropy",
        "binary_entropy",
        "cut_entropy",
        "pauli_set",
        "w4_multiunary_set",
        "general_encoding_set",
        "pauli_product_set",
    }
    assert not names & physics


#: the code lines of src/wproto, at most: lines that hold a token other than a
#: comment or a blank, outside docstrings.  Compiled source shows in every
#: workload's peak RSS and set-up time, so the count may only go down
SOURCE_CODE_LINES = 1713


def _code_lines(text: str) -> int:
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        owners = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        first = node.body[0] if isinstance(node, owners) and node.body else None
        if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                and isinstance(first.value.value, str):
            docstrings.update(range(first.lineno, first.end_lineno + 1))
    layout = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
              tokenize.ENCODING, tokenize.ENDMARKER}
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in layout:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def test_the_source_does_not_grow():
    count = sum(_code_lines(path.read_text()) for path in PACKAGE.glob("*.py"))
    assert count <= SOURCE_CODE_LINES, f"src/wproto holds {count} code lines"


def _name(node: ast.expr) -> str | None:
    return getattr(node, "id", None) or getattr(node, "attr", None)


def test_teleport_measures_in_one_hop_and_checks_states_once():
    # one step measures and corrects every stack, sender's and relay's alike,
    # and one check refuses a state of the wrong size or norm
    called, raised = {}, {}
    for top in ast.parse((PACKAGE / "teleport.py").read_text()).body:
        owner = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                called.setdefault(_name(node.func), set()).add(owner)
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.setdefault(_name(exc), set()).add(owner)
    assert called["project_product"] == called["apply_unitary_stack"] == {"_hop"}
    assert raised["DimensionError"] == raised["NormalizationError"] == {"_require_registers"}


def test_the_joint_state_layout_has_one_owner():
    # qsim lays out and measures register (x) resource through one core; the
    # hop only checks the probabilities and corrects every qubit left
    trees = {name: ast.parse((PACKAGE / name).read_text()) for name in ("teleport.py", "qsim.py")}
    imported = {alias.name for node in ast.walk(trees["teleport.py"])
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert not imported & {"support_width", "kept_patterns", "MEASURED_BLOCK", "project_stack"}
    assigned = {_name(target) for node in trees["teleport.py"].body
                if isinstance(node, ast.Assign) for target in node.targets}
    assert "_JOINT_AMPLITUDES" not in assigned
    callers = {top.name for top in trees["qsim.py"].body for node in ast.walk(top)
               if isinstance(node, ast.Call) and _name(node.func) == "_measure_block"}
    assert callers == {"project_stack", "project_product"}
    hop = _function(trees["teleport.py"], "_hop")
    assert "receiver" not in [arg.arg for arg in hop.args.args]
    stack = _function(trees["qsim.py"], "project_stack")
    assert [arg.arg for arg in stack.args.args] == ["rows", "basis"]


def test_teleport_reports_are_columns_not_outcome_objects():
    # a run writes its branches into the report's arrays: no module-level
    # function builds a ProtocolOutcome or a StateVector list per grid row,
    # and only the grid of input registers turns a stack into states
    named = {}
    for top in ast.parse((PACKAGE / "teleport.py").read_text()).body:
        for node in ast.walk(top):
            name = node.name if isinstance(node, ast.alias) else _name(node)
            if name in ("ProtocolOutcome", "state_rows"):
                named.setdefault(name, set()).add(getattr(top, "name", "<import>"))
    assert "ProtocolOutcome" not in named
    assert named["state_rows"] - {"<import>"} == {"unknown_state_grid"}


def test_teleport_returns_columns_and_checks_fidelity_in_one_place():
    # a hop returns its branches as arrays instead of yielding them, and one
    # call checks the fidelity of every branch of a batch
    tree = ast.parse((PACKAGE / "teleport.py").read_text())
    assert not [node for node in ast.walk(tree) if isinstance(node, (ast.Yield, ast.YieldFrom))]
    callers = [
        getattr(top, "name", "<module>")
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and _name(node.func) == "fidelity_stack"
    ]
    assert callers == ["_teleport"]


def test_no_module_reads_an_operators_dense_view():
    # operators are built, composed, encoded and applied on their blocks and
    # moved rows; the dense 2^m x 2^m view is the tests' reference alone
    readers = {
        path.name
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "matrix"
    }
    assert not readers


def _calls(tree: ast.AST, dotted: str) -> list[ast.Call]:
    """Every call in ``tree`` spelled as the attribute chain ``dotted``."""
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Call) and ast.unparse(node.func) == dotted]


def test_spectra_come_from_one_svd_site_and_reports_from_one_writer():
    # qsim holds the only SVD, in one place, and a scan asks it once for all
    # of its cuts; the report is written by the CLI's own one-pass encoder
    trees = {path.name: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
    sites = {name: len(_calls(tree, "np.linalg.svd")) for name, tree in trees.items()}
    assert {name: count for name, count in sites.items() if count} == {"qsim.py": 1}
    (scan,) = [node for node in ast.walk(trees["wstates.py"])
               if isinstance(node, ast.FunctionDef) and node.name == "_checked_scan"]
    spectra = [call for name in ("trailing_spectra_stack", "trailing_spectra", "reduced_spectrum")
               for call in _calls(scan, name)]
    assert len(spectra) == 1
    loops = [node for node in ast.walk(scan) if isinstance(node, (ast.For, ast.While))]
    assert not [call for loop in loops for stmt in loop.body for call in ast.walk(stmt)
                if call in spectra]
    indented = [call for tree in trees.values() for call in _calls(tree, "json.dumps")
                if any(keyword.arg == "indent" for keyword in call.keywords)]
    assert indented == []


def test_the_report_writer_is_entered_once_per_container(monkeypatch):
    # the writer writes each scalar inside its container's loop and calls
    # itself only for a non-empty container: once per container, never for
    # a scalar
    report = cli.run(cli.parse_config(GOLDENS["acceptance"][0].read_bytes()))
    containers = []

    def collect(obj):
        if isinstance(obj, (dict, list, tuple)) and obj:
            containers.append(obj)
            for item in obj.values() if isinstance(obj, dict) else obj:
                collect(item)

    collect(report.payload)
    entered = []
    write = cli._write_json

    def counted(obj, out, indent=""):
        entered.append(obj)
        write(obj, out, indent)

    monkeypatch.setattr(cli, "_write_json", counted)
    cli.emit(report, "json")
    assert len(containers) > 100
    assert sorted(map(id, entered)) == sorted(map(id, containers))


def test_operator_sets_are_built_and_checked_as_stacks():
    # one set, one check, one product builder: teleport and the generated
    # set build their operators as stacks, never one constructor call per
    # item of a loop, and sdc has one Kronecker product site
    trees = {name: ast.parse((PACKAGE / name).read_text()) for name in ("teleport.py", "sdc.py")}
    (generated,) = [node for node in ast.walk(trees["sdc.py"])
                    if isinstance(node, ast.FunctionDef) and node.name == "general_encoding_set"]
    repeated = []
    for tree in (trees["teleport.py"], generated):
        for node in ast.walk(tree):
            if isinstance(node, (ast.For, ast.While)):
                repeated += node.body + node.orelse
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
                repeated.append(node.elt)
            elif isinstance(node, ast.DictComp):
                repeated += [node.key, node.value]
    builders = [ast.unparse(call) for part in repeated for call in ast.walk(part)
                if isinstance(call, ast.Call) and (ast.unparse(call.func) in ("Unitary", "Unitary.on_block")
                                                   or _name(call.func) == "permute_rows")]
    assert builders == []
    krons = [node for node in ast.walk(trees["sdc.py"])
             if isinstance(node, ast.Attribute) and ast.unparse(node) == "np.kron"]
    assert len(krons) <= 1


def _function(tree: ast.AST, name: str) -> ast.FunctionDef:
    (node,) = [node for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and node.name == name]
    return node


def test_protocols_take_the_resource_by_its_support():
    # teleport and the capacity check never build the dense 2^n resource, and
    # the product measurement fills one joint buffer, allocated before its
    # chunk loop, and measures it in support form: the block and its layout
    names = ("teleport.py", "sdc.py", "qsim.py")
    trees = {name: ast.parse((PACKAGE / name).read_text()) for name in names}
    capacity = _function(trees["sdc.py"], "capacity_check")
    assert not _calls(trees["teleport.py"], "generalized_w") + _calls(capacity, "generalized_w")
    product = _function(trees["qsim.py"], "project_product")
    (loop,) = [node for node in ast.walk(product)
               if isinstance(node, ast.For) and _calls(node, "_measure_block")]
    allocators = ("np.zeros", "np.empty", "np.ones", "np.full", "np.zeros_like", "np.empty_like")
    allocated = [call for name in allocators for call in _calls(product, name)]
    in_loop = [call for call in allocated if call in set(ast.walk(loop))]
    assert len(_calls(product, "np.zeros")) == 1 and not in_loop
    (measure,) = _calls(loop, "_measure_block")
    assert len(measure.args) == 3
    (buffer,) = [target.id for node in ast.walk(product) if isinstance(node, ast.Assign)
                 for target in node.targets if isinstance(target, ast.Name)
                 and _calls(node, "np.zeros")]
    chunks = {target.id for node in ast.walk(loop) if isinstance(node, ast.Assign)
              and isinstance(node.value, ast.Subscript) and _name(node.value.value) == buffer
              for target in node.targets if isinstance(target, ast.Name)}
    assert {node.id for node in ast.walk(measure.args[0]) if isinstance(node, ast.Name)} & chunks


def test_the_w_index_rule_is_written_once():
    # "coefficient l of a k-qubit W-class register lives at index 2^(k-l)":
    # one shift over a range of positions, in wstates; sub_w and the teleport
    # resource take their indices from it
    trees = {path.name: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
    rules = [(name, owner.name) for name, tree in trees.items()
             for owner in ast.walk(tree) if isinstance(owner, ast.FunctionDef)
             for node in ast.walk(owner) if isinstance(node, ast.BinOp)
             and isinstance(node.op, (ast.LShift, ast.Pow)) and _calls(node.right, "np.arange")]
    assert rules == [("wstates.py", "excitation_indices")]
    assert _calls(_function(trees["wstates.py"], "sub_w"), "excitation_indices")
    assert _calls(trees["teleport.py"], "excitation_indices")
    assert not [node for node in ast.walk(_function(trees["wstates.py"], "sub_w"))
                if isinstance(node, (ast.For, ast.While, ast.comprehension))]


def test_the_moved_index_rule_is_written_once():
    # "an index moves when its row or column differs from the identity's":
    # one comparison with np.eye, in Unitary(matrix); every other operator is
    # built on its block
    trees = {path.name: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
    # each comparison is listed under every class and function around it
    rules = [(name, owner.name) for name, tree in trees.items()
             for owner in ast.walk(tree) if isinstance(owner, (ast.ClassDef, ast.FunctionDef))
             for node in ast.walk(owner) if isinstance(node, ast.Compare)
             and _calls(node, "np.eye")]
    assert rules == [("qsim.py", "Unitary"), ("qsim.py", "__init__")]


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


def test_a_failing_property_test_is_reported_not_an_internal_error(tmp_path):
    # hypothesis reports a failing @given test through libcst, whose import
    # warns "mypy_extensions.TypedDict is deprecated"; under pyproject's
    # error::DeprecationWarning that warning used to end the session with
    # INTERNALERROR (exit 3), leaving every later test unreported
    (tmp_path / "test_always_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_always_fails(x):\n"
        "    assert x != x\n"
    )
    command = [sys.executable, "-m", "pytest", "-p", "no:cacheprovider"]
    command += ["-c", str(ROOT / "pyproject.toml"), str(tmp_path)]
    done = subprocess.run(
        command,
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    output = done.stdout + done.stderr
    assert done.returncode == 1, output
    assert "INTERNALERROR" not in output
    assert "1 failed" in output
