"""Outside-in tracing of wproto's public functions.

The benchmark wraps the listed functions and constructors from its own
files; nothing under ``src/`` knows about it.  ``cli``, ``sdc`` and the
package ``__init__`` import names directly, so every wproto module
namespace that holds a wrapped object is rebound, and constructors are
wrapped on the class itself.

Each call records a span (name, start, end, parent span, request id) in
memory.  Self time is a span's duration minus the time of its child spans.
Flop and byte counts are *computed* from argument shapes, not measured.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter

LAYERS = ("qsim", "wstates", "teleport", "sdc", "cli")

TARGETS = {
    "qsim": (
        "tensor", "superpose", "apply_unitary", "project", "partial_trace",
        "von_neumann_entropy", "orthonormal_extension", "gram_matrix", "fidelity",
        "StateVector.init", "Unitary.init", "MeasurementBasis.init",
        "DensityMatrix.init",
    ),
    "teleport": (
        "run_teleport_one_qubit", "one_qubit_measurement_family",
        "bob_strategy1_set", "bob_strategy2_set", "transfer_unitary",
        "serial_basis", "require_condition",
    ),
    "sdc": ("general_encoding_set", "encode", "decode", "capacity_check"),
    "wstates": (
        "suitability_scan", "ghz_suitability_scan", "generalized_w",
        "teleport_condition",
    ),
    "cli": ("parse_config", "run", "emit"),
}

COMPLEX_BYTES = 16


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


# Computed work per call, from argument shapes (complex multiply-add = 8 flops).
def _apply_unitary_work(args, kwargs):
    n = _arg(args, kwargs, 0, "state").num_qubits
    k = len(_arg(args, kwargs, 2, "subset"))
    return {"flops": 8 * 2 ** (n + k), "bytes": COMPLEX_BYTES * (2 * 2**n + 4**k)}


def _project_work(args, kwargs):
    n = _arg(args, kwargs, 0, "state").num_qubits
    basis = _arg(args, kwargs, 1, "basis")
    v, k = len(basis.vectors), len(basis.subset)
    return {"flops": 8 * v * 2**n,
            "bytes": COMPLEX_BYTES * (2**n + v * 2**k + v * 2 ** (n - k))}


def _partial_trace_work(args, kwargs):
    n = _arg(args, kwargs, 0, "state").num_qubits
    k = len(_arg(args, kwargs, 1, "keep"))
    return {"flops": 8 * 2 ** (n + k)}


def _density_matrix_work(args, kwargs):
    d = 2 ** _arg(args, kwargs, 1, "num_qubits")  # args[0] is self
    return {"eig_flops": 16 * d**3 // 3}  # Hermitian eigenvalues, complex


def _orthonormal_extension_work(args, kwargs):
    # Two Gram-Schmidt sweeps per accepted direction against the basis so far.
    s = len(_arg(args, kwargs, 0, "vectors"))
    d = _arg(args, kwargs, 1, "dim")
    return {"flops": 32 * d * (d * (d - 1) // 2 - s * (s - 1) // 2)}


WORK = {
    "qsim.apply_unitary": _apply_unitary_work,
    "qsim.project": _project_work,
    "qsim.partial_trace": _partial_trace_work,
    "qsim.DensityMatrix.init": _density_matrix_work,
    "qsim.orthonormal_extension": _orthonormal_extension_work,
}
WORK_KEYS = (
    "qsim.apply_unitary.flops", "qsim.apply_unitary.bytes",
    "qsim.project.flops", "qsim.project.bytes",
    "qsim.partial_trace.flops", "qsim.DensityMatrix.init.eig_flops",
    "qsim.orthonormal_extension.flops",
)


class Tracer:
    """Span recorder; install once, then read per-pass aggregates."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.stack: list[int] = []
        self.work: Counter = Counter()
        self.request = -1

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        work, count = self.work, WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                for key, value in count(args, kwargs).items():
                    work[f"{name}.{key}"] += value
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, parent, self.request)

        return traced

    def install(self) -> None:
        """Wrap every target and rebind it in every wproto namespace."""
        modules = [importlib.import_module("wproto")]
        modules += [importlib.import_module(f"wproto.{layer}") for layer in LAYERS]
        for layer, targets in TARGETS.items():
            home = importlib.import_module(f"wproto.{layer}")
            for target in targets:
                name = f"{layer}.{target}"
                if target.endswith(".init"):
                    cls = getattr(home, target[: -len(".init")])
                    cls.__init__ = self._wrap(name, cls.__init__)
                    continue
                original = getattr(home, target)
                wrapped = self._wrap(name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapped)

    def take_pass(self) -> tuple[list, dict]:
        """Return this pass's spans and aggregates, then start a new pass.

        Aggregates: ``<fn>.self_s``, ``<fn>.calls``, the computed work
        counters and ``<layer>.self_s``.
        """
        spans = list(self.spans)
        self.spans.clear()
        if self.stack:
            raise RuntimeError("take_pass called inside an open span")
        child = [0.0] * len(spans)
        for nid, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: Counter = Counter()
        calls: Counter = Counter()
        for (nid, start, end, _, _), inner in zip(spans, child):
            self_s[nid] += (end - start) - inner
            calls[nid] += 1
        agg: dict = {}
        for nid, name in enumerate(self.names):
            agg[f"{name}.self_s"] = self_s[nid]
            agg[f"{name}.calls"] = calls[nid]
        for layer in LAYERS:
            agg[f"{layer}.self_s"] = sum(
                s for nid, s in self_s.items() if self.names[nid].startswith(layer + ".")
            )
        for key in WORK_KEYS:
            agg[key] = self.work[key]
        self.work.clear()
        return spans, agg
