"""Span tracer installed from outside the library.

``Tracer.install`` rebinds every public function of each ``qumodelab``
module, in every ``qumodelab`` namespace that holds it, to a wrapper that
records a span; it does the same for a few ``Operator`` and ``Spectrum``
methods and for the numpy entry points the library leans on. No library
file changes. Spans live in memory as ``[name, start, end, parent, job]``
rows and are written out once the run ends; per-layer metrics come from them
and from counts taken at the same wrappers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
from collections import defaultdict
from time import perf_counter

import numpy as np
import numpy.linalg

LAYERS = ("cli", "fock", "gates", "vibronic", "sbm", "kerrcat", "graphs", "qpe", "spectrum")

# Per-layer metrics, in the order printed, with their units. Metrics of a
# layer a workload never enters read 0.
PER_LAYER = {
    "cli.validate_config.self_s": "s",
    "cli.run.self_s": "s",
    "cli.output_bytes": "B",
    "spectrum.write_csv.self_s": "s",
    "fock.embed_single_mode.calls": "count",
    "fock.embed_single_mode.self_s": "s",
    "fock.Operator.constructions": "count",
    "fock.Operator.bytes_computed": "B",
    "fock.Operator.matmul.calls": "count",
    "fock.Operator.matmul.self_s": "s",
    "fock.Operator.matmul.flops_computed": "flop",
    "fock.Operator.apply.self_s": "s",
    "numpy.kron.calls": "count",
    "numpy.kron.bytes_computed": "B",
    "gates.gate_matrix.calls": "count",
    "gates.gate_matrix.self_s": "s",
    "gates.beamsplitter_action.calls": "count",
    "gates.beamsplitter_action.self_s": "s",
    "gates.compose_circuit.self_s": "s",
    "gates.apply_circuit.self_s": "s",
    "gates.top_level_population.self_s": "s",
    "gates.leak_warnings": "count",
    "gates.register_dim_max": "basis_states",
    "vibronic.doktorov_operator.self_s": "s",
    "vibronic.fcf_table.self_s": "s",
    "vibronic.stick_spectrum.self_s": "s",
    "vibronic.row_use_frac": "ratio",
    "sbm.map_hamiltonian.self_s": "s",
    "sbm.sbm_projector.calls": "count",
    "sbm.sbm_evolve.self_s": "s",
    "kerrcat.excitation_sweep.self_s": "s",
    "kerrcat.parity_split.self_s": "s",
    "kerrcat.kerrcat_hamiltonian.self_s": "s",
    "kerrcat.metapotential_dos.self_s": "s",
    "kerrcat.doublewell_hamiltonian.self_s": "s",
    "graphs.hafnian.calls": "count",
    "graphs.hafnian.self_s": "s",
    "graphs.perfect_matching_count.calls": "count",
    "graphs.perfect_matching_count.self_s": "s",
    "graphs.pairings_enumerated": "count",
    "graphs.matching_yield": "ratio",
    "qpe.qpe_circuit.self_s": "s",
    "qpe.run_qpe.self_s": "s",
    "qpe.sample_readout.self_s": "s",
    "qpe.register_dim_max": "basis_states",
    "qpe.column_use_frac": "ratio",
    "linalg.eigh.calls": "count",
    "linalg.eigh.self_s": "s",
    "linalg.eigh.n3_sum": "count",
    "linalg.eigvalsh.calls": "count",
    "linalg.eigvalsh.self_s": "s",
    "linalg.eigvalsh.n3_sum": "count",
    "linalg.matrix_power.calls": "count",
    "trace.overhead_frac": "ratio",
}


def _arg(args, kwargs, i: int, name: str):
    return args[i] if len(args) > i else kwargs[name]


class Tracer:
    """Spans and counters of one traced run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.job = -1
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.job])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = perf_counter()

    def _wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return traced

    # -- installation -------------------------------------------------------

    def _rebind(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        import qumodelab
        from qumodelab.fock import Operator
        from qumodelab.spectrum import Spectrum

        modules = {name: importlib.import_module(f"qumodelab.{name}") for name in LAYERS}
        namespaces = [qumodelab, *modules.values()]
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn, _COUNTERS.get(f"{layer}.{attr}"))
                for ns in namespaces:
                    if ns.__dict__.get(attr) is fn:
                        self._rebind(ns, attr, wrapper)

        self._rebind(Operator, "__matmul__", self._wrap("fock.Operator.matmul", Operator.__matmul__, _count_matmul))
        self._rebind(Operator, "apply", self._wrap("fock.Operator.apply", Operator.apply))
        self._rebind(Spectrum, "write_csv", self._wrap("spectrum.write_csv", Spectrum.write_csv))
        post_init = Operator.__post_init__
        counts = self.counts

        def counted_post_init(op) -> None:
            post_init(op)
            counts["fock.Operator.constructions"] += 1
            counts["fock.Operator.bytes_computed"] += op.entries.nbytes

        self._rebind(Operator, "__post_init__", counted_post_init)

        self._rebind(np, "kron", self._wrap("numpy.kron", np.kron, _count_kron))
        for attr in ("eigh", "eigvalsh"):
            fn = numpy.linalg.__dict__[attr]
            self._rebind(numpy.linalg, attr, self._wrap(f"linalg.{attr}", fn, _count_n3(f"linalg.{attr}")))
        self._rebind(numpy.linalg, "matrix_power", self._wrap("linalg.matrix_power", numpy.linalg.matrix_power))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- reduction ----------------------------------------------------------

    def summary(self) -> tuple[dict[str, float], dict[str, dict[str, float]]]:
        """Per-layer metrics, and linalg self time split by the calling span."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        by_caller: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            own = end - start - child[i]
            calls[name] += 1
            self_s[name] += own
            if name.startswith("linalg."):
                caller = self.spans[parent][0] if parent >= 0 else "(benchmark)"
                by_caller[name][caller] += own
        c = self.counts
        derived = {
            "vibronic.row_use_frac": _ratio(c["vibronic.entries_read"], c["vibronic.entries_computed"]),
            "graphs.matching_yield": _ratio(c["graphs.matchings_found"], c["graphs.pairings_enumerated"]),
            "qpe.column_use_frac": _ratio(c["qpe.columns_used"], c["qpe.columns_computed"]),
        }
        out = {}
        for metric in PER_LAYER:
            base, _, leaf = metric.rpartition(".")
            if leaf == "calls":
                out[metric] = calls.get(base, 0.0)
            elif leaf == "self_s":
                out[metric] = self_s.get(base, 0.0)
            elif metric in derived:
                out[metric] = derived[metric]
            else:
                out[metric] = c.get(metric, 0.0)
        return out, {k: dict(v) for k, v in by_caller.items()}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _count_matmul(c, args, kwargs, result) -> None:
    d = result.entries.shape[0]
    c["fock.Operator.matmul.flops_computed"] += 8.0 * d**3


def _count_kron(c, args, kwargs, result) -> None:
    c["numpy.kron.bytes_computed"] += result.nbytes


def _count_n3(name: str):
    def count(c, args, kwargs, result) -> None:
        c[f"{name}.n3_sum"] += float(np.shape(_arg(args, kwargs, 0, "a"))[-1]) ** 3

    return count


def _count_register(key: str, index: int, name: str):
    def count(c, args, kwargs, result) -> None:
        c[key] = max(c[key], _arg(args, kwargs, index, name).dim)

    return count


def _count_fcf(c, args, kwargs, result) -> None:
    U = _arg(args, kwargs, 0, "U")
    c["vibronic.entries_read"] += result.size
    c["vibronic.entries_computed"] += U.dim**2


def _count_matchings(c, args, kwargs, result) -> None:
    n = np.shape(_arg(args, kwargs, 0, "A"))[0]
    if n % 2 == 0:
        c["graphs.pairings_enumerated"] += math.prod(range(n - 1, 0, -2))
    c["graphs.matchings_found"] += result


def _count_qpe(c, args, kwargs, result) -> None:
    spec = _arg(args, kwargs, 0, "spec")
    dim = spec.d ** (spec.t + 1)
    c["qpe.register_dim_max"] = max(c["qpe.register_dim_max"], dim)
    c["qpe.columns_used"] += spec.d
    c["qpe.columns_computed"] += dim


_COUNTERS = {
    "gates.gate_matrix": _count_register("gates.register_dim_max", 1, "reg"),
    "gates.apply_circuit": _count_register("gates.register_dim_max", 1, "reg"),
    "vibronic.fcf_table": _count_fcf,
    "graphs.perfect_matching_count": _count_matchings,
    "qpe.qpe_circuit": _count_qpe,
}
