"""Spans and counters recorded from outside the package, at its module seams.

`gatedqdot` calls its layers through module attributes: `cli` calls the
names it imports, `chains.certify` calls `chains.coupling_path` and
friends, `dynamics.propagate_nonlinear` calls `dynamics.hartree_field`.
Replacing those attributes with wrappers records one span per call
(name, start, end, parent, op id) without touching the package source.
Counts come from call arguments and return values only.

A seam a later refactor removes is reported, and every per-layer metric
that depends on it is reported missing rather than zero.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
from collections import defaultdict

from gatedqdot.errors import QuadraturePrecisionError

# (module, attribute) pairs wrapped in the traced run
SEAMS = (
    ("gatedqdot.cli", "load_config"),
    ("gatedqdot.cli", "enumerate_modes"),
    ("gatedqdot.cli", "check_simplicity"),
    ("gatedqdot.cli", "solve_full_gate"),
    ("gatedqdot.cli", "solve_partial_gate_fd"),
    ("gatedqdot.cli", "gate_convergence_sweep"),
    ("gatedqdot.cli", "assemble_coupling_matrix"),
    ("gatedqdot.cli", "shifted_spectrum"),
    ("gatedqdot.cli", "check_weak_nonresonance"),
    ("gatedqdot.cli", "eigenvalue_shape_derivative"),
    ("gatedqdot.cli", "build_graph"),
    ("gatedqdot.cli", "check_connected"),
    ("gatedqdot.cli", "coupling_path"),
    ("gatedqdot.cli", "spanning_chain"),
    ("gatedqdot.cli", "certify"),
    ("gatedqdot.cli", "synthesize_chain_transfer"),
    ("gatedqdot.cli", "galerkin_mode_state"),
    ("gatedqdot.cli", "propagate_bilinear"),
    ("gatedqdot.cli", "transfer_fidelity"),
    ("gatedqdot.cli", "grid_mode_state"),
    ("gatedqdot.cli", "alpha_scaling_study"),
    ("gatedqdot.cli", "propagate_nonlinear"),
    ("gatedqdot.chains", "build_graph"),
    ("gatedqdot.chains", "check_connected"),
    ("gatedqdot.chains", "coupling_path"),
    ("gatedqdot.chains", "spanning_chain"),
    ("gatedqdot.chains", "certify_nonresonant_chain"),
    ("gatedqdot.dynamics", "hartree_field"),
    ("gatedqdot.dynamics", "propagate_nonlinear"),
    ("gatedqdot.poisson", "solve_partial_gate_fd"),
)

# seams whose returned fields the output checks need, in untraced runs too
FD_SEAMS = (("gatedqdot.cli", "solve_partial_gate_fd"), ("gatedqdot.poisson", "solve_partial_gate_fd"))


def span_name(fn) -> str:
    return f"{fn.__module__.removeprefix('gatedqdot.')}.{fn.__qualname__}"


def _strang_steps(args, kwargs):
    control = args[1] if len(args) > 1 else kwargs["control"]
    cfg = args[2] if len(args) > 2 else kwargs["config"]
    return sum(max(1, math.ceil(dur / cfg.dt - 1e-12)) for dur, _ in control.samples)


def _observe(name, args, kwargs, result, exc, counts):
    """Counters taken from one call's arguments and return value."""
    if name == "coupling.assemble_coupling_matrix":
        if exc is not None:
            if isinstance(exc, QuadraturePrecisionError):
                counts["coupling.quadrature_failures"] += 1
            return
        counts[name + ".stored"] += len(result.entries)
        counts[name + ".dropped"] += result.dropped
    elif exc is not None:
        return
    elif name == "chains.certify_nonresonant_chain":
        edges = args[2] if len(args) > 2 else kwargs["chain_edges"]
        counts[name + ".pairs"] += len({(min(a, b), max(a, b)) for a, b in edges})
    elif name == "spectral.check_weak_nonresonance":
        counts[name + ".violations"] += len(result)
    elif name == "dynamics.synthesize_chain_transfer":
        counts[name + ".samples"] += len(result.samples)
        counts[name + ".distinct_controls"] += len({u for _, u in result.samples})
    elif name == "dynamics.propagate_nonlinear":
        counts["dynamics.strang_steps"] += _strang_steps(args, kwargs)


class Seams:
    """Installs wrappers on module attributes and restores them on close."""

    def __init__(self):
        self._saved = []
        self.missing = []

    def wrap(self, seams, make_wrapper):
        for module_name, attr in seams:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, make_wrapper(fn))

    def close(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()


def capture_results(sink: list):
    """Wrapper factory appending every return value to `sink`."""

    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            sink.append(result)
            return result

        return wrapper

    return make


class Tracer:
    """In-memory spans; `op` is set by the caller before each op."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, op id]
        self.counts = defaultdict(float)
        self.produced = set()  # span names some installed seam can emit
        self.op = None
        self._stack = []

    def open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def make_wrapper(self, fn):
        name = span_name(fn)
        self.produced.add(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.close()
                _observe(name, args, kwargs, None, exc, self.counts)
                raise
            self.close()
            _observe(name, args, kwargs, result, None, self.counts)
            return result

        return wrapper

    def totals(self):
        """Per span name: [calls, inclusive seconds, self seconds]; zeros if never seen."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, start, end, _, _) in enumerate(self.spans):
            entry = out[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child[i]
        return out


# spans reported by self time; by call count; counters -> the span they need
_SELF = (
    "chains.coupling_path", "chains.certify_nonresonant_chain", "chains.build_graph",
    "chains.certify", "coupling.assemble_coupling_matrix", "spectral.enumerate_modes",
    "spectral.shifted_spectrum", "spectral.check_weak_nonresonance",
    "dynamics.propagate_bilinear", "dynamics.propagate_nonlinear", "poisson.hartree_field",
    "poisson.solve_partial_gate_fd", "config.load_config", "cli.run",
)
_CALLS = ("chains.coupling_path", "poisson.hartree_field", "poisson.solve_partial_gate_fd")
_COUNTS = {
    "chains.certify_nonresonant_chain.pairs": "chains.certify_nonresonant_chain",
    "coupling.assemble_coupling_matrix.stored": "coupling.assemble_coupling_matrix",
    "coupling.assemble_coupling_matrix.dropped": "coupling.assemble_coupling_matrix",
    "coupling.quadrature_failures": "coupling.assemble_coupling_matrix",
    "spectral.check_weak_nonresonance.violations": "spectral.check_weak_nonresonance",
    "dynamics.synthesize_chain_transfer.samples": "dynamics.synthesize_chain_transfer",
    "dynamics.synthesize_chain_transfer.distinct_controls": "dynamics.synthesize_chain_transfer",
    "dynamics.strang_steps": "dynamics.propagate_nonlinear",
}


def layer_metrics(tracer: Tracer, ops: int, artifact_bytes: float, overhead_s: float):
    """Per-layer metrics over the traced ops, and the names that are missing.

    Self times and counts are means per traced op.
    """
    totals = tracer.totals()
    have = tracer.produced | {"cli.run"}
    metrics, missing = {}, []

    def put(name, needs, value, unit):
        if needs in have:
            metrics[name] = {"value": value, "unit": unit}
        else:
            missing.append(name)

    for name in _SELF:
        put(f"{name}.self_s", name, totals[name][2] / ops, "s/op")
    for name in _CALLS:
        put(f"{name}.calls", name, totals[name][0] / ops, "count/op")
    for name, needs in _COUNTS.items():
        put(name, needs, tracer.counts[name] / ops, "count/op")
    samples = tracer.counts["dynamics.synthesize_chain_transfer.samples"]
    distinct = tracer.counts["dynamics.synthesize_chain_transfer.distinct_controls"]
    put("dynamics.bilinear.eigh_reuse", "dynamics.synthesize_chain_transfer",
        1.0 - distinct / samples if samples else 0.0, "ratio")
    nl_seconds = totals["dynamics.propagate_nonlinear"][1]
    put("dynamics.strang_steps_per_s", "dynamics.propagate_nonlinear",
        tracer.counts["dynamics.strang_steps"] / nl_seconds if nl_seconds else 0.0, "1/s")
    metrics["cli.artifact_bytes"] = {"value": artifact_bytes, "unit": "bytes/op"}
    metrics["trace.overhead_s"] = {"value": overhead_s, "unit": "s"}
    return metrics, missing
