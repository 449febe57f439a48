"""Spans around calls into stepbcd's public functions, and the per-module metrics.

``Tracer`` installs a ``sys.setprofile`` hook that opens a span when a
function named in the ``__all__`` of a traced module starts, and closes it
when that call returns, normally or by an exception.  The hook only reads
frames; the library is neither edited nor patched.  Each span keeps its
parent, so a span's self time is its duration minus its children's.

Operation counts are *computed* from argument shapes, never measured:
``computed_flops`` counts 2*m*k*n per (m x k)(k x n) matrix product the
function itself writes out, and ``computed_bytes`` counts 8*(mk + kn + mn)
for the same products (each operand read once, the result written once).
Children report their own products.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
import types
from collections import defaultdict

import numpy as np

TRACED_MODULES = ("core", "prox", "solvers", "trainer", "dataio", "metrics")
# Every workload's network has three weight layers.
WEIGHT_LAYERS = 3


def _per_layer_spec():
    spec = []

    def add(name, unit, better="lower"):
        spec.append((name, unit, better))

    def work(fn):
        add(f"{fn}.computed_flops", "flop")
        add(f"{fn}.computed_bytes", "B")

    add("core.forward_blocks.s", "s")
    add("core.forward_blocks.calls", "count")
    work("core.forward_blocks")
    add("core.init_gaussian.s", "s")
    add("prox.prox_hardmax_matrix.s", "s")
    add("prox.prox_hardmax_matrix.bump_frac", "fraction")
    for i in range(WEIGHT_LAYERS - 1):
        add(f"prox.prox_step_matrix.s.layer{i}", "s")
    add("prox.prox_step_matrix.changed_frac", "fraction")
    add("prox.prox_l20_rows.s", "s")
    add("prox.prox_l20_rows.zeroed_rows", "count")
    add("prox.step.s", "s")
    for i in range(WEIGHT_LAYERS - 1):
        add(f"solvers.solve_v.s.layer{i}", "s")
    work("solvers.solve_v")
    add("solvers.cg_solve.s", "s")
    add("solvers.cg_solve.iters", "count")
    work("solvers.cg_solve")
    for i in range(WEIGHT_LAYERS):
        add(f"solvers.pgm.s.layer{i}", "s")
    add("solvers.grad_psi.s", "s")
    add("solvers.grad_psi.calls", "count")
    work("solvers.grad_psi")
    add("solvers.spectral_norm.s", "s")
    add("solvers.spectral_norm.calls", "count")
    add("trainer.objective_f.s", "s")
    work("trainer.objective_f")
    add("trainer.bcd_iteration.self_s", "s")
    work("trainer.bcd_iteration")
    add("trainer.train.s", "s")
    add("trainer.train.self_s", "s")
    add("dataio.load_idx_images.s", "s")
    add("dataio.to_dataset.s", "s")
    add("dataio.save_checkpoint.s", "s")
    add("dataio.save_checkpoint.bytes", "B")
    add("dataio.load_checkpoint.s", "s")
    add("dataio.add_gaussian_noise.s", "s")
    add("metrics.evaluate.s", "s")
    add("metrics.forward_scores.s", "s")
    add("metrics.forward_scores.samples", "count")
    work("metrics.forward_scores")
    for module in TRACED_MODULES:
        add(f"{module}.self_s", "s")
    # The traced pass's train call against an untraced one in the same run.
    add("trace.train_s", "s")
    add("trace.untraced_train_s", "s")
    add("trace.overhead_s", "s")
    return tuple(spec)


# (name, unit, better) of every metric a traced run reports.
PER_LAYER = _per_layer_spec()


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "layer", "counts", "frame", "args", "last_v_layer")

    def __init__(self, span_id, parent, name, frame):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.frame = frame
        self.args = dict(frame.f_locals)  # at the call event, exactly the arguments
        self.layer = None
        self.counts = {}
        self.last_v_layer = None

    def record(self):
        return {"id": self.id, "parent": self.parent, "name": self.name, "start": self.start,
                "end": self.end, "layer": self.layer, "counts": self.counts}


def _matmul(m, k, n):
    return 2 * m * k * n, 8 * (m * k + k * n + m * n)


def _chain(w_list, n):
    """Products ``W_i @ (d_i x n)`` over a list of weight blocks."""
    flops = nbytes = 0
    for w in w_list:
        f, b = _matmul(w.shape[0], w.shape[1], n)
        flops += f
        nbytes += b
    return flops, nbytes


class Tracer:
    """Context manager recording one span per call into a traced public function."""

    def __init__(self, dims):
        self.code_names = {}
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"stepbcd.{short}")
            for name in mod.__all__:
                obj = getattr(mod, name)
                if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__:
                    self.code_names[obj.__code__] = f"{short}.{name}"
        self.layer_of_weight = {(dims[i + 1], dims[i]): i for i in range(len(dims) - 1)}
        self.spans = []
        self._stack = []

    def __enter__(self):
        sys.setprofile(self._hook)
        return self

    def __exit__(self, *exc):
        sys.setprofile(None)
        return False

    def _hook(self, frame, event, arg):
        if event == "call":
            name = self.code_names.get(frame.f_code)
            if name is not None:
                parent = self._stack[-1] if self._stack else None
                span = Span(len(self.spans), parent.id if parent else None, name, frame)
                self.spans.append(span)
                self._stack.append(span)
                span.start = time.perf_counter()
        elif event == "return" and self._stack and self._stack[-1].frame is frame:
            end = time.perf_counter()
            span = self._stack.pop()
            span.end = end
            span.frame = None
            # A call that raised returns None; it gets no counts.
            if arg is not None or span.name == "dataio.save_checkpoint":
                self._count(span, arg)
            span.args = None

    def _count(self, span, ret):
        a = span.args
        name = span.name
        c = span.counts
        if name in ("core.forward_blocks", "metrics.forward_scores"):
            n = a["x"].shape[1]
            c["computed_flops"], c["computed_bytes"] = _chain(a["w_list"], n)
            if name == "metrics.forward_scores":
                c["samples"] = n
        elif name in ("trainer.objective_f", "trainer.bcd_iteration"):
            # objective_f's coupling residuals and bcd_iteration's b targets
            # are both the products W_i V_(i-1), one per layer.
            c["computed_flops"], c["computed_bytes"] = _chain(a["state"].W, a["data"].X.shape[1])
        elif name == "solvers.grad_psi":
            n, k = a["v"].shape
            f1, b1 = _matmul(n, k, a["w"].shape[1])  # v @ w
            f2, b2 = _matmul(k, n, a["w"].shape[1])  # v.T @ (v @ w - u)
            c["computed_flops"], c["computed_bytes"] = f1 + f2, b1 + b2
        elif name == "solvers.solve_v":
            m, d = a["w_next"].shape
            f1, b1 = _matmul(d, m, d)  # w^T w
            f2, b2 = _matmul(d, m, a["u_next"].shape[1])  # w^T u_next
            c["computed_flops"], c["computed_bytes"] = f1 + f2, b1 + b2
            layer = self.layer_of_weight.get(a["w_next"].shape)
            span.layer = None if layer is None else layer - 1
            if self._stack:
                self._stack[-1].last_v_layer = span.layer
        elif name == "solvers.cg_solve":
            iters = int(ret[1])
            d, n = a["b"].shape
            f, b = _matmul(d, d, n)  # a @ x once, then a @ p per iteration
            c["iters"] = iters
            c["computed_flops"], c["computed_bytes"] = (1 + iters) * f, (1 + iters) * b
        elif name == "solvers.pgm":
            w0 = a["w0"]
            span.layer = self.layer_of_weight.get((w0.shape[1], w0.shape[0]))
        elif name == "prox.prox_hardmax_matrix":
            b = np.asarray(a["b"])
            c["bumped_cols"] = int(np.any(ret != b, axis=0).sum())
            c["cols"] = b.shape[1]
        elif name == "prox.prox_step_matrix":
            b = np.asarray(a["b"])
            c["changed"] = int((ret != b).sum())
            c["entries"] = b.size
            # U_i and U_(i+1) can share a shape, so the layer is that of
            # the state solve just before this call in the same sweep.
            if self._stack:
                span.layer = self._stack[-1].last_v_layer
        elif name == "prox.prox_l20_rows":
            h = np.asarray(a["h"])
            c["zeroed_rows"] = int((np.any(h != 0.0, axis=1) & ~np.any(ret != 0.0, axis=1)).sum())
        elif name == "dataio.save_checkpoint":
            path = a["path"]
            c["bytes"] = os.path.getsize(path) if os.path.exists(path) else 0


def summarize(spans):
    """Per-function and per-module metrics of one traced pass, keyed by PER_LAYER names."""
    child_time = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    out = defaultdict(float)
    for s in spans:
        duration = s.end - s.start
        self_time = duration - child_time[s.id]
        out[f"{s.name}.s"] += duration
        out[f"{s.name}.self_s"] += self_time
        out[f"{s.name}.calls"] += 1
        out[f"{s.name.split('.')[0]}.self_s"] += self_time
        if s.layer is not None:
            out[f"{s.name}.s.layer{s.layer}"] += duration
        for key, value in s.counts.items():
            out[f"{s.name}.{key}"] += value
    for fn, part, whole, ratio in (
        ("prox.prox_hardmax_matrix", "bumped_cols", "cols", "bump_frac"),
        ("prox.prox_step_matrix", "changed", "entries", "changed_frac"),
    ):
        total = out[f"{fn}.{whole}"]
        out[f"{fn}.{ratio}"] = out[f"{fn}.{part}"] / total if total else 0.0
    return {name: float(out.get(name, 0.0)) for name, _, _ in PER_LAYER if not name.startswith("trace.")}
