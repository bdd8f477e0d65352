"""Per-layer tracing of csvortex from outside the package.

``Tracer`` patches the names each csvortex module looks up at call time --
module functions, operator methods, and names that ``from .fields import ...``
bound into ``plane``/``torus``/``cli`` -- with wrappers that record a span
(name, parent span, start, end) and the layer's counters.  Patches are applied
only inside ``Tracer.operation()`` and are undone on exit, so an untraced
operation runs the unmodified program.

Self time of a span is its duration minus the durations of its direct child
spans; per-layer seconds are summed self times.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict
from contextlib import contextmanager

import csvortex.cli as cli
import csvortex.diagnostics as diagnostics
import csvortex.fields as fields
import csvortex.minimize as minimize
import csvortex.plane as plane
import csvortex.torus as torus

_HEADER_BYTES = 16  # fields._HEADER.size

# Per-layer metrics in the order they are printed: (name, unit).
SPAN_LAYERS = (
    "fields.dst", "fields.fft_laplacian", "fields.dirichlet", "fields.box_stencil",
    "fields.write", "fields.read", "fields.csv",
    "background.plane", "background.torus",
    "minimize.lbfgs", "minimize.newton",
    "plane.fun_grad", "plane.grad", "plane.hess_vec", "plane.precond",
    "torus.energy", "torus.gradient", "torus.hess_vec", "torus.precond",
    "torus.reduced.fun_grad", "torus.reduced.hess_vec",
    "torus.state_integrals", "torus.c_root", "torus.feasible",
    "diagnostics.quantized", "diagnostics.decay_fit", "diagnostics.max_principle",
    "config.load", "cli.solve_plane", "cli.verify", "cli.decay_fit",
)
_NO_CALLS = {"fields.write", "fields.read", "fields.csv", "background.plane",
             "background.torus", "minimize.lbfgs", "minimize.newton",
             "diagnostics.quantized", "diagnostics.decay_fit",
             "diagnostics.max_principle", "config.load", "cli.solve_plane",
             "cli.verify", "cli.decay_fit"}
_NO_SECONDS = {"torus.feasible"}
COUNTERS = (
    ("fields.dst.mb_computed", "MB"),
    ("fields.write.bytes", "B"), ("fields.read.bytes", "B"), ("fields.csv.bytes", "B"),
    ("minimize.lbfgs.iters", "count"), ("minimize.lbfgs.evals", "count"),
    ("minimize.newton.iters", "count"),
    ("minimize.minres.calls", "count"), ("minimize.minres.iters", "count"),
    ("minimize.minres.capped", "count"),
    ("torus.feasible.rejected", "count"),
)


def per_layer_metrics():
    """Every per-layer metric the traced run reports, as (name, unit) pairs."""
    out = []
    for layer in SPAN_LAYERS:
        if layer not in _NO_CALLS:
            out.append((layer + ".calls", "count"))
        if layer not in _NO_SECONDS:
            out.append((layer + ".s", "s"))
    out.extend(COUNTERS)
    out += [
        ("minimize.lbfgs.evals_per_iter", "ratio"),
        ("torus.feasible.reject_frac", "ratio"),
        ("op.unattributed.s", "s"),
        ("trace.spans", "count"),
        ("untraced.solve_s", "s"),
        ("trace.solve_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.overhead_frac", "ratio"),
    ]
    return out


def _kind_name(torus_name, box_name, domain_pos):
    def name(args, kwargs):
        return torus_name if args[domain_pos].kind == "torus" else box_name
    return name


class Tracer:
    """Collects spans and counters for one traced operation at a time."""

    def __init__(self):
        self.spans = []   # (name, parent index, t0, t1); parent -1 for the root
        self.stack = []
        self.counts = defaultdict(float)

    # -- recording ---------------------------------------------------------
    def _wrap(self, name, fn, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (label, parent, t0, t1)
            if after is not None:
                after(args, kwargs, out)
            return out

        return wrapper

    @contextmanager
    def operation(self):
        """Root span around one timed operation; resets earlier records."""
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()
        root = self._wrap("op", lambda fn: fn())
        with self.installed():
            yield root

    def summary(self):
        """Per-layer calls and self seconds plus the counters of the last operation."""
        n = len(self.spans)
        child = [0.0] * n
        for label, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for i, (label, parent, t0, t1) in enumerate(self.spans):
            calls[label] += 1
            self_s[label] += (t1 - t0) - child[i]
        out = {}
        for layer in SPAN_LAYERS:
            if layer not in _NO_CALLS:
                out[layer + ".calls"] = float(calls[layer])
            if layer not in _NO_SECONDS:
                out[layer + ".s"] = self_s[layer]
        for key, _ in COUNTERS:
            out[key] = float(self.counts[key])
        out["op.unattributed.s"] = self_s["op"]
        out["trace.spans"] = float(n)
        return out

    # -- the patches ---------------------------------------------------------
    def _patches(self):
        w, c = self._wrap, self.counts

        def add(key, amount=1.0):
            c[key] += amount

        def dst_bytes(args, kwargs, out):
            # forward and inverse sine transform, each reads and writes the array
            add("fields.dst.mb_computed", 4.0 * args[0].nbytes / 1e6)

        def lbfgs(fn):
            def run(fun_grad, x0, *args, **kwargs):
                def counted(x):
                    add("minimize.lbfgs.evals")
                    return fun_grad(x)
                res = fn(counted, x0, *args, **kwargs)
                add("minimize.lbfgs.iters", res.iterations)
                return res
            return w("minimize.lbfgs", run)

        def newton(fn):
            return w("minimize.newton", fn,
                     lambda a, k, res: add("minimize.newton.iters", res.iterations))

        def counted_minres(fn):
            def run(A, b, *args, callback=None, **kwargs):
                def step(xk):
                    add("minimize.minres.iters")
                    if callback is not None:
                        callback(xk)
                x, info = fn(A, b, *args, callback=step, **kwargs)
                add("minimize.minres.calls")
                if info > 0:
                    add("minimize.minres.capped")
                return x, info
            return run

        def feasible(args, kwargs, ok):
            if not ok:
                add("torus.feasible.rejected")

        box_or_fft = _kind_name("fields.fft_laplacian", "fields.box_stencil", 1)
        box_or_dir = _kind_name("fields.dirichlet", "fields.box_stencil", 2)

        def written(args, kwargs, out):
            add("fields.write.bytes", _HEADER_BYTES + args[1].values.nbytes)

        def read(args, kwargs, out):
            add("fields.read.bytes", _HEADER_BYTES + out.values.nbytes)

        def csv_bytes(args, kwargs, out):
            add("fields.csv.bytes", os.path.getsize(args[0]))

        return [
            # fields kernels, patched where each module looks them up
            (fields, "box_shifted_inverse", lambda f: w("fields.dst", f, dst_bytes)),
            (plane, "box_shifted_inverse", lambda f: w("fields.dst", f, dst_bytes)),
            (fields, "box_laplacian_ring", lambda f: w("fields.box_stencil", f)),
            (plane, "box_laplacian_ring", lambda f: w("fields.box_stencil", f)),
            (plane, "box_dirichlet_ring", lambda f: w("fields.box_stencil", f)),
            (plane, "laplacian_values", lambda f: w(box_or_fft, f)),
            (torus, "laplacian_values", lambda f: w(box_or_fft, f)),
            (torus, "dirichlet_inner_values", lambda f: w(box_or_dir, f)),
            (cli, "write_field", lambda f: w("fields.write", f, written)),
            (cli, "read_field", lambda f: w("fields.read", f, read)),
            (cli, "write_csv", lambda f: w("fields.csv", f, csv_bytes)),
            # background
            (plane, "plane_background", lambda f: w("background.plane", f)),
            (cli, "plane_background", lambda f: w("background.plane", f)),
            (torus, "torus_background", lambda f: w("background.torus", f)),
            (cli, "torus_background", lambda f: w("background.torus", f)),
            # minimize
            (plane, "minimize_lbfgs", lbfgs),
            (torus, "minimize_lbfgs", lbfgs),
            (plane, "newton_polish", newton),
            (torus, "newton_polish", newton),
            (minimize, "minres", counted_minres),
            # plane operator
            (plane.PlaneOperator, "fun_grad_flat", lambda f: w("plane.fun_grad", f)),
            (plane.PlaneOperator, "grad_flat", lambda f: w("plane.grad", f)),
            (plane.PlaneOperator, "hess_vec_flat", lambda f: w("plane.hess_vec", f)),
            (plane.PlaneOperator, "precond_flat", lambda f: w("plane.precond", f)),
            # torus operator, reduced functional and constraint algebra
            (torus.TorusOperator, "energy", lambda f: w("torus.energy", f)),
            (torus.TorusOperator, "gradient", lambda f: w("torus.gradient", f)),
            (torus.TorusOperator, "hess_vec", lambda f: w("torus.hess_vec", f)),
            (torus.TorusOperator, "precond_flat", lambda f: w("torus.precond", f)),
            (torus._BranchReduced, "fun_grad", lambda f: w("torus.reduced.fun_grad", f)),
            (torus._BranchReduced, "hess_vec", lambda f: w("torus.reduced.hess_vec", f)),
            (torus._BranchReduced, "feasible", lambda f: w("torus.feasible", f, feasible)),
            (torus, "state_integrals", lambda f: w("torus.state_integrals", f)),
            (torus, "_solve_c_branch", lambda f: w("torus.c_root", f)),
            # diagnostics (the CLI calls them through the module attribute)
            (diagnostics, "quantized_integrals_plane", lambda f: w("diagnostics.quantized", f)),
            (diagnostics, "quantized_integrals_torus", lambda f: w("diagnostics.quantized", f)),
            (diagnostics, "decay_fit", lambda f: w("diagnostics.decay_fit", f)),
            (diagnostics, "max_principle_check", lambda f: w("diagnostics.max_principle", f)),
            # config and CLI subcommands
            (cli, "load_config", lambda f: w("config.load", f)),
            (cli, "cmd_solve_plane", lambda f: w("cli.solve_plane", f)),
            (cli, "cmd_verify", lambda f: w("cli.verify", f)),
            (cli, "cmd_decay_fit", lambda f: w("cli.decay_fit", f)),
        ]

    @contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, make in self._patches():
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, make(original))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
