"""Outside-in tracing: spans around fracsmc's public functions.

Each layer function is wrapped from here by rebinding its name in every
fracsmc module that holds it (the defining module, and each module that
imported it by name), so calls through `walks.poisson_walks` and through
`poisson.poisson_walks` are both seen.  Nothing under src/ changes.  A
name that no longer exists is reported as an absent layer rather than an
error, and the untraced run never imports this module.

A span records (id, parent id, operation id, name, start ns, end ns, work).
Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np


def size_of(args, kwargs, result):
    first = args[0] if args else next(iter(kwargs.values()))
    return (int(np.size(first)),)


def _batch(args, kwargs, result):
    # WalkBatch: paths simulated, and path steps taken (the jumps made)
    return (len(result.scores), int(result.steps.sum()))


# (span name, module, attribute, work counter); attribute may be Class.method
CALL_LAYERS = (
    ("walks.kernel", "fracsmc.walks", "poisson_walks", _batch),
    ("walks.kernel", "fracsmc.walks", "parabolic_walks", _batch),
    ("walks.jump", "fracsmc.walks", "sample_jump_scaled", size_of),
    ("rng.generator", "fracsmc.rng", "RngStream.generator", None),
    ("basis.interpolate", "fracsmc.basis", "interpolate", None),
    ("basis.interpolate", "fracsmc.basis", "st_interpolate", None),
    ("basis.eval", "fracsmc.basis", "eval_interpolant", None),
    ("basis.eval", "fracsmc.basis", "eval_st_interpolant", None),
    ("specfun.jacobi_eval_all", "fracsmc.specfun", "jacobi_eval_all", None),
    ("specfun.legendre", "fracsmc.specfun", "shifted_legendre_eval", None),
    ("poisson", "fracsmc.poisson", "smc_solve", None),
    ("parabolic", "fracsmc.parabolic", "stsmc_solve", None),
    ("oracles.frac_laplacian", "fracsmc.oracles", "frac_laplacian_direct", None),
    ("oracles.euler_exit", "fracsmc.oracles", "euler_stable_exit", None),
    ("oracles.cms", "fracsmc.oracles", "sample_symmetric_stable", None),
    ("oracles.jump_law_ks", "fracsmc.oracles", "jump_law_ks", None),
)

# factories whose returned callable is the layer: the residual source
FACTORY_LAYERS = (
    ("basis.residual", "fracsmc.poisson", "residual_source", size_of),
    ("basis.residual", "fracsmc.parabolic", "st_residual_source", size_of),
)


class Tracer:
    """Collects spans in memory; one stack, as solves run at n_threads = 1."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack = [0]
        self._next_id = 1
        self.op = 0
        self.absent: list[str] = []
        self._restore: list[tuple] = []
        self._installed: dict = {}

    def wrap(self, name, fn, work=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
            w = work(args, kwargs, result) if work is not None else ()
            spans.append((sid, parent, self.op, name, t0, t1, w))
            return result

        return traced

    def run_op(self, op_id, fn, *args):
        """Run one operation under a root span named bench.op."""
        self.op = op_id
        return self.wrap("bench.op", fn)(*args)

    # -- installation ------------------------------------------------------

    def _rebind(self, modname, attr, orig, replacement):
        """Put `replacement` wherever fracsmc binds `orig`, remembering the old binding."""
        self._installed[orig] = replacement
        *path, last = attr.split(".")
        owner = sys.modules.get(modname)
        for part in path:
            owner = getattr(owner, part)
        if path:  # a method: rebind it on its class
            self._restore.append((owner, last, orig))
            setattr(owner, last, replacement)
        for mname, mod in list(sys.modules.items()):
            if mname != "fracsmc" and not mname.startswith("fracsmc."):
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    self._restore.append((mod, key, orig))
                    setattr(mod, key, replacement)

    @staticmethod
    def _lookup(modname, attr):
        obj = sys.modules.get(modname)
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        return obj

    def install(self):
        """Wrap every layer that exists; record the ones that do not."""
        layers = [(spec, False) for spec in CALL_LAYERS]
        layers += [(spec, True) for spec in FACTORY_LAYERS]
        for (name, modname, attr, work), factory in layers:
            orig = self._lookup(modname, attr)
            if not callable(orig):
                self.absent.append(f"{modname}.{attr}")
            elif factory:
                self._rebind(modname, attr, orig, self._wrap_result(name, orig, work))
            else:
                self._rebind(modname, attr, orig, self.wrap(name, orig, work))

    def _wrap_result(self, name, factory, work):
        """Wrap `factory` so that each callable it returns is traced as `name`."""

        @functools.wraps(factory)
        def make(*args, **kwargs):
            return self.wrap(name, factory(*args, **kwargs), work)

        return make

    def installed(self, fn):
        """The wrapper installed in place of `fn`, or `fn` if it is no layer."""
        return self._installed.get(fn, fn)

    def uninstall(self):
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()
        self._installed.clear()

    # -- aggregation -------------------------------------------------------

    def layers(self):
        """Per layer: calls, total and self seconds, summed work.

        `basis.eval` spans directly under a solver span are the reference
        probe and are reported as `basis.probe`.  `walks.jump/kernel` sums
        (path steps, draws) over the kernel calls that drew jumps, so its
        ratio is the share of draws that became path steps.
        """
        child_ns = defaultdict(int)
        draws_in = defaultdict(int)
        names = {}
        for sid, parent, _op, name, t0, t1, w in self.spans:
            child_ns[parent] += t1 - t0
            names[sid] = name
            if name == "walks.jump":
                draws_in[parent] += w[0]
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": ()})

        def add(key, dur, self_ns, w):
            agg = out[key]
            agg["calls"] += 1
            agg["total_s"] += dur * 1e-9
            agg["self_s"] += self_ns * 1e-9
            if w:
                old = agg["work"] or (0,) * len(w)
                agg["work"] = tuple(a + b for a, b in zip(old, w))

        for sid, parent, _op, name, t0, t1, w in self.spans:
            if name == "basis.eval" and names.get(parent) in ("poisson", "parabolic"):
                name = "basis.probe"
            add(name, t1 - t0, t1 - t0 - child_ns[sid], w)
            if name == "walks.kernel" and draws_in[sid]:
                add("walks.jump/kernel", 0, 0, (w[1], draws_in[sid]))
        return out
