"""Per-layer tracing of liecurv from outside the package.

Every public function defined in a layer module is replaced by a wrapper
that records calls, inclusive time and self time (inclusive time minus the
time of nested wrapped calls, kept on a call stack).  Names bound with
``from .x import f`` are separate references to the same function object,
so every ``liecurv`` module namespace is scanned and each binding of a
wrapped function is rebound.  ``uninstall`` puts every original back.

A few functions carry counters that are gathered before or after the timed
call; the time spent gathering them is charged to nobody's self time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time

import numpy as np

LAYERS = ("linalg", "structure", "derivations", "curvature", "metric",
          "moment", "nice", "catalog", "cli")

# the structure-tensor argument of these is counted per distinct object
PER_TENSOR = {"structure.is_lie", "structure.killing_form", "structure.classify"}


class FunctionStats:
    __slots__ = ("calls", "incl_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.incl_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Wraps the layer functions of an imported liecurv package."""

    def __init__(self):
        self.stats: dict[str, FunctionStats] = {}
        self.counters: dict[str, float] = {}
        self.tensors: dict[str, dict[int, object]] = {}
        self._stack: list[list[float]] = [[0.0]]
        self._bindings: list[tuple[object, str, object]] = []
        self._paused = False

    # -- installation -----------------------------------------------------

    def install(self):
        if self._bindings:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"liecurv.{layer}")
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not name.startswith("_")
                        and fn.__module__ == mod.__name__):
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        for mod in _liecurv_modules():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._bindings.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self):
        for mod, attr, original in self._bindings:
            setattr(mod, attr, original)
        self._bindings.clear()
        for mod in _liecurv_modules():
            for value in vars(mod).values():
                if getattr(value, "__wrapped_by_tracer__", False):
                    raise RuntimeError(f"{mod.__name__} still holds a wrapper")

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside run untraced, e.g. the checks of an output."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- the wrapper ------------------------------------------------------

    def _wrap(self, qual: str, fn):
        stats = self.stats.setdefault(qual, FunctionStats())
        pre = _PRE_HOOKS.get(qual)
        post = _POST_HOOKS.get(qual)
        sig = inspect.signature(fn) if post else None
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            if pre is not None:
                h0 = clock()
                pre(self, args)
                stack[-1][0] += clock() - h0
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                stack[-1][0] += elapsed
                stats.calls += 1
                stats.incl_s += elapsed
                stats.self_s += elapsed - frame[0]
            if post is not None:
                h0 = clock()
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                post(self, bound.arguments, result)
                stack[-1][0] += clock() - h0
            return result

        wrapper.__wrapped_by_tracer__ = True
        if qual in PER_TENSOR:
            self.tensors[qual] = {}
        return wrapper

    def count(self, name: str, k: float = 1):
        self.counters[name] = self.counters.get(name, 0) + k

    # -- results ----------------------------------------------------------

    def function(self, qual: str) -> FunctionStats:
        return self.stats.get(qual) or FunctionStats()

    def layer_self_s(self, layer: str) -> float:
        return sum(s.self_s for q, s in self.stats.items()
                   if q.split(".", 1)[0] == layer)

    def calls_per_tensor(self, qual: str) -> float:
        seen = len(self.tensors.get(qual, ()))
        return self.function(qual).calls / seen if seen else 0.0


def _liecurv_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "liecurv" or name.startswith("liecurv."))]


def _tensor_arg(qual):
    def hook(tracer, args):
        if args:
            tracer.tensors[qual].setdefault(id(args[0]), args[0])
    return hook


def _rref_pre(tracer, args):
    M = args[0]
    cells = int(M.shape[0]) * int(M.shape[1]) if M.ndim == 2 else int(M.size)
    tracer.count("linalg.rref.cells", cells)
    tracer.count("linalg.rref.nnz", int(np.count_nonzero(M)))


def _search_post(tracer, arguments, results):
    n = arguments["a"].n
    patterns = 1 if arguments["sign_pattern"] is not None else 2 ** (n - 1)
    tracer.count("nice.search.restarts", arguments["restarts"] * patterns)
    tracer.count("nice.search.exact", sum(1 for r in results if r.exact))


_PRE_HOOKS = {"linalg.rref": _rref_pre}
_PRE_HOOKS.update({q: _tensor_arg(q) for q in PER_TENSOR})
_POST_HOOKS = {"nice.diagonal_einstein_search": _search_post}
