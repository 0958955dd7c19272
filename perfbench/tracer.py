"""Span tracing of the program from outside it.

``Tracer.install`` replaces every binding of each public function of the
traced ``beatmix`` modules with a wrapper that records a span: label, start,
end, parent span, stage id, thread and the exception class it ended with, if
any. "Every binding" matters: ``cli`` imports ``content_hash`` by name and
``beats``/``mixup`` import ``mel_spectrogram``/``invert_mel`` by name, so
patching the defining module alone would miss those call sites. Callers that
go through a module attribute (``_kernels.beat_dp``, ``wavio.resample``) see
the patched attribute.

Spans stay in memory; ``self_times`` derives each span's self time (its
duration minus the union of its children's intervals) after the run.
Generator functions get one span per resume, so the work a generator does
between two yields is attributed to it and the consumer's work to the
consumer.
"""

import functools
import inspect
import itertools
import os
import sys
import threading
import time

# Extra counts recorded per span, computed from arguments and results
# outside the timed interval. Byte and flop counts are computed from sizes
# and shapes, not measured.


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _beat_dp_counts(args, kwargs, result):
    n = len(args[0])
    width = args[3] - args[2] + 1
    return {"frames": n, **beat_dp_cost(n, width)}


def _nn_counts(args, kwargs, result):
    (n, d), (m, _) = args[0].shape, args[1].shape
    return nn_cost(n, m, d)


def _iterations(args, kwargs, result):
    return {"iterations": kwargs.get("iterations", args[1] if len(args) > 1 else 32)}


def _records(args, kwargs, result):
    return {"records": len(result)}


def beat_dp_cost(n_frames, width):
    """One subtract and one compare per candidate predecessor; the score and
    penalty windows are each read once per frame (float64)."""
    return {"ops": 2 * n_frames * width, "bytes": 16 * n_frames * width}


def nn_cost(n, m, d):
    """A multiply and an add per query/reference/dim; both operand matrices
    read once and the best value and index written once per query."""
    return {"flops": 2 * n * m * d, "bytes": 8 * (n * d + m * d) + 16 * n}


EXTRAS = {
    "wavio.load_wav": _file_bytes,
    "wavio.probe_wav": _file_bytes,
    "manifest.content_hash": _file_bytes,
    "kernels.beat_dp": _beat_dp_counts,
    "kernels.nn_max_dot": _nn_counts,
    "dsp.invert_mel": _iterations,
    "gateway.load_embedding_set": _records,
    "gateway.load_posterior_set": _records,
}


class Tracer:
    """Records spans of the public functions of the given modules.

    ``modules`` maps a short layer name (``"wavio"``, ``"kernels"``...) to the
    module whose public functions form that layer.
    """

    def __init__(self, modules):
        self.modules = modules
        self.spans = []  # [id, label, start, end, parent, stage, thread, exc, extras]
        self.stage = None
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack = []
        self._patches = []
        self._ids = itertools.count()

    # --- patching -----------------------------------------------------------

    def _public_functions(self):
        found = {}
        for short, mod in self.modules.items():
            for name, obj in vars(mod).items():
                # callables that are not classes: Python functions, and the
                # compiled kernels when the extension is built
                if name.startswith("_") or inspect.isclass(obj) or not callable(obj):
                    continue
                if (getattr(obj, "__module__", "") or "").startswith(mod.__name__):
                    found[id(obj)] = (f"{short}.{name}", obj)
        return found

    def install(self):
        found = self._public_functions()
        wrappers = {key: self._wrap(label, fn) for key, (label, fn) in found.items()}
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "beatmix" or mod_name.startswith("beatmix.")):
                continue
            for attr, obj in list(vars(mod).items()):
                key = id(obj)
                if key in found and found[key][1] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[key])

    def uninstall(self):
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()

    # --- spans --------------------------------------------------------------

    def _stack(self):
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            # a worker thread's outermost span belongs to whatever the main
            # thread is waiting in (e.g. the command that owns the pool)
            parent = self._main_stack[-1] if self._main_stack else None
        span_id = next(self._ids)
        stack.append(span_id)
        return span_id, parent

    def _close(self, span_id, label, start, end, parent, exc, extras):
        self._stack().pop()
        self.spans.append(
            (span_id, label, start, end, parent, self.stage,
             threading.get_ident(), exc, extras)
        )

    def span(self, label):
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, label)

    def _wrap(self, label, fn):
        extra = EXTRAS.get(label)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                value = None
                while True:
                    span_id, parent = tracer._open()
                    exc = None
                    start = time.perf_counter()
                    try:
                        item = gen.send(value)
                    except StopIteration:
                        return
                    except BaseException as err:
                        exc = type(err).__name__
                        raise
                    finally:
                        end = time.perf_counter()
                        tracer._close(span_id, label, start, end, parent, exc, None)
                    value = yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id, parent = tracer._open()
            exc = None
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = type(err).__name__
                raise
            finally:
                end = time.perf_counter()
                counts = extra(args, kwargs, result) if extra and exc is None else None
                tracer._close(span_id, label, start, end, parent, exc, counts)

        return wrapper


class _Span:
    def __init__(self, tracer, label):
        self.tracer = tracer
        self.label = label

    def __enter__(self):
        self.span_id, self.parent = self.tracer._open()
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        end = time.perf_counter()
        name = exc_type.__name__ if exc_type else None
        self.tracer._close(self.span_id, self.label, self.start, end, self.parent, name, None)
        return False


def self_times(spans):
    """Self time per span id, plus the overlap excess per span id: how much
    its children's durations, clipped to its own interval, exceed the union
    of their intervals (non-zero only where children ran on several threads
    at once). A child that leaks out of its parent's interval is clipped in
    both, so the self times under a root then no longer add up to the root's
    duration plus the excess."""
    by_id = {s[0]: s for s in spans}
    children = {}
    for s in spans:
        if s[4] is not None and s[4] in by_id:
            children.setdefault(s[4], []).append((s[2], s[3]))
    own, excess = {}, {}
    for s in spans:
        span_id, start, end = s[0], s[2], s[3]
        kids = sorted((max(lo, start), min(hi, end)) for lo, hi in children.get(span_id, ()))
        kids = [(lo, hi) for lo, hi in kids if hi > lo]
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in kids:
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        own[span_id] = (end - start) - covered
        excess[span_id] = sum(hi - lo for lo, hi in kids) - covered
    return own, excess
