"""Outside-in tracing of biteuler's layers.

Nothing under ``src/`` knows about this module.  ``instrument`` swaps the
public callables that the library modules import from each other (and the
model coefficients handed out by ``catalog()``) for timing wrappers, and
restores the originals on exit.

Two kinds of record are kept in memory:

- spans (name, start, end, parent, thread) around the per-block calls:
  experiments, diagnostics, cli, ``run_paths``, ``generate_block`` and
  ``coarsen_increments``;
- leaf timings for the per-step calls (``tame``, drift, diffusion) and the
  closed-form reference, summed into the span that was open when they ran.
  A traced study makes ~10^5 such calls, and aggregating them keeps the
  trace's size independent of N.

Counts (path-steps, draws, bytes, outcome counts) are read from the
arguments and results at the wrapped calls, never estimated.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import os
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from time import perf_counter

from biteuler import brownian, cli, diagnostics, experiments, models, schemes

_PARENT_IS_CURRENT = object()


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "thread", "leaf")

    def __init__(self, span_id, name, parent, thread):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.thread = thread
        self.start = self.end = 0.0
        self.leaf = Counter()  # leaf name -> seconds, this thread only

    def as_dict(self, t0: float) -> dict:
        return {"id": self.id, "name": self.name,
                "parent": None if self.parent is None else self.parent.id,
                "thread": self.thread, "start_s": self.start - t0,
                "end_s": self.end - t0, "leaf_s": dict(self.leaf)}


class Tracer:
    """Spans, pool lifetimes and counts of one traced study."""

    def __init__(self):
        self.spans: list[Span] = []
        self.pools: list[tuple[int, float, float]] = []  # workers, start, end
        self.counts: Counter = Counter()
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()

    def current(self):
        return getattr(self._local, "span", None)

    @contextmanager
    def span(self, name: str, parent=_PARENT_IS_CURRENT):
        outer = self.current()
        s = Span(next(self._ids), name,
                 outer if parent is _PARENT_IS_CURRENT else parent,
                 threading.get_ident())
        self.spans.append(s)
        self._local.span = s
        s.start = perf_counter()
        try:
            yield s
        finally:
            s.end = perf_counter()
            self._local.span = outer

    def add_leaf(self, name: str, seconds: float) -> None:
        # a span is only ever current in the thread that opened it, so its
        # leaf counter needs no lock
        s = self.current()
        if s is not None:
            s.leaf[name] += seconds

    def count(self, **amounts: int) -> None:
        with self._lock:
            self.counts.update(amounts)


# ---------------------------------------------------------------------------
# wrappers


def _spanned(tracer: Tracer, name: str, fn, counter=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if counter is not None:
            counter(tracer, result, *args, **kwargs)
        return result
    return wrapper


def _leaf(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.add_leaf(name, perf_counter() - t0)
    return wrapper


def _count_run_paths(tracer, runs, kind, model, grid, x0, dW, **_):
    B, n_steps, _m = dW.shape
    tracer.count(path_steps=B * n_steps,
                 state_bytes=B * (n_steps + 1) * model.d * 8,
                 frozen_paths=int(runs.frozen.sum()),
                 overflow_paths=int(runs.overflow.sum()))


def _count_generate(tracer, out, *args, **kwargs):
    count, _n, _m = out.shape
    tracer.count(draws=out.size, streams=count)


def _count_coarsen(tracer, out, increments, *args, **kwargs):
    tracer.count(coarsen_in_bytes=increments.size * 8)


def _count_cli(tracer, code, argv=None):
    # bytes the command wrote: its --output file plus the rate-fit sidecar
    argv = list(argv or ())
    if "--output" in argv:
        path = argv[argv.index("--output") + 1]
        written = [p for p in (path, path + ".ratefit.json")
                   if os.path.exists(p)]
        tracer.count(output_bytes=sum(os.path.getsize(p) for p in written))


def _traced_model(tracer: Tracer, model):
    exact = model.exact_solution
    return dataclasses.replace(
        model,
        drift=_leaf(tracer, "models.drift", model.drift),
        diffusion=_leaf(tracer, "models.diffusion", model.diffusion),
        exact_solution=None if exact is None
        else _leaf(tracer, "models.exact_solution", exact))


def _traced_pool_class(tracer: Tracer):
    class TracedPool(ThreadPoolExecutor):
        """The experiments thread pool, with each batch as a worker span
        parented to the span that created the pool."""

        def __init__(self, max_workers=None, *args, **kwargs):
            super().__init__(max_workers, *args, **kwargs)
            self._owner = tracer.current()
            self._opened = perf_counter()

        def map(self, fn, *iterables, **kwargs):
            owner = self._owner

            def batch(*args):
                with tracer.span("experiments.worker", parent=owner):
                    return fn(*args)
            return super().map(batch, *iterables, **kwargs)

        def shutdown(self, *args, **kwargs):
            super().shutdown(*args, **kwargs)
            tracer.pools.append((self._max_workers, self._opened, perf_counter()))

    return TracedPool


@contextmanager
def instrument(tracer: Tracer):
    """Install the wrappers for the duration of the block."""
    original_catalog = models.catalog

    def catalog():
        return {key: dataclasses.replace(entry,
                                         model=_traced_model(tracer, entry.model))
                for key, entry in original_catalog().items()}

    run_paths = _spanned(tracer, "schemes.run_paths", schemes.run_paths,
                         _count_run_paths)
    generate = _spanned(tracer, "brownian.generate_block",
                        brownian.generate_block, _count_generate)
    coarsen = _spanned(tracer, "brownian.coarsen_increments",
                       brownian.coarsen_increments, _count_coarsen)
    strong_error = _spanned(tracer, "experiments.strong_error",
                            experiments.strong_error)
    patches = [
        (models, "catalog", catalog),
        (schemes, "tame", _leaf(tracer, "taming.tame", schemes.tame)),
        (experiments, "catalog", catalog),
        (experiments, "run_paths", run_paths),
        (experiments, "generate_block", generate),
        (experiments, "coarsen_increments", coarsen),
        (experiments, "ThreadPoolExecutor", _traced_pool_class(tracer)),
        (experiments, "exp_moment_estimate",
         _spanned(tracer, "diagnostics.exp_moment_estimate",
                  experiments.exp_moment_estimate)),
        (experiments, "fit_growth_constant",
         _spanned(tracer, "diagnostics.fit_growth_constant",
                  experiments.fit_growth_constant)),
        (experiments, "strong_error", strong_error),
        (experiments, "moment_sweep",
         _spanned(tracer, "experiments.moment_sweep", experiments.moment_sweep)),
        (experiments, "divergence_comparison",
         _spanned(tracer, "experiments.divergence_comparison",
                  experiments.divergence_comparison)),
        (diagnostics, "run_paths", run_paths),
        (diagnostics, "generate_block", generate),
        (diagnostics, "stopping_probability",
         _spanned(tracer, "diagnostics.stopping_probability",
                  diagnostics.stopping_probability)),
        # cli calls the experiments entry points through its own bindings
        (cli, "catalog", catalog),
        (cli, "strong_error", strong_error),
        (cli, "fit_rate", _spanned(tracer, "experiments.fit_rate", cli.fit_rate)),
        (cli, "main", _spanned(tracer, "cli.main", cli.main, _count_cli)),
    ]
    saved = [(mod, name, getattr(mod, name)) for mod, name, _ in patches]
    for mod, name, fn in patches:
        setattr(mod, name, fn)
    try:
        yield tracer
    finally:
        for mod, name, fn in reversed(saved):
            setattr(mod, name, fn)


# ---------------------------------------------------------------------------
# per-layer metrics


def _union_length(intervals) -> float:
    total = 0.0
    end = None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its child spans (in any thread)
    and its own leaf calls cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent.id, []).append(s)
    return {s.id: (s.end - s.start)
            - _union_length((c.start, c.end) for c in children.get(s.id, ()))
            - sum(s.leaf.values())
            for s in spans}


# layer metric -> span names whose self time it sums
_SELF_METRICS = {
    "schemes.self_s": ("schemes.run_paths",),
    "brownian.generate_s": ("brownian.generate_block",),
    "brownian.coarsen_s": ("brownian.coarsen_increments",),
    "diagnostics.exp_moment_s": ("diagnostics.exp_moment_estimate",),
    "diagnostics.stopping_s": ("diagnostics.stopping_probability",),
    "diagnostics.growth_fit_s": ("diagnostics.fit_growth_constant",),
    "experiments.self_s": ("experiments.strong_error", "experiments.fit_rate",
                           "experiments.moment_sweep",
                           "experiments.divergence_comparison",
                           "experiments.worker"),
    "cli.self_s": ("cli.main",),
}

# layer metric -> leaf names whose time it sums
_LEAF_METRICS = {
    "taming.tame_s": ("taming.tame",),
    "models.coeff_s": ("models.drift", "models.diffusion"),
    "models.exact_s": ("models.exact_solution",),
}

# count metric -> the span whose calls produce it
COUNT_METRICS = {
    "schemes.path_steps": "schemes.run_paths",
    "schemes.state_bytes": "schemes.run_paths",
    "schemes.frozen_paths": "schemes.run_paths",
    "schemes.overflow_paths": "schemes.run_paths",
    "brownian.draws": "brownian.generate_block",
    "brownian.streams": "brownian.generate_block",
    "brownian.coarsen_in_bytes": "brownian.coarsen_increments",
    "cli.output_bytes": "cli.main",
}


def layer_metrics(tracer: Tracer, root: Span) -> dict[str, float | None]:
    """Per-layer metrics of one traced study rooted at ``root``.

    A metric whose layer never ran in the study is None (absent), so that
    it cannot be read as a measured zero.
    """
    spans = tracer.spans
    self_s = self_times(spans)
    names = Counter(s.name for s in spans)
    leaf = Counter()
    for s in spans:
        leaf.update(s.leaf)
    out: dict[str, float | None] = {}
    for metric, span_names in _SELF_METRICS.items():
        ran = any(names[n] for n in span_names)
        out[metric] = (sum(self_s[s.id] for s in spans if s.name in span_names)
                       if ran else None)
    for metric, leaf_names in _LEAF_METRICS.items():
        ran = any(n in leaf for n in leaf_names)
        out[metric] = sum(leaf[n] for n in leaf_names) if ran else None

    c = tracer.counts
    for metric, span_name in COUNT_METRICS.items():
        out[metric] = c[metric.split(".", 1)[1]] if names[span_name] else None

    stepping_s = sum(s.end - s.start for s in spans
                     if s.name == "schemes.run_paths")
    out["schemes.ns_per_path_step"] = (1e9 * stepping_s / c["path_steps"]
                                       if c["path_steps"] else None)
    generate_s = out["brownian.generate_s"]
    out["brownian.ns_per_draw"] = (1e9 * generate_s / c["draws"]
                                   if c["draws"] else None)

    busy = sum(s.end - s.start for s in spans if s.name == "experiments.worker")
    capacity = sum(w * (end - start) for w, start, end in tracer.pools)
    out["experiments.worker_busy_frac"] = busy / capacity if capacity else None

    study_s = root.end - root.start
    out["trace.study_s"] = study_s
    out["trace.uncovered_frac"] = self_s[root.id] / study_s
    return out
