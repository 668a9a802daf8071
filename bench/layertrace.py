"""Layer-by-layer span tracing of tscausal, installed from outside the package.

Nothing under ``src/`` is instrumented. ``Tracer.installed`` replaces the
public functions of each layer with timing wrappers, at the name the calling
module binds: ``pipeline`` imports ``generate`` and ``extract_ttss`` by name,
so those names are wrapped inside ``pipeline``; ``spectral`` and ``classify``
are reached through the module attribute, so they are wrapped there. Leaving
the context puts every original back.

A span is (name, start, end, parent). Spans and counts stay in memory; the
chained CLI workload dumps them from each child process and merges them into
the parent's tracer. Work that only describes the inputs (stimulus dedup,
firing-time distribution, scaler clipping) is kept aside and analysed by
``finish`` after the pass, outside every span.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

# CLOCK_MONOTONIC is system-wide on Linux, so child-process spans share the
# parent's timeline
clock = time.monotonic

LAYERS = ("seriesgen", "spectral", "chaosfex", "classify", "pipeline", "cli")
CLI_STEPS = ("generate", "featurize", "train", "evaluate")
ROOT_SPAN = "pass"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    tag: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.stimuli: list[tuple[np.ndarray, tuple]] = []
        self.scaled: list[tuple[np.ndarray, np.ndarray, np.ndarray, float]] = []
        self._stack: list[int] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str, tag: str = "") -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, clock(), 0.0, parent, tag))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx].end = clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, tag: str = ""):
        idx = self._open(name, tag)
        try:
            yield idx
        finally:
            self._close(idx)

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, module, attr, name, patches, tag=None, call=None):
        original = getattr(module, attr)
        target = call(original) if call else original

        def wrapper(*args, **kwargs):
            idx = self._open(name, tag(*args, **kwargs) if tag else "")
            try:
                return target(*args, **kwargs)
            finally:
                self._close(idx)

        wrapper.__wrapped__ = original
        setattr(module, attr, wrapper)
        patches.append((module, attr, original))

    @contextmanager
    def installed(self):
        """Wrap every traced boundary for the duration of the block."""
        from tscausal import classify, pipeline, spectral

        patches: list = []
        wrap = lambda *a, **k: self._wrap(*a, patches=patches, **k)  # noqa: E731
        try:
            wrap(pipeline, "generate", "seriesgen.generate", tag=lambda spec, *a, **k: spec.kind.value)
            wrap(pipeline, "build_dataset", "pipeline.build_dataset", tag=lambda recipe, *a, **k: recipe.name)
            for fn in ("run_experiment", "assemble_sets", "write_report", "persist_dataset", "load_dataset"):
                wrap(pipeline, fn, f"pipeline.{fn}")
            wrap(spectral, "amplitude_spectra", "spectral.amplitude_spectra")
            wrap(spectral, "fit_scaler", "spectral.scale")
            wrap(spectral, "scale_per_instance", "spectral.scale")
            wrap(spectral, "apply_scaler", "spectral.scale", call=self._keep_scaled)
            wrap(pipeline, "extract_ttss", "chaosfex.extract_ttss", call=self._keep_stimuli)
            wrap(classify, "train_lr", "classify.train_lr", call=self._count_lbfgs)
            wrap(classify, "predict", "classify.predict")
            yield self
        finally:
            for module, attr, original in reversed(patches):
                setattr(module, attr, original)

    def _keep_scaled(self, apply_scaler):
        def call(scaler, matrix):
            self.scaled.append((np.asarray(matrix), scaler.minimum, scaler.maximum, scaler.headroom))
            return apply_scaler(scaler, matrix)
        return call

    def _keep_stimuli(self, extract_ttss):
        def call(matrix, params, threads=1):
            self.stimuli.append((np.asarray(matrix), (params.q, params.b, params.eps, params.max_len)))
            return extract_ttss(matrix, params, threads=threads)
        return call

    def _count_lbfgs(self, train_lr):
        def call(*args, callback=None, **kwargs):
            def count(xk):
                self.counts["classify.lbfgs_iters"] += 1
                if callback is not None:
                    callback(xk)
            model = train_lr(*args, callback=count, **kwargs)
            self.counts["classify.fits"] += 1
            self.counts["classify.converged_fits"] += int(model.converged)
            return model
        return call

    # -- child processes -----------------------------------------------------

    def dump(self, path: Path, main_start: float) -> None:
        """Write spans, counts and kept inputs for a parent to ``merge``."""
        path = Path(path)
        doc = {
            "main_start": main_start,
            "spans": [asdict(s) for s in self.spans],
            "counts": self.counts,
            "kept": [len(self.stimuli), len(self.scaled)],
        }
        path.write_text(json.dumps(doc))
        arrays = {}
        for i, (x, params) in enumerate(self.stimuli):
            arrays[f"stim{i}"], arrays[f"gls{i}"] = x, np.array(params)
        for i, (x, lo, hi, headroom) in enumerate(self.scaled):
            arrays[f"x{i}"], arrays[f"lo{i}"], arrays[f"hi{i}"] = x, lo, hi
            arrays[f"headroom{i}"] = np.array(headroom)
        np.savez(path.with_suffix(".npz"), **arrays)

    def merge(self, path: Path, spawned: float, parent: int) -> None:
        """Adopt a child's dump: a ``cli.startup`` span from spawn to the
        child's main, then the child's spans, all under ``parent``."""
        path = Path(path)
        doc = json.loads(path.read_text())
        self.spans.append(Span("cli.startup", spawned, doc["main_start"], parent))
        base = len(self.spans)
        for s in doc["spans"]:
            up = parent if s["parent"] is None else base + s["parent"]
            self.spans.append(Span(s["name"], s["start"], s["end"], up, s["tag"]))
        self.counts.update(doc["counts"])
        n_stimuli, n_scaled = doc["kept"]
        with np.load(path.with_suffix(".npz")) as a:
            for i in range(n_stimuli):
                self.stimuli.append((a[f"stim{i}"], tuple(a[f"gls{i}"].tolist())))
            for i in range(n_scaled):
                self.scaled.append((a[f"x{i}"], a[f"lo{i}"], a[f"hi{i}"], float(a[f"headroom{i}"])))

    # -- analysis ------------------------------------------------------------

    def finish(self) -> None:
        """Analyse the kept inputs; runs after the pass, outside every span."""
        from tscausal.chaosfex import GlsParams, fire_batch

        for x, (q, b, eps, max_len) in self.stimuli:
            flat = x.ravel()
            n, _, timed_out = fire_batch(flat, GlsParams(q, b, eps, int(max_len)))
            self.counts["chaosfex.stimuli"] += flat.size
            self.counts["chaosfex.unique"] += np.unique(flat).size
            self.counts["chaosfex.firing_time_sum"] += int(n.sum())
            self.counts["chaosfex.firing_time_max"] = max(self.counts["chaosfex.firing_time_max"], int(n.max()))
            self.counts["chaosfex.timeouts"] += int(timed_out.sum())
        for x, lo, hi, headroom in self.scaled:
            span = hi - lo
            ok = span > 0
            z = (x[:, ok] - lo[ok]) / span[ok]
            self.counts["spectral.clipped"] += int(np.count_nonzero((z < 0) | (z > 1.0 - headroom)))
            self.counts["spectral.scaled"] += x.size
        self.stimuli.clear()
        self.scaled.clear()

    def busy(self, name: str, tag: str | None = None) -> float:
        return sum(s.duration for s in self.spans if s.name == name and (tag is None or s.tag == tag))

    def self_times(self) -> Counter:
        """Seconds per layer (first name component) not covered by child spans."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.duration
        out: Counter = Counter()
        for s, child in zip(self.spans, covered):
            out[s.name.split(".")[0]] += s.duration - child
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric of one pass; layers the pass never entered read 0."""
        from tscausal.pipeline import RECIPES
        from tscausal.seriesgen import Kind

        kinds = [k.value for k in Kind]
        recipes = [r.name for r in RECIPES.values()]
        c = self.counts
        m: dict[str, float] = {}
        m["seriesgen.generate.busy_s"] = self.busy("seriesgen.generate")
        m["seriesgen.generate.calls"] = sum(s.name == "seriesgen.generate" for s in self.spans)
        for kind in kinds:
            m[f"seriesgen.generate.{kind}.busy_s"] = self.busy("seriesgen.generate", kind)
        for recipe in recipes:
            m[f"pipeline.build_dataset.{recipe}.busy_s"] = self.busy("pipeline.build_dataset", recipe)
        for fn in ("assemble_sets", "persist_dataset", "load_dataset"):
            m[f"pipeline.{fn}.busy_s"] = self.busy(f"pipeline.{fn}")
        for step in CLI_STEPS:
            m[f"cli.{step}.wall_s"] = self.busy(f"cli.{step}")
            m[f"cli.{step}.bytes_written"] = c[f"cli.{step}.bytes_written"]
        m["cli.startup_s"] = self.busy("cli.startup")
        m["spectral.amplitude_spectra.busy_s"] = self.busy("spectral.amplitude_spectra")
        m["spectral.scale.busy_s"] = self.busy("spectral.scale")
        m["spectral.clip_frac"] = c["spectral.clipped"] / c["spectral.scaled"] if c["spectral.scaled"] else 0.0
        stimuli = c["chaosfex.stimuli"]
        m["chaosfex.extract_ttss.busy_s"] = self.busy("chaosfex.extract_ttss")
        m["chaosfex.stimuli"] = stimuli
        m["chaosfex.unique_frac"] = c["chaosfex.unique"] / stimuli if stimuli else 0.0
        m["chaosfex.ns_per_stimulus"] = m["chaosfex.extract_ttss.busy_s"] * 1e9 / stimuli if stimuli else 0.0
        m["chaosfex.firing_time_mean"] = c["chaosfex.firing_time_sum"] / stimuli if stimuli else 0.0
        m["chaosfex.firing_time_max"] = c["chaosfex.firing_time_max"]
        m["chaosfex.timeouts"] = c["chaosfex.timeouts"]
        m["classify.train_lr.busy_s"] = self.busy("classify.train_lr")
        m["classify.lbfgs_iters"] = c["classify.lbfgs_iters"]
        m["classify.converged"] = c["classify.converged_fits"] / c["classify.fits"] if c["classify.fits"] else 0.0
        m["classify.predict.busy_s"] = self.busy("classify.predict")
        own = self.self_times()
        for layer in LAYERS:
            m[f"{layer}.self_s"] = own[layer]
        m["trace.unattributed_s"] = own[ROOT_SPAN]
        return m
