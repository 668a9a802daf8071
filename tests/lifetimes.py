"""Checks that a run holds one set at a time: weak references to its
datasets and to its sets' buffers, and the traced allocation peak of a call.

A streamed run draws each dataset, featurizes it, and lets it go before it
draws the next. Featurize simulates each dataset into a buffer of its own
and writes the set's features over it, so each set's features are a view of
its buffer and keep it alive; the train dataset's buffer lives through its
two splits, which are disjoint rows of it. ``watch_sets`` wraps the
function that makes datasets (built or loaded) and ``featurize_sets``. Each
made dataset first asserts that no dataset, no buffer and no features of
an earlier set are alive, and each yielded set asserts that no features of
an earlier set are alive and records which buffers are. A run that keeps a
set after its turn, such as a ``zip`` over lazily made test sets whose
reused result tuple holds the last one, fails at its next set.
"""

from __future__ import annotations

import gc
import tracemalloc
import weakref
from contextlib import contextmanager

import numpy as np

from tscausal import pipeline


def buffer_of(features: np.ndarray) -> np.ndarray:
    """The array that owns the memory ``features`` is a view of."""
    while features.base is not None:
        features = features.base
    return features


class SetWatch:
    def __init__(self):
        self.datasets: list[weakref.ref] = []
        self.features: list[weakref.ref] = []
        # each set buffer, in the order its first set was yielded
        self.buffers: list[weakref.ref] = []
        # per yielded set, the buffers alive when it was yielded
        self.alive_at_yield: list[list[int]] = []

    @staticmethod
    def live(refs: list[weakref.ref]) -> list[int]:
        return [i for i, ref in enumerate(refs) if ref() is not None]

    def live_datasets(self) -> list[int]:
        return self.live(self.datasets)

    def live_buffers(self) -> list[int]:
        return self.live(self.buffers)

    def live_features(self) -> list[int]:
        return self.live(self.features)

    def check(self, call: str) -> None:
        assert not self.live_datasets(), f"before {call}: datasets {self.live_datasets()} are alive"
        assert not self.live_buffers(), f"before {call}: set buffers {self.live_buffers()} are alive"
        assert not self.live_features(), \
            f"before {call}: feature matrices {self.live_features()} are alive"

    def see(self, features: np.ndarray) -> None:
        buffer = buffer_of(features)
        if not any(ref() is buffer for ref in self.buffers):
            self.buffers.append(weakref.ref(buffer))
        self.features.append(weakref.ref(features))


@contextmanager
def watch_sets(monkeypatch, maker: str):
    """Watch the datasets ``pipeline.<maker>`` returns and the features
    ``pipeline.featurize_sets`` yields, with their buffers, for the duration
    of the block. The cyclic collector is off, so that only reference counts
    free a set."""
    watch = SetWatch()
    make, featurize = getattr(pipeline, maker), pipeline.featurize_sets

    def watched_make(*args, **kwargs):
        watch.check(f"{maker} #{len(watch.datasets)}")
        dataset = make(*args, **kwargs)
        watch.datasets.append(weakref.ref(dataset))
        return dataset

    def watched_featurize(*args, **kwargs):
        for name, set_dir, features, labels in featurize(*args, **kwargs):
            assert not watch.live_features(), \
                f"at set {name!r}: feature matrices {watch.live_features()} are alive"
            watch.see(features)
            watch.alive_at_yield.append(watch.live_buffers())
            yield name, set_dir, features, labels
            del features  # before the next set is made

    monkeypatch.setattr(pipeline, maker, watched_make)
    monkeypatch.setattr(pipeline, "featurize_sets", watched_featurize)
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield watch
    finally:
        if enabled:
            gc.enable()


def traced_peak(fn, *args) -> int:
    """Peak bytes ``tracemalloc`` traces while ``fn(*args)`` runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
