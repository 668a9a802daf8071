"""Checks that a run holds one set at a time: weak references to its sets,
and the traced allocation peak of a call.

A streamed run makes each dataset, featurizes it, and lets it go before it
makes the next; the train dataset lives through its two splits, which are
row indices into it. ``watch_sets`` wraps the function that makes datasets
(built or loaded) and ``FeatureStage.transform``, and each wrapped call first
asserts which datasets are alive: none before a dataset is made, and exactly
the newest one, the one it reads, before a transform; and no features made
earlier. A run that keeps a set after its turn, such as a ``zip`` over
lazily made test sets whose reused result tuple holds the last one, fails at
its next set.
"""

from __future__ import annotations

import gc
import tracemalloc
import weakref
from contextlib import contextmanager

from tscausal import pipeline
from tscausal.pipeline import FeatureStage


class SetWatch:
    def __init__(self):
        # per dataset, references to the Dataset and to its values matrix
        self.datasets: list[tuple[weakref.ref, weakref.ref]] = []
        self.features: list[weakref.ref] = []

    def live_datasets(self) -> list[int]:
        return [i for i, refs in enumerate(self.datasets) if any(r() is not None for r in refs)]

    def live_features(self) -> list[int]:
        return [i for i, ref in enumerate(self.features) if ref() is not None]

    def check(self, call: str, datasets_alive: list[int]) -> None:
        live = self.live_datasets()
        assert live == datasets_alive, \
            f"before {call}: datasets {live} are alive, expected {datasets_alive}"
        assert not self.live_features(), \
            f"before {call}: feature matrices {self.live_features()} are alive"


@contextmanager
def watch_sets(monkeypatch, maker: str):
    """Watch the datasets ``pipeline.<maker>`` returns and the features
    ``FeatureStage.transform`` returns for the duration of the block. The
    cyclic collector is off, so that only reference counts free a set."""
    watch = SetWatch()
    make, transform = getattr(pipeline, maker), FeatureStage.transform

    def watched_make(*args, **kwargs):
        watch.check(f"{maker} #{len(watch.datasets)}", [])
        dataset = make(*args, **kwargs)
        watch.datasets.append((weakref.ref(dataset), weakref.ref(dataset.values)))
        return dataset

    def watched_transform(stage, values, rows=None):
        # the dataset being transformed is the newest one
        watch.check(f"transform #{len(watch.features)}", [len(watch.datasets) - 1])
        features = transform(stage, values, rows)
        watch.features.append(weakref.ref(features))
        return features

    monkeypatch.setattr(pipeline, maker, watched_make)
    monkeypatch.setattr(FeatureStage, "transform", watched_transform)
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
