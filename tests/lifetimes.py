"""Checks that a run holds one set at a time: weak references to its sets,
and the traced allocation peak of a call.

A streamed run makes each dataset, featurizes it, and lets it go before it
makes the next. Featurize writes every set's features over its dataset's
memory, so each set's features keep its dataset's values alive; the train
dataset lives through its two splits, which are disjoint rows of its
memory. ``watch_sets`` wraps the function that makes datasets (built or
loaded) and ``featurize_sets``. Each made dataset first asserts that no
dataset and no features of an earlier set are alive, and each yielded set
asserts that no features of an earlier set are alive and records which
datasets are. A run that keeps a set after its turn, such as a ``zip`` over
lazily made test sets whose reused result tuple holds the last one, fails
at its next set.
"""

from __future__ import annotations

import gc
import tracemalloc
import weakref
from contextlib import contextmanager

from tscausal import pipeline


class SetWatch:
    def __init__(self):
        # per dataset, references to the Dataset and to its values matrix
        self.datasets: list[tuple[weakref.ref, weakref.ref]] = []
        self.features: list[weakref.ref] = []
        # per yielded set, the datasets alive when it was yielded
        self.alive_at_yield: list[list[int]] = []

    def live_datasets(self) -> list[int]:
        return [i for i, refs in enumerate(self.datasets) if any(r() is not None for r in refs)]

    def live_features(self) -> list[int]:
        return [i for i, ref in enumerate(self.features) if ref() is not None]

    def check(self, call: str) -> None:
        assert not self.live_datasets(), f"before {call}: datasets {self.live_datasets()} are alive"
        assert not self.live_features(), \
            f"before {call}: feature matrices {self.live_features()} are alive"


@contextmanager
def watch_sets(monkeypatch, maker: str):
    """Watch the datasets ``pipeline.<maker>`` returns and the features
    ``pipeline.featurize_sets`` yields for the duration of the block. The
    cyclic collector is off, so that only reference counts free a set."""
    watch = SetWatch()
    make, featurize = getattr(pipeline, maker), pipeline.featurize_sets

    def watched_make(*args, **kwargs):
        watch.check(f"{maker} #{len(watch.datasets)}")
        dataset = make(*args, **kwargs)
        watch.datasets.append((weakref.ref(dataset), weakref.ref(dataset.values)))
        return dataset

    def watched_featurize(*args, **kwargs):
        for name, set_dir, features, labels in featurize(*args, **kwargs):
            assert not watch.live_features(), \
                f"at set {name!r}: feature matrices {watch.live_features()} are alive"
            watch.alive_at_yield.append(watch.live_datasets())
            watch.features.append(weakref.ref(features))
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
