"""Run-directory artifacts: the one path that writes and reads the files of a
run directory.

Arrays are NumPy ``.npy`` files (NEP 1). They hold the raw bits, so every
value round-trips exactly. Every file is written to a hidden sibling and then
renamed into place, so a command that fails or is killed leaves no partial
file under a final name. There is no fsync, so this guards against a failing
process, not against power loss.

Manifests are dataclasses written by ``codec.to_doc`` and read, as
``model.json`` is, by ``read_document``; they carry ``ARTIFACT_SCHEMA_VERSION``.
Version 1 was the CSV layout; run directories written in it are refused and
must be generated again. Reports carry ``pipeline.SCHEMA_VERSION`` instead.
"""

from __future__ import annotations

import json
import os
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from typing import IO

import numpy as np

from .codec import from_doc, to_doc
from .seriesgen import GENERATOR_NAME, Dataset, ProcessSpec

ARTIFACT_SCHEMA_VERSION = 2
# the features directories of the train recipe's two splits, in this order
SPLIT_SLUGS = ("train-split", "held-out")


# ---------------------------------------------------------------------------
# files


def atomic_write(path: str | Path, write: Callable[[IO[bytes]], object]) -> None:
    """Call ``write`` on a temporary sibling of ``path``, then rename it to
    ``path``. If anything fails, the sibling is removed and ``path`` is left
    as it was."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_text(path: str | Path, text: str) -> None:
    atomic_write(path, lambda fh: fh.write(text.encode()))


def save_array(path: str | Path, array: np.ndarray) -> None:
    # an open file, so np.save does not append ".npy" to the temporary name
    atomic_write(path, lambda fh: np.save(fh, array, allow_pickle=False))


def load_array(path: str | Path, dtype: type, ndim: int) -> np.ndarray:
    """The array in the ``.npy`` file ``path``. Anything but an ``ndim``-
    dimensional array of ``dtype`` is a ValueError naming the file; the caller
    checks the shape against its manifest."""
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"missing array file: {path}")
    try:
        with path.open("rb") as fh:
            array = np.load(fh, allow_pickle=False)
    except (ValueError, EOFError) as exc:
        raise ValueError(f"{path}: not a readable .npy array: {exc}") from exc
    if not isinstance(array, np.ndarray):
        raise ValueError(f"{path}: not a .npy array")
    if array.dtype != np.dtype(dtype) or array.ndim != ndim:
        raise ValueError(
            f"{path}: expected a {ndim}-d {np.dtype(dtype)} array, "
            f"got a {array.ndim}-d {array.dtype} array"
        )
    return array


def read_json_object(path: str | Path) -> dict:
    """The JSON object in ``path``; anything else is a ValueError naming the file."""
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
                         f"{exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return doc


# ---------------------------------------------------------------------------
# manifests


def read_document(path: str | Path, cls, version: int):
    """The ``cls`` that ``from_doc`` decodes from the JSON file ``path``, whose
    ``schema_version`` must be ``version``; any fault is a ValueError naming the file."""
    doc = read_json_object(path)
    found = doc.pop("schema_version", None)
    if type(found) is not int or found != version:
        raise ValueError(f"{path}: unsupported schema version {found!r} (this release "
                         f"reads {version}); run `generate` again")
    try:
        return from_doc(cls, doc)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


@dataclass(frozen=True)
class SeriesEntry:
    """One row of a dataset: ``spec`` simulated from ``seed``."""

    label: int
    seed: int
    spec: ProcessSpec

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.label != self.spec.label:
            raise ValueError(f"label is {self.label}, but its {self.spec.kind.value} spec "
                             f"has label {self.spec.label}")


@dataclass(frozen=True)
class DatasetManifest:
    """A dataset's ``manifest.json``; ``source`` is what generated it (``dataset_source``)."""

    generator: str
    source: dict | None
    length: int
    series: tuple[SeriesEntry, ...]

    def __post_init__(self):
        for i, entry in enumerate(self.series):
            if entry.spec.length != self.length:
                raise ValueError(f"'series[{i}].spec.length' is {entry.spec.length}, but the "
                                 f"dataset's length is {self.length}")


@dataclass(frozen=True)
class FeatureSet:
    """A features-manifest set: its display name, ``features/`` subdirectory and shape."""

    name: str
    dir: str
    shape: tuple[int, int]

    def __post_init__(self):
        if min(self.shape) < 0:
            raise ValueError(f"shape must be non-negative, got {list(self.shape)}")


@dataclass(frozen=True)
class FeaturesManifest:
    """``features/manifest.json``: the resolved config and every set, train split first."""

    model: str
    config: dict
    sets: tuple[FeatureSet, ...]

    def __post_init__(self):
        if not self.sets or self.sets[0].dir != SPLIT_SLUGS[0]:
            raise ValueError("the first of 'sets' must be the train-split set")


# ---------------------------------------------------------------------------
# datasets


def persist_dataset(dataset: Dataset, dir_path: str | Path, source: dict | None = None) -> None:
    """Write ``values.npy`` (one series per row), then ``manifest.json``, whose
    ``source`` ``load_dataset`` can hold a config to."""
    if not dataset.specs:
        raise ValueError("refusing to persist an empty dataset")
    out = Path(dir_path)
    out.mkdir(parents=True, exist_ok=True)
    manifest_path = out / "manifest.json"
    # no manifest may point at values that are being replaced
    manifest_path.unlink(missing_ok=True)
    save_array(out / "values.npy", dataset.values)
    series = tuple(SeriesEntry(s.label, seed, s) for seed, s in zip(dataset.seeds, dataset.specs))
    manifest = DatasetManifest(GENERATOR_NAME, source, dataset.values.shape[1], series)
    doc = {"schema_version": ARTIFACT_SCHEMA_VERSION, **to_doc(manifest)}
    write_text(manifest_path, json.dumps(doc, indent=2) + "\n")


def _first_difference(got, want, key: str = "") -> tuple[str, object, object] | None:
    """The dotted key path of the first difference between two JSON values,
    with both values there; None if they are equal."""
    if isinstance(got, dict) and isinstance(want, dict):
        for k in sorted(set(got) | set(want)):
            found = _first_difference(got.get(k), want.get(k), f"{key}.{k}" if key else k)
            if found:
                return found
        return None
    return None if got == want else (key, got, want)


def _check_source(path: Path, recorded, expected: dict) -> None:
    if not isinstance(recorded, dict):
        raise ValueError(f"{path}: records no generating config; run `generate` again")
    # compare as JSON, the form the manifest holds
    found = _first_difference(recorded, json.loads(json.dumps(expected)))
    if found:
        key, got, want = found
        raise ValueError(
            f"{path}: dataset was generated with {key} {json.dumps(got)}, but the "
            f"config gives {key} {json.dumps(want)}; run `generate` with this config"
        )


def load_dataset(dir_path: str | Path, source: dict | None = None) -> Dataset:
    """The dataset ``persist_dataset`` wrote to ``dir_path``. With ``source``,
    a dataset generated otherwise is refused, naming the first key that
    differs and both values, and so is one whose series count is not
    ``n_per_class`` per class of the source's recipe."""
    src = Path(dir_path)
    manifest_path = src / "manifest.json"
    if not manifest_path.is_file():
        raise FileNotFoundError(f"missing dataset manifest: {manifest_path}")
    manifest = read_document(manifest_path, DatasetManifest, ARTIFACT_SCHEMA_VERSION)
    series = manifest.series
    if source is not None:
        _check_source(manifest_path, manifest.source, source)
        n, recipe = source["n_per_class"], source["recipe"]
        classes = sum(recipe[family] is not None for family in ("causal", "noncausal"))
        if len(series) != n * classes:
            raise ValueError(
                f"{manifest_path}: holds {len(series)} series, but the config's n_per_class "
                f"{n} over {classes} class(es) gives {n * classes}; run `generate` again"
            )
    values_path = src / "values.npy"
    values = load_array(values_path, np.float64, 2)
    if not series or values.shape != (len(series), manifest.length):
        raise ValueError(
            f"{values_path}: corrupt dataset: {values.shape[0]}x{values.shape[1]} values for "
            f"{len(series)} manifest entries of length {manifest.length}"
        )
    return Dataset(values, tuple(e.spec for e in series), tuple(e.seed for e in series))
