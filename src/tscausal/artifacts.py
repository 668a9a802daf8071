"""Run-directory artifacts: the one module that names, writes, reads and
deletes the files of a run directory, bar the reports ``pipeline.write_report``
writes under the names given here.

Arrays are NumPy ``.npy`` files (NEP 1). They hold the raw bits, so every
feature and label round-trips exactly. Every file is written to a hidden
sibling and then renamed into place, so a command that fails or is killed
leaves no partial file under a final name. There is no fsync, so this guards
against a failing process, not against power loss.

Manifests and ``model.json`` are dataclasses written by ``write_document``
and read by ``read_document``; manifests carry ``ARTIFACT_SCHEMA_VERSION``.
A dataset is its manifest alone (version 4): the generator and the
``source``, from which ``pipeline.load_dataset`` simulates it; its values
are not stored. The features manifest holds the config and each set's shape.
Version 3 also held the features manifest's model and each set's name and
directory, and some datasets' ``values.npy``; version 2 listed each series'
label, seed and spec, and version 1 was the CSV layout. Each is refused and
must be made again. Reports carry ``pipeline.SCHEMA_VERSION`` instead.
"""

from __future__ import annotations

import contextlib
import json
import os
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from typing import IO

import numpy as np

from .codec import from_doc, to_doc
from .seriesgen import GENERATOR_NAME

ARTIFACT_SCHEMA_VERSION = 4
CONFIG_FILE, MODEL_FILE = "config.json", "model.json"
FEATURES_MANIFEST = "features/manifest.json"
REPORT_JSON, REPORT_TEXT = "report.json", "report.txt"
# a key one of two JSON objects lacks; unlike null, it equals no JSON value
_MISSING = object()


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


def write_config(run_dir: str | Path, config) -> None:
    """Write ``config`` to the run's ``config.json``, keys sorted. Its ``lr``
    stays as given, so that `featurize --model` resolves it for its own model."""
    Path(run_dir).mkdir(parents=True, exist_ok=True)
    write_text(Path(run_dir) / CONFIG_FILE, json.dumps(to_doc(config), indent=2, sort_keys=True) + "\n")


def _remove_files(root: Path, names: tuple[str, ...]) -> None:
    """Delete the files ``names`` in each directory of ``root``, then the
    directories left empty; any other file, and its directory, stays."""
    dirs = [path for path in root.iterdir() if path.is_dir()] if root.is_dir() else []
    for path in dirs:
        for name in names:
            (path / name).unlink(missing_ok=True)
    for path in (*dirs, root):
        with contextlib.suppress(OSError):  # it holds a file, or is not there
            path.rmdir()


def invalidate_features(run_dir: str | Path) -> None:
    """Delete ``run_dir``'s features and what was made from them, so none of it outlives them."""
    for name in (FEATURES_MANIFEST, MODEL_FILE, REPORT_JSON, REPORT_TEXT):
        (Path(run_dir) / name).unlink(missing_ok=True)
    _remove_files(Path(run_dir) / "features", ("features.npy", "labels.npy"))


def invalidate_datasets(run_dir: str | Path) -> None:
    """Delete ``run_dir``'s datasets, an earlier release's values too, and all made from them."""
    invalidate_features(run_dir)
    _remove_files(Path(run_dir) / "datasets", ("manifest.json", "values.npy"))


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


def write_document(path: str | Path, obj, version: int) -> None:
    """Write the dataclass ``obj`` as the JSON file ``path``, keys in field
    order after its ``schema_version``; ``read_document`` reads it back."""
    doc = {"schema_version": version, **to_doc(obj)}
    write_text(path, json.dumps(doc, indent=2) + "\n")


def read_document(path: str | Path, cls, version: int, command: str):
    """The ``cls`` that ``from_doc`` decodes from the JSON file ``path``, whose
    ``schema_version`` must be ``version``; any fault is a ValueError naming the
    file, and another version also names ``command``, the CLI step that writes it."""
    doc = read_json_object(path)
    found = doc.pop("schema_version", None)
    if type(found) is not int or found != version:
        raise ValueError(f"{path}: unsupported schema version {found!r} (this release "
                         f"reads {version}); run `{command}` again")
    try:
        return from_doc(cls, doc)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


@dataclass(frozen=True)
class DatasetManifest:
    """A dataset's ``manifest.json``: its generator and ``source``, what
    ``pipeline.build_dataset`` simulates it from (``pipeline.dataset_source``)."""

    generator: str
    source: dict

    def __post_init__(self):
        if self.generator != GENERATOR_NAME:
            raise ValueError(f"dataset was generated by {self.generator!r}, but this release "
                             f"generates with {GENERATOR_NAME!r}; run `generate` again")


@dataclass(frozen=True)
class FeaturesManifest:
    """``features/manifest.json``: the resolved config and each set's [rows,
    columns], in the order ``pipeline.set_names`` names the config's sets."""

    config: dict
    shapes: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for i, shape in enumerate(self.shapes):
            if min(shape) < 0:
                raise ValueError(f"shapes[{i}] must be non-negative, got {list(shape)}")


# ---------------------------------------------------------------------------
# datasets


def dataset_dir(run_dir: str | Path, name: str) -> Path:
    return Path(run_dir) / "datasets" / name


def dataset_manifest_path(dir_path: str | Path) -> Path:
    return Path(dir_path) / "manifest.json"


def persist_dataset(dir_path: str | Path, source) -> None:
    """Write the dataset's ``manifest.json``, which records ``source``, the
    ``pipeline.DatasetSource`` the dataset is simulated from."""
    Path(dir_path).mkdir(parents=True, exist_ok=True)
    write_document(dataset_manifest_path(dir_path),
                   DatasetManifest(GENERATOR_NAME, to_doc(source)), ARTIFACT_SCHEMA_VERSION)


def _first_difference(got, want, key: str = "") -> tuple[str, object, object] | None:
    """The dotted key path of the first difference between two JSON values,
    with both values there, ``_MISSING`` for a key one lacks; None if equal."""
    if isinstance(got, dict) and isinstance(want, dict):
        for k in sorted(set(got) | set(want)):
            found = _first_difference(got.get(k, _MISSING), want.get(k, _MISSING),
                                      f"{key}.{k}" if key else k)
            if found:
                return found
        return None
    return None if got == want else (key, got, want)


def read_dataset_manifest(dir_path: str | Path, source=None) -> DatasetManifest:
    """The manifest ``persist_dataset`` wrote to ``dir_path``. With ``source``,
    a dataset generated otherwise is refused, naming the first key that
    differs and both values."""
    manifest_path = dataset_manifest_path(dir_path)
    if not manifest_path.is_file():
        raise FileNotFoundError(f"missing dataset manifest: {manifest_path} (run `generate` first)")
    manifest = read_document(manifest_path, DatasetManifest, ARTIFACT_SCHEMA_VERSION, "generate")
    # compare as JSON, the form the manifest holds
    found = source is not None and _first_difference(manifest.source, to_doc(source))
    if found:
        key, *values = found
        got, want = (f"no {key}" if v is _MISSING else f"{key} {json.dumps(v)}" for v in values)
        raise ValueError(f"{manifest_path}: dataset was generated with {got}, but the config "
                         f"gives {want}; run `generate` with this config")
    return manifest


# ---------------------------------------------------------------------------
# feature sets


def persist_features(run_dir: str | Path, config: dict, sets) -> FeaturesManifest:
    """Write each (name, directory, features, labels) of ``sets`` to ``features/<directory>/``,
    dropping it before the next is made, then the manifest of ``config``."""
    root = Path(run_dir) / "features"
    shapes = []
    for _, set_dir, features, labels in sets:
        (root / set_dir).mkdir(parents=True, exist_ok=True)
        save_array(root / set_dir / "features.npy", features)
        save_array(root / set_dir / "labels.npy", labels)
        shapes.append(features.shape)
        del features
    manifest = FeaturesManifest(config, tuple(shapes))
    write_document(Path(run_dir) / FEATURES_MANIFEST, manifest, ARTIFACT_SCHEMA_VERSION)
    return manifest


def read_features_manifest(run_dir: str | Path) -> FeaturesManifest:
    """The manifest ``persist_features`` wrote to ``run_dir``."""
    path = Path(run_dir) / FEATURES_MANIFEST
    if not path.is_file():
        raise FileNotFoundError(f"missing features manifest: {path} (run `featurize` first)")
    return read_document(path, FeaturesManifest, ARTIFACT_SCHEMA_VERSION, "featurize")


def load_feature_set(run_dir: str | Path, set_dir: str,
                     shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """The features and labels in ``run_dir``'s ``features/<set_dir>/``,
    which must be of the manifest's ``shape``."""
    set_dir = Path(run_dir) / "features" / set_dir
    features = load_array(set_dir / "features.npy", np.float64, 2)
    labels = load_array(set_dir / "labels.npy", np.int64, 1)
    rows, columns = shape
    if features.shape != (rows, columns) or labels.shape != (rows,):
        raise ValueError(
            f"{set_dir}: corrupt feature set: {features.shape[0]}x{features.shape[1]} features "
            f"and {labels.size} labels for a manifest shape of {rows}x{columns}"
        )
    return features, labels
