"""Run-directory artifacts: the one module that names, writes, reads and
deletes the files of a run directory, bar the reports ``pipeline.write_report``
writes under the names given here.

Arrays are NumPy ``.npy`` files (NEP 1). They hold the raw bits, so every
feature and label round-trips exactly. Features that take only a known list
of values, as every ``fft_chaosfex`` feature is one of its firing table's
TTSS values, are stored as their indices into that list, in the least
unsigned integer type that holds them (uint8 at the default ``GlsParams``);
the list is in the features manifest, and a set is decoded to the same
float64 bits when it is read. Every file is written to a hidden sibling and
then renamed into place, so a command that fails or is killed leaves no
partial file under a final name. There is no fsync, so this guards against
a failing process, not against power loss.

Manifests and ``model.json`` are dataclasses written by ``write_document``
and read by ``read_document``; manifests carry ``ARTIFACT_SCHEMA_VERSION``.
A dataset is its manifest alone (version 5): the generator and the
``source``, from which ``pipeline.load_dataset`` draws it and featurize
simulates it; its values are not stored. The features manifest holds the
config, each set's shape and the values its features are coded against.
Version 4 stored every model's features as float64 and had no ``values``.
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
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO

import numpy as np

from .codec import from_doc, to_doc
from .seriesgen import GENERATOR_NAME

ARTIFACT_SCHEMA_VERSION = 5
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
    ``pipeline.build_dataset`` draws it from (``pipeline.dataset_source``)."""

    generator: str
    source: dict

    def __post_init__(self):
        if self.generator != GENERATOR_NAME:
            raise ValueError(f"dataset was generated by {self.generator!r}, but this release "
                             f"generates with {GENERATOR_NAME!r}; run `generate` again")


@dataclass(frozen=True, eq=False)
class FeaturesManifest:
    """``features/manifest.json``: the resolved config, each set's [rows,
    columns], in the order ``pipeline.set_names`` names the config's sets,
    and ``values``, the strictly increasing doubles that every feature of
    the sets is one of (``pipeline.feature_values``). Each set's
    ``features.npy`` holds its features' indices into ``values``, or, when
    ``values`` is empty, the float64 features themselves."""

    config: dict
    shapes: tuple[tuple[int, int], ...]
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        for i, shape in enumerate(self.shapes):
            if min(shape) < 0:
                raise ValueError(f"shapes[{i}] must be non-negative, got {list(shape)}")
        # a read-only copy, so the caller's array is left as it was
        values = np.array(self.values, dtype=np.float64)
        if values.ndim != 1 or not (values[1:] > values[:-1]).all():
            raise ValueError("values must be strictly increasing")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


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


# rows a set's features are coded a block at a time, so that the coding's
# temporaries are a block's and the codes are the one array of the set's size
_CODE_BLOCK_ROWS = 64


def _code_type(values: np.ndarray) -> np.dtype:
    """The dtype of a set's ``features.npy``: the least unsigned integer type
    that holds every index into ``values``; float64 if ``values`` is empty."""
    return np.min_scalar_type(len(values) - 1) if len(values) else np.dtype(np.float64)


def _encode(path: Path, features: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Each feature's index into ``values``, coded a block of rows at a time.
    Every block's codes are checked to decode to its features bit for bit,
    and a feature that is none of ``values`` is a ValueError naming ``path``
    and its row."""
    codes = np.empty(features.shape, _code_type(values))
    bits = values.view(np.uint64)
    for a in range(0, len(features), _CODE_BLOCK_ROWS):
        block = features[a:a + _CODE_BLOCK_ROWS]
        # a feature past the last value searches to len(values): clamped, it fails the check
        index = np.minimum(np.searchsorted(values, block), len(values) - 1)
        miss = bits[index] != block.view(np.uint64)
        if miss.any():
            row, column = np.argwhere(miss)[0]
            raise ValueError(f"{path}: feature {float(block[row, column])!r} at row {a + row}, "
                             f"column {column} is none of the manifest's {len(values)} values")
        codes[a:a + len(block)] = index
    return codes


def persist_features(run_dir: str | Path, config: dict, sets,
                     values: np.ndarray) -> FeaturesManifest:
    """Write each (name, directory, features, labels) of ``sets`` to ``features/<directory>/``,
    dropping it before the next is made, then the manifest of ``config`` and
    ``values``. With ``values``, every feature must be one of them, and each
    is written as its index into them."""
    root = Path(run_dir) / "features"
    shapes = []
    for _, set_dir, features, labels in sets:
        (root / set_dir).mkdir(parents=True, exist_ok=True)
        path = root / set_dir / "features.npy"
        save_array(path, _encode(path, features, values) if len(values) else features)
        save_array(root / set_dir / "labels.npy", labels)
        shapes.append(features.shape)
        del features
    manifest = FeaturesManifest(config, tuple(shapes), values)
    write_document(Path(run_dir) / FEATURES_MANIFEST, manifest, ARTIFACT_SCHEMA_VERSION)
    return manifest


def read_features_manifest(run_dir: str | Path) -> FeaturesManifest:
    """The manifest ``persist_features`` wrote to ``run_dir``."""
    path = Path(run_dir) / FEATURES_MANIFEST
    if not path.is_file():
        raise FileNotFoundError(f"missing features manifest: {path} (run `featurize` first)")
    return read_document(path, FeaturesManifest, ARTIFACT_SCHEMA_VERSION, "featurize")


def load_feature_set(run_dir: str | Path, set_dir: str, shape: tuple[int, int],
                     values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The float64 features and the labels in ``run_dir``'s
    ``features/<set_dir>/``, which must be of the manifest's ``shape``; with
    the manifest's ``values``, the features are decoded from their indices.
    A label other than 0 or 1, or an index past ``values``, is a ValueError
    naming the file."""
    set_dir = Path(run_dir) / "features" / set_dir
    features = load_array(set_dir / "features.npy", _code_type(values), 2)
    labels = load_array(set_dir / "labels.npy", np.int64, 1)
    rows, columns = shape
    if features.shape != (rows, columns) or labels.shape != (rows,):
        raise ValueError(
            f"{set_dir}: corrupt feature set: {features.shape[0]}x{features.shape[1]} features "
            f"and {labels.size} labels for a manifest shape of {rows}x{columns}"
        )
    bad = np.flatnonzero((labels != 0) & (labels != 1))
    if bad.size:
        raise ValueError(f"{set_dir / 'labels.npy'}: label {labels[bad[0]]} at row {bad[0]} "
                         "is not 0 or 1")
    if len(values):
        if features.size and features.max() >= len(values):
            row, column = np.argwhere(features >= len(values))[0]
            raise ValueError(f"{set_dir / 'features.npy'}: code {features[row, column]} at row "
                             f"{row}, column {column} is past the manifest's {len(values)} values")
        features = values[features]
    return features, labels
