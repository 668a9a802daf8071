"""Run-directory artifacts: the one path that writes and reads the files of a
run directory.

Arrays are NumPy ``.npy`` files (NEP 1). They hold the raw bits, so every
value round-trips exactly. Every file is written to a hidden sibling and then
renamed into place, so a command that fails or is killed leaves no partial
file under a final name. There is no fsync, so this guards against a failing
process, not against power loss.

Dataset and features manifests carry ``ARTIFACT_SCHEMA_VERSION``. Version 1
was the CSV layout; run directories written in it are refused and must be
generated again. Reports carry ``pipeline.SCHEMA_VERSION`` instead.
"""

from __future__ import annotations

import json
import os
from collections.abc import Callable
from pathlib import Path
from typing import IO

import numpy as np

from .codec import DecodeError, from_doc, to_doc
from .seriesgen import GENERATOR_NAME, Dataset, ProcessSpec

ARTIFACT_SCHEMA_VERSION = 2


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


def read_manifest(
    path: Path, keys: tuple[str, ...], entry_keys: tuple[str, tuple[str, ...]]
) -> dict:
    """The JSON object in ``path``. A schema version other than this
    release's, or a missing key, is a ValueError naming the file and the key.
    ``entry_keys = (name, required)`` names the list of entries among ``keys``
    and the keys each of its objects must have."""
    manifest = read_json_object(path)
    version = manifest.get("schema_version")
    if version != ARTIFACT_SCHEMA_VERSION:
        raise ValueError(
            f"{path}: unsupported schema version {version!r} (this release reads "
            f"{ARTIFACT_SCHEMA_VERSION}, the .npy layout); run `generate` again"
        )
    for key in keys:
        if key not in manifest:
            raise ValueError(f"{path}: missing key {key!r}")
    name, required = entry_keys
    entries = manifest[name]
    if not isinstance(entries, list):
        raise ValueError(f"{path}: {name!r} must be a list")
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ValueError(f"{path}: '{name}[{i}]' must be an object")
        for key in required:
            if key not in entry:
                raise ValueError(f"{path}: missing key '{name}[{i}].{key}'")
    return manifest


# ---------------------------------------------------------------------------
# datasets


def persist_dataset(dataset: Dataset, dir_path: str | Path, source: dict | None = None) -> None:
    """Write ``values.npy`` (one series per row), then ``manifest.json``.

    ``source`` records what generated the dataset (``pipeline.dataset_source``);
    ``load_dataset`` can hold a config to it.
    """
    if not dataset.specs:
        raise ValueError("refusing to persist an empty dataset")
    out = Path(dir_path)
    out.mkdir(parents=True, exist_ok=True)
    manifest_path = out / "manifest.json"
    # no manifest may point at values that are being replaced
    manifest_path.unlink(missing_ok=True)
    save_array(out / "values.npy", dataset.values)
    manifest = {
        "schema_version": ARTIFACT_SCHEMA_VERSION,
        "generator": GENERATOR_NAME,
        "source": source,
        "length": dataset.values.shape[1],
        "series": [
            {"label": label, "seed": seed, "spec": to_doc(spec)}
            for label, seed, spec in zip(dataset.labels.tolist(), dataset.seeds, dataset.specs)
        ],
    }
    write_text(manifest_path, json.dumps(manifest, indent=2) + "\n")


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
    manifest = read_manifest(
        manifest_path, ("source", "series", "length"), ("series", ("label", "seed", "spec"))
    )
    series, length = manifest["series"], manifest["length"]
    if source is not None:
        _check_source(manifest_path, manifest["source"], source)
        n, recipe = source["n_per_class"], source["recipe"]
        classes = sum(recipe[family] is not None for family in ("causal", "noncausal"))
        if len(series) != n * classes:
            raise ValueError(
                f"{manifest_path}: holds {len(series)} series, but the config's n_per_class "
                f"{n} over {classes} class(es) gives {n * classes}; run `generate` again"
            )
    values_path = src / "values.npy"
    values = load_array(values_path, np.float64, 2)
    if not series or values.shape != (len(series), length):
        raise ValueError(
            f"{values_path}: corrupt dataset: {values.shape[0]}x{values.shape[1]} values for "
            f"{len(series)} manifest entries of length {length}"
        )
    specs = []
    for i, entry in enumerate(series):
        try:
            spec = from_doc(ProcessSpec, entry["spec"], f"series[{i}].spec")
        except DecodeError as exc:
            raise ValueError(f"{manifest_path}: {exc}") from exc
        if spec.length != length:
            raise ValueError(
                f"{manifest_path}: 'series[{i}].spec.length' is {spec.length}, but the "
                f"dataset's length is {length}"
            )
        label, seed = entry["label"], entry["seed"]
        if type(label) is not int or label != spec.label:
            raise ValueError(
                f"{manifest_path}: 'series[{i}].label' is {label!r}, but its "
                f"{spec.kind.value} spec has label {spec.label}"
            )
        if type(seed) is not int or seed < 0:
            raise ValueError(
                f"{manifest_path}: 'series[{i}].seed' must be a non-negative integer, "
                f"got {seed!r}"
            )
        specs.append(spec)
    return Dataset(values, tuple(specs), tuple(entry["seed"] for entry in series))
