"""The run-directory artifact layer: exact .npy round trips, refusals that
name the file, atomic writes and datasets bound to their config."""

import dataclasses
import json
import re

import numpy as np
import pytest

from tscausal import artifacts
from tscausal.cli import main
from tscausal.codec import to_doc
from tscausal.pipeline import AR100, AR_TRAIN, build_dataset, load_dataset, persist_dataset

TINY = {
    "master_seed": 7,
    "model": "fft",
    "test_recipes": ["shift-I"],
    "n_train_per_class": 12,
    "n_test_per_class": 6,
    "length": 128,
}

MAX = np.finfo(np.float64).max
SPECIAL = np.array([
    -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308, np.finfo(np.float64).tiny,
    MAX, -MAX, 1 / 3, -1e-300,
])


def finite_doubles(rng, shape):
    """Random finite doubles over every exponent, with the special values."""
    bits = rng.integers(0, 2**64, size=shape, dtype=np.uint64)
    values = bits.view(np.float64)
    values[~np.isfinite(values)] = 1.5
    values.flat[: SPECIAL.size] = SPECIAL
    return values


def no_temporary_files(root):
    return [p for p in root.rglob("*") if p.name.endswith(".tmp")] == []


def tiny_run(tmp_path, config=TINY):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    run = tmp_path / "run"
    assert main(["generate", "--config", str(config_path), "--out", str(run)]) == 0
    return run


# ---------------------------------------------------------------------------
# exact round trips


def test_array_round_trip_is_bit_exact(tmp_path):
    features = finite_doubles(np.random.default_rng(1), (7, 33))
    artifacts.save_array(tmp_path / "features.npy", features)
    loaded = artifacts.load_array(tmp_path / "features.npy", np.float64, 2)
    assert np.array_equal(loaded.view(np.uint64), features.view(np.uint64))
    assert no_temporary_files(tmp_path)


def test_dataset_round_trip_keeps_every_bit(tmp_path):
    data = build_dataset(AR_TRAIN, n_per_class=3, length=64, master_seed=4)
    values = finite_doubles(np.random.default_rng(2), data.values.shape)
    data = dataclasses.replace(data, values=values)
    persist_dataset(data, tmp_path / "d")
    loaded = load_dataset(tmp_path / "d")
    assert np.array_equal(loaded.values.view(np.uint64), values.view(np.uint64))
    assert not loaded.values.flags.writeable and not loaded.labels.flags.writeable


# ---------------------------------------------------------------------------
# refusals


def test_load_dataset_refuses_an_int64_values_file(tmp_path):
    persist_dataset(build_dataset(AR100, n_per_class=2, length=128, master_seed=5), tmp_path / "d")
    path = tmp_path / "d" / "values.npy"
    np.save(path, np.zeros((4, 128), dtype=np.int64))
    with pytest.raises(ValueError, match=re.escape(f"{path}: expected a 2-d float64 array, got a 2-d int64")):
        load_dataset(tmp_path / "d")


def test_load_dataset_refuses_an_object_values_file(tmp_path):
    persist_dataset(build_dataset(AR100, n_per_class=2, length=128, master_seed=5), tmp_path / "d")
    path = tmp_path / "d" / "values.npy"
    np.save(path, np.array([[1.0, "x"]], dtype=object), allow_pickle=True)
    with pytest.raises(ValueError, match=re.escape(f"{path}: not a readable .npy array")):
        load_dataset(tmp_path / "d")


def test_load_dataset_refuses_a_truncated_values_file(tmp_path):
    persist_dataset(build_dataset(AR100, n_per_class=2, length=128, master_seed=5), tmp_path / "d")
    path = tmp_path / "d" / "values.npy"
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError, match=re.escape(f"{path}: not a readable .npy array")):
        load_dataset(tmp_path / "d")


@pytest.mark.parametrize("cls, relpath, sort_keys", [
    (artifacts.DatasetManifest, "datasets/shift-I/manifest.json", False),
    (artifacts.FeaturesManifest, "features/manifest.json", True),
], ids=["dataset", "features"])
def test_a_manifest_round_trips_through_its_file(tmp_path, cls, relpath, sort_keys):
    run = tiny_run(tmp_path)
    assert main(["featurize", str(run)]) == 0
    version = artifacts.ARTIFACT_SCHEMA_VERSION
    manifest = artifacts.read_document(run / relpath, cls, version)
    assert isinstance(manifest, cls)
    text = json.dumps({"schema_version": version, **to_doc(manifest)}, indent=2,
                      sort_keys=sort_keys) + "\n"
    assert text == (run / relpath).read_text()
    copy = tmp_path / "copy.json"
    copy.write_text(text)
    assert artifacts.read_document(copy, cls, version) == manifest


@pytest.mark.parametrize("relpath, entries, step", [
    ("datasets/AR-train/manifest.json", "series", "featurize"),
    ("features/manifest.json", "sets", "train"),
], ids=["dataset", "features"])
def test_a_manifest_with_an_unknown_key_is_refused(tmp_path, capsys, relpath, entries, step):
    run = tiny_run(tmp_path)
    assert main(["featurize", str(run)]) == 0
    path = run / relpath
    manifest = json.loads(path.read_text())
    manifest[entries][1]["note"] = "hand-edited"
    path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main([step, str(run)]) == 1
    assert f"error [{step}]: {path}: unknown key '{entries}[1].note'" in capsys.readouterr().err


def test_featurize_names_a_manifest_that_is_not_json(tmp_path, capsys):
    run = tiny_run(tmp_path)
    path = run / "datasets" / "AR-train" / "manifest.json"
    path.write_text('{"schema_version": 2,\n')
    capsys.readouterr()
    assert main(["featurize", str(run)]) == 1
    assert f"error [featurize]: {path}: invalid JSON at line 2, column 1" in capsys.readouterr().err


def test_featurize_refuses_an_old_csv_run_directory(tmp_path, capsys):
    run = tiny_run(tmp_path)
    data_dir = run / "datasets" / "AR-train"
    manifest_path = data_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["schema_version"] = 1
    del manifest["source"]
    manifest_path.write_text(json.dumps(manifest))
    values = np.load(data_dir / "values.npy")
    np.savetxt(data_dir / "values.csv", values, fmt="%.17g", delimiter=",")
    (data_dir / "values.npy").unlink()
    capsys.readouterr()
    assert main(["featurize", str(run)]) == 1
    err = capsys.readouterr().err
    assert f"{manifest_path}: unsupported schema version 1" in err
    assert "run `generate` again" in err


def test_train_refuses_an_old_features_manifest(tmp_path, capsys):
    run = tiny_run(tmp_path)
    assert main(["featurize", str(run)]) == 0
    path = run / "features" / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["schema_version"] = 1
    path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["train", str(run)]) == 1
    assert f"{path}: unsupported schema version 1" in capsys.readouterr().err


def test_evaluate_refuses_a_truncated_features_file(tmp_path, capsys):
    run = tiny_run(tmp_path)
    for step in (["featurize", str(run)], ["train", str(run)]):
        assert main(step) == 0
    path = run / "features" / "held-out" / "features.npy"
    path.write_bytes(path.read_bytes()[:100])
    capsys.readouterr()
    assert main(["evaluate", str(run)]) == 1
    assert f"error [evaluate]: {path}: not a readable .npy array" in capsys.readouterr().err
    assert not (run / "report.json").exists()


def test_evaluate_refuses_features_that_disagree_with_the_manifest_shape(tmp_path, capsys):
    run = tiny_run(tmp_path)
    for step in (["featurize", str(run)], ["train", str(run)]):
        assert main(step) == 0
    path = run / "features" / "shift-I" / "features.npy"
    np.save(path, np.load(path)[:-1])
    capsys.readouterr()
    assert main(["evaluate", str(run)]) == 1
    assert f"{path.parent}: corrupt feature set: 11x65 features and 12 labels" in capsys.readouterr().err


@pytest.mark.parametrize("shape, message", [
    (None, "key 'sets[0].shape': expected an array, got null"),
    ([3], "key 'sets[0].shape': expected 2 items, got 1"),
    ([3, -1], "key 'sets[0]': shape must be non-negative, got [3, -1]"),
    ([3, 1.5], "key 'sets[0].shape[1]': expected an integer, got a number"),
], ids=["None", "shape1", "shape2", "shape3"])
def test_train_refuses_a_malformed_set_shape(tmp_path, capsys, shape, message):
    run = tiny_run(tmp_path)
    assert main(["featurize", str(run)]) == 0
    path = run / "features" / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["sets"][0]["shape"] = shape
    path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["train", str(run)]) == 1
    assert f"error [train]: {path}: {message}" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# atomic writes


def test_a_failed_write_keeps_the_old_file_and_leaves_no_temporary(tmp_path):
    path = tmp_path / "report.txt"
    artifacts.write_text(path, "old\n")

    def write_half(fh):
        fh.write(b"ne")
        raise RuntimeError("interrupted")

    with pytest.raises(RuntimeError, match="interrupted"):
        artifacts.atomic_write(path, write_half)
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.txt"]


def broken_save(fh, array, allow_pickle=False):
    fh.write(b"\x93NUMPY")
    raise OSError("no space left on device")


def test_a_failed_dataset_write_leaves_nothing(tmp_path, monkeypatch):
    data = build_dataset(AR100, n_per_class=2, length=128, master_seed=5)
    monkeypatch.setattr(np, "save", broken_save)
    with pytest.raises(OSError, match="no space left"):
        persist_dataset(data, tmp_path / "d")
    assert list((tmp_path / "d").iterdir()) == []


def test_a_failed_rewrite_leaves_no_manifest_over_old_values(tmp_path, monkeypatch):
    persist_dataset(build_dataset(AR100, n_per_class=2, length=128, master_seed=5), tmp_path / "d")
    monkeypatch.setattr(np, "save", broken_save)
    with pytest.raises(OSError):
        persist_dataset(build_dataset(AR100, n_per_class=3, length=128, master_seed=6), tmp_path / "d")
    assert [p.name for p in (tmp_path / "d").iterdir()] == ["values.npy"]
    with pytest.raises(FileNotFoundError, match="missing dataset manifest"):
        load_dataset(tmp_path / "d")


def test_a_failed_featurize_leaves_no_features_manifest(tmp_path, monkeypatch, capsys):
    run = tiny_run(tmp_path)
    assert main(["featurize", str(run)]) == 0
    monkeypatch.setattr(np, "save", broken_save)
    capsys.readouterr()
    assert main(["featurize", str(run)]) == 1
    assert "no space left" in capsys.readouterr().err
    assert not (run / "features" / "manifest.json").exists()
    assert no_temporary_files(run)


def test_a_chained_run_leaves_no_temporary_files(tmp_path, capsys):
    run = tiny_run(tmp_path)
    for step in (["featurize", str(run)], ["train", str(run)], ["evaluate", str(run)]):
        assert main(step) == 0
    assert (run / "report.json").is_file()
    assert no_temporary_files(run)


# ---------------------------------------------------------------------------
# datasets bound to their config


@pytest.fixture(scope="module")
def default_run(tmp_path_factory):
    """A run generated from the default config, ``{}``."""
    return tiny_run(tmp_path_factory.mktemp("default"), {})


def changed_train_recipe():
    doc = to_doc(AR_TRAIN)
    doc["noncausal"]["variance"] = 0.02
    return doc


@pytest.mark.parametrize("override, key, got, want", [
    ({"master_seed": 7}, "master_seed", "42", "7"),
    ({"n_test_per_class": 100}, "n_per_class", "150", "100"),
    ({"length": 1000}, "length", "2000", "1000"),
    ({"train_recipe": changed_train_recipe()}, "recipe.noncausal.variance", "0.01", "0.02"),
])
def test_featurize_refuses_datasets_generated_from_another_config(
        default_run, tmp_path, capsys, override, key, got, want):
    config = tmp_path / "other.json"
    config.write_text(json.dumps(override))
    capsys.readouterr()
    assert main(["featurize", str(default_run), "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert f"dataset was generated with {key} {got}, but the config gives {key} {want}" in err
    assert not (default_run / "features").exists()
    assert no_temporary_files(default_run)


def test_featurize_accepts_a_config_that_changes_only_the_features(default_run, tmp_path, capsys):
    config = tmp_path / "same-data.json"
    config.write_text(json.dumps({"model": "raw", "test_recipes": ["shift-I"]}))
    out = tmp_path / "run"
    (out / "datasets").mkdir(parents=True)
    for name in ("AR-train", "shift-I"):
        (out / "datasets" / name).symlink_to(default_run / "datasets" / name)
    assert main(["featurize", str(out), "--config", str(config)]) == 0, capsys.readouterr().err


def test_featurize_refuses_a_dataset_trimmed_below_its_config(tmp_path, capsys):
    run = tiny_run(tmp_path)
    shift = run / "datasets" / "shift-I"
    manifest = json.loads((shift / "manifest.json").read_text())
    manifest["series"] = manifest["series"][:3]
    (shift / "manifest.json").write_text(json.dumps(manifest))
    np.save(shift / "values.npy", np.load(shift / "values.npy")[:3])
    capsys.readouterr()
    assert main(["featurize", str(run)]) == 1
    err = capsys.readouterr().err
    assert f"{shift / 'manifest.json'}: holds 3 series" in err
    assert "n_per_class 6 over 2 class(es) gives 12" in err
    assert not (run / "features").exists()


def test_featurize_refuses_a_spec_length_that_is_not_the_dataset_length(tmp_path, capsys):
    run = tiny_run(tmp_path)
    path = run / "datasets" / "shift-I" / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["series"][4]["spec"]["length"] = 300
    path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["featurize", str(run)]) == 1
    err = capsys.readouterr().err
    assert f"{path}: 'series[4].spec.length' is 300, but the dataset's length is 128" in err


def test_load_dataset_refuses_a_dataset_without_a_source(tmp_path):
    persist_dataset(build_dataset(AR100, n_per_class=2, length=128, master_seed=5), tmp_path / "d")
    with pytest.raises(ValueError, match="records no generating config"):
        load_dataset(tmp_path / "d", source={"master_seed": 5})
