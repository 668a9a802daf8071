"""The run-directory artifact layer: exact .npy round trips, refusals that
name the file, atomic writes and datasets bound to their config."""

import json
import re

import numpy as np
import pytest

from helpers import build_dataset_oracle, persist_built, series_of
from tscausal import artifacts, pipeline
from tscausal.classify import MODEL_SCHEMA_VERSION, LrModel
from tscausal.cli import main
from tscausal.codec import to_doc
from tscausal.pipeline import AR100, AR_TRAIN, DatasetSource, persist_dataset
from tscausal.seriesgen import GENERATOR_NAME

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


# ---------------------------------------------------------------------------
# refusals


def feature_run(tmp_path):
    run = tiny_run(tmp_path)
    assert main(["featurize", str(run)]) == 0
    return run


def test_load_feature_set_refuses_an_int64_features_file(tmp_path):
    run = feature_run(tmp_path)
    shape = artifacts.read_features_manifest(run).shapes[0]
    path = run / "features" / "train-split" / "features.npy"
    np.save(path, np.zeros(shape, dtype=np.int64))
    with pytest.raises(ValueError, match=re.escape(f"{path}: expected a 2-d float64 array, got a 2-d int64")):
        artifacts.load_feature_set(run, "train-split", shape)


def test_load_feature_set_refuses_an_object_features_file(tmp_path):
    run = feature_run(tmp_path)
    shape = artifacts.read_features_manifest(run).shapes[0]
    path = run / "features" / "train-split" / "features.npy"
    np.save(path, np.array([[1.0, "x"]], dtype=object), allow_pickle=True)
    with pytest.raises(ValueError, match=re.escape(f"{path}: not a readable .npy array")):
        artifacts.load_feature_set(run, "train-split", shape)


@pytest.mark.parametrize("cls, relpath, version, command", [
    (artifacts.DatasetManifest, "datasets/shift-I/manifest.json", artifacts.ARTIFACT_SCHEMA_VERSION,
     "generate"),
    (artifacts.FeaturesManifest, "features/manifest.json", artifacts.ARTIFACT_SCHEMA_VERSION,
     "featurize"),
    (LrModel, "model.json", MODEL_SCHEMA_VERSION, "train"),
], ids=["dataset", "features", "model"])
def test_a_manifest_round_trips_through_its_file(tmp_path, cls, relpath, version, command):
    run = tiny_run(tmp_path)
    for step in ("featurize", "train"):
        assert main([step, str(run)]) == 0
    document = artifacts.read_document(run / relpath, cls, version, command)
    assert isinstance(document, cls)
    copy = tmp_path / "copy.json"
    artifacts.write_document(copy, document, version)
    assert copy.read_text() == (run / relpath).read_text()
    again = artifacts.read_document(copy, cls, version, command)
    assert to_doc(again) == to_doc(document)


@pytest.mark.parametrize("relpath, key, value, step, error", [
    ("datasets/AR-train/manifest.json", "note", "hand-edited", "featurize", "unknown key 'note'"),
    ("features/manifest.json", "note", "hand-edited", "train", "unknown key 'note'"),
    # the features' config decodes under the manifest's path too
    ("features/manifest.json", "config.note", "hand-edited", "train",
     "unknown key 'config.note'"),
    ("features/manifest.json", "config.note", "hand-edited", "evaluate",
     "unknown key 'config.note'"),
    ("features/manifest.json", "config.headroom", 0.5, "train",
     "key 'config': headroom must lie in (0, 0.1), got 0.5"),
], ids=["dataset", "features", "features-config-train", "features-config-evaluate",
        "features-config-headroom"])
def test_a_manifest_with_an_unknown_key_is_refused(tmp_path, capsys, relpath, key, value, step,
                                                   error):
    run = tiny_run(tmp_path)
    for made_by in ("featurize", "train"):
        assert main([made_by, str(run)]) == 0
    path = run / relpath
    manifest = json.loads(path.read_text())
    *section, name = key.split(".")
    (manifest[section[0]] if section else manifest)[name] = value
    path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main([step, str(run)]) == 1
    assert f"error [{step}]: {path}: {error}" in capsys.readouterr().err


def test_featurize_names_a_manifest_that_is_not_json(tmp_path, capsys):
    run = tiny_run(tmp_path)
    path = run / "datasets" / "AR-train" / "manifest.json"
    path.write_text('{"schema_version": 3,\n')
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
    values = series_of(pipeline.make_dataset(pipeline.config_from_dict(TINY), AR_TRAIN))
    np.savetxt(data_dir / "values.csv", values, fmt="%.17g", delimiter=",")
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
    manifest["schema_version"] = 3
    path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["train", str(run)]) == 1
    err = capsys.readouterr().err
    assert f"{path}: unsupported schema version 3 (this release reads 4)" in err
    assert "run `featurize` again" in err


def test_evaluate_refuses_a_model_of_another_schema_version_naming_train(tmp_path, capsys):
    run = tiny_run(tmp_path)
    for step in (["featurize", str(run)], ["train", str(run)]):
        assert main(step) == 0
    path = run / "model.json"
    model = json.loads(path.read_text())
    model["schema_version"] = 2
    path.write_text(json.dumps(model))
    capsys.readouterr()
    assert main(["evaluate", str(run)]) == 1
    err = capsys.readouterr().err
    assert f"{path}: unsupported schema version 2 (this release reads 1); run `train` again" in err
    assert not (run / "report.json").exists()


@pytest.mark.parametrize("step", ["train", "evaluate"])
@pytest.mark.parametrize("edit, count", [
    (lambda shapes: shapes.pop(), 2), (lambda shapes: shapes.append([6, 65]), 4),
], ids=["fewer", "more"])
def test_a_features_manifest_whose_shapes_do_not_number_its_sets_is_refused(
        tmp_path, capsys, step, edit, count):
    run = tiny_run(tmp_path)
    for argv in (["featurize", str(run)], ["train", str(run)]):
        assert main(argv) == 0
    path = run / "features" / "manifest.json"
    manifest = json.loads(path.read_text())
    edit(manifest["shapes"])
    path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main([step, str(run)]) == 1
    assert (f"error [{step}]: {path}: {count} shapes for its config's 3 sets; run `featurize` "
            "again") in capsys.readouterr().err
    assert not (run / "report.json").exists()


def test_train_refuses_a_features_manifest_whose_model_is_not_its_configs(tmp_path, capsys):
    # the config alone names the model: a manifest that names one beside it is refused
    run = tiny_run(tmp_path)
    assert main(["featurize", str(run)]) == 0
    path = run / "features" / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["model"] = "raw"
    path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["train", str(run)]) == 1
    assert f"error [train]: {path}: unknown key 'model'" in capsys.readouterr().err
    assert not (run / "model.json").exists()


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
    (None, "key 'shapes[0]': expected an array, got null"),
    ([3], "key 'shapes[0]': expected 2 items, got 1"),
    ([3, -1], "shapes[0] must be non-negative, got [3, -1]"),
    ([3, 1.5], "key 'shapes[0][1]': expected an integer, got a number"),
], ids=["None", "shape1", "shape2", "shape3"])
def test_train_refuses_a_malformed_set_shape(tmp_path, capsys, shape, message):
    run = tiny_run(tmp_path)
    assert main(["featurize", str(run)]) == 0
    path = run / "features" / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["shapes"][0] = shape
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
    def broken_replace(src, dst):
        raise OSError("no space left on device")

    monkeypatch.setattr(artifacts.os, "replace", broken_replace)
    with pytest.raises(OSError, match="no space left"):
        persist_dataset(tmp_path / "d", DatasetSource(5, AR100, 2, 128))
    assert list((tmp_path / "d").iterdir()) == []


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


def test_featurize_refuses_a_dataset_whose_source_lacks_a_key(tmp_path, capsys):
    run = tiny_run(tmp_path, {**TINY, "test_recipes": ["AR100"]})
    path = run / "datasets" / "AR100" / "manifest.json"
    manifest = json.loads(path.read_text())
    assert manifest["source"]["recipe"]["noncausal"] is None
    del manifest["source"]["recipe"]["noncausal"]
    path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["featurize", str(run)]) == 1
    assert ("dataset was generated with no recipe.noncausal, but the config gives "
            "recipe.noncausal null" in capsys.readouterr().err)
    assert not (run / "features").exists()


def test_featurize_accepts_a_config_that_changes_only_the_features(default_run, tmp_path, capsys):
    config = tmp_path / "same-data.json"
    config.write_text(json.dumps({"model": "raw", "test_recipes": ["shift-I"]}))
    out = tmp_path / "run"
    (out / "datasets").mkdir(parents=True)
    for name in ("AR-train", "shift-I"):
        (out / "datasets" / name).symlink_to(default_run / "datasets" / name)
    assert main(["featurize", str(out), "--config", str(config)]) == 0, capsys.readouterr().err


def test_featurize_refuses_a_dataset_trimmed_below_its_config(tmp_path, capsys):
    # refused by its manifest, before the run's features, model and reports
    # are deleted: no dataset is read from disk at its set's turn
    run = feature_run(tmp_path)
    for step in ("train", "evaluate"):
        assert main([step, str(run)]) == 0
    path = run / "datasets" / "shift-I" / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["source"]["n_per_class"] = 3
    path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["featurize", str(run)]) == 1
    assert (f"error [featurize]: {path}: dataset was generated with n_per_class 3, but the "
            "config gives n_per_class 6") in capsys.readouterr().err
    for name in ("features/manifest.json", "model.json", "report.json", "report.txt"):
        assert (run / name).is_file(), name


def test_a_featurize_refused_by_a_test_dataset_leaves_the_runs_features_in_place(
        tmp_path, capsys):
    run = tiny_run(tmp_path)
    assert main(["featurize", str(run)]) == 0
    before = {p: p.read_bytes() for p in (run / "features").rglob("*") if p.is_file()}
    config = tmp_path / "other.json"
    config.write_text(json.dumps({**TINY, "n_test_per_class": TINY["n_test_per_class"] + 1}))
    capsys.readouterr()
    assert main(["featurize", str(run), "--config", str(config)]) == 1
    assert "dataset was generated with n_per_class" in capsys.readouterr().err
    after = {p: p.read_bytes() for p in (run / "features").rglob("*") if p.is_file()}
    assert after == before


def test_featurize_refuses_a_dataset_made_by_another_generator(tmp_path, capsys):
    # a seeded stream is kept only within a NumPy release (NEP 19), so another
    # NumPy is another generator, as is an earlier release's, whose manifest
    # named no NumPy version and stood beside a values.npy
    run = tiny_run(tmp_path)
    path = run / "datasets" / "shift-I" / "manifest.json"
    manifest = json.loads(path.read_text())
    assert manifest["generator"] == f"numpy {np.__version__} random.Generator(PCG64)"
    for generator in ("numpy.random.MT19937", "numpy 1.0.0 random.Generator(PCG64)",
                      "numpy.random.Generator(PCG64)"):
        path.write_text(json.dumps({**manifest, "generator": generator}))
        capsys.readouterr()
        assert main(["featurize", str(run)]) == 1
        err = capsys.readouterr().err
        assert (f"error [featurize]: {path}: dataset was generated by {generator!r}, but "
                f"this release generates with {GENERATOR_NAME!r}; run `generate` again") in err
        assert not (run / "features").exists()


def test_read_dataset_manifest_refuses_a_dataset_without_a_source(tmp_path):
    persist_built(tmp_path / "d", AR100, n_per_class=2, length=128, master_seed=5)
    path = tmp_path / "d" / "manifest.json"
    manifest = json.loads(path.read_text())
    del manifest["source"]
    path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match=re.escape(f"{path}: key 'source': required key is missing")):
        artifacts.read_dataset_manifest(tmp_path / "d", source={"master_seed": 5})


def test_featurize_refuses_a_relabelled_manifest_of_the_previous_format(tmp_path, capsys):
    # version 2 listed each series' label, seed and spec, and featurize took
    # the labels from there: an AR row made noise moved the train split
    run = tiny_run(tmp_path)
    config = pipeline.config_from_dict(TINY)
    labels = pipeline.make_dataset(config, AR_TRAIN).labels.tolist()
    specs, seeds = build_dataset_oracle(AR_TRAIN, TINY["n_train_per_class"], TINY["length"],
                                        TINY["master_seed"])
    series = [{"label": label, "seed": seed, "spec": to_doc(s)}
              for label, s, seed in zip(labels, specs, seeds)]
    series[0]["spec"].update(kind="noise_normal", ar_terms=[])
    series[0]["label"] = 0
    path = run / "datasets" / "AR-train" / "manifest.json"
    path.write_text(json.dumps({"schema_version": 2, "generator": GENERATOR_NAME,
                                "source": to_doc(pipeline.dataset_source(config, AR_TRAIN)),
                                "length": TINY["length"], "series": series}))
    capsys.readouterr()
    assert main(["featurize", str(run)]) == 1
    assert (f"error [featurize]: {path}: unsupported schema version 2 (this release reads 4); "
            "run `generate` again") in capsys.readouterr().err
    assert not (run / "features").exists()
