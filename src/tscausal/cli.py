"""Command-line entry point.

Six subcommands: ``generate``, ``featurize``, ``train``, ``evaluate``,
``reproduce``, ``plot``. The first four compose through a run directory
(datasets, then features, then a model, then a report), whose files
``artifacts`` alone names, writes and deletes; they call the stage functions
``reproduce`` calls, so both forms give the same bits. Exit codes: 0
success, 1 runtime failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import artifacts, classify, pipeline, spectral
from .codec import from_doc
from .seriesgen import Kind, ProcessSpec, generate_many


class ConfigError(Exception):
    """A config file that cannot be parsed or validated."""


def _load_config(path: str | Path) -> pipeline.ExperimentConfig:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    try:
        doc = artifacts.read_json_object(p)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    try:
        return pipeline.config_from_dict(doc)
    except ValueError as exc:
        raise ConfigError(f"{p}: {exc}") from exc


def _run_dir(out: str | None, seed: int, run_name: str | None) -> Path:
    """Explicit --out wins; otherwise a new directory
    runs/<timestamp>-seed<seed>[-<name>], with -2, -3, ... appended while
    the name is taken. It is made here, by a mkdir that fails on an existing
    name, so two runs in the same second, even racing ones, never share one."""
    if out is not None:
        return Path(out)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    suffix = f"-{run_name}" if run_name else ""
    base = path = Path("runs") / f"{stamp}-seed{seed}{suffix}"
    n = 1
    while True:
        try:
            path.mkdir(parents=True)
            return path
        except FileExistsError:
            n += 1
            path = Path(f"{base}-{n}")


# ---------------------------------------------------------------------------
# subcommands


def cmd_generate(args) -> int:
    config = _load_config(args.config)
    if args.seed is not None:
        config = replace(config, master_seed=args.seed)
    run_dir = _run_dir(args.out, config.master_seed, args.run_name)
    artifacts.invalidate_datasets(run_dir)
    artifacts.write_config(run_dir, config)
    # a dataset is its source: featurize simulates it at its set's turn
    for recipe in (config.train_recipe, *config.test_recipes):
        pipeline.persist_dataset(artifacts.dataset_dir(run_dir, recipe.name),
                                 pipeline.dataset_source(config, recipe))
    print(f"wrote {1 + len(config.test_recipes)} dataset manifests under {run_dir}")
    return 0


def cmd_featurize(args) -> int:
    run_dir = Path(args.run_dir)
    config = _load_config(run_dir / artifacts.CONFIG_FILE)

    # every dataset manifest is checked against config.json before anything
    # of the run is deleted; each dataset is simulated when its set's turn comes
    manifests = {
        recipe.name: artifacts.read_dataset_manifest(artifacts.dataset_dir(run_dir, recipe.name),
                                                     pipeline.dataset_source(config, recipe))
        for recipe in (config.train_recipe, *config.test_recipes)
    }

    def load(recipe: pipeline.DatasetRecipe):
        return pipeline.load_dataset(artifacts.dataset_dir(run_dir, recipe.name),
                                     manifest=manifests.pop(recipe.name))

    artifacts.invalidate_features(run_dir)
    manifest = artifacts.persist_features(run_dir, pipeline.config_to_dict(config),
                                          pipeline.featurize_sets(config, load),
                                          pipeline.feature_values(config))
    print(f"wrote {len(manifest.shapes)} feature sets ({config.model}) under {run_dir}")
    return 0


def _feature_sets(run_dir: Path) -> tuple[pipeline.ExperimentConfig, list[tuple]]:
    """The features' config and each set's (display name, directory, shape,
    the values its features are coded against): ``load_feature_set``'s
    arguments after the run directory, led by the set's name."""
    manifest = artifacts.read_features_manifest(run_dir)
    try:
        config = from_doc(pipeline.ExperimentConfig, manifest.config, "config")
    except ValueError as exc:
        raise ValueError(f"{run_dir / artifacts.FEATURES_MANIFEST}: {exc}") from exc
    names = pipeline.set_names(config)
    if len(manifest.shapes) != len(names):
        raise ValueError(f"{run_dir / artifacts.FEATURES_MANIFEST}: {len(manifest.shapes)} "
                         f"shapes for its config's {len(names)} sets; run `featurize` again")
    return config, [(*name, shape, manifest.values) for name, shape in zip(names, manifest.shapes)]


def cmd_train(args) -> int:
    run_dir = Path(args.run_dir)
    config, sets = _feature_sets(run_dir)
    name, *where = sets[0]
    features, labels = artifacts.load_feature_set(run_dir, *where)
    model = pipeline.train_model(config, name, features, labels)
    out_path = Path(args.model_out) if args.model_out else run_dir / artifacts.MODEL_FILE
    classify.save_model(model, out_path)
    print(
        f"trained {config.model} model on {labels.size} instances: "
        f"converged={model.converged} loss={model.final_loss:.6g} -> {out_path}"
    )
    return 0


def cmd_evaluate(args) -> int:
    run_dir = Path(args.run_dir)
    config, sets = _feature_sets(run_dir)
    model_path = Path(args.model_path) if args.model_path else run_dir / artifacts.MODEL_FILE
    model = classify.load_model(model_path)
    expected = pipeline.config_fingerprint(config)
    if model.fingerprint != expected:
        raise ValueError(
            f"model {model_path} was trained under config fingerprint {model.fingerprint}, "
            f"but the features were made under {expected}; run `train` again"
        )
    # a set's files are read before its stage starts, so load errors name the file alone
    rows = tuple(
        pipeline.score_set(model, name, *artifacts.load_feature_set(run_dir, *where))
        for name, *where in sets
    )
    report = pipeline.ExperimentReport(config=config, rows=rows)
    out_dir = Path(args.out) if args.out else run_dir
    pipeline.write_report(report, out_dir)
    print(pipeline.report_to_text(report), end="")
    return 0


def cmd_reproduce(args) -> int:
    config = pipeline.table_config(args.table, scale=args.scale, seed=args.seed)
    report = pipeline.run_experiment(config)
    run_dir = _run_dir(args.out, config.master_seed, args.run_name)
    # a chained run's files in run_dir are not this config's
    artifacts.invalidate_datasets(run_dir)
    artifacts.write_config(run_dir, config)
    pipeline.write_report(report, run_dir)
    print(pipeline.report_to_text(report), end="")
    print(f"report written to {run_dir}")
    return 0


# representative realizations behind the plot panels; coefficients sit in the
# middle of the experiment ranges
def _panel_specs(length: int) -> list[tuple[str, ProcessSpec]]:
    arma_kw = dict(ar_terms=((2, 0.85),), ma_terms=((0, 1.0), (3, 0.85)), noise_variance=0.01)
    return [
        ("ar15", ProcessSpec(kind=Kind.AR, length=length, ar_terms=((15, 0.85),), noise_variance=0.01)),
        ("ar100", ProcessSpec(kind=Kind.AR, length=length, ar_terms=((100, 0.85),), noise_variance=0.01)),
        ("arma", ProcessSpec(kind=Kind.ARMA, length=length, **arma_kw)),
        ("arfima", ProcessSpec(kind=Kind.ARFIMA, length=length, d=0.3, **arma_kw)),
        ("noise-normal", ProcessSpec(kind=Kind.NOISE_NORMAL, length=length, noise_variance=0.01)),
        ("noise-uniform", ProcessSpec(kind=Kind.NOISE_UNIFORM, length=length, uniform_lo=-0.6, uniform_hi=0.6)),
    ]


def cmd_plot(args) -> int:
    config = pipeline.table_config("table3", scale="desk", seed=args.seed)
    names, specs = zip(*_panel_specs(config.length))
    seeds = [pipeline.derive_seed(config.master_seed, "plot", name) for name in names]
    values = generate_many(specs, seeds)
    spectra = spectral.amplitude_spectra(values)
    # TTSS curves use the table3 feature stage, whose per-instance scaling
    # fits nothing, so no training split is simulated
    stage = pipeline.fit_feature_stage(config, np.empty((0, config.length)))
    curves = {f"spectrum-{n}": spectra[names.index(n)]
              for n in ("ar15", "noise-normal", "noise-uniform")}
    curves.update((f"ttss-{n}", ttss) for n, ttss in zip(names, stage.transform(values)))
    run_dir = _run_dir(args.out, config.master_seed, args.run_name)
    for stem, curve in curves.items():
        pipeline.emit_plot_data(curve, run_dir / f"{stem}.dat")
    print(f"wrote {len(curves)} plot data files under {run_dir}")
    return 0


# ---------------------------------------------------------------------------
# parser


def _run_name(name: str) -> str:
    """A --run-name ends one directory name under runs/, so, like a recipe
    name, it holds no '/', '\\' or NUL."""
    if any(c in name for c in "/\\\0"):
        raise argparse.ArgumentTypeError(f"{name!r} must not contain '/', '\\' or NUL")
    return name


def _add_common_output_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--out", help="output directory (default: runs/<timestamp>-seed<seed>)")
    sub.add_argument("--run-name", type=_run_name,
                     help="suffix for the default output directory name")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tscausal",
        description="Classify time series as causal vs non-causal via spectral and chaotic-neuron features.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="record the configured datasets in a run directory")
    p.add_argument("--config", required=True, help="experiment config JSON file")
    p.add_argument("--seed", type=int, help="override the config master seed")
    _add_common_output_flags(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("featurize", help="extract features for every dataset in a run directory")
    p.add_argument("run_dir",
                   help="run directory produced by `generate`, featurized under its config.json")
    p.set_defaults(func=cmd_featurize)

    p = sub.add_parser("train", help="train the classifier on the train-split features")
    p.add_argument("run_dir", help="run directory produced by `featurize`")
    p.add_argument("--model-out", help="model file path (default: <run_dir>/model.json)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a trained model on every feature set")
    p.add_argument("run_dir", help="run directory produced by `featurize`")
    p.add_argument("--model-path", help="model file (default: <run_dir>/model.json)")
    p.add_argument("--out", help="report directory (default: the run directory)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("reproduce", help="run a bundled experiment preset end to end")
    p.add_argument("table", choices=sorted(pipeline.TABLE_MODELS), help="experiment preset")
    p.add_argument("--scale", choices=pipeline.SCALES, default="desk",
                   help="desk: 250/150 per class; paper: 1250/1250 per class")
    p.add_argument("--seed", type=int, default=42, help="master seed")
    _add_common_output_flags(p)
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("plot", help="emit two-column .dat files for spectra and TTSS curves")
    p.add_argument("--seed", type=int, default=42, help="master seed")
    _add_common_output_flags(p)
    p.set_defaults(func=cmd_plot)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error [{args.command}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
