"""Self-tests of the benchmark's own code, on tiny configs.

    python3 -m pytest bench/tests -q
"""

import json
import os
import re
import shutil
import subprocess
import sys
import time

import pytest

import results
import run
from layertrace import Tracer
from tscausal import classify, pipeline, spectral

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*")
BENCHMARK = json.loads((run.REPO / "BENCHMARK.json").read_text())
TRACED = [
    (pipeline, "generate"),
    (pipeline, "build_dataset"),
    (pipeline, "run_experiment"),
    (pipeline, "assemble_sets"),
    (pipeline, "write_report"),
    (pipeline, "persist_dataset"),
    (pipeline, "load_dataset"),
    (pipeline, "extract_ttss"),
    (spectral, "amplitude_spectra"),
    (spectral, "fit_scaler"),
    (spectral, "scale_per_instance"),
    (spectral, "apply_scaler"),
    (classify, "train_lr"),
    (classify, "predict"),
]


def tiny_context(tmp_path, pins=None):
    env = {**os.environ, "PYTHONPATH": str(run.SRC)}
    return run.Context(work=tmp_path, checker=run.Checker(pins, criteria=False), env=env, tiny=True)


def test_wrappers_restore_originals():
    originals = [getattr(module, attr) for module, attr in TRACED]
    with pytest.raises(KeyError):
        with Tracer().installed():
            for (module, attr), original in zip(TRACED, originals):
                assert getattr(module, attr) is not original
                assert getattr(module, attr).__wrapped__ is original
            raise KeyError("leave the block by an exception")
    assert [getattr(module, attr) for module, attr in TRACED] == originals


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_digest_equals_untraced(workload, tmp_path):
    ctx = tiny_context(tmp_path)
    if workload == run.CHAINED:
        one_pass = lambda tracer: run.chained_pass(3, ctx, tracer)  # noqa: E731
    else:
        one_pass = lambda tracer: run.inprocess_pass(run.TABLE3_PASS, 3, ctx, tracer)  # noqa: E731
    assert one_pass(None).ok
    traced = one_pass(Tracer())
    assert traced.ok  # checked against the untraced pass's digests
    assert traced.tracer.spans


def test_flipped_report_byte_fails_the_pass(tmp_path, monkeypatch):
    ctx = tiny_context(tmp_path)
    assert run.inprocess_pass(run.TABLE3_PASS, 3, ctx, None).ok  # sets the reference digest
    write_report = pipeline.write_report

    def flipping_write_report(report, out_dir):
        write_report(report, out_dir)
        path = out_dir / "report.json"
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x01
        path.write_bytes(bytes(data))

    monkeypatch.setattr(pipeline, "write_report", flipping_write_report)
    result, _ = run.run_workload(run.TABLE3, 3, 0, False, ctx, setup_repeats=1)
    # the warm-up's config has no reference yet; the timed pass does
    assert (result["attempted"], result["failed"], result["correct"]) == (2, 1, False)


def test_pinned_digest_mismatch_fails(tmp_path):
    ctx = tiny_context(tmp_path, pins={"table3/desk": "0" * 64})
    assert not run.inprocess_pass(run.TABLE3_WARMUP, 3, ctx, None).ok


def test_benchmark_json_declares_the_workloads_and_names():
    assert [w["name"] for w in BENCHMARK["workloads"]] == run.WORKLOADS
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_workload_emits_exactly_the_declared_metrics(workload, trace, tmp_path):
    start = time.monotonic()
    result, _ = run.run_workload(workload, 3, 0, trace, tiny_context(tmp_path), setup_repeats=1)
    assert time.monotonic() - start < 60
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.declared_units(BENCHMARK, trace))
    assert all(NAME.fullmatch(n) for n in result["metrics"])
    if not trace:
        assert all(v > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(run.REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", run.TABLE3, "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "parent, change, verdict",
    [
        ([10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0],
         [8.0, 8.1, 7.9, 8.0, 8.05, 7.95, 8.0, 8.1, 7.9, 8.0], "gain"),
        ([10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0],
         [12.0, 12.1, 11.9, 12.0, 12.05, 11.95, 12.0, 12.1, 11.9, 12.0], "regression"),
        ([10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0],
         [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.05, 9.95, 10.1, 9.9], "within bound"),
        ([10.0, 14.0, 6.0, 12.0, 8.0, 10.0, 13.0, 7.0, 11.0, 9.0],
         [10.0, 14.0, 6.0, 12.0, 8.0, 10.0, 13.0, 7.0, 11.0, 9.0], "unresolved"),
    ],
)
def test_compare_verdicts(parent, change, verdict):
    seeds = range(len(parent))
    got, _ = results.judge(dict(zip(seeds, parent)), dict(zip(seeds, change)), "lower", 0.1)
    assert got == verdict
