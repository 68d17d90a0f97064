"""The benchmark's own tests: deterministic inputs, self-time arithmetic, and
complete per-layer coverage of a traced run.

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import worker  # noqa: E402  (puts src/ on the path)
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(Path(directory).iterdir())}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(workload, tmp_path):
    runs = []
    for seed, name in ((7, "a"), (7, "b"), (8, "c")):
        workdir = tmp_path / name
        workdir.mkdir()
        ops, _ = workloads.build(workload, seed, workdir)
        runs.append(([op.spec for op in ops], _files(workdir)))
    assert runs[0] == runs[1]
    assert runs[0][0] != runs[2][0]


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 8]
    parent = [-1, 0, 0, 2]
    start = [0.0, 1.0, 5.0, 6.0]
    end = [10.0, 4.0, 9.0, 8.0]
    assert tracing.self_times(parent, start, end).tolist() == [3.0, 3.0, 2.0, 2.0]


def test_recorder_nests_spans_and_sums_self_time_per_group():
    rec = tracing.Recorder()
    inner = rec.wrap("linalg.determinant", lambda: 1.0)
    outer = rec.wrap("stability.m_matrix", lambda: inner() + inner())
    assert outer() == 2.0
    name, parent, start, end = rec.spans()
    assert [rec.functions[i] for i in name] == ["stability.m_matrix", "linalg.determinant",
                                                "linalg.determinant"]
    assert parent.tolist() == [-1, 0, 0]
    own = tracing.self_times(parent, start, end)
    metrics = tracing.per_layer_metrics(rec, ops=2, overhead_ratio=1.0)
    assert metrics["linalg.determinant.calls"]["value"] == 1.0
    assert metrics["stability.criteria.calls"]["value"] == 0.5
    assert np.isclose(metrics["stability.criteria.self_ms"]["value"], own[0] * 1e3 / 2)
    assert np.isclose(metrics["linalg.self_ms"]["value"], (own[1] + own[2]) * 1e3 / 2)


def test_patch_covers_from_imports_and_restores_originals():
    import epistab
    from epistab import cli, covid, seir, sim, stability

    bindings = [(sim, "covid_rhs"), (sim, "sum_rate"), (stability, "determinant"),
                (cli, "add_compound"), (covid, "li_wang_exact"), (seir, "add_compound"),
                (epistab, "mult_compound")]
    originals = [getattr(mod, attr) for mod, attr in bindings]
    with tracing.Patch(tracing.Recorder()):
        for (mod, attr), original in zip(bindings, originals):
            assert getattr(mod, attr) is not original, f"{mod.__name__}.{attr}"
        assert sim.covid_rhs is covid.rhs
    assert [getattr(mod, attr) for mod, attr in bindings] == originals


# the layers each workload must reach, from the per-layer table in README.md
MOVES = {
    "analyse": ("cli.main.calls", "cli.out_bytes", "linalg.determinant.calls",
                "compound.add_compound.calls", "stability.criteria.calls",
                "covid.report.self_ms", "seir.report.self_ms", "paper_check.claims",
                "paper_check.flagged"),
    "simulate": ("covid.rhs.calls", "seir.rhs3.calls", "sim.steps",
                 "sim.invariance_audit.self_ms", "sim.csv_bytes"),
    "matrices": ("compound.mult_compound.calls", "compound.entries", "linalg.inverse.calls",
                 "lozinskii.measure.calls", "linalg.eigenvalues.calls"),
    "ensemble": ("covid.rhs.states", "seir.rhs3.calls", "sim.integrate.self_ms"),
}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_run_reports_every_per_layer_metric(workload, tmp_path):
    _, ops = workloads.build(workload, 3, tmp_path)   # one op of each kind
    checker = worker.Checker()
    metrics, samples = worker.run_traced(ops, 0.0, checker, tmp_path / "spans.npz")
    assert checker.failures == []     # includes traced output == untraced output
    assert samples == len(ops)
    assert list(metrics) == [m["name"] for m in BENCHMARK["per_layer"]]
    assert all(metrics[m["name"]]["unit"] == m["unit"] for m in BENCHMARK["per_layer"])
    for name in MOVES[workload]:
        assert metrics[name]["value"] > 0, name
    assert metrics["trace.overhead_ratio"]["value"] > 0
    with np.load(tmp_path / "spans.npz") as spans:
        assert len(spans["name"]) == len(spans["parent"]) == len(spans["start"]) > 0


def test_plain_run_reports_the_end_to_end_metrics(tmp_path):
    ops, _ = workloads.build("matrices", 3, tmp_path)
    checker = worker.Checker()
    metrics, samples = worker.run_plain(ops, 0.0, checker)
    assert checker.failures == []
    assert samples == worker.MIN_PASSES * len(ops) > 100
    names = {m["name"] for m in BENCHMARK["end_to_end"]}
    assert set(metrics) | {"setup_s"} == names


def test_checker_flags_a_changed_repeat():
    op = workloads.Op("k", "spec", lambda: None, lambda out: out, lambda out: None)
    checker = worker.Checker()
    assert checker.record(0, op, b"x", None)
    assert checker.record(0, op, b"x", None)
    assert not checker.record(0, op, b"y", None)
    assert checker.attempted == 3 and len(checker.failures) == 1


def test_without_sources_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, *BENCHMARK["command"][1:], "--workload", "analyse",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
