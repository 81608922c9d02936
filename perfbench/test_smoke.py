"""Tiny-scale smoke test of the benchmark itself.

Run from the repository root with ``python -m pytest perfbench -q``.  The
workloads are shrunk so each run takes about a second; everything else (the
run skeleton, the checks, the tracer, the printed report) is the code the
full-size benchmark runs.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "iter-2d": workloads.LibrarySpec((16, 16), 600, (2, 1), "single", 1e-6, "rand"),
    "hiacc-3d": workloads.LibrarySpec((8, 8, 8), 300, (1,), "double", 1e-12, "cluster"),
    "serve-mixed": workloads.ServeSpec((16, 16), 300, "single", 1e-6),
}

#: Ops of a few tens of milliseconds: the tracer's bookkeeping is a small
#: share of them, so the full-size coverage gate applies.
MID = workloads.LibrarySpec((128, 128), 1 << 15, (2, 1), "single", 1e-6, "rand")


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "WORKLOADS", TINY)
    # Sub-millisecond ops: the tracer's own per-call bookkeeping is a large
    # share of them, so the full-size coverage gate does not apply here.
    monkeypatch.setattr(workloads, "MIN_COVERAGE", 0.0)
    monkeypatch.setattr(run, "HERE", tmp_path)
    return tmp_path


def _run(name, trace, capsys):
    code = run.main(["--workload", name, "--seed", "7", "--seconds", "0.1",
                     "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_declared_metric_is_printed_with_its_unit(tiny, capsys, name, trace):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    code, lines, result = _run(name, trace, capsys)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == declared
    for metric, unit in declared.items():
        assert any(line.split()[:1] == [metric] and line.split()[2] == unit
                   for line in lines[:-1]), metric
    record = json.loads((tiny / "out" / "results.jsonl").read_text().splitlines()[-1])
    for key in ("seed", "commit", "nproc", "numpy", "scipy", "threads"):
        assert key in record


@pytest.mark.parametrize("name", ["iter-2d", "serve-mixed"])
def test_corrupted_output_fails_the_accuracy_check(tiny, capsys, monkeypatch, name):
    from repro import Plan

    execute = Plan.execute

    def corrupted(self, data, out=None):
        result = execute(self, data, out=out)
        result *= 1.001
        return result

    monkeypatch.setattr(Plan, "execute", corrupted)
    code, lines, result = _run(name, 0, capsys)
    assert code == 1
    assert not result["correct"] and result["failed"] > 0
    assert result["metrics"]["ok_ratio"]["value"] < 1.0
    assert any("exceed the tolerance" in line for line in lines)


def test_unwrapped_stage_fails_the_coverage_gate(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(workloads, "WORKLOADS", {"iter-2d": MID})
    monkeypatch.setattr(run, "HERE", tmp_path)
    code, _, result = _run("iter-2d", 1, capsys)
    assert code == 0
    assert result["metrics"]["trace.coverage"]["value"] >= workloads.MIN_COVERAGE

    # Spread and interp now run inside plan.execute with no span of their own.
    monkeypatch.setattr(spans, "STAGES",
                        tuple(s for s in spans.STAGES if s not in ("spread", "interp")))
    code, lines, result = _run("iter-2d", 1, capsys)
    assert code == 1 and not result["correct"]
    assert result["metrics"]["trace.coverage"]["value"] < workloads.MIN_COVERAGE
    assert result["metrics"]["backend.spread_s"]["value"] == 0
    assert any("trace coverage" in line for line in lines)
