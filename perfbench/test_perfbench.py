"""The benchmark's own tests: smoke runs at n=30, the spec file, the tracer."""

import json
import shutil
import subprocess
import sys
import tempfile
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "0",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2, proc.stderr
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
    provenance = json.loads(proc.stdout.strip().splitlines()[-2])["provenance"]
    assert provenance["seed"] == 7 and len(provenance["op_seeds"]) == 2


def test_traced_smoke_run_accounts_for_the_op():
    proc = _bench(ROOT, "--workload", "care_n800", "--seed", "7", "--seconds", "0",
                  "--trace", "1", "--smoke")
    metrics = {k: v["value"] for k, v in json.loads(proc.stdout.splitlines()[-1])["metrics"].items()}
    assert metrics["trace.self_coverage"] > 0.9
    assert metrics["estimators.fits"] == 3
    assert metrics["optimizer.runs"] >= metrics["estimators.fits"]
    assert metrics["partial_likelihood.basis_size"] > 0


def test_spec_file_matches_the_tables_in_run_py():
    import workloads

    assert SPEC == run.spec(workloads.WORKLOADS)


def test_raising_ops_and_failed_checks_count_as_failed():
    from workloads import OpRecord

    class Input(types.SimpleNamespace):
        def fresh(self):
            return self

    class Flaky:
        min_ops = 3

        def op(self, inp):
            if inp.seed == 0:
                raise ValueError("boom")
            return inp.seed

        def check(self, inp, outcome):
            return OpRecord(failures=[] if outcome == 1 else ["bad output"])

    pool = [Input(seed=s) for s in range(3)]
    times, records = run.measure(Flaky(), pool, 0.0, lambda fn, inp: fn(inp), OpRecord)
    assert len(times) == 3
    assert [r.failures != [] for r in records] == [True, False, True]
    assert "ValueError: boom" in records[0].failures[0]


def test_a_raising_study_op_does_not_fail_the_next_one(monkeypatch):
    import survcare.cli
    import workloads

    wl = workloads.WORKLOADS["study_n200"].smoke()
    run_study = survcare.cli.run_study
    calls = []

    def raise_after_the_fit(*args, **kwargs):
        calls.append(run_study(*args, **kwargs))
        if len(calls) == 1:
            raise RuntimeError("after the CARE fit")
        return calls[-1]

    monkeypatch.setattr(survcare.cli, "run_study", raise_after_the_fit)
    with tempfile.TemporaryDirectory() as workdir, wl.capturing():
        pool = wl.inputs(3, 2, workdir)
        _, records = run.measure(wl, pool, 0.0, lambda fn, inp: fn(inp), workloads.OpRecord)
    assert "after the CARE fit" in records[0].failures[0]
    assert records[1].failures == []


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                  "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_time_is_duration_minus_children():
    layer = types.ModuleType("layer")

    def inner():
        time.sleep(0.01)

    def outer():
        time.sleep(0.01)
        layer.inner()
        layer.inner()

    layer.inner, layer.outer = inner, outer
    tracer = tracing.Tracer()
    with tracer.installed([(layer, "inner", "inner", None), (layer, "outer", "outer", None)]):
        layer.outer()  # outside an op: not recorded
        tracer.run_op(layer.outer)
    assert layer.inner is inner and layer.outer is outer
    (row,) = tracer.per_op()
    assert row["inner_calls"] == 2 and row["outer_calls"] == 1
    assert row["outer_self_s"] == pytest.approx(row["outer_s"] - row["inner_s"], abs=1e-12)
    assert row["inner_self_s"] == pytest.approx(row["inner_s"], abs=1e-12)
    total_self = sum(v for k, v in row.items() if k.endswith("_self_s"))
    assert total_self == pytest.approx(row[f"{tracing.ROOT}_s"], abs=1e-9)
