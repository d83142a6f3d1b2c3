"""Self-tests of the benchmark.  Run with ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT, env=None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600, env=env,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_code():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in SPEC["per_layer"]] == list(run.REPORTED_LAYERS)
    assert all(m["unit"] == run.UNITS[m["name"]] for m in SPEC["per_layer"])


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run(workload, tmp_path):
    doc = _result(_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                         "--trace", "0", "--out", str(tmp_path / "r.json")))
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    assert [(k, v["unit"]) for k, v in doc["metrics"].items()] == list(run.END_TO_END)
    assert all(v["value"] > 0 for v in doc["metrics"].values())
    record = json.loads((tmp_path / "r.json").read_text())
    assert record["fail_ratio"] == 0
    assert set(record["environment"]) >= {"cores", "python", "numpy", "commit"}


@pytest.mark.parametrize("workload, counts", [
    ("exact-cubic", ("polyalg.mul_term_pairs", "nurowski.tuples_checked", "families.terms")),
    ("numeric-focal", ("spectral.samples", "polyalg.mul_term_pairs", "polyalg.mul_calls")),
])
def test_traced_counts_repeat_exactly(workload, counts, tmp_path):
    docs = [
        _result(_bench("--workload", workload, "--seed", "5", "--seconds", "1",
                       "--trace", "1", "--out", str(tmp_path / f"r{i}.json")))
        for i in range(2)
    ]
    for doc in docs:
        assert doc["correct"]
        assert list(doc["metrics"]) == list(run.REPORTED_LAYERS)
    for name in counts:
        assert docs[0]["metrics"][name]["value"] > 0
        assert docs[0]["metrics"][name] == docs[1]["metrics"][name]


def test_wrong_golden_digest_counts_in_fail_ratio():
    cli = run.import_isopar()
    cheap = [r for r in workloads.requests("exact-cubic", 1)
             if r.key in ("nurowski check --dim 5", "verify cm --family cartan-cubic --algebra R")]
    golden = workloads.load_golden() | {"nurowski check --dim 5": "0" * 64}
    tally = run.Tally()
    for req in cheap:
        run.run_request(cli, req, golden, tally)
    assert tally.attempted == 2 and tally.fail_ratio == 0.5
    assert "digest" in tally.failures[0]


def test_numeric_report_checked_against_declared_values():
    cli = run.import_isopar()
    req = next(r for r in workloads.requests("numeric-focal", 1)
               if r.argv[0] == "focal" and r.family is workloads.FKM_9_1 and r.index == 0)
    tally = run.Tally()
    run.run_request(cli, req, {}, tally)
    assert not tally.failures
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli.main(list(req.argv))
    result = json.loads(buf.getvalue())["result"]
    assert workloads.check(req, result, {})[0] == []
    wrong = result | {"nullity": 7}  # neither m_1 = 9 nor, for -F, m_2 = 6
    assert any("nullity" in p for p in workloads.check(req, wrong, {})[0])
    wrong = result | {"angle": result["angle"] + 1e-5}
    assert any("angle" in p for p in workloads.check(req, wrong, {})[0])


def test_tracer_restores_bindings_and_reports_missing_names_as_absent():
    run.import_isopar()
    import isopar.cli
    import isopar.cm_verifier
    original = isopar.cm_verifier.verify_cm
    tracer = tracing.Tracer()
    tracer.install(sys.modules["isopar"])
    try:
        assert isopar.cli.verify_cm is isopar.cm_verifier.verify_cm is not original
        assert "polyalg.Poly.__mul__" in tracer.wrapped
        tracer.wrapped -= {"spectral.FamilyGeometry.hessian"}
        tracer.wrapped -= {n for n in tracer.wrapped if n.startswith("nurowski.")}
        metrics = tracer.metrics()
    finally:
        tracer.uninstall()
    assert isopar.cli.verify_cm is isopar.cm_verifier.verify_cm is original
    assert metrics["nurowski.tuples_checked"] is None
    assert metrics["spectral.eval_calls"] == 0  # value and gradient remain


def test_refuses_isopar_threads(tmp_path):
    env = {**os.environ, "ISOPAR_THREADS": "2"}
    proc = _bench("--workload", "exact-cubic", "--seconds", "1", "--out", str(tmp_path / "r.json"), env=env)
    assert proc.returncode != 0 and "ISOPAR_THREADS" in proc.stderr and not proc.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "exact-cubic", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0 and not proc.stdout


def test_compare_prints_ratios_with_bases(tmp_path, capsys):
    def doc(rps, pairs):
        return {"runs": [
            {"workload": "exact-quartic", "trace": 0, "fail_ratio": 0.0,
             "metrics": {"requests_per_s": {"value": rps, "unit": "1/s"}}},
            {"workload": "exact-quartic", "trace": 1, "fail_ratio": 0.0,
             "metrics": {"polyalg.mul_term_pairs": {"value": pairs, "unit": "count"}}},
        ]}
    (tmp_path / "a.json").write_text(json.dumps(doc(0.5, 1000)))
    (tmp_path / "b.json").write_text(json.dumps(doc(1.0, 250)))
    assert run.compare(str(tmp_path / "a.json"), str(tmp_path / "b.json")) == 0
    out = capsys.readouterr().out
    assert "2.000" in out and "0.250" in out and "requests_per_s on exact-quartic" in out
