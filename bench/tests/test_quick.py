"""Smoke tests for the benchmark: every workload in both modes, on
half-size inputs (``--quick``), plus the ``--compare`` verdict rule.

Run with ``python3 -m pytest bench/tests -q`` from the repository root.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(BENCH))

from run import verdict  # noqa: E402


def _run(*args: str, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(root / "bench" / "run.py"), *args], cwd=root,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_quick_run(workload, trace, tmp_path):
    done = _run("--workload", workload, "--seed", "0", "--quick", "--trace", str(trace),
                "--out", str(tmp_path))
    assert done.returncode == 0, done.stderr
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] > 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in summary["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    full = json.loads((tmp_path / f"{workload}-seed0{'.layers' if trace else ''}.json")
                      .read_text(encoding="utf-8"))
    assert full["provenance"]["seed"] == 0 and full["provenance"]["nproc"] >= 1
    if trace:
        assert summary["metrics"]["trace.unattributed_share"]["value"] <= 0.05
        rendered = subprocess.run(
            [sys.executable, "-m", "repro", "trace", str(tmp_path / f"{workload}-seed0.trace.json")],
            cwd=ROOT, env={"PYTHONPATH": str(ROOT / "src")}, capture_output=True, text=True,
            timeout=60)
        assert rendered.returncode == 0 and "Interpreter.run" in rendered.stdout
    else:
        assert all(m["value"] > 0 for m in summary["metrics"].values())


def test_fails_without_program_sources(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "bench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    done = _run("--workload", SPEC["workloads"][0]["name"], root=tmp_path)
    assert done.returncode != 0 and not done.stdout.strip()


def test_verdict_rule():
    parent = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]
    faster = [v * 0.8 for v in parent]
    pairs = list(zip(parent, faster))
    assert verdict(parent, faster, pairs, "lower", 0.1) == "better"
    assert verdict(faster, parent, [(b, a) for a, b in pairs], "lower", 0.1) == "worse"
    assert verdict(parent, parent, list(zip(parent, parent)), "lower", 0.1) == "same"
    noisy = [5.0, 15.0, 8.0, 12.0, 6.0, 14.0, 9.0, 11.0, 7.0, 13.0]
    assert verdict(noisy, noisy, list(zip(noisy, noisy)), "lower", 0.1) == "unresolved"
    # Too noisy for the bound, but every run of B beats every run of A.
    separated = [v + 20.0 for v in noisy]
    assert verdict(noisy, separated, [], "higher", 0.1) == "better"
