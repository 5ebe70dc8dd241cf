"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

import run

A2 = run.WORKLOADS["smoke"][0]
A2_KEY = " ".join(A2)


@pytest.fixture(scope="module")
def digests():
    return json.loads(run.DIGESTS.read_text())


@pytest.fixture(scope="module")
def a2_outcome():
    return run.run_case(A2, A2_KEY, run.child_env(), traced=False)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run(trace, section):
    proc = subprocess.run([sys.executable, str(run.HERE / "run.py"), "--workload", "smoke",
                           "--seed", "1", "--seconds", "1", "--trace", str(trace)],
                          cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())[section]
    assert {m["name"]: m["unit"] for m in declared} == \
        {name: m["unit"] for name, m in result["metrics"].items()}


def test_checker_accepts_a2(a2_outcome, digests):
    assert run.check_report(A2_KEY, a2_outcome.code, a2_outcome.report, digests) == []


def test_checker_rejects_changed_f_vector(a2_outcome, digests):
    report = json.loads(a2_outcome.report)
    report["polytope"]["f_vector"][1] += 1
    text = (json.dumps(report, indent=2) + "\n").encode()
    problems = run.check_report(A2_KEY, 0, text, digests)
    assert any("Euler" in p for p in problems)
    assert any("digest" in p for p in problems)


def test_checker_rejects_nonzero_exit(digests):
    bad = A2[:-1] + ("1,x",)
    outcome = run.run_case(bad, A2_KEY, run.child_env(), traced=False)
    assert outcome.code == 1
    assert run.check_report(A2_KEY, outcome.code, outcome.report, digests) == ["exit code 1"]


def test_traced_self_times_and_residual_add_up_to_wall(digests):
    outcome = run.run_case(A2, A2_KEY, run.child_env(), traced=True)
    assert run.check_report(A2_KEY, outcome.code, outcome.report, digests) == []
    totals = run.span_totals(outcome.spans)
    assert all(t["self_s"] >= 0 for t in totals.values())
    roots = [end - start for _, parent, start, end, _ in outcome.spans if parent is None]
    self_sum = sum(t["self_s"] for t in totals.values())
    assert self_sum == pytest.approx(sum(roots), abs=1e-9)
    assert 0 < outcome.residual_s < outcome.wall_s
    assert self_sum + outcome.residual_s == pytest.approx(outcome.wall_s, abs=1e-9)
    assert run.uncalled_targets([outcome]) == []


def test_parent_imports_neither_numpy_nor_the_program_before_the_passes():
    # A case child's ru_maxrss also counts the parent's peak RSS, shared until exec.
    script = ("import sys, run; run.run_facts('hull', 0, None, 0); "
              "run.measure_setup(run.child_env()); "
              "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'orbitope')))")
    proc = subprocess.run([sys.executable, "-c", script], cwd=run.HERE, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
