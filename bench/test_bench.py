"""Smoke test of the benchmark: run from the repository root with

    python3 -m pytest bench/test_bench.py -q

Every workload runs one round, traced and untraced; the checks in
``oracle`` are shown to reject wrong answers.
"""

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import oracle  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
# four known-defect inputs in every 32-command round of the cli workload
KNOWN_DEFECT_SHARE = 4 / 32


def run_bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0.01", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_short_run_prints_every_metric(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    names = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    for m in SPEC["per_layer" if trace else "end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert result["correct"] is True
    fail_ratio = result["failed"] / result["attempted"]
    assert fail_ratio == (KNOWN_DEFECT_SHARE if workload == "cli" else 0.0)
    if not trace:
        row = next(line for line in lines if line.startswith("fail_ratio "))
        assert float(row.split()[1]) == fail_ratio


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench("compose_mix", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_dirichlet_composition_laws():
    d = -56  # class group cyclic of order 4
    forms = oracle.reduced_forms_neg(d)
    assert len(forms) == 4
    one = forms[0]  # (1, 0, 14), the principal class
    for f in forms:
        inverse = oracle.gauss_reduce(f[0], -f[1], f[2])
        assert oracle.dirichlet_compose(f, one) == f
        assert oracle.dirichlet_compose(f, inverse) == one
    g = forms[2]
    assert oracle.dirichlet_compose(g, g) != g


def test_form_check_rejects_wrong_forms():
    one, two = (1, 0), (2, 0)
    assert oracle.check_form("q_sqrt5", [one, one, (2, 0)], (-7, 0))
    assert not oracle.check_form("q_sqrt5", [two, two, (4, 0)], (-28, 0))  # imprimitive
    assert not oracle.check_form("q_sqrt5", [one, one, (2, 0)], (-3, 1))  # other disc
    assert not oracle.check_form("q", [one, (Fraction(1, 2), 0), one], (-15 / 4, 0))


def test_witness_check_rejects_wrong_gamma():
    tag, d = "q_sqrt2", (-3, 0)
    # ideal [1, sqrt(d)] and its multiple by gamma = 1 + sqrt(2)*sqrt(d)
    basis = [((1, 0), (0, 0)), ((0, 0), (1, 0))]
    gamma = ((1, 0), (0, 1))
    image = [oracle.l_mul(tag, d, gamma, b) for b in basis]
    eps = (1, 1)
    target = oracle.k_signs(tag, oracle.l_norm(tag, d, gamma))
    assert oracle.witness_ok(tag, d, basis, eps, image, target, gamma)
    assert not oracle.witness_ok(tag, d, basis, eps, image, target, ((2, 0), (0, 1)))
    flipped = tuple(-e for e in target)
    assert not oracle.witness_ok(tag, d, basis, eps, image, flipped, gamma)
