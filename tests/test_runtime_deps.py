"""diffusim imports and runs with numpy alone.

A fresh interpreter blocks scipy (``sys.modules["scipy"] = None`` makes
every ``import scipy...`` fail), then imports the package, runs the
exact law and two CLI subcommands. The chain hashes its own uniforms, so
importing the package loads no ``numpy.random`` either.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_python(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env)


def test_diffusim_runs_without_scipy(tmp_path):
    code = f"""
import sys
sys.modules["scipy"] = None
import diffusim
import diffusim.cli
from diffusim import DiscreteState, ModelParams, exact_propagation, max_stable_dt

p = ModelParams(m=1, n_total=20.0, alpha=2.0, b=0.0, d=0.02, rho=0.2,
                delta=0.03, phi=0.03, eps=0.5, gamma=0.5)
ex = exact_propagation(p, DiscreteState(s=[10], a=[5], dd=[5]), 0.5 * max_stable_dt(p, 20), 10)
assert ex.mass.shape == (11,)
for cmd in ("run-dtmc", "compare"):
    out = {str(tmp_path)!r} + "/" + cmd + ".csv"
    status = diffusim.cli.main([cmd, "--config", "table2", "--replicas", "4", "--horizon", "5", "--out", out])
    assert status == 0, (cmd, status)
print("done")
"""
    run = run_python(code)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "done"
    assert (tmp_path / "run-dtmc.csv").stat().st_size > 0
    assert (tmp_path / "compare.csv").stat().st_size > 0


def test_importing_diffusim_loads_no_scipy():
    run = run_python("import sys, diffusim; print([m for m in sys.modules if m.startswith('scipy')])")
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def test_importing_diffusim_loads_no_numpy_random():
    # the chain's uniforms come from a SplitMix64 counter hash over uint64
    # arrays; numpy.random alone added about a third to the import time
    code = """
import sys
import diffusim
import diffusim.cli
from diffusim import DiscreteState, ModelParams, monte_carlo_mean

p = ModelParams(m=1, n_total=20.0, alpha=2.0, b=0.0, d=0.02, rho=0.2,
                delta=0.03, phi=0.03, eps=0.5, gamma=0.5)
monte_carlo_mean(p, DiscreteState(s=[10], a=[5], dd=[5]), 0.05, 20.0, "paper_literal", n_replicas=300)
print([m for m in sys.modules if m.startswith('numpy.random')])
"""
    run = run_python(code)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"
