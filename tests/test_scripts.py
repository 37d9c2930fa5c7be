import subprocess
import sys
from pathlib import Path

SCALING = Path(__file__).resolve().parents[1] / "scripts" / "scaling_experiment.py"


def run_scaling(*args):
    proc = subprocess.run([sys.executable, str(SCALING), *args],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_scaling_experiment_fits_slopes():
    lines = run_scaling("--n", "60", "--epsilons", "0.2,0.1")
    rows = [line.split() for line in lines[1:3]]
    assert [row[0] for row in rows] == ["0.2", "0.1"]
    assert all(row[3] == "certified" for row in rows)
    assert lines[-1].split()[-1] == "2.000"  # ceil(1/eps^2): 25 -> 100 steps
    for line in lines[-3:-1]:
        float(line.split()[-1])


def test_scaling_experiment_above_the_exact_solver_dimension():
    lines = run_scaling("--n", "40", "--dim", "13", "--epsilons", "0.2,0.1")
    assert [line.split()[-1] for line in lines[1:3]] == ["-", "-"]


def test_scaling_experiment_on_a_cloud_solved_without_steps():
    lines = run_scaling("--n", "1")
    for row in (line.split() for line in lines[1:-3]):
        assert row[1:] == ["0", "0", "certified", "-", "0", "-"]
    assert all(line.endswith("- (a count is 0)") for line in lines[-3:])
