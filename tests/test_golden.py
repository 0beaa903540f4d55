"""Byte-identity pins: results CSVs of small sweeps and ``select`` output.

The sweep files under tests/golden/ were last written when dependent
rounding came to draw from one stream per trial and algorithm, shared by the
trial's grid points, which changed each sweep's rounded selections;
``select_tiny.jsonl`` when MultObj changed from Frank-Wolfe
to its exact optimum. Any other change to them is a change of behaviour.
Regenerate with ``PYTHONPATH=src python tests/test_golden.py`` only when
that is intended.
"""

import contextlib
import io
from pathlib import Path

import pytest

from fairselect.cli import main
from fairselect.core import save_instance
from fairselect.datagen import KIND_DISPARATE_ERROR, KIND_DISPARATE_UTILITY, GeneratorSpec
from fairselect.experiment import ExperimentConfig, render_csv, run_experiment

GOLDEN = Path(__file__).with_name("golden")
ALL_FIVE = ("Blind", "FairExpec", "FairExpecGrp", "Thrsh", "MultObj")
SELECT_ARGS = ("--alpha", "1.0", "--delta", "0.1", "--target", "equal",
               "--lambda", "2.0", "--seed", "5")


def golden_configs() -> dict:
    return {
        "sweep_disparate_error.csv": ExperimentConfig(
            generator=GeneratorSpec(kind=KIND_DISPARATE_ERROR, m=60, n=12),
            sweep_kind="alpha_grid", grid=(0.0, 1.0), algorithms=ALL_FIVE,
            trials=3, n=12, m=60, target="EqualRepresentation", delta=0.05,
            seed=11, lambda_=100.0),
        "sweep_disparate_utility.csv": ExperimentConfig(
            generator=GeneratorSpec(kind=KIND_DISPARATE_UTILITY, m=200, n=20),
            sweep_kind="tau_grid", grid=(0.0, 0.3), algorithms=ALL_FIVE,
            trials=3, n=20, m=200, target="Proportional", delta=0.02,
            seed=5, alpha=1.0, lambda_=500.0),
    }


def select_lines(instance_path: str) -> str:
    """One ``select`` JSON line per algorithm, via the in-process CLI."""
    lines = []
    for alg in ALL_FIVE:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(["select", "--instance", instance_path, "--algorithm", alg, *SELECT_ARGS])
        assert code == 0
        lines.append(buf.getvalue())
    return "".join(lines)


@pytest.mark.parametrize("name", sorted(golden_configs()))
def test_sweep_csv_matches_golden(name):
    text = render_csv(run_experiment(golden_configs()[name], workers=1))
    assert text == (GOLDEN / name).read_text()


def test_select_json_matches_golden(tiny, tmp_path):
    path = tmp_path / "tiny.json"
    save_instance(tiny, path)
    assert select_lines(str(path)) == (GOLDEN / "select_tiny.jsonl").read_text()


if __name__ == "__main__":
    import sys
    import tempfile
    sys.path.insert(0, str(Path(__file__).parent))
    from conftest import tiny as tiny_fixture
    GOLDEN.mkdir(exist_ok=True)
    for name, cfg in golden_configs().items():
        (GOLDEN / name).write_text(render_csv(run_experiment(cfg, workers=1)))
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "tiny.json")
        save_instance(tiny_fixture.__wrapped__(), path)
        (GOLDEN / "select_tiny.jsonl").write_text(select_lines(path))
