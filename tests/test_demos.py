"""Every demo runs to completion against the current kernel."""
import runpy
from pathlib import Path

import pytest

DEMO_DIR = Path(__file__).parent.parent / "demos"


@pytest.mark.parametrize("name", [
    "01_language_and_substitution", "02_checking_proofs",
    "03_named_results", "04_quantum_bridge",
])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMO_DIR / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out
