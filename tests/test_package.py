import os
import subprocess
import sys
from pathlib import Path

import dualstokes


def test_public_names_resolve():
    for name in dualstokes.__all__:
        assert hasattr(dualstokes, name), name


def test_removed_names_are_gone():
    for name in ("MODE_SAMPLE", "MODE_ENCLOSURE", "lower_sum", "upper_sum"):
        assert name not in dualstokes.__all__
        assert not hasattr(dualstokes, name)
        assert not hasattr(dualstokes.darboux, name)


def test_import_loads_no_dataclass_or_report_machinery():
    # -S: a bare interpreter, so only what the package itself imports is new
    src = Path(dualstokes.__file__).resolve().parents[1]
    code = ("import sys; before = set(sys.modules); import dualstokes; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, env=env,
                          timeout=60, check=True)
    loaded = set(proc.stdout.split())
    assert "dualstokes.stokes" in loaded
    for name in ("dataclasses", "inspect", "typing", "json", "csv",
                 "argparse"):
        assert name not in loaded, name
