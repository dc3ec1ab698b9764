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


def _src_lines():
    import importlib.util
    path = Path(__file__).resolve().parents[1] / "tools" / "src_lines.py"
    spec = importlib.util.spec_from_file_location("src_lines", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_src_lines_counts_code_without_blanks_comments_or_docstrings():
    source = '''"""A module docstring,
over two lines."""

import math  # a comment on a code line

# a comment alone


def f(x):
    """A docstring."""
    text = """a string that
    is no docstring"""
    return math.sqrt(x)


class C:
    "One more."
    y = (1,
         2)
'''
    # the import, def, the two lines of `text`, return, class and the
    # two lines of y
    assert _src_lines().code_lines(source) == 8


def test_src_lines_counts_the_work_tree():
    src_lines = _src_lines()
    texts = src_lines.sources(None)
    assert "src/dualstokes/stokes.py" in texts
    proc = subprocess.run(
        [sys.executable, str(Path(src_lines.__file__))],
        capture_output=True, text=True, timeout=60, check=True)
    total = sum(map(src_lines.code_lines, texts.values()))
    assert proc.stdout == f"src/ code lines at the work tree: {total}\n"
