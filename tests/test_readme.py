"""Every python code block in ``README.md`` runs as written."""
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks() -> list:
    """``(first line number, code)`` of each fenced python block in the README."""
    text = README.read_text(encoding="utf-8")
    return [(text.count("\n", 0, match.start(1)) + 1, match.group(1))
            for match in re.finditer(r"^```python\n(.*?)^```$", text, re.DOTALL | re.MULTILINE)]


BLOCKS = python_blocks()


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("line, code", BLOCKS, ids=[f"line{line}" for line, _ in BLOCKS])
def test_readme_block_runs(line, code, capsys):
    exec(compile(code, f"{README}:{line}", "exec"), {"__name__": "__readme__"})  # a fresh namespace per block
    assert capsys.readouterr().err == ""
