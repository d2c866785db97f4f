"""Every ```python block of README.md runs as written, each in a fresh namespace."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text()
# (first line number, source) of each block; the source is padded with
# blank lines so a traceback points at the README line
BLOCKS = [
    (TEXT.count("\n", 0, m.start(1)) + 1, m.group(1))
    for m in re.finditer(r"^```python\n(.*?)^```", TEXT, re.M | re.S)
]


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 3


@pytest.mark.parametrize("line,source", BLOCKS, ids=[f"line{n}" for n, _ in BLOCKS])
def test_readme_example_runs(line, source):
    code = compile("\n" * (line - 1) + source, str(README), "exec")
    exec(code, {"__name__": "readme_example"})
