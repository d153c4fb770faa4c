"""Every ```python block of README.md runs as written, so the README cannot
keep using a name the package no longer has."""

import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.M | re.S)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_block_runs(index, capsys):
    exec(compile(BLOCKS[index], f"README.md, python block {index + 1}", "exec"), {})
    assert capsys.readouterr().out
