"""The documented surface of the package: the README's Python examples run
as written, and every name the package exports resolves."""

import re
from collections import Counter
from pathlib import Path

import pytest

import qident

README = Path(__file__).resolve().parents[1] / "README.md"
EXAMPLES = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


def test_the_readme_has_python_examples():
    assert EXAMPLES


@pytest.mark.parametrize("code", EXAMPLES,
                         ids=[f"example{i}" for i in range(len(EXAMPLES))])
def test_readme_example_runs(code):
    exec(compile(code, str(README), "exec"), {"__name__": "readme_example"})


def test_every_exported_name_resolves_once():
    assert [n for n, c in Counter(qident.__all__).items() if c > 1] == []
    assert [n for n in qident.__all__ if not hasattr(qident, n)] == []
