"""The README's library example runs and prints what its comments say, and
each of its CLI examples exits 0."""

import contextlib
import io
import re
from pathlib import Path

import pytest

from sedwitness.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
(CLI_BLOCK,) = re.findall(r"## CLI\n\n```sh\n(.*?)```", README.read_text(), re.S)
CLI_EXAMPLES = [line.split()[1:] for line in CLI_BLOCK.splitlines() if line.startswith("sedwitness ")]


def test_readme_library_example_prints_its_comments():
    (code,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    wanted = [line.split("#", 1)[1].split() for line in code.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    printed = [line.split() for line in out.getvalue().splitlines()]
    assert len(printed) == len(wanted) == 3
    for got, want in zip(printed, wanted):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            if w in ("True", "False"):
                assert g == w
            else:
                assert abs(float(g) - float(w)) <= 1e-12, (g, w)


def test_readme_layout_has_one_row_per_module():
    # a module added or removed cannot leave the Layout table stale
    (table,) = re.findall(r"## Layout\n\n(.*?)(?:\n## |\Z)", README.read_text(), re.S)
    rows = re.findall(r"^\| `sedwitness\.(\w+)` \|", table, re.M)
    modules = [p.stem for p in (ROOT / "src" / "sedwitness").glob("*.py") if p.stem != "__init__"]
    assert sorted(rows) == sorted(modules)


def test_readme_cli_block_has_examples():
    assert len(CLI_EXAMPLES) == 6


@pytest.mark.parametrize("argv", CLI_EXAMPLES, ids=" ".join)
def test_readme_cli_example_exits_0(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
