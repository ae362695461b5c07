"""The README's examples run as written.

Every ```python block is executed from the repository root, and the Quick
start console block must be exactly what its command prints.
"""

import re
from pathlib import Path

import pytest

from kovex.cli import main

ROOT = Path(__file__).resolve().parent.parent
BLOCKS = re.findall(r"^```(\w+)\n(.*?)^```$",
                    (ROOT / "README.md").read_text(encoding="utf-8"),
                    re.M | re.S)
PYTHON = [body for lang, body in BLOCKS if lang == "python"]


@pytest.mark.parametrize("code", PYTHON,
                         ids=[f"block{k + 1}" for k in range(len(PYTHON))])
def test_python_block_runs(code, monkeypatch):
    monkeypatch.chdir(ROOT)
    exec(compile(code, "README.md", "exec"), {"__name__": "readme"})


def test_quick_start_shows_what_analyze_prints(monkeypatch, capsys):
    console = next(body for lang, body in BLOCKS if lang == "console")
    command, *expected = console.splitlines()
    assert command == "$ kovex analyze problems/weierstrass.kov"
    monkeypatch.chdir(ROOT)
    assert main(["analyze", "problems/weierstrass.kov"]) == 0
    assert capsys.readouterr().out.splitlines() == expected
