"""The README Quickstart is executable documentation: run it verbatim.

The ``python`` block under ``## Quickstart`` is extracted and executed
in a temporary working directory (it writes ``demo.gauss``); its printed
ranking must be the paper's Figure-1 answer, O3 before O2 before O1.
"""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def quickstart_block() -> str:
    text = README.read_text(encoding="utf-8")
    match = re.search(
        r"^## Quickstart\n+```python\n(.*?)^```", text, re.S | re.M
    )
    assert match, "README has no python block under '## Quickstart'"
    return match.group(1)


def test_quickstart_runs_and_ranks_o3_o2_o1(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    exec(compile(quickstart_block(), str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in printed] == ["O3", "O2", "O1"]
    assert (tmp_path / "demo.gauss").exists()
