"""The README's library quick start runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md (Library quick start)", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    # classification, value, feedback and the Monte-Carlo estimate
    assert len(lines) == 4 and lines[0].startswith("strongly_regular("), lines
