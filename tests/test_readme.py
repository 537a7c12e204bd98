"""README's "Library use" block, run as written from the repository root,
so the documented library contract stays executable."""

import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def library_use_block():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as handle:
        section = handle.read().split("\n## Library use\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_use_block_runs(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    exec(compile(library_use_block(), "README.md", "exec"), {})
    # the oracle rebuilds the sentence's graph from the best candidate
    f1, actions = capsys.readouterr().out.split(" ", 1)
    assert float(f1) == 1.0 and "CONFIRM(sleep-01)" in actions
