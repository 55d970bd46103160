import re
from pathlib import Path

import secrid

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


def test_every_exported_name_resolves():
    missing = [name for name in secrid.__all__ if not hasattr(secrid, name)]
    assert missing == []
    assert len(set(secrid.__all__)) == len(secrid.__all__)
