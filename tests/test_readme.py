"""README's library sketch runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch_runs():
    _, heading, section = README.read_text(encoding="utf-8").partition("## Library sketch")
    assert heading, "README has no 'Library sketch' section"
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block, "no python block under 'Library sketch'"
    exec(compile(block.group(1), "README.md: Library sketch", "exec"), {})
