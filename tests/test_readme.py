"""The README's code examples run against the package as it is."""
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def fenced_python(heading: str) -> str:
    """The first fenced python block under the level-2 heading `heading`."""
    text = README.read_text(encoding="utf-8")
    section = text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs():
    exec(compile(fenced_python("Library example"), str(README), "exec"), {})
