import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs():
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1].split("\n## ")[0]
    block = re.search(r"```python\n(.*?)```", library, re.S)
    assert block is not None, "no python block under ## Library"
    exec(compile(block.group(1), "README.md (Library)", "exec"), {})
