import re
from pathlib import Path

from latident.cli import SCHEMA_VERSION, USAGE, main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs():
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1].split("\n## ")[0]
    block = re.search(r"```python\n(.*?)```", library, re.S)
    assert block is not None, "no python block under ## Library"
    exec(compile(block.group(1), "README.md (Library)", "exec"), {})


def test_help_prints_the_readme_synopsis():
    section = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    block = re.match(r"\s*```\n(.*?)```", section, re.S)
    assert block is not None, "no code block opens ## Command line"
    assert block.group(1) == USAGE


def test_readme_schema_version_is_the_reports():
    assert re.findall(r"schema_version (\d+)", README.read_text(encoding="utf-8")) == [
        str(SCHEMA_VERSION)
    ]


def test_readme_equation_excerpt_is_classify_output(capsys, monkeypatch):
    marker = "the first equation of `latident classify models/triangle_pendants.model`"
    section = README.read_text(encoding="utf-8").split(marker, 1)[1]
    block = re.match(r"\s*```\n(.*?)\n```", section, re.S)
    assert block is not None, "no code block follows the classify excerpt's line"
    monkeypatch.chdir(README.parent)
    assert main(["classify", "models/triangle_pendants.model"]) == 2
    out = capsys.readouterr().out
    assert out.split('"equations": [\n', 1)[1].startswith(block.group(1) + ",\n")
