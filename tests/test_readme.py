"""The README's "Library use" example runs as written against the fixtures."""
import re
from pathlib import Path

from conftest import FIXTURES

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    code = code.replace('"onto.nt"', repr(str(FIXTURES / "videogame_20.nt")))
    code = code.replace('"cqs.txt"', repr(str(FIXTURES / "design_cqs.txt")))
    exec(compile(code, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("{") and "'precision'" in lines[0]
    validated, matched = map(int, lines[1].split())
    assert validated >= 0 and matched >= 0
    assert lines[2].startswith("[")
