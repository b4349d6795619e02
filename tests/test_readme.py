"""The README's "Library use" example and its "CLI quickstart" commands run
as written against the fixtures."""
import re
import shlex
from pathlib import Path

from cqretrofit.cli import main

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


def test_cli_quickstart_runs(tmp_path, monkeypatch, capsys):
    section = README.read_text(encoding="utf-8").split("## CLI quickstart", 1)[1]
    script = re.search(r"```sh\n(.*?)```", section, re.S).group(1).replace("\\\n", " ")
    commands = [shlex.split(line) for line in script.splitlines()
                if line.startswith("cqretrofit ")]
    assert len(commands) == 5
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        argv = [a.replace("tests/fixtures/", f"{FIXTURES}/") for a in argv[1:]]
        capsys.readouterr()
        assert main(argv) == 0, argv
    # The last command is ``report``: a threshold line, then the table.
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("backend=")
    assert re.split(r"\s{2,}", lines[1].strip()) == [
        "Ontology", "Prompt", "LLM", "No. Q.", "Mean Q/T", "No. Candidate CQs",
        "No. Validated CQs", "Precision", "Recall", "F1", "Unmatched CQs", "Unmatched %",
        "Mean", "Std", "Min", "0.25", "0.50", "Max",
    ]
    assert len(lines) == 5  # one row per template of the mock provider
