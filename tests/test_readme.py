"""README.md is a contract, and these tests run it.

In a temporary directory that holds models/five_node.json, the Python
quick start is exec'd and every netsirs command of a shell block runs
through netsirs.cli.main (backslash continuations joined) and must exit
0. A text block quotes the output of the block before it: it must match
that output line for line, where a line "..." stands for any run of
lines. Every file a command says it wrote must exist. Every `NAME =
value` constant the README quotes must equal the library's, and every
test it names must exist.
"""

from __future__ import annotations

import ast
import re
import shlex
import shutil
from pathlib import Path

import pytest

import netsirs.cli
import netsirs.dynamics
import netsirs.equilibrium
import netsirs.io
import netsirs.spectral
import netsirs.stability

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()
MAX_LINES = 300

FENCES = re.findall(r"^```(\w*)\n(.*?)^```$", README, re.M | re.S)
CONSTANT = re.compile(r"`([A-Z][A-Z0-9]*_[A-Z0-9_]+) = ([^`]+)`")
MODULES = (netsirs.dynamics, netsirs.equilibrium, netsirs.io, netsirs.spectral,
           netsirs.stability)


def _commands(block: str) -> list[list[str]]:
    """The argv of each netsirs line of a shell block."""
    lines = (shlex.split(line) for line in block.replace("\\\n", " ").splitlines())
    return [words[1:] for words in lines if words[:1] == ["netsirs"]]


def _runnable(lang: str, body: str) -> bool:
    return lang == "python" or (lang == "sh" and bool(_commands(body)))


# each runnable block with the text block after it, which quotes its output
BLOCKS = [(lang, body, quoted)
          for (lang, body), (after, quoted) in zip(FENCES, [*FENCES[1:], ("", "")])
          if _runnable(lang, body) and after == "text"]


def _quotes(quoted: str, output: str) -> bool:
    pattern = "".join(r"(?:.*\n)*?" if line == "..." else re.escape(line) + "\n"
                      for line in quoted.splitlines())
    return re.fullmatch(pattern, output) is not None


def test_readme_quotes_the_output_of_every_block_it_runs():
    runnable = [(lang, body) for lang, body in FENCES if _runnable(lang, body)]
    assert {lang for lang, _ in runnable} == {"python", "sh"}
    assert [(lang, body) for lang, body, _ in BLOCKS] == runnable


@pytest.mark.parametrize("lang, block, quoted", BLOCKS, ids=[lang for lang, _, _ in BLOCKS])
def test_readme_block_prints_what_the_readme_quotes(tmp_path, monkeypatch, capsys,
                                                     lang, block, quoted):
    (tmp_path / "models").mkdir()
    shutil.copy(ROOT / "models" / "five_node.json", tmp_path / "models")
    monkeypatch.chdir(tmp_path)
    if lang == "python":
        exec(compile(block, "README.md", "exec"), {})
    else:
        for argv in _commands(block):
            assert netsirs.cli.main(argv) == 0, argv
    output = capsys.readouterr().out
    assert _quotes(quoted, output), output
    for path in re.findall(r"^wrote (\S+)", output, re.M):
        assert (tmp_path / path).is_file(), path


def test_readme_constants_are_the_librarys():
    quoted = CONSTANT.findall(README)
    assert quoted
    for name, value in quoted:
        held = [getattr(module, name) for module in MODULES if hasattr(module, name)]
        assert held and all(v == ast.literal_eval(value) for v in held), (name, value, held)


def test_readme_names_only_tests_that_exist():
    defined = set()
    for path in [*ROOT.glob("tests/test_*.py"), *ROOT.glob("perfbench/test_*.py")]:
        defined.update(re.findall(r"^def (test_\w+)", path.read_text(), re.M))
    named = set(re.findall(r"`(test_\w+)`", README))
    assert named and named <= defined, sorted(named - defined)


def test_readme_stays_a_short_contract():
    assert README.count("\n") <= MAX_LINES
