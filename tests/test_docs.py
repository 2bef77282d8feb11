"""README's examples: each Python block prints what its comments say, and the CLI examples are verbatim."""

import contextlib
import io
import pathlib
import re
import shlex

import pytest

from tlh.cli import main

README = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.M | re.S)


def promised_output(code: str) -> list:
    """The line each print promises: its own `# ` comment or, without one, the comment line below it,
    up to a `  — ` gloss."""
    lines = code.splitlines()
    promised = []
    for i, line in enumerate(lines):
        if line.startswith("print("):
            comment = line.partition("# ")[2] or lines[i + 1].removeprefix("# ")
            promised.append(comment.split("  — ")[0].rstrip())
    return promised


def test_readme_has_the_quick_start_and_dyadic_form_blocks():
    assert len(PYTHON_BLOCKS) == 2
    assert "special_elements" in PYTHON_BLOCKS[0] and "Diagram(h1, h2, bullet=True)" in PYTHON_BLOCKS[1]


@pytest.mark.parametrize("code", PYTHON_BLOCKS, ids=["quick-start", "dyadic-form"])
def test_readme_python_block_prints_its_comments(code):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == promised_output(code)


@pytest.mark.parametrize(
    "command", ["tlh dims --n 3", "tlh multiply epsilon beta --n 2", "tlh gram --n 2 --lambda 1"]
)
def test_readme_cli_example_is_verbatim(command, capsys):
    example = re.search(rf"^\$ {re.escape(command)}\n(.*?\n)\n", README, re.M | re.S)
    assert example, f"README shows no `$ {command}` example"
    assert main(shlex.split(command)[1:]) == 0
    assert capsys.readouterr().out == example.group(1)
