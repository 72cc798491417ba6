import re
from pathlib import Path

from grovertrain import boolcirc as bc

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks() -> list[str]:
    """The README's ```python blocks, in order."""
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                      re.MULTILINE | re.DOTALL)


def test_python_blocks_print_what_their_comments_state(capsys):
    # the blocks import only modules; a name the package no longer has
    # fails here rather than in a reader's session
    quick_start, models = python_blocks()
    names = {}
    for block in (quick_start, models):
        exec(compile(block, str(README), "exec"), names)
    top, marginal = capsys.readouterr().out.splitlines()
    assert "# 136, ~0.28" in quick_start
    w, p = top.split()
    assert w == "136" and round(float(p), 2) == 0.28
    assert "# [1. 0.], as marg" in quick_start
    assert marginal == "[1. 0.]"
    assert isinstance(names["model"], bc.ModelCircuit)
