"""README's library quick start runs and prints the lines it shows."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _sorted_sets(line):
    # a set's repr lists its members in string-hash order, which varies from
    # process to process; sorting them makes the line comparable
    return re.sub(r"\{([^{}]*)\}", lambda m: "{" + ", ".join(sorted(m[1].split(", "))) + "}", line)


def test_quick_start_prints_its_comment_lines():
    block = re.search(r"## Library quick start\n+```python\n(.*?)```", README.read_text(), re.S)[1]
    expected = [line[2:] for line in block.splitlines() if line.startswith("# ")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    printed = out.getvalue().splitlines()
    assert len(expected) == 2
    assert list(map(_sorted_sets, printed)) == list(map(_sorted_sets, expected))
