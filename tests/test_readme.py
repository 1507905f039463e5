"""README's python blocks run as written and print the states their comments name."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_print_the_commented_states():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks
    out = io.StringIO()
    namespace: dict = {}
    with contextlib.redirect_stdout(out):
        for block in blocks:
            exec(compile(block, str(README), "exec"), namespace)
    # compatible_exists, is_rali, is_strong, in the order the tour prints them.
    claimed = re.findall(r"^print\(.*\)\s+# (yes|no|unknown)\b", "\n".join(blocks), re.M)
    assert claimed == ["yes", "no", "yes"]
    assert [line.split()[0] for line in out.getvalue().splitlines()] == claimed
