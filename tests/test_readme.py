"""README's library quickstart runs as written."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quickstart_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme"})
    assert out.getvalue()
