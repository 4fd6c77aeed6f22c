"""The Python blocks of the README's library tour run as written."""

import re
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def test_readme_tour_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 2
    # the second block uses the names the first one defines
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["result"].status == "optimal"
