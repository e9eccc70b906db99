import math
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start() -> str:
    """The code of the "Quick start (Python)" block of the README."""
    match = re.search(r"^## Quick start \(Python\)\n\n```python\n(.*?)^```$", README.read_text(),
                      re.MULTILINE | re.DOTALL)
    assert match, "README has no Quick start (Python) block"
    return match.group(1)


def test_quick_start_runs_as_documented(capsys):
    namespace: dict = {}
    exec(compile(quick_start(), "README.md quick start", "exec"), namespace)
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    s_values = lines[0].split()
    assert len(s_values) == 2 and all(math.isclose(float(s), 2 * math.sqrt(2), abs_tol=1e-12) for s in s_values)
    assert lines[1] == "True"
    formula, oracle = map(float, lines[2].split())
    assert math.isclose(formula, math.sqrt(2), abs_tol=1e-9) and math.isclose(oracle, math.sqrt(2), abs_tol=1e-6)
