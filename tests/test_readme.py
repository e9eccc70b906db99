import ast
import importlib
import math
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
PACKAGE = ROOT / "src" / "swapcert"


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


def tolerance_rows() -> dict[str, tuple[str, str]]:
    """The README Tolerances table as name -> (value cell, owner module)."""
    section = README.read_text(encoding="utf-8").split("## Tolerances\n", 1)[1].split("\n## ", 1)[0]
    return {name: (value.strip(), owner) for name, value, owner in
            re.findall(r"^\| `(\w+)` \|([^|]+)\|.*\| `(\w+)` \|$", section, re.MULTILINE)}


def tolerance_constants() -> list[tuple[str, str, float]]:
    """(module, name, value) of every module-level UPPER_CASE constant that is a float below 1e-3 or named *_TOL."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"swapcert.{path.stem}")
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            for target in targets:
                if isinstance(target, ast.Name) and target.id.isupper():
                    value = getattr(module, target.id)
                    if target.id.endswith("_TOL") or (isinstance(value, float) and value < 1e-3):
                        found.append((path.stem, target.id, value))
    return found


def test_every_tolerance_has_a_readme_row():
    rows = tolerance_rows()
    constants = tolerance_constants()
    assert {"DEFAULT_TOL", "SLACK", "PROB_FLOOR"} <= {name for _, name, _ in constants}
    for module, name, value in constants:
        assert name in rows, f"{module}.{name} has no row in the README Tolerances table"
        cell, owner = rows[name]
        assert (float(cell), owner) == (value, module), f"README row of {name}: {cell} in `{owner}`"
