"""Every developer entry point resolves.

The Makefile recipes and the ``[project.scripts]`` console entry points
name scripts, modules and functions by string; deleting or renaming one
of those leaves a recipe that only fails when someone runs it.  These
tests resolve each name statically, without running anything.
"""

import importlib
import importlib.util
import re
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11

ROOT = Path(__file__).resolve().parents[1]

_PYTHON_CALL = re.compile(r"\$\(PYTHON\)\s+(?:-m\s+(?P<module>[\w.]+)"
                          r"|(?P<script>[\w./-]+\.py))")


def _recipe_calls():
    """Distinct ``(kind, target)`` over every ``$(PYTHON) -m M`` /
    ``$(PYTHON) F.py`` in a Makefile recipe, continuation lines joined."""
    text = (ROOT / "Makefile").read_text().replace("\\\n", " ")
    recipes = [line for line in text.splitlines() if line.startswith("\t")]
    calls = set()
    for line in recipes:
        for m in _PYTHON_CALL.finditer(line):
            kind = "module" if m.group("module") else "script"
            calls.add((kind, m.group(kind)))
    return sorted(calls)


def _console_scripts():
    data = tomllib.loads((ROOT / "pyproject.toml").read_text())
    return sorted(data["project"]["scripts"].items())


def test_makefile_calls_found():
    kinds = {kind for kind, _ in _recipe_calls()}
    assert kinds == {"module", "script"}


@pytest.mark.parametrize("kind,target", _recipe_calls())
def test_makefile_recipe_target_resolves(kind, target):
    if kind == "script":
        assert (ROOT / target).is_file(), f"Makefile runs missing {target}"
        return
    spec = importlib.util.find_spec(target)
    assert spec is not None, f"Makefile runs missing module {target}"
    if spec.submodule_search_locations is not None:
        # 'python -m package' runs the package's __main__
        assert importlib.util.find_spec(f"{target}.__main__") is not None, \
            f"package {target} has no __main__"


@pytest.mark.parametrize("name,target", _console_scripts())
def test_console_script_resolves(name, target):
    module, _, attr = target.partition(":")
    fn = getattr(importlib.import_module(module), attr, None)
    assert callable(fn), f"{name} = {target!r} does not resolve"
