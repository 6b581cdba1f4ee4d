"""The Python floor that ``pyproject.toml`` declares is the version CI
runs the tests on, so no version is claimed that nothing has run."""

from __future__ import annotations

import pathlib
import re
import tomllib

ROOT = pathlib.Path(__file__).parent.parent


def test_the_python_floor_is_the_version_ci_tests():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        requires = tomllib.load(fh)["project"]["requires-python"]
    floor = re.fullmatch(r">=\s*(\d+\.\d+)", requires)
    assert floor, f"requires-python {requires!r} is not a plain floor"
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    versions = re.findall(r"python-version:\s*[\"']?([\d.]+)", workflow)
    assert versions == [floor.group(1)]
