"""The test dependencies are pinned once: the ``dev`` extras of
``pyproject.toml`` name the versions CI installs, so a mutant that a
property kills in CI is killed by a local install too."""

import re
from pathlib import Path

ROOT = Path(__file__).parents[1]


def test_dev_extras_match_the_ci_install():
    project = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text(encoding="utf-8")
    [dev] = re.findall(r"^dev = \[(.*?)\]", project, re.M | re.S)
    extras = re.findall(r'"([^"]+)"', dev)
    [install] = re.findall(r"pip install (.+)", ci)
    assert extras and all("==" in pin for pin in extras)
    assert sorted(extras) == sorted(install.split())
