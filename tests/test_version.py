"""The version is written twice, in pyproject.toml and as dn2.__version__,
and the two must agree.  pyproject.toml is read with a regular expression,
since Python 3.10 has no tomllib."""

import re
from pathlib import Path

import dn2


def test_pyproject_version_is_dn2_version():
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    project = re.search(r"^\[project\]$(.*?)(?=^\[|\Z)", text, re.M | re.S)
    assert project is not None
    found = re.findall(r'^version\s*=\s*"([^"]*)"\s*$', project.group(1), re.M)
    assert found == [dn2.__version__]
