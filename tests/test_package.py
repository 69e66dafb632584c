"""Exports and the README's library layout name only what the package defines.

Every source file also parses at the oldest Python that pyproject.toml admits.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

import gaussdet

README = Path(__file__).resolve().parents[1] / "README.md"


def layout_rows():
    """(module, backticked names) for each row of the README's library layout table."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library layout", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) != 2 or not cells[0].startswith("`gaussdet."):
            continue
        rows.append((cells[0].strip("`"), re.findall(r"`([^`]+)`", cells[1])))
    return rows


LAYOUT = layout_rows()


def test_every_export_resolves():
    missing = [name for name in gaussdet.__all__ if not hasattr(gaussdet, name)]
    assert missing == []


def test_readme_layout_lists_every_module():
    modules = [module for module, _ in LAYOUT]
    assert modules == [
        "gaussdet.exact",
        "gaussdet.multisets",
        "gaussdet.neville",
        "gaussdet.closedform",
        "gaussdet.tpprobe",
        "gaussdet.cli",
    ]


@pytest.mark.parametrize("module, names", LAYOUT, ids=[module for module, _ in LAYOUT])
def test_readme_layout_names_exist(module, names):
    imported = importlib.import_module(module)
    assert names
    assert [name for name in names if not hasattr(imported, name)] == []


def export_modules():
    """Each name ``gaussdet/__init__.py`` imports, mapped to the module it imports it from."""
    tree = ast.parse(Path(gaussdet.__file__).read_text(encoding="utf-8"))
    return {
        alias.name: f"gaussdet.{node.module}"
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def test_every_export_is_in_its_modules_layout_row():
    rows, modules = dict(LAYOUT), export_modules()
    unlisted = [
        name for name in gaussdet.__all__
        if name != "__version__" and name not in rows.get(modules.get(name), ())
    ]
    assert unlisted == []


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
SOURCES = sorted(Path(gaussdet.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_sources_parse_at_the_oldest_supported_python(path):
    floor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', PYPROJECT.read_text(encoding="utf-8"))
    assert floor is not None
    ast.parse(path.read_text(encoding="utf-8"), feature_version=tuple(map(int, floor.groups())))
