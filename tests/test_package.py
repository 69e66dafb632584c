"""Exports and the README's library layout name only what the package defines.

Every source file also parses at the oldest Python that pyproject.toml admits,
importing the CLI loads no ``dataclasses``, ``inspect`` or ``typing``, and the
seven records keep their contract as immutable named tuples.
"""

import ast
import importlib
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import gaussdet
from gaussdet import (
    AgreementReport,
    FactoredDeterminant,
    IdentityReport,
    LeadingTerm,
    MinorIndex,
    SignedMultiset,
    SimplexSpec,
    TpReport,
)

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


def test_importing_the_cli_loads_no_dataclasses_inspect_or_typing():
    # -S keeps site-packages out, whose .pth files may import typing themselves
    src = str(Path(gaussdet.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import gaussdet.cli; "
        "print([m for m in ('dataclasses', 'inspect', 'typing') if m in sys.modules])"
    )
    result = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                            timeout=60, check=True)
    assert result.stdout == b"[]\n"


# each record with its fields in order, built by keyword; the defaulted fields
# are left out here and listed in DEFAULTS
RECORDS = [
    (SimplexSpec, dict(n=2, alpha=0, beta=1, gamma=1, delta=3)),
    (IdentityReport, dict(identity="MI1", params=(1, 0, 1, 2), lhs=SignedMultiset([0, 1]),
                          rhs=SignedMultiset([0, 1]), equal=True, difference=SignedMultiset())),
    (FactoredDeterminant, dict(n=3, factors=((1, 2), (2, 1)))),
    (LeadingTerm, dict(coefficient=2, theta_power=1, delta_power=2)),
    (AgreementReport, dict(n=2, entries_checked=8, agree=True)),
    (MinorIndex, dict(rows=(1, 2), cols=(2, 3))),
    (TpReport, dict(n=2, eta_value=Fraction(1, 2), minors_checked=5,
                    min_minor=(MinorIndex((1, 2), (1, 2)), Fraction(3, 4)), all_positive=True)),
]
DEFAULTS = {
    SimplexSpec: {"epsilon": 0},
    AgreementReport: {"first_mismatch": None, "expected": None, "actual": None},
}


@pytest.mark.parametrize("record, fields", RECORDS, ids=[r.__name__ for r, _ in RECORDS])
def test_record_contract(record, fields):
    defaults = DEFAULTS.get(record, {})
    value = record(**fields)
    assert record._fields == tuple(fields) + tuple(defaults)
    assert [getattr(value, name) for name in defaults] == list(defaults.values())
    first = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(value, first, getattr(value, first))
    with pytest.raises(AttributeError):
        value.extra = 1
    twin = record(**fields)
    assert twin is not value and twin == value and hash(twin) == hash(value)
    shown = ", ".join(f"{name}={getattr(value, name)!r}" for name in record._fields)
    assert repr(value) == f"{record.__name__}({shown})"
    # a record is a tuple: it equals the plain tuple of its fields
    assert value == tuple(getattr(value, name) for name in record._fields)


@pytest.mark.parametrize(
    "good, change, error, message",
    [
        (SimplexSpec(2, 0, 1, 1, 3), {"n": True}, TypeError, "n must be an int, got bool"),
        (SimplexSpec(2, 0, 1, 1, 3), {"delta": 3.0}, TypeError, "delta must be an int, got float"),
        (SimplexSpec(2, 0, 1, 1, 3), {"gamma": 4}, ValueError,
         "gamma <= delta required, got gamma=4, delta=3"),
        (SimplexSpec(2, 0, 1, 1, 3), {"epsilon": 2}, ValueError, "epsilon must be 0 or 1, got 2"),
        (MinorIndex((1, 2), (1, 2)), {"rows": (1,)}, ValueError,
         "rows and cols must be nonempty and of equal length"),
        (MinorIndex((1, 2), (1, 2)), {"cols": (2, 1)}, ValueError,
         "cols must be strictly increasing, got (2, 1)"),
        (MinorIndex((1, 2), (1, 2)), {"rows": (0, 1)}, ValueError,
         "rows must be >= 1, got (0, 1)"),
    ],
    ids=["spec-n", "spec-delta", "spec-gamma", "spec-epsilon", "minor-length", "minor-order",
         "minor-start"],
)
def test_checked_records_refuse_bad_fields_on_every_path(good, change, error, message):
    record = type(good)
    fields = {**good._asdict(), **change}
    builds = [
        lambda: record(**fields),
        lambda: record(*fields.values()),
        lambda: record._make(fields.values()),
        lambda: good._replace(**change),
    ]
    for build in builds:
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            build()
    assert record._make(good) == good._replace() == good
