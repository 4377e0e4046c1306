"""README's tables agree with the code: its module table with ``hens.__all__``, and its
count-bound table with the counts of ``hens.cli.FIELDS``."""

import importlib
import re
from pathlib import Path

import hens
from hens.cli import FIELDS

README = Path(__file__).resolve().parent.parent / "README.md"


def test_all_names_resolve_once():
    assert len(hens.__all__) == len(set(hens.__all__))
    assert [name for name in hens.__all__ if not hasattr(hens, name)] == []


def test_error_classes_are_value_errors():
    # a library caller that catches ValueError still catches every class the CLI maps
    assert issubclass(hens.NumericalError, ValueError)
    assert issubclass(hens.SamplingError, ValueError)
    assert issubclass(hens.CoefficientSingularityError, hens.NumericalError)


def test_readme_module_table_lists_all():
    # rows "| `hens.<module>` | contents | `Name`, `name`, ... |"
    listed = []
    for line in README.read_text().splitlines():
        row = re.match(r"\| `(hens\.\w+)` \|.*\| (.*) \|$", line)
        if row:
            module = importlib.import_module(row.group(1))
            names = re.findall(r"`(\w+)`", row.group(2))
            assert [n for n in names if not hasattr(module, n)] == [], row.group(1)
            listed += names
    assert sorted(listed) == sorted(hens.__all__)


def test_readme_count_table_lists_the_bounds():
    # rows "| `<count field>` | <bound>[ (2^k)][ (floor f)] | one unit allocates |"
    rows = re.findall(r"^\| `(\w+\.\w+)` \| (\d+)\b", README.read_text(), re.M)
    counts = {path: field[3][1] for path, field in FIELDS.items() if field[3] and field[3][0] >= 1}
    assert len(rows) == len(counts)
    assert {path: int(bound) for path, bound in rows} == counts
