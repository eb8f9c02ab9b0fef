"""The one tolerance table: every small threshold lives in it, and document
overrides enter it through one validated door."""

import ast
import math
import re
from pathlib import Path

import pytest

import spanwitness
from spanwitness.errors import UsageError
from spanwitness.linalg import DEFAULT_TOLERANCES, TOLERANCES, document_tolerances
from spanwitness.report import REGISTRY

SRC = Path(spanwitness.__file__).parent


def _table_nodes(tree: ast.Module) -> set[int]:
    """ids of the AST nodes inside the `TOLERANCES = {...}` assignment."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TOLERANCES" for t in node.targets
        ):
            return {id(n) for n in ast.walk(node)}
    return set()


def test_no_threshold_literal_outside_the_table():
    # a float literal with 0 < |x| < 1e-3 is a tolerance; it belongs in the table
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        table = _table_nodes(tree) if path.name == "linalg.py" else set()
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, float)
                and 0 < abs(node.value) < 1e-3
                and id(node) not in table
            ):
                found.append(f"{path.name}:{node.lineno}: {node.value!r}")
    assert found == []


def test_table_is_found_and_holds_the_thresholds():
    tree = ast.parse((SRC / "linalg.py").read_text())
    assert _table_nodes(tree)
    assert all(isinstance(v, float) and 0 <= v < 1e-3 for v in TOLERANCES.values())


def test_document_tolerances_are_the_table_head():
    assert list(DEFAULT_TOLERANCES) == ["pairing", "seesaw", "rank", "eigenvalue"]
    assert list(TOLERANCES)[:4] == list(DEFAULT_TOLERANCES)
    assert all(DEFAULT_TOLERANCES[k] == TOLERANCES[k] for k in DEFAULT_TOLERANCES)
    assert document_tolerances() == DEFAULT_TOLERANCES
    assert document_tolerances(pairing=0.0)["pairing"] == 0.0
    assert document_tolerances(rank=1e-3) == dict(DEFAULT_TOLERANCES, rank=1e-3)


@pytest.mark.parametrize(
    "key, value",
    [
        ("pairing", -1.0),
        ("pairing", math.nan),
        ("pairing", math.inf),
        ("seesaw", -math.inf),
        ("seesaw", math.nan),
        ("rank", 0.0),
        ("rank", -1e-8),
        ("rank", 1.0),
        ("rank", math.nan),
    ],
)
def test_document_tolerances_reject_out_of_range(key, value):
    with pytest.raises(UsageError, match=f"{key} tolerance"):
        document_tolerances(**{key: value})


def test_boundary_family_note_states_the_strict_entry():
    # the note is text; the number in it must be the threshold the check uses
    (entry,) = [e for e in REGISTRY if e.name == "boundary_family"]
    (number,) = re.findall(r"eigenvalues > ([0-9.e+-]+)\)", entry.note)
    assert float(number) == TOLERANCES["strict"]


def test_every_entry_is_named_outside_the_table():
    # an entry whose last reader is gone is named only in the table itself
    named = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        table = _table_nodes(tree) if path.name == "linalg.py" else set()
        named |= {
            node.value
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and id(node) not in table
        }
    assert sorted(set(TOLERANCES) - named) == []
