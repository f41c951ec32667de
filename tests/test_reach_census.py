"""``scripts/reach_census.py``'s ``KEPT`` rows name code that exists.

The census gates on unexplained unreached functions, and a ``KEPT``
row is the only way to explain one.  A row left behind after its
function is deleted or renamed would be a silent exemption for
whatever later takes the name, so every row must name a module under
``src/`` and, unless it keeps the whole module, a qualified name that
module defines.  The rows are read with ``ast`` (importing the script
would put ``src/`` on ``sys.path`` as a side effect).
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, List, Tuple

import pytest

REPO = Path(__file__).resolve().parents[1]
CENSUS = REPO / "scripts" / "reach_census.py"
SRC = REPO / "src"


def kept_rows() -> List[Tuple[str, str, str]]:
    tree = ast.parse(CENSUS.read_text(), filename=str(CENSUS))
    for node in tree.body:
        target = getattr(node, "target", None)
        if isinstance(node, ast.AnnAssign) and target.id == "KEPT":
            return ast.literal_eval(node.value)
    raise AssertionError("scripts/reach_census.py defines no KEPT")


def qualnames(body: List[ast.stmt], prefix: str = "") -> Iterator[str]:
    """Every class and function a module defines, by qualified name."""
    for node in body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            name = prefix + node.name
            yield name
            if isinstance(node, ast.ClassDef):
                yield from qualnames(node.body, name + ".")


ROWS = kept_rows()


def test_rows_are_well_formed():
    assert ROWS
    for row in ROWS:
        assert len(row) == 3 and all(isinstance(f, str) for f in row), row
        category, module, _ = row
        assert category and module.endswith(".py"), row
    assert len(set(ROWS)) == len(ROWS), "duplicate KEPT rows"


@pytest.mark.parametrize(
    "category, module, qualname", ROWS,
    ids=[f"{module}::{name or '*'}" for _, module, name in ROWS],
)
def test_row_names_code_that_exists(category, module, qualname):
    path = SRC / module
    assert path.is_file(), f"KEPT row ({category}) names missing {module}"
    if qualname:
        tree = ast.parse(path.read_text(), filename=str(path))
        assert qualname in set(qualnames(tree.body)), (
            f"KEPT row ({category}) names {qualname}, which "
            f"src/{module} no longer defines"
        )
