"""``scripts/reach_census.py``'s ``KEPT`` rows name code that exists.

The census gates on unexplained unreached functions, and a ``KEPT``
row is the only way to explain one.  A row left behind after its
function is deleted or renamed would be a silent exemption for
whatever later takes the name, so every row must name a module under
``src/`` and, unless it keeps the whole module, a qualified name that
module defines.  The rows are read with ``ast``.

The ``[named only]`` report is checked on a planted ``src/`` tree: an
unreached method whose name only collides with a local variable must be
reported there, with the line that excused it, and not fail the gate.
"""

from __future__ import annotations

import ast
import importlib.util
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


def load_census():
    """The census script as a module (only its ``main`` touches
    ``sys.path`` or runs anything)."""
    spec = importlib.util.spec_from_file_location("reach_census", CENSUS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PLANTED = """\
class Scorer:
    def scores(self):
        return [1.0]

    def orphan(self):
        return None


def rank(values):
    scores = sorted(values)
    return scores
"""


def test_name_match_lands_in_the_named_only_section(tmp_path):
    census = load_census()
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "planted.py").write_text(PLANTED)
    src = tmp_path / "src"
    unreached = [fn for fn, __ in census.src_functions(src)]
    assert [fn.qualname for fn in unreached] == [
        "Scorer.scores", "Scorer.orphan", "rank",
    ]
    by_reason, named_only = census.sort_unreached(
        unreached, census.src_uses(src), {"examples/demo.py": "rank(x)"}
    )
    assert [(fn.qualname, match) for fn, match in named_only] == [
        ("Scorer.scores", "read at src/repro/planted.py:10 (name)"),
        ("rank", "word in examples/demo.py"),
    ]
    assert by_reason == {"UNEXPLAINED": [unreached[1]]}


def test_name_match_needs_a_whole_word():
    census = load_census()
    fn = census.Function("repro/planted.py", "Scorer.scores", "scores", 2)
    texts = {"scripts/a.py": "best_scores = scores_k", "scripts/b.py": "x"}
    assert census.name_match(fn, {}, texts) == ""
    texts["scripts/b.py"] = "print(scores)"
    assert census.name_match(fn, {}, texts) == "word in scripts/b.py"
    used = {"scores": "src/repro/x.py:3 (attribute)"}
    assert census.name_match(fn, used, texts) == (
        "read at src/repro/x.py:3 (attribute)"
    )


def test_stubs_are_not_counted(tmp_path):
    """A docstring-only method (a name kept for an outside reader) and
    ``...`` / ``NotImplementedError`` bodies are not census entries."""
    census = load_census()
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "stubs.py").write_text(
        "class Kept:\n"
        "    def retired(self, entries):\n"
        "        \"\"\"Kept as a name only.\"\"\"\n\n"
        "    def abstract(self):\n"
        "        raise NotImplementedError\n\n"
        "    def ellipsis(self):\n"
        "        ...\n\n"
        "    def real(self):\n"
        "        return 1\n"
    )
    found = census.src_functions(tmp_path / "src")
    assert [fn.qualname for fn, __ in found] == ["Kept.real"]


def test_data_model_methods_and_kept_rows_explain_without_a_match():
    census = load_census()
    dunder = census.Function("repro/x.py", "Thing.__len__", "__len__", 1)
    module, prefix = census.KEPT[0][1:]
    kept = census.Function(module, prefix, prefix.split(".")[-1], 1)
    bare = census.Function("repro/x.py", "helper", "helper", 9)
    by_reason, named_only = census.sort_unreached(
        [dunder, kept, bare], {}, {}
    )
    assert named_only == []
    assert by_reason == {
        "data-model method": [dunder],
        census.KEPT[0][0]: [kept],
        "UNEXPLAINED": [bare],
    }
