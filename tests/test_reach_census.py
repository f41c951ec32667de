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
So is the ``[unreached statements]`` report's line rule: a planted
function run under the collector lists only the statements no call
executed, with ``raise``-only blocks left out.  The ``[single-valued
fields]`` report is checked on planted configs: only the leaf fields
that held one value in all of them are listed.
"""

from __future__ import annotations

import ast
import importlib.util
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Optional, Tuple

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


BRANCHES = """\
def pick(x, y):
    if (
        x > 0
        and y > 0
    ):
        return 1
    if x < -100:
        raise ValueError(x)
    if x > 100:
        return 2
    try:
        y = 1 // y
    except ZeroDivisionError:
        raise
    except TypeError:
        y = 0
    return y
"""


def test_statement_census_lists_what_no_run_executes(tmp_path):
    """Run a planted function under the collector: only the body no
    call takes (``return 2``) and the ``except TypeError`` clause are
    listed.  The multi-line ``if`` reports its line events on its
    operands' lines, never on its header's first line, and counts as
    reached through the header-to-body range; the ``raise``-only
    blocks are validation and not counted."""
    census = load_census()
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    path = package / "branches.py"
    path.write_text(BRANCHES)
    namespace = {}
    exec(compile(BRANCHES, str(path), "exec"), namespace)
    collector = census.Collector(tmp_path / "src")
    with collector.active():
        namespace["pick"](1, 1)
        namespace["pick"](1, -1)
    assert 2 not in collector.lines[str(path)]
    [(fn, missed)] = census.statement_census(collector, tmp_path / "src")
    assert fn.qualname == "pick"
    assert missed == [(10, 10), (15, 16)]


def test_statement_ranges():
    """A compound statement is reached through any line from its header
    to its body's first line; an unreached one is one range."""
    census = load_census()
    body = ast.parse(BRANCHES).body[0].body
    # Neither ``raise`` (lines 8, 14) ran, and neither is listed.
    ran = {3, 4, 6, 7, 9, 10, 11, 12, 13, 15, 16, 17}
    assert census.unreached_statements(body, ran) == []
    # Only the operand line of the multi-line condition ran.
    assert census.unreached_statements(body, ran - {3}) == []
    # Nothing of the first ``if`` ran: it is listed whole, once.
    assert census.unreached_statements(body, ran - {3, 4, 6}) == [(2, 6)]
    assert census.unreached_statements(body, {17}) == [
        (2, 6), (7, 8), (9, 10), (11, 16),
    ]
    assert census._show([(2, 6), (7, 8), (11, 16)]) == "2-8, 11-16"


def unreached(source: str, ran):
    """``unreached_statements`` over the body of the one function
    ``source`` defines, given the line numbers that ran."""
    census = load_census()
    [fn] = ast.parse(source).body
    return census.unreached_statements(fn.body, set(ran))


LOOP = """\
def total(xs):
    out = 0
    for x in xs:
        out += x
    return out
"""


def test_a_loop_body_never_entered_is_listed():
    """The ``for`` header ran over an empty iterable; its body did not."""
    assert unreached(LOOP, {2, 3, 5}) == [(4, 4)]
    assert unreached(LOOP, {2, 3, 4, 5}) == []


ELSE = """\
def sign(x):
    if x > 0:
        return 1
    else:
        return -1
"""


def test_an_else_block_no_run_takes_is_listed():
    """The ``else`` keyword has no statement of its own: the unreached
    block is its body's range."""
    assert unreached(ELSE, {2, 3}) == [(5, 5)]
    assert unreached(ELSE, {2, 5}) == [(3, 3)]


CHECK = """\
def check(x):
    if x < 0:
        msg = f"bad {x}"
        raise ValueError(msg)
    return x
"""


def test_a_block_that_does_more_than_raise_is_counted():
    """Only blocks made of ``raise`` statements alone are exempt; one
    that builds its message first is listed, its ``raise`` included."""
    census = load_census()
    assert unreached(CHECK, {2, 5}) == [(3, 3), (4, 4)]
    assert census._show(unreached(CHECK, {2, 5})) == "3-4"


SILENT = '''\
def noop(x):
    """Docstring."""
    ...
    pass
    return x
'''


def test_statements_without_line_events_are_not_listed():
    """A docstring, ``...`` and ``pass`` compile to no line event, so
    no run can reach them and none is listed."""
    assert unreached(SILENT, {5}) == []
    assert unreached(SILENT, set()) == [(5, 5)]


NESTED = """\
def outer(flag):
    @staticmethod
    def inner():
        return 1
    if flag:
        return inner()
    return 0
"""


def test_a_nested_def_is_reached_through_its_decorator_line():
    """A nested ``def`` is one statement of the outer body, reached
    from its first decorator line on; its body is its own census
    entry and never listed in the outer one."""
    assert unreached(NESTED, {2, 5, 7}) == [(6, 6)]
    assert unreached(NESTED, {5, 7}) == [(2, 4), (6, 6)]


FINALLY = """\
def close(x):
    try:
        x = 1
    finally:
        x = 2
    return x
"""


def test_a_finally_block_is_walked():
    assert unreached(FINALLY, {2, 3, 5, 6}) == []
    assert unreached(FINALLY, {2, 3, 6}) == [(5, 5)]


TWO = """\
def called(flag):
    if flag:
        return 1
    return 0


def never_called():
    if True:
        return 2
"""


def test_statement_census_skips_functions_no_run_reached(tmp_path):
    """A function no run entered is the function census's business:
    the statement census lists only the reached one's missed line."""
    census = load_census()
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    path = package / "two.py"
    path.write_text(TWO)
    namespace = {}
    exec(compile(TWO, str(path), "exec"), namespace)
    collector = census.Collector(tmp_path / "src")
    with collector.active():
        namespace["called"](True)
    [(fn, missed)] = census.statement_census(collector, tmp_path / "src")
    assert fn.qualname == "called"
    assert missed == [(4, 4)]


@dataclass(frozen=True)
class PlantedTier:
    replicas: int
    name: str = "tier"


@dataclass(frozen=True)
class PlantedOverlay:
    workers: int = 128
    keyspace: int = 96


@dataclass(frozen=True)
class PlantedConfig:
    tiers: Tuple[PlantedTier, ...]
    epochs: int = 100
    seed: int = 0
    serving: Optional[PlantedOverlay] = None


def test_single_valued_fields_lists_what_no_config_varies():
    """``seed``, every tier's ``name`` and the overlay's ``workers``
    held one value; ``serving`` is absent from one config, so it is not
    single-valued although its one present value never changed."""
    census = load_census()
    configs = [
        PlantedConfig((PlantedTier(2), PlantedTier(3)), epochs=10,
                      serving=PlantedOverlay(keyspace=8)),
        PlantedConfig((PlantedTier(2),), epochs=20,
                      serving=PlantedOverlay()),
        PlantedConfig((PlantedTier(4), PlantedTier(2))),
    ]
    leaves, fixed = census.single_valued(configs)
    assert leaves == 8
    assert fixed == [
        ("seed", "0"),
        ("serving.workers", "128"),
        ("tiers[].name", "'tier'"),
    ]
    assert list(census.leaf_values(configs[1])) == [
        ("tiers", "1 items"), ("tiers[].replicas", "2"),
        ("tiers[].name", "'tier'"), ("epochs", "20"), ("seed", "0"),
        ("serving", "PlantedOverlay"), ("serving.workers", "128"),
        ("serving.keyspace", "96"),
    ]

