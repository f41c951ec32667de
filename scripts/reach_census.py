#!/usr/bin/env python
"""Reach census: which ``src/`` functions does nothing but the tests use?

Runs every way the repository is used, under a ``sys.settrace`` call
and line collector:

* the scenario registry, each entry at its golden-pin horizon, then
  again under the scalar reference kernel at 12 epochs or fewer;
* the end-to-end benchmark's four workloads, one untraced replay of
  each window (``benchmarks/e2e/run.py``);
* every ``repro.cli`` subcommand, on small inputs;
* all seven examples.

A function none of these enters is then searched for by name: in
``benchmarks/``, ``examples/`` and ``scripts/`` as text, and in ``src/``
as a name or attribute that some code reads (an import or an
``__all__`` entry is not a use).  What is left — never executed, called
nowhere outside ``tests/`` — is printed, each with the reason it is
kept or as ``UNEXPLAINED``.  A reason is an entry of ``KEPT`` below or
a Python data-model method (``__len__``, ``__str__``, …: called
implicitly, so the name search cannot see its callers); being exported
from a package is not one.  Unexplained code is a deletion candidate:
it duplicates a path the engine runs, or nothing needs it at all.
Protocol and abstract stubs are not counted.

The name search is coarse: any identifier ``src/`` reads, a local
variable included, or any word of a searched file excuses a function
of that name.  The functions it excuses are printed too, in a separate
``[named only]`` section with the match that excused each one (the
first ``src/`` line reading the name, or the first searched file
holding the word).  That section never fails the run; it is where an
unreached method hides behind a same-named local.  The figure benches'
callees (``summarize_durability``, ``ClaimTable.render``, …) show up
there because the census does not run ``benchmarks/test_*.py``: an
installed pytest plugin may reset the trace function, and a
``pytest.main`` run under ``sys.settrace`` then records nothing.

A reached function can still hold a path no run takes: a branch, a
fallback, a knob only tests set.  The ``[unreached statements]``
section lists, per reached function, the statements no run executed.
A compound statement (``if``, ``for``, ``try`` …) counts as reached
when any line from its header to the first line of its body ran —
Python reports a multi-line condition's line events on its operands'
lines — and a block made only of ``raise`` statements (validation) is
not counted.  An unreached compound statement is listed once, as its
whole line range.  That section never fails the run either.

A knob can also be settable yet never set.  The ``[single-valued
fields]`` section walks every ``SimConfig`` the runs above built a
``Simulation`` from, leaf field by leaf field (nested config classes
and tuples of them included), and lists each field that held one value
in all of them, with that value.  The figure benches are not among
those runs, so a field only a bench varies is listed too.  The
section never fails the run.

Usage:  python scripts/reach_census.py

Takes about two minutes on a laptop-class core.  Exits 1 when
anything is ``UNEXPLAINED`` (each such function is printed with its
file and line), 0 otherwise: delete the function, or give it a ``KEPT``
row that says why a test needs it.
"""

from __future__ import annotations

import ast
import contextlib
import dataclasses
import io
import re
import runpy
import sys
import tempfile
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SEARCHED = ("benchmarks", "examples", "scripts")

#: Code the census leaves unreached on purpose: ``(category, module,
#: qualified-name prefix)``.  An empty prefix keeps the whole module.
#: A "reference implementation" is the oracle a test holds a path the
#: engine runs to; a "frame series" is a derived frame property that
#: ``series(name)`` reads by name and the telemetry golden pins.
KEPT: Tuple[Tuple[str, str, str], ...] = (
    ("invariant check", "repro/store/replica.py",
     "ReplicaCatalog.check_consistency"),
    ("invariant check", "repro/ring/virtualring.py",
     "VirtualRing.check_invariants"),
    ("reference implementation", "repro/core/availability.py",
     "availability_without"),
    ("reference implementation", "repro/cluster/events.py",
     "fig3_schedule"),
    ("frame series", "repro/sim/metrics.py",
     "ControlPlaneFrame.messages_sent"),
    ("frame series", "repro/sim/metrics.py",
     "ControlPlaneFrame.messages_dropped"),
    ("frame series", "repro/sim/metrics.py",
     "ControlPlaneFrame.membership_error"),
    ("frame series", "repro/sim/metrics.py",
     "DataPlaneFrame.failure_rate"),
    ("framedump comparator", "repro/sim/framedump.py", ""),
)


class Function(NamedTuple):
    module: str      # path under src/, e.g. "repro/ring/router.py"
    qualname: str
    name: str
    line: int        # first line of the code object (decorators included)


# ---------------------------------------------------------------------------
# What src/ defines
# ---------------------------------------------------------------------------


def _is_stub(node: ast.AST) -> bool:
    """A body of only a docstring, ``...``, ``pass`` or a bare raise."""
    decorators = {
        getattr(d, "id", getattr(d, "attr", None))
        for d in node.decorator_list
    }
    if decorators & {"abstractmethod", "overload"}:
        return True
    for stmt in node.body:
        if isinstance(stmt, ast.Pass):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value,
                                                     ast.Constant):
            continue  # docstring or ``...``
        if isinstance(stmt, ast.Raise) and "NotImplementedError" in (
            ast.unparse(stmt)
        ):
            continue
        return False
    return True


def _walk(module: str, body: List[ast.stmt], prefix: str,
          in_protocol: bool) -> Iterator[Tuple[Function, ast.AST]]:
    for node in body:
        if isinstance(node, ast.ClassDef):
            protocol = any(
                getattr(b, "id", getattr(b, "attr", None)) == "Protocol"
                for b in node.bases
            )
            yield from _walk(module, node.body,
                             f"{prefix}{node.name}.", protocol)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if in_protocol or _is_stub(node):
                continue
            yield Function(module, prefix + node.name, node.name,
                           _first_line(node)), node


def _first_line(node: ast.AST) -> int:
    """A definition's first line, decorators included (its code
    object's ``co_firstlineno``)."""
    return min([node.lineno] + [d.lineno for d in node.decorator_list])


def _nested(fn: Function, node: ast.AST
            ) -> Iterator[Tuple[Function, ast.AST]]:
    """The functions nested in ``fn``, at any depth."""
    for inner in ast.walk(node):
        if inner is not node and isinstance(
            inner, (ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            yield Function(fn.module, f"{fn.qualname}.<locals>.{inner.name}",
                           inner.name, _first_line(inner)), inner


def src_functions(src: Path = SRC
                  ) -> List[Tuple[Function, List[Function]]]:
    """Every top-level-or-method function, with the functions nested in it."""
    out = []
    for path in sorted((src / "repro").rglob("*.py")):
        module = path.relative_to(src).as_posix()
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn, node in _walk(module, tree.body, "", False):
            out.append((fn, [inner for inner, __ in _nested(fn, node)]))
    return out


# ---------------------------------------------------------------------------
# What the workloads execute
# ---------------------------------------------------------------------------


class Collector:
    """Records ``(file, first line)`` of every code object entered and
    every line executed, per file, under ``src/repro``."""

    def __init__(self, src: Path = SRC) -> None:
        self.entered: Set[Tuple[str, int]] = set()
        self.lines: Dict[str, Set[int]] = {}
        self._src = src
        self._prefix = str(src / "repro")
        # Per code object: its line tracer, and the lines it can report
        # (its ``def`` line aside) not seen yet; once none are left its
        # frames run untraced.
        self._local: Dict[object, object] = {}
        self._pending: Dict[object, Set[int]] = {}

    def _trace(self, frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(self._prefix):
            return None
        self.entered.add((code.co_filename, code.co_firstlineno))
        if code not in self._local:
            self._local[code] = self._line_tracer(code)
        return self._local[code] if self._pending[code] else None

    def _line_tracer(self, code):
        seen = self.lines.setdefault(code.co_filename, set())
        pending = self._pending[code] = {
            line for __, __, line in code.co_lines()
            if line is not None and line != code.co_firstlineno
        } - seen

        def local(frame, event, arg):
            if event == "line":
                line = frame.f_lineno
                seen.add(line)
                pending.discard(line)
            return local

        return local

    @contextlib.contextmanager
    def active(self) -> Iterator[None]:
        sys.settrace(self._trace)
        try:
            yield
        finally:
            sys.settrace(None)

    def reached(self, fn: Function) -> bool:
        return (str(self._src / fn.module), fn.line) in self.entered


def _quietly(label: str, call) -> None:
    """Run one entry point with its output swallowed; report its exit."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = call()
        except SystemExit as exc:
            code = exc.code
    failed = isinstance(code, int) and code != 0
    print(f"  ran {label}{f': exited {code}' if failed else ''}",
          file=sys.__stderr__)


def run_registry() -> None:
    from repro.sim import specs

    for name in sorted(specs.REGISTRY):
        _quietly(f"registry {name}",
                 lambda name=name: specs.get(name).pinned()
                 .simulation().run())


#: The scalar reference kernel's pass over the registry: no longer than
#: this many epochs per entry (a statement it reaches is reached).
SCALAR_EPOCHS = 12


def run_registry_scalar() -> None:
    from repro.sim import specs
    from repro.sim.scenario import compile_spec

    for name in sorted(specs.REGISTRY):
        entry = specs.get(name)
        spec = entry.spec.with_operations(
            epochs=min(entry.pin_epochs, SCALAR_EPOCHS), kernel="scalar",
        )
        _quietly(f"registry {name} (scalar)",
                 lambda spec=spec: compile_spec(spec).simulation().run())


def run_benchmark(out: Path) -> None:
    sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))
    import run as bench_run
    from bench_workloads import WORKLOADS

    for name in WORKLOADS:
        _quietly(f"benchmark {name}", lambda name=name: bench_run.main([
            "--workload", name, "--pin-seed", "0", "--replays", "1",
            "--out", str(out),
        ]))


#: Each subcommand once, on inputs small enough to take seconds.
CLI_RUNS = (
    ("run", "--epochs", "4", "--partitions", "20", "--points", "2"),
    ("run", "--epochs", "4", "--partitions", "20", "--points", "2",
     "--fig3-events", "--net-loss", "0.05", "--net-partition", "1:3",
     "--net-flap", "1:3:1", "--divergence"),
    ("run", "--epochs", "4", "--partitions", "20", "--points", "2",
     "--serve-rate", "32"),
    ("run", "--epochs", "4", "--partitions", "20", "--points", "2",
     "--consistency-audit"),
    ("compare", "--epochs", "4", "--partitions", "20"),
    ("report", "--epochs", "4", "--partitions", "20"),
    ("profile", "--epochs", "2", "--partitions", "20", "--repeats", "1",
     "--cprofile", "--top", "3"),
    ("scenario", "list"),
    ("scenario", "show", "paper-uniform"),
    ("scenario", "run", "paper-uniform", "--epochs", "4", "--points", "2"),
    ("info",),
)


def run_cli(out: Path) -> None:
    from repro import cli

    for argv in CLI_RUNS:
        if argv[0] == "profile":
            argv = argv + ("--json", str(out / "profile.json"))
        _quietly("cli " + " ".join(argv),
                 lambda argv=argv: cli.main(list(argv)))


def run_examples() -> None:
    for path in sorted((ROOT / "examples").glob("*.py")):
        saved = sys.argv
        sys.argv = [str(path)]
        try:
            _quietly(f"example {path.stem}",
                     lambda path=path: runpy.run_path(str(path),
                                                      run_name="__main__"))
        finally:
            sys.argv = saved


# ---------------------------------------------------------------------------
# Statements no run executes
# ---------------------------------------------------------------------------


_SILENT = (ast.Pass, ast.Global, ast.Nonlocal)


def _silent(stmt: ast.stmt) -> bool:
    """A statement that compiles to no line event: a docstring, a bare
    constant (``...``), ``pass``, ``global``, ``nonlocal``."""
    return isinstance(stmt, _SILENT) or (
        isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
    )


def _raises_only(block: List[ast.stmt]) -> bool:
    return all(isinstance(stmt, ast.Raise) for stmt in block)


def unreached_statements(body: List[ast.stmt], ran: Set[int]
                         ) -> List[Tuple[int, int]]:
    """``(first, last)`` line ranges of the statements in ``body`` no
    line of which ran.  A compound statement is reached when a line
    from its header to its body's first line ran; an unreached one is
    one range, its blocks not entered.  Blocks made only of ``raise``
    statements are skipped, and nested ``def`` / ``class`` bodies are
    their own census entries."""
    out: List[Tuple[int, int]] = []

    def hit(first: int, last: int) -> bool:
        return any(line in ran for line in range(first, last + 1))

    def walk(block: List[ast.stmt]) -> None:
        if _raises_only(block):
            return  # validation (or an empty block)
        for stmt in block:
            if _silent(stmt):
                continue
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                first = _first_line(stmt)
                if not hit(first, stmt.lineno):
                    out.append((first, stmt.end_lineno))
                continue
            compound = hasattr(stmt, "body")
            if not hit(stmt.lineno, stmt.body[0].lineno if compound
                       else stmt.end_lineno):
                out.append((stmt.lineno, stmt.end_lineno))
                continue
            for name in ("body", "orelse", "finalbody"):
                walk(getattr(stmt, name, []))
            for handler in getattr(stmt, "handlers", ()):
                if _raises_only(handler.body):
                    continue
                if not hit(handler.lineno, handler.body[0].lineno):
                    out.append((handler.lineno, handler.end_lineno))
                else:
                    walk(handler.body)

    walk(body)
    return out


def statement_census(collector: Collector, src: Path = SRC
                     ) -> List[Tuple[Function, List[Tuple[int, int]]]]:
    """Per reached function (nested ones included), the line ranges of
    its statements no run executed."""
    out = []
    for path in sorted((src / "repro").rglob("*.py")):
        module = path.relative_to(src).as_posix()
        tree = ast.parse(path.read_text(), filename=str(path))
        ran = collector.lines.get(str(path), set())
        for fn, node in _walk(module, tree.body, "", False):
            for entry, inner in [(fn, node), *_nested(fn, node)]:
                if not collector.reached(entry):
                    continue
                missed = unreached_statements(inner.body, ran)
                if missed:
                    out.append((entry, missed))
    return out


# ---------------------------------------------------------------------------
# Config fields no run varies
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def compiled_configs(configs: List[object]) -> Iterator[None]:
    """Append to ``configs`` every config a ``Simulation`` is built from."""
    from repro.sim.engine import Simulation

    init = Simulation.__init__

    def recording(self, config, *args, **kwargs):
        configs.append(config)
        init(self, config, *args, **kwargs)

    Simulation.__init__ = recording
    try:
        yield
    finally:
        Simulation.__init__ = init


def leaf_values(config: object, path: str = ""
                ) -> Iterator[Tuple[str, str]]:
    """``(field path, repr of its value)`` for every leaf field of a
    config dataclass.  A nested dataclass is walked (``serving.workers``)
    and so is each item of a tuple of them (``apps[].name``); a present
    section also yields its class name, so a section that is sometimes
    ``None`` does not read as single-valued."""
    for f in dataclasses.fields(config):
        value, name = getattr(config, f.name), path + f.name
        if dataclasses.is_dataclass(value):
            yield name, type(value).__name__
            yield from leaf_values(value, name + ".")
        elif (isinstance(value, tuple) and value
              and all(dataclasses.is_dataclass(v) for v in value)):
            yield name, f"{len(value)} items"
            for item in value:
                yield from leaf_values(item, name + "[].")
        else:
            yield name, repr(value)


def single_valued(configs: List[object]
                  ) -> Tuple[int, List[Tuple[str, str]]]:
    """The number of leaf field paths ``configs`` have, and the
    ``(path, value)`` of each that held one value in all of them."""
    seen: Dict[str, Set[str]] = {}
    for config in configs:
        for name, value in leaf_values(config):
            seen.setdefault(name, set()).add(value)
    return len(seen), [
        (name, next(iter(values)))
        for name, values in sorted(seen.items()) if len(values) == 1
    ]


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------


def named_outside_tests() -> Dict[str, str]:
    """The text of every searched file, this script excluded, keyed by
    its path under the repository root."""
    me = Path(__file__).resolve()
    return {
        path.relative_to(ROOT).as_posix(): path.read_text()
        for top in SEARCHED
        for path in sorted((ROOT / top).rglob("*.py"))
        if path.resolve() != me
    }


def src_uses(src: Path = SRC) -> Dict[str, str]:
    """Names ``src/`` reads, as names or attributes, each mapped to the
    first place that reads it (``path:line (name|attribute)``)."""
    used: Dict[str, str] = {}
    for path in sorted((src / "repro").rglob("*.py")):
        shown = path.relative_to(src.parent).as_posix()
        first: Dict[str, Tuple[int, str]] = {}
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                name, kind = node.id, "name"
            elif isinstance(node, ast.Attribute):
                name, kind = node.attr, "attribute"
            else:
                continue
            if name not in used:
                first[name] = min(first.get(name, (node.lineno, kind)),
                                  (node.lineno, kind))
        for name, (line, kind) in first.items():
            used[name] = f"{shown}:{line} ({kind})"
    return used


def name_match(fn: Function, used: Dict[str, str],
               texts: Dict[str, str]) -> str:
    """The match that excuses ``fn`` by name, or "" when none does."""
    if fn.name in used:
        return f"read at {used[fn.name]}"
    word = re.compile(rf"\b{re.escape(fn.name)}\b")
    for path, text in texts.items():
        if word.search(text):
            return f"word in {path}"
    return ""


def sort_unreached(unreached: List[Function], used: Dict[str, str],
                   texts: Dict[str, str]
                   ) -> Tuple[Dict[str, List[Function]],
                              List[Tuple[Function, str]]]:
    """Split unreached functions into those no name match excuses,
    grouped by keep reason (``UNEXPLAINED`` when none), and the
    ``(function, match)`` pairs a name match excuses."""
    by_reason: Dict[str, List[Function]] = {}
    named_only: List[Tuple[Function, str]] = []
    for fn in unreached:
        match = name_match(fn, used, texts)
        if match:
            named_only.append((fn, match))
        else:
            reason = kept_reason(fn) or "UNEXPLAINED"
            by_reason.setdefault(reason, []).append(fn)
    return by_reason, named_only


def kept_reason(fn: Function) -> str:
    for category, module, prefix in KEPT:
        if fn.module == module and fn.qualname.startswith(prefix):
            return category
    if fn.name.startswith("__") and fn.name.endswith("__"):
        return "data-model method"
    return ""


def _show(ranges: List[Tuple[int, int]]) -> str:
    """``[(3, 4), (5, 5), (9, 9)]`` as ``"3-5, 9"``: adjacent ranges
    merge."""
    merged: List[List[int]] = []
    for first, last in ranges:
        if merged and first == merged[-1][1] + 1:
            merged[-1][1] = last
        else:
            merged.append([first, last])
    return ", ".join(
        str(first) if first == last else f"{first}-{last}"
        for first, last in merged
    )


def main() -> int:
    sys.path.insert(0, str(SRC))
    collector = Collector()
    configs: List[object] = []
    # Traced from the first import on: some src/ code runs only then.
    with tempfile.TemporaryDirectory() as tmp, collector.active(), \
            compiled_configs(configs):
        run_registry()
        run_registry_scalar()
        run_benchmark(Path(tmp))
        run_cli(Path(tmp))
        run_examples()

    functions = src_functions()
    unreached: List[Function] = []
    reached = 0
    for fn, nested in functions:
        if collector.reached(fn):
            reached += 1
            # A closure of a reached function counts on its own.
            unreached += [n for n in nested if not collector.reached(n)]
        else:
            unreached.append(fn)
    by_reason, named_only = sort_unreached(
        unreached, src_uses(), named_outside_tests()
    )
    unnamed = len(unreached) - len(named_only)

    print(f"reach census: {len(functions)} src functions, {reached} "
          f"reached; {len(unreached)} unreached, of which {unnamed} "
          f"are called nowhere outside tests/")
    for reason in sorted(by_reason, key=lambda r: (r == "UNEXPLAINED", r)):
        print(f"\n[{reason}]")
        for fn in by_reason[reason]:
            print(f"  src/{fn.module}:{fn.line}  {fn.qualname}")
    print(f"\n[named only] {len(named_only)} unreached functions a name "
          f"match excuses (reported, never a failure)")
    for fn, match in named_only:
        print(f"  src/{fn.module}:{fn.line}  {fn.qualname}  <- {match}")
    missed = statement_census(collector)
    print(f"\n[unreached statements] "
          f"{sum(len(ranges) for __, ranges in missed)} statements no run "
          f"executes, in {len(missed)} reached functions (reported, never "
          f"a failure)")
    for fn, ranges in missed:
        print(f"  src/{fn.module}:{fn.line}  {fn.qualname}  lines "
              f"{_show(ranges)}")
    leaves, fixed = single_valued(configs)
    print(f"\n[single-valued fields] {len(fixed)} of {leaves} SimConfig "
          f"leaf fields held one value in the {len(configs)} configs "
          f"these runs built (the figure benches are not among them; "
          f"reported, never a failure)")
    for name, value in fixed:
        print(f"  {name} = {value}")
    unexplained = len(by_reason.get("UNEXPLAINED", ()))
    print(f"\nsummary: {unnamed - unexplained} kept, "
          f"{unexplained} unexplained, {len(named_only)} named only")
    return 1 if unexplained else 0


if __name__ == "__main__":
    sys.exit(main())
