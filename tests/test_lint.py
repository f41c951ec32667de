"""Lint gate: unused imports, tracked bytecode, package docstrings.

Covers ``src/``, ``benchmarks/`` and ``examples/``.  Runs ``ruff
check`` when ruff is installed (configured via ``ruff.toml``);
otherwise falls back to a stdlib AST pass that enforces the F401
(unused import) rule on every module in those trees — the container
this repo builds in has no ruff wheel, and the dead-import satellite of
PR 1 should stay fixed either way.

``__init__.py`` files are exempt from the import rule (re-export
surface) but every package ``__init__.py`` under ``src/`` must carry a
module docstring — the README/ARCHITECTURE docs link packages by their
one-line purpose, and an undocumented package breaks that contract.

The gate also fails on *tracked* ``__pycache__``/``*.pyc`` paths:
PR 2 accidentally committed bytecode, PR 3 removed it and added the
``.gitignore``, and this keeps it gone.
"""

from __future__ import annotations

import ast
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
#: Every tree the gate covers, relative to the repo root.
LINT_ROOTS = ("src", "benchmarks", "examples")


def _imported_names(tree: ast.AST):
    """Yield (local_name, node) for every import binding in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                yield local, node
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                yield local, node


def _used_names(tree: ast.AST):
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            # "repro.sim.engine.Simulation" style dotted use: the root
            # Name node is collected above; nothing extra needed here.
            pass
    return used


def _string_annotation_names(tree: ast.AST):
    """Names inside string annotations / docstring-free typing usage."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            value = node.value.strip()
            if value.isidentifier():
                names.add(value)
    return names


def find_unused_imports(path: Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used_names(tree) | _string_annotation_names(tree)
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == "__all__":
                    if isinstance(node.value, (ast.List, ast.Tuple)):
                        for elt in node.value.elts:
                            if isinstance(elt, ast.Constant):
                                exported.add(elt.value)
    try:
        shown = path.relative_to(REPO_ROOT)
    except ValueError:
        shown = path
    unused = []
    for name, node in _imported_names(tree):
        if name not in used and name not in exported:
            unused.append(
                f"{shown}:{node.lineno}: unused import {name!r}"
            )
    return unused


def test_no_unused_imports_in_src():
    ruff = shutil.which("ruff")
    if ruff is not None:
        proc = subprocess.run(
            [ruff, "check", *LINT_ROOTS],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, f"ruff check failed:\n{proc.stdout}"
        return
    problems = []
    for root in LINT_ROOTS:
        for path in sorted((REPO_ROOT / root).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            problems.extend(find_unused_imports(path))
    assert not problems, "unused imports:\n" + "\n".join(problems)


def test_no_tracked_bytecode():
    """``git ls-files`` must not report __pycache__ / .pyc artifacts."""
    git = shutil.which("git")
    if git is None or not (REPO_ROOT / ".git").exists():
        pytest.skip("not a git checkout")
    proc = subprocess.run(
        [git, "ls-files"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    offenders = [
        line
        for line in proc.stdout.splitlines()
        if "__pycache__" in line or line.endswith(".pyc")
    ]
    assert not offenders, (
        "tracked bytecode (add to .gitignore and `git rm --cached`):\n"
        + "\n".join(offenders)
    )


def test_every_src_package_has_module_docstring():
    problems = []
    for path in sorted((REPO_ROOT / "src").rglob("__init__.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        if ast.get_docstring(tree) is None:
            problems.append(str(path.relative_to(REPO_ROOT)))
    assert not problems, (
        "packages missing a module docstring:\n" + "\n".join(problems)
    )


#: The only module allowed to implement doubling-growth allocation.
COLUMN_CORE = Path("src/repro/util/columns.py")

#: numpy allocators whose doubling use marks an ad-hoc growable array.
_ALLOCATORS = ("zeros", "empty", "full")


def _is_doubling_size(node: ast.AST) -> bool:
    """True when an allocation-size expression doubles a length/capacity.

    Matches the growth idiom all three column stores used to carry
    inline: ``2 * <something derived from len()/capacity>`` (either
    operand order), possibly wrapped in ``max(...)`` or a tuple shape.
    """
    for sub in ast.walk(node):
        if not (isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Mult)):
            continue
        operands = (sub.left, sub.right)
        if not any(
            isinstance(op, ast.Constant) and op.value == 2
            for op in operands
        ):
            continue
        for op in operands:
            for leaf in ast.walk(op):
                if (
                    isinstance(leaf, ast.Call)
                    and isinstance(leaf.func, ast.Name)
                    and leaf.func.id == "len"
                ):
                    return True
                if (
                    isinstance(leaf, (ast.Name, ast.Attribute))
                    and "cap" in (
                        leaf.id if isinstance(leaf, ast.Name) else leaf.attr
                    ).lower()
                ):
                    return True
    return False


def find_adhoc_growth_arrays(path: Path):
    """Doubling-growth numpy allocations outside the shared column core."""
    tree = ast.parse(path.read_text(), filename=str(path))
    try:
        shown = path.relative_to(REPO_ROOT)
    except ValueError:
        shown = path
    problems = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        func = node.func
        if not (
            isinstance(func, ast.Attribute)
            and func.attr in _ALLOCATORS
            and isinstance(func.value, ast.Name)
            and func.value.id in ("np", "numpy")
        ):
            continue
        if _is_doubling_size(node.args[0]):
            problems.append(
                f"{shown}:{node.lineno}: ad-hoc doubling-growth "
                f"np.{func.attr} — use repro.util.columns instead"
            )
    return problems


def test_no_adhoc_doubling_growth_arrays_in_src():
    """Growable-array machinery belongs to the shared column core.

    PR 5 collapsed three copies of the doubling-growth idiom
    (AgentLedger, ServerTable, metrics._Column) into
    ``repro.util.columns``; this gate keeps new copies from sneaking
    back in anywhere under ``src/`` outside that module.
    """
    problems = []
    for path in sorted((REPO_ROOT / "src").rglob("*.py")):
        if path.relative_to(REPO_ROOT) == COLUMN_CORE:
            continue
        problems.extend(find_adhoc_growth_arrays(path))
    assert not problems, (
        "ad-hoc growable arrays (move growth into repro.util.columns):\n"
        + "\n".join(problems)
    )


def test_growth_gate_detects_planted_doubling_alloc(tmp_path):
    """The growth checker itself must catch the idiom it bans."""
    planted = tmp_path / "planted.py"
    planted.write_text(
        "import numpy as np\n\n\ndef grow(arr):\n"
        "    grown = np.zeros(max(2 * len(arr), 1), dtype=arr.dtype)\n"
        "    grown[: len(arr)] = arr\n"
        "    return grown\n"
    )
    problems = find_adhoc_growth_arrays(planted)
    assert len(problems) == 1 and "doubling-growth" in problems[0]
    benign = tmp_path / "benign.py"
    benign.write_text(
        "import numpy as np\n\n\ndef pair_matrix(n):\n"
        "    return np.zeros((n + 1, n + 1))\n"
    )
    assert not find_adhoc_growth_arrays(benign)


def test_row_view_classes_declare_slots():
    """Row views over column stores must not grow a per-instance dict.

    The repo's scale story rests on columnar state (AgentLedger,
    ServerTable, FrameStore) with thin object views; a view class that
    silently gains ``__dict__`` re-introduces a per-row Python dict —
    exactly the overhead the stores exist to remove.  Every row-view
    (and the budget/histogram view helpers) must declare ``__slots__``
    in its own body, and no class on its MRO may contribute a
    ``__dict__``.
    """
    from repro.cluster.server import BandwidthBudget, Server, ServerTable
    from repro.core.agent import VNodeAgent
    from repro.sim.metrics import ServerVnodeHistogram

    row_views = (
        Server, BandwidthBudget, ServerTable, VNodeAgent,
        *_frame_classes(), ServerVnodeHistogram,
    )
    problems = []
    for cls in row_views:
        if "__slots__" not in cls.__dict__:
            problems.append(f"{cls.__name__} does not declare __slots__")
        dict_owners = [
            base.__name__
            for base in cls.__mro__
            if "__dict__" in getattr(base, "__dict__", {})
        ]
        if dict_owners:
            problems.append(
                f"{cls.__name__} instances carry __dict__ "
                f"(via {', '.join(dict_owners)})"
            )
    assert not problems, "row-view slot violations:\n" + "\n".join(problems)


def _frame_classes():
    from repro.sim.metrics import (
        ControlPlaneFrame,
        DataPlaneFrame,
        EpochFrame,
        ServingFrame,
    )

    return (EpochFrame, ControlPlaneFrame, DataPlaneFrame, ServingFrame)


def find_frame_field_lists(path: Path):
    """Module-level tuples / lists / sets / dict keys of strings that
    name fields of a frame dataclass."""
    import dataclasses

    field_names = {
        f.name for cls in _frame_classes() for f in dataclasses.fields(cls)
    }
    tree = ast.parse(path.read_text(), filename=str(path))
    problems = []
    for stmt in tree.body:
        if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            continue
        for node in ast.walk(stmt):
            if isinstance(node, ast.Dict):
                elements = node.keys
            elif isinstance(node, (ast.Tuple, ast.List, ast.Set)):
                elements = node.elts
            else:
                continue
            named = sorted(field_names.intersection(
                e.value for e in elements
                if isinstance(e, ast.Constant) and isinstance(e.value, str)
            ))
            if named:
                problems.append(
                    f"{path.name}:{node.lineno}: hand-kept list of frame "
                    f"fields ({', '.join(named[:3])}, ...) — the frame "
                    f"dataclass already declares them; ask the store"
                )
    return problems


def test_metrics_module_keeps_no_frame_field_lists():
    """The frame dataclasses are the one declaration of which fields
    exist and what they hold (ISSUE 18 deleted eight tuples that
    restated them); ``FrameStore`` derives its columns from the type
    hints, so a module-level field list can only drift."""
    problems = find_frame_field_lists(
        REPO_ROOT / "src/repro/sim/metrics.py"
    )
    assert not problems, "\n".join(problems)


def test_field_list_gate_detects_planted_tuple_and_dict(tmp_path):
    planted = tmp_path / "planted.py"
    planted.write_text(
        "import numpy as np\n"
        "INT_FIELDS = ('epoch', 'reads', 'writes')\n"
        "DTYPES: dict = {'vnodes_per_ring': np.int64}\n"
    )
    assert len(find_frame_field_lists(planted)) == 2
    benign = tmp_path / "benign.py"
    benign.write_text(
        "__all__ = ['MetricsLog', 'FrameStore']\n"
        "def totals(log):\n"
        "    return [log.total(n) for n in ('repairs', 'migrations')]\n"
    )
    assert not find_frame_field_lists(benign)


#: The four modules ``core/decision.py`` was split into: the §II-C pass,
#: its knobs, the live replica/agent incidence and eq. 5 settlement.  Every
#: decide-path gate below seals all four.
DECISION_MODULES = (
    Path("src/repro/core/decision.py"),
    Path("src/repro/core/policy.py"),
    Path("src/repro/core/incidence.py"),
    Path("src/repro/core/settlement.py"),
)


#: Decide-path modules that must consume liveness exclusively through
#: the MembershipView seam (``self._membership``), never by reading the
#: cloud's physical alive column directly.  The faulty-network control
#: plane (PR 6) depends on this: one stray ``server.alive`` /
#: ``cloud.alive_vector()`` in a decision path silently re-introduces
#: oracle membership and the stale-belief measurements lie.
#: ISSUE 7 extended the seal to the data plane: router and kv/quorum
#: stores route on *belief* (``membership.believed``) and probe reality
#: only through ``membership.responds`` / ``membership.reachable`` —
#: the sanctioned contact seam that lives in net/membership.py.
#: ISSUE 10 extends it to the serving front door: request routing and
#: latency costing must see the same believed view the router serves
#: from, or the reported tails stop reflecting stale-belief reality.
MEMBERSHIP_SEALED = (
    *DECISION_MODULES,
    Path("src/repro/ring/router.py"),
    Path("src/repro/serve/frontend.py"),
    Path("src/repro/serve/loadgen.py"),
    Path("src/repro/serve/sla.py"),
    Path("src/repro/store/quorum.py"),
)

#: Physical-liveness reads banned inside sealed modules.
_ALIVE_ATTRS = frozenset({"alive", "alive_vector"})


def find_direct_alive_reads(path: Path):
    """``.alive`` / ``.alive_vector`` attribute reads in a sealed module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    try:
        shown = path.relative_to(REPO_ROOT)
    except ValueError:
        shown = path
    problems = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in _ALIVE_ATTRS:
            problems.append(
                f"{shown}:{node.lineno}: direct liveness read "
                f"'.{node.attr}' — go through the MembershipView seam"
            )
    return problems


def test_decide_paths_use_membership_seam_only():
    problems = []
    for rel in MEMBERSHIP_SEALED:
        problems.extend(find_direct_alive_reads(REPO_ROOT / rel))
    assert not problems, (
        "decision paths reading physical liveness directly:\n"
        + "\n".join(problems)
    )


def test_alive_gate_detects_planted_direct_read(tmp_path):
    """The membership-seam checker must catch the idiom it bans."""
    planted = tmp_path / "planted.py"
    planted.write_text(
        "def live_ids(cloud):\n"
        "    vec = cloud.alive_vector()\n"
        "    return [s.server_id for s in cloud if s.alive]\n"
    )
    problems = find_direct_alive_reads(planted)
    assert len(problems) == 2
    benign = tmp_path / "benign.py"
    benign.write_text(
        "def live_ids(view):\n"
        "    return [sid for sid in view.ids if view.believed(sid)]\n"
    )
    assert not find_direct_alive_reads(benign)


def find_lexsorts(path: Path):
    """Every ``np.lexsort`` call in ``path``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    try:
        shown = path.relative_to(REPO_ROOT)
    except ValueError:
        shown = path
    return [
        f"{shown}:{node.lineno}: np.lexsort in a decide-path module — "
        f"the catalog carries each replica's agent row in catalog order, "
        f"so nothing there needs re-sorting"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "lexsort"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id in ("np", "numpy")
    ]


def test_decide_path_modules_never_lexsort():
    """A per-epoch re-sort of the incidence table is a wall sneaking
    back in: the catalog's flat view already carries every replica's
    agent row in catalog order."""
    problems = [
        problem
        for rel in DECISION_MODULES
        for problem in find_lexsorts(REPO_ROOT / rel)
    ]
    assert not problems, "re-sorts on the decide path:\n" + "\n".join(
        problems
    )


def test_lexsort_gate_detects_planted_resort(tmp_path):
    """The lexsort checker must catch the idiom it bans, in any
    function, and nothing else."""
    planted = tmp_path / "planted.py"
    planted.write_text(
        "import numpy as np\n\n\ndef _rebuild_alignment(cache):\n"
        "    order = np.lexsort((cache.slots, cache.pids))\n"
        "    return order\n"
    )
    problems = find_lexsorts(planted)
    assert len(problems) == 1 and "np.lexsort" in problems[0]
    benign = tmp_path / "benign.py"
    benign.write_text(
        "import numpy as np\n\n\ndef order(cache):\n"
        "    return np.argsort(cache.slots, kind='stable')\n"
    )
    assert not find_lexsorts(benign)


#: The catalog owns every replica's agent ledger row: a placement
#: acquires one, a drop releases it, a move keeps it, a split re-rows
#: the children.  Outside ``store/replica.py`` nothing may pair a catalog
#: mutation with an agent mutation by hand again — no ``spawn`` /
#: ``retire`` / ``rehome`` call at all, and no ``split_partition`` /
#: ``drop_server`` on a registry (the catalog's and the ring's own are
#: the mutations themselves).
ROW_OWNER = Path("src/repro/store/replica.py")
PAIRED_CALLS = frozenset({"spawn", "retire", "rehome"})
REGISTRY_PAIRED_CALLS = frozenset({"split_partition", "drop_server"})
#: (file, receiver) calls of those names that are not agent pairings:
#: numpy's ``SeedSequence.spawn`` deriving the run's RNG streams.
NOT_PAIRINGS = frozenset({(Path("src/repro/sim/seeds.py"), "root")})


def find_hand_paired_calls(path: Path):
    """Calls that mirror a catalog mutation onto agents by hand."""
    tree = ast.parse(path.read_text(), filename=str(path))
    try:
        shown = path.relative_to(REPO_ROOT)
    except ValueError:
        shown = path
    problems = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)):
            continue
        name = node.func.attr
        receiver = ast.unparse(node.func.value)
        if (Path(shown), receiver) in NOT_PAIRINGS:
            continue
        if name in PAIRED_CALLS or (
            name in REGISTRY_PAIRED_CALLS and "registry" in receiver.lower()
        ):
            problems.append(
                f"{shown}:{node.lineno}: {receiver}.{name}() pairs a "
                f"catalog mutation by hand — the catalog owns agent rows"
            )
    return problems


def test_only_the_catalog_writes_agent_rows():
    problems = [
        problem
        for path in sorted((REPO_ROOT / "src").rglob("*.py"))
        if path != REPO_ROOT / ROW_OWNER
        for problem in find_hand_paired_calls(path)
    ]
    assert not problems, "hand-paired agent mutations:\n" + "\n".join(
        problems
    )


def test_pairing_gate_detects_planted_pairs(tmp_path):
    planted = tmp_path / "planted.py"
    planted.write_text(
        "def seed(sim, p, sid):\n"
        "    sim.catalog.place(p, sid)\n"
        "    sim.registry.spawn(p.pid, sid)\n"
        "    self._registry.retire(p.pid, sid)\n"
        "    registry.rehome(p.pid, sid, 2)\n"
        "    self.registry.split_partition(a, b, c)\n"
        "    self._registry.drop_server(sid)\n"
    )
    assert len(find_hand_paired_calls(planted)) == 5
    benign = tmp_path / "benign.py"
    benign.write_text(
        "def split(self, ring, parent, low, high, sid):\n"
        "    ring.split_partition(parent.pid)\n"
        "    self.catalog.split_partition(parent, low, high)\n"
        "    self.catalog.drop_server(sid)\n"
        "    self.transfers.replicate(parent, None, sid)\n"
    )
    assert not find_hand_paired_calls(benign)


#: Line ceilings: no module carved out of
#: ``core/decision.py`` grows back past 900 lines;
#: ``core/placement.py`` stays at its size with eq. 3 answered by the
#: ceiling certificate and the scan alone (no shortlist windows), the
#: certificate's release rule included, and rent weighed at 1 (no
#: separate cost vector);
#: ``cluster/topology.py`` stays at its size without the S×S
#: diversity matrix; ``sim/scenario.py`` stays at its size with the
#: tiers holding the runtime dataclasses and old keys read through one
#: retired-key table.
MODULE_MAX_LINES = {
    **dict.fromkeys(DECISION_MODULES, 900),
    Path("src/repro/core/placement.py"): 648,
    Path("src/repro/cluster/topology.py"): 545,
    Path("src/repro/sim/scenario.py"): 1024,
}


def find_oversized(path: Path, limit: int):
    """One problem when ``path`` has more than ``limit`` lines."""
    lines = len(path.read_text().splitlines())
    if lines <= limit:
        return []
    return [f"{path.name}: {lines} lines, ceiling {limit}"]


def test_decide_path_modules_stay_under_their_ceilings():
    problems = [
        problem
        for rel, limit in MODULE_MAX_LINES.items()
        for problem in find_oversized(REPO_ROOT / rel, limit)
    ]
    assert not problems, "modules past their line ceiling:\n" + "\n".join(
        problems
    )


def test_size_gate_detects_planted_growth(tmp_path):
    """The size checker must catch one line too many, and only that."""
    planted = tmp_path / "planted.py"
    planted.write_text("x = 1\n" * 901)
    assert len(find_oversized(planted, 900)) == 1
    planted.write_text("x = 1\n" * 900)
    assert not find_oversized(planted, 900)


#: Inside ``TransferBatch`` the slot-ordered budget vector is the one
#: budget read (ISSUE 22 leg C): a ``Server.replication_budget`` /
#: ``migration_budget`` walk there — directly or through the module's
#: ``_budget`` helper — is a second source for numbers the vector and
#: the source-first refusal already answer from, and the two can only
#: drift.  Sealed (module, class) → the reads banned inside it.
BUDGET_READ_SEALED = {
    (Path("src/repro/store/transfer.py"), "TransferBatch"): frozenset(
        {"replication_budget", "migration_budget", "_budget"}
    ),
}


def find_budget_walks(path: Path, cls_name: str, banned):
    """Banned attribute reads / helper calls inside class ``cls_name``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    try:
        shown = path.relative_to(REPO_ROOT)
    except ValueError:
        shown = path
    return [
        f"{shown}:{node.lineno}: per-server budget read in {cls_name} — "
        f"read the batch's budget vector"
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and cls.name == cls_name
        for node in ast.walk(cls)
        if (isinstance(node, ast.Attribute) and node.attr in banned)
        or (isinstance(node, ast.Name) and node.id in banned)
    ]


def test_transfer_batch_reads_budgets_off_its_vector_only():
    problems = [
        problem
        for (path, cls_name), banned in BUDGET_READ_SEALED.items()
        for problem in find_budget_walks(REPO_ROOT / path, cls_name, banned)
    ]
    assert not problems, (
        "per-server budget walks inside a sealed batch:\n"
        + "\n".join(problems)
    )


def test_budget_walk_gate_detects_planted_server_read(tmp_path):
    """The budget-read checker must catch the idiom it bans."""
    banned = next(iter(BUDGET_READ_SEALED.values()))
    planted = tmp_path / "planted.py"
    planted.write_text(
        "class TransferBatch:\n"
        "    def budget_available(self, sid, kind):\n"
        "        real = _budget(self._cloud.server(sid), kind).available\n"
        "        return real - self._pending.get((kind, sid), 0)\n"
        "    def _pick(self, sid):\n"
        "        return self._cloud.server(sid).replication_budget.available\n"
    )
    assert len(find_budget_walks(planted, "TransferBatch", banned)) == 2
    benign = tmp_path / "benign.py"
    benign.write_text(
        "class TransferEngine:\n"
        "    def _check(self, dst, kind):\n"
        "        return _budget(dst, kind).can_reserve(1)\n"
        "class TransferBatch:\n"
        "    def budget_available(self, sid, kind):\n"
        "        return int(self._avail_vectors[kind][self._slot_of[sid]])\n"
    )
    assert not find_budget_walks(benign, "TransferBatch", banned)


#: The full gossip fabric runs heartbeat and price rounds through ONE
#: round kernel (ISSUE 20): message counters are local to the round and
#: recorded once after the push loop, and there is one push loop — a
#: second loop rolling its own loss dice is the per-code copy of the
#: kernel coming back.  Link state comes from the public
#: ``NetworkModel.link_state``, never from the model's private fields.
FABRIC_MODULE = Path("src/repro/net/fabric.py")
FABRIC_KERNEL_CLASS = "GossipFabric"


def _callee_name(call: ast.Call):
    callee = call.func
    if isinstance(callee, ast.Name):
        return callee.id
    if isinstance(callee, ast.Attribute):
        return callee.attr
    return None


def find_fabric_kernel_problems(path: Path, cls_name=FABRIC_KERNEL_CLASS):
    """Per-message stats, extra loss-roll loops, private net reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    try:
        shown = path.relative_to(REPO_ROOT)
    except ValueError:
        shown = path
    problems = []
    rolls_in_loops = []

    def visit(node: ast.AST, in_loop: bool) -> None:
        if isinstance(node, ast.Call) and in_loop:
            name = _callee_name(node)
            if name == "record":
                problems.append(
                    f"{shown}:{node.lineno}: MessageStats.record inside a "
                    f"loop body — count locally, record once per round"
                )
            elif name == "lost":
                rolls_in_loops.append(node.lineno)
        if (
            isinstance(node, ast.Attribute)
            and node.attr.startswith("_")
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "_net"
        ):
            problems.append(
                f"{shown}:{node.lineno}: reads NetworkModel.{node.attr} — "
                f"use the public link_state()/reachable()/lost()"
            )
        for field, value in ast.iter_fields(node):
            # Only the body of a loop repeats; its iterable runs once.
            inner = in_loop or (
                isinstance(node, (ast.For, ast.While))
                and field in ("body", "orelse")
            )
            for child in value if isinstance(value, list) else [value]:
                if isinstance(child, ast.AST):
                    visit(child, inner)

    classes = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name == cls_name
    ]
    if not classes:
        return [f"{shown}: no class {cls_name}"]
    for cls in classes:
        visit(cls, False)
    if len(rolls_in_loops) != 1:
        problems.append(
            f"{shown}: {len(rolls_in_loops)} loss rolls inside loops "
            f"(lines {rolls_in_loops}) — {cls_name} has exactly one push "
            f"loop, shared by the heartbeat and price rounds"
        )
    return problems


def test_gossip_fabric_has_one_push_loop_and_per_round_stats():
    problems = find_fabric_kernel_problems(REPO_ROOT / FABRIC_MODULE)
    assert not problems, (
        "GossipFabric round-kernel shape violated:\n" + "\n".join(problems)
    )


def test_fabric_gate_detects_planted_per_message_loops(tmp_path):
    """The fabric checker must catch the per-message shape it bans."""
    planted = tmp_path / "planted.py"
    planted.write_text(
        "class GossipFabric:\n"
        "    def membership_round(self):\n"
        "        for i, j in self._pushes():\n"
        "            self._net.stats.record('HEARTBEAT', sent=1)\n"
        "            if self._net.lost():\n"
        "                continue\n"
        "    def price_round(self):\n"
        "        flapped = self._net._flapped\n"
        "        lost = self._net.lost\n"
        "        while self._more():\n"
        "            if lost():\n"
        "                stats.record('PRICE', dropped_loss=1)\n"
    )
    problems = find_fabric_kernel_problems(planted)
    assert len(problems) == 4
    assert sum("record inside a loop" in p for p in problems) == 2
    assert sum("_flapped" in p for p in problems) == 1
    assert sum("2 loss rolls" in p for p in problems) == 1
    benign = tmp_path / "benign.py"
    benign.write_text(
        "class GossipFabric:\n"
        "    def _bootstrap(self):\n"
        "        if self._net.lost():\n"
        "            self._net.stats.record('NEW_NODE', dropped_loss=2)\n"
        "    def _round(self, code):\n"
        "        lost = self._net.lost\n"
        "        dropped = 0\n"
        "        for i in self._net.link_state(self._ids) or ():\n"
        "            for j in self._targets(i):\n"
        "                dropped += lost()\n"
        "        self._net.stats.record(code, dropped_loss=dropped)\n"
        "class OtherClass:\n"
        "    def _round_counts(self, code):\n"
        "        for cut in self._cuts():\n"
        "            self._net.stats.record(code, sent=1)\n"
    )
    assert not find_fabric_kernel_problems(benign)


#: Scorer capabilities are declared attributes of ``PlacementScorer``
#: (``best_is_pure``, ``cheaper_host_exists``, the rent-floor proofs)
#: — every scorer in the tree subclasses it, so the decide path reads
#: them directly.  A
#: ``getattr(scorer, ...)`` probe there is a capability hiding outside
#: the base class (ISSUE 16; first step of the declared protocol).
SCORER_PROBE_SEALED = DECISION_MODULES

#: The same rule one layer up (ISSUE 18): sealed module → the owner it
#: may not probe.  What the engine asks of a decider (``settle``,
#: ``decide``) is declared on the ``Decider`` protocol, which every
#: shipped decider satisfies, and the overlays on ``Simulation``.
SURFACE_PROBE_SEALED = {
    Path("src/repro/sim/engine.py"): "self.decider",
    Path("src/repro/cli.py"): "sim",
}


def find_scorer_probes(path: Path, owner: str = "scorer"):
    """``getattr(<owner>, ...)`` calls in a module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    try:
        shown = path.relative_to(REPO_ROOT)
    except ValueError:
        shown = path
    return [
        f"{shown}:{node.lineno}: getattr({owner}, ...) probe — declare "
        f"the capability on the base class and read it directly"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "getattr"
        and node.args
        and ast.unparse(node.args[0]) == owner
    ]


def test_decision_reads_scorer_capabilities_directly():
    problems = [
        problem
        for rel in SCORER_PROBE_SEALED
        for problem in find_scorer_probes(REPO_ROOT / rel)
    ]
    assert not problems, (
        "scorer capability probes in the decide path:\n"
        + "\n".join(problems)
    )


def test_engine_and_cli_read_the_declared_surface_directly():
    problems = [
        problem
        for path, owner in SURFACE_PROBE_SEALED.items()
        for problem in find_scorer_probes(REPO_ROOT / path, owner)
    ]
    assert not problems, (
        "probes of a declared decider / simulation surface:\n"
        + "\n".join(problems)
    )


def test_scorer_probe_gate_detects_planted_getattr(tmp_path):
    """The probe checker must catch the idiom it bans."""
    planted = tmp_path / "planted.py"
    planted.write_text(
        "def hunt(scorer, cap):\n"
        "    fn = getattr(scorer, 'cheaper_host_exists', None)\n"
        "    if fn is not None and getattr(scorer, 'best_is_pure', False):\n"
        "        fn(cap)\n"
        "def step(self, sim):\n"
        "    settle = getattr(self.decider, 'settle', None)\n"
        "    return settle, getattr(sim, 'serving', None)\n"
    )
    assert len(find_scorer_probes(planted)) == 2
    assert len(find_scorer_probes(planted, "self.decider")) == 1
    assert len(find_scorer_probes(planted, "sim")) == 1
    benign = tmp_path / "benign.py"
    benign.write_text(
        "def hunt(scorer, decider, cap):\n"
        "    if scorer.best_is_pure and getattr(decider, 'k', 0):\n"
        "        scorer.cheaper_host_exists(cap)\n"
        "def step(self, sim, args):\n"
        "    return self.decider.settle, getattr(args, 'serve', 0)\n"
    )
    for owner in ("scorer", *SURFACE_PROBE_SEALED.values()):
        assert not find_scorer_probes(benign, owner)


#: Request-path packages whose per-request draws must stay O(log K):
#: ``Generator.choice(n, p=weights)`` re-validates and re-accumulates the
#: whole weight vector on every call (38 µs per request at a 4 096-key
#: universe — half the serve-read wall before ISSUE 14).  Weighted draws
#: there go through the inverse-CDF sampler, which is also the one place
#: allowed to spell out the Zipf(1) weight vector.
WEIGHTED_DRAW_SEALED = (
    Path("src/repro/serve"),
    Path("src/repro/workload"),
    Path("src/repro/store"),
)
ZIPF_SAMPLER = Path("src/repro/workload/keys.py")


def _calls_arange(node: ast.AST) -> bool:
    return any(
        isinstance(sub, ast.Call)
        and isinstance(sub.func, ast.Attribute)
        and sub.func.attr == "arange"
        for sub in ast.walk(node)
    )


def find_weighted_draw_problems(path: Path, *, sampler: bool = False):
    """``.choice(..., p=...)`` calls and stray Zipf weight vectors.

    The weight vector is recognised by its shape, a constant one divided
    by an expression built on ``arange`` (``1.0 / (np.arange(n) + 1.0)``);
    ``sampler=True`` exempts the shared sampler from that second rule.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    try:
        shown = path.relative_to(REPO_ROOT)
    except ValueError:
        shown = path
    problems = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "choice"
            and any(kw.arg == "p" for kw in node.keywords)
        ):
            problems.append(
                f"{shown}:{node.lineno}: .choice(p=...) re-cumsums its "
                f"weights per call — draw through repro.workload.keys"
            )
        if (
            not sampler
            and isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.Div)
            and isinstance(node.left, ast.Constant)
            and node.left.value == 1
            and _calls_arange(node.right)
        ):
            problems.append(
                f"{shown}:{node.lineno}: second definition of the Zipf "
                f"weight vector — use repro.workload.keys.ZipfKeys"
            )
    return problems


def test_request_path_draws_go_through_the_shared_sampler():
    problems = []
    for root in WEIGHTED_DRAW_SEALED:
        for path in sorted((REPO_ROOT / root).rglob("*.py")):
            problems.extend(find_weighted_draw_problems(
                path, sampler=path.relative_to(REPO_ROOT) == ZIPF_SAMPLER,
            ))
    assert not problems, (
        "per-request weighted draws outside the shared sampler:\n"
        + "\n".join(problems)
    )


def test_weighted_draw_gate_detects_planted_choice_and_weights(tmp_path):
    """The sampler gate must catch both idioms it bans."""
    planted = tmp_path / "planted.py"
    planted.write_text(
        "import numpy as np\n\n\ndef draw(rng, n):\n"
        "    weights = 1.0 / (np.arange(n, dtype=np.float64) + 1.0)\n"
        "    return rng.choice(n, p=weights / weights.sum())\n"
    )
    problems = find_weighted_draw_problems(planted)
    assert len(problems) == 2
    assert any(".choice(p=" in p for p in problems)
    assert any("Zipf weight vector" in p for p in problems)
    assert len(find_weighted_draw_problems(planted, sampler=True)) == 1
    benign = tmp_path / "benign.py"
    benign.write_text(
        "import numpy as np\n\n\ndef draw(rng, sites, n):\n"
        "    step = 1.0 / n\n"
        "    return rng.choice(len(sites)), np.arange(n) * step\n"
    )
    assert not find_weighted_draw_problems(benign)


#: The one-constructor rule (ISSUE 15): a run is described by a
#: ScenarioSpec and lowered by ``compile_config`` — nothing else under
#: ``src/`` builds a SimConfig, and the CLI lowers its flags onto the
#: spec's JSON form instead of hand-building overlay configs.
SIMCONFIG_HOME = Path("src/repro/sim/scenario.py")
SIMCONFIG_SANCTIONED = "compile_config"
CLI_MODULE = Path("src/repro/cli.py")
CLI_BANNED_CONFIGS = ("NetConfig", "ServingConfig", "DataPlaneConfig")
#: The runtime dataclasses the spec tiers hold directly: the spec module
#: never builds one, so no spec class can mirror one field by field.
SPEC_HELD_CLASSES = (
    "EconomicPolicy", "RentModel", "NetConfig", "NetPartition", "LinkFlap",
    "ConfidenceModel",
)


def find_constructions(path: Path, classes, sanctioned=None):
    """``Class(...)`` calls of ``classes``, outside function ``sanctioned``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    try:
        shown = path.relative_to(REPO_ROOT)
    except ValueError:
        shown = path
    problems = []

    def visit(node: ast.AST, func: str | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call):
            callee = node.func
            name = (
                callee.id if isinstance(callee, ast.Name)
                else callee.attr if isinstance(callee, ast.Attribute)
                else None
            )
            if name in classes and (sanctioned is None or func != sanctioned):
                problems.append(f"{shown}:{node.lineno}: constructs {name}")
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return problems


def test_simconfig_is_constructed_only_by_compile_config():
    problems = []
    for path in sorted((REPO_ROOT / "src").rglob("*.py")):
        home = path.relative_to(REPO_ROOT) == SIMCONFIG_HOME
        problems.extend(find_constructions(
            path, ("SimConfig",),
            sanctioned=SIMCONFIG_SANCTIONED if home else None,
        ))
    assert not problems, (
        "SimConfig built outside sim/scenario.py::compile_config:\n"
        + "\n".join(problems)
    )


def test_cli_builds_no_overlay_configs():
    problems = find_constructions(REPO_ROOT / CLI_MODULE, CLI_BANNED_CONFIGS)
    assert not problems, (
        "cli.py hand-builds runtime configs:\n" + "\n".join(problems)
    )


def test_spec_module_builds_no_class_its_tiers_hold():
    problems = find_constructions(REPO_ROOT / SIMCONFIG_HOME, SPEC_HELD_CLASSES)
    assert not problems, (
        "sim/scenario.py builds a runtime class a tier should hold "
        "(a spec class mirroring it field by field):\n" + "\n".join(problems)
    )


def test_mirror_gate_detects_a_planted_mirror(tmp_path):
    """A spec class lowering itself onto a held class is caught; holding
    the class, defaulting to it and replacing its fields is not."""
    planted = tmp_path / "planted.py"
    planted.write_text(
        "from repro.net.model import NetConfig, NetPartition\n\n\n"
        "class WindowSpec:\n"
        "    def compile(self):\n"
        "        return NetPartition(start=self.start, heal=self.heal)\n\n\n"
        "def lower(spec):\n"
        "    return NetConfig(partitions=(spec.window.compile(),))\n"
    )
    problems = find_constructions(planted, SPEC_HELD_CLASSES)
    assert len(problems) == 2
    assert ":6:" in problems[0] and ":10:" in problems[1]
    benign = tmp_path / "benign.py"
    benign.write_text(
        "import dataclasses\n"
        "from dataclasses import field\n"
        "from typing import Optional\n\n"
        "from repro.core.policy import EconomicPolicy\n"
        "from repro.net.model import NetConfig\n\n\n"
        "class ConstraintsSpec:\n"
        "    policy: EconomicPolicy = field(default_factory=EconomicPolicy)\n"
        "    net: Optional[NetConfig] = None\n\n\n"
        "def quiet(net):\n"
        "    return dataclasses.replace(net, loss=0.0)\n"
    )
    assert not find_constructions(benign, SPEC_HELD_CLASSES)


def test_construction_gate_detects_planted_builders(tmp_path):
    """The construction checker must catch both shapes it bans."""
    planted = tmp_path / "planted.py"
    planted.write_text(
        "from repro.sim import config\n"
        "from repro.sim.config import NetConfig, SimConfig\n\n\n"
        "def compile_config(spec):\n"
        "    return SimConfig(apps=spec.apps)\n\n\n"
        "def make_config(args):\n"
        "    net = NetConfig(loss=args.loss)\n"
        "    return config.SimConfig(apps=(), net=net)\n"
    )
    problems = find_constructions(
        planted, ("SimConfig",), sanctioned="compile_config"
    )
    assert len(problems) == 1 and ":11:" in problems[0]
    assert len(find_constructions(planted, ("SimConfig",))) == 2
    assert len(find_constructions(planted, CLI_BANNED_CONFIGS)) == 1
    benign = tmp_path / "benign.py"
    benign.write_text(
        "import dataclasses\n\n\n"
        "def swap_kernel(config, kernel):\n"
        "    return dataclasses.replace(config, kernel=kernel)\n"
    )
    assert not find_constructions(benign, ("SimConfig",))


def _imported_modules(tree: ast.AST):
    """Dotted module paths a module imports (``from a import b`` → a.b)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            yield node.module
            for alias in node.names:
                yield f"{node.module}.{alias.name}"


def find_orphan_packages(package_root: Path):
    """Subpackages of ``package_root`` no module outside them imports.

    The first gossip package sat in the tree for nine PRs after ``repro/net/``
    superseded it, imported only by its own tests: a package nothing
    else in the program imports is dead weight with a test suite.
    """
    top = package_root.name
    imports = {}
    for path in sorted(package_root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        imports[path] = set(_imported_modules(tree))
    orphans = []
    for init in sorted(package_root.rglob("__init__.py")):
        package = init.parent
        if package == package_root:
            continue
        dotted = ".".join((top,) + package.relative_to(package_root).parts)
        used = any(
            name == dotted or name.startswith(dotted + ".")
            for path, names in imports.items()
            if package not in path.parents
            for name in names
        )
        if not used:
            orphans.append(dotted)
    return orphans


def test_every_subpackage_is_imported_from_outside_itself():
    orphans = find_orphan_packages(REPO_ROOT / "src" / "repro")
    assert not orphans, (
        "packages no module outside them imports (delete or wire in): "
        + ", ".join(orphans)
    )


def test_orphan_gate_detects_planted_package(tmp_path):
    """The orphan checker must catch a package only it imports."""
    root = tmp_path / "pkg"
    for sub in ("used", "orphan"):
        (root / sub).mkdir(parents=True)
        (root / sub / "__init__.py").write_text("")
    (root / "__init__.py").write_text("from pkg.used import thing\n")
    (root / "used" / "thing.py").write_text("")
    (root / "orphan" / "a.py").write_text("from pkg.orphan import b\n")
    (root / "orphan" / "b.py").write_text("import pkg.used.thing\n")
    assert find_orphan_packages(root) == ["pkg.orphan"]


#: The scenario-spec registry package and its golden-digest pin file.
SPECS_DIR = Path("src/repro/sim/specs")
NAMED_PINS = Path("tests/integration/golden/named_scenarios.json")


def test_every_specs_module_is_registered():
    """Every module under ``repro/sim/specs`` must feed the registry.

    A scenario file that defines specs but is not imported by the
    package ``__init__`` would silently drop out of the CLI catalog,
    the digest pins and the lint gate below — so each ``*.py`` in the
    package must export a non-empty ``SPECS`` tuple whose entries all
    appear (by identity) in ``specs.REGISTRY``.
    """
    import importlib

    from repro.sim import specs

    problems = []
    for path in sorted((REPO_ROOT / SPECS_DIR).glob("*.py")):
        if path.name == "__init__.py":
            continue
        shown = SPECS_DIR / path.name
        module = importlib.import_module(f"repro.sim.specs.{path.stem}")
        module_specs = getattr(module, "SPECS", ())
        if not module_specs:
            problems.append(f"{shown}: no non-empty SPECS tuple")
            continue
        for entry in module_specs:
            if specs.REGISTRY.get(entry.name) is not entry:
                problems.append(
                    f"{shown}: {entry.name!r} is not in the registry — "
                    f"add the module to specs.MODULES"
                )
    assert not problems, (
        "unregistered scenario specs:\n" + "\n".join(problems)
    )


def test_every_registry_entry_has_golden_digest():
    """Every named scenario must carry a committed framedump digest.

    ``tests/integration/test_named_scenarios.py`` runs the pins; this
    gate fails *fast* (no simulation) when the registry and the pin
    file drift — a new scenario without a regenerated pin file, or a
    pin left behind by a deleted scenario.
    """
    import json

    from repro.sim import specs

    pin_path = REPO_ROOT / NAMED_PINS
    assert pin_path.exists(), f"missing pin file {NAMED_PINS}"
    pins = json.loads(pin_path.read_text())
    missing = sorted(set(specs.REGISTRY) - set(pins))
    stale = sorted(set(pins) - set(specs.REGISTRY))
    assert not missing, (
        "scenarios with no golden digest (regenerate "
        "named_scenarios.json): " + ", ".join(missing)
    )
    assert not stale, (
        "pins for scenarios no longer in the registry: "
        + ", ".join(stale)
    )
    empty = sorted(
        name for name, pin in pins.items() if not pin.get("digest")
    )
    assert not empty, "pins with empty digests: " + ", ".join(empty)


#: The front door's compile-once state (ISSUE 24).  The Router's route
#: memo is sound only under the invalidation contract on
#: ``Router.serving_window``, so nothing outside the module may read or
#: write it; and ``benchmarks/e2e`` traces ``route_partition`` / ``get``
#: / ``put`` / ``record`` / ``draw`` by replacing them as *instance
#: attributes*, so the modules that call them must look each up at call
#: time — a bound method captured in ``__init__`` would bypass the span.
ROUTE_MEMO_OWNER = Path("src/repro/ring/router.py")
ROUTE_MEMO_ATTRS = frozenset({"_route_memo", "_window_open"})
SPAN_SITE_SEALED = (
    Path("src/repro/serve/frontend.py"),
    Path("src/repro/store/quorum.py"),
)
SPAN_SITES = frozenset({"route_partition", "get", "put", "record", "draw"})


def find_route_memo_accesses(path: Path):
    """Reads or writes of the Router's memo state in a module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        f"{path}:{node.lineno}: .{node.attr} belongs to "
        f"{ROUTE_MEMO_OWNER.name} — go through serving_window / "
        f"route_partition"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in ROUTE_MEMO_ATTRS
    ]


def find_span_site_bindings(path: Path):
    """Traced methods referenced but not called inside ``__init__``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    problems = []
    for init in ast.walk(tree):
        if not (isinstance(init, ast.FunctionDef)
                and init.name == "__init__"):
            continue
        called = {
            id(node.func) for node in ast.walk(init)
            if isinstance(node, ast.Call)
        }
        problems.extend(
            f"{path}:{node.lineno}: .{node.attr} bound in __init__ — "
            f"traced span sites are looked up at call time"
            for node in ast.walk(init)
            if isinstance(node, ast.Attribute)
            and node.attr in SPAN_SITES and id(node) not in called
        )
    return problems


def test_route_memo_and_span_sites_stay_sealed():
    problems = [
        problem
        for path in sorted((REPO_ROOT / "src").rglob("*.py"))
        if path != REPO_ROOT / ROUTE_MEMO_OWNER
        for problem in find_route_memo_accesses(path)
    ] + [
        problem
        for rel in SPAN_SITE_SEALED
        for problem in find_span_site_bindings(REPO_ROOT / rel)
    ]
    assert not problems, (
        "front-door compile-once seals broken:\n" + "\n".join(problems)
    )


def test_route_memo_gate_detects_planted_twins(tmp_path):
    planted = tmp_path / "planted.py"
    planted.write_text(
        "class Front:\n"
        "    def __init__(self, router, store, sla):\n"
        "        self._route = router.route_partition\n"
        "        self._get, self._put = store.get, store.put\n"
        "        self.first = store.get(0, 0, b'k')\n"
        "    def step(self):\n"
        "        self.router._route_memo.clear()\n"
        "        self.router._window_open = True\n"
    )
    assert len(find_route_memo_accesses(planted)) == 2
    assert len(find_span_site_bindings(planted)) == 3
    benign = tmp_path / "benign.py"
    benign.write_text(
        "class Front:\n"
        "    def __init__(self, router, config):\n"
        "        self.router = router\n"
        "        self.rate = config.get('rate', 1)\n"
        "    def step(self, pid):\n"
        "        get = self.store.get\n"
        "        with self.router.serving_window():\n"
        "            return self.router.route_partition(pid), get\n"
    )
    assert not find_route_memo_accesses(benign)
    assert not find_span_site_bindings(benign)


#: One request path: the serving overlay is the only place under
#: ``src/`` that builds the stale-view substrate.  A second module
#: constructing its own store or hint store is the duplicate overlay
#: the data plane used to be.
OVERLAY_HOME = Path("src/repro/serve/frontend.py")
OVERLAY_PARTS = frozenset({"QuorumKVStore", "HintStore"})


def find_overlay_constructions(path: Path):
    """Calls constructing a ``QuorumKVStore`` / ``HintStore``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        f"{path}:{node.lineno}: {name}(...) outside {OVERLAY_HOME.name} — "
        f"serve requests through ServingFrontEnd"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        for name in [getattr(node.func, "id", getattr(node.func, "attr", ""))]
        if name in OVERLAY_PARTS
    ]


def test_one_overlay_builds_the_quorum_substrate():
    problems = [
        problem
        for path in sorted((REPO_ROOT / "src").rglob("*.py"))
        if path != REPO_ROOT / OVERLAY_HOME
        for problem in find_overlay_constructions(path)
    ]
    assert not problems, (
        "second request path under src/:\n" + "\n".join(problems)
    )
    assert find_overlay_constructions(REPO_ROOT / OVERLAY_HOME)


def test_overlay_gate_detects_planted_twin(tmp_path):
    planted = tmp_path / "planted.py"
    planted.write_text(
        "from repro.store import hints, quorum\n"
        "from repro.store.quorum import QuorumKVStore\n\n\n"
        "class DataPlane:\n"
        "    def __init__(self, cloud, rings, catalog):\n"
        "        self.hints = hints.HintStore()\n"
        "        self.store = QuorumKVStore(cloud, rings, catalog)\n"
    )
    assert len(find_overlay_constructions(planted)) == 2
    benign = tmp_path / "benign.py"
    benign.write_text(
        "def serve(front):\n"
        "    return front.store.get(0, 0, b'k'), front.hints.depth\n"
    )
    assert not find_overlay_constructions(benign)


#: Diversity is six per-level prefix-code columns: a
#: dense pairwise cache — or the ``np.ix_`` block gather that compacts
#: one — anywhere under ``src/`` is the O(S²) state that retired.
DENSE_PAIR_NAMES = frozenset(
    {"ix_", "diversity_matrix", "diversity_row", "_diversity"}
)


def find_dense_pair_state(path: Path):
    """Names, attributes and defs from :data:`DENSE_PAIR_NAMES`."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        f"{path}:{node.lineno}: {name} — sum diversity off "
        f"Cloud.diversity_sum / diversity_between, not an S×S cache"
        for node in ast.walk(tree)
        for name in [getattr(node, "attr", getattr(
            node, "id", getattr(node, "name", None)
        ))]
        if name in DENSE_PAIR_NAMES
    ]


def test_no_dense_pairwise_diversity_state_in_src():
    problems = [
        problem
        for path in sorted((REPO_ROOT / "src").rglob("*.py"))
        for problem in find_dense_pair_state(path)
    ]
    assert not problems, "S×S diversity state:\n" + "\n".join(problems)


def test_dense_pair_gate_detects_planted_twin(tmp_path):
    planted = tmp_path / "planted.py"
    planted.write_text(
        "import numpy as np\n\n\n"
        "class Cloud:\n"
        "    def diversity_matrix(self):\n"
        "        return self._diversity\n"
        "    def drop(self, keep):\n"
        "        self._age = self._age[np.ix_(keep, keep)]\n"
    )
    assert len(find_dense_pair_state(planted)) == 3
    benign = tmp_path / "benign.py"
    benign.write_text(
        "def gain(cloud, slots, pair_diversity=63):\n"
        "    return cloud.diversity_sum(slots) * pair_diversity\n"
    )
    assert not find_dense_pair_state(benign)


def test_lint_checker_detects_planted_unused_import(tmp_path):
    """The fallback checker itself must actually catch the F401 case."""
    planted = tmp_path / "planted.py"
    planted.write_text(
        "import os\nfrom math import sqrt\n\n\ndef f(x):\n"
        "    return sqrt(x)\n"
    )
    problems = find_unused_imports(planted)
    assert len(problems) == 1 and "'os'" in problems[0]


if __name__ == "__main__":
    sys.exit(0 if not test_no_unused_imports_in_src() else 1)
