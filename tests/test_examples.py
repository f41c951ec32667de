"""The fast examples run to completion as the README tells users to run
them.  ``scripts/verify_slow.sh`` runs all seven."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).parents[1]

#: Each finishes in under a second.
FAST_EXAMPLES = (
    "quickstart",
    "tiered_application",
    "consistency_levels",
    "multi_tenant_sla",
)


@pytest.mark.parametrize("name", FAST_EXAMPLES)
def test_example_exits_zero(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, str(REPO / "examples" / f"{name}.py")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
