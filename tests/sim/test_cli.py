"""Tests for the command-line front end."""

import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_invalid_scenario(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--scenario", "bogus"])

    def test_no_fabric_flag(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--net-fabric", "full"])

    def test_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.scenario == "paper"
        assert args.policy == "economic"
        assert not args.fig3_events


class TestParseFlap:
    def test_continuous_window(self):
        from repro.cli import parse_flap

        assert parse_flap("2:6") == [{"start": 2, "heal": 6}]

    def test_periodic_windows_alternate(self):
        from repro.cli import parse_flap

        flaps = parse_flap("2:10:2")
        spans = [(f["start"], f["heal"]) for f in flaps]
        assert spans == [(2, 4), (6, 8)]

    def test_final_window_clamped_to_end(self):
        from repro.cli import parse_flap

        flaps = parse_flap("0:5:2")
        assert [(f["start"], f["heal"]) for f in flaps] == [
            (0, 2), (4, 5),
        ]

    def test_bad_specs(self):
        from repro.cli import CliError, parse_flap

        for spec in ("6", "a:b", "2:6:-1", "2:6:2:9", "5:3:1", "2:2:1"):
            with pytest.raises(CliError):
                parse_flap(spec)


class TestInfo:
    def test_prints_paper_parameters(self):
        code, text = run_cli("info")
        assert code == 0
        assert "200" in text            # servers
        assert "app-1" in text
        assert "replication budget" in text.lower() or "300" in text


class TestRun:
    def test_paper_run(self):
        code, text = run_cli(
            "run", "--scenario", "paper", "--epochs", "5",
            "--partitions", "10", "--points", "5",
        )
        assert code == 0
        assert "vnodes" in text
        assert "final vnodes" in text
        assert "scenario=paper" in text

    def test_static_policy(self):
        code, text = run_cli(
            "run", "--epochs", "5", "--partitions", "10",
            "--policy", "static",
        )
        assert code == 0
        assert "policy=static" in text

    def test_fig3_events(self):
        code, text = run_cli(
            "run", "--epochs", "5", "--partitions", "10", "--fig3-events",
        )
        assert code == 0

    def test_net_flag_prints_control_plane(self):
        code, text = run_cli(
            "run", "--epochs", "5", "--partitions", "10", "--net",
        )
        assert code == 0
        assert "control plane" in text
        assert "HEARTBEAT" in text
        assert "false-suspicion rate" in text

    def test_no_net_flags_no_control_plane(self):
        code, text = run_cli(
            "run", "--epochs", "5", "--partitions", "10",
        )
        assert code == 0
        assert "control plane" not in text

    def test_faulty_net_with_divergence_report(self):
        code, text = run_cli(
            "run", "--epochs", "8", "--partitions", "10",
            "--net-loss", "0.3", "--net-partition", "3:6:2:asym",
            "--divergence",
        )
        assert code == 0
        assert "drop(loss)" in text
        assert "divergence vs oracle-membership twin" in text

    def test_bad_partition_spec_exits(self):
        with pytest.raises(SystemExit):
            run_cli(
                "run", "--epochs", "4", "--partitions", "10",
                "--net-partition", "banana",
            )

    def test_net_flap_implies_control_plane(self):
        code, text = run_cli(
            "run", "--epochs", "8", "--partitions", "10",
            "--net-flap", "2:6",
        )
        assert code == 0
        assert "control plane" in text

    def test_bad_flap_spec_exits(self):
        with pytest.raises(SystemExit):
            run_cli(
                "run", "--epochs", "4", "--partitions", "10",
                "--net-flap", "6",
            )
        with pytest.raises(SystemExit):
            run_cli(
                "run", "--epochs", "4", "--partitions", "10",
                "--net-flap", "2:6:-1",
            )

    def test_consistency_audit_prints_report(self):
        code, text = run_cli(
            "run", "--epochs", "8", "--partitions", "10",
            "--net-loss", "0.1", "--net-flap", "2:6:2",
            "--consistency-audit",
        )
        assert code == 0
        assert "data plane:" in text
        assert "repair ladder:" in text
        assert "consistency audit GREEN" in text
        assert "lost writes: 0" in text

    def test_saturation_columns(self):
        code, text = run_cli(
            "run", "--scenario", "saturation", "--epochs", "4",
        )
        assert code == 0
        assert "used%" in text
        assert "ins_fail" in text


    def test_every_flag_group_matches_the_pre_spec_cli(self):
        # Golden text captured on the commit before the CLI lowered its
        # flags onto a ScenarioSpec (hand-built NetConfig/ServingConfig,
        # fig3_schedule): presets, --net*, --serve*, --fig3-events.
        # Re-captured once, without --net-delay, on the last commit that
        # still had that flag.
        code, text = run_cli(
            "run", "--scenario", "slashdot", "--epochs", "204",
            "--partitions", "10", "--seed", "3", "--points", "12",
            "--net", "--net-loss", "0.1",
            "--net-partition", "30:40:2:asym", "--net-flap", "50:62:3",
            "--serve", "--serve-rate", "48", "--serve-workers", "16",
            "--fig3-events",
        )
        golden = Path(__file__).parents[1] / (
            "integration/golden/cli_run_parity.txt"
        )
        assert code == 0
        assert text == golden.read_text()


class TestReport:
    def test_prints_agent_economics(self):
        code, text = run_cli(
            "report", "--epochs", "6", "--partitions", "10",
        )
        assert code == 0
        assert "per-agent economics" in text
        assert "wealth" in text
        assert "epochs alive" in text
        assert "moves" in text
        assert "app/ring" in text
        assert "vnode spread" in text

    def test_report_accepts_scenarios(self):
        code, text = run_cli(
            "report", "--scenario", "slashdot", "--epochs", "5",
            "--partitions", "10",
        )
        assert code == 0
        assert "scenario=slashdot" in text


class TestCompare:
    def test_compare_three_policies(self):
        code, text = run_cli(
            "compare", "--epochs", "6", "--partitions", "12",
        )
        assert code == 0
        for policy in ("economic", "static", "random"):
            assert policy in text
        assert "rent/epoch" in text


class TestScenario:
    def test_list_names_every_registry_entry(self):
        from repro.sim import specs

        code, text = run_cli("scenario", "list")
        assert code == 0
        for name in specs.names():
            assert name in text

    def test_list_json_is_the_catalog(self):
        import json

        from repro.sim import specs

        code, text = run_cli("scenario", "list", "--json")
        assert code == 0
        catalog = json.loads(text)
        assert set(catalog) == set(specs.REGISTRY)
        entry = catalog["paper-uniform"]
        assert set(entry) == {"summary", "epochs", "pin_epochs"}

    def test_show_round_trips(self):
        from repro.sim.scenario import ScenarioSpec
        from repro.sim import specs

        code, text = run_cli("scenario", "show", "slashdot-spike")
        assert code == 0
        assert ScenarioSpec.from_json(text) == specs.get(
            "slashdot-spike"
        ).spec

    def test_run_registry_name_with_overrides(self):
        code, text = run_cli(
            "scenario", "run", "paper-uniform",
            "--epochs", "4", "--points", "4", "--seed", "9",
            "--kernel", "scalar",
        )
        assert code == 0
        assert "scenario=paper-uniform" in text
        assert "seed=9 epochs=4 kernel=scalar" in text
        assert "final vnodes" in text

    def test_run_spec_file(self, tmp_path):
        from repro.sim import specs

        spec = specs.get("paper-uniform").spec.with_operations(epochs=4)
        path = tmp_path / "mini.json"
        path.write_text(spec.to_json())
        code, text = run_cli(
            "scenario", "run", str(path), "--points", "4",
        )
        assert code == 0
        assert "scenario=paper-uniform" in text

    def test_run_audit_spec_prints_report(self):
        code, text = run_cli(
            "scenario", "run", "chaos-audit-7",
            "--epochs", "10", "--points", "5",
        )
        assert code == 0
        assert "consistency audit" in text
        assert "data plane:" in text

    def test_net_spec_prints_control_plane(self):
        code, text = run_cli(
            "scenario", "run", "lossy-gossip",
            "--epochs", "5", "--points", "5",
        )
        assert code == 0
        assert "control plane" in text

    def test_unknown_name_exits(self):
        with pytest.raises(SystemExit):
            run_cli("scenario", "run", "no-such-scenario")

    def test_bad_spec_file_exits(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"name": "x", "structure": {"warp": 9}}')
        with pytest.raises(SystemExit):
            run_cli("scenario", "show", str(path))

    @pytest.mark.parametrize("body", [
        '{"name": "x", "flows": {"serving": {"keyspace": 0}}}',
        '{"name": "x", "failure": {"events": [{"kind": "meteor"}]}}',
        '{"name": "x", "flows": []}',
        '{"name": "x", "structure": {"scale": 2, "layout": {}}}',
        '{"name": "x", "failure": {"net": {"fabric": "counting"}}}',
        '{"name": "x", "structure": {"scale": 100}, "failure": {"net": {}}}',
        '{"name": "x", "failure": {"events": '
        '[{"kind": "join", "epoch": 1, "count": 2, "storage": 0}]}}',
        '{"name": "x", "flows": {"popularity_shape": 0}}',
        "not json",
    ])
    def test_bad_spec_file_is_one_line_not_a_traceback(self, tmp_path, body):
        path = tmp_path / "bad.json"
        path.write_text(body)
        src = Path(__file__).parents[2] / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "scenario", "run", str(path)],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode != 0
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1, proc.stderr

    def test_bad_override_exits(self):
        with pytest.raises(SystemExit):
            run_cli(
                "scenario", "run", "paper-uniform", "--epochs", "0",
            )


class TestProfile:
    def test_builtin_preset_still_profiles(self):
        code, text = run_cli(
            "profile", "--scenario", "paper", "--epochs", "3",
            "--partitions", "10", "--kernel", "vectorized",
            "--repeats", "1",
        )
        assert code == 0
        assert "scenario=paper" in text
        assert "vectorized" in text

    def test_partitions_is_the_total_that_ran(self):
        """``partitions=`` is the compiled total over every ring: the
        saturation preset ignores ``--partitions``, and the paper preset
        takes it per ring (three rings)."""
        __, text = run_cli(
            "profile", "--scenario", "saturation", "--partitions", "50",
            "--epochs", "1", "--kernel", "vectorized", "--repeats", "1",
        )
        assert "partitions=600 " in text
        __, text = run_cli(
            "profile", "--scenario", "paper", "--partitions", "10",
            "--epochs", "1", "--kernel", "vectorized", "--repeats", "1",
        )
        assert "partitions=30 " in text

    def test_registry_spec_resolves_with_own_horizon(self):
        # paper-uniform comes from the PR 8 spec registry; with no
        # --epochs the spec's own horizon is profiled.
        code, text = run_cli(
            "profile", "--scenario", "paper-uniform",
            "--kernel", "vectorized", "--repeats", "1",
        )
        assert code == 0
        assert "scenario=paper-uniform" in text

    def test_registry_spec_epochs_override(self):
        code, text = run_cli(
            "profile", "--scenario", "paper-uniform", "--epochs", "4",
            "--kernel", "vectorized", "--repeats", "1",
        )
        assert code == 0
        assert " 4 " in text.replace("4\n", "4 ")

    def test_serving_run_prints_route_counters(self):
        """A front-door run carries the compile-once counters in the
        table's last column; an economy-only run has no such column."""
        column = "routes asked / compiled / read plans compiled"
        code, text = run_cli(
            "profile", "--scenario", "serving-steady", "--epochs", "4",
            "--kernel", "vectorized", "--repeats", "1",
        )
        assert code == 0 and column in text
        asked, compiled, plans = (
            int(cell) for cell in
            text.splitlines()[3].rsplit("  ", 1)[1].split(" / ")
        )
        assert asked == 4 * 256  # serving-steady: 256 requests / epoch
        assert 0 < plans <= compiled < asked
        __, text = run_cli(
            "profile", "--scenario", "paper", "--epochs", "2",
            "--partitions", "10", "--kernel", "vectorized",
            "--repeats", "1",
        )
        assert column not in text

    def test_argmax_column_splits_builds_by_cause(self):
        """The argmax column carries the certificate builds split into
        first use / winner touched / release threat, summing to the
        total."""
        code, text = run_cli(
            "profile", "--scenario", "paper", "--epochs", "6",
            "--partitions", "20", "--kernel", "vectorized",
            "--repeats", "1",
        )
        assert code == 0
        assert "built (first + winner + release)" in text
        found = re.search(
            r"(\d+) / (\d+) / (\d+) \((\d+) \+ (\d+) \+ (\d+)\)", text
        )
        asks, proofs, builds, first, winner, release = map(
            int, found.groups()
        )
        assert builds == first + winner + release
        assert 0 < first and proofs <= asks

    def test_floor_column_counts_partitions_skipped(self):
        """The rent-floor column ends with the partitions the partition
        proof skipped whole."""
        code, text = run_cli(
            "profile", "--scenario", "slashdot", "--epochs", "12",
            "--partitions", "20", "--kernel", "vectorized",
            "--repeats", "1",
        )
        assert code == 0
        assert "hunts asked / floor-proved / scanned / partitions skipped" in (
            text
        )
        asks, proofs, scanned, skipped = map(int, re.search(
            r"(\d+) / (\d+) / (\d+) / (\d+)", text
        ).groups())
        assert proofs + scanned == asks
        assert skipped > 0

    def test_cprofile_top_limits_table(self):
        code, text = run_cli(
            "profile", "--scenario", "paper", "--epochs", "2",
            "--partitions", "10", "--kernel", "vectorized",
            "--repeats", "1", "--cprofile", "--top", "3",
        )
        assert code == 0
        assert "restriction <3>" in text

    def test_unknown_scenario_exits(self):
        with pytest.raises(SystemExit):
            run_cli("profile", "--scenario", "no-such-scenario")

    def test_scale_rejected_for_specs(self):
        with pytest.raises(SystemExit):
            run_cli(
                "profile", "--scenario", "paper-uniform",
                "--scale", "2",
            )
