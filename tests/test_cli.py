"""CLI verbs, exit codes, and byte-level determinism of outputs."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from recloop.cli import main


def run_cli(*args):
    return main(list(args))


BASE = ["--n", "12", "--m", "40", "--c", "4", "--links", "20",
        "--h", "5", "--steps", "6", "--ts-k", "3"]


class TestSimulate:
    def test_success_and_outputs(self, tmp_path):
        code = run_cli("simulate", *BASE, "--seed", "1,2",
                       "--out-dir", str(tmp_path))
        assert code == 0
        assert (tmp_path / "metrics.csv").exists()
        assert (tmp_path / "summary.json").exists()

    def test_missing_seed_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            run_cli("simulate", "--out-dir", str(tmp_path))
        assert err.value.code == 2

    def test_validation_error_exits_2(self, tmp_path):
        code = run_cli("simulate", *BASE, "--seed", "1", "--gamma", "1.5",
                       "--out-dir", str(tmp_path))
        assert code == 2

    def test_missing_input_file_exits_2(self, tmp_path):
        items = tmp_path / "items.csv"
        items.write_text("i1,0\n")
        inter = tmp_path / "inter.csv"
        inter.write_text("u1,i1,5\n")
        code = run_cli("simulate", "--items-file", str(items),
                       "--interactions-file", str(inter),
                       "--trust-file", str(tmp_path / "nope.csv"),
                       "--h", "1", "--steps", "2", "--ts-k", "1",
                       "--seed", "1", "--out-dir", str(tmp_path / "out"))
        assert code == 2

    def test_runtime_error_exits_1(self, tmp_path):
        # no social links -> neighbor distance fails mid-run
        code = run_cli("simulate", "--n", "8", "--m", "20", "--c", "3",
                       "--links", "0", "--h", "4", "--steps", "2",
                       "--ts-k", "2", "--seed", "1",
                       "--out-dir", str(tmp_path))
        assert code == 1

    def test_byte_identical_reruns(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("simulate", *BASE, "--seed", "3",
                       "--out-dir", str(out)) == 0
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        shutil.rmtree(out)
        assert run_cli("simulate", *BASE, "--seed", "3",
                       "--out-dir", str(out)) == 0
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        assert first == second

    def test_config_file_supplies_flags(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "n": 12, "m": 40, "c": 4, "links": 20, "h": 5,
            "steps": 6, "ts_k": 3}))
        code = run_cli("simulate", "--config", str(cfg), "--seed", "1",
                       "--out-dir", str(tmp_path / "out"))
        assert code == 0

    def test_module_invocation(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "recloop", "simulate", *BASE,
             "--seed", "1", "--out-dir", str(tmp_path)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


class TestSweep:
    def test_sweep_outputs(self, tmp_path):
        code = run_cli("sweep", *BASE, "--seed", "1", "--axis", "alpha",
                       "--values", "0,5", "--out-dir", str(tmp_path))
        assert code == 0
        assert (tmp_path / "sweep.csv").exists()
        assert (tmp_path / "alpha=0.0" / "summary.json").exists()
        assert (tmp_path / "alpha=5.0" / "summary.json").exists()

    def test_bad_axis_value_exits_2(self, tmp_path):
        code = run_cli("sweep", *BASE, "--seed", "1", "--axis", "gamma",
                       "--values", "0.2,1.7", "--out-dir", str(tmp_path))
        assert code == 2


class TestCompare:
    def test_compare_two_summaries(self, tmp_path, capsys):
        run_cli("simulate", *BASE, "--seed", "1,2",
                "--out-dir", str(tmp_path / "a"))
        run_cli("simulate", *BASE, "--alpha", "1.0", "--seed", "1,2",
                "--out-dir", str(tmp_path / "b"))
        code = run_cli("compare",
                       "--candidate", str(tmp_path / "b" / "summary.json"),
                       "--baseline", str(tmp_path / "a" / "summary.json"),
                       "--out", str(tmp_path / "table.json"))
        assert code == 0
        out = capsys.readouterr().out
        assert "rce" in out and "p-value" in out
        table = json.loads((tmp_path / "table.json").read_text())
        assert {row["metric"] for row in table} == \
            {"rce", "ra", "nd", "pdv", "ts_at_k"}

    @pytest.mark.parametrize("mutate, message", [
        (lambda summary: {"seeds": [1]}, "lacks key 'steps'"),
        (lambda summary: [1, 2], "must be a JSON object"),
        (lambda summary: {**summary, "stats": {}}, "lacks key 'rce'"),
        (lambda summary: {**summary, "stats": {
            **summary["stats"], "pdv": {**summary["stats"]["pdv"], "per_seed": ["x"]}}},
         "malformed summary"),
    ])
    def test_malformed_summary_exits_2(self, tmp_path, capsys, mutate, message):
        good = tmp_path / "good" / "summary.json"
        run_cli("simulate", *BASE, "--seed", "1", "--out-dir", str(good.parent))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(mutate(json.loads(good.read_text()))))
        code = run_cli("compare", "--candidate", str(bad), "--baseline", str(good))
        assert code == 2
        assert message in capsys.readouterr().err

    def test_missing_summary_exits_2(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        code = run_cli("compare", "--candidate", missing, "--baseline", missing)
        assert code == 2
        assert "nope.json" in capsys.readouterr().err


class TestSynth:
    def test_emits_dataset_files(self, tmp_path):
        code = run_cli("synth", "--n", "10", "--m", "30", "--c", "3",
                       "--links", "12", "--seed", "4",
                       "--out-dir", str(tmp_path))
        assert code == 0
        items = (tmp_path / "items.csv").read_text().strip().splitlines()
        assert len(items) == 30
        trust = (tmp_path / "trust.csv").read_text().strip().splitlines()
        assert len(trust) == 12
        users = (tmp_path / "users.csv").read_text().strip().splitlines()
        assert len(users) == 11  # header + 10 users


class TestVerifyTheory:
    def test_quick_run_passes(self, capsys):
        code = run_cli("verify-theory", "--quick")
        assert code == 0
        out = capsys.readouterr().out
        assert "checks passed" in out
        assert "[FAIL]" not in out
