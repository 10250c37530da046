"""CLI verbs, exit codes, and byte-level determinism of outputs."""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from recloop import MitigationConfig, ModelParams, dynamics
from recloop.cli import main
from recloop.experiment import build_initial_users, generate_synthetic, ingest_interactions


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

    def test_runtime_error_exits_1(self, tmp_path, capsys):
        # an update step of 1e308 overflows U -> non-finite scores mid-run
        code = run_cli("simulate", "--n", "8", "--m", "20", "--c", "3",
                       "--links", "6", "--h", "4", "--steps", "3", "--eta", "1e308",
                       "--ts-k", "2", "--seed", "1",
                       "--out-dir", str(tmp_path))
        assert code == 1
        assert "non-finite recommendation scores" in capsys.readouterr().err

    def test_norm_overflow_exits_1(self, tmp_path, capsys):
        # an update step of 1e200 keeps U finite but overflows its norms
        code = run_cli("simulate", "--n", "8", "--m", "20", "--c", "3",
                       "--links", "6", "--h", "4", "--steps", "3", "--eta", "1e200",
                       "--ts-k", "2", "--seed", "1",
                       "--out-dir", str(tmp_path))
        assert code == 1
        assert "norm overflows" in capsys.readouterr().err

    @pytest.mark.parametrize("content, message", [
        (None, "cannot read config"),
        ("{\"alpha\": 1,", "bad JSON in"),
    ], ids=["missing", "bad-json"])
    def test_unreadable_config_exits_2(self, tmp_path, capsys, content, message):
        cfg = tmp_path / "config.json"
        if content is not None:
            cfg.write_text(content)
        code = run_cli("simulate", *BASE, "--config", str(cfg), "--seed", "1",
                       "--out-dir", str(tmp_path / "out"))
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("content, message", [
        ({"alpah": 0.0}, "'alpah'"),
        ({"ua_rescale_by_n": True}, "'ua_rescale_by_n'"),
        ([["alpha", 1.0]], "JSON object"),
        ({"alpha": None}, "'alpha'"),
        ({"ts_k": 2.5}, "'ts_k'"),
        ({"h": 5.9}, "'h'"),
        ({"export_states": "no"}, "'export_states'"),
        ({"pdv_mode": "fast"}, "'pdv_mode'"),
    ], ids=["misspelt", "removed", "not-an-object", "null", "float-for-int",
            "truncated-int", "string-for-switch", "bad-choice"])
    def test_bad_config_file_exits_2(self, tmp_path, capsys, content, message):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(content))
        code = run_cli("simulate", *BASE, "--config", str(cfg), "--seed", "1",
                       "--out-dir", str(tmp_path / "out"))
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("content", [{"func": 1}, {"command": "x"},
                                         {"config": "other.json"}],
                             ids=["func", "command", "config"])
    def test_config_key_that_names_no_flag_exits_2(self, tmp_path, capsys,
                                                   content):
        """The parser's own namespace entries are not flags a file may set."""
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(content))
        code = run_cli("simulate", *BASE, "--config", str(cfg), "--seed", "1",
                       "--out-dir", str(tmp_path / "out"))
        assert code == 2
        assert f"unknown key(s) {next(iter(content))!r}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_config_file_equals_flags(self, tmp_path):
        """A config file is read as its flags are: both write the same bytes."""
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "n": 12, "m": 40, "c": 4, "links": 20, "h": 5, "steps": 6, "ts_k": 3,
            "alpha": 2, "metric_every": "2", "burn_in": 1, "strategy": "sar",
            "omega": 10, "sar_strict": True, "export_states": True, "seed": [1, 2]}))
        assert run_cli("simulate", "--config", str(cfg), "--seed", "1,2",
                       "--out-dir", str(tmp_path / "file")) == 0
        assert run_cli("simulate", *BASE, "--alpha", "2", "--metric-every", "2",
                       "--burn-in", "1", "--strategy", "sar", "--omega", "10",
                       "--sar-strict", "--export-states", "--seed", "1,2",
                       "--out-dir", str(tmp_path / "flags")) == 0
        written = {p.name: p.read_bytes() for p in (tmp_path / "file").iterdir()}
        assert len(written) == 4          # metrics, summary, two state dumps
        assert written == {p.name: p.read_bytes()
                           for p in (tmp_path / "flags").iterdir()}

    def test_config_file_describes_whole_run(self, tmp_path):
        """A file's ``seed`` and ``out_dir`` keys are read, not overridden."""
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "n": 12, "m": 40, "c": 4, "links": 20, "h": 5, "steps": 6, "ts_k": 3,
            "seed": [1, 2], "out_dir": str(tmp_path / "file")}))
        assert run_cli("simulate", "--config", str(cfg)) == 0
        assert run_cli("simulate", *BASE, "--seed", "1,2",
                       "--out-dir", str(tmp_path / "flags")) == 0
        written = {p.name: p.read_bytes() for p in (tmp_path / "file").iterdir()}
        assert written and written == {p.name: p.read_bytes()
                                       for p in (tmp_path / "flags").iterdir()}

    @pytest.mark.parametrize("missing", ["seed", "out_dir"])
    def test_config_file_without_required_key_exits_2(self, tmp_path, capsys,
                                                      missing):
        content = {"n": 12, "m": 40, "c": 4, "links": 20, "h": 5, "steps": 6,
                   "ts_k": 3, "seed": 1, "out_dir": str(tmp_path / "out")}
        del content[missing]
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(content))
        with pytest.raises(SystemExit) as err:
            run_cli("simulate", "--config", str(cfg))
        assert err.value.code == 2
        assert repr(missing) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_strict_sar_runs_at_the_default_omega(self, tmp_path):
        """At omega = 1000 every strict weight underflows to 0; the rows are
        shifted by their maximum instead of dividing 0 by 0."""
        assert run_cli("simulate", "--n", "100", "--m", "1000", "--c", "10",
                       "--links", "1000", "--steps", "3", "--seed", "1",
                       "--strategy", "sar", "--sar-strict",
                       "--out-dir", str(tmp_path)) == 0

    @pytest.mark.parametrize("bad", ["items", "interactions", "trust"])
    def test_undecodable_bytes_name_their_line(self, tmp_path, capsys, bad):
        files = {"items": "i1,0\r\ni2,1\n", "interactions": "u1,i1,5\nu2,i2,1\n",
                 "trust": "u1,u2\nu2,u1\n"}
        for name, text in files.items():
            data = text.encode()
            if name == bad:
                data = data.replace(b"2,", b"2\xff,", 1)
            (tmp_path / f"{name}.csv").write_bytes(data)
        code = run_cli("simulate", "--items-file", str(tmp_path / "items.csv"),
                       "--interactions-file", str(tmp_path / "interactions.csv"),
                       "--trust-file", str(tmp_path / "trust.csv"), "--h", "1",
                       "--steps", "2", "--ts-k", "1", "--seed", "1",
                       "--out-dir", str(tmp_path / "out"))
        assert code == 2
        err = capsys.readouterr().err
        assert "line 2: cannot decode b'\\xff' as UTF-8" in err

    def test_defaults_are_the_dataclasses(self, tmp_path):
        """With no model or mitigation flag, the run records the dataclass
        defaults."""
        assert run_cli("simulate", "--n", "12", "--m", "40", "--c", "4",
                       "--links", "20", "--steps", "2", "--ts-k", "3",
                       "--seed", "1", "--out-dir", str(tmp_path)) == 0
        config = json.loads((tmp_path / "summary.json").read_text())["config"]
        assert config["params"] == dataclasses.asdict(ModelParams())
        assert config["mitigation"] == dataclasses.asdict(MitigationConfig())

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

    def test_no_values_exits_2(self, tmp_path):
        code = run_cli("sweep", *BASE, "--seed", "1", "--axis", "alpha",
                       "--values", ",", "--out-dir", str(tmp_path / "out"))
        assert code == 2
        assert not (tmp_path / "out").exists()

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

    def test_summary_that_is_not_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "summary.json"
        bad.write_text("t,seed,rce\n")
        assert run_cli("compare", "--candidate", str(bad), "--baseline", str(bad)) == 2
        assert f"bad JSON in {bad}" in capsys.readouterr().err

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

    def test_output_simulates_and_recovers_users(self, tmp_path):
        """``simulate`` runs on what ``synth`` writes, and each user's start,
        built from its synthetic history, points along its synthetic vector."""
        code = run_cli("synth", "--n", "50", "--m", "1000", "--c", "10",
                       "--links", "200", "--seed", "3", "--out-dir", str(tmp_path))
        assert code == 0
        code = run_cli("simulate", "--items-file", str(tmp_path / "items.csv"),
                       "--interactions-file", str(tmp_path / "interactions.csv"),
                       "--trust-file", str(tmp_path / "trust.csv"), "--h", "5",
                       "--steps", "3", "--ts-k", "5", "--seed", "1",
                       "--out-dir", str(tmp_path / "out"))
        assert code == 0
        ingest = ingest_interactions(tmp_path / "interactions.csv",
                                     tmp_path / "items.csv")
        states, substituted = build_initial_users(ingest)
        assert substituted == [] and list(ingest.user_index) == [str(i) for i in range(50)]
        truth = generate_synthetic(50, 1000, 10, 200, 3)[1].user_matrix
        cosines = (states.user_matrix * truth).sum(axis=0) / np.linalg.norm(truth, axis=0)
        assert cosines.min() >= 0.99


@pytest.mark.parametrize("args, message", [
    (["simulate", *BASE, "--c", "0", "--seed", "1"], "c must be >= 1"),
    (["simulate", *BASE, "--links", "-1", "--seed", "1"], "links must be >= 0"),
    (["simulate", *BASE, "--ts-k", "-5", "--seed", "1"], "ts_k must be >= 1"),
    (["sweep", *BASE, "--seed", "1", "--axis", "c", "--values", "0,3"],
     "c must be >= 1"),
    (["synth", "--n", "10", "--links", "-4", "--seed", "1"], "links must be >= 0"),
    (["simulate", *BASE, "--steps", "0", "--seed", "1"], "steps must be >= 1"),
    (["simulate", *BASE, "--burn-in", "6", "--seed", "1"], "burn_in must lie"),
    (["simulate", *BASE, "--burn-in", "-1", "--seed", "1"], "burn_in must lie"),
    (["simulate", *BASE, "--metric-every", "0", "--seed", "1"],
     "metric_every must be >= 1"),
    (["simulate", *BASE, "--seed", ","], "empty seed list"),
    (["simulate", *BASE, "--seed", "a,b"], "bad seed list 'a,b'"),
    (["simulate", "--items-file", "items.csv", "--trust-file", "trust.csv",
      "--seed", "1"], "interactions"),
    (["simulate", "--items-file", "items.csv", "--interactions-file",
      "interactions.csv", "--seed", "1"], "trust"),
], ids=["simulate-c", "simulate-links", "simulate-ts_k", "sweep-c", "synth-links",
        "simulate-steps", "simulate-burn_in-high", "simulate-burn_in-low",
        "simulate-metric_every", "simulate-seed-empty", "simulate-seed-not-int",
        "simulate-interactions_file", "simulate-trust_file"])
def test_bad_value_exits_2_naming_its_field(tmp_path, capsys, args, message):
    assert run_cli(*args, "--out-dir", str(tmp_path)) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("args, named, unnamed", [
    (["--items-file", "items.csv", "--trust-file", "trust.csv"],
     "interactions_file", "trust_file"),
    (["--items-file", "items.csv", "--interactions-file", "interactions.csv"],
     "trust_file", "interactions_file"),
], ids=["interactions_file", "trust_file"])
def test_missing_dataset_file_is_named_alone(tmp_path, capsys, args, named, unnamed):
    assert run_cli("simulate", *args, "--seed", "1", "--out-dir", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert named in err and unnamed not in err


@pytest.mark.parametrize("args", [
    ["simulate", *BASE, "--links", "0", "--seed", "1"],
    ["sweep", *BASE, "--seed", "1", "--axis", "links", "--values", "0"],
    ["simulate", "--items-file", "items.csv", "--interactions-file",
     "interactions.csv", "--trust-file", "trust.csv", "--h", "1", "--steps", "2",
     "--ts-k", "1", "--seed", "1"],
], ids=["simulate-links", "sweep-links", "self-loop-trust"])
def test_world_without_edges_exits_2_before_the_first_step(tmp_path, capsys,
                                                           monkeypatch, args):
    monkeypatch.chdir(tmp_path)
    for name, text in {"items": "i1,0\ni2,1\n", "interactions": "u1,i1,5\nu2,i2,1\n",
                       "trust": "u1,u1\nu2,u2\n"}.items():
        (tmp_path / f"{name}.csv").write_text(text)
    monkeypatch.setattr(dynamics, "simulate_step",
                        lambda *a, **k: pytest.fail("a step ran"))
    assert run_cli(*args, "--out-dir", "out") == 2
    assert "the social graph has no edges" in capsys.readouterr().err


@pytest.mark.parametrize("args, blocked", [
    (["simulate", *BASE, "--seed", "1"], "metrics.csv"),
    (["sweep", *BASE, "--seed", "1", "--axis", "alpha", "--values", "0"],
     "sweep.csv"),
    (["synth", "--n", "10", "--m", "30", "--c", "3", "--links", "12",
      "--seed", "4"], "items.csv"),
    (["synth", "--n", "10", "--m", "30", "--c", "3", "--links", "12",
      "--seed", "4"], "interactions.csv"),
], ids=["simulate", "sweep", "synth", "synth-interactions"])
def test_write_error_exits_1_naming_the_path(tmp_path, capsys, args, blocked):
    (tmp_path / blocked).mkdir()
    assert run_cli(*args, "--out-dir", str(tmp_path)) == 1
    assert f"cannot write {tmp_path / blocked}:" in capsys.readouterr().err


class TestVerifyTheory:
    def test_quick_run_passes(self, capsys):
        code = run_cli("verify-theory", "--quick")
        assert code == 0
        out = capsys.readouterr().out
        assert "checks passed" in out
        assert "[FAIL]" not in out
