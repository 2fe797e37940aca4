"""Command-line driver tests: config parsing, precedence, exit codes, artifacts.

All invocations go through cli.main(argv) in process; exit codes follow the
contract 0 = all checks passed, 1 = a check failed or errored at runtime,
2 = the request itself was invalid (config, flags, environment, report file).
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from sharpcheck import cli


MINI = """\
[suite]
name = mini
seed = 5

[estimate:MAX-LP]
p = 2.0

[estimate:MAX-WEAK]
"""


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    for var in ("SEED", "JOBS", "OUT", "FORMAT"):
        monkeypatch.delenv(cli.ENV_PREFIX + var, raising=False)


def write_cfg(tmp_path, text, name="suite.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestVerify:

    def test_happy_path_writes_both_artifacts(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, MINI)
        out = tmp_path / "mini.json"
        code, stdout, _ = run_cli(capsys, "verify", cfg, "--out", str(out))
        assert code == 0
        assert "pass  MAX-LP" in stdout and "pass  MAX-WEAK" in stdout
        assert "suite mini: 2/2 passed" in stdout
        doc = json.loads(out.read_text())
        assert doc["seed"] == 5
        assert [e["id"] for e in doc["entries"]] == ["MAX-LP", "MAX-WEAK"]
        assert (tmp_path / "mini.csv").read_text().startswith(
            "id,spacing,lhs,rhs_sum,n_emp,trend,verdict")

    def test_format_json_skips_csv(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, MINI)
        out = tmp_path / "mini.json"
        code, _, _ = run_cli(capsys, "verify", cfg, "--out", str(out),
                             "--format", "json")
        assert code == 0
        assert out.exists() and not (tmp_path / "mini.csv").exists()

    def test_inline_comments_are_stripped(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, (
            "[suite]\nname = mini\nseed = 5   ; pinned\n\n"
            "[estimate:MAX-LP]\np = 2.0  # doob exponent\n"))
        out = tmp_path / "c.json"
        code, _, _ = run_cli(capsys, "verify", cfg, "--out", str(out))
        assert code == 0
        assert json.loads(out.read_text())["seed"] == 5

    def test_only_filters_entries(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, MINI)
        out = tmp_path / "one.json"
        code, _, _ = run_cli(capsys, "verify", cfg, "--out", str(out),
                             "--only", "MAX-WEAK")
        assert code == 0
        assert [e["id"] for e in json.loads(out.read_text())["entries"]] == ["MAX-WEAK"]

    def test_only_rejects_ids_outside_the_config(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, MINI)
        code, _, err = run_cli(capsys, "verify", cfg, "--only", "OSC")
        assert code == 2
        assert "config error:" in err and "'OSC'" in err

    def test_seed_precedence_flag_over_env_over_config(self, tmp_path, capsys,
                                                       monkeypatch):
        cfg = write_cfg(tmp_path, MINI)
        out = tmp_path / "s.json"
        monkeypatch.setenv(cli.ENV_PREFIX + "SEED", "7")
        run_cli(capsys, "verify", cfg, "--out", str(out))
        assert json.loads(out.read_text())["seed"] == 7
        run_cli(capsys, "verify", cfg, "--out", str(out), "--seed", "9")
        assert json.loads(out.read_text())["seed"] == 9

    def test_reruns_and_thread_counts_are_byte_identical(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, MINI + "\n[estimate:ZEROTH-1D]\n")
        a, b, c = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
        run_cli(capsys, "verify", cfg, "--out", str(a))
        run_cli(capsys, "verify", cfg, "--out", str(b))
        run_cli(capsys, "verify", cfg, "--out", str(c), "--jobs", "4")
        assert a.read_bytes() == b.read_bytes() == c.read_bytes()

    def test_runtime_rejection_exits_one(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, (
            "[suite]\nname = bad\nseed = 1\n\n"
            "[estimate:HS-DIRICHLET]\ninput = bump\nladder = 0.2\n"))
        code, _, err = run_cli(capsys, "verify", cfg)
        assert code == 1
        assert "error:" in err and "vanish on the boundary" in err

    def test_failed_analytic_gate_exits_one(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, (
            "[suite]\nname = bad\nseed = 1\n\n"
            "[estimate:IDENTITIES]\ntolerance = 1e-18\nladder = 30\n"))
        code, stdout, _ = run_cli(capsys, "verify", cfg,
                                  "--out", str(tmp_path / "bad.json"))
        assert code == 1
        assert "FAIL  IDENTITIES" in stdout and "0/1 passed" in stdout


class TestConfigDiagnostics:

    def check(self, tmp_path, capsys, text, *needles):
        cfg = write_cfg(tmp_path, text)
        code, _, err = run_cli(capsys, "verify", cfg)
        assert code == 2
        assert "config error:" in err
        for needle in needles:
            assert needle in err
        return err

    def test_unknown_estimate_id_points_at_its_section(self, tmp_path, capsys):
        self.check(tmp_path, capsys,
                   "[suite]\nname = bad\nseed = 1\n\n[estimate:W3P]\n",
                   "line 5", "unknown estimate id 'W3P'")

    def test_unknown_parameter_points_at_its_line(self, tmp_path, capsys):
        self.check(tmp_path, capsys,
                   "[suite]\nname = bad\nseed = 1\n\n[estimate:MAX-LP]\nbogus = 1\n",
                   "line 6", "unknown parameter 'bogus'")

    def test_constraint_violation_points_at_the_section(self, tmp_path, capsys):
        self.check(tmp_path, capsys,
                   "[suite]\nname = bad\nseed = 1\n\n[estimate:FS-LOCAL]\np = 0.25\n",
                   "line 5", "gamma*beta")

    @pytest.mark.parametrize("section,line,needle", [
        ("APRIORI", "operator = pucc", "unknown operator 'pucc'"),
        ("APRIORI", "delta = 1.5", "delta must lie in (0, 1]"),
        ("APRIORI", "delta = 0", "delta must lie in (0, 1]"),
        ("APRIORI", "operator = bellman\ndelta = 0", "delta must lie in (0, 1]"),
        ("HS-DIRICHLET", "input = quadratic", "unknown manufactured input 'quadratic'"),
    ])
    def test_operator_and_input_rejected_before_running(self, tmp_path, capsys,
                                                         section, line, needle):
        self.check(tmp_path, capsys,
                   f"[suite]\nname = bad\nseed = 1\n\n[estimate:{section}]\n{line}\n",
                   "line 5", needle)

    def test_bad_ladder_value(self, tmp_path, capsys):
        self.check(tmp_path, capsys,
                   "[suite]\nname = bad\nseed = 1\n\n"
                   "[estimate:MAX-LP]\nladder = 0.1 apples\n",
                   "line 6", "ladder")

    def test_unknown_suite_key(self, tmp_path, capsys):
        self.check(tmp_path, capsys,
                   "[suite]\nname = bad\nseed = 1\nwallclock = 2\n\n"
                   "[estimate:MAX-LP]\n",
                   "line 4", "wallclock")

    def test_non_integer_seed(self, tmp_path, capsys):
        self.check(tmp_path, capsys,
                   "[suite]\nname = bad\nseed = soon\n\n[estimate:MAX-LP]\n",
                   "seed")

    def test_missing_seed_everywhere(self, tmp_path, capsys):
        self.check(tmp_path, capsys,
                   "[suite]\nname = bad\n\n[estimate:MAX-LP]\n",
                   "no seed given")

    def test_unparseable_line(self, tmp_path, capsys):
        self.check(tmp_path, capsys,
                   "[suite]\nname = bad\nseed = 1\nthis line has no delimiter\n",
                   "line 4")

    def test_no_estimate_sections(self, tmp_path, capsys):
        self.check(tmp_path, capsys, "[suite]\nname = bad\nseed = 1\n",
                   "no [estimate:ID] sections")

    def test_missing_config_file(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "verify", str(tmp_path / "nope.cfg"))
        assert code == 2
        assert "config error:" in err and "nope.cfg" in err

    def test_bad_environment_integer(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(cli.ENV_PREFIX + "SEED", "abc")
        cfg = write_cfg(tmp_path, MINI)
        code, _, err = run_cli(capsys, "verify", cfg)
        assert code == 2
        assert "must be an integer" in err


class TestReport:

    @pytest.fixture()
    def artifacts(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, MINI)
        out = tmp_path / "mini.json"
        run_cli(capsys, "verify", cfg, "--out", str(out))
        return out, tmp_path / "mini.csv"

    def test_summary_table_shows_margins(self, artifacts, capsys):
        out, _ = artifacts
        code, stdout, _ = run_cli(capsys, "report", str(out))
        lines = stdout.splitlines()
        assert lines[0].split() == ["id", "n_emp", "trend", "verdict", "margin"]
        maxlp = next(l for l in lines if l.startswith("MAX-LP"))
        assert "exact-pass" in maxlp and "+" in maxlp
        assert code == 0

    def test_json_format_round_trips_bytes(self, artifacts, capsys):
        out, _ = artifacts
        code, stdout, _ = run_cli(capsys, "report", str(out), "--format", "json")
        assert code == 0
        assert stdout == out.read_text()

    def test_csv_format_matches_verify_artifact(self, artifacts, capsys):
        out, csv_path = artifacts
        code, stdout, _ = run_cli(capsys, "report", str(out), "--format", "csv")
        assert code == 0
        assert stdout == csv_path.read_text()

    def test_missing_report_file(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "report", str(tmp_path / "gone.json"))
        assert code == 2
        assert "config error:" in err

    def test_malformed_report_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run_cli(capsys, "report", str(bad))
        assert code == 2
        assert "malformed report JSON" in err

    def test_wrong_schema_version(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema_version": 99, "entries": []}))
        code, _, err = run_cli(capsys, "report", str(bad))
        assert code == 2
        assert "schema_version 99" in err

    def test_not_a_report_document(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"rows": []}))
        code, _, err = run_cli(capsys, "report", str(bad))
        assert code == 2
        assert "missing schema_version/entries" in err


def test_cli_import_does_not_load_scipy_signal():
    # scipy.signal costs most of a cold CLI start and the package needs
    # none of it; run in a fresh interpreter so other tests' imports don't count
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, sharpcheck.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.signal')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
