"""Command-line driver tests: config parsing, precedence, exit codes, artifacts.

All invocations go through cli.main(argv) in process; exit codes follow the
contract 0 = all checks passed, 1 = a check failed or errored at runtime,
2 = the request itself was invalid (config, flags, report file).
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from sharpcheck import cli

SUITES = pathlib.Path(__file__).resolve().parents[1] / "suites"

MINI = """\
[suite]
name = mini
seed = 5

[estimate:MAX-LP]
p = 2.0

[estimate:MAX-WEAK]
"""


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

    @pytest.mark.parametrize("flag,value", [("--format", "json"), ("--jobs", "2")])
    def test_removed_flags_are_refused(self, tmp_path, capsys, flag, value):
        # verify always writes both the JSON and the CSV, and runs entries
        # one after another
        cfg = write_cfg(tmp_path, MINI)
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", cfg, "--out", str(tmp_path / "mini.json"), flag, value])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "mini.json").exists()

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

    @pytest.mark.parametrize("only", ["", ","])
    def test_only_naming_no_id_is_refused(self, tmp_path, capsys, only):
        cfg = write_cfg(tmp_path, MINI)
        out = tmp_path / "none.json"
        code, stdout, err = run_cli(capsys, "verify", cfg, "--out", str(out), "--only", only)
        assert code == 2
        assert "config error: --only names no estimate id" in err
        assert stdout == "" and not out.exists()

    def test_seed_precedence_flag_over_config(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, MINI)
        out = tmp_path / "s.json"
        run_cli(capsys, "verify", cfg, "--out", str(out))
        assert json.loads(out.read_text())["seed"] == 5
        run_cli(capsys, "verify", cfg, "--out", str(out), "--seed", "9")
        assert json.loads(out.read_text())["seed"] == 9

    @pytest.mark.parametrize("where", ["config", "flag"])
    def test_negative_seed_is_refused(self, tmp_path, capsys, where):
        # numpy refuses a negative seed only once an entry draws from it
        text = MINI.replace("seed = 5", "seed = -1") if where == "config" else MINI
        flags = ("--seed", "-1") if where == "flag" else ()
        out = tmp_path / "neg.json"
        code, stdout, err = run_cli(capsys, "verify", write_cfg(tmp_path, text),
                                    "--out", str(out), *flags)
        assert code == 2
        assert "seed must be a non-negative integer, got -1" in err
        assert ("--seed" in err) == (where == "flag")
        assert stdout == "" and not out.exists()

    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, MINI + "\n[estimate:ZEROTH-1D]\n")
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(capsys, "verify", cfg, "--out", str(a))
        run_cli(capsys, "verify", cfg, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_integer_and_float_spellings_write_identical_reports(self, tmp_path, capsys):
        # p = 3 and q = 0 run and are reported as the floats 3.0 and 0.0
        head = "[suite]\nname = s\nseed = 1\n\n[estimate:APRIORI]\nladder = 0.25\n"
        for name, tail in (("int", "p = 3\nq = 0\n"), ("float", "p = 3.0\nq = 0.0\n")):
            code, _, _ = run_cli(capsys, "verify", write_cfg(tmp_path, head + tail),
                                 "--out", str(tmp_path / f"{name}.json"))
            assert code == 0
        for ext in ("json", "csv"):
            read = lambda name: (tmp_path / f"{name}.{ext}").read_bytes()
            assert read("int") == read("float")
        text = (tmp_path / "int.json").read_text()
        assert '"p": 3.0' in text and '"q": 0.0' in text

    @pytest.mark.parametrize("suite", sorted(SUITES.glob("*.cfg")), ids=lambda p: p.name)
    def test_shipped_suite_passes(self, tmp_path, capsys, suite):
        code, stdout, _ = run_cli(capsys, "verify", str(suite),
                                  "--out", str(tmp_path / "suite.json"))
        assert code == 0, stdout

    def test_runtime_rejection_exits_one(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, (
            "[suite]\nname = bad\nseed = 1\n\n"
            "[estimate:HS-DIRICHLET]\ninput = bump\nladder = 0.2\n"))
        out = tmp_path / "bad.json"
        code, stdout, err = run_cli(capsys, "verify", cfg, "--out", str(out))
        assert code == 1
        assert "error: HS-DIRICHLET: ValueError:" in err and "vanish on the boundary" in err
        assert "ERROR  HS-DIRICHLET" in stdout and "0/1 passed" in stdout
        (entry,) = json.loads(out.read_text())["entries"]
        assert entry["verdict"] == "error" and entry["ladder"] == []
        assert "vanish on the boundary" in entry["notes"]["error"]
        assert (tmp_path / "bad.csv").read_text().count("\n") == 1    # the header alone

    def test_step_refused_at_run_time_spares_the_other_entries(self, tmp_path, capsys):
        # the budget loads (it is at most 65,536), but at h = 0.05 OSC-P's
        # sharp function refuses it before any pair: 2.55e9 pair-node terms
        head = "[suite]\nname = s\nseed = 1\n\n[estimate:MAX-LP]\n"
        runs = {}
        for name, tail in (("alone", ""),
                           ("both", "\n[estimate:OSC-P]\npair_budget = 16384\nladder = 0.05\n")):
            out = tmp_path / f"{name}.json"
            code, stdout, err = run_cli(capsys, "verify", write_cfg(tmp_path, head + tail),
                                        "--out", str(out))
            doc = json.loads(out.read_text())
            csv = (tmp_path / f"{name}.csv").read_text().splitlines()
            runs[name] = code, stdout, err, doc, csv
        code, stdout, err, doc, csv = runs["both"]
        assert code == 1 and runs["alone"][0] == 0
        assert "ERROR  OSC-P" in stdout and "pass  MAX-LP" in stdout and "1/2 passed" in stdout
        assert "error: OSC-P: ValueError: geometric sharp would add 2.55e+09 pair-node terms" in err
        max_lp, osc_p = doc["entries"]
        assert max_lp == runs["alone"][3]["entries"][0]
        assert osc_p["verdict"] == "error" and osc_p["ladder"] == []
        assert osc_p["notes"]["error"].startswith("ValueError: geometric sharp would add")
        assert csv == runs["alone"][4]          # OSC-P completed no step, so has no row

    def test_missing_output_directory_is_refused_before_any_entry(self, tmp_path, capsys,
                                                                   monkeypatch):
        ran = []
        monkeypatch.setattr(cli, "run_suite", lambda specs: ran.append(specs))
        out = tmp_path / "nonexistent" / "dir" / "mini.json"
        code, stdout, err = run_cli(capsys, "verify", write_cfg(tmp_path, MINI), "--out", str(out))
        assert code == 2 and ran == [] and stdout == ""
        assert err == (f"config error: {out}: output directory "
                       f"{str(out.parent)!r} does not exist\n")

    @pytest.mark.parametrize("target", ["json", "csv"])
    def test_unwritable_report_file_is_a_config_error(self, tmp_path, capsys, target):
        # an existing directory where a report file goes cannot be opened
        out = tmp_path / "mini.json"
        (out if target == "json" else tmp_path / "mini.csv").mkdir()
        code, _, err = run_cli(capsys, "verify", write_cfg(tmp_path, MINI), "--out", str(out))
        assert code == 2
        assert err.startswith(f"config error: {tmp_path / ('mini.' + target)}: "
                              "cannot write report (Is a directory)")
        assert "Traceback" not in err

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
        # a config that loads by mistake writes its reports under tmp_path
        code, _, err = run_cli(capsys, "verify", cfg, "--out", str(tmp_path / "bad.json"))
        assert code == 2
        assert "config error:" in err
        for needle in needles:
            assert needle in err
        return err

    def test_unknown_estimate_id_points_at_its_section(self, tmp_path, capsys):
        self.check(tmp_path, capsys,
                   "[suite]\nname = bad\nseed = 1\n\n[estimate:W3P]\n",
                   "line 5", "unknown estimate id 'W3P'")

    # PARA-APRIORI has no collar term, so it takes no tau0 (nor R or r0)
    @pytest.mark.parametrize("section,key", [("MAX-LP", "bogus"), ("PARA-APRIORI", "tau0")])
    def test_unknown_parameter_points_at_its_line(self, tmp_path, capsys, section, key):
        self.check(tmp_path, capsys,
                   f"[suite]\nname = bad\nseed = 1\n\n[estimate:{section}]\n{key} = 0.5\n",
                   "line 6", f"unknown parameter {key!r}")

    def test_integer_past_the_float_range_names_its_parameter(self, tmp_path, capsys):
        err = self.check(tmp_path, capsys,
                         "[suite]\nname = bad\nseed = 1\n\n[estimate:APRIORI]\np = 1"
                         + "0" * 400 + "\n",
                         "line 6", "invalid parameters for APRIORI: p is too large for a float")
        assert "int too large" not in err

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
        ("OSC-P", "mu = -1.0", "mu must be finite and positive"),
        ("OSC", "r0 = 0", "r0 must be finite and positive"),
        ("OSC", "tau0 = -1.0", "tau0 must be finite and nonnegative"),
        ("W2P-GLOBAL", "p = 3\ntau0 = -1.0", "tau0 must be finite and nonnegative"),
        ("HS-DIRICHLET", "tau0 = -1.0", "tau0 must be finite and nonnegative"),
        ("PARA-GLOBAL", "p = 5\ntau0 = -1.0", "tau0 must be finite and nonnegative"),
        ("APRIORI", "radius = 0", "radius must be finite and positive"),
        ("APRIORI", "radius = -1.2", "radius must be finite and positive"),
        ("APRIORI", "radius = inf", "radius must be finite and positive"),
        ("LOCAL-W2P", "sigma = 0", "sigma must be finite and positive"),
        ("PARA-GLOBAL", "p = 5\nt_radius = -0.6", "t_radius must be finite and positive"),
        ("NEG-EXP", "h = 0", "h must be finite and positive"),
        ("NEG-EXP", "h = -0.01", "h must be finite and positive"),
        # at n_min = -2 the coarsest cell has side 4, so [0, 3) cannot be tiled
        ("MAX-LP", "extent = 3.0", "extent at n_min = -2: 3.0 is not a whole number"),
        ("MAX-WEAK", "extent = 3.0", "extent at n_min = -2: 3.0 is not a whole number"),
        # 2.0 ** 2000 would overflow; no ladder step reaches level 2000
        ("MAX-WEAK", "n_min = -2000", "n_min = -2000: [0, 4.0) holds under half a coarsest cell"),
        ("MAX-WEAK", "n_min = 2000", "n_min must be at most the finest supported level 10"),
        # each parameter name has one rule, in every entry that has the name
        ("HS-DIRICHLET", "R = -1", "R must be finite and positive, got -1"),
        ("PARA-GLOBAL", "r0 = -5\ntau0 = 0.5", "r0 must be finite and positive, got -5"),
        ("W2P-GLOBAL", "r0 = inf", "r0 must be finite and positive, got inf"),
        ("INTERP", "rho = inf", "rho must be finite and positive, got inf"),
        # limits the effective (here the default) ladder sets
        ("MAX-LP", "n_min = 3", "n_min = 3 exceeds level 2 of ladder spacing 0.25"),
        ("MAX-WEAK", "n_min = 3", "n_min = 3 exceeds level 2 of ladder spacing 0.25"),
        ("FS-LOCAL", "m = 6", "m = 6 must lie in [0, 5], the levels at ladder spacing 0.03125"),
        ("FS-LOCAL", "m = -1", "m = -1 must lie in [0, 5]"),
        # each of these used to load and then run, to a verdict that measures
        # nothing (n_emp 0 or nan, or a weight of infinite power) or to a
        # runtime error with no report: an infinite exponent or scale,
        ("ZEROTH-1D", "p = inf\nladder = 0.2", "p must be finite, got inf"),
        ("APRIORI", "p = inf\nladder = 0.2", "p must be finite, got inf"),
        ("PARA-HS-FULL", "p = inf\nladder = 0.2", "p must be finite, got inf"),
        ("HS-WEIGHTED", "q = inf\nladder = 0.2", "q must be finite, got inf"),
        ("IDENTITIES", "tolerance = nan\nladder = 5", "tolerance must be finite and positive"),
        ("OSC", "nu = inf\nladder = 0.2", "nu must be finite and positive, got inf"),
        ("OSC", "xi = inf\nladder = 0.2", "xi must be finite and positive, got inf"),
        # a dimension below 1,
        ("APRIORI", "d = -1\nladder = 0.2", "d must be at least 1, got -1"),
        ("APRIORI", "d = 0\nladder = 0.2", "d must be at least 1, got 0"),
        # and a check whose left side is 0 at every step
        ("HS-SLAB", "n = -40\nladder = 0.2", "n must lie in [-1, 3]"),
        ("HS-SLAB", "n = -2\nladder = 0.1 0.05", "n must lie in [-1, 3]"),
        ("HS-SLAB", "n = 10\nladder = 0.1 0.05", "n must lie in [-1, 3]"),
        ("HS-SLAB", "n = 4\nladder = 0.05 0.025 0.0125", "n must lie in [-1, 3]"),
        ("W2P-GLOBAL", "amplitude = 0\nladder = 0.2", "amplitude must be finite and nonzero"),
        # a capped weight min(x_1, 1)^q that is not locally integrable at the wall
        ("HS-WEIGHTED", "q = -3.0\nladder = 0.2 0.1 0.05", "q must exceed -1, or the weight"),
        ("HS-WEIGHTED", "q = -1.5\nladder = 0.2 0.1 0.05", "got q = -1.5"),
        ("HS-MIXED", "q = -1.0\nladder = 0.2 0.1 0.05", "q must exceed -1, or the weight"),
        ("HS-MIXED", "q = -3.0\nladder = 0.2 0.1 0.05", "got q = -3.0"),
        ("FS-LOCAL", "q = -1.0", "q must exceed -1, or the weight"),
    ])
    def test_operator_and_input_rejected_before_running(self, tmp_path, capsys,
                                                         section, line, needle):
        self.check(tmp_path, capsys,
                   f"[suite]\nname = bad\nseed = 1\n\n[estimate:{section}]\n{line}\n",
                   "line 5", needle)

    def test_slab_narrower_than_a_ladder_step_refused(self, tmp_path, capsys):
        # the slab [1/8, 1/4] of n = 3 holds none of the nodes 0, 0.3, ...
        self.check(tmp_path, capsys,
                   "[suite]\nname = bad\nseed = 1\n\n[estimate:HS-SLAB]\nn = 3\nladder = 0.3\n",
                   "line 7", "n = 3: the slab's width 2^-n is below ladder spacing 0.3")

    @pytest.mark.parametrize("section", ["HS-WEIGHTED", "HS-MIXED"])
    @pytest.mark.parametrize("q", [None, -0.5, -0.999])
    def test_locally_integrable_capped_weights_load(self, tmp_path, section, q):
        # the default q = 1 lies outside A_{p/d}'s (-1, 0.5), and needs only q > -1
        line = "" if q is None else f"q = {q}\n"
        cfg = cli.load_suite(write_cfg(tmp_path,
                                       f"[suite]\nname = ok\n\n[estimate:{section}]\n{line}"))
        assert cfg.blocks == [(section, {} if q is None else {"q": q}, ())]

    @pytest.mark.parametrize("n", [-1, 3])
    def test_slabs_meeting_the_support_load(self, tmp_path, n):
        cfg = cli.load_suite(write_cfg(
            tmp_path, f"[suite]\nname = ok\n\n[estimate:HS-SLAB]\nn = {n}\nladder = 0.1 0.05\n"))
        assert cfg.blocks == [("HS-SLAB", {"n": n}, (0.1, 0.05))]

    # a value of the wrong type for its default is refused at its own line,
    # by the one typing rule of CatalogEntry.merged
    @pytest.mark.parametrize("section,line,needle", [
        ("NEG-EXP", "h = abc", "h must be a number, got 'abc'"),
        ("MAX-LP", "p = abc", "p must be a number, got 'abc'"),
        ("APRIORI", "q = abc", "q must be None or a number, got 'abc'"),
        # an integer parameter is refused, not truncated
        ("APRIORI", "d = 2.5", "d must be an integer, got 2.5"),
        ("HS-SLAB", "n = 0.7", "n must be an integer, got 0.7"),
        ("MAX-LP", "n_min = true", "n_min must be an integer, got True"),
        ("FS-LOCAL", "m = 2.5", "m must be an integer, got 2.5"),
        ("APRIORI", "d = true", "d must be an integer, got True"),
        # n_min is read as a level before it sizes the coarsest cell
        ("MAX-LP", "n_min = 0.5", "n_min must be an integer, got 0.5"),
        ("MAX-WEAK", "n_min = 0.5", "n_min must be an integer, got 0.5"),
        # a bool is not a number, though Python reads it as one
        ("APRIORI", "delta = true", "delta must be a number, got True"),
        ("APRIORI", "radius = true", "radius must be a number, got True"),
        # q defaults to None (no weight) and takes None or a number, never a bool
        *((section, f"q = {value}", f"q must be None or a number, got {value.title()}")
          for section in ("APRIORI", "W2P-GLOBAL", "PARA-GLOBAL", "PARA-APRIORI")
          for value in ("true", "false")),
    ])
    def test_non_numeric_parameter_points_at_its_line(self, tmp_path, capsys, section, line,
                                                      needle):
        self.check(tmp_path, capsys,
                   f"[suite]\nname = bad\nseed = 1\n\n[estimate:{section}]\n{line}\n",
                   f"{tmp_path / 'suite.cfg'}, line 6", f"invalid parameters for {section}",
                   needle)

    def test_none_for_a_numeric_parameter_is_a_config_error(self, tmp_path, capsys):
        self.check(tmp_path, capsys,
                   "[suite]\nname = bad\nseed = 1\n\n[estimate:NEG-EXP]\nh = none\n",
                   f"{tmp_path / 'suite.cfg'}, line 6", "invalid parameters for NEG-EXP")

    @pytest.mark.parametrize("section", ["OSC", "OSC-P"])
    @pytest.mark.parametrize("value", ["0", "0.5", "65537"])
    def test_pair_budget_out_of_range(self, tmp_path, capsys, section, value):
        # the integer rule of every int parameter refuses 0.5 first, at its line
        needle, line = (("must be an integer, got 0.5", 6) if value == "0.5"
                        else ("from 1 to 65536", 5))
        self.check(tmp_path, capsys,
                   f"[suite]\nname = bad\nseed = 1\n\n[estimate:{section}]\n"
                   f"pair_budget = {value}\n",
                   f"{tmp_path / 'suite.cfg'}, line {line}", "pair_budget", needle)

    @pytest.mark.parametrize("section,ladder,needle", [
        ("IDENTITIES", "0.5", "a positive integer"),
        ("IDENTITIES", "0", "a positive integer"),
        ("IDENTITIES", "-2", "a positive integer"),
        ("MAX-LP", "0.25 0.0001", "below the supported resolution"),
        ("MAX-LP", "0.25 inf", "finite"),
        ("MAX-LP", "nan", "finite"),
        ("NEG-EXP", "1 -2", "finite and positive"),
        ("NEG-EXP", "1 0", "finite and positive"),
        ("NEG-EXP", "inf", "finite and positive"),
        # one spacing three times refines nothing
        ("OSC-P", "0.2 0.2 0.2", "spacing ladder value 0.2 for OSC-P is repeated"),
        ("NEG-EXP", "1 2 1", "window ladder value 1.0 for NEG-EXP is repeated"),
        ("IDENTITIES", "30 30", "instances ladder value 30.0 for IDENTITIES is repeated"),
        # spacings strictly decrease, windows strictly increase
        ("ZEROTH-1D", "0.025 0.1 0.05", "spacing ladder value 0.1 for ZEROTH-1D is repeated "
                                        "or out of order: the ladder must be strictly decreasing"),
        ("MAX-LP", "0.0625 0.25 0.125", "spacing ladder value 0.25 for MAX-LP is repeated"),
        ("NEG-EXP", "8 4 2 1", "window ladder value 4.0 for NEG-EXP is repeated or out of "
                               "order: the ladder must be strictly increasing"),
    ])
    def test_ladder_out_of_range(self, tmp_path, capsys, section, ladder, needle):
        # rejected at load time with the ladder's line, before any entry runs
        self.check(tmp_path, capsys,
                   f"[suite]\nname = bad\nseed = 1\n\n[estimate:{section}]\nladder = {ladder}\n",
                   f"{tmp_path / 'suite.cfg'}, line 6", needle, section)

    @pytest.mark.parametrize("section,params,ladder,needle", [
        ("MAX-LP", "", "0.3", "ladder spacing 0.3 is not dyadic"),
        ("MAX-WEAK", "", "0.25 2", "ladder spacing 2.0 exceeds 1"),
        ("MAX-LP", "n_min = 1\n", "1 0.5", "n_min = 1 exceeds level 0 of ladder spacing 1.0"),
        ("FS-LOCAL", "m = 5\n", "0.0625 0.03125", "m = 5 must lie in [0, 4]"),
    ])
    def test_ladder_limits_of_the_parameters(self, tmp_path, capsys, section, params,
                                            ladder, needle):
        # checked against the parameters at load, at the ladder's line
        line = 6 + params.count("\n")
        self.check(tmp_path, capsys,
                   f"[suite]\nname = bad\nseed = 1\n\n[estimate:{section}]\n{params}"
                   f"ladder = {ladder}\n",
                   f"{tmp_path / 'suite.cfg'}, line {line}", needle)

    def test_bad_ladder_value(self, tmp_path, capsys):
        self.check(tmp_path, capsys,
                   "[suite]\nname = bad\nseed = 1\n\n"
                   "[estimate:MAX-LP]\nladder = 0.1 apples\n",
                   "line 6", "ladder")

    @pytest.mark.parametrize("key", ["wallclock = 2", "format = json", "jobs = 2"])
    def test_unknown_suite_key(self, tmp_path, capsys, key):
        self.check(tmp_path, capsys,
                   f"[suite]\nname = bad\nseed = 1\n{key}\n\n[estimate:MAX-LP]\n",
                   "line 4", f"unknown suite key {key.split()[0]!r}")

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

    @pytest.mark.parametrize("fmt", ["summary", "csv"])
    def test_entry_lacking_a_rendered_key_is_malformed(self, tmp_path, capsys, fmt):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema_version": 1, "entries": [{"id": "X"}]}))
        code, stdout, err = run_cli(capsys, "report", str(bad), "--format", fmt)
        assert code == 2 and stdout == ""
        assert err == f"config error: {bad}: malformed report (an entry lacks the key 'primary')\n"

    def test_not_a_report_document(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"rows": []}))
        code, _, err = run_cli(capsys, "report", str(bad))
        assert code == 2
        assert "missing schema_version/entries" in err


def test_cli_import_does_not_load_scipy_signal():
    # numpy is the only runtime dependency: with scipy blocked the CLI imports
    # and the geometric operators (ball and cylinder) still run, and they never
    # load numpy.fft.  A fresh interpreter keeps other tests' imports from
    # counting.
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys; sys.modules['scipy'] = None; import sharpcheck.cli\n"
            "from sharpcheck.harness import EstimateSpec, run_suite\n"
            "reports = run_suite([EstimateSpec(id='OSC', ladder=(0.12,)),\n"
            "                     EstimateSpec(id='OSC-P', ladder=(0.2,))])\n"
            "print([r.verdict for r in reports])\n"
            "print(sorted(m for m, v in sys.modules.items() if m.startswith('scipy') and v))\n"
            "print('numpy.fft' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:3] == ["['bounded', 'bounded']", "[]", "False"]
