"""End-to-end tests of the command-line tool.

Commands run in-process through ``cli.main`` so exit codes and stderr
text can be asserted without spawning subprocesses.
"""

import json
import os
import runpy
import sys
import types

import numpy as np
import pytest

from landauspec import cli, eigentracker
from landauspec.landau import background_on_grid
from landauspec.operators import (
    OperatorMatrix,
    _k_columns,
    assemble_L,
    assemble_L0,
)
from landauspec.eigentracker import DEFAULT_EPS_GRID, fit_quadratic, track
from landauspec.sphbasis import QuadratureGrid, default_k_max, legendre_values
from landauspec.statespace import StateIndexMap


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


# ---- parsing and config ------------------------------------------------------


def test_parse_eps_range_forms():
    assert cli.parse_eps_range("0.02:0.10:0.02") == [
        0.02, 0.04, 0.06, 0.08, 0.1]
    assert cli.parse_eps_range("0.1,0.3") == [0.1, 0.3]
    assert cli.parse_eps_range("-0.05") == [-0.05]
    # a step that does not divide b - a stops short of b, never past it
    assert cli.parse_eps_range("0:0.1:0.06") == [0.0, 0.06]
    assert cli.parse_eps_range("0:0.35:0.1") == [0.0, 0.1, 0.2, 0.3]


def test_parse_eps_range_rejects_malformed():
    with pytest.raises(ValueError, match="a:b:step"):
        cli.parse_eps_range("0.1:0.2")
    with pytest.raises(ValueError, match="empty range"):
        cli.parse_eps_range("0.2:0.1:0.02")
    with pytest.raises(ValueError, match="empty range"):
        cli.parse_eps_range("0.1:0.2:0")


def test_parse_eps_range_rejects_unbounded_ranges():
    for text in ("0:1e308:1e-308", "0:2:1e-6"):
        with pytest.raises(ValueError, match="over a million points"):
            cli.parse_eps_range(text, "--eps")


@pytest.mark.parametrize("argv,config,source", [
    (["--eps", "0:inf:0.1"], None, "--eps/--epsilon"),
    (["--eps", "nan:1:0.1"], None, "--eps/--epsilon"),
    (["--eps", "inf"], None, "--eps/--epsilon"),
    ([], '{"epsilons": [NaN]}', "'epsilons'"),
], ids=["flag-range-inf", "flag-range-nan", "flag-inf", "config-nan"])
def test_non_finite_epsilons_exit_1_before_any_output(
        tmp_path, capsys, monkeypatch, argv, config, source):
    def unreachable(*args):
        raise AssertionError("assembled with a non-finite epsilon")

    monkeypatch.setattr(cli, "assemble_L", unreachable)
    monkeypatch.chdir(tmp_path)
    if config is not None:
        (tmp_path / "run.json").write_text(config)
        argv = [*argv, "--config", "run.json"]
    code, _, err = run_cli(capsys, "spectrum", *argv, "--out", "out")
    assert code == 1
    assert err.startswith("error: ") and source in err, err
    assert "Traceback" not in err
    assert sorted(os.listdir(tmp_path)) == (["run.json"] if config else [])


def test_runconfig_round_trip():
    config = cli.RunConfig(command="track", modes=[1, 2],
                           epsilons=[0.02, 0.04], k_max=16, out="somewhere")
    again = cli.RunConfig(**config.to_dict())
    assert again.to_dict() == config.to_dict()


def test_runconfig_rejects_bad_fields():
    with pytest.raises(ValueError, match="unknown config keys"):
        cli.RunConfig(command="spectrum", modes=[0], epsilons=[0.0],
                      k_maximum=10)
    with pytest.raises(ValueError, match="too small"):
        cli.RunConfig(command="spectrum", modes=[0], epsilons=[0.0], k_max=1)
    with pytest.raises(ValueError, match="'k_max' must be an integer"):
        cli.RunConfig(command="spectrum", modes=[0], epsilons=[0.0],
                      k_max="ten")


def test_usage_errors_exit_1(capsys):
    code, _, err = run_cli(capsys)
    assert code == 1
    code, _, err = run_cli(capsys, "spectrum", "--kmax", "not-an-int")
    assert code == 1
    assert "error:" in err
    code, _, err = run_cli(capsys, "spectrum", "--jobs", "2")
    assert code == 1


@pytest.mark.parametrize("argv,message", [
    (("--m", "x"), "--m must be a comma list of integers, got 'x'"),
    (("--eps", "0.1:y:0.1"), "--eps/--epsilon must be a number, a comma "
     "list or an a:b:step range, got '0.1:y:0.1'"),
    (("--eps", "0.1,y"), "--eps/--epsilon must be a number, a comma list "
     "or an a:b:step range, got '0.1,y'"),
    (("--epsilon", "zz"), "--eps/--epsilon must be a number, a comma list "
     "or an a:b:step range, got 'zz'"),
    (("--eps", ","), "config key 'epsilons' must not be empty"),
    (("--eps", "0.1:0.2"), "--eps/--epsilon must have the form a:b:step, "
     "got '0.1:0.2'"),
    (("--eps", "0.2:0.1:0.1"), "--eps/--epsilon gives an empty range "
     "'0.2:0.1:0.1'"),
], ids=["m", "eps-range", "eps-list", "epsilon", "eps-empty",
        "eps-range-parts", "eps-range-empty"])
def test_conversion_errors_name_the_source(tmp_path, capsys, argv, message):
    code, _, err = run_cli(capsys, "spectrum", *argv, "--out", str(tmp_path))
    assert code == 1
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("command, argv", [
    ("spectrum", ["--km", "8"]),
    ("spectrum", ["--form", "json"]),
    ("track", ["--assert"]),
    ("spectrum", ["--ep", "0.1"]),
], ids=["km", "form", "assert", "ep"])
def test_flag_prefixes_are_usage_errors(tmp_path, capsys, command, argv):
    # argparse's prefix matching is off: a flag is only its row's spellings
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, command, "--out", str(out), *argv)
    assert code == 1
    assert f"error: unrecognized arguments: {' '.join(argv)}" in err
    assert not out.exists()


def test_failed_run_leaves_no_config_echo(tmp_path, capsys):
    config_path = tmp_path / "bad.json"
    config_path.write_text(json.dumps({"modes": [7], "k_max": 4}))
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, "spectrum", "--config", str(config_path),
                           "--out", str(out))
    assert code == 1
    assert "too small" in err
    assert not (out / "config.json").exists()


@pytest.mark.parametrize("argv,value", [
    (["spectrum", "--m", "30"], "m = 30"),
    (["spectrum", "--m", "0,30"], "m = 30"),
    (["track", "--m", "3"], "|m| = 3"),
    (["track", "--m", "1,3"], "|m| = 3"),
    (["track", "--eps", "0.5"], "eps = 0.5"),
    (["verify", "--kmax", "4"], "k_max = 4"),
    (["track", "--kmax", "1"], "k_max = 1 is too small"),
    # the tail monitor rejects eps = 0.9 once eps = 0.1 is solved
    (["spectrum", "--eps", "0.1,0.9"], "eps = 0.9"),
    # rows 1-4 pass at k_max 5 and the projector rows' assembly raises;
    # the passed rows are not printed either
    (["verify", "--kmax", "5"], "k_max = 5 under-resolves the eps = 0.05"),
    # the commands are spectrum, track and verify; any other is a usage error
    (["export", "--m", "1", "--epsilon", "0.1"], "invalid choice: 'export'"),
], ids=["spectrum-m", "spectrum-late-m", "track-m", "track-late-m",
        "track-eps", "verify-kmax", "track-kmax", "spectrum-late-eps",
        "verify-late-kmax", "export-retired"])
def test_run_stopped_before_its_first_report_leaves_no_directory(
        tmp_path, capsys, argv, value):
    out = tmp_path / "out"
    code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
    assert (code, stdout) == (1, "")
    errors = [line for line in err.splitlines() if line.startswith("error: ")]
    assert len(errors) == 1 and value in errors[0], err
    assert not out.exists()


def test_track_stopped_on_a_later_mode_leaves_no_directory(
        tmp_path, capsys, monkeypatch):
    # the first mode's reports wait until every mode has been swept
    track = cli.track

    def second_sweep_fails(m, *args, **kwargs):
        if m == 2:
            raise RuntimeError("a branch moved too far")
        return track(m, *args, **kwargs)

    monkeypatch.setattr(cli, "track", second_sweep_fails)
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, "track", "--m", "1,2", "--kmax", "12",
                           "--out", str(out))
    assert code == 2
    assert err == "invariant failure: a branch moved too far\n"
    assert not out.exists()


def test_precedence_flag_over_file_over_default(tmp_path, capsys):
    config_path = tmp_path / "base.json"
    config_path.write_text(json.dumps({"k_max": 10}))

    def echoed_kmax(out, *argv):
        code, _, _ = run_cli(capsys, "spectrum", "--m", "0",
                             "--epsilon", "0.0", "--out", str(out), *argv)
        assert code == 0
        return read_json(out / "config.json")["k_max"]

    assert echoed_kmax(tmp_path / "a", "--config", str(config_path),
                       "--kmax", "14") == 14
    assert echoed_kmax(tmp_path / "b", "--config", str(config_path)) == 10
    assert echoed_kmax(tmp_path / "c") == cli.DEFAULT_K_MAX
    # --eps and --epsilon are one flag, which takes the last value given
    out = tmp_path / "d"
    code, _, _ = run_cli(capsys, "spectrum", "--eps", "0.1", "--epsilon",
                         "0.0", "--kmax", "8", "--out", str(out))
    assert code == 0
    assert read_json(out / "config.json")["epsilons"] == [0.0]


HUGE_INT = 10 ** 400  # a JSON integer beyond the float range


def test_unknown_config_file_key_exits_1(tmp_path, capsys, monkeypatch):
    """Malformed config files exit 1 with an error naming the culprit."""
    monkeypatch.chdir(tmp_path)  # no --out flag, so "out" comes from the file
    config_path = tmp_path / "bad.json"
    table = [
        ({"k_maximum": 10}, "unknown config keys: ['k_maximum']"),
        ({"jobs": 10}, "unknown config keys: ['jobs']"),
        ([1, 2], "must hold a JSON object, not list"),
        ("ten", "must hold a JSON object, not str"),
        ({"k_max": "ten"}, "'k_max' must be an integer"),
        ({"k_max": 12.0}, "'k_max' must be an integer"),
        ({"quad": 80}, "unknown config keys: ['quad']"),
        ({"modes": 1}, "'modes' must be a list of integers"),
        ({"modes": ["1"]}, "'modes' must be a list of integers"),
        ({"epsilons": [0.1, "x"]}, "'epsilons' must be a list of numbers"),
        ({"out": 3}, "'out' must be a string"),
        # reports are JSON only, so there is no output format to choose
        ({"formats": ["json"]}, "unknown config keys: ['formats']"),
        ({"assert_paper": "yes"}, "'assert_paper' must be true or false"),
        ({"modes": []}, "config key 'modes' must not be empty"),
        ({"epsilons": []}, "config key 'epsilons' must not be empty"),
        # only track's and verify's default may be given as null
        ({"k_max": None}, "'k_max' must be an integer, got None"),
        # the rule that reads the operator file's sidecar: a bool is no
        # number, NaN no integer, and an integer beyond the float range no
        # finite epsilon
        ({"epsilons": [True]}, "'epsilons' must be a list of numbers, all "
                               "finite, got [True]"),
        ({"epsilons": [HUGE_INT]}, "'epsilons' must be a list of numbers, "
                                   f"all finite, got [{HUGE_INT}]"),
        ({"k_max": True}, "'k_max' must be an integer, got True"),
        ({"k_max": float("nan")}, "'k_max' must be an integer, got nan"),
    ]
    for content, message in table:
        config_path.write_text(json.dumps(content))
        code, _, err = run_cli(capsys, "spectrum", "--config",
                               str(config_path))
        assert code == 1, content
        assert err.startswith("error: ") and message in err, (content, err)


@pytest.mark.parametrize("source", ["config-file", "kmax-flag"])
def test_k_max_above_the_ceiling_exits_1_before_any_solve(
        tmp_path, capsys, monkeypatch, source):
    # k_max is an integer of any size to the type check; the ceiling then
    # rejects a 401-digit one and one past it, before any assembly
    def spy(*args):
        raise AssertionError("a k_max above the ceiling reached assemble_L")

    monkeypatch.setattr(cli, "assemble_L", spy)
    if source == "config-file":
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({"k_max": HUGE_INT}))
        argv = ["--config", str(config_path)]
    else:
        argv = ["--kmax", str(cli.MAX_K_MAX + 1)]
    out = tmp_path / "out"
    code, stdout, err = run_cli(capsys, "spectrum", *argv, "--out", str(out))
    assert (code, stdout) == (1, "")
    assert err.startswith("error: k_max must be at most 1000, got "), err
    assert not out.exists()
    assert cli.RunConfig("spectrum", k_max=cli.MAX_K_MAX).k_max == 1000


# None: a switch, or a value the test fills in
FLAG_VALUES = {"--m": "1", "--eps": "0.02:0.1:0.02", "--epsilon": "0.05",
               "--kmax": "12", "--quad": "80", "--out": None, "--format": "csv",
               "--assert-paper": None, "--config": None}
READS = {
    "spectrum": "--m --eps --epsilon --kmax --out --config",
    "track": "--m --eps --epsilon --kmax --out --assert-paper --config",
    "verify": "--kmax --out --config",
}


@pytest.mark.parametrize("command,flag", [
    (command, flag) for command in READS for flag in FLAG_VALUES])
def test_commands_accept_only_the_flags_they_read(tmp_path, capsys,
                                                  monkeypatch, command, flag):
    def parse_only(config):
        return 0, []

    monkeypatch.setattr(cli, f"cmd_{command}", parse_only)
    config_path = tmp_path / "base.json"
    config_path.write_text("{}")
    value = {**FLAG_VALUES, "--config": str(config_path)}[flag]
    argv = [command, "--out", str(tmp_path / "out")]
    if flag != "--out":
        argv += [flag] if value is None else [flag, value]
    code, _, err = run_cli(capsys, *argv)
    if flag in READS[command].split():
        assert code == 0, err
        assert (tmp_path / "out" / "config.json").exists()
    else:
        assert code == 1
        assert f"error: unrecognized arguments: {flag}" in err
        assert not (tmp_path / "out").exists()


def test_settings_come_from_flags_and_the_config_file_only(
        tmp_path, capsys, monkeypatch):
    # variables named like the settings, even malformed ones and a config
    # pointer to a missing file, are not read
    monkeypatch.setenv("LANDAUSPEC_KMAX", "ten")
    monkeypatch.setenv("LANDAUSPEC_M", "x")
    monkeypatch.setenv("LANDAUSPEC_CONFIG", str(tmp_path / "missing.json"))
    out = tmp_path / "out"
    code, stdout, err = run_cli(capsys, "verify", "--kmax", "16",
                                "--out", str(out))
    assert code == 0, err
    assert "12/12 checks passed" in stdout
    assert read_json(out / "config.json") == {
        "command": "verify", "k_max": 16, "out": str(out)}


def test_format_float_is_17_digits():
    assert cli.format_float(0.1) == "0.10000000000000001"
    assert cli.format_float(1.0) == "1"
    with pytest.raises(ValueError, match="non-finite"):
        cli.format_float(float("nan"))


# ---- spectrum ----------------------------------------------------------------


def test_spectrum_unperturbed_reports_integer_defect(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "spectrum", "--m", "1", "--epsilon", "0.0",
                         "--kmax", "12", "--out", str(tmp_path))
    assert code == 0
    doc = read_json(tmp_path / "spectrum_m1_eps0.json")
    assert doc["mode"] == 1
    assert doc["integer_defect"] <= 1e-8
    assert len(doc["cluster"]) == 2
    assert len(doc["eigenvalues"]) == StateIndexMap(1, 12).dim
    echoed = read_json(tmp_path / "config.json")
    assert echoed["command"] == "spectrum"
    assert echoed["k_max"] == 12


def test_spectrum_cluster_drifts_quadratically(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "spectrum", "--m", "2", "--epsilon", "0.06",
                         "--kmax", "16", "--out", str(tmp_path))
    assert code == 0
    doc = read_json(tmp_path / "spectrum_m2_eps0.06.json")
    assert doc["integer_defect"] is None
    (pair,) = doc["cluster"]
    drift = complex(pair[0], pair[1]) - 1.0
    assert abs(drift - 4.0 / 15.0 * 0.06 ** 2) <= 0.1 * abs(drift)


@pytest.mark.parametrize("diagonal, group", [
    ([1.0, 1.0, 1.3], [1.0, 1.0, 1.3]), ([1.0, 1.6], [1.0]),
    ([1.0, 1.3], [1.0, 1.3])], ids=["extra", "missing", "far-member"])
def test_spectrum_checks_the_size_of_its_group(tmp_path, capsys, monkeypatch,
                                               diagonal, group):
    # the group is what track's circle |lambda - 1| < 0.5 holds; 1.3 lies
    # inside it and 1.6 outside, so m = 1 has three members, one, or the
    # two it should, and the reported cluster is that same group
    entries = np.diag(diagonal + [10.0] * (48 - len(diagonal)))
    monkeypatch.setattr(cli, "assemble_L", lambda m, k_max, eps:
                        OperatorMatrix(m, k_max, eps, entries))
    code, _, err = run_cli(capsys, "spectrum", "--m", "1", "--epsilon",
                           "0.05", "--kmax", "8", "--out", str(tmp_path))
    if len(group) == 2:
        assert (code, err) == (0, "")
    else:
        assert code == 2
        assert err == (f"invariant failure: {len(group)} eigenvalues in "
                       f"|lambda - 1| < 0.5 at m = 1, eps = 0.05, "
                       f"expected 2\n")
    # the report is written either way, so a failure can be inspected
    doc = read_json(tmp_path / "spectrum_m1_eps0.05.json")
    assert doc["cluster"] == [[v, 0.0] for v in group]


def test_spectrum_reports_a_group_member_far_from_1(tmp_path, capsys):
    # at eps = 0.8 the m = 2 member has drifted to 1.43: inside track's
    # circle, so it is the group spectrum checks and reports
    code, _, err = run_cli(capsys, "spectrum", "--m", "2", "--epsilon",
                           "0.8", "--kmax", "60", "--out", str(tmp_path))
    assert (code, err) == (0, "")
    (pair,) = read_json(tmp_path / "spectrum_m2_eps0.8.json")["cluster"]
    assert 0.25 < abs(complex(*pair) - 1.0) < 0.5
    assert pair == pytest.approx([1.428253352004673, 0.0], abs=1e-9)


def test_spectrum_mode_without_a_group_expects_none(tmp_path, capsys):
    # |m| = 3 has no degree <= 2, so no eigenvalue sits near 1
    code, _, err = run_cli(capsys, "spectrum", "--m", "3", "--epsilon",
                           "0.05", "--kmax", "16", "--out", str(tmp_path))
    assert (code, err) == (0, "")
    assert read_json(tmp_path / "spectrum_m3_eps0.05.json")["cluster"] == []


def test_spectrum_rejects_out_of_range_epsilon(tmp_path, capsys):
    code, _, err = run_cli(capsys, "spectrum", "--epsilon", "1.5",
                           "--out", str(tmp_path))
    assert code == 1
    assert "error:" in err


def test_spectrum_quadrature_override_matches_default(tmp_path, capsys):
    # spectrum's quadrature follows from k_max; K's pipeline on every unit
    # column with the background on a 96-node rule must give the same
    # eigenvalues
    m, k_max, eps = 1, 10, 0.05
    code, _, _ = run_cli(capsys, "spectrum", "--m", str(m),
                         "--epsilon", str(eps), "--kmax", str(k_max),
                         "--out", str(tmp_path))
    assert code == 0
    base = read_json(tmp_path / "spectrum_m1_eps0.05.json")
    a = np.array([complex(re, im) for re, im in base["eigenvalues"]])
    table = legendre_values(k_max, m, QuadratureGrid.build(96))
    imap = StateIndexMap(m, k_max)
    fine = assemble_L0(m, k_max).entries + _k_columns(
        np.eye(imap.dim), background_on_grid(eps, table.grid), table, imap)
    b = np.linalg.eigvals(fine)
    # the complex sort can swap near-degenerate pairs, so match as sets
    assert np.abs(a[:, None] - b[None, :]).min(axis=1).max() <= 1e-10


def test_reports_are_deterministic(tmp_path, capsys):
    # --epsilon is another name of --eps, so the third run is the same
    # configuration
    for sub, flag in (("one", "--epsilon"), ("two", "--epsilon"),
                      ("three", "--eps")):
        code, _, _ = run_cli(capsys, "spectrum", "--m", "1", flag, "0.05",
                             "--kmax", "10", "--out", str(tmp_path / sub))
        assert code == 0
    name = "spectrum_m1_eps0.05.json"
    first = (tmp_path / "one" / name).read_bytes()
    for sub in ("two", "three"):
        assert (tmp_path / sub / name).read_bytes() == first
    # emitted JSON is plain JSON despite the custom float tokens
    json.loads(first)


def test_spectrum_job_errors_stop_the_run_in_job_order(tmp_path, capsys,
                                                       monkeypatch):
    # job 1 misses its group size, job 2 raises and job 3 comes after
    # them: the run reports job 1's failure, then job 2's error, writes
    # nothing and never assembles job 3
    started = []

    def planted(m, k_max, eps):
        started.append(eps)
        if eps == 0.06:
            raise ValueError("planted error in job 2")
        return OperatorMatrix(m, k_max, eps, np.diag([1.0, 1.6] + [10.0] * 46))

    monkeypatch.setattr(cli, "assemble_L", planted)
    out = tmp_path / "out"
    code, stdout, err = run_cli(capsys, "spectrum", "--m", "1", "--eps",
                                "0.05,0.06,0.07", "--kmax", "8",
                                "--out", str(out))
    assert code == 1
    assert stdout == ""
    assert err == ("invariant failure: 1 eigenvalues in |lambda - 1| < 0.5 "
                   "at m = 1, eps = 0.05, expected 2\n"
                   "error: planted error in job 2\n")
    assert not out.exists()
    assert started == [0.05, 0.06]


def test_out_path_collision_exits_1(tmp_path, capsys):
    blocker = tmp_path / "occupied"
    blocker.write_text("not a directory")
    code, _, err = run_cli(capsys, "spectrum", "--out", str(blocker))
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize("out,named", [
    ("", "config key 'out' must not be empty"),
    ("occupied", "occupied"),
    ("occupied/sub", "occupied"),
], ids=["empty", "file", "below-a-file"])
def test_unusable_out_exits_1_before_any_check(tmp_path, capsys,
                                                monkeypatch, out, named):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "occupied").write_text("not a directory")
    code, stdout, err = run_cli(capsys, "verify", "--out", out)
    assert code == 1
    assert stdout == ""
    assert err.startswith("error: ") and named in err, err
    assert os.listdir(tmp_path) == ["occupied"]
    assert (tmp_path / "occupied").read_text() == "not a directory"


@pytest.mark.parametrize("command,values", [
    ("spectrum", {"modes": [0, 1], "epsilons": [0.0, 0.05], "k_max": 12}),
    ("track", {"modes": [1], "k_max": 12}),
    ("verify", {"k_max": 16}),
], ids=["spectrum", "track", "verify"])
def test_handlers_compute_and_main_writes(tmp_path, capsys, monkeypatch,
                                          command, values):
    # a handler returns its exit code and its reports and touches no file;
    # cli.main is the one place that writes them
    monkeypatch.chdir(tmp_path)
    config = cli.RunConfig(command, out=str(tmp_path / "out"), **values)
    code, reports = getattr(cli, f"cmd_{command}")(config)
    capsys.readouterr()
    assert code == 0
    assert reports
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("command,argv,message", [
    ("spectrum", ("--m", "1", "--eps", "0.1,0.1000001", "--kmax", "12"),
     "(m, eps) = (1, 0.1) and (1, 0.1000001) share the report tag "
     "'m1_eps0.1'"),
], ids=["spectrum"])
def test_colliding_report_tags_exit_1(tmp_path, capsys, monkeypatch,
                                      command, argv, message):
    # two (m, eps) pairs whose files share a name would overwrite each
    # other's reports; the run stops before it assembles or writes anything
    def no_assembly(*args):
        raise AssertionError("assembled before the tag check")

    monkeypatch.setattr(cli, "assemble_L", no_assembly)
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, command, *argv, "--out", str(out))
    assert code == 1
    assert err == f"error: {message}\n"
    assert not out.exists()


# ---- track -------------------------------------------------------------------


def test_track_assert_paper_m1(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "track", "--m", "1", "--kmax", "16",
                         "--assert-paper", "--out", str(tmp_path))
    assert code == 0
    doc = read_json(tmp_path / "track_m1.json")
    assert abs(doc["fit"]["c"] - 1.0 / 15.0) <= 0.05 / 15.0
    assert doc["fit"]["c_target"] == pytest.approx(1.0 / 15.0)
    assert doc["ranks"] == [2] * 5
    assert len(doc["eigenvalues"]) == 5
    assert all(len(row) == 2 for row in doc["eigenvalues"])
    assert (tmp_path / "plot_curves_m1.py").exists()


def test_default_track_takes_k_max_from_eps_and_echoes_null(tmp_path,
                                                            capsys):
    out = tmp_path / "a"
    code, _, _ = run_cli(capsys, "track", "--m", "1,-2", "--out", str(out))
    assert code == 0
    for m in (1, -2):
        doc = read_json(out / f"track_m{m}.json")
        assert doc["k_max"] == [default_k_max(e, m) for e in DEFAULT_EPS_GRID]
    echoed = read_json(out / "config.json")
    assert "k_max" in echoed and echoed["k_max"] is None
    # the echo runs again as a config file, with the same reports
    again = tmp_path / "b"
    code, _, _ = run_cli(capsys, "track", "--config", str(out / "config.json"),
                         "--out", str(again))
    assert code == 0
    for name in os.listdir(out):
        if name != "config.json":
            assert (out / name).read_bytes() == (again / name).read_bytes()


@pytest.mark.parametrize("given", ["flag", "config"])
def test_track_at_an_explicit_k_max_is_the_library_sweep(tmp_path, capsys,
                                                         given):
    # --kmax 24 and a config k_max of 24 both sweep every point at 24,
    # exactly as track(m, grid, k_max=24) does
    argv = ["track", "--m", "2", "--out", str(tmp_path)]
    if given == "flag":
        argv += ["--kmax", "24"]
    else:
        (tmp_path / "run.json").write_text(json.dumps({"k_max": 24}))
        argv += ["--config", str(tmp_path / "run.json")]
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    doc = read_json(tmp_path / "track_m2.json")
    curve = track(2, DEFAULT_EPS_GRID, k_max=24)
    fit = fit_quadratic(curve)
    assert doc["eigenvalues"] == [[[v.real, v.imag] for v in row]
                                  for row in curve.eigenvalues]
    assert doc["fit"]["c"] == fit.c
    assert doc["fit"]["c_branches"] == list(fit.c_branches)
    assert doc["residuals"] == list(fit.residuals)
    assert doc["ranks"] == [curve.n_branches] * len(DEFAULT_EPS_GRID) \
        == [1] * 5
    assert doc["k_max"] == [24] * 5
    assert read_json(tmp_path / "config.json")["k_max"] == 24


def test_track_m0_group_stays_pinned(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "track", "--m", "0", "--kmax", "12",
                         "--eps", "0.02:0.1:0.02", "--out", str(tmp_path))
    assert code == 0
    doc = read_json(tmp_path / "track_m0.json")
    lam = np.array([[complex(re, im) for re, im in row]
                    for row in doc["eigenvalues"]])
    assert np.abs(lam - 1.0).max() <= 1e-9


def test_track_assert_miss_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(cli.C_TARGETS, 1, 0.5)
    code, _, err = run_cli(capsys, "track", "--m", "1", "--kmax", "12",
                           "--assert-paper", "--out", str(tmp_path))
    assert code == 2
    assert "assertion failed" in err
    # the report and the config echo are still written so the miss can be
    # inspected
    assert (tmp_path / "track_m1.json").exists()
    assert read_json(tmp_path / "config.json")["assert_paper"] is True


def test_repeated_track_mode_exits_1(tmp_path, capsys, monkeypatch):
    # track names its files by m alone, so a repeated mode would rerun the
    # sweep and overwrite its own reports; the run stops before any of it
    def no_track(*args, **kwargs):
        raise AssertionError("tracked before the mode check")

    monkeypatch.setattr(cli, "track", no_track)
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, "track", "--m", "1,1", "--kmax", "16",
                           "--out", str(out))
    assert code == 1
    assert err == "error: mode m = 1 is repeated in modes [1, 1]\n"
    assert not (out / "config.json").exists()
    assert not out.exists()


@pytest.mark.parametrize("grid, message", [
    ("0.15,0.2,0.25", "need at least 4 samples in [0.02, 0.1], have 0"),
    ("0.02,0.04,0.06", "need at least 4 samples in [0.02, 0.1], have 3"),
], ids=["outside-window", "three-in-window"])
def test_track_grid_the_fit_rejects_exits_1_before_any_solve(
        tmp_path, capsys, monkeypatch, grid, message):
    # a grid that fit_quadratic rejects fails before the sweep, not after
    # every point has been solved
    def no_assembly(*args, **kwargs):
        raise AssertionError("assembled before the grid check")

    monkeypatch.setattr(eigentracker, "assemble_L", no_assembly)
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, "track", "--m", "1", "--eps", grid,
                           "--out", str(out))
    assert code == 1
    assert err == f"error: {message}\n"
    assert not out.exists()


def test_plot_script_is_standalone_python(tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    code = cli.main(["track", "--m", "2", "--kmax", "12",
                     "--eps", "0.02:0.08:0.02", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    # matplotlib is no dependency of the package: a stub pyplot records
    # each plotted series and the saved path
    drawn, saved = {"re": [], "im": []}, []

    class Axes:
        def __init__(self, part):
            self.part = part

        def plot(self, x, y, **kwargs):
            drawn[self.part].append((list(x), list(y)))

        def __getattr__(self, name):  # labels and legend
            return lambda *args, **kwargs: None

    class Figure:
        def tight_layout(self):
            pass

        def savefig(self, path, **kwargs):
            saved.append(path)

    pyplot = types.ModuleType("matplotlib.pyplot")
    pyplot.subplots = lambda *args, **kwargs: (Figure(),
                                               (Axes("re"), Axes("im")))
    matplotlib = types.ModuleType("matplotlib")
    matplotlib.pyplot = pyplot
    monkeypatch.setitem(sys.modules, "matplotlib", matplotlib)
    monkeypatch.setitem(sys.modules, "matplotlib.pyplot", pyplot)
    # run from elsewhere with no argument: the script reads the report
    # next to itself
    monkeypatch.setattr(sys, "argv", ["plot_curves_m2.py"])
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(out / "plot_curves_m2.py"), run_name="__main__")
    doc = read_json(out / "track_m2.json")
    branches = list(zip(*doc["eigenvalues"]))
    assert len(branches) == 1
    assert drawn == {
        part: [(doc["epsilons"], [v[i] for v in branch])
               for branch in branches]
        for i, part in enumerate(("re", "im"))}
    png = str(out / "track_m2.png")
    assert saved == [png]
    assert capsys.readouterr().out == f"wrote {png}\n"


@pytest.mark.parametrize("argv, written", [
    (["track", "--m", "1,2"],
     ["config.json", "plot_curves_m1.py", "plot_curves_m2.py",
      "track_m1.json", "track_m2.json"]),
    (["spectrum", "--m", "1,2", "--eps", "0,0.05", "--kmax", "12"],
     ["config.json", "spectrum_m1_eps0.05.json", "spectrum_m1_eps0.json",
      "spectrum_m2_eps0.05.json", "spectrum_m2_eps0.json"]),
    (["verify", "--kmax", "16"], ["config.json", "verify.json"]),
], ids=["track", "spectrum", "verify"])
def test_each_command_writes_its_reports_and_nothing_else(tmp_path, capsys,
                                                          argv, written):
    # one JSON report per (m, eps), or per mode with its plot script, then
    # config.json; no second encoding of a report and no temp file left
    code, _, err = run_cli(capsys, *argv, "--out", str(tmp_path))
    assert (code, err) == (0, "")
    assert sorted(os.listdir(tmp_path)) == written


# ---- verify ------------------------------------------------------------------


def test_verify_battery_passes(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "verify", "--kmax", "16",
                           "--out", str(tmp_path))
    assert code == 0
    assert "mcal_det[all k]: PASS" in out
    assert "swirl_ode[eps=0.5]: PASS" in out
    assert "P1_rank[eps=0.05]: PASS (8)" in out
    assert "P0_rank[eps=0.05]: PASS (3)" in out
    assert "12/12 checks passed" in out
    doc = read_json(tmp_path / "verify.json")
    assert len(doc["checks"]) == 12
    assert all(row["passed"] for row in doc["checks"])


def test_default_verify_takes_k_max_from_eps(tmp_path, capsys,
                                             monkeypatch):
    # the zero-mode and fit rows assemble at the rule, never at the
    # truncation spectrum defaults to
    assembled = []
    assemble = assemble_L

    def spy(m, k_max, epsilon):
        assembled.append(k_max)
        return assemble(m, k_max, epsilon)

    for module in (cli, cli.eigentracker):
        monkeypatch.setattr(module, "assemble_L", spy)
    code, out, _ = run_cli(capsys, "verify", "--out", str(tmp_path / "a"))
    assert code == 0
    assert "12/12 checks passed" in out
    assert "fit_c[m=1]: PASS (c[m=1] = 0.06626)" in out
    assert "fit_c[m=2]: PASS (c[m=2] = 0.26538)" in out
    assert cli.DEFAULT_K_MAX not in assembled
    rule = {default_k_max(e, m) for m in (1, 2) for e in DEFAULT_EPS_GRID}
    assert rule <= set(assembled)
    doc = read_json(tmp_path / "a" / "verify.json")
    assert len(doc["checks"]) == 12
    assert all(row["passed"] for row in doc["checks"])
    echoed = read_json(tmp_path / "a" / "config.json")
    assert "k_max" in echoed and echoed["k_max"] is None
    code, _, _ = run_cli(capsys, "verify", "--out", str(tmp_path / "b"))
    assert code == 0
    assert ((tmp_path / "a" / "verify.json").read_bytes()
            == (tmp_path / "b" / "verify.json").read_bytes())


def test_verify_reports_failures_with_exit_2(tmp_path, capsys, monkeypatch):
    def broken(epsilon, samples):
        return 1.0

    monkeypatch.setattr(cli, "swirl_ode_residual", broken)
    code, out, _ = run_cli(capsys, "verify", "--kmax", "16",
                           "--out", str(tmp_path))
    assert code == 2
    assert "swirl_ode[eps=0.5]: FAIL" in out
    assert "11/12 checks passed" in out


def _verify_row(name):
    """(passed, detail) of one row of the battery run at its defaults."""
    for row, passed, detail in cli._verify_checks(cli.RunConfig("verify")):
        if row == name:
            return passed, detail
    raise KeyError(name)


def test_verify_l0_row_fails_on_a_coupling_between_frames(monkeypatch):
    # a coupling from one degree's frame into another's leaves L0
    # block-triangular, so every eigenvalue stays an integer: only the
    # structural check sees it
    assemble = assemble_L0

    def coupled(m, k_max):
        l0 = assemble(m, k_max)
        imap = l0.index_map
        l0.entries[imap.index("phi", 3), imap.index("radial", 4)] = 1e-3
        return l0

    monkeypatch.setattr(cli, "assemble_L0", coupled)
    passed, detail = _verify_row("l0_integrality[m=0..2,k=20]")
    assert not passed
    assert detail.endswith("unit multiplicities 2/2/1")


def test_verify_sign_row_fails_on_one_asymmetric_entry(monkeypatch):
    # one entry of L(-0.1) moved off S L(0.1) S by 1e-6 max|L| is the
    # row's defect, to rounding
    assemble = assemble_L
    planted = {}

    def asymmetric(m, k_max, epsilon):
        lmat = assemble(m, k_max, epsilon)
        if epsilon < 0.0 and m == 1:
            entries = lmat.entries
            planted["size"] = 1e-6 * max(entries.max(), -entries.min())
            entries[2, 5] += planted["size"]
        return lmat

    monkeypatch.setattr(cli, "assemble_L", asymmetric)
    passed, detail = _verify_row("sign_symmetry[eps=0.1]")
    assert not passed
    assert detail == "1.0e-06"
