"""End-to-end tests of the command-line tool.

Commands run in-process through ``cli.main`` so exit codes and stderr
text can be asserted without spawning subprocesses.
"""

import json
import os

import numpy as np
import pytest

from landauspec import cli
from landauspec.operators import assemble_L, load_operator
from landauspec.statespace import load_state_json, x_norm


@pytest.fixture(autouse=True)
def _clean_environment(monkeypatch):
    """Ambient LANDAUSPEC_* variables must not leak into the tests."""
    for name in list(os.environ):
        if name.startswith(cli.ENV_PREFIX):
            monkeypatch.delenv(name)


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


def test_parse_eps_range_rejects_malformed():
    with pytest.raises(ValueError, match="a:b:step"):
        cli.parse_eps_range("0.1:0.2")
    with pytest.raises(ValueError, match="empty range"):
        cli.parse_eps_range("0.2:0.1:0.02")
    with pytest.raises(ValueError, match="empty range"):
        cli.parse_eps_range("0.1:0.2:0")


def test_runconfig_round_trip():
    config = cli.RunConfig(command="track", modes=[1, 2],
                           epsilons=[0.02, 0.04], k_max=16, out="somewhere")
    again = cli.RunConfig.from_dict(config.to_dict())
    assert again == config


def test_runconfig_rejects_bad_fields():
    with pytest.raises(ValueError, match="unknown config keys"):
        cli.RunConfig.from_dict({"command": "spectrum", "modes": [0],
                                 "epsilons": [0.0], "k_maximum": 10})
    with pytest.raises(ValueError, match="too small"):
        cli.RunConfig(command="spectrum", modes=[0], epsilons=[0.0], k_max=1)
    with pytest.raises(ValueError, match="unknown output formats"):
        cli.RunConfig(command="spectrum", modes=[0], epsilons=[0.0],
                      formats=["json", "yaml"])
    with pytest.raises(ValueError, match="'k_max' must be an integer"):
        cli.RunConfig(command="spectrum", modes=[0], epsilons=[0.0],
                      k_max="ten")


def test_eps_and_epsilon_are_mutually_exclusive(tmp_path, capsys):
    code, _, err = run_cli(capsys, "spectrum", "--eps", "0.1",
                           "--epsilon", "0.1", "--out", str(tmp_path))
    assert code == 1
    assert "mutually exclusive" in err


def test_usage_errors_exit_1(capsys):
    code, _, err = run_cli(capsys)
    assert code == 1
    code, _, err = run_cli(capsys, "spectrum", "--kmax", "not-an-int")
    assert code == 1
    assert "error:" in err
    code, _, err = run_cli(capsys, "spectrum", "--jobs", "2")
    assert code == 1


def test_precedence_flag_over_env_over_file(tmp_path, capsys, monkeypatch):
    config_path = tmp_path / "base.json"
    config_path.write_text(json.dumps({"k_max": 10}))

    def echoed_kmax(out, *argv):
        code, _, _ = run_cli(capsys, "spectrum", "--m", "0",
                             "--epsilon", "0.0", "--out", str(out), *argv)
        assert code == 0
        return read_json(out / "config.json")["k_max"]

    monkeypatch.setenv(cli.ENV_PREFIX + "KMAX", "12")
    assert echoed_kmax(tmp_path / "a", "--config", str(config_path),
                       "--kmax", "14") == 14
    assert echoed_kmax(tmp_path / "b", "--config", str(config_path)) == 12
    monkeypatch.delenv(cli.ENV_PREFIX + "KMAX")
    assert echoed_kmax(tmp_path / "c", "--config", str(config_path)) == 10
    # the config file can also arrive through the environment pointer
    monkeypatch.setenv(cli.ENV_PREFIX + "CONFIG", str(config_path))
    assert echoed_kmax(tmp_path / "d") == 10


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
        ({"quad": True}, "'quad' must be an integer or null"),
        ({"modes": 1}, "'modes' must be a list of integers"),
        ({"modes": ["1"]}, "'modes' must be a list of integers"),
        ({"epsilons": [0.1, "x"]}, "'epsilons' must be a list of numbers"),
        ({"out": 3}, "'out' must be a string"),
        ({"formats": "json"}, "'formats' must be a list of strings"),
        ({"assert_paper": "yes"}, "'assert_paper' must be true or false"),
    ]
    for content, message in table:
        config_path.write_text(json.dumps(content))
        code, _, err = run_cli(capsys, "spectrum", "--config",
                               str(config_path))
        assert code == 1, content
        assert err.startswith("error: ") and message in err, (content, err)


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
    csv_lines = (tmp_path / "spectrum_m1_eps0.csv").read_text().splitlines()
    assert csv_lines[0] == "index,re,im"
    assert len(csv_lines) == 1 + len(doc["eigenvalues"])
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


def test_spectrum_rejects_out_of_range_epsilon(tmp_path, capsys):
    code, _, err = run_cli(capsys, "spectrum", "--epsilon", "1.5",
                           "--out", str(tmp_path))
    assert code == 1
    assert "error:" in err


def test_spectrum_quadrature_override_matches_default(tmp_path, capsys):
    for sub, extra in (("default", []), ("fine", ["--quad", "96"])):
        code, _, _ = run_cli(capsys, "spectrum", "--m", "1",
                             "--epsilon", "0.05", "--kmax", "10",
                             "--out", str(tmp_path / sub), *extra)
        assert code == 0
    base = read_json(tmp_path / "default" / "spectrum_m1_eps0.05.json")
    fine = read_json(tmp_path / "fine" / "spectrum_m1_eps0.05.json")
    a = np.array([complex(re, im) for re, im in base["eigenvalues"]])
    b = np.array([complex(re, im) for re, im in fine["eigenvalues"]])
    # the complex sort can swap near-degenerate pairs, so match as sets
    assert np.abs(a[:, None] - b[None, :]).min(axis=1).max() <= 1e-10


def test_reports_are_deterministic(tmp_path, capsys):
    argv = ("spectrum", "--m", "1", "--epsilon", "0.05", "--kmax", "10")
    for sub in ("one", "two"):
        code, _, _ = run_cli(capsys, *argv, "--out", str(tmp_path / sub))
        assert code == 0
    for name in ("spectrum_m1_eps0.05.json", "spectrum_m1_eps0.05.csv"):
        first = (tmp_path / "one" / name).read_bytes()
        second = (tmp_path / "two" / name).read_bytes()
        assert first == second
    # emitted JSON is plain JSON despite the custom float tokens
    json.loads((tmp_path / "one" / "spectrum_m1_eps0.05.json").read_text())


def test_out_path_collision_exits_1(tmp_path, capsys):
    blocker = tmp_path / "occupied"
    blocker.write_text("not a directory")
    code, _, err = run_cli(capsys, "spectrum", "--out", str(blocker))
    assert code == 1
    assert "error:" in err


# ---- track -------------------------------------------------------------------


def test_track_assert_paper_m1(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "track", "--m", "1", "--kmax", "16",
                         "--assert-paper", "--out", str(tmp_path))
    assert code == 0
    doc = read_json(tmp_path / "track_m1.json")
    assert abs(doc["fit"]["c"] - 1.0 / 15.0) <= 0.05 / 15.0
    assert doc["fit"]["c_target"] == pytest.approx(1.0 / 15.0)
    assert doc["ranks"] == [2] * 5
    csv_lines = (tmp_path / "curves_m1.csv").read_text().splitlines()
    assert csv_lines[0] == "epsilon,branch_id,re,im"
    assert len(csv_lines) == 1 + 5 * 2
    assert (tmp_path / "plot_curves_m1.py").exists()


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
    # the report is still written so the miss can be inspected
    assert (tmp_path / "track_m1.json").exists()


def test_plot_script_is_standalone_python(tmp_path, capsys):
    code = cli.main(["track", "--m", "2", "--kmax", "12",
                     "--eps", "0.02:0.08:0.02", "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    source = (tmp_path / "plot_curves_m2.py").read_text()
    compile(source, "plot_curves_m2.py", "exec")
    assert 'curves_m2.csv' in source


# ---- verify ------------------------------------------------------------------


def test_verify_battery_passes(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "verify", "--kmax", "16",
                           "--out", str(tmp_path))
    assert code == 0
    assert "mcal_det[k=0..50]: PASS" in out
    assert "swirl_ode[eps=0.5]: PASS" in out
    assert "P1_rank[eps=0.05]: PASS (8)" in out
    assert "P0_rank[eps=0.05]: PASS (3)" in out
    assert "12/12 checks passed" in out
    doc = read_json(tmp_path / "verify.json")
    assert len(doc["checks"]) == 12
    assert all(row["passed"] for row in doc["checks"])


def test_verify_reports_failures_with_exit_2(tmp_path, capsys, monkeypatch):
    def broken(epsilon, samples):
        return 1.0

    monkeypatch.setattr(cli, "swirl_ode_residual", broken)
    code, out, _ = run_cli(capsys, "verify", "--kmax", "16",
                           "--out", str(tmp_path))
    assert code == 2
    assert "swirl_ode[eps=0.5]: FAIL" in out
    assert "11/12 checks passed" in out


# ---- export ------------------------------------------------------------------


def test_export_round_trips_operator_and_states(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "export", "--m", "1", "--epsilon", "0.1",
                         "--kmax", "12", "--out", str(tmp_path))
    assert code == 0
    loaded = load_operator(tmp_path / "operator_m1_eps0.1.bin",
                           tmp_path / "operator_m1_eps0.1.json")
    direct = assemble_L(1, 12, 0.1)
    assert loaded.m == 1 and loaded.k_max == 12
    assert np.array_equal(loaded.entries, direct.entries)

    background = load_state_json(tmp_path / "background_state.json")
    assert background.m == 0
    translation = load_state_json(tmp_path / "translation_state.json")
    assert translation.m == 1
    flat = translation.to_flat()
    resid = direct.entries @ flat - flat
    assert np.linalg.norm(resid) / np.linalg.norm(flat) <= 1e-4


def test_export_at_zero_skips_state_files(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "export", "--m", "0", "--epsilon", "0.0",
                         "--kmax", "8", "--out", str(tmp_path))
    assert code == 0
    assert (tmp_path / "operator_m0_eps0.bin").exists()
    assert not (tmp_path / "background_state.json").exists()
    assert not (tmp_path / "translation_state.json").exists()
