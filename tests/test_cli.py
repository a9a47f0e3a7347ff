import csv
import json

import pytest

from hjhomog import __version__
from hjhomog.cli import (ConfigError, DEFAULTS, apply_override, config_hash,
                         env_spec_from, hamiltonian_from, load_config, main)
from hjhomog.game import certify_constants


def test_defaults_load_and_validate():
    cfg = load_config(None, [])
    assert cfg == DEFAULTS
    assert env_spec_from(cfg).dimension == 1


def test_overrides_parse_json_and_strings():
    cfg = load_config(None, ["campaign.M=4", "solver.scheme=lax-friedrichs",
                             "campaign.times=[2, 4, 8]"])
    assert cfg["campaign"]["M"] == 4
    assert cfg["solver"]["scheme"] == "lax-friedrichs"
    assert cfg["campaign"]["times"] == [2, 4, 8]


def test_override_rejects_bad_paths():
    cfg = load_config(None, [])
    with pytest.raises(ConfigError, match="override path"):
        apply_override(cfg, "campaign.nope=3")
    with pytest.raises(ConfigError, match="key=value"):
        apply_override(cfg, "campaign.M")


def test_config_file_merge_and_unknown_field(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"campaign": {"M": 3}}))
    cfg = load_config(str(p), [])
    assert cfg["campaign"]["M"] == 3
    assert cfg["solver"]["dt"] == DEFAULTS["solver"]["dt"]
    p.write_text(json.dumps({"campaignn": {"M": 3}}))
    with pytest.raises(ConfigError, match="unknown config field"):
        load_config(str(p), [])
    with pytest.raises(ConfigError, match="not found"):
        load_config(str(tmp_path / "missing.json"), [])


def test_validation_errors_carry_field_paths():
    with pytest.raises(ConfigError, match="environment"):
        load_config(None, ["environment.rho=-1"])
    with pytest.raises(ConfigError, match="campaign.M"):
        load_config(None, ["campaign.M=0"])
    with pytest.raises(ConfigError, match="eps_list"):
        load_config(None, ["campaign.eps_list=[0.75]"])
    with pytest.raises(ConfigError, match="campaign.thetas"):
        load_config(None, ["campaign.thetas=[]"])


def test_config_hash_is_stable_and_sensitive():
    a = load_config(None, [])
    b = load_config(None, [])
    c = load_config(None, ["campaign.M=17"])
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash(c)


def test_main_exit_codes(tmp_path):
    assert main(["sample-env", "--out", str(tmp_path / "o"),
                 "--set", "environment.box_hi=[8.0]"]) == 0
    assert main(["sample-env", "--set", "environment.rho=-2"]) == 1


def test_sample_env_artifacts(tmp_path):
    out = tmp_path / "o"
    assert main(["sample-env", "--out", str(out),
                 "--set", "environment.box_hi=[8.0]"]) == 0
    echo = json.loads((out / "config.echo.json").read_text())
    assert echo["version"] == __version__
    assert echo["config"]["solver"]["dt"] == DEFAULTS["solver"]["dt"]
    head = (out / "env.csv").read_text().splitlines()
    assert head[0].startswith("# config_hash=")
    assert head[1].split(",")[:1] == ["x0"]
    summary = json.loads((out / "env.summary.json").read_text())
    assert summary["config_hash"] == echo["config_hash"]
    assert summary["mean_value"] > 0


def test_solve_artifact(tmp_path):
    out = tmp_path / "o"
    assert main(["solve", "--out", str(out), "--set", "solver.T=2.0",
                 "--set", "solver.box_hi=[4.0]"]) == 0
    with open(out / "solution.csv") as fh:
        fh.readline()
        rows = list(csv.DictReader(fh))
    assert {r["t"] for r in rows} == {"2.0"}
    assert all(float(r["u"]) >= -1e-12 for r in rows)


def test_estimate_deterministic_across_workers(tmp_path):
    common = ["estimate", "--set", "campaign.M=6",
              "--set", "campaign.times=[2.0, 4.0]",
              "--set", "environment.box_hi=[8.0]", "--set", "solver.T=4.0"]
    o1, o2 = tmp_path / "a", tmp_path / "b"
    assert main(common + ["--out", str(o1), "--workers", "1"]) == 0
    assert main(common + ["--out", str(o2), "--workers", "3"]) == 0
    assert (o1 / "utable.json").read_bytes() == (o2 / "utable.json").read_bytes()
    assert (o1 / "utable.csv").read_bytes() == (o2 / "utable.csv").read_bytes()


def test_effective_small_run(tmp_path):
    out = tmp_path / "o"
    code = main(["effective", "--out", str(out),
                 "--set", "campaign.M=8",
                 "--set", "campaign.times=[2.0, 4.0, 8.0]",
                 "--set", "environment.box_hi=[12.0]",
                 "--set", "campaign.thetas=[[0.0], [0.5]]"])
    assert code == 0
    payload = json.loads((out / "effective.json").read_text())
    assert len(payload["estimates"]) == 2
    assert payload["properties"]["growth_ok"]


def test_localized_game_keeps_its_own_certificates(tmp_path):
    # the localized family certifies its own cost (beta, R, g0); binding the
    # field's constants over them gave effective.json a beta of 6.158 against
    # the 6.0 that utable.json reports for the same config
    localized = ["--set", "hamiltonian.family=localized",
                 "--set", 'hamiltonian.params={"beta": 2.0, "v": [0.75], "pi": [[0.0]], '
                          '"n_a": 8, "n_b": 8, "g0": "norm"}',
                 "--set", "environment.box_lo=[-40.0]", "--set", "campaign.M=8"]
    assert main(["effective", "--out", str(tmp_path / "e")] + localized) == 0
    assert main(["estimate", "--out", str(tmp_path / "u")] + localized) == 0
    effective = json.loads((tmp_path / "e" / "effective.json").read_text())
    utable = json.loads((tmp_path / "u" / "utable.json").read_text())
    own = certify_constants(hamiltonian_from(load_config(None, localized[1::2]))).beta
    assert effective["beta"] == utable["utable"]["beta"] == own == 6.0


def test_verify_default_config(tmp_path):
    out = tmp_path / "o"
    assert main(["verify", "--out", str(out)]) == 0
    rep = json.loads((out / "verify.report.json").read_text())
    assert all(c["passed"] for c in rep["checks"].values())


def test_rate_small_run(tmp_path):
    out = tmp_path / "o"
    code = main(["rate", "--out", str(out),
                 "--set", "campaign.M=4",
                 "--set", "campaign.times=[2.0, 4.0, 8.0]",
                 "--set", "campaign.eps_list=[0.25, 0.125]",
                 "--set", "campaign.rate_dx=0.25",
                 "--set", "campaign.rate_dt=0.25",
                 "--set", "environment.box_lo=[-16.0]",
                 "--set", "environment.box_hi=[24.0]"])
    assert code == 0
    with open(out / "rate.csv") as fh:
        fh.readline()
        rows = list(csv.DictReader(fh))
    assert [r["eps"] for r in rows] == ["0.125", "0.25"]
    summary = json.loads((out / "rate.summary.json").read_text())
    assert "H_bar_used" in summary


@pytest.mark.parametrize("eps_list", ["[]", "[0.25]", "[0.25, 0.25]"])
def test_rate_refuses_fewer_than_two_epsilons(tmp_path, capsys, eps_list):
    # one distinct epsilon leaves no line to fit: the slope would be NaN
    out = tmp_path / "o"
    assert main(["rate", "--out", str(out), "--set", f"campaign.eps_list={eps_list}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: campaign.eps_list:") and "two distinct" in err
    assert not out.exists()


def test_library_refusals_keep_their_label(tmp_path, capsys):
    # the saddle game sheds ceil(1.25) = 2 cells per SL step, so its solve box
    # to T = 32 reaches x = 65, past the default field's box_hi = 48
    saddle = ["estimate", "--set", "hamiltonian.family=saddle-game"]
    assert main(saddle + ["--out", str(tmp_path / "a")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("domain error:") and "does not cover" in err
    assert main(saddle + ["--set", "environment.box_hi=[66.0]",
                          "--out", str(tmp_path / "b")]) == 0
    assert main(["estimate", "--set", 'hamiltonian.params={"speed": 0.0}',
                 "--out", str(tmp_path / "c")]) == 1
    assert capsys.readouterr().err.startswith("orientation error:")


def test_lax_friedrichs_solve_needs_the_documented_box(tmp_path, capsys):
    # LF takes 3 substeps per step at dt = dx, so its window sheds 3 cells a
    # side per step; the default solver box [-1, 10] only suits SL at T = 8
    lf = ["solve", "--set", "solver.scheme=lax-friedrichs"]
    assert main(lf + ["--out", str(tmp_path / "a")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("domain error:") and "active box exhausted" in err
    assert main(lf + ["--set", "solver.box_lo=[-8.0]", "--set", "solver.box_hi=[41.0]",
                      "--out", str(tmp_path / "b")]) == 0


def test_empty_localized_action_grid_is_a_named_config_error(tmp_path, capsys):
    # a 2-point axis keeps none of the 2-D grid's corners inside the unit ball
    params = ('hamiltonian.params={"beta": 1.0, "v": [0.75, 0.0], '
              '"pi": [[0.0, 0.0], [0.0, 1.0]], "n_a": 2, "n_b": 4, "g0": "norm"}')
    assert main(["verify", "--set", "hamiltonian.family=localized", "--set", params,
                 "--set", "environment.dimension=2",
                 "--set", "environment.box_lo=[-8.0, -8.0]",
                 "--set", "environment.box_hi=[48.0, 8.0]",
                 "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "n_a=2" in err


def test_theta_and_box_dimensions_are_named_config_errors(tmp_path, capsys):
    # a 2-D localized game under the default 1-D thetas and solver box
    game = ["verify", "--set", "environment.dimension=2",
            "--set", "environment.box_lo=[-8.0,-8.0]", "--set", "environment.box_hi=[48.0,8.0]",
            "--set", "hamiltonian.family=localized",
            "--set", 'hamiltonian.params={"beta":1.0,"v":[0.75,0.0],'
                     '"pi":[[0.0,0.0],[0.0,1.0]],"n_a":4,"n_b":4,"g0":"norm"}',
            "--out", str(tmp_path / "o")]
    for extra, field in (([], "campaign.thetas"),
                         (["--set", "campaign.thetas=[[0.0,0.0]]"], "solver.box_lo"),
                         (["--set", "campaign.thetas=[[0.0,0.0]]",
                           "--set", "solver.box_lo=[-1.0,-1.0]"], "solver.box_hi")):
        assert main(game + extra) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {field}:") and "environment.dimension" in err
        assert not (tmp_path / "o").exists()       # refused before anything runs
