import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

import hjhomog
from hjhomog import __version__, homog
from hjhomog.cli import (ConfigError, DEFAULTS, FREE_KEYS, _read_config, apply_override,
                         config_hash, main, validate_config)
from hjhomog.game import certify_constants


def load_config(path, overrides):
    return validate_config(_read_config(path, overrides)).cfg


def test_defaults_load_and_validate():
    run = validate_config(_read_config(None, []))
    assert run.cfg == DEFAULTS
    assert run.spec.dimension == 1


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
    o1 = tmp_path / "1"
    assert main(common + ["--out", str(o1), "--workers", "1"]) == 0
    for workers in ("2", "3"):
        o2 = tmp_path / workers
        assert main(common + ["--out", str(o2), "--workers", workers]) == 0
        assert (o1 / "utable.json").read_bytes() == (o2 / "utable.json").read_bytes()
        assert (o1 / "utable.csv").read_bytes() == (o2 / "utable.csv").read_bytes()


#: sha256 of the default-config artifacts.  A change that moves one of these
#: on purpose re-records it and says why in CHANGES.md.
PINNED_ARTIFACTS = {
    ("estimate", "utable.json"): "c48b45be5aec786ff5f140f62b80244a814bde907197391c99328a95ff1254a2",
    ("estimate", "utable.csv"): "01fa0bef8713caefd3a7a0ba50b574c16af7e41d0fe4315288ac1fb2773d557a",
    ("effective", "effective.json"): "0a5c94aa2fa5a1dfd105525425e8b441cee5e5e73992404f0c958360969f6312",
    ("rate", "rate.summary.json"): "87c5b895a86cfc3fb2c528302cc82f96317d9a928215cf66fa166252dc104831",
    ("rate", "rate.csv"): "5bf96965b9769c552865d7499166ebf16b0620560cb3ec5ab7150d6abae4fa0f",
    ("verify", "verify.report.json"):
        "6864f362615b5bb40202d855515ab70f1725cbf40594e494dab3e0a8ac25643c",
    ("sample-env", "env.csv"): "204b712bbfa5912543b7937997d9820d47916dc4132b1e4a525ecf952b1ffeb2",
    ("sample-env-2d", "env.csv"):
        "6be915c7d0010e9e3f9958f42b32a82156ed89e6356a1f6b1998c9d9bf1ebf82",
}
#: the run of each pinned artifact: estimate and effective at M=8, rate,
#: verify and sample-env at the defaults, and a small 2-D saddle sample-env
#: with a channel per action pair
PINNED_RUNS = {
    "estimate": ["estimate", "--set", "campaign.M=8"],
    "effective": ["effective", "--set", "campaign.M=8"],
    "rate": ["rate"],
    "verify": ["verify"],
    "sample-env": ["sample-env"],
    "sample-env-2d": ["sample-env", "--set", "environment.dimension=2",
                      "--set", "environment.box_lo=[-2.0, -2.0]",
                      "--set", "environment.box_hi=[2.0, 2.0]",
                      "--set", "hamiltonian.family=saddle-game",
                      "--set", 'hamiltonian.params={"base_speed": 1.0, "coupling": 0.25}',
                      "--set", "environment.channels=4",
                      "--set", "solver.box_lo=[-1.0, -1.0]", "--set", "solver.box_hi=[10.0, 10.0]",
                      "--set", "campaign.thetas=[[0.0, 0.0]]"],
}


def test_artifact_bytes_are_pinned(tmp_path):
    assert sorted(PINNED_RUNS) == sorted({run for run, _ in PINNED_ARTIFACTS})
    for run, argv in PINNED_RUNS.items():
        assert main(argv + ["--out", str(tmp_path / run)]) == 0
    got = {(run, name): hashlib.sha256((tmp_path / run / name).read_bytes()).hexdigest()
           for run, name in PINNED_ARTIFACTS}
    assert got == PINNED_ARTIFACTS


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
    own = certify_constants(validate_config(_read_config(None, localized[1::2])).game).beta
    assert effective["beta"] == utable["utable"]["beta"] == own == 6.0


def test_verify_default_config(tmp_path):
    out = tmp_path / "o"
    assert main(["verify", "--out", str(out)]) == 0
    rep = json.loads((out / "verify.report.json").read_text())
    assert all(c["passed"] for c in rep["checks"].values())


def test_verify_records_at_the_step_nearest_each_quarter(tmp_path):
    # T/4 = 2.125 is off the dt = 0.25 grid; verify used to record there and
    # exit 1 after its structural and strip checks
    out = tmp_path / "o"
    assert main(["verify", "--set", "solver.T=8.5", "--out", str(out)]) == 0
    rep = json.loads((out / "verify.report.json").read_text())
    assert all(c["passed"] for c in rep["checks"].values())


def test_verify_strip_check_outside_the_field_box_is_a_domain_refusal(tmp_path, capsys):
    # the strip's shifted field is read 3 rho below the solver box, past the
    # environment box; verify used to report that as a failed check and exit 2
    out = tmp_path / "o"
    assert main(["verify", "--set", "environment.dimension=2",
                 "--set", "environment.box_lo=[-2,-2]", "--set", "environment.box_hi=[12,12]",
                 "--set", "solver.box_lo=[-1,-1]", "--set", "solver.box_hi=[10,10]",
                 "--set", "campaign.thetas=[[0,0]]", "--set", "solver.T=2",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("domain error:") and "outside environment box" in err
    assert not out.exists()


def test_verify_on_an_unoriented_game_fails_only_its_orientation_checks(tmp_path):
    out = tmp_path / "o"
    assert main(["verify", "--set", "hamiltonian.params.speed=0.0", "--out", str(out)]) == 2
    checks = json.loads((out / "verify.report.json").read_text())["checks"]
    assert not checks["orientation"]["passed"]
    assert not checks["strip_bound"]["passed"]
    assert "dynamics not oriented" in checks["strip_bound"]["detail"]["error"]
    assert all(c["passed"] for name, c in checks.items()
               if name not in ("orientation", "strip_bound"))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_an_overflowing_theta_fails_the_a_priori_bound_check(tmp_path, capsys):
    # the solve overflows at theta = 1e308, so the bound and the samples are
    # not finite: a failed check, not a table of inf and nan
    out = tmp_path / "o"
    assert main(["estimate", "--set", "campaign.thetas=[[1e308]]", "--set", "campaign.M=2",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("assertion failure: a-priori bound") and "t=4.0" in err
    assert not out.exists()


def test_rate_time_grid_is_refused_before_the_campaign(tmp_path, capsys):
    # T/eps = 1.2 is off the rate_dt = 0.0625 grid; the refusal used to come
    # after the whole H-bar campaign, naming no field
    out = tmp_path / "o"
    with mock.patch.object(homog, "estimate_U") as campaign:
        assert main(["rate", "--set", "campaign.rate_T=0.3", "--out", str(out)]) == 1
    campaign.assert_not_called()
    err = capsys.readouterr().err
    assert err.startswith("config error: campaign.rate_T: the rate solve at eps=0.25:")
    assert "dt=0.0625" in err
    assert not out.exists()


@pytest.mark.parametrize("override, path", [("campaign.rate_R=-1.0", "campaign.rate_R"),
                                            ("campaign.rate_dx=-0.0625", "campaign.rate_dx"),
                                            ("campaign.rate_dt=0.0", "campaign.rate_dt")])
def test_rate_grid_fields_are_refused_under_their_own_path(tmp_path, capsys, override, path):
    # a negative R used to fail only after the H-bar campaign, as a degenerate
    # grid naming no field; a bad dx or dt was labelled campaign.rate_T
    out = tmp_path / "o"
    with mock.patch.object(homog, "estimate_U") as campaign:
        assert main(["rate", "--set", override, "--out", str(out)]) == 1
    campaign.assert_not_called()
    assert capsys.readouterr().err.startswith(f"config error: {path}: ")
    assert not out.exists()


def test_rate_bootstraps_a_negative_base_seed(tmp_path):
    # numpy's generator refuses a negative seed, which used to escape the
    # bootstrap as a ValueError labelled a config error with no field
    out = tmp_path / "o"
    assert main(["rate", "--set", "campaign.base_seed=-1", "--out", str(out)]) == 0
    report = json.loads((out / "rate.summary.json").read_text())["report"]
    assert report["slope_se"] > 0


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


@pytest.mark.parametrize("args, env, source", [
    (["--workers", "0"], None, "--workers"),
    (["--workers", "-3"], None, "--workers"),
    ([], "two", "$HJHOMOG_WORKERS"),
    ([], "0", "$HJHOMOG_WORKERS"),
    (["--set", "campaign.workers=-2"], None, "campaign.workers"),
    (["--workers", "two"], None, "--workers"),
    (["--workers", "1.5"], None, "--workers"),
])
def test_bad_worker_counts_are_named_config_errors(tmp_path, capsys, monkeypatch,
                                                   args, env, source):
    # a count below one must not run serially without a word, and a
    # non-integer one must not end in a traceback
    monkeypatch.delenv("HJHOMOG_WORKERS", raising=False)
    if env is not None:
        monkeypatch.setenv("HJHOMOG_WORKERS", env)
    out = tmp_path / "o"
    assert main(["estimate", "--out", str(out)] + args) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {source}: worker count must be an integer >= 1")
    assert not out.exists()


@pytest.mark.parametrize("command, family, channels, allowed", [
    ("sample-env", "transport", 3, "n_a*n_b = 1"),
    ("verify", "transport", 3, "n_a*n_b = 1"),
    ("sample-env", "saddle-game", 2, "n_a*n_b = 4"),
    ("verify", "saddle-game", 3, "n_a*n_b = 4"),
])
def test_channel_counts_the_game_cannot_read_are_config_errors(tmp_path, capsys, command,
                                                               family, channels, allowed):
    # sample-env used to label channels with action pairs the game does not
    # have, and verify failed only at solve time, after writing its echo
    out = tmp_path / "o"
    assert main([command, "--set", f"hamiltonian.family={family}",
                 "--set", f"environment.channels={channels}", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: environment.channels:")
    assert f"reads 1 channel shared by its action pairs or {allowed}" in err
    assert f"got {channels}" in err
    assert not out.exists()


def modules_after_cli_import() -> list[str]:
    """The modules a fresh interpreter holds after ``import hjhomog.cli``."""
    src = str(Path(hjhomog.__file__).resolve().parents[1])
    code = "import sys, hjhomog.cli; print(' '.join(sys.modules))"
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src}).stdout.split()


def test_cli_import_loads_no_test_or_scipy_module():
    # the runtime depends on numpy alone
    mods = modules_after_cli_import()
    assert "numpy" in mods
    assert not [m for m in mods if m.split(".")[0] in ("scipy", "hypothesis", "pytest")]


def test_cli_import_leaves_the_pool_stack_unloaded():
    # only a pooled campaign pays for multiprocessing and its imports
    mods = modules_after_cli_import()
    assert "hjhomog.homog" in mods
    assert not [m for m in mods if m.split(".")[0] == "multiprocessing"
                or m == "concurrent.futures.process"]


def test_misspelt_hamiltonian_override_is_refused(tmp_path, capsys):
    # only hamiltonian.params may gain a key; a misspelt family used to run
    # transport and echo the stray key into the hashed config
    out = tmp_path / "o"
    assert main(["verify", "--set", "hamiltonian.famly=saddle-game", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("config error: invalid override path")
    assert not out.exists()
    cfg = load_config(None, ["hamiltonian.family=saddle-game", "hamiltonian.params.coupling=0.5"])
    assert cfg["hamiltonian"]["params"] == {"speed": 1.0, "coupling": 0.5}
    # at speeds up to 1.5 the default box holds T = 4
    assert main(["verify", "--set", "hamiltonian.family=saddle-game",
                 "--set", "hamiltonian.params.coupling=0.5", "--set", "solver.T=4.0",
                 "--out", str(tmp_path / "p")]) == 0


@pytest.mark.parametrize("overrides, message", [
    (['hamiltonian.params={"sped": 2.0}'], "unknown key 'sped' for transport (accepts: speed)"),
    (["hamiltonian.family=localized"],
     "missing key 'beta' for localized (requires: beta, v, pi)"),
    # the default params ride along with another family only at their
    # default values: a speed the saddle game would ignore is refused
    (["hamiltonian.family=saddle-game", "hamiltonian.params.speed=2.0"],
     "unknown key 'speed' for saddle-game (accepts: base_speed, coupling)"),
    (["hamiltonian.family=localized", 'hamiltonian.params={"beta": 0.5, "v": [0.75], '
      '"pi": [[0.0]], "n_a": 4, "n_b": 4, "slope": [1.0, 2.0]}'],
     "slope: must have shape [1] in dimension 1, got [1.0, 2.0]"),
], ids=["misspelt", "missing", "foreign", "misshapen"])
def test_family_params_are_read_by_key(tmp_path, capsys, overrides, message):
    # a misspelt key used to be ignored (transport ran at speed 1.0), a
    # missing one was named only as "'beta'", and a slope of the wrong
    # length escaped from the cost's matmul as a numpy traceback
    out = tmp_path / "o"
    args = ["verify"] + [a for o in overrides for a in ("--set", o)] + ["--out", str(out)]
    assert main(args) == 1
    assert capsys.readouterr().err == f"config error: hamiltonian.params: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["verify", "estimate"])
def test_empty_action_set_is_a_named_config_error(tmp_path, capsys, command):
    # a game with no actions used to end in a numpy reduction message after
    # the config echo was written
    out = tmp_path / "o"
    assert main([command, "--set", "hamiltonian.family=two-speed-control",
                 "--set", 'hamiltonian.params={"speeds": []}', "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: hamiltonian.params:") and "action pair" in err
    assert not out.exists()


def _leaves(node: dict, path: str = ""):
    """(dotted path, default) of every config leaf; FREE_KEYS is one leaf."""
    for key, default in node.items():
        here = f"{path}.{key}" if path else key
        if isinstance(default, dict) and here != FREE_KEYS:
            yield from _leaves(default, here)
        else:
            yield here, default


LEAVES = dict(_leaves(DEFAULTS))


@pytest.mark.parametrize("path", LEAVES)
def test_every_field_refuses_another_json_type(tmp_path, capsys, path):
    # a string where DEFAULTS holds a number, a list or an object, and a number
    # where it holds a string; a field added to DEFAULTS is covered here too
    wrong = 5 if isinstance(LEAVES[path], str) else "abc"
    out = tmp_path / "o"
    assert main(["estimate", "--set", f"{path}={json.dumps(wrong)}", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"config error: {path}: must be ")
    assert not out.exists()


def _float_depth(default):
    """How deep in lists a float or float-list leaf holds its numbers (an
    empty list holds floats); None for any other leaf."""
    depth = 0
    while isinstance(default, list):
        default, depth = default[0] if default else 0.0, depth + 1
    return depth if isinstance(default, float) else None


FLOAT_DEPTHS = {path: depth for path, default in LEAVES.items()
                if (depth := _float_depth(default)) is not None}


@pytest.mark.parametrize("word", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("path", FLOAT_DEPTHS)
def test_every_float_field_refuses_a_non_finite_number(tmp_path, capsys, path, word):
    # json reads NaN and Infinity: they used to end in a traceback, a refusal
    # that named another fault, or an exit 0 that echoed invalid JSON
    depth = FLOAT_DEPTHS[path]
    out = tmp_path / "o"
    override = f"{path}={'[' * depth}{word}{']' * depth}"
    assert main(["estimate", "--set", override, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (f"config error: {path}{'[0]' * depth}: must be a finite "
                                       f"number, got {float(word)!r}\n")
    assert not out.exists()


LOCALIZED_1D = ('hamiltonian.params={"beta": 1.5, "v": [0.75], "pi": [[0.0]], "n_a": 3, '
                '"n_b": 3, "R": %s}')


@pytest.mark.parametrize("command, overrides, named", [
    ("estimate", ["hamiltonian.family=saddle-game", "hamiltonian.params.coupling=NaN"],
     "coupling: must be a finite number, got nan"),
    ("estimate", ["hamiltonian.family=two-speed-control", "hamiltonian.params.speeds=[0.5,NaN]"],
     "speeds[1]: must be a finite number, got nan"),
    ("solve", ["hamiltonian.params.speed=Infinity"], "speed: must be a finite number, got inf"),
    ("estimate", ["hamiltonian.family=localized", LOCALIZED_1D % "-Infinity"],
     "R: must be a finite number, got -inf"),
])
def test_hamiltonian_params_refuse_a_non_finite_number(tmp_path, capsys, command, overrides,
                                                       named):
    # these used to run into an orientation or domain error that named no key,
    # or into a broadcast error after three RuntimeWarnings
    out = tmp_path / "o"
    args = [command, "--out", str(out)]
    for item in overrides:
        args += ["--set", item]
    assert main(args) == 1
    assert capsys.readouterr().err == f"config error: hamiltonian.params: {named}\n"
    assert not out.exists()


@pytest.mark.parametrize("value", ["2.5", "true", '"16"', "07"])
def test_int_fields_take_only_integral_numbers(tmp_path, capsys, value):
    # these used to run on int(value): M = 2, 1, 16 and 7.  An integral
    # float such as 16.0 is still an integer, kept as written in the config
    out = tmp_path / "o"
    assert main(["estimate", "--set", f"campaign.M={value}", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("config error: campaign.M: must be an integer")
    assert not out.exists()
    assert load_config(None, ["campaign.M=16.0"])["campaign"]["M"] == 16.0


@pytest.mark.parametrize("command, override, field", [
    ("solve", "solver.T=8.1", "solver"),
    ("solve", "solver.record_times=[3.1]", "solver"),
    ("estimate", "campaign.times=[4.1, 8.0, 12.0]", "campaign.times"),
])
def test_time_grid_refusals_come_before_anything_is_written(tmp_path, capsys, command,
                                                             override, field):
    out = tmp_path / "o"
    assert main([command, "--set", override, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {field}:") and "dt=0.25" in err
    assert not out.exists()


def test_rate_refuses_a_field_box_that_misses_its_widest_solve(tmp_path, capsys):
    # at eps = 1/32 the rate solve runs to T/eps = 32 and reads B(R/eps = 16);
    # the refusal comes before the H-bar campaign, which it would waste
    out = tmp_path / "o"
    with mock.patch.object(homog, "estimate_U") as campaign:
        assert main(["rate", "--set", "campaign.eps_list=[0.25, 0.03125]",
                     "--out", str(out)]) == 1
    campaign.assert_not_called()
    err = capsys.readouterr().err
    assert err.startswith("domain error: environment box")
    assert "does not cover the required solve box [(-16.25,), (48.25,)]" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["effective", "rate"])
@pytest.mark.parametrize("times, message", [
    ("[4.0, 8.0]", "need at least 3 schedule points to fit a rate"),
    ("[3.0, 5.0, 7.0]", "schedule has no pairwise-summable times"),
])
def test_an_unfittable_schedule_is_refused_before_any_campaign(tmp_path, capsys, command,
                                                               times, message):
    # each refusal used to come only after a whole campaign
    out = tmp_path / "o"
    with mock.patch.object(homog, "estimate_U", side_effect=AssertionError("a campaign ran")):
        assert main([command, "--set", f"campaign.times={times}", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"config error: campaign.times: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_a_solver_box_of_one_node_is_refused_under_solver(tmp_path, capsys, command):
    # it used to reach the solve as a grid error naming no field
    out = tmp_path / "o"
    assert main([command, "--set", "solver.box_lo=[0.0]", "--set", "solver.box_hi=[0.1]",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == "config error: solver: degenerate grid: shape (1,)\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "sample-env"])
@pytest.mark.parametrize("seed", [2**63, -2**63 - 1, 2**64])
def test_an_environment_seed_beyond_int64_is_refused_by_name(tmp_path, capsys, command, seed):
    # it used to end in an OverflowError traceback from rng.mix
    out = tmp_path / "o"
    assert main([command, "--set", f"environment.seed={seed}", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (f"config error: environment.seed: must lie in "
                                       f"[-2^63, 2^63), got {seed}\n")
    assert not out.exists()
    for edge in (-2**63, 2**63 - 1):
        assert load_config(None, [f"environment.seed={edge}"])["environment"]["seed"] == edge


@pytest.mark.parametrize("seed", [-2**63 - 1, 2**63, 2**64])
def test_a_base_seed_beyond_int64_is_refused_by_name(tmp_path, capsys, seed):
    # it used to end in an OverflowError traceback from rng.mix, after the
    # config was echoed
    out = tmp_path / "o"
    with mock.patch.object(homog, "estimate_U", side_effect=AssertionError("a campaign ran")):
        assert main(["estimate", "--set", f"campaign.base_seed={seed}", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (f"config error: campaign.base_seed: must lie in "
                                       f"[-2^63, 2^63), got {seed}\n")
    assert not out.exists()
    for edge in (-2**63, 2**63 - 1):
        assert load_config(None, [f"campaign.base_seed={edge}"])["campaign"]["base_seed"] == edge


def test_an_error_inside_a_command_escapes_main(tmp_path):
    # a ValueError from library code is a bug, not the user's config error
    with mock.patch.object(homog, "estimate_U", side_effect=ValueError("a library bug")):
        with pytest.raises(ValueError, match="a library bug"):
            main(["estimate", "--out", str(tmp_path / "o")])
