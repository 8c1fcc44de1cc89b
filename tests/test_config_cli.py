"""YAML config parsing, override semantics, and end-to-end CLI runs on
temporary output directories."""

import csv
import hashlib
import json
from pathlib import Path

import pytest
import yaml

from adpricing import cli
from adpricing.config import ConfigError, load_config, parse_config

ROOT = Path(__file__).resolve().parents[1]
DEFAULT_YAML = ROOT / "configs" / "default.yaml"


def _base_dict():
    with open(DEFAULT_YAML) as fh:
        return yaml.safe_load(fh)


def _small_dict(study="simulate", **study_params):
    """Default config shrunk so CLI round trips stay in the millisecond range."""
    raw = _base_dict()
    raw["study"] = study
    raw["replications"] = 4000
    raw["study_params"] = {
        "simulate": {"rounds": 40, "mode": "analytic"},
        "dominance": {"replications": 3000, "grid_points": 21,
                      "grid_max_multiplier": 2.0, "fixtures": [0.5, 1.0]},
        "lemmas": {"replications": 20000},
        "collapse": {"rounds": 14, "decay": 0.5, "replications": 4000,
                     "threshold": 1.0e-3},
        "sweep": {"r_min": 0.0, "r_max": 2.0, "r_points": 9},
        "cpsc": {"replications": 20000, "enumeration_replications": 20000},
    }
    if study_params:
        raw["study_params"][study].update(study_params)
    return raw


def _write(tmp_path, raw, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(raw))
    return str(path)


def test_load_default_config():
    cfg = load_config(str(DEFAULT_YAML))
    assert cfg.study == "reproduce-all"
    assert cfg.seed == 42
    assert cfg.replications == 1_000_000
    assert cfg.threads == 1
    assert cfg.game.n == 2
    assert cfg.game.model.name == "OCPC"
    assert cfg.models == ("CPC", "OCPC")
    assert cfg.cart_game is not None and cfg.cart_game.chain.has_cart
    assert cfg.study_replications("dominance", 100_000) == 100_000
    assert cfg.params("sweep")["r_points"] == 41


def test_overrides_apply_and_force_replications():
    cfg = load_config(
        str(DEFAULT_YAML),
        {"study": "lemmas", "seed": 7, "out": "elsewhere", "replications": 5000,
         "threads": 3},
    )
    assert cfg.study == "lemmas"
    assert cfg.seed == 7
    assert cfg.out == "elsewhere"
    assert cfg.threads == 3
    assert cfg.replications_forced
    # forced count wins over every per-study default
    assert cfg.study_replications("dominance", 100_000) == 5000
    assert cfg.study_replications("collapse", 10_000) == 5000


def test_config_hash_ignores_out_and_threads(tmp_path):
    a = load_config(str(DEFAULT_YAML))
    b = load_config(str(DEFAULT_YAML), {"out": str(tmp_path), "threads": 8})
    c = load_config(str(DEFAULT_YAML), {"seed": 43})
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != c.config_hash()


@pytest.mark.parametrize(
    "mutate, field",
    [
        (lambda d: d.pop("seed"), "seed"),
        (lambda d: d.__setitem__("study", "bogus"), "study"),
        (lambda d: d["game"].__setitem__("model", "XPC"), "game"),
        (lambda d: d["game"].__setitem__("scenario", "offsite"), "game"),
        (lambda d: d["game"]["advertisers"][0]["rates"].pop("click"), "game"),
        (lambda d: d["game"].__setitem__("advertisers", d["game"]["advertisers"][:1]),
         "game"),
        (lambda d: d["game"]["advertisers"][0].__setitem__("m", -5.0), "game"),
        (lambda d: d["game"]["advertisers"][0]["rates"].__setitem__(
            "click", {"kind": "gaussian"}), "game"),
        (lambda d: d.__setitem__("replications", "many"), "replications"),
        pytest.param(lambda d: d.__setitem__("seed", -1), "seed", id="negative-seed"),
        pytest.param(
            lambda d: d["game"]["advertisers"][0]["rates"].__setitem__(
                "click", {"kind": "discrete", "atoms": 5}),
            "game.advertisers[0].rates.click", id="atoms-not-a-list",
        ),
        pytest.param(
            lambda d: d["game"]["advertisers"][0]["rates"].__setitem__(
                "click", {"kind": "uniform", "lo": [0.1], "hi": 0.4}),
            "game.advertisers[0].rates.click", id="bound-is-a-list",
        ),
    ],
)
def test_config_errors_name_the_field(mutate, field):
    raw = _base_dict()
    mutate(raw)
    with pytest.raises(ConfigError) as exc:
        parse_config(raw)
    msg = str(exc.value)
    assert msg.startswith("config field")
    assert field in msg


def test_posted_strategies_parse_and_validate():
    raw = _base_dict()
    raw["game"]["strategies"] = [{"bid": 120.0}, {"bid": 80.0, "alpha": 1.0}]
    cfg = parse_config(raw)
    assert [s.bid for s in cfg.strategies] == [120.0, 80.0]
    assert all(s.alpha == 1.0 for s in cfg.strategies)

    raw["game"]["strategies"] = [{"bid": 120.0}]
    with pytest.raises(ConfigError) as exc:
        parse_config(raw)
    assert "game.strategies" in str(exc.value)

    raw["game"]["strategies"] = [{"bid": 120.0}, {"bid": -1.0}]
    with pytest.raises(ConfigError) as exc:
        parse_config(raw)
    assert "game.strategies[1]" in str(exc.value)


def test_manifest_config_round_trips(tmp_path):
    out = tmp_path / "results"
    out.mkdir()
    cfg_path = _write(tmp_path, _small_dict("simulate"))
    assert cli.main(["--config", cfg_path, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    original = load_config(cfg_path)
    rebuilt = parse_config(manifest["config"])
    assert rebuilt.config_hash() == original.config_hash() == manifest["config_sha256"]
    assert rebuilt.game == original.game
    assert rebuilt.cart_game == original.cart_game


def test_missing_and_malformed_files(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "absent.yaml"))
    bad = tmp_path / "bad.yaml"
    bad.write_text("study: [unclosed\n")
    with pytest.raises(ConfigError) as exc:
        load_config(str(bad))
    assert "line" in str(exc.value)


def test_cli_simulate_end_to_end(tmp_path):
    out = tmp_path / "results"
    out.mkdir()
    cfg = _write(tmp_path, _small_dict("simulate"))
    assert cli.main(["--config", cfg, "--out", str(out)]) == 0

    trace = (out / "simulate" / "trace.csv").read_text().splitlines()
    header = trace[0].split(",")
    conservation = header.index("conservation")
    assert len(trace) == 41
    assert all(row.split(",")[conservation] == "0.0" for row in trace[1:])

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["passed"] is True
    assert manifest["study"] == "simulate"
    assert set(manifest["files"]) == {"simulate/trace.csv", "simulate/totals.csv"}
    for rel, digest in manifest["files"].items():
        assert hashlib.sha256((out / rel).read_bytes()).hexdigest() == digest


def test_cli_reruns_are_byte_identical(tmp_path):
    cfg = _write(tmp_path, _small_dict("lemmas"))
    blobs = []
    for name in ("a", "b"):
        out = tmp_path / name
        out.mkdir()
        assert cli.main(["--config", cfg, "--out", str(out)]) == 0
        blobs.append({
            p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*.csv"))
        })
    assert blobs[0] == blobs[1]


def test_cli_seed_changes_numbers_not_verdicts(tmp_path):
    cfg = _write(tmp_path, _small_dict("cpsc"))
    manifests = []
    for seed in (42, 43):
        out = tmp_path / f"s{seed}"
        out.mkdir()
        assert cli.main(["--config", cfg, "--out", str(out), "--seed", str(seed)]) == 0
        manifests.append(json.loads((out / "manifest.json").read_text()))
    a, b = manifests
    assert a["verdicts"] == b["verdicts"]
    assert all(a["verdicts"].values())
    assert a["files"] != b["files"]


def test_cli_replications_override_reaches_studies(tmp_path):
    out = tmp_path / "results"
    out.mkdir()
    cfg = _write(tmp_path, _small_dict("collapse"))
    assert cli.main(
        ["--config", cfg, "--out", str(out), "--replications", "2000"]
    ) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["replications"] == 2000


def test_cli_failed_verdict_exits_one(tmp_path):
    out = tmp_path / "results"
    out.mkdir()
    # grid confined to the CPC region: the three-region verdict must fail
    cfg = _write(tmp_path, _small_dict("sweep", r_min=0.0, r_max=0.5, r_points=5))
    assert cli.main(["--config", cfg, "--out", str(out)]) == 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["passed"] is False
    assert manifest["verdicts"]["sweep.three_regions"] is False


def test_cli_config_errors_exit_two(tmp_path, capsys):
    out = tmp_path / "results"
    out.mkdir()
    cfg = _write(tmp_path, _small_dict())
    assert cli.main(["--config", cfg, "--out", str(out / "missing")]) == 2
    assert "out" in capsys.readouterr().err

    raw = _small_dict()
    raw["game"]["advertisers"][0]["m"] = -5.0
    bad = _write(tmp_path, raw, "bad.yaml")
    assert cli.main(["--config", bad, "--out", str(out)]) == 2
    assert "m must be > 0" in capsys.readouterr().err

    assert cli.main(["--config", str(tmp_path / "nope.yaml"), "--out", str(out)]) == 2

    assert cli.main(["--config", cfg, "--out", str(out), "--seed", "-1"]) == 2
    assert "seed" in capsys.readouterr().err


def test_cli_sweep_without_outside_option_exits_two(tmp_path, capsys):
    out = tmp_path / "results"
    out.mkdir()
    raw = _small_dict("reproduce-all")
    for adv in raw["game"]["advertisers"]:
        adv.pop("outside_option", None)
    cfg = _write(tmp_path, raw)
    for study in ("sweep", "reproduce-all"):
        assert cli.main(["--config", cfg, "--out", str(out), "--study", study]) == 2
        assert "game.advertisers" in capsys.readouterr().err
    assert not any(out.iterdir())  # rejected before any study ran


def _third_advertiser(game):
    game["advertisers"].append(dict(game["advertisers"][0], m=90.0))


def test_cli_cpsc_with_three_advertisers_exits_two(tmp_path, capsys):
    out = tmp_path / "results"
    out.mkdir()
    with open(ROOT / "configs" / "cart.yaml") as fh:
        raw = yaml.safe_load(fh)
    _third_advertiser(raw["game"])
    cfg = _write(tmp_path, raw)
    assert cli.main(["--config", cfg, "--out", str(out)]) == 2
    assert "game.advertisers" in capsys.readouterr().err
    assert not any(out.iterdir())


def test_cli_reproduce_all_with_three_advertisers_exits_two(tmp_path, capsys):
    out = tmp_path / "results"
    out.mkdir()
    raw = _small_dict("reproduce-all")
    _third_advertiser(raw["game"])
    cfg = _write(tmp_path, raw)
    assert cli.main(["--config", cfg, "--out", str(out)]) == 2
    assert "game.advertisers" in capsys.readouterr().err
    assert not any(out.iterdir())  # rejected before simulate or dominance ran

    raw = _small_dict("reproduce-all")
    _third_advertiser(raw["cart_game"])
    cfg = _write(tmp_path, raw)
    assert cli.main(["--config", cfg, "--out", str(out)]) == 2
    assert "cart_game.advertisers" in capsys.readouterr().err
    assert not any(out.iterdir())


@pytest.mark.parametrize(
    "study, key, value",
    [
        ("dominance", "grid_points", 0),
        ("dominance", "grid_points", "x"),
        ("dominance", "grid_points", 1_000_000_000),  # above 100_000
        ("dominance", "fixtures", 5),
        ("dominance", "grid_max_multiplier", 1e308),  # x theoretical bid overflows
        ("dominance", "fixtures", [1e308]),  # x mean rival equivalent bid overflows
        ("collapse", "decay", 2),
        ("collapse", "rounds", 1),
        ("sweep", "r_points", 0),
        ("sweep", "r_max", -1.0),  # below r_min = 0
        ("cpsc", "enumeration_replications", 0),
        ("simulate", "rounds", 1_000_000_000_000),  # above 1_000_000
    ],
)
def test_cli_bad_study_params_exit_two(tmp_path, capsys, study, key, value):
    out = tmp_path / "results"
    out.mkdir()
    cfg = _write(tmp_path, _small_dict(study, **{key: value}))
    assert cli.main(["--config", cfg, "--out", str(out)]) == 2
    assert f"study_params.{study}.{key}" in capsys.readouterr().err
    assert not any(out.iterdir())


def test_cli_thread_count_never_changes_csvs(tmp_path):
    raw = _small_dict("sweep")
    raw["study_params"]["cpsc"]["enumeration_replications"] = 40_000
    cfg = _write(tmp_path, raw)
    blobs = {}
    for threads in (1, 2):
        for study in ("sweep", "cpsc", "lemmas", "dominance"):
            out = tmp_path / f"{study}-t{threads}"
            out.mkdir()
            argv = ["--config", cfg, "--out", str(out), "--study", study,
                    "--threads", str(threads), "--replications", "40000"]  # 3 batches
            assert cli.main(argv) == 0
            blobs[study, threads] = {
                p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*.csv"))
            }
    for study in ("sweep", "cpsc", "lemmas", "dominance"):
        assert blobs[study, 1]
        assert blobs[study, 1] == blobs[study, 2]


def test_cli_bad_later_study_param_writes_nothing(tmp_path, capsys):
    out = tmp_path / "results"
    out.mkdir()
    raw = _small_dict("reproduce-all")
    raw["study_params"]["sweep"]["r_points"] = 0  # sweep runs after four other studies
    cfg = _write(tmp_path, raw)
    assert cli.main(["--config", cfg, "--out", str(out)]) == 2
    assert "study_params.sweep.r_points" in capsys.readouterr().err
    assert not any(out.iterdir())


def test_cli_crashing_study_writes_nothing(tmp_path, monkeypatch):
    out = tmp_path / "results"
    out.mkdir()
    raw = _small_dict("reproduce-all")
    raw["out"] = str(out)
    cfg = load_config(_write(tmp_path, raw))

    def crash(cfg):
        raise RuntimeError("study crashed")

    monkeypatch.setitem(cli.STUDY_FUNCS, "cpsc", crash)
    with pytest.raises(RuntimeError, match="study crashed"):
        cli.run(cfg)
    assert not any(out.iterdir())


def test_cli_runtime_error_exits_two(tmp_path, capsys):
    out = tmp_path / "results"
    out.mkdir()
    raw = _small_dict("simulate")
    raw["game"]["model"] = "CPC"
    for adv in raw["game"]["advertisers"]:
        adv["rates"]["click"] = {"kind": "point", "v": 0.0}  # no click is ever priced
    cfg = _write(tmp_path, raw)
    assert cli.main(["--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "rejected" in err
    assert "Traceback" not in err and err.count("\n") == 1
    assert not any(out.iterdir())


# column orders as documented in the README's Outputs section
README_HEADERS = {
    "simulate/trace.csv": "round,winner,e_loser,price_per_pay_event,payoff_1,payoff_2,"
    "platform_payoff,social_welfare,conservation",
    "simulate/totals.csv": "rounds,mode,payoff_1,payoff_2,platform_payoff,social_welfare",
    "dominance/dominance.csv": "model,scenario,advertiser,fixture_multiplier,rival_e,"
    "theory_bid,utility_theory,se_theory,grid_best_utility,margin,se_margin,"
    "argmax_index,theory_index,passed,no_equilibrium",
    "lemmas/orderings.csv": "quantity,comparison,delta_mean,delta_se,z,holds",
    "lemmas/degenerate_control.csv": "quantity,comparison,delta_mean,delta_se,z,holds",
    "lemmas/decomposition.csv": "advertiser,direct_mean,direct_se,gain_mean,gain_se,"
    "loss_mean,loss_se,residual_mean,residual_se,consistent",
    "lemmas/dice_oracle.csv": "statistic,exact,monte_carlo,abs_error",
    "collapse/collapse.csv": "round,alpha,alpha_hat,collapsed,revenue_mean,revenue_se,"
    "winner_share_1,winner_share_2,utility_1_mean,utility_1_se,utility_2_mean,utility_2_se",
    "sweep/sweep.csv": "r,chosen,feasible_CPC,feasible_OCPC,platform_mean,platform_se,"
    "social_mean,social_se,payoff_1_mean,payoff_1_se,payoff_2_mean,payoff_2_se,"
    "innovation,adv1_drop,adv1_drop_se",
    "sweep/boundaries.csv": "model,entry_threshold_mean,entry_threshold_se",
    "cpsc/orderings.csv": "comparison,delta_mean,delta_se,z,holds",
    "cpsc/payoffs.csv": "model,payoff_1_mean,payoff_1_se,payoff_2_mean,payoff_2_se,"
    "platform_mean,platform_se,social_mean,social_se",
    "cpsc/enumeration.csv": "model,quantity,exact,mc_mean,mc_se,z,agree",
    "summary.csv": "study,passed,checks,checks_passed",
}


def test_cli_csv_headers_match_readme(tmp_path):
    out = tmp_path / "results"
    out.mkdir()
    cfg = _write(tmp_path, _small_dict("reproduce-all"))
    assert cli.main(["--config", cfg, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["files"]) == set(README_HEADERS)
    for rel, header in README_HEADERS.items():
        with open(out / rel, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == header.split(","), rel
        assert len(rows) > 1, rel
        assert all(len(row) == len(rows[0]) for row in rows[1:]), rel
