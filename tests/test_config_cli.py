"""YAML config parsing, override semantics, and end-to-end CLI runs on
temporary output directories."""

import contextlib
import copy
import csv
import functools
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from adpricing import cli
from adpricing.config import (
    MAX_ADVERTISERS,
    MAX_NESTING,
    MAX_SCAN_COLUMNS,
    SCAN_BYTES,
    STUDY_KNOBS,
    ConfigError,
    load_config,
    parse_config,
)
from adpricing.distributions import Beta, Point, Uniform
from adpricing.model import in_site, out_site
from adpricing.sampling import BATCH_SIZE, MeanSE
from adpricing.strategy import best_response_scan, equilibrium_fixture_bids, theoretical_play

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
    assert cfg.params["dominance"]["replications"] == 100_000
    assert cfg.params["sweep"]["r_points"] == 41
    with pytest.raises(KeyError):
        cfg.params["sweep"]["r_pionts"]  # a knob config does not declare


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
    # forced count wins over every per-study value and default
    assert cfg.params["dominance"]["replications"] == 5000
    assert cfg.params["collapse"]["replications"] == 5000


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
        pytest.param(lambda d: d.__setitem__("replications", 10**30), "replications",
                     id="replications-1e30"),
        pytest.param(lambda d: d.__setitem__("replications", 10**10 + 1), "replications",
                     id="replications-above-bound"),
        pytest.param(lambda d: d.__setitem__("seed", -1), "seed", id="negative-seed"),
        pytest.param(
            lambda d: d["game"]["advertisers"][1].__setitem__("m", 1e308),
            "game.advertisers[1].m", id="m-squares-overflow",
        ),
        pytest.param(
            lambda d: d["game"].__setitem__("strategies", [{"bid": 10.0}, {"bid": 1e100}]),
            "game.strategies[1].bid", id="bid-totals-overflow",
        ),
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
        pytest.param(
            lambda d: d["game"]["advertisers"][0]["rates"].__setitem__(
                "click", {"kind": "uniform", "lo": -1e308, "hi": 1e308}),
            "game.advertisers[0].rates.click", id="uniform-range-overflows",
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


def test_manifest_config_reruns_a_forced_replications_run(tmp_path):
    # the manifest records every resolved knob, so the forced count reruns
    # without the flag instead of falling back to the written counts
    forced, rerun = tmp_path / "forced", tmp_path / "rerun"
    forced.mkdir()
    rerun.mkdir()
    cfg = _write(tmp_path, _small_dict("dominance"))
    code = cli.main(["--config", cfg, "--out", str(forced), "--replications", "2000"])
    manifest = json.loads((forced / "manifest.json").read_text())
    again = _write(tmp_path, manifest["config"], "rerun.yaml")
    assert cli.main(["--config", again, "--out", str(rerun)]) == code
    csvs = [{p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*.csv"))}
            for out in (forced, rerun)]
    assert csvs[0] and csvs[0] == csvs[1]


def _click_law(node):
    """The first advertiser's click law, parsed from node in the default config."""
    raw = _base_dict()
    raw["game"]["advertisers"][0]["rates"]["click"] = node
    return parse_config(raw).game.specs[0].rates[0]


def test_law_nodes_parse_every_kind():
    assert _click_law({"kind": "uniform", "lo": 0.2, "hi": 0.4}) == Uniform(0.2, 0.4)
    assert _click_law({"kind": "beta", "a": 2, "b": 3}) == Beta(2.0, 3.0)
    assert _click_law({"kind": "point", "v": 0.3}) == Point(0.3)
    d = _click_law({"kind": "discrete", "atoms": [[0.1, 0.5], [0.3, 0.5]]})
    assert d.atoms() == [(0.1, 0.5), (0.3, 0.5)]


_BAD_LAWS = [
    ({"kind": "gamma", "a": 1}, "click.kind", "expected one of"),
    ({"kind": "uniform", "lo": 0.2}, "click.hi", "missing"),
    ({"lo": 0.2, "hi": 0.4}, "click.kind", "missing"),
    ({"kind": "uniform", "lo": -1e308, "hi": 1e308}, "click", "finite"),
    ({"kind": "beta", "a": 1e308, "b": 1e308}, "click", "finite"),
    ({"kind": "uniform", "lo": 0.2, "hi": 0.4, "hj": 0.5}, "click.hj", "unknown key"),
    ({"kind": "uniform", "lo": 0.2, "hi": True}, "click.hi", "expected a number"),
    ({"kind": "point", "v": "0.3"}, "click.v", "expected a number"),
    ({"kind": "discrete", "atoms": [[0.1, 0.5, 0.2]]}, "click.atoms", "pairs"),
    ({"kind": "discrete", "atoms": [[0.1, "0.5"], [0.3, 0.5]]}, "click.atoms[0][1]", "number"),
    ({"kind": "discrete", "atoms": [[0.1, 0.5], [0.3, 0.6]]}, "click", "sum to"),
]


def test_law_node_errors_name_the_field():
    for node, field, match in _BAD_LAWS:
        with pytest.raises(ConfigError, match=match) as exc:
            _click_law(node)
        assert exc.value.field == f"game.advertisers[0].rates.{field}", node


def test_dotless_exponent_string_gets_a_yaml_hint(tmp_path):
    # PyYAML reads 1e-3 (no dot) as a string, which a number field rejects
    path = tmp_path / "cfg.yaml"
    path.write_text(DEFAULT_YAML.read_text().replace("threshold: 1.0e-3", "threshold: 1e-3"))
    with pytest.raises(ConfigError) as exc:
        load_config(str(path))
    assert exc.value.field == "study_params.collapse.threshold"
    assert "'1e-3'" in str(exc.value) and "write 1.0e-3" in str(exc.value)
    with pytest.raises(ConfigError) as exc:
        parse_config(_small_dict("collapse", decay="x"))
    assert exc.value.field == "study_params.collapse.decay"
    assert "1.0e-3" not in str(exc.value)


needs_libyaml = pytest.mark.skipif(
    not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml"
)


@pytest.mark.parametrize(
    "libyaml",
    [
        pytest.param(True, marks=needs_libyaml, id="CSafeLoader"),
        pytest.param(False, id="SafeLoader"),
    ],
)
def test_missing_and_malformed_files(tmp_path, monkeypatch, libyaml):
    if not libyaml:
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "absent.yaml"))
    bad = tmp_path / "bad.yaml"
    bad.write_text("study: [unclosed\n")
    with pytest.raises(ConfigError) as exc:
        load_config(str(bad))
    assert "line" in str(exc.value)
    bad.write_text("study: simulate\nseed: 1\ngame: {a: [1, 2}\n")
    with pytest.raises(ConfigError) as exc:
        load_config(str(bad))
    assert exc.value.field == "<yaml>"
    assert "parse error at line 3:" in str(exc.value)


@pytest.mark.parametrize(
    "libyaml",
    [
        pytest.param(True, marks=needs_libyaml, id="CSafeLoader"),
        pytest.param(False, id="SafeLoader"),
    ],
)
def test_unconvertible_yaml_scalars_are_config_errors(tmp_path, monkeypatch, capsys, libyaml):
    if not libyaml:
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    bad = tmp_path / "bad.yaml"
    # scalars PyYAML parses but cannot convert: a decimal int of more digits
    # than int() reads, and an octal, hex, binary or base-60 one whose value
    # has more digits than str() prints, are named with their line (a long
    # octal of small value is passed over), not with a Python call the user
    # cannot make
    long_ints = "a: [{m: 1}, {m: 2}]\nb:\n  - 0" + "0" * 5000 + "\n  - [-1_" + "0" * 5000 + "]\n"
    unprintable = "parse error at line 2: an integer of more than 4300 digits"
    for text, message in (
        ("study: simulate\nseed: 1\ngame:\n  m: 1" + "0" * 5000 + "\n",
         "parse error at line 4: an integer of 5001 digits"),
        (long_ints, "parse error at line 4: an integer of 5001 digits"),
        ("seed: 2020-13-45\n",
         "parse error at line 1: cannot convert '2020-13-45' to !!timestamp: month must be in 1..12"),
        ("study: sweep\nseed: 0" + "7" * 5000 + "\n", unprintable),
        ("study: sweep\nseed: 0x" + "f" * 4000 + "\n", unprintable),
        ("study: sweep\nseed: 0b" + "1" * 15000 + "\n", unprintable),
        ("study: sweep\nseed: 1" + ":59" * 3000 + "\n", unprintable),
        ("study: sweep\nseed: !!int ''\n", "parse error at line 2: an empty integer"),
        # tagged scalars whose PyYAML constructors fail by IndexError,
        # KeyError or AttributeError, not ValueError, whose messages name
        # Python internals: the scalar and its tag are named instead
        *(("study: sweep\nseed: " + tagged + "\n", f"parse error at line 2: cannot convert {value} to {tag}")
          for tagged, value, tag in (
              ("!!float ''", "''", "!!float"), ("!!bool ''", "''", "!!bool"),
              ("!!bool maybe", "'maybe'", "!!bool"), ("!!timestamp ''", "''", "!!timestamp"),
              ("!!timestamp x", "'x'", "!!timestamp"),
          )),
        ("study: sweep\nseed: [1,\n  !!bool maybe]\n", "parse error at line 3: cannot convert 'maybe' to !!bool"),
    ):
        bad.write_text(text)
        with pytest.raises(ConfigError) as exc:
            load_config(str(bad))
        assert exc.value.field == "<yaml>"
        assert message in str(exc.value)
        assert cli.main(["--config", str(bad)]) == 2
        err = capsys.readouterr().err
        assert f"config field '<yaml>': {message}" in err
        assert "set_int_max_str_digits" not in err
        assert "groupdict" not in err and "out of range" not in err


# scalars whose YAML 1.1 resolution is easy to get wrong, and flow nesting
_EDGE_DOCUMENTS = {
    "x: 1e-3\n": {"x": "1e-3"},  # no dot: a string, not a float
    "x: [.inf, -.inf]\n": {"x": [math.inf, -math.inf]},
    "x: 0x10\n": {"x": 16},
    "x: [yes, no, on, off]\n": {"x": [True, False, True, False]},
    "x: 1_000\n": {"x": 1000},
    "x: [[1, [2.5, {a: [3]}]], [], {}]\n": {"x": [[1, [2.5, {"a": [3]}]], [], {}]},
}


def _typed(node):
    """node with every scalar's type spelled out, so 1, 1.0 and True differ."""
    if isinstance(node, dict):
        return {_typed(k): _typed(v) for k, v in node.items()}
    if isinstance(node, list):
        return [_typed(v) for v in node]
    return type(node).__name__, node


# config_sha256 of each committed config, read by load_config
CONFIG_SHA256 = {
    "cart.yaml": "f18855faf7e1526bfbf0d8b79911b38a5c0bfcc42ec7dee231caa5be09105fae",
    "default.yaml": "27dc1bdb9dbe97bd218a89d07f1e398efd8ddd1eb67fc19c4f076b88a8b24f70",
    "three_player.yaml": "dec7c95610ec3073839431a338f665264b85edd0bbc95d45d94e5a908b8e5c6e",
}


@needs_libyaml
@pytest.mark.parametrize("path", sorted((ROOT / "configs").glob("*.yaml")), ids=lambda p: p.name)
def test_both_yaml_loaders_build_the_same_config(path, monkeypatch):
    text = path.read_text()
    by_c = _typed(yaml.load(text, Loader=yaml.CSafeLoader))
    assert by_c == _typed(yaml.load(text, Loader=yaml.SafeLoader))
    assert load_config(str(path)).config_hash() == CONFIG_SHA256[path.name]
    monkeypatch.delattr(yaml, "CSafeLoader")
    assert load_config(str(path)).config_hash() == CONFIG_SHA256[path.name]


@needs_libyaml
@pytest.mark.parametrize("text", _EDGE_DOCUMENTS)
def test_both_yaml_loaders_resolve_edge_scalars_alike(text):
    want = _typed(_EDGE_DOCUMENTS[text])
    assert _typed(yaml.load(text, Loader=yaml.CSafeLoader)) == want
    assert _typed(yaml.load(text, Loader=yaml.SafeLoader)) == want


# the variables OpenBLAS sizes its thread pool by, in the order it reads them
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _clean_env(**env: str) -> dict:
    """os.environ with src importable, no BLAS thread variable, plus env."""
    base = {k: v for k, v in os.environ.items() if k not in _BLAS_THREAD_VARS}
    return {**base, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1", **env}


def _after_startup(probe: str, **env: str) -> str:
    """What the Python statement probe prints in a fresh process that has
    imported the CLI and loaded the default config, its environment
    holding no BLAS thread variable but those in env."""
    code = (
        "import sys\n"
        "import adpricing.cli\n"
        "from adpricing.config import load_config\n"
        "load_config(sys.argv[1])\n"
        + probe
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(DEFAULT_YAML)],
        env=_clean_env(**env), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout.strip()


def test_startup_does_not_import_numpy_random():
    # importing numpy.random takes about 15 ms; set-up (importing the CLI
    # and loading a config) never draws, so it must not pay that
    probe = "print(sorted(m for m in sys.modules if m.startswith('numpy.random')))\n"
    assert _after_startup(probe) == "[]"


def test_startup_defines_no_dataclass_or_typing_namedtuple():
    # a frozen dataclass costs about 1 ms to define and a typing.NamedTuple
    # checks its annotations; neither numpy nor PyYAML imports dataclasses
    probe = (
        "import typing\n"
        "built = sorted(f'{name}.{k}' for name, mod in list(sys.modules.items())\n"
        "               if name.split('.')[0] == 'adpricing'\n"
        "               for k, cls in vars(mod).items() if isinstance(cls, type)\n"
        "               and typing.NamedTuple in getattr(cls, '__orig_bases__', ()))\n"
        "print('dataclasses' in sys.modules, built)\n"
    )
    assert _after_startup(probe) == "False []"


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


needs_thread_list = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task") or _usable_cpus() < 2,
    reason="needs /proc/self/task and at least 2 usable CPUs",
)
_THREADS_PROBE = "import os\nprint(len(os.listdir('/proc/self/task')))\n"


@needs_thread_list
def test_startup_runs_one_thread():
    # numpy's OpenBLAS would start a worker per extra CPU, each spinning
    # for about 0.1 s of CPU after import; the program calls no BLAS
    # routine, so importing adpricing sizes the pool at one thread
    assert _after_startup(_THREADS_PROBE) == "1"


@needs_thread_list
@pytest.mark.skipif("openblas" not in str(getattr(np.__config__, "CONFIG", "")),
                    reason="numpy is not built on OpenBLAS")
@pytest.mark.parametrize("var", _BLAS_THREAD_VARS)
def test_startup_keeps_the_callers_blas_thread_count(var):
    assert _after_startup(_THREADS_PROBE, **{var: "2"}) == "2"


@pytest.mark.skipif(_usable_cpus() < 2, reason="needs at least 2 usable CPUs")
def test_cpu_set_never_changes_csvs(tmp_path):
    # the benchmark's reproduce_t2 gate in small: a process pinned to one
    # CPU before it imports adpricing writes the same files as one that
    # may use every CPU. The second sizes the BLAS pool to its CPUs, as a
    # caller may, so a sum handed to BLAS, which splits it across its
    # threads, would show here
    code = (
        "import json, os, sys\n"
        "cpu = json.loads(sys.argv[1])\n"
        "if cpu is not None:\n"
        "    os.sched_setaffinity(0, {cpu})\n"
        "from adpricing import cli\n"
        "sys.exit(cli.main(sys.argv[2:]))\n"
    )
    files = {}
    for cpu, env in ((max(os.sched_getaffinity(0)), {}),
                     (None, {"OPENBLAS_NUM_THREADS": str(_usable_cpus())})):
        out = tmp_path / f"cpu-{cpu}"
        out.mkdir()
        argv = ["--config", str(DEFAULT_YAML), "--study", "sweep",
                "--replications", "20000", "--out", str(out)]
        proc = subprocess.run(
            [sys.executable, "-c", code, json.dumps(cpu), *argv],
            env=_clean_env(**env), capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        files[cpu] = json.loads((out / "manifest.json").read_text())["files"]
    pinned, free = files.values()
    assert pinned and pinned == free


# modules a first study call may import: numpy.random's, with what it
# pulls in, once the first generator is built
_LAZY_IMPORTS_ALLOWED = ("numpy.random", "_cython_", "locale", "_locale", "secrets", "hmac")


def test_studies_import_nothing_new_on_first_call(tmp_path):
    # a module imported by a study's first call (numpy.ma, say, which costs
    # about 20 ms and 8 MB) is paid by every process; every study runs once
    # here, the n >= 3 and the realized paths included
    realized = _base_dict()
    realized["study_params"] = {"simulate": {"rounds": 200, "mode": "realized"}}
    runs = [
        ["--config", str(DEFAULT_YAML), "--study", "reproduce-all"],
        ["--config", _write(tmp_path, realized), "--study", "simulate"],
        ["--config", str(ROOT / "configs" / "three_player.yaml"), "--study", "dominance"],
        ["--config", str(ROOT / "configs" / "three_player.yaml"), "--study", "sweep"],
    ]
    for k, argv in enumerate(runs):
        (tmp_path / f"out{k}").mkdir()
        argv += ["--replications", "2000", "--out", str(tmp_path / f"out{k}")]
    code = (
        "import json, sys\n"
        "import adpricing.cli\n"
        "before = set(sys.modules)\n"
        "rcs = [adpricing.cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(json.dumps([rcs, sorted(set(sys.modules) - before)]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(runs)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    rcs, imported = json.loads(proc.stdout.splitlines()[-1])
    assert all(rc in (0, 1) for rc in rcs), (rcs, proc.stderr[-2000:])
    unexpected = [m for m in imported if not m.startswith(_LAZY_IMPORTS_ALLOWED)]
    assert not unexpected, unexpected


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


# sha256 of every file a run writes besides its manifest, at --seed 42
# --replications 3000, keyed by (config, study), None being the config's
# own study (default.yaml's is reproduce-all).
# Only the two dominance/dominance.csv digests have moved since the pin
# was first recorded: the scan's tail sums became one running sum per
# batch, which adds in another order and changes last bits. Valuing a won
# draw by the engine's payoff (ROADMAP.md item 21) moves the CPC rows of
# dominance/dominance.csv and re-records them as a declared change.
# cart.yaml's reproduce-all was pinned once its lemmas degenerate control
# made every law deeper than the click a point mass; before that, only the
# conversion law was, and lemmas/degenerate_control.csv (and summary.csv)
# differed, with lemmas.degenerate_exact_zero failing
STUDY_FILES_SHA256 = {
    ("default.yaml", None): {
        "collapse/collapse.csv": "5404187c9d499b54bf56dce81c6a2ce3591efe9aa2ae334aa4d5dfc8104ac3f8",
        "cpsc/enumeration.csv": "454ea83fff9aa047a02df8ffa7ce3f7ce92d1567fb4b7a60a6821e64ab344d09",
        "cpsc/orderings.csv": "1d0c2fedac8acdea881197c5497a3307b8a4b2844b9f40164b3eb27bd0db26d0",
        "cpsc/payoffs.csv": "cfba23cd9cf3b265218a52ae5fa8932b0fbf834facf0a75ac9a32552fa6d54d0",
        "dominance/dominance.csv": "e548749ea034309ce678d1902f5aa09275523f73f7d7cae807143472f47dac2c",
        "lemmas/decomposition.csv": "9041f08d32552219a2ebd4889035f291b365a337e1a2e4ab5ff73691af74b192",
        "lemmas/degenerate_control.csv": "cac885b221b68958f856fef54c716889810b31eb5e7432baaaaa30efde1a7eec",
        "lemmas/dice_oracle.csv": "5804a7e3f248c71ccf6152207a6e262343439e2c499ea494445c3f640bef199f",
        "lemmas/orderings.csv": "efb28a4ec39537c2d8cda5e562f534bf8c154152b563cd116bfdca99f53a2a1e",
        "simulate/totals.csv": "e3bf670b2f7534797fadcd183f1d69465ca3c4a1d6e30822e81a5962f48b5afc",
        "simulate/trace.csv": "841cc13977285dc3fd6b29678f621df33af1475f444bee14df1834e167d1e738",
        "summary.csv": "3f523973b4e51c80b79057eac7a4554d4de9fe4dc5d40145a8be3a7e63f42df6",
        "sweep/boundaries.csv": "aaa391960c70d776601a8d17cab3125929e431ba3995584b7f4ce5075b6ce26c",
        "sweep/sweep.csv": "a36a93f94c70dc9c0221c0190175b69aaa51db8dc687b67f9c06a2e39be3fe4d",
    },
    ("three_player.yaml", "dominance"): {
        "dominance/dominance.csv": "0a10f10863d457c1fa860a5e7fdbeff2298116a19e9c3bd2247f9982c3724875",
    },
    ("three_player.yaml", "sweep"): {
        "sweep/boundaries.csv": "350109031fbc5fc3a4f47e79e577555162bee23012277c8464136d8272f7e889",
        "sweep/sweep.csv": "1b41ab425d8f478daceb2b8f80dcc10b2efdb32e9895997b69f291b6d3d59cef",
    },
    ("cart.yaml", "reproduce-all"): {
        "collapse/collapse.csv": "1d9bbfd97c63ab3149232affa76d17a78080c42896793fd2fd2243c7cad281ae",
        "cpsc/enumeration.csv": "454ea83fff9aa047a02df8ffa7ce3f7ce92d1567fb4b7a60a6821e64ab344d09",
        "cpsc/orderings.csv": "1d0c2fedac8acdea881197c5497a3307b8a4b2844b9f40164b3eb27bd0db26d0",
        "cpsc/payoffs.csv": "cfba23cd9cf3b265218a52ae5fa8932b0fbf834facf0a75ac9a32552fa6d54d0",
        "dominance/dominance.csv": "a79a79c787aef95354b268dca3989f2786693a3c338edc5229e83fd68611e29d",
        "lemmas/decomposition.csv": "983d8584f7349eabe9be2920d6431b38fd71b4829caf56e4b89111117306a184",
        "lemmas/degenerate_control.csv": "cac885b221b68958f856fef54c716889810b31eb5e7432baaaaa30efde1a7eec",
        "lemmas/dice_oracle.csv": "5804a7e3f248c71ccf6152207a6e262343439e2c499ea494445c3f640bef199f",
        "lemmas/orderings.csv": "321ed5160c0223f73ccfd7de6f951f56e1879c2ae58aa977473ccea7c3531216",
        "simulate/totals.csv": "f704046a7b7ac606d6b16bd5814d0d6de8020d0c5f826f3d81dedb2280304599",
        "simulate/trace.csv": "aa7570774140a6403b6c86e67df70562aba76cab9e1b9f6d538257f6725fad18",
        "summary.csv": "3f523973b4e51c80b79057eac7a4554d4de9fe4dc5d40145a8be3a7e63f42df6",
        "sweep/boundaries.csv": "2614b4c36433e2cfee23f70dfe84b9124236d502e4c794958d769c61ce794fe6",
        "sweep/sweep.csv": "7f686a2e920312825c9690dbdc3d0bb4e1c83e134362e58ad7e1b536b89fe20d",
    },
    ("cart.yaml", "cpsc"): {
        "cpsc/enumeration.csv": "454ea83fff9aa047a02df8ffa7ce3f7ce92d1567fb4b7a60a6821e64ab344d09",
        "cpsc/orderings.csv": "1d0c2fedac8acdea881197c5497a3307b8a4b2844b9f40164b3eb27bd0db26d0",
        "cpsc/payoffs.csv": "cfba23cd9cf3b265218a52ae5fa8932b0fbf834facf0a75ac9a32552fa6d54d0",
    },
}


@pytest.mark.parametrize(
    "name, study", sorted(STUDY_FILES_SHA256, key=str), ids=lambda v: v or "all"
)
def test_cli_study_files_are_pinned(tmp_path, name, study):
    out = tmp_path / "results"
    out.mkdir()
    argv = ["--config", str(ROOT / "configs" / name), "--out", str(out),
            "--seed", "42", "--replications", "3000"]
    if study is not None:
        argv += ["--study", study]
    assert cli.main(argv) == 0
    digests = {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
               for p in out.rglob("*") if p.is_file() and p.name != "manifest.json"}
    assert digests == STUDY_FILES_SHA256[name, study]
    assert json.loads((out / "manifest.json").read_text())["files"] == digests


def _simulate_realized(tmp_path, scenario, rounds):
    """Out dir of one realized simulate run of the shrunk default config."""
    raw = _small_dict("simulate", rounds=rounds, mode="realized")
    raw["game"]["scenario"] = scenario
    if scenario == "out_site":
        # posted underreporting: the platform's belief scales every bid
        raw["game"]["strategies"] = [{"bid": 10.0, "alpha": 0.6}, {"bid": 10.0, "alpha": 0.8}]
    out = tmp_path / f"{scenario}-{rounds}"
    out.mkdir()
    cfg = _write(tmp_path, raw, f"{scenario}-{rounds}.yaml")
    assert cli.main(["--config", cfg, "--out", str(out)]) == 0
    return out


# sha256 of simulate/trace.csv and totals.csv for 500 realized rounds of
# the default game at seed 42, recorded when the rounds were first drawn
# in order from one generator; a deliberate re-key of the rounds updates them
SIMULATE_REALIZED_SHA256 = {
    "in_site": {
        "simulate/trace.csv": "400a3c2652fde939a71dd942ccb289873ed28d79d518203cb7f7e31f4eb493c1",
        "simulate/totals.csv": "3096a33c729a95a8b5bd168c91cd8f453ed31becfb0ce313ffd8f44dd1fd96cf",
    },
    "out_site": {
        "simulate/trace.csv": "db2bf0833fa330e3086aa467c8399001d2ef9259df11280799c7161cd75e7ffe",
        "simulate/totals.csv": "6034cc0fb48ad4b6349cd9deb8ad9d78ed2bc0326b46d1fe52db94f35b848e7d",
    },
}


@pytest.mark.parametrize("scenario", sorted(SIMULATE_REALIZED_SHA256))
def test_cli_simulate_realized_files_are_pinned(tmp_path, scenario):
    out = _simulate_realized(tmp_path, scenario, 500)
    digests = {rel: hashlib.sha256((out / rel).read_bytes()).hexdigest()
               for rel in ("simulate/trace.csv", "simulate/totals.csv")}
    assert digests == SIMULATE_REALIZED_SHA256[scenario]


@pytest.mark.parametrize("scenario", ["in_site", "out_site"])
def test_cli_simulate_trace_is_a_prefix_and_totals_are_its_sums(tmp_path, scenario):
    short, long = (_simulate_realized(tmp_path, scenario, n) / "simulate" for n in (200, 500))
    short_trace = (short / "trace.csv").read_text().splitlines()
    long_trace = (long / "trace.csv").read_text().splitlines()
    assert len(short_trace) == 201
    assert short_trace == long_trace[:201]

    for sim in (short, long):
        with open(sim / "trace.csv", newline="") as fh:
            trace = list(csv.DictReader(fh))
        with open(sim / "totals.csv", newline="") as fh:
            (totals,) = csv.DictReader(fh)
        assert int(totals["rounds"]) == len(trace)
        assert totals["mode"] == "realized"
        for col in [c for c in totals if c not in ("rounds", "mode")]:
            acc = 0.0
            for row in trace:  # in round order, no compensated summation
                acc += float(row[col])
            assert float(totals[col]) == acc, col


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

    # --replications replaces every study's replications knob, so study_params
    # must be checked to be a mapping first
    raw = _small_dict()
    raw["study_params"] = "x"
    flat = _write(tmp_path, raw, "flat.yaml")
    assert cli.main(["--config", flat, "--out", str(out), "--replications", "2000"]) == 2
    assert "config field 'study_params'" in capsys.readouterr().err

    raw = _small_dict()
    raw["game"]["advertisers"][0]["rates"]["click"] = {"kind": "uniform", "lo": -1e308, "hi": 1e308}
    wide = _write(tmp_path, raw, "wide.yaml")
    assert cli.main(["--config", wide, "--out", str(out)]) == 2
    assert "game.advertisers[0].rates.click" in capsys.readouterr().err

    # bids of 1e308 would run a realized simulate to totals of -inf, -inf, inf
    raw = _small_dict(rounds=50, mode="realized")
    raw["game"]["model"] = "CPC"
    raw["game"]["strategies"] = [{"bid": 1e308}, {"bid": 1e308}]
    huge = _write(tmp_path, raw, "huge-bids.yaml")
    assert cli.main(["--config", huge, "--out", str(out)]) == 2
    assert "game.strategies[0].bid" in capsys.readouterr().err

    # repeated advertiser ids would share a payoff column and a winner name
    for game in ("game", "cart_game"):
        raw = _small_dict()
        for adv in raw[game]["advertisers"]:
            adv["id"] = 7
        dup = _write(tmp_path, raw, f"dup-{game}.yaml")
        assert cli.main(["--config", dup, "--out", str(out)]) == 2
        assert f"{game}.advertisers[1].id" in capsys.readouterr().err
    assert not any(out.iterdir())


@pytest.mark.parametrize("key, value, field, message", [
    pytest.param("models", ["CPC", "CPSC"], "game.models[1]", "CPSC: missing cart depth",
                 id="models-cart-model"),
    pytest.param("models", ["CPC", "CPC", "OCPC"], "game.models[1]", "CPC is already listed",
                 id="models-duplicate"),
    pytest.param("models", ["CPC", "cpc"], "game.models[1]", "expected one of",
                 id="models-unknown"),
    pytest.param("model", "CPSC", "game.model", "CPSC: missing cart depth", id="model-cart"),
    pytest.param("model", ["OCPC"], "game.model", "expected one of", id="model-list"),
    pytest.param("scenario", "onsite", "game.scenario", "expected one of", id="scenario"),
])
def test_cli_bad_game_model_or_scenario_exits_two(tmp_path, capsys, key, value, field, message):
    # each model must resolve on the game's chain and be listed once: a cart
    # model on the 3-stage chain, or a repeated sweep column, stops the run
    # before any study computes
    raw = _base_dict()
    raw["game"][key] = value
    out = tmp_path / "results"
    out.mkdir()
    assert cli.main(["--config", _write(tmp_path, raw), "--out", str(out)]) == 2
    assert f"config field '{field}': {message}" in capsys.readouterr().err
    assert not any(out.iterdir())


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


@pytest.mark.parametrize("node", ["game", "cart_game"])
def test_cli_advertisers_above_the_bound_exit_two(tmp_path, capsys, node):
    # one more advertiser than the bound; only parsing runs, no batch
    raw = _small_dict("dominance")
    advs = raw[node]["advertisers"]
    advs.extend(dict(advs[0], m=90.0) for _ in range(MAX_ADVERTISERS + 1 - len(advs)))
    out = tmp_path / "results"
    out.mkdir()
    assert cli.main(["--config", _write(tmp_path, raw), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"config field '{node}.advertisers'" in err and f"at most {MAX_ADVERTISERS}" in err
    assert not any(out.iterdir())

    del advs[MAX_ADVERTISERS:]  # at the bound: parses
    cfg = parse_config(raw)
    assert (cfg.game if node == "game" else cfg.cart_game).n == MAX_ADVERTISERS


@pytest.mark.parametrize(
    "study, key, value",
    [
        ("dominance", "grid_points", 0),
        ("dominance", "grid_points", "x"),
        ("dominance", "grid_points", 1_000_000_000),  # above 100_000
        ("dominance", "fixtures", 5),
        ("dominance", "grid_max_multiplier", 1e308),  # x theoretical bid overflows
        ("dominance", "fixtures", [1e308]),  # x mean rival equivalent bid overflows
        ("dominance", "fixtures", [1e300]),  # the scan's squared utilities overflow
        ("collapse", "decay", 2),
        ("collapse", "rounds", 1),
        ("collapse", "threshold", 0),
        ("collapse", "threshold", -1),
        ("collapse", "threshold", 0.9),  # above decay 0.5: round 0 is already collapsed
        ("sweep", "r_points", 0),
        ("sweep", "r_max", -1.0),  # below r_min = 0
        ("sweep", "r_points", 10**13),  # above 100_000
        ("collapse", "rounds", 10**13),  # above 1_000
        ("cpsc", "enumeration_replications", 0),
        ("cpsc", "enumeration_replications", 10**30),  # above 10**10
        ("cpsc", "replications", 10**30),
        ("dominance", "replications", 10**30),
        ("dominance", "fixture_replications", 10**30),  # retired: unknown at any value
        ("lemmas", "replications", 10**30),
        ("collapse", "replications", 10**30),
        ("sweep", "replications", 10**30),
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


def test_cli_replications_flag_above_the_bound_exits_two(tmp_path, capsys):
    out = tmp_path / "results"
    out.mkdir()
    cfg = _write(tmp_path, _small_dict("sweep"))
    assert cli.main(["--config", cfg, "--out", str(out), "--replications", str(10**30)]) == 2
    assert "config field 'replications'" in capsys.readouterr().err
    assert not any(out.iterdir())
    assert load_config(cfg, {"replications": 10**10}).replications == 10**10


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


@pytest.mark.parametrize(
    "mutate, field",
    [
        pytest.param(
            lambda d: d["study_params"]["dominance"].__setitem__(
                "grid_pionts", d["study_params"]["dominance"].pop("grid_points")),
            "study_params.dominance.grid_pionts", id="knob",
        ),
        pytest.param(
            lambda d: d["study_params"].__setitem__(
                "dominnace", d["study_params"].pop("dominance")),
            "study_params.dominnace", id="study",
        ),
        pytest.param(
            lambda d: d.__setitem__("replicatons", d.pop("replications")),
            "replicatons", id="top-level",
        ),
        pytest.param(
            lambda d: d["game"].__setitem__("modles", d["game"].pop("models")),
            "game.modles", id="game",
        ),
        pytest.param(
            lambda d: d["cart_game"]["advertisers"][1].__setitem__(
                "outside_optoin", d["cart_game"]["advertisers"][1].pop("outside_option")),
            "cart_game.advertisers[1].outside_optoin", id="advertiser",
        ),
        pytest.param(
            lambda d: d["game"].__setitem__(
                "strategies", [{"bid": 90.0}, {"bid": 80.0, "apha": 1.0}]),
            "game.strategies[1].apha", id="strategy",
        ),
    ],
)
def test_cli_unknown_config_keys_exit_two(tmp_path, capsys, mutate, field):
    # a misspelled key must not run on with the default it failed to set
    out = tmp_path / "results"
    out.mkdir()
    raw = _base_dict()
    mutate(raw)
    assert cli.main(["--config", _write(tmp_path, raw), "--out", str(out)]) == 2
    assert f"config field '{field}': unknown" in capsys.readouterr().err
    assert not any(out.iterdir())


def _with_atoms(game_node, k):
    """Every rate law of the game node as a k-atom discrete law."""
    atoms = [[0.1 + 0.05 * j, 1.0 / k] for j in range(k)]
    for adv in game_node["advertisers"]:
        for event in adv["rates"]:
            adv["rates"][event] = {"kind": "discrete", "atoms": atoms}


@pytest.mark.parametrize("config, node, field", [
    ("cart.yaml", "game", "game.advertisers"),
    ("default.yaml", "cart_game", "cart_game.advertisers"),
])
def test_cli_cpsc_enumeration_above_the_cap_exits_two(tmp_path, capsys, config, node, field):
    # 11-atom laws at all six (advertiser, depth) cells of the cart game:
    # OCPC's exact enumeration would visit 11**6 > 10**6 combinations
    with open(ROOT / "configs" / config) as fh:
        raw = yaml.safe_load(fh)
    _with_atoms(raw[node], 11)
    out = tmp_path / "results"
    out.mkdir()
    argv = ["--config", _write(tmp_path, raw), "--out", str(out)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert f"config field '{field}'" in err and str(11**6) in err
    assert not any(out.iterdir())  # rejected before any study ran

    _with_atoms(raw[node], 10)  # 10**6 combinations: at the cap, allowed
    game, surrogate = cli._cpsc_games(load_config(_write(tmp_path, raw)))
    assert surrogate.specs[0].rates[0].atoms() == game.specs[0].rates[0].atoms()


def _key_paths(node, path=()):
    """The path of every mapping entry and list item under node."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield path + (key,)
        yield from _key_paths(value, path + (key,))


_SHRUNK = _base_dict()
_SHRUNK["study_params"]["simulate"]["rounds"] = 50
_RETYPED = ("x", [1], {"k": 1}, None, True)
_OUT_OF_RANGE = (-1, 0, 10**30, 10**400, 1e308, -1e308, float("inf"), float("nan"))


@settings(max_examples=50, deadline=None)
@given(
    path=st.sampled_from(list(_key_paths(_SHRUNK))),
    change=st.one_of(
        st.just(("delete", None)),
        st.tuples(st.just("retype"), st.sampled_from(_RETYPED)),
        st.tuples(st.just("range"), st.sampled_from(_OUT_OF_RANGE)),
    ),
)
def test_cli_exit_code_contract_under_one_key_mutations(path, change):
    # the shrunk default config with one key deleted, retyped or pushed out
    # of range: main returns 0, 1 or 2 and never raises; exit 1 comes with
    # a failed verdict, exit 2 with an empty out dir
    raw = json.loads(json.dumps(_SHRUNK))
    parent = raw
    for key in path[:-1]:
        parent = parent[key]
    op, value = change
    if op == "delete":
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "results"
        out.mkdir()
        cfg = Path(tmp) / "cfg.yaml"
        cfg.write_text(yaml.safe_dump(raw))
        code = cli.main(["--config", str(cfg), "--out", str(out), "--replications", "2000"])
        assert code in (0, 1, 2)
        if code == 2:
            assert not any(out.iterdir())
        else:
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["passed"] == (code == 0)
            assert all(manifest["verdicts"].values()) == (code == 0)


def _field(path):
    """The config field an error names for a key path: keys joined by
    dots, list items as [k]."""
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path).lstrip(".")


def _at(node, path):
    for key in path:
        node = node[key]
    return node


_NUMBER_PATHS = [p for p in _key_paths(_SHRUNK) if type(_at(_SHRUNK, p)) in (int, float)]
_MAPPING_PATHS = [()] + [p for p in _key_paths(_SHRUNK) if isinstance(_at(_SHRUNK, p), dict)]


@pytest.mark.parametrize(
    "path, value",
    [(p, v) for v in (True, "0.4") for p in _NUMBER_PATHS]
    + [(p + ("zz",), 1) for p in _MAPPING_PATHS],
    ids=lambda x: _field(x) if isinstance(x, tuple) else repr(x),
)
def test_cli_retyped_number_or_unknown_key_exits_two(tmp_path, capsys, path, value):
    # every number of the shrunk default config as a bool or a string, and
    # an unknown key in every mapping, law nodes included
    raw = json.loads(json.dumps(_SHRUNK))
    _at(raw, path[:-1])[path[-1]] = value
    out = tmp_path / "results"
    out.mkdir()
    assert cli.main(["--config", _write(tmp_path, raw), "--out", str(out)]) == 2
    assert f"config field '{_field(path)}': " in capsys.readouterr().err
    assert not any(out.iterdir())


@pytest.mark.parametrize(
    "path", [p for p in _NUMBER_PATHS if type(_at(_SHRUNK, p)) is float], ids=_field
)
def test_cli_int_beyond_float_range_exits_two(tmp_path, capsys, path):
    # every float of the shrunk default config as an int float() cannot
    # hold: not finite, so the field is named, not an OverflowError raised
    raw = json.loads(json.dumps(_SHRUNK))
    _at(raw, path[:-1])[path[-1]] = 10**400
    out = tmp_path / "results"
    out.mkdir()
    assert cli.main(["--config", _write(tmp_path, raw), "--out", str(out)]) == 2
    assert f"config field '{_field(path)}': expected a finite number" in capsys.readouterr().err
    assert not any(out.iterdir())


_TAG = "tag:yaml.org,2002:"
_SHRUNK_TEXT = yaml.safe_dump(_SHRUNK)


def _scalar(tag, value):
    return yaml.ScalarNode(_TAG + tag, value)


def _recursive_list():
    """[CPC, *itself]: a list that holds itself."""
    node = yaml.SequenceNode(_TAG + "seq", [_scalar("str", "CPC")])
    node.value.append(node)
    return node


def _alias_bomb(levels=9, width=9):
    """Lists levels deep, each holding the one below width times: one
    anchor and width aliases a level as text, width**levels ints built out."""
    node = _scalar("int", "1")
    for _ in range(levels):
        node = yaml.SequenceNode(_TAG + "seq", [node] * width)
    return node


# nodes of YAML types that JSON lacks, and a list that holds itself
_NODES = {
    "timestamp": lambda: _scalar("timestamp", "2020-01-01"),
    "set": lambda: yaml.MappingNode(_TAG + "set", [(_scalar("str", "a"), _scalar("null", ""))]),
    "binary": lambda: _scalar("binary", "aGVsbG8="),
    "omap": lambda: yaml.SequenceNode(
        _TAG + "omap", [yaml.MappingNode(_TAG + "map", [(_scalar("str", "a"), _scalar("int", "1"))])]
    ),
    "recursive": _recursive_list,
}
_TEXT_MUTATIONS = (*_NODES, "alias", "duplicate", "merge", "tab", "bom", "not-utf8")


def _child(node, key):
    if isinstance(node, yaml.SequenceNode):
        return node.value[key]
    return next(v for k, v in node.value if k.value == key)


def _node_at(root, path):
    return functools.reduce(_child, path, root)


def _put(root, path, new):
    """root, with the node at path replaced by new."""
    parent = _node_at(root, path[:-1])
    if isinstance(parent, yaml.SequenceNode):
        parent.value[path[-1]] = new
    else:
        parent.value = [(k, new if k.value == path[-1] else v) for k, v in parent.value]
    return root


def _mutated_text(kind, path, other=()):
    """_SHRUNK_TEXT with one mutation of _TEXT_MUTATIONS at path: a node of
    _NODES in its place; the node at other (an alias, recursive where
    other holds path); the mapping entry nearest path repeated, or a merge
    key beside it; a tab for the first space of its line (at its start if
    none); a byte-order mark at the start of the file; or a byte that is
    not UTF-8 at the start of its line."""
    root = yaml.compose(_SHRUNK_TEXT)
    if kind in _NODES:
        return yaml.serialize(_put(root, path, _NODES[kind]()))
    if kind == "alias":
        return yaml.serialize(_put(root, path, _node_at(root, other)))
    if kind in ("duplicate", "merge"):
        while isinstance(path[-1], int):
            path = path[:-1]
        mapping = _node_at(root, path[:-1])
        entry = next(e for e in mapping.value if e[0].value == path[-1])
        mapping.value.append(copy.deepcopy(entry) if kind == "duplicate"
                             else (_scalar("merge", "<<"), yaml.MappingNode(_TAG + "map", [])))
        return yaml.serialize(root)
    if kind == "bom":
        return "﻿" + _SHRUNK_TEXT
    lines = _SHRUNK_TEXT.splitlines(keepends=True)
    k = _node_at(root, path).start_mark.line
    if kind == "tab":
        lines[k] = lines[k].replace(" ", "\t", 1) if " " in lines[k] else "\t" + lines[k]
        return "".join(lines)
    return "".join(lines[:k]).encode() + b"\xff" + "".join(lines[k:]).encode()


def _main_on_text(tmp, text):
    """cli.main's exit code and stderr on a config file holding text (str
    or bytes), and the out dir it ran on."""
    out = Path(tmp) / "results"
    out.mkdir()
    cfg = Path(tmp) / "cfg.yaml"
    cfg.write_bytes(text if isinstance(text, bytes) else text.encode())
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(["--config", str(cfg), "--out", str(out), "--replications", "2000"])
    return code, err.getvalue(), out


def _assert_exit_contract(code, err, out):
    """Exit 0 or 1 with a manifest that agrees, or exit 2 naming a field,
    <yaml> or <file> and leaving the out dir empty; no traceback."""
    assert code in (0, 1, 2) and "Traceback" not in err
    if code == 2:
        assert re.search(r"config field '[^']+': ", err), err[-500:]
        assert not any(out.iterdir())
    else:
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["passed"] == (code == 0) == all(manifest["verdicts"].values())


# without shrinking, a failing case is reported as drawn: its path is
# already as plain as any other
@pytest.mark.parametrize("kind", _TEXT_MUTATIONS)
@settings(max_examples=4, deadline=None, phases=(Phase.explicit, Phase.generate))
@given(
    path=st.sampled_from(list(_key_paths(_SHRUNK))),
    other=st.sampled_from(list(_key_paths(_SHRUNK))),
)
def test_cli_exit_code_contract_under_yaml_text_mutations(kind, path, other):
    # the shrunk default config written as YAML text with one mutation no
    # Python value can express (tags, aliases, repeated or merge keys, tabs,
    # a byte-order mark, bytes that are not UTF-8), each kind at 4 paths
    with tempfile.TemporaryDirectory() as tmp:
        _assert_exit_contract(*_main_on_text(tmp, _mutated_text(kind, path, other)))


@pytest.mark.parametrize(
    "libyaml",
    [
        pytest.param(True, marks=needs_libyaml, id="CSafeLoader"),
        pytest.param(False, id="SafeLoader"),
    ],
)
@pytest.mark.parametrize("kind, path, field, message", [
    pytest.param(kind, path, field, message, id=kind) for kind, path, field, message in (
        ("timestamp", ("seed",), "seed", "expected an integer, got datetime.date(2020, 1, 1)"),
        ("set", ("cart_game",), "cart_game", "expected a mapping, got set"),
        ("binary", ("game", "scenario"), "game.scenario", "got b'hello'"),
        ("recursive", ("game", "models"), "game.models[1]", "got ['CPC', ['CPC', [...]]]"),
        ("duplicate", ("seed",), "<yaml>", "key 'seed' repeats"),
        ("merge", ("game", "advertisers", 1, "m"), "<yaml>", "a merge key (<<)"),
        ("not-utf8", ("seed",), "<file>", "'utf-8' codec can't decode byte 0xff"),
    )
])
def test_cli_yaml_text_mutation_exits_two_naming_the_field(
    tmp_path, monkeypatch, libyaml, kind, path, field, message
):
    # a date, a set or bytes ended in a TypeError traceback; a repeated or a
    # merge key ran on values the file does not say; bytes that are not
    # UTF-8 named no field
    if not libyaml:
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    code, err, out = _main_on_text(tmp_path, _mutated_text(kind, path))
    _assert_exit_contract(code, err, out)
    assert code == 2 and f"config field '{field}': " in err and message in err
    if field == "<yaml>":
        assert re.search(r"': parse error at line \d+: ", err)


_CAPPED_MAIN = (
    "import resource, sys\n"
    "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
    "from adpricing import cli\n"
    "sys.exit(cli.main(sys.argv[1:]))\n"
)


@pytest.mark.parametrize("case", ["alias-bomb", "recursive-alias-and-bad-date"])
def test_cli_alias_bomb_and_cycle_exit_two_in_a_capped_child(tmp_path, case):
    # run in a child under a 1 GiB address-space cap and a timeout, so a
    # reader that builds the bomb's 9**9 ints out, or walks the cycle
    # without marking the nodes it has seen, fails here instead of taking
    # the host's memory or hanging
    root = yaml.compose(_SHRUNK_TEXT)
    if case == "alias-bomb":
        _put(root, ("study_params", "lemmas", "replications"), _alias_bomb())
        field = "study_params.lemmas.replications"
    else:
        _put(_put(root, ("game", "models"), _recursive_list()), ("seed",), _scalar("timestamp", "2020-13-45"))
        field = "<yaml>"
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.serialize(root))
    out = tmp_path / "results"
    out.mkdir()
    proc = subprocess.run(
        [sys.executable, "-c", _CAPPED_MAIN, "--config", str(cfg), "--out", str(out)],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, capture_output=True, text=True,
        timeout=30,
    )
    assert proc.returncode == 2, proc.stderr[-2000:]
    assert f"config field '{field}': " in proc.stderr and "Traceback" not in proc.stderr
    assert len(proc.stderr) < 1000  # the bomb is shown cut short
    assert not any(out.iterdir())


@pytest.mark.parametrize(
    "libyaml",
    [
        pytest.param(True, marks=needs_libyaml, id="CSafeLoader"),
        pytest.param(False, id="SafeLoader"),
    ],
)
@pytest.mark.parametrize("brackets, field", [
    pytest.param(60_000, "<yaml>", id="deep-nesting"),
    pytest.param(MAX_NESTING, "<yaml>", id="one-past-the-bound"),
    pytest.param(MAX_NESTING - 1, "seed", id="at-the-bound"),
])
def test_cli_deep_nesting_exits_two_in_a_capped_child(tmp_path, libyaml, brackets, field):
    # libyaml composes by recursion on the C stack: a seed nested 30 000 or
    # 60 000 lists deep ended the process by SIGSEGV. Under the root mapping
    # the seed's lists are one level deeper than their count, so the last
    # case is nested MAX_NESTING deep and reaches the seed's own check
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("study: sweep\nseed: " + "[" * brackets + "]" * brackets + "\n")
    out = tmp_path / "results"
    out.mkdir()
    main = _CAPPED_MAIN if libyaml else "import yaml\ndel yaml.CSafeLoader\n" + _CAPPED_MAIN
    proc = subprocess.run(
        [sys.executable, "-c", main, "--config", str(cfg), "--out", str(out)],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, capture_output=True, text=True,
        timeout=30,
    )
    assert proc.returncode == 2, proc.stderr[-2000:]
    assert f"config field '{field}': " in proc.stderr and "Traceback" not in proc.stderr
    if field == "<yaml>":
        assert f"parse error at line 2: collections nested more than {MAX_NESTING} deep" in proc.stderr
    assert not any(out.iterdir())


@pytest.mark.parametrize("flags", [[], ["--replications", "2000"]])
def test_cli_bad_knob_of_an_unplanned_study_exits_two(tmp_path, capsys, flags):
    raw = _small_dict("simulate")
    raw["study_params"]["cpsc"]["replications"] = "x"
    out = tmp_path / "results"
    out.mkdir()
    assert cli.main(["--config", _write(tmp_path, raw), "--out", str(out)] + flags) == 2
    assert "config field 'study_params.cpsc.replications'" in capsys.readouterr().err
    assert not any(out.iterdir())


def test_cli_bad_later_study_param_writes_nothing(tmp_path, capsys, monkeypatch):
    def compute(cfg, write):
        raise AssertionError("a study ran before the config was parsed")

    for name in cli.STUDY_FUNCS:
        monkeypatch.setitem(cli.STUDY_FUNCS, name, compute)
    out = tmp_path / "results"
    out.mkdir()
    raw = _small_dict("reproduce-all")
    raw["study_params"]["sweep"]["r_points"] = 0  # sweep runs after four other studies
    cfg = _write(tmp_path, raw)
    assert cli.main(["--config", cfg, "--out", str(out)]) == 2
    assert "study_params.sweep.r_points" in capsys.readouterr().err
    assert not any(out.iterdir())


def test_cli_dominance_overflow_exits_before_any_study(tmp_path, capsys, monkeypatch):
    # the fixture multipliers are bounded where they are parsed, so no
    # study computes before the overflow is rejected
    def compute(cfg, write):
        raise AssertionError("a study ran before the dominance bounds were checked")

    for name in cli.STUDY_FUNCS:
        monkeypatch.setitem(cli.STUDY_FUNCS, name, compute)
    out = tmp_path / "results"
    out.mkdir()
    raw = _small_dict("reproduce-all")
    raw["study_params"]["dominance"]["fixtures"] = [1e300]
    cfg = _write(tmp_path, raw)
    assert cli.main(["--config", cfg, "--out", str(out)]) == 2
    assert "study_params.dominance.fixtures[0]" in capsys.readouterr().err
    assert not any(out.iterdir())


def test_cli_lemmas_orderings_verdict_reads_the_orderings_only(tmp_path):
    # at this seed every ordering holds by |z| >= 205 while advertiser 0's
    # decomposition residual sits at z = 3.68: only the decomposition fails
    out = tmp_path / "results"
    out.mkdir()
    argv = ["--config", str(DEFAULT_YAML), "--out", str(out), "--study", "lemmas",
            "--seed", "247540456"]
    assert cli.main(argv) == 1
    verdicts = json.loads((out / "manifest.json").read_text())["verdicts"]
    assert verdicts["lemmas.orderings_hold"]
    assert not verdicts["lemmas.decomposition_consistent"]


def _recorded(study, cfg):
    """The tables a study writes, by CSV name, and the verdicts it
    returns."""
    tables = {}

    def write(csv_name, header, rows):
        tables[csv_name] = (header, list(rows))

    return tables, study(cfg, write)


@pytest.mark.parametrize("name", ["default.yaml", "three_player.yaml"])
def test_dominance_scans_each_bid_depth_once(monkeypatch, name):
    cfg = load_config(str(ROOT / "configs" / name), {"replications": 3000})
    calls = {"scan": 0, "fixtures": 0}

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli, "best_response_scan", counted(cli.best_response_scan, "scan"))
    monkeypatch.setattr(
        cli, "equilibrium_fixture_bids", counted(cli.equilibrium_fixture_bids, "fixtures")
    )
    tables, verdicts = _recorded(cli._study_dominance, cfg)
    # CPC bids per click, CPA and OCPC per conversion: one fixture call
    # and one scan per advertiser for each bid depth
    assert calls == {"scan": 2 * cfg.game.n, "fixtures": 2}
    assert verdicts == {"scans_pass": True, "cpa_out_flagged": True}

    _, rows = tables["dominance.csv"]
    by_combo = {}
    for row in rows:
        by_combo.setdefault((row[0], row[1]), []).append(row[2:])
    scanned = [c for c in cli.DOMINANCE_COMBOS if c != ("CPA", "out_site")]
    assert list(by_combo) == list(cli.DOMINANCE_COMBOS)
    p = cfg.params["dominance"]
    for model, kind in scanned:
        game = cfg.game.with_model(model, in_site() if kind == "in_site" else out_site())
        # the rows equal a scan of this combo's own game
        theory = theoretical_play(game)[0]
        fixtures = equilibrium_fixture_bids(game, multipliers=p["fixtures"])[0]
        scans = best_response_scan(
            0, np.linspace(0.0, p["grid_max_multiplier"] * theory.bid, p["grid_points"]),
            fixtures, game, theory.bid, replications=p["replications"], seed=cfg.seed,
        )
        own = by_combo[model, kind][: len(p["fixtures"])]
        assert [r[3:6] for r in own] == [[theory.bid, *scan.theory] for scan in scans]
        # combos of one bid depth write equal rows
        twin = next(c for c in scanned
                    if cfg.game.with_model(c[0]).model.bid_depth == game.model.bid_depth)
        assert by_combo[model, kind] == by_combo[twin]


def _planted(monkeypatch, study, estimator, plant):
    """The verdicts of study (a cli study name) on the small config, with
    the records of its estimator (a cli attribute) passed through plant."""
    real = getattr(cli, estimator)
    monkeypatch.setattr(cli, estimator, lambda *args, **kwargs: plant(real(*args, **kwargs)))
    return _recorded(getattr(cli, f"_study_{study}"), parse_config(_small_dict(study)))[1]


# 0.4/0.6 lies 0.1 off an even split: out of the 0.02 tolerance, inside a
# tenfold one (0.3/0.7 would not tell: |0.3 - 0.5| rounds to exactly 0.2)
@pytest.mark.parametrize("shares, holds", [((0.5, 0.5), True), ((0.4, 0.6), False)])
def test_collapsed_shares_verdict_reads_the_collapsed_rounds(monkeypatch, shares, holds):
    def plant(rounds):
        return tuple(r._replace(winner_share=shares) if r.collapsed else r for r in rounds)

    assert _planted(monkeypatch, "collapse", "cpa_collapse", plant)["collapsed_shares"] is holds


# a last round that has not collapsed, at 0.1 x the first round's revenue,
# has not starved the platform: it fails the 1% rule, though not a 50% one
@pytest.mark.parametrize("ratio, holds", [(0.005, True), (0.1, False)])
def test_revenue_collapse_verdict_reads_the_last_round(monkeypatch, ratio, holds):
    def plant(rounds):
        revenue = MeanSE(ratio * rounds[0].revenue.mean, 0.0)
        return rounds[:-1] + (rounds[-1]._replace(collapsed=False, revenue=revenue),)

    assert _planted(monkeypatch, "collapse", "cpa_collapse", plant)["revenue_collapse"] is holds


@pytest.mark.parametrize("closes, holds", [(True, True), (False, False)])
def test_three_regions_verdict_needs_a_closed_market(monkeypatch, closes, holds):
    # the sweep without its rows where no model is feasible still shows the
    # region pattern, but not the region where the market closes
    def plant(res):
        assert any(row.chosen is None for row in res.rows)
        return res if closes else res._replace(
            rows=tuple(row for row in res.rows if row.chosen is not None))

    verdicts = _planted(monkeypatch, "sweep", "sweep_outside_option", plant)
    assert verdicts["region_pattern"] and verdicts["three_regions"] is holds


# point conversion laws make CPC's and OCPC's scores equal, so the two
# models tie exactly on the platform's payoff wherever both are feasible:
# the platform's choice and the region verdict must not read the order in
# which the config lists the models
def test_sweep_choice_does_not_depend_on_the_models_order(tmp_path):
    chosen = []
    for models in (["CPC", "OCPC"], ["OCPC", "CPC"]):
        raw = _base_dict()
        raw["game"]["models"] = models
        for adv in raw["game"]["advertisers"]:
            adv["rates"]["conversion"] = {"kind": "point", "v": 0.1}
        out = tmp_path / "-".join(models)
        out.mkdir()
        argv = ["--config", _write(tmp_path, raw), "--out", str(out),
                "--study", "sweep", "--replications", "20000"]
        cli.main(argv)  # exits 1: OCPC is never chosen, so other sweep verdicts fail
        assert json.loads((out / "manifest.json").read_text())["verdicts"]["sweep.region_pattern"]
        with open(out / "sweep" / "sweep.csv", newline="") as fh:
            chosen.append([row["chosen"] for row in csv.DictReader(fh)])
    assert chosen[0] == chosen[1]
    assert {"CPC", "none"} <= set(chosen[0])


# the sweep flags a row as innovation only where its platform mean is
# positive, so the verdict asks for more: the mean beyond 3 SE above 0.
# Planted at z = 2 on every innovation row it fails, at z = 4 it holds
@pytest.mark.parametrize("z, holds", [(4.0, True), (2.0, False)])
def test_innovation_platform_verdict_reads_the_ordering_rule(monkeypatch, z, holds):
    def plant(res):
        assert any(row.innovation for row in res.rows)
        return res._replace(rows=tuple(
            row._replace(platform=MeanSE(0.5 * z, 0.5)) if row.innovation else row
            for row in res.rows
        ))

    verdicts = _planted(monkeypatch, "sweep", "sweep_outside_option", plant)
    assert verdicts["innovation_platform_positive"] is holds


# a paired difference planted against its ordering's direction: beyond
# 3 SE, an exact zero (degenerate laws: both arms identical, which holds),
# and a sure 1e-9 (no SE to excuse it). lemmas takes it on the platform's
# delta, which must fall, so the sign is flipped there; cpsc on a delta
# that must rise
@pytest.mark.parametrize("mean, se, holds", [
    pytest.param(-4.0, 1.0, False, id="wrong-sign"),
    pytest.param(0.0, 0.0, True, id="exact-zero"),
    pytest.param(-1e-9, 0.0, False, id="sure-1e-9"),
])
def test_orderings_verdicts_read_the_ordering_rule(monkeypatch, mean, se, holds):
    def plant_suite(suite):
        return suite._replace(platform=MeanSE(-mean, se))

    def plant_cpsc(rep):
        return rep._replace(deltas={**rep.deltas, "platform_payoff_cpsc_minus_ocpc": MeanSE(mean, se)})

    lemmas = _planted(monkeypatch, "lemmas", "payoff_ordering_suite", plant_suite)
    cpsc = _planted(monkeypatch, "cpsc", "cpsc_comparison", plant_cpsc)
    assert lemmas["orderings_hold"] is holds and cpsc["orderings_hold"] is holds


def _planted_run(tmp_path, monkeypatch, study, estimator, plant):
    """The exit code and manifest verdicts of cli.run on study's small
    config, with the records of its estimator (a cli attribute) passed
    through plant."""
    real = getattr(cli, estimator)
    monkeypatch.setattr(cli, estimator, lambda *args, **kwargs: plant(real(*args, **kwargs)))
    code = cli.run(parse_config(_small_dict(study), {"out": str(tmp_path)}))
    return code, json.loads((tmp_path / "manifest.json").read_text())["verdicts"]


# the small config's grid runs to twice the theoretical bid over an odd
# number of points, so the theoretical bid's nearest grid point is the
# middle one
_THEORY_INDEX = _small_dict("dominance")["study_params"]["dominance"]["grid_points"] // 2


# one grid bid's gap (the theoretical bid's utility minus the bid's) in
# each scan's first fixture: beyond 3 SE below 0, below 0 but within
# 3 SE, a positive gap with a NaN SE (overflowed sums), and the exact zero
# of a bid whose win set is the theoretical bid's; the other gaps are the
# scan's own, some of which lie beyond 3 SE above 0
@pytest.mark.parametrize("mean, se, holds", [
    pytest.param(-4.0, 1.0, False, id="beaten"),
    pytest.param(-2.0, 1.0, True, id="within-3-se"),
    pytest.param(1.0, math.nan, False, id="nan-se"),
    pytest.param(0.0, 0.0, True, id="exact-zero"),
])
def test_scans_pass_verdict_reads_every_gap(tmp_path, monkeypatch, mean, se, holds):
    def plant(scans):
        gap = MeanSE(scans[0].gap.mean.copy(), scans[0].gap.se.copy())
        gap.mean[_THEORY_INDEX], gap.se[_THEORY_INDEX] = mean, se
        return (scans[0]._replace(gap=gap), *scans[1:])

    code, verdicts = _planted_run(tmp_path, monkeypatch, "dominance", "best_response_scan", plant)
    assert verdicts["dominance.scans_pass"] is holds and code == (0 if holds else 1)


# every fixture's utility at one grid bid raised above every utility of
# the scan, so that the across-fixture mean peaks there; the gaps are the
# scan's own, which pass
@pytest.mark.parametrize("offset, holds", [(1, True), (2, False)])
def test_scans_pass_verdict_needs_the_mean_argmax_within_one_step(
    tmp_path, monkeypatch, offset, holds
):
    def plant(scans):
        top = max(float(np.max(scan.utilities)) for scan in scans) + 1.0
        planted = []
        for scan in scans:
            utilities = scan.utilities.copy()
            utilities[_THEORY_INDEX + offset] = top
            planted.append(scan._replace(utilities=utilities))
        return tuple(planted)

    code, verdicts = _planted_run(tmp_path, monkeypatch, "dominance", "best_response_scan", plant)
    assert verdicts["dominance.scans_pass"] is holds and code == (0 if holds else 1)


def test_cli_crashing_study_writes_nothing(tmp_path, monkeypatch):
    out = tmp_path / "results"
    out.mkdir()
    raw = _small_dict("reproduce-all")
    raw["out"] = str(out)
    cfg = load_config(_write(tmp_path, raw))

    def crash(cfg, write):
        raise RuntimeError("study crashed")

    monkeypatch.setitem(cli.STUDY_FUNCS, "cpsc", crash)
    with pytest.raises(RuntimeError, match="study crashed"):
        cli.run(cfg)
    assert not any(out.iterdir())


def test_cli_memory_error_exits_two(tmp_path, capsys, monkeypatch):
    def exhaust(cfg, write):
        raise MemoryError

    monkeypatch.setitem(cli.STUDY_FUNCS, "simulate", exhaust)
    out = tmp_path / "results"
    out.mkdir()
    assert cli.main(["--config", _write(tmp_path, _small_dict()), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: MemoryError\n"
    assert not any(out.iterdir())


# the largest scan footprint at five fixtures: five x (grid_points + 1)
# columns, at most MAX_SCAN_COLUMNS
_CAP_FIXTURES = [0.25, 0.5, 1.0, 1.5, 2.0]
_CAP_GRID_POINTS = MAX_SCAN_COLUMNS // len(_CAP_FIXTURES) - 1


def test_dominance_scan_at_the_column_cap_parses_and_fits_its_budget():
    raw = _small_dict("dominance", fixtures=_CAP_FIXTURES, grid_points=_CAP_GRID_POINTS)
    cfg = parse_config(raw)
    p = cfg.params["dominance"]
    columns = len(p["fixtures"]) * (p["grid_points"] + 1)
    assert columns <= MAX_SCAN_COLUMNS < columns + len(p["fixtures"])
    game = cfg.game.with_model("CPC")
    theory = theoretical_play(game)[0].bid
    grid = np.linspace(0.0, 2.0 * theory, p["grid_points"])
    rival_es = [0.3 * m * theory for m in p["fixtures"]]
    best_response_scan(0, grid[:3], rival_es[:1], game, theory, replications=10)  # warm-up
    # two batches, so the totals and a batch's partial are both held; the
    # allowance beyond the budget covers the grid, a batch's draws and one
    # fixture's temporaries
    tracemalloc.start()
    try:
        best_response_scan(0, grid, rival_es, game, theory, replications=BATCH_SIZE + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < SCAN_BYTES + (2 << 20), peak


def test_dominance_scan_one_column_step_over_the_cap_exits_two(tmp_path, capsys):
    raw = _small_dict("dominance", fixtures=_CAP_FIXTURES, grid_points=_CAP_GRID_POINTS + 1)
    out = tmp_path / "results"
    out.mkdir()
    assert cli.main(["--config", _write(tmp_path, raw), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config field 'study_params.dominance.fixtures'" in err
    assert f"at most {MAX_SCAN_COLUMNS}" in err
    assert not any(out.iterdir())


def _tree(root):
    """Every file under root, by relative path, with its bytes."""
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_cli_failed_write_leaves_the_out_dir_as_it_was(tmp_path, capsys, monkeypatch):
    out = tmp_path / "results"
    out.mkdir()
    (out / "notes.txt").write_text("kept\n")
    raw = _small_dict("reproduce-all")
    argv = ["--config", _write(tmp_path, raw), "--out", str(out)]
    assert cli.main(["--seed", "1"] + argv) == 0  # an earlier run's files and manifest
    before = _tree(out)
    n_writes = len(json.loads((out / "manifest.json").read_text())["files"])

    write_csv = cli.Artifacts.write_csv
    for k in range(1, n_writes + 1):
        calls = []

        def failing(art, relpath, header, rows):
            calls.append(relpath)
            if len(calls) == k:
                # the table is opened and its header written before the error
                def full_disk():
                    raise OSError(28, "No space left on device")
                    yield
                rows = full_disk()
            write_csv(art, relpath, header, rows)

        monkeypatch.setattr(cli.Artifacts, "write_csv", failing)
        capsys.readouterr()
        assert cli.main(argv) == 2, k
        assert "No space left on device" in capsys.readouterr().err
        assert len(calls) == k
        assert _tree(out) == before, calls[-1]
        assert not list(out.glob(".partial-*")), calls[-1]


def test_cli_failed_move_leaves_no_manifest(tmp_path, capsys, monkeypatch):
    out = tmp_path / "results"
    out.mkdir()
    argv = ["--config", _write(tmp_path, _small_dict("simulate")), "--out", str(out)]
    assert cli.main(argv) == 0
    replace = cli.os.replace
    moved = []

    def failing(src, dst):
        moved.append(dst)
        if len(moved) == 2:
            raise OSError(28, "No space left on device")
        replace(src, dst)

    monkeypatch.setattr(cli.os, "replace", failing)
    assert cli.main(["--seed", "1"] + argv) == 2
    # trace.csv moved in with new bytes, so the earlier manifest is gone
    assert moved[0] == out / "simulate" / "trace.csv"
    assert sorted(p.name for p in out.iterdir()) == ["simulate"]


def test_cli_simulate_memory_is_flat_in_rounds(tmp_path, capsys):
    cfgs = {}
    for rounds in (1_000, 10_000):
        raw = _small_dict("simulate", rounds=rounds, mode="realized")
        raw["out"] = str(tmp_path / str(rounds))
        (tmp_path / str(rounds)).mkdir()
        cfgs[rounds] = load_config(_write(tmp_path, raw, f"{rounds}.yaml"))
    assert cli.run(cfgs[1_000]) == 0  # first-call allocations stay out of the peaks
    peaks = {}
    for rounds, cfg in cfgs.items():
        tracemalloc.start()
        try:
            assert cli.run(cfg) == 0
            peaks[rounds] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # the trace goes to disk as rounds settle; held, 9 000 more rows take
    # about 1.7 MB
    assert abs(peaks[10_000] - peaks[1_000]) < 1 << 20, peaks


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


@pytest.mark.parametrize("a, codes", [(1e-300, (0, 1)), (1e200, (0, 1)), (1e308, (2,))])
def test_cli_extreme_beta_click_law_exits_without_a_traceback(tmp_path, capsys, a, codes):
    # at a = b = 1e-300 the variance a*b/(s^2 (s+1)) once divided by an
    # underflowed s^2; at 1e308 a + b overflows, which the law rejects
    out = tmp_path / "results"
    out.mkdir()
    raw = _small_dict("cpsc")
    raw["cart_game"]["advertisers"][0]["rates"]["click"] = {"kind": "beta", "a": a, "b": a}
    assert cli.main(["--config", _write(tmp_path, raw), "--out", str(out)]) in codes
    if codes == (2,):
        err = capsys.readouterr().err
        assert "cart_game.advertisers[0].rates.click" in err and "finite" in err


def _no_libc(name):
    raise OSError("no C library")


class _LibcWithoutMallopt:
    def __init__(self, name):
        pass


@pytest.mark.parametrize("cdll", [_no_libc, _LibcWithoutMallopt])
def test_cli_without_mallopt_writes_the_same_files(tmp_path, monkeypatch, cdll):
    cfg = _write(tmp_path, _small_dict("sweep"))
    runs = {}
    for name in ("libc", "fake"):
        if name == "fake":
            monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
            assert cli._keep_batch_memory() is None
        out = tmp_path / name
        out.mkdir()
        assert cli.main(["--config", cfg, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        runs[name] = (manifest["files"], manifest["verdicts"],
                      {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*.csv"))})
    assert runs["libc"][2]
    assert runs["fake"] == runs["libc"]


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


def _per_cell_csv(path, header, rows):
    """The reference: every row through the csv writer, cell by cell."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            cells = []
            for v in row:
                cells += [v.mean, v.se] if isinstance(v, MeanSE) else [v]
            writer.writerow([cli._cell(v) for v in cells])
    return path.read_bytes()


def test_write_csv_plain_rows_match_the_per_cell_path(tmp_path):
    nan, inf = float("nan"), float("inf")
    rows = [
        [0, 1.5, -0.0, nan, inf, -inf, 'say "hi", bye', 10**20, 1e-300, ""],  # plain
        [True, None, np.float64(0.1), np.int64(-7), np.bool_(False), MeanSE(0.25, 1e-3)],
        [False, np.float64(nan), np.float64(-0.0), MeanSE(inf, 0.0), "a\nb", 2.0, 3],
        [-inf, "x", np.float64(2.5), 1],
        [True, 1, 0.5],  # bool is an int subclass the csv writer spells True
        [np.float32(0.1), np.bool_(True), "y"],
        [MeanSE(-0.0, nan)],
    ]
    art = cli.Artifacts(tmp_path)
    art.write_csv("fast.csv", ["h"], rows)
    fast = (tmp_path / "fast.csv").read_bytes()
    assert fast == _per_cell_csv(tmp_path / "cells.csv", ["h"], rows)
    assert fast.splitlines()[1] == b'0,1.5,-0.0,nan,inf,-inf,"say ""hi"", bye",100000000000000000000,1e-300,'
    assert fast.splitlines()[2] == b"true,,0.1,-7,false,0.25,0.001"


_NUMERIC_ROWS = [
    [0, 1.5, -0.0, float("nan"), float("inf"), -float("inf"), 5e-324, -5e-324],
    [1e16, 1e-5, 10**20, -(10**20), -7, 0.1, 2.0, -1.0],
    [123456789, -0.30000000000000004, 1e300, 1e-300, 0, -1, 3, 1e22],
    [],
]
_OTHER_ROWS = [
    [1, "a,b", 2.0],
    [True, 1, 0.5],
    [None, 0.0],
    [np.float64(0.1), 1],
    [np.int64(-3), 2.5],
    [MeanSE(0.25, 1e-3), 1.0],
    [""],
]


def test_write_csv_numeric_rows_match_the_csv_writer(tmp_path):
    art = cli.Artifacts(tmp_path)
    header = ["h1", "h2"]
    mixed = [r for pair in zip(_NUMERIC_ROWS * 2, _OTHER_ROWS) for r in pair] + _NUMERIC_ROWS
    block = cli._LINE_BLOCK
    tables = {
        "numeric": _NUMERIC_ROWS,
        "mixed": mixed,
        "empty": [],
        "one_block": [[i, i / 7] for i in range(block)],
        "block_minus_one": [[i, -i / 3] for i in range(block - 1)],
        "block_plus_one": [[i, i * 0.1] for i in range(block + 1)],
        "block_then_other": [[i, 0.5] for i in range(block)] + [["x", 1]] + [[1, 2.0]] * 3,
    }
    for name, rows in tables.items():
        art.write_csv(f"{name}.csv", header, iter(rows))
        fast = (tmp_path / f"{name}.csv").read_bytes()
        assert fast == _per_cell_csv(tmp_path / f"{name}.ref.csv", header, rows), name
    lines = (tmp_path / "numeric.csv").read_bytes().split(b"\r\n")
    assert lines[1] == b"0,1.5,-0.0,nan,inf,-inf,5e-324,-5e-324"
    assert lines[2] == b"1e+16,1e-05,100000000000000000000,-100000000000000000000,-7,0.1,2.0,-1.0"
    assert lines[4] == b"" and lines[5] == b""  # the empty row, then the end
    assert len((tmp_path / "one_block.csv").read_bytes().splitlines()) == block + 1


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


def test_readme_knob_table_names_every_declared_knob():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    table = readme.split("\n| study | knob | default | bounds |\n", 1)[1].split("\n\n", 1)[0]
    named = [tuple(cell.strip().strip("`") for cell in line.split("|")[1:3])
             for line in table.splitlines()[1:]]
    assert named == [(study, knob) for study, knobs in STUDY_KNOBS.items() for knob in knobs]


def test_readme_claim_table_names_reproduce_all_verdicts(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Claims and verdicts\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.strip("|").split("|") for line in section.splitlines()
            if line.startswith("| ") and not line.startswith("| claim")]
    named = {claim.strip(): re.findall(r"`(\w+\.\w+)`", cell) for claim, cell in rows}
    assert len(named) == 4
    assert [claim for claim, keys in named.items() if not keys] == [
        "the analysis applies to OCPM as well"
    ]
    out = tmp_path / "results"
    out.mkdir()
    assert cli.main(["--config", _write(tmp_path, _small_dict("reproduce-all")), "--out", str(out)]) == 0
    written = set(json.loads((out / "manifest.json").read_text())["verdicts"])
    for claim, keys in named.items():
        assert set(keys) <= written, claim
