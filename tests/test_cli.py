import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import hfactor
from hfactor import cli
from hfactor.cli import main

K3_TEXT = "graph 3\n0 1\n1 2\n0 2\n"
K2_TEXT = "graph 2\n0 1\n"
ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def k3_file(tmp_path):
    path = tmp_path / "k3.txt"
    path.write_text(K3_TEXT)
    return str(path)


@pytest.fixture
def k2_file(tmp_path):
    path = tmp_path / "k2.txt"
    path.write_text(K2_TEXT)
    return str(path)


@pytest.fixture
def p6_file(tmp_path):
    path = tmp_path / "p6.txt"
    path.write_text("graph 6\n" + "".join(f"{i} {i + 1}\n" for i in range(5)))
    return str(path)


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_json(k3_file, capsys):
    code, out, _ = run_cli(["analyze", "--pattern", k3_file], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["density"] == "3/2"
    assert rep["balance"] == "strictly_balanced"
    assert rep["automorphism_count"] == 6


def test_count_complete(k3_file, capsys):
    code, out, _ = run_cli(["count", "--pattern", k3_file, "--n", "6"], capsys)
    assert code == 0
    assert json.loads(out)["labeled"] == 360


def test_count_host_file(k3_file, tmp_path, capsys):
    host_path = tmp_path / "k6.txt"
    lines = ["graph 6"] + [f"{i} {j}" for i in range(6) for j in range(i + 1, 6)]
    host_path.write_text("\n".join(lines) + "\n")
    code, out, _ = run_cli(
        ["count", "--pattern", k3_file, "--host", str(host_path)], capsys
    )
    assert code == 0
    assert json.loads(out)["labeled"] == 360


def test_count_smallest_positive_p(k2_file, capsys):
    code, out, _ = run_cli(
        ["count", "--pattern", k2_file, "--n", "10", "--p", "5e-324", "--seed", "3"], capsys
    )
    assert code == 0
    assert json.loads(out)["labeled"] == 0


@pytest.mark.parametrize(
    "sources",
    [["--p", "0.5", "--M", "3"], ["--host", "HOST", "--p", "0.5"],
     ["--host", "HOST", "--M", "3"], ["--host", "HOST", "--p", "0.5", "--M", "3"]],
    ids=["p-M", "host-p", "host-M", "all-three"],
)
def test_count_rejects_two_host_sources(sources, k2_file, tmp_path, capsys):
    host_path = tmp_path / "k6.txt"
    host_path.write_text("graph 6\n" + "".join(f"{i} {i + 1}\n" for i in range(5)))
    args = [str(host_path) if a == "HOST" else a for a in sources]
    code, out, err = run_cli(
        ["count", "--pattern", k2_file, "--n", "6", "--seed", "1", *args], capsys
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "only one of --host, --p and --M" in err


def test_trace_csv_deterministic(k3_file, tmp_path, capsys):
    args = ["trace", "--pattern", k3_file, "--n", "6", "--seed", "3",
            "--format", "csv"]
    code, first, _ = run_cli(args, capsys)
    assert code == 0
    code, second, _ = run_cli(args, capsys)
    assert first == second
    header = first.splitlines()[0]
    assert header == ("i,edge,xi_num,xi_den,gamma_num,gamma_den,z,x_partial,"
                      "log_factor_count,margin,guard_state")


def test_trace_n3_single_row(k3_file, capsys):
    code, out, _ = run_cli(
        ["trace", "--pattern", k3_file, "--n", "3", "--seed", "1", "--format", "csv"],
        capsys,
    )
    rows = out.strip().splitlines()
    assert len(rows) == 2
    fields = rows[1].split(",")
    assert fields[2:6] == ["1", "1", "1", "1"]  # xi = gamma = 1


def test_scan_csv(k2_file, tmp_path, capsys):
    out_path = tmp_path / "scan.csv"
    code, _, _ = run_cli(
        ["scan", "--pattern", k2_file, "--n-list", "8", "--trials", "50",
         "--seed", "2", "--format", "csv", "--out", str(out_path), "--workers", "1"],
        capsys,
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "n,p_half,ci_low,ci_high,formula_value,ratio,trials,seed,property"
    assert lines[1].split(",")[0] == "8"


def test_models_json(k2_file, capsys):
    code, out, _ = run_cli(
        ["models", "--pattern", k2_file, "--n", "6", "--p", "0.6",
         "--trials", "40", "--seed", "4", "--workers", "1"],
        capsys,
    )
    assert code == 0
    rep = json.loads(out)
    assert {"pr_gnp", "pr_gnm", "difference", "combined_se"} <= rep.keys()


def test_martingale_and_shearer(k2_file, capsys):
    code, out, _ = run_cli(
        ["martingale-check", "--pattern", k2_file, "--n", "6", "--trials", "5",
         "--p", "0.8", "--seed", "6"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["all_equal"] is True
    code, out, _ = run_cli(
        ["shearer", "--pattern", k2_file, "--n", "6", "--trials", "5",
         "--p", "0.8", "--seed", "6"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["min_slack"] >= 0


def test_window_csv(tmp_path, capsys):
    weights = tmp_path / "w.csv"
    weights.write_text("a,1.0\nb,2.0\nc,1.5\n")
    code, out, _ = run_cli(["window", "--weights", str(weights)], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["weight_ratio"] == 1.0


def test_weight_lemma_csv(tmp_path, capsys):
    import itertools

    weights = tmp_path / "w.csv"
    rows = [f"{a},{b},1.5" for a, b in itertools.combinations(range(6), 2)]
    weights.write_text("\n".join(rows) + "\n")
    code, out, _ = run_cli(
        ["weight-lemma", "--weights", str(weights), "--n", "6", "--v", "2",
         "--B", "1.0"],
        capsys,
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["hypothesis_holds"] and rep["conclusion_holds"]


def test_poly_modes(k3_file, capsys):
    base = ["poly", "--pattern", k3_file, "--n", "8", "--p", "0.5",
            "--anchor-role", "0", "--anchor-vertex", "0"]
    code, out, _ = run_cli(base + ["--mode", "profile"], capsys)
    assert code == 0
    assert json.loads(out)["degree"] == 3
    code, out, _ = run_cli(
        base + ["--mode", "check", "--theorem", "all-order", "--eps", "0.3"], capsys
    )
    assert code == 0
    assert "passes" in json.loads(out)
    code, out, _ = run_cli(
        base + ["--mode", "trial", "--trials", "20", "--seed", "9",
                "--eps", "0.5", "--workers", "1"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["trials"] == 20


def test_regularity(k3_file, capsys):
    code, out, _ = run_cli(
        ["regularity", "--pattern", k3_file, "--n", "12", "--p", "0.8",
         "--seed", "3", "--eps", "0.5", "--beta", "20"],
        capsys,
    )
    assert code == 0
    rep = json.loads(out)
    assert "part_a" in rep and "part_b" in rep


# Every pinned CLI output: id, argv without --pattern, the pattern (a repo
# path, or the file's text when it holds a newline), the SHA-256 of stdout and
# why it is pinned. A digest is re-recorded only by a change meant to alter
# those bytes.
GOLDEN = json.loads((ROOT / "tests" / "golden.json").read_text())


def golden_argv(entry, pattern_path):
    return [entry["argv"][0], "--pattern", pattern_path, *entry["argv"][1:]]


@pytest.mark.parametrize("entry", GOLDEN, ids=[e["id"] for e in GOLDEN])
def test_golden_digests(entry, tmp_path, capsys):
    if "\n" in entry["pattern"]:
        path = tmp_path / "pattern.txt"
        path.write_text(entry["pattern"])
    else:
        path = ROOT / entry["pattern"]
    code, out, _ = run_cli(golden_argv(entry, str(path)), capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == entry["sha256"]


def test_golden_manifest_agrees_with_perfbench_and_ci_pins_nothing():
    # a command perfbench pins too, keyed without its worker count, has the same digest there
    perfbench = {}
    for workload in json.loads((ROOT / "perfbench" / "digests.json").read_text()).values():
        perfbench.update(workload)
    shared = []
    for entry in GOLDEN:
        argv = golden_argv(entry, entry["pattern"])
        i = argv.index("--workers") if "--workers" in argv else len(argv)
        key = " ".join(argv[:i] + argv[i + 2:])
        if key in perfbench:
            shared.append(entry["id"])
            assert perfbench[key] == entry["sha256"], entry["id"]
    assert shared
    # and no digest is pinned inline in CI again
    for path in (ROOT / ".github").rglob("*"):
        if path.is_file():
            assert not re.search(r"\b[0-9a-f]{64}\b", path.read_text()), path


def test_config_file_with_flag_override(k3_file, tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"pattern": k3_file, "n": 3}))
    code, out, _ = run_cli(["count", "--config", str(config), "--n", "6"], capsys)
    assert code == 0
    assert json.loads(out)["labeled"] == 360  # flag wins over config


def test_config_file_cannot_replace_command(k3_file, tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"pattern": k3_file, "n": 6, "command": "analyze"}))
    code, out, err = run_cli(["count", "--config", str(config)], capsys)
    assert code == 1
    assert out == ""
    assert "unknown config key 'command'" in err


def test_exit_code_validation_error(k3_file, capsys):
    code, _, err = run_cli(["count", "--pattern", k3_file, "--n", "7"], capsys)
    assert code == 1
    assert "error" in err


def test_exit_code_missing_file(capsys):
    code, _, _ = run_cli(["analyze", "--pattern", "/nonexistent/p.txt"], capsys)
    assert code == 1


def test_exit_code_bad_flag(capsys):
    code, _, _ = run_cli(["analyze", "--nonsense"], capsys)
    assert code == 1


def test_exit_code_invariant_failure(monkeypatch, capsys, k2_file):
    from hfactor.errors import InvariantError

    def boom(cfg):
        raise InvariantError("forced")

    _, _, flags = cli._COMMANDS["analyze"]
    monkeypatch.setitem(cli._COMMANDS, "analyze", (boom, (), flags))
    code, _, err = run_cli(["analyze", "--pattern", k2_file], capsys)
    assert code == 2
    assert "invariant" in err


def test_byte_identical_json(k3_file, capsys):
    args = ["analyze", "--pattern", k3_file]
    _, first, _ = run_cli(args, capsys)
    _, second, _ = run_cli(args, capsys)
    assert first == second


def test_scan_workers_byte_identical(k2_file, capsys):
    outputs = []
    for workers in ("1", "2"):
        code, out, _ = run_cli(
            ["scan", "--pattern", k2_file, "--n-list", "8,12", "--trials", "20",
             "--seed", "9", "--workers", workers],
            capsys,
        )
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])


@pytest.mark.parametrize(
    "args",
    [
        ["models", "--n", "8", "--p", "0.5", "--trials", "40", "--seed", "5"],
        ["trace", "--n", "9", "--seed", "4"],
        # five batches through one shared pool
        ["models", "--n", "8", "--p", "0.5", "--trials", "40", "--seed", "5", "--sweep"],
        ["poly", "--n", "8", "--p", "0.5", "--anchor-role", "0", "--anchor-vertex", "0",
         "--mode", "trial", "--trials", "20", "--seed", "9"],
    ],
    ids=["models", "trace", "models-sweep", "poly-trial"],
)
def test_workers_byte_identical(args, k2_file, k3_file, capsys):
    pattern = k2_file if args[0] == "models" else k3_file
    outputs = []
    for workers in ("1", "2"):
        code, out, _ = run_cli(args + ["--pattern", pattern, "--workers", workers], capsys)
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    assert outputs[0]


# (config file, flags that override it, the same options as flags alone);
# "PATTERN" stands for the pattern file
CONFIG_CASES = {
    # a file value takes the flag's type: "p": 1 is reported as 1.0, as --p 1 is
    "count": ({"pattern": "PATTERN", "n": 9, "p": 1, "seed": 7, "format": "json"},
              ["--seed", "3"],
              ["--pattern", "PATTERN", "--n", "9", "--p", "1", "--seed", "3"]),
    "scan": ({"pattern": "PATTERN", "n_list": [8, 12], "trials": 20, "seed": 1,
              "property": "coverage", "workers": 1},
             ["--trials", "10"],
             ["--pattern", "PATTERN", "--n-list", "8,12", "--trials", "10", "--seed", "1",
              "--property", "coverage", "--workers", "1"]),
    "trace": ({"pattern": "PATTERN", "n": 9, "seed": 3, "t-max": 5, "b_level": 3,
               "format": "csv"},
              ["--seed", "4"],
              ["--pattern", "PATTERN", "--n", "9", "--seed", "4", "--t-max", "5",
               "--b-level", "3", "--format", "csv"]),
    "models": ({"pattern": "PATTERN", "n": 8, "p": 0.35, "trials": 100, "seed": 2,
                "sweep": True, "workers": "1"},
               ["--p", "0.5"],
               ["--pattern", "PATTERN", "--n", "8", "--p", "0.5", "--trials", "100",
                "--seed", "2", "--sweep", "--workers", "1"]),
    "poly": ({"pattern": "PATTERN", "n": 8, "p": 1, "mode": "check", "theorem": "upper-tail",
              "collapse": True, "anchor_role": 0, "anchor-vertex": 0, "eps": 0.3},
             ["--eps", "0.2"],
             ["--pattern", "PATTERN", "--n", "8", "--p", "1", "--mode", "check",
              "--theorem", "upper-tail", "--collapse", "--anchor-role", "0",
              "--anchor-vertex", "0", "--eps", "0.2"]),
    "regularity": ({"pattern": "PATTERN", "n": 12, "p": 0.8, "seed": 3, "eps": 0.5, "beta": 20},
                   ["--beta", "30"],
                   ["--pattern", "PATTERN", "--n", "12", "--p", "0.8", "--seed", "3",
                    "--eps", "0.5", "--beta", "30"]),
}


@pytest.mark.parametrize("command", sorted(CONFIG_CASES))
def test_config_file_matches_flags(command, k2_file, k3_file, tmp_path, capsys):
    pattern = k2_file if command in ("scan", "models") else k3_file
    file_values, overrides, flags = CONFIG_CASES[command]
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(
        {k: pattern if v == "PATTERN" else v for k, v in file_values.items()}
    ))
    code, from_file, _ = run_cli([command, "--config", str(config), *overrides], capsys)
    assert code == 0
    code, from_flags, _ = run_cli(
        [command, *(pattern if f == "PATTERN" else f for f in flags)], capsys
    )
    assert code == 0
    assert from_file == from_flags
    assert from_file


@pytest.mark.parametrize("command, switch", [("poly", "collapse"), ("models", "sweep")])
def test_config_switch_set_to_false_is_left_off(command, switch, k2_file, k3_file, tmp_path, capsys):
    # the bytes of the same file without the key, not an error on "--switch=False"
    pattern = k2_file if command == "models" else k3_file
    file_values = {k: pattern if v == "PATTERN" else v
                   for k, v in CONFIG_CASES[command][0].items() if k != switch}
    outputs = []
    for values in (file_values, {**file_values, switch: False}):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(values))
        code, out, err = run_cli([command, "--config", str(config)], capsys)
        assert (code, err) == (0, "")
        outputs.append(out)
    assert outputs[0] == outputs[1]
    assert outputs[0]


@pytest.mark.parametrize(
    "file_values",
    [{"format": "xml"}, {"n": "six"}, {"collapse": "no"}, {"pattern_path": "p.txt"},
     {"config": "other.json"}],
    ids=["format-choice", "n-type", "switch-value", "dest-name", "config-key"],
)
def test_config_file_values_pass_flag_checks(file_values, k3_file, tmp_path, capsys):
    # poly reads every flag named here, so none of the keys is skipped
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(file_values))
    code, out, err = run_cli(
        ["poly", "--pattern", k3_file, "--n", "6", "--p", "0.5", "--config", str(config)], capsys
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("command", ["martingale-check", "shearer"])
def test_battery_needs_a_trial(command, k2_file, capsys):
    code, out, err = run_cli(
        [command, "--pattern", k2_file, "--n", "6", "--trials", "0", "--p", "0.8"], capsys
    )
    assert code == 1
    assert out == ""
    assert "need at least one trial" in err


@pytest.mark.parametrize("mode", ["profile", "check", "trial"])
@pytest.mark.parametrize("image", ["999", "-5"])
def test_poly_anchor_image_outside_host(mode, image, k3_file, capsys):
    code, out, err = run_cli(
        ["poly", "--pattern", k3_file, "--n", "30", "--p", "0.1", "--mode", mode,
         "--anchor-role", "0", "--anchor-vertex", image], capsys
    )
    assert code == 1
    assert out == ""
    assert err == f"error: pin image {image} out of range\n"


def test_trace_rejects_negative_t_max(k2_file, capsys):
    code, out, err = run_cli(["trace", "--pattern", k2_file, "--n", "4", "--t-max", "-3"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


# a flag given an empty or zero value is still given: it is used, not read as absent
@pytest.mark.parametrize(
    "args",
    [["count", "--host", "", "--n", "4"],
     ["regularity", "--host", "", "--n", "8", "--p", "0.5"],
     ["scan", "--n", "0"],
     ["analyze", "--out", ""],
     ["count", "--n", "4", "--config", ""],
     ["analyze", "--pattern", ""],
     ["window", "--weights", ""]],
    ids=["count-empty-host", "regularity-empty-host", "scan-n-0", "analyze-empty-out",
         "count-empty-config", "analyze-empty-pattern", "window-empty-weights"],
)
def test_falsy_flag_value_is_not_ignored(args, k2_file, capsys):
    pattern = [] if args[0] == "window" else ["--pattern", k2_file]
    code, out, err = run_cli([args[0], *pattern, *args[1:]], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    if args[0] == "scan":
        assert err == "error: need n >= k, got n=0, k=2\n"
    if "" in args:
        # an empty path names its flag, not the current directory it would read as
        assert args[args.index("") - 1] in err and "Errno" not in err


# a flag the command cannot use is an error, not dropped: a host file fixes n,
# and a scan takes one n or a list
@pytest.mark.parametrize(
    "args, message",
    [(["count", "--host", "HOST6", "--n", "12"], "--n 12 does not match the 6 vertices of --host"),
     (["regularity", "--host", "HOST6", "--n", "40", "--p", "0.5"],
      "--n 40 does not match the 6 vertices of --host"),
     (["scan", "--n", "7", "--n-list", "12", "--trials", "2"],
      "scan takes only one of --n and --n-list")],
    ids=["count-host-n", "regularity-host-n", "scan-n-and-n-list"],
)
def test_unused_size_flag_is_an_error(args, message, k2_file, p6_file, capsys):
    args = [p6_file if a == "HOST6" else a for a in args]
    code, out, err = run_cli([args[0], "--pattern", k2_file, *args[1:], "--workers", "1"], capsys)
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


# the parser leaves these names to the layer that reads them, which lists the choices
@pytest.mark.parametrize(
    "args, message",
    [(["scan", "--n-list", "4", "--trials", "2", "--property", "bogus"], "unknown property 'bogus'"),
     (["poly", "--n", "6", "--p", "0.5", "--mode", "check", "--theorem", "bogus"],
      "unknown theorem 'bogus'")],
    ids=["scan-property", "poly-theorem"],
)
def test_unknown_choice_is_an_error(args, message, k2_file, capsys):
    code, out, err = run_cli([args[0], "--pattern", k2_file, *args[1:], "--workers", "1"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {message}; choose from (")
    assert err.count("\n") == 1


def test_host_file_with_matching_n(k2_file, p6_file, capsys):
    # a config file shared with sampled runs may carry n; the host's own n is accepted
    args = ["count", "--pattern", k2_file, "--host", p6_file]
    code, without_n, _ = run_cli(args, capsys)
    assert code == 0
    code, with_n, _ = run_cli(args + ["--n", "6"], capsys)
    assert code == 0
    assert with_n == without_n
    assert json.loads(with_n)["labeled"] == 8  # the one perfect matching, 2^3 labelings


MALFORMED = {
    "pattern-dir": ["analyze", "--pattern", "DIR"],
    "out-dir": ["analyze", "--pattern", "K3", "--out", "DIR"],
    "pattern-not-utf8": ["analyze", "--pattern", "LATIN1"],
    "window-weight": ["window", "--weights", "BAD_WEIGHT"],
    "weight-lemma-id": ["weight-lemma", "--weights", "BAD_ID", "--n", "6", "--v", "2"],
    "n-list": ["scan", "--pattern", "K3", "--n-list", "12,a"],
    "config-not-json": ["count", "--pattern", "K3", "--n", "6", "--config", "NOT_JSON"],
    "window-inf": ["window", "--weights", "INF_WEIGHT"],
    "window-nan": ["window", "--weights", "NAN_WEIGHT"],
    "weight-lemma-nan": ["weight-lemma", "--weights", "NAN_LEMMA", "--n", "6", "--v", "2"],
    "weight-lemma-bound-nan": ["weight-lemma", "--weights", "LEMMA", "--n", "6", "--v", "2",
                               "--B", "nan"],
    "weight-lemma-bound-negative": ["weight-lemma", "--weights", "LEMMA", "--n", "6", "--v", "2",
                                    "--B", "-1"],
    "weight-lemma-bound-inf": ["weight-lemma", "--weights", "LEMMA", "--n", "6", "--v", "2",
                               "--B", "inf"],
    "regularity-eps-nan": ["regularity", "--pattern", "K3", "--n", "6", "--p", "0.5", "--eps", "nan"],
    "poly-check-eps-nan": ["poly", "--pattern", "K3", "--n", "6", "--p", "0.5", "--mode", "check",
                           "--eps", "nan"],
    "trace-eps-nan": ["trace", "--pattern", "K3", "--n", "6", "--eps", "nan"],
    "trace-eps-negative": ["trace", "--pattern", "K3", "--n", "6", "--eps", "-1"],
    "trace-b-level-nan": ["trace", "--pattern", "K3", "--n", "6", "--b-level", "nan"],
    "count-closed-form-n-negative": ["count", "--pattern", "K3", "--n", "-3"],
    "models-n-negative": ["models", "--pattern", "K3", "--n", "-3", "--p", "0.5", "--trials", "2"],
    "models-p-nan": ["models", "--pattern", "K3", "--n", "6", "--p", "nan", "--trials", "2"],
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_is_an_error_line(case, k3_file, tmp_path):
    files = {"DIR": tmp_path, "K3": k3_file}
    for name, data in [("LATIN1", b"graph 3\n0 1 # caf\xe9\n"), ("BAD_WEIGHT", b"a,1.0\nb,x\n"),
                       ("BAD_ID", b"0,1,1.5\n0,b,1.5\n"), ("NOT_JSON", b'{"n": 6,}'),
                       ("INF_WEIGHT", b"a,1.0\nb,inf\n"), ("NAN_WEIGHT", b"a,1.0\nb,nan\n"),
                       ("NAN_LEMMA", b"0,1,nan\n"), ("LEMMA", b"0,1,1.0\n0,2,2.0\n")]:
        files[name] = tmp_path / name
        files[name].write_bytes(data)
    src = str(Path(hfactor.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "hfactor.cli", *(str(files.get(a, a)) for a in MALFORMED[case])],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


# each command's flags besides the shared ones (config, workers, out, format),
# a required one marked "!"; 11 commands take 4 * 11 + 59 = 103 flags in all
COMMAND_FLAGS = {
    "analyze": "pattern!",
    "count": "pattern! host n p M seed",
    "scan": "pattern! n n-list trials seed target property",
    "trace": "pattern! n! seed t-max eps b-level",
    "martingale-check": "pattern! n! p trials seed",
    "shearer": "pattern! n! p trials seed",
    "window": "weights!",
    "weight-lemma": "weights! n! v! B",
    "poly": "pattern! n! p! mode eps theorem trials seed anchor-role anchor-vertex collapse",
    "models": "pattern! n! p! trials seed sweep",
    "regularity": "pattern! host n p! eps beta seed",
}
SHARED_FLAGS = {"config", "workers", "out", "format"}
SWITCHES = {"collapse", "sweep"}


def _flag_args(flag):
    return [f"--{flag}"] if flag in SWITCHES else [f"--{flag}", "1"]


def _required_args(command):
    return [a for f in COMMAND_FLAGS[command].split() if f.endswith("!") for a in _flag_args(f[:-1])]


def _help_flags(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "-h"])
    assert exc.value.code == 0
    return set(re.findall(r"--[\w-]+", capsys.readouterr().out)) - {"--help"}


@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
def test_help_lists_exactly_the_command_flags(command, capsys):
    own = {f.rstrip("!") for f in COMMAND_FLAGS[command].split()}
    assert _help_flags(command, capsys) == {f"--{f}" for f in own | SHARED_FLAGS}


def test_accepted_command_flag_pairs(capsys):
    # every command accepted all 27 flags (297 pairs) before each declared its own
    assert cli._COMMANDS.keys() == COMMAND_FLAGS.keys()
    assert sum(len(_help_flags(c, capsys)) for c in cli._COMMANDS) == 103


@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
def test_flag_of_another_command_is_an_error(command, capsys):
    own = {f.rstrip("!") for f in COMMAND_FLAGS[command].split()} | SHARED_FLAGS
    foreign = {f.rstrip("!") for flags in COMMAND_FLAGS.values() for f in flags.split()} - own
    assert foreign
    for flag in sorted(foreign):
        code, out, err = run_cli([command, *_required_args(command), *_flag_args(flag)], capsys)
        assert (code, out) == (1, "")
        assert err == f"error: unrecognized arguments: {' '.join(_flag_args(flag))}\n"


@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
def test_missing_required_flag_is_an_error(command, capsys):
    required = [f[:-1] for f in COMMAND_FLAGS[command].split() if f.endswith("!")]
    for flag in required:
        args = [a for f in required if f != flag for a in _flag_args(f)]
        code, out, err = run_cli([command, *args], capsys)
        assert (code, out) == (1, "")
        assert err == f"error: the following arguments are required: --{flag}\n"


def test_abbreviated_flag_is_an_error(capsys):
    # otherwise a flag another command reads could pass as a prefix: --p as --pattern
    code, out, err = run_cli(["trace", "--pattern", "k3.txt", "--n", "6", "--see", "3"], capsys)
    assert (code, out, err) == (1, "", "error: unrecognized arguments: --see 3\n")


def test_regularity_needs_host_or_n(k3_file, capsys):
    code, out, err = run_cli(["regularity", "--pattern", k3_file, "--p", "0.5"], capsys)
    assert (code, out, err) == (1, "", "error: regularity needs --host or --n\n")


README = ROOT / "README.md"


def test_readme_cli_examples_parse():
    lines = [line.split("#")[0].split() for line in README.read_text().splitlines()
             if line.startswith("hfactor ")]
    assert len(lines) >= len(COMMAND_FLAGS)
    for argv in lines:
        assert cli.config_from_args(argv[1:]).command == argv[1]


def test_readme_flag_table_matches_parser():
    rows = {}
    for line in README.read_text().splitlines():
        cells = line.split("|")
        if len(cells) == 4 and cells[1].strip().strip("`") in COMMAND_FLAGS:
            rows[cells[1].strip().strip("`")] = " ".join(
                f.strip("*`").removeprefix("--") + ("!" if f.startswith("**") else "")
                for f in cells[2].replace(",", " ").split())
    assert rows == COMMAND_FLAGS


def test_shared_config_file_serves_several_commands(k2_file, tmp_path, capsys):
    # a key that only other commands read is skipped: trace reads none of p,
    # trials and sweep, and models reads no t-max
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"pattern": k2_file, "n": 8, "p": 0.5, "trials": 40, "seed": 3,
                                  "sweep": True, "t_max": 4, "workers": 1}))
    for command, flags in [("trace", ["--n", "8", "--seed", "3", "--t-max", "4"]),
                           ("models", ["--n", "8", "--p", "0.5", "--trials", "40", "--seed", "3",
                                       "--sweep"])]:
        code, from_file, _ = run_cli([command, "--config", str(config)], capsys)
        assert code == 0
        code, from_flags, _ = run_cli([command, "--pattern", k2_file, *flags, "--workers", "1"],
                                      capsys)
        assert code == 0
        assert from_file == from_flags


@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
def test_config_key_no_command_reads_is_an_error(command, tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"seed": 1, "sweeps": True}))
    code, out, err = run_cli([command, "--config", str(config)], capsys)
    assert (code, out, err) == (1, "", "error: unknown config key 'sweeps'\n")
