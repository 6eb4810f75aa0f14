import json
import warnings

import numpy as np
import pytest

from hetclust.cli import _default_beta, build_parser, main
from hetclust.experiments import STAT_CLUSTERING, run_mc
from hetclust.model import DenseWeights, model_from_json
from hetclust.theory import theoretical_moments

from conftest import er_model
from readme_outputs import (
    DECOMPOSE_COMMANDS,
    DENSE_COMMANDS,
    KERNEL_COMMANDS,
    RANK_ONE_COMMANDS,
    ROOT,
    compare_dirs,
    readme_commands,
)


def write_k4(path):
    path.write_text("n 4\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_stats_on_k4(tmp_path, capsys):
    edge = tmp_path / "k4.txt"
    write_k4(edge)
    code, out, _ = run_cli(capsys, ["stats", str(edge)])
    assert code == 0
    values = dict(line.split() for line in out.splitlines())
    assert float(values["avg_clustering"]) == 1.0
    assert float(values["weighted_triangles"]) == pytest.approx(4 / 27, rel=1e-15)


def test_theory_delegates_to_library(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys,
        ["theory", "--n", "120", "--alpha", "0.6", "--weights", "constant:1.0"],
    )
    assert code == 0
    printed = dict(line.split() for line in out.splitlines())
    m = er_model(120, alpha=0.6)
    mom = theoretical_moments(m)
    # 17-digit output round-trips to the library value exactly
    assert float(printed["sigma1_sq"]) == mom.sigma1_sq
    assert float(printed["v_sq"]) == mom.v_sq


def test_theory_json_output(tmp_path, capsys):
    out_file = tmp_path / "moments.json"
    code, _, _ = run_cli(
        capsys,
        [
            "theory",
            "--n",
            "50",
            "--alpha",
            "0.5",
            "--weights",
            "constant:0.9",
            "--out",
            str(out_file),
            "--dump-constants",
        ],
    )
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert "constants" in doc and len(doc["constants"]["a"]) == 50


def test_sample_then_stats_round_trip(tmp_path, capsys):
    edge = tmp_path / "g.txt"
    argv = [
        "sample",
        "--n",
        "40",
        "--alpha",
        "0.4",
        "--weights",
        "constant:1.0",
        "--seed",
        "9",
        "--out",
        str(edge),
    ]
    assert main(argv) == 0
    again = tmp_path / "g2.txt"
    assert main(argv[:-1] + [str(again)]) == 0
    assert edge.read_bytes() == again.read_bytes()
    code, out, _ = run_cli(capsys, ["stats", str(edge)])
    assert code == 0


def test_mc_byte_identical_reruns(tmp_path, capsys):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    base = [
        "mc",
        "--n",
        "30",
        "--alpha",
        "0.4",
        "--weights",
        "constant:1.0",
        "--stat",
        "clustering",
        "--replicates",
        "12",
        "--seed",
        "123",
        "--out",
    ]
    assert main(base + [str(out1)]) == 0
    capsys.readouterr()
    assert main(base + [str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    # and the CSV values equal the library's
    res = run_mc(er_model(30, alpha=0.4), STAT_CLUSTERING, 12, master_seed=123, workers=1)
    row = out1.read_text().splitlines()[1].split(",")
    assert float(row[1]) == res.values[0]


def test_mc_writes_into_directory_with_convention(tmp_path, capsys):
    code, _, _ = run_cli(
        capsys,
        [
            "mc",
            "--n",
            "25",
            "--alpha",
            "0.5",
            "--weights",
            "constant:1.0",
            "--stat",
            "triangles",
            "--replicates",
            "8",
            "--seed",
            "4",
            "--out",
            str(tmp_path),
            "--format",
            "json",
        ],
    )
    assert code == 0
    assert (tmp_path / "weighted_triangles_25_0.5_4.json").exists()


def test_phase_subcommand(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, stdout, _ = run_cli(
        capsys,
        ["phase", "--n", "200", "--alphas", "0.3,0.5,0.7", "--out", str(out)],
    )
    assert code == 0
    assert out.read_text().splitlines()[0] == "alpha,sigma1_sq,sigma2_sq,ratio,closed_sigma_sq"
    assert "ratio" in stdout


@pytest.mark.parametrize(
    "flags, message",
    [(["--c", "2"], "invalid model: beta=2.0 outside (0, 1]; constant weight c=2.0 outside (0, 1]"),
     (["--c", "nan"], "invalid model: beta=nan outside (0, 1]; constant weight c=nan outside (0, 1]"),
     (["--c", "0"], "invalid model: beta=0.0 outside (0, 1]; constant weight c=0.0 outside (0, 1]"),
     (["--n", "2"], "invalid model: node count n=2 must be an integer >= 3")],
)
def test_phase_invalid_model_is_one_line_error(tmp_path, capsys, flags, message):
    out = tmp_path / "s.csv"
    argv = ["phase", "--n", "100", "--alphas", "0.1,0.3", *flags, "--out", str(out)]
    code, stdout, err = run_cli(capsys, argv)
    assert code == 1
    assert stdout == ""
    assert err == f"error: {message}\n"
    assert not out.exists()


def test_readme_commands_parse():
    commands = readme_commands((ROOT / "README.md").read_text())
    assert [c.split()[1] for c in commands] == [
        "sample", "stats", "theory", "mc", "phase", "decompose", "oracle"
    ]
    parser = build_parser()
    fixed = RANK_ONE_COMMANDS + KERNEL_COMMANDS + DECOMPOSE_COMMANDS + DENSE_COMMANDS
    for command in commands + fixed:
        parser.parse_args(command.split()[1:])


def test_readme_outputs_compare(tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    files = {
        "same.csv": ("a,1.5\n", "a,1.5\n"),
        "m.json": ('{"n": 500, "x": [0.25, -1e-3]}', '{"n": 500, "x": [0.25, -1.0000000001e-3]}'),
        "stdout/00.txt": ("sha1 3f25e9\n", "sha1 3f26e9\n"),
        "gone.txt": ("1\n", None),
    }
    for name, texts in files.items():
        for root, text in zip((old, new), texts):
            if text is not None:
                (root / name).parent.mkdir(parents=True, exist_ok=True)
                (root / name).write_text(text)
    lines = compare_dirs(old, new)
    assert lines[0] == f"gone.txt: only in {old}"
    assert lines[1].startswith("m.json: ") and lines[1].endswith(
        "1 numbers changed, largest by 2e-16 of max |x| (1e-10 of its own value)")
    assert lines[2:] == ["same.csv: same", lines[3]]
    assert lines[3].startswith("stdout/00.txt: ") and lines[3].endswith(", text differs")


def test_decompose_subcommand(tmp_path, capsys):
    out = tmp_path / "dec.csv"
    code, stdout, _ = run_cli(
        capsys,
        [
            "decompose",
            "--n",
            "40",
            "--alpha",
            "0.7",
            "--weights",
            "constant:1.0",
            "--stat",
            "clustering",
            "--replicates",
            "20",
            "--seed",
            "3",
            "--out",
            str(out),
        ],
    )
    assert code == 0
    assert "correlation" in stdout


def test_decompose_constant_columns_is_one_line_error(tmp_path, capsys):
    # a subcritical model whose four replicates are all triangle-free: the
    # statistic and its leading term take one value each, so no correlation
    out = tmp_path / "x.json"
    argv = [
        "decompose", "--n", "20", "--alpha", "0.9", "--weights", "constant:0.5",
        "--stat", "triangles", "--replicates", "4", "--out", str(out), "--format", "json",
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, stdout, err = run_cli(capsys, argv)
    assert code == 1
    assert stdout == ""
    errors = [line for line in err.splitlines() if not line.startswith("warning:")]
    assert errors == [
        "error: the statistic or its leading term takes one value in all 4 replicates"
    ]
    assert not out.exists()


def test_oracle_subcommand(tmp_path, capsys):
    code, stdout, _ = run_cli(
        capsys,
        ["oracle", "--n", "4", "--alpha", "0.5", "--weights", "constant:1.0"],
    )
    assert code == 0
    doc = json.loads(stdout)
    assert doc["graph_count"] == 64


def test_model_file_source(tmp_path, capsys):
    cfg = {"n": 5, "alpha": 0.4, "beta": 0.5, "weights": {"kind": "rank1", "grid": [0.5, 1.0]}}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(cfg))
    code, stdout, _ = run_cli(capsys, ["oracle", "--model", str(path)])
    assert code == 0
    m = model_from_json(cfg)
    assert json.loads(stdout)["exact_mean_cc"] >= 0
    # model source is exclusive
    code, _, err = run_cli(
        capsys, ["oracle", "--model", str(path), "--n", "5", "--weights", "constant:1.0"]
    )
    assert code != 0
    assert "error:" in err


def test_invalid_model_is_one_line_error(capsys):
    code, _, err = run_cli(
        capsys,
        ["theory", "--n", "10", "--alpha", "1.5", "--weights", "constant:0.5"],
    )
    assert code != 0
    assert err.startswith("error:")
    assert len(err.strip().splitlines()) == 1


def test_subcritical_model_warns_but_proceeds(tmp_path, capsys):
    code, stdout, err = run_cli(
        capsys,
        [
            "sample",
            "--n",
            "4",
            "--alpha",
            "0.9",
            "--weights",
            "constant:0.1",
            "--out",
            str(tmp_path / "g.txt"),
        ],
    )
    assert code == 0
    assert "warning:" in err


def test_rank1_grid_weights_inline(capsys, tmp_path):
    code, stdout, _ = run_cli(
        capsys,
        [
            "theory",
            "--n",
            "60",
            "--alpha",
            "0.3",
            "--weights",
            "rank1:grid:0.5,1.0",
        ],
    )
    assert code == 0
    assert "v2_sq" in stdout


def test_dense_weights_from_csv(tmp_path, capsys):
    n = 5
    w = np.full((n, n), 0.8)
    np.fill_diagonal(w, 0.0)
    csv = tmp_path / "w.csv"
    np.savetxt(csv, w, delimiter=",")
    code, stdout, _ = run_cli(
        capsys,
        ["oracle", "--n", "5", "--alpha", "0.4", "--weights", f"dense:{csv}"],
    )
    assert code == 0


def test_dense_default_beta_is_smallest_off_diagonal_weight():
    w = np.full((5, 5), 0.8)
    w[1, 3] = w[3, 1] = 0.6
    np.fill_diagonal(w, 0.0)
    assert _default_beta(DenseWeights(w), 5) == 0.6


@pytest.mark.parametrize("beta", [[], ["--beta", "0.5"]])
def test_dense_weights_of_wrong_shape_is_one_line_error(tmp_path, capsys, beta):
    csv = tmp_path / "w.csv"
    np.savetxt(csv, np.full((40, 39), 0.8), delimiter=",")
    argv = ["theory", "--n", "40", "--alpha", "0.3", "--weights", f"dense:{csv}", *beta]
    code, out, err = run_cli(capsys, argv)
    assert code != 0
    assert out == ""
    assert err == "error: invalid model: dense weight matrix has shape (40, 39), expected (40, 40)\n"


def test_rank1_weights_from_file(tmp_path, capsys):
    wfile = tmp_path / "w.txt"
    wfile.write_text("\n".join(str(0.5 + 0.1 * (i % 5)) for i in range(40)))
    code, stdout, _ = run_cli(
        capsys,
        ["theory", "--n", "40", "--alpha", "0.3", "--weights", f"rank1:{wfile}"],
    )
    assert code == 0
    assert "sigma1_sq" in stdout


def test_model_file_missing_key_is_one_line_error(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"n": 50, "alpha": 0.4, "weights": {"kind": "constant", "c": 1.0}}))
    code, _, err = run_cli(capsys, ["theory", "--model", str(path)])
    assert code != 0
    assert err == f"error: {path}: model config lacks key 'beta'\n"


@pytest.mark.parametrize(
    "weights, message",
    [(5, "key 'weights' must be an object, got 5"),
     ({"kind": "rank1", "grid": 5}, "key 'grid' must be a two-number list, got 5"),
     # the message the inline rank1:grid:0.5 gives, with the file's path
     ({"kind": "rank1", "grid": [0.5]}, "key 'grid' must be a two-number list, got [0.5]"),
     ({"kind": "constant", "c": "abc"}, "key 'c' must be a number, got 'abc'"),
     ({"kind": "rank1", "w": None}, "key 'w' must be a list of numbers, got None")],
)
def test_model_file_malformed_weights_is_one_line_error(tmp_path, capsys, weights, message):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"n": 50, "alpha": 0.4, "beta": 0.5, "weights": weights}))
    code, _, err = run_cli(capsys, ["theory", "--model", str(path)])
    assert code != 0
    assert err == f"error: {path}: model config {message}\n"


@pytest.mark.parametrize(
    "flags, message",
    [(["--weights", "rank1:grid:0.5"], "model config key 'grid' must be a two-number list, got [0.5]"),
     (["--weights", "constant:abc"], "could not convert string to float: 'abc'"),
     (["--weights", "constant:0.3", "--beta", "0.5"],
      "invalid model: constant weight c=0.3 below beta=0.5"),
     (["--weights", "uniform:0.5"],
      "unknown weight spec 'uniform:0.5'; use constant:<c>, rank1:..., dense:<file>")],
)
def test_inline_weight_spec_is_one_line_error(tmp_path, capsys, flags, message):
    argv = ["sample", "--n", "10", "--alpha", "0.5", *flags, "--out", str(tmp_path / "g.txt")]
    code, out, err = run_cli(capsys, argv)
    assert code != 0
    assert out == ""
    assert err == f"error: {message}\n"
    assert not (tmp_path / "g.txt").exists()


@pytest.mark.parametrize("seed", ["-1", "340282366920938463463374607431768211457"])
def test_out_of_range_seed_is_one_line_error(tmp_path, capsys, seed):
    argv = ["sample", "--n", "20", "--alpha", "0.5", "--weights", "constant:1.0"]
    code, _, err = run_cli(capsys, argv + ["--seed", seed, "--out", str(tmp_path / "g.txt")])
    assert code != 0
    assert err == f"error: master_seed must lie in [0, 2**63), got {seed}\n"


@pytest.mark.parametrize("value", ["abc", "0", "-2"])
def test_bad_worker_env_is_one_line_error(tmp_path, capsys, monkeypatch, value):
    monkeypatch.setenv("HETCLUST_WORKERS", value)
    argv = ["mc", "--n", "30", "--alpha", "0.4", "--weights", "constant:1.0",
            "--stat", "clustering", "--replicates", "6", "--out", str(tmp_path / "run.csv")]
    code, _, err = run_cli(capsys, argv)
    assert code != 0
    assert err == f"error: HETCLUST_WORKERS must be a positive integer, got '{value}'\n"


@pytest.mark.parametrize(
    "text, expected",
    [("n 4\n0 1\n1 2 3\n", "3: expected two integer node indices, got '1 2 3'"),
     ("n 4\nx 1\n", "2: expected two integer node indices, got 'x 1'"),
     ("n four\n0 1\n", "1: malformed edge-list header 'n four', expected 'n <count>'"),
     ("n -2\n", "1: malformed edge-list header 'n -2', expected 'n <count>'")],
)
def test_malformed_edgelist_is_one_line_error(tmp_path, capsys, text, expected):
    path = tmp_path / "g.txt"
    path.write_text(text)
    code, out, err = run_cli(capsys, ["stats", str(path)])
    assert code != 0
    assert out == ""
    assert err == f"error: {path}:{expected}\n"


def test_stats_on_graph_with_no_nodes_is_one_line_error(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text("n 0\n")
    code, out, err = run_cli(capsys, ["stats", str(path)])
    assert code != 0
    assert out == ""
    assert err == "error: average clustering is undefined on a graph with no nodes\n"
