import json

import pytest

from hjnet.cli import main

from conftest import BOUQUET_SPEC, HONEYCOMB_SPEC

BOUQUET_HAM = [{"edge": "f1", "family": "quadratic"},
               {"edge": "f2", "family": "quadratic"}]
HONEY_EMB = {
    "vertices": {"x1": [0.0, 0.0], "x2": [1.0, 0.0]},
    "arcs": {
        "e0": [[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]],
        "e1": [[0.0, 0.0], [0.5, 0.4], [1.0, 0.0]],
        "e2": [[0.0, 0.0], [0.5, -0.4], [1.0, 0.0]],
    },
}


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, obj in [("bouquet.json", BOUQUET_SPEC),
                      ("honeycomb.json", HONEYCOMB_SPEC),
                      ("bouquet_ham.json", BOUQUET_HAM),
                      ("emb.json", HONEY_EMB)]:
        p = tmp_path / name
        p.write_text(json.dumps(obj))
        paths[name] = str(p)
    paths["tmp"] = tmp_path
    return paths


def test_betti_command(files, capsys):
    assert main(["betti", "--graph", files["honeycomb.json"]]) == 0
    assert capsys.readouterr().out.strip() == "betti 2"
    assert main(["betti", "--graph", files["bouquet.json"]]) == 0
    assert capsys.readouterr().out.strip() == "betti 2"


def test_theta_command(files, capsys):
    out_path = files["tmp"] / "theta.json"
    assert main(["theta", "--graph", files["honeycomb.json"],
                 "--out", str(out_path)]) == 0
    text = capsys.readouterr().out
    assert "theta[e1] = (1, 0)" in text
    data = json.loads(out_path.read_text())
    assert data["betti"] == 2
    assert data["theta"]["e2"] == [0, 1]


def test_malformed_json_exits_2(files, capsys):
    bad = files["tmp"] / "bad.json"
    bad.write_text("{not json")
    assert main(["betti", "--graph", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_file_exits_2(capsys):
    assert main(["betti", "--graph", "/nonexistent/g.json"]) == 2


def test_effective_hamiltonian_values(files, capsys):
    assert main(["effective-hamiltonian", "--graph", files["bouquet.json"],
                 "--hamiltonians", files["bouquet_ham.json"],
                 "--p", "1,0", "--p", "0,0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "p_1,p_2,H_eff"
    assert float(lines[1].split(",")[-1]) == pytest.approx(0.5, abs=1e-6)
    assert float(lines[2].split(",")[-1]) == pytest.approx(0.0, abs=1e-9)


def test_effective_hamiltonian_grid_row_count(files):
    out = files["tmp"] / "grid.csv"
    assert main(["effective-hamiltonian", "--graph", files["bouquet.json"],
                 "--hamiltonians", files["bouquet_ham.json"],
                 "--p-grid", "-2", "2", "21", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 1 + 441


def test_beta_command(files, capsys):
    assert main(["beta", "--graph", files["bouquet.json"],
                 "--hamiltonians", files["bouquet_ham.json"],
                 "--h", "1,1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "h_1,h_2,beta"
    assert float(lines[1].split(",")[-1]) == pytest.approx(2.0, abs=1e-5)


def test_action_command(files, capsys):
    assert main(["action", "--graph", files["bouquet.json"],
                 "--hamiltonians", files["bouquet_ham.json"],
                 "--x", "v", "--y", "v", "--T", "8", "--h", "4,0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "x,y,T,h_1,h_2,phi,phi_over_T"
    assert float(lines[1].split(",")[-2]) == pytest.approx(1.0, abs=1e-7)


def test_asymptotics_schema(files, capsys):
    assert main(["asymptotics", "--graph", files["bouquet.json"],
                 "--hamiltonians", files["bouquet_ham.json"],
                 "--x", "v", "--y", "v", "--h-direction", "0.5,0",
                 "--T-list", "2,4"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "T,h_1,h_2,phi_over_T,beta,deviation"
    assert len(lines) == 3


def test_determinism_and_threads(files):
    args = ["effective-hamiltonian", "--graph", files["bouquet.json"],
            "--hamiltonians", files["bouquet_ham.json"],
            "--p-grid", "-1", "1", "5", "--seed", "7"]
    outs = []
    for name, extra in [("a.csv", []), ("b.csv", []), ("c.csv", ["--threads", "2"])]:
        out = files["tmp"] / name
        assert main(args + ["--out", str(out)] + extra) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_homogenize_zero_datum(files, capsys):
    out = files["tmp"] / "homog.csv"
    summary = files["tmp"] / "summary.json"
    assert main(["homogenize", "--graph", files["bouquet.json"],
                 "--hamiltonians", files["bouquet_ham.json"],
                 "--datum", "zero", "--samples", "0.5,0.25@1.0",
                 "--eps", "0.25,0.125", "--out", str(out),
                 "--summary", str(summary)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "eps,h_1,h_2,t,u_eps,u_limit,abs_error"
    for line in lines[1:]:
        assert float(line.split(",")[-1]) < 1e-9
    data = json.loads(summary.read_text())
    assert len(data["sup_error_per_eps"]) == 2


def test_homogenize_single_eps(files):
    out = files["tmp"] / "single.csv"
    assert main(["homogenize", "--graph", files["bouquet.json"],
                 "--hamiltonians", files["bouquet_ham.json"],
                 "--datum", "zero", "--samples", "0.5,0.2@1.0",
                 "--eps", "0.1", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 2 and lines[1].startswith("0.1,")


def test_embed_command(files):
    out = files["tmp"] / "window.json"
    assert main(["embed", "--graph", files["honeycomb.json"],
                 "--embedding", files["emb.json"], "--window", "1",
                 "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["dimension"] == 4
    assert len(data["vertices"]) == 18  # 2 vertices x 9 lattice cells


def test_config_file_defaults(files, capsys):
    cfg = files["tmp"] / "cfg.json"
    cfg.write_text(json.dumps({"h": ["1,1"]}))
    assert main(["beta", "--graph", files["bouquet.json"],
                 "--hamiltonians", files["bouquet_ham.json"],
                 "--config", str(cfg)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert float(lines[1].split(",")[-1]) == pytest.approx(2.0, abs=1e-5)
