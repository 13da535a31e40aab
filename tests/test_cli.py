import json

import pytest

from hjnet.cli import main

from conftest import BOUQUET_SPEC, HONEYCOMB_SPEC

BOUQUET_HAM = [{"edge": "f1", "family": "quadratic"},
               {"edge": "f2", "family": "quadratic"}]
HONEY_HAM = [{"edge": "e0", "potential": {"cos": [-1.0]}},
             {"edge": "e1"}, {"edge": "e2"}]
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
                      ("honey_ham.json", HONEY_HAM),
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


def test_determinism(files):
    """Each beta row depends on its h only, not on the h queried before it."""
    hs = ["1,1", "3,-2", "0.5,0", "-1,0.25"]
    rows = []
    for name, order in [("fwd.csv", hs), ("rev.csv", hs[::-1])]:
        out = files["tmp"] / name
        assert main(["beta", "--graph", files["bouquet.json"],
                     "--hamiltonians", files["bouquet_ham.json"],
                     "--out", str(out)] + [f"--h={h}" for h in order]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "h_1,h_2,beta"
        rows.append(sorted(lines[1:]))
    assert rows[0] == rows[1]
    assert any(r.startswith("3,-2,") for r in rows[0])


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


def test_config_rejects_unknown_keys(files, capsys):
    cfg = files["tmp"] / "bad_cfg.json"
    cfg.write_text(json.dumps({"threads": 4, "hh": ["9,9"], "h": ["1,1"]}))
    assert main(["beta", "--graph", files["bouquet.json"],
                 "--hamiltonians", files["bouquet_ham.json"],
                 "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "'threads'" in err and "'hh'" in err and "'h'" not in err


def _homogenize_csv(files, capsys, *extra):
    assert main(["homogenize", "--graph", files["bouquet.json"],
                 "--hamiltonians", files["bouquet_ham.json"],
                 "--samples", "0.5,0.25@1.0", "--eps", "0.25", *extra]) == 0
    return capsys.readouterr().out


def test_config_sets_options_that_have_defaults(files, capsys):
    cfg = files["tmp"] / "cone.json"
    cfg.write_text(json.dumps({"datum": "cone", "c": 2.0}))
    assert (_homogenize_csv(files, capsys, "--config", str(cfg))
            == _homogenize_csv(files, capsys, "--datum", "cone", "--c", "2.0"))
    # an explicit flag beats the config
    assert (_homogenize_csv(files, capsys, "--config", str(cfg), "--c", "1.0")
            == _homogenize_csv(files, capsys, "--datum", "cone"))


def test_config_values_are_validated(files, capsys):
    cfg = files["tmp"] / "rotation.json"
    cfg.write_text(json.dumps({"rotation-radius": -1}))
    assert main(_bouquet_args(files, "action", "--x", "v", "--y", "v", "--T", "8",
                              "--h", "0,0", "--config", str(cfg))) == 2
    assert "rotation_radius must be >= 0" in capsys.readouterr().err


def test_beta_has_no_search_box(files):
    """beta is exact over R^b, so it takes no search box."""
    with pytest.raises(SystemExit) as exc:
        main(_bouquet_args(files, "beta", "--h", "1,1", "--search-box", "4"))
    assert exc.value.code == 2


def test_repeatable_flag_replaces_config_list(files, capsys):
    cfg = files["tmp"] / "h.json"
    cfg.write_text(json.dumps({"h": ["1,1"]}))
    assert main(["beta", "--graph", files["bouquet.json"],
                 "--hamiltonians", files["bouquet_ham.json"],
                 "--config", str(cfg), "--h", "2,0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2 and lines[1].startswith("2,0,")


def _bouquet_args(files, *rest):
    return [rest[0], "--graph", files["bouquet.json"],
            "--hamiltonians", files["bouquet_ham.json"], *rest[1:]]


def _rejects_dimension(files, capsys, argv, what):
    assert main(_bouquet_args(files, *argv)) == 2
    err = capsys.readouterr().err
    assert what in err and "wrong dimension (betti = 2)" in err


def test_beta_rejects_wrong_dimension(files, capsys):
    _rejects_dimension(files, capsys, ["beta", "--h", "1,2,3"], "h vector")
    _rejects_dimension(files, capsys, ["beta", "--h", "1,1", "--h", "1,2,3"],
                       "h vector")


def test_action_rejects_wrong_dimension(files, capsys):
    _rejects_dimension(files, capsys, ["action", "--x", "v", "--y", "v", "--T", "8",
                                       "--h", "1,2,3"], "h vector")


def test_asymptotics_rejects_wrong_dimension(files, capsys):
    _rejects_dimension(files, capsys, ["asymptotics", "--x", "v", "--y", "v",
                                       "--h-direction", "0.5", "--T-list", "2,4"],
                       "h direction")


def test_homogenize_rejects_wrong_dimension(files, capsys):
    _rejects_dimension(files, capsys, ["homogenize", "--samples", "0.5,0.25,1@1.0",
                                       "--eps", "0.25"], "sample h")
    _rejects_dimension(files, capsys, ["homogenize", "--datum", "linear",
                                       "--p-datum", "1,0,0", "--samples",
                                       "0.5,0.25@1.0", "--eps", "0.25"], "--p-datum")


@pytest.mark.parametrize("argv", [
    ["action", "--x", "v", "--y", "nope", "--T", "8", "--h", "1,0"],
    ["action", "--x", "nope", "--y", "v", "--T", "8", "--h", "1,0"],
    ["asymptotics", "--x", "v", "--y", "nope", "--h-direction", "0.5,0",
     "--T-list", "2"],
    ["asymptotics", "--x", "nope", "--y", "v", "--h-direction", "0.5,0",
     "--T-list", "2"],
])
def test_unknown_vertex_is_named(files, capsys, argv):
    assert main(_bouquet_args(files, *argv)) == 2
    assert "unknown base vertex 'nope'" in capsys.readouterr().err


def test_homogenize_rejects_sample_without_time(files, capsys):
    assert main(_bouquet_args(files, "homogenize", "--samples", "0.5,0.25",
                              "--eps", "0.25,0.125")) == 2
    assert "--samples entry '0.5,0.25'" in capsys.readouterr().err


def test_homogenize_rejects_empty_eps_list(files, capsys):
    out = files["tmp"] / "empty_eps.csv"
    assert main(_bouquet_args(files, "homogenize", "--samples", "0.5,0.25@1",
                              "--eps", "", "--out", str(out))) == 2
    assert "eps_list must not be empty" in capsys.readouterr().err
    assert not out.exists()


def test_asymptotics_rejects_empty_T_list(files, capsys):
    assert main(_bouquet_args(files, "asymptotics", "--x", "v", "--y", "v",
                              "--h-direction", "0.5,0", "--T-list", "")) == 2
    assert "--T-list" in capsys.readouterr().err


@pytest.mark.parametrize("radius", ["-1", "0"])
def test_homogenize_rejects_nonpositive_radius(files, capsys, radius):
    """The search ball is derived, so homogenize takes no --radius at all."""
    with pytest.raises(SystemExit) as exc:
        main(_bouquet_args(files, "homogenize", "--samples", "0.5,0.25@1",
                           "--eps", "0.25,0.125", f"--radius={radius}"))
    assert exc.value.code == 2
    assert "unrecognized arguments: --radius" in capsys.readouterr().err


def _tabulated_args(files, datum):
    path = files["tmp"] / "datum.json"
    path.write_text(json.dumps(datum))
    return _bouquet_args(files, "homogenize", "--datum", "tabulated",
                         "--datum-file", str(path), "--samples", "0.5,0.25@1",
                         "--eps", "0.25")


def test_homogenize_rejects_tabulated_anchor_dimension(files, capsys):
    # 1-D anchors would broadcast against the 2-D h of the bouquet
    datum = {"anchors": [[0.0], [1.0]], "values": [0.0, 1.0], "lipschitz": 1.0}
    assert main(_tabulated_args(files, datum)) == 2
    err = capsys.readouterr().err
    assert "--datum-file anchor" in err and "wrong dimension (betti = 2)" in err


@pytest.mark.parametrize("datum, what", [
    ({"anchors": [[0.0, 0.0], [1.0, 0.0]], "values": [0.0], "lipschitz": 1.0},
     "one value each"),
    ({"anchors": [], "values": [], "lipschitz": 1.0}, "one value each"),
    ({"anchors": [[0.0, 0.0]], "values": [0.0], "lipschitz": -1.0},
     "Lipschitz bound -1.0"),
])
def test_homogenize_rejects_malformed_tabulated_datum(files, capsys, datum, what):
    assert main(_tabulated_args(files, datum)) == 2
    assert what in capsys.readouterr().err


def test_homogenize_tabulated_datum(files, capsys):
    datum = {"anchors": [[0.0, 0.0], [1.0, 0.0]], "values": [0.0, 0.5],
             "lipschitz": 1.0}
    assert main(_tabulated_args(files, datum)) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "eps,h_1,h_2,t,u_eps,u_limit,abs_error"
    assert lines[1].startswith("0.25,0.5,0.25,1,")


@pytest.mark.parametrize("flag, value, what", [
    ("--window", "-1", "window W = -1"),
    ("--arc-samples", "1", "at least two samples, not 1"),
    ("--arc-samples", "0", "at least two samples, not 0"),
])
def test_embed_rejects_bad_window_and_samples(files, capsys, flag, value, what):
    argv = ["embed", "--graph", files["honeycomb.json"],
            "--embedding", files["emb.json"], "--window", "1", flag, value]
    assert main(argv) == 2
    assert what in capsys.readouterr().err


HOMOGENIZE = ["homogenize", "--samples", "0.5,0.25@1", "--eps", "0.25"]


@pytest.mark.parametrize("argv, flag", [
    (["effective-hamiltonian", "--p", "nan,0"], "--p"),
    (["effective-hamiltonian", "--p", "inf,0"], "--p"),
    (["effective-hamiltonian", "--p-grid", "nan", "1", "3"], "--p-grid"),
    (["beta", "--h", "nan,0.25"], "--h"),
    (["action", "--x", "x1", "--y", "x1", "--T", "nan", "--h", "0,0"], "--T"),
    (["action", "--x", "x1", "--y", "x1", "--T", "inf", "--h", "0,0"], "--T"),
    (["homogenize", "--samples", "0.5,0.25@nan", "--eps", "0.25"], "--samples"),
    (["homogenize", "--samples", "0.5,0.25@1", "--eps", "0.25,nan"], "--eps"),
    (HOMOGENIZE + ["--datum", "cone", "--c", "nan"], "--c"),
    (HOMOGENIZE + ["--datum", "linear", "--p-datum", "nan,0"], "--p-datum"),
    (["asymptotics", "--x", "x1", "--y", "x1", "--h-direction", "0.5,0",
      "--T-list", "8,nan"], "--T-list"),
], ids=["p-nan", "p-inf", "p-grid-nan", "h-nan", "T-nan", "T-inf", "samples-t-nan",
        "eps-nan", "c-nan", "p-datum-nan", "T-list-nan"])
def test_rejects_non_finite_numbers(files, capsys, argv, flag):
    """Each number is checked where it is parsed: exit 2, naming its flag."""
    assert main([argv[0], "--graph", files["honeycomb.json"],
                 "--hamiltonians", files["honey_ham.json"], *argv[1:]]) == 2
    assert flag in capsys.readouterr().err


def test_config_numbers_must_be_finite(files, capsys):
    cfg = files["tmp"] / "nan.json"
    cfg.write_text('{"datum": "cone", "c": NaN}')
    assert main(_bouquet_args(files, *HOMOGENIZE, "--config", str(cfg))) == 2
    assert "--c nan is not a finite number" in capsys.readouterr().err
