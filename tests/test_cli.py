import contextlib
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import chgeom.cli as cli
import chgeom.heisenberg as hb


def run_cli(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(args)
    return rc, out.getvalue(), err.getvalue()


def payload_of(args):
    rc, out, err = run_cli(args)
    assert rc == 0, err
    return json.loads(out)


def matrix_as_pairs(m):
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def without_timestamp(text):
    data = json.loads(text)
    data["meta"].pop("timestamp")
    return json.dumps(data, sort_keys=True)


def test_import_leaves_scipy_stats_and_special_unloaded():
    # every command is a fresh process; these two cost ~1 s of start-up
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, chgeom.cli; "
            "print([m for m in ('scipy.stats', 'scipy.special') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_classify_vertical_translation_preset():
    data = payload_of(["--command", "classify", "--preset", "cyclic-vertical"])
    result = data["results"][0]
    assert result["class"] == "parabolic"
    assert result["boundary_fixed_points"] == [{"at_infinity": True}]


def test_classify_identity_file(tmp_path):
    path = tmp_path / "ident.json"
    path.write_text(json.dumps([matrix_as_pairs(np.eye(3))]))
    data = payload_of(["--command", "classify", "--preset", str(path)])
    assert data["results"][0]["class"] == "identity"


def test_classify_flat_row_major_also_accepted(tmp_path):
    mat = hb.embed_dilation(np.exp(0.5)).matrix
    flat = [[float(z.real), float(z.imag)] for z in mat.reshape(-1)]
    path = tmp_path / "flat.json"
    path.write_text(json.dumps([flat]))
    data = payload_of(["--command", "classify", "--preset", str(path)])
    assert data["results"][0]["class"] == "loxodromic"


def test_classify_nonisometric_matrix_exits_2_with_defect(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([matrix_as_pairs(np.diag([1.0, 2.0, 1.0]))]))
    rc, out, err = run_cli(["--command", "classify", "--preset", str(path)])
    assert rc == 2
    info = json.loads(err)["error"]
    assert info["type"] == "FormViolationError"
    assert info["defect"] > 0
    assert out == ""


def test_classify_unparseable_file_exits_2(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    rc, out, err = run_cli(["--command", "classify", "--preset", str(path)])
    assert rc == 2


def test_dirichlet_cyclic_vertical_two_sides():
    data = payload_of(["--command", "dirichlet", "--preset", "cyclic-vertical",
                       "--radius", "4", "--rays", "300"])
    assert data["sides"] == ["A", "a"]
    assert data["rays"] == 300
    assert data["enum_radius"] == 4
    assert 0.0 < data["unbounded_ray_fraction"] < 1.0
    assert all(m > 0 for m in data["margins"].values())


def test_dirichlet_csv_projection():
    rc, out, err = run_cli(["--command", "dirichlet", "--preset",
                            "cyclic-vertical", "--radius", "3",
                            "--rays", "300", "--format", "csv"])
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "side,margin"
    assert len(lines) == 3


def test_dirichlet_generator_file(tmp_path):
    mat = hb.embed_translation(0.0, 1.0).matrix
    path = tmp_path / "gens.json"
    path.write_text(json.dumps([matrix_as_pairs(mat)]))
    data = payload_of(["--command", "dirichlet", "--preset", str(path),
                       "--radius", "3", "--rays", "300"])
    assert data["sides"] == ["A", "a"]


def test_dirichlet_degenerate_center_exits_3(tmp_path):
    mat = hb.embed_rotation(1j).matrix
    path = tmp_path / "rot.json"
    path.write_text(json.dumps([matrix_as_pairs(mat)]))
    rc, out, err = run_cli(["--command", "dirichlet", "--preset", str(path),
                            "--radius", "2", "--rays", "300"])
    assert rc == 3
    assert json.loads(err)["error"]["type"] == "DegenerateCenterError"
    assert out == ""


def test_bend_grid_zero_single_row():
    data = payload_of(["--command", "bend", "--eta-grid", "0", "--depth", "2"])
    assert len(data["rows"]) == 1
    row = data["rows"][0]
    assert row["eta"] == 0.0
    assert abs(row["cartan_alpha"]) < 1e-9
    assert row["probe_pass"] is True


def test_bend_csv_columns():
    rc, out, err = run_cli(["--command", "bend", "--eta-grid=-0.1,0,0.1",
                            "--depth", "2", "--format", "csv"])
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "eta,cartan_alpha,probe_pass,min_word_gap"
    assert len(lines) == 4
    etas = [float(line.split(",")[0]) for line in lines[1:]]
    assert etas == [-0.1, 0.0, 0.1]


def test_bend_empty_grid_exits_4():
    rc, out, err = run_cli(["--command", "bend", "--eta-grid", ""])
    assert rc == 4
    assert out == ""


def test_bend_eta_out_of_range_exits_4():
    rc, out, err = run_cli(["--command", "bend", "--eta-grid", "1.9"])
    assert rc == 4


def test_bend_svg(tmp_path):
    path = tmp_path / "sweep.svg"
    rc, out, err = run_cli(["--command", "bend", "--eta-grid=-0.1,0.1",
                            "--depth", "2", "--format", "svg",
                            "--out", str(path)])
    assert rc == 0
    text = path.read_text()
    assert text.startswith("<svg")
    assert "circle" in text
    assert "xi plane" in text


def test_orbit_lattice_points():
    data = payload_of(["--command", "orbit", "--preset", "z2-lattice",
                       "--depth", "2"])
    points = data["points"]
    assert len(points) == 13
    assert points[0]["word"] == ""
    assert points[0]["distance"] == 0.0
    for p in points:
        assert p["at_infinity"] is False
        assert p["u"] > 0
        assert len(p["xi_re"]) == 1


def test_limitset_fuchsian_real_circle():
    data = payload_of(["--command", "limitset", "--preset", "fuchsian",
                       "--depth", "5", "--radius", "3"])
    points = data["points"]
    assert len(points) > 200
    for p in points:
        assert abs(p["xi_im"][0]) < 1e-9
        assert abs(p["v"]) < 1e-9
        assert abs(p["xi_re"][0]) <= 3.0


def test_packing_two_sphere_certificate():
    data = payload_of(["--command", "packing", "--preset", "two-sphere"])
    assert data["passed"] is True
    assert data["min_margin"] > 0.5
    assert data["pairs_checked"] == 2


def test_profile_dilation_linear_csv():
    rc, out, err = run_cli(["--command", "profile", "--preset", "dilation",
                            "--depth", "5", "--format", "csv"])
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "length,dmin,dmax"
    for line in lines[1:]:
        length, dmin, dmax = line.split(",")
        assert abs(float(dmax) - int(length) * 1.0) < 1e-9


def test_profile_budget_exhaustion_exits_5():
    rc, out, err = run_cli(["--command", "profile", "--preset", "fuchsian",
                            "--depth", "28"])
    assert rc == 5
    info = json.loads(err)["error"]
    assert info["type"] == "BudgetExceededError"
    assert info["completed_radius"] < 28
    assert out == ""


def test_format_not_available_exits_2():
    rc, out, err = run_cli(["--command", "orbit", "--preset", "z2-lattice",
                            "--depth", "2", "--format", "csv"])
    assert rc == 2
    assert out == ""


def test_out_replaces_target_and_leaves_no_temp_file(tmp_path):
    target = tmp_path / "orbit.json"
    target.write_text("stale")
    rc, out, err = run_cli(["--command", "orbit", "--preset", "z2-lattice",
                            "--depth", "3", "--out", str(target)])
    assert rc == 0 and out == ""
    assert len(json.loads(target.read_text())["points"]) == 25
    assert list(tmp_path.iterdir()) == [target]


def test_out_write_failing_partway_leaves_no_file(tmp_path):
    # a 4 KiB file-size limit makes the ~6 KiB write fail after its first
    # block with EFBIG, as a full disk would
    target = tmp_path / "orbit.json"
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import resource, signal, sys\n"
        "import chgeom.cli as cli\n"
        "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
        "hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]\n"
        "resource.setrlimit(resource.RLIMIT_FSIZE, (4096, hard))\n"
        "sys.exit(cli.main(['--command', 'orbit', '--preset', 'z2-lattice',\n"
        f"                   '--depth', '3', '--out', {str(target)!r}]))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 2, proc.stderr
    assert json.loads(proc.stderr)["error"]["exit"] == 2
    assert proc.stdout == ""
    assert list(tmp_path.iterdir()) == []


def test_unknown_preset_exits_2():
    rc, out, err = run_cli(["--command", "dirichlet", "--preset", "nope"])
    assert rc == 2


def test_json_determinism_same_seed():
    args = ["--command", "dirichlet", "--preset", "z2-lattice",
            "--radius", "3", "--rays", "300", "--seed", "5"]
    _, first, _ = run_cli(args)
    _, second, _ = run_cli(args)
    assert without_timestamp(first) == without_timestamp(second)


def test_orbit_determinism_same_seed():
    args = ["--command", "orbit", "--preset", "z2-lattice", "--depth", "3"]
    _, first, _ = run_cli(args)
    _, second, _ = run_cli(args)
    assert without_timestamp(first) == without_timestamp(second)


def test_csv_fully_deterministic():
    args = ["--command", "profile", "--preset", "dilation", "--depth", "4",
            "--format", "csv"]
    _, first, _ = run_cli(args)
    _, second, _ = run_cli(args)
    assert first == second


def test_tol_env_var_and_flag(monkeypatch):
    monkeypatch.setenv(cli.TOL_ENV, "not-a-number")
    rc, out, err = run_cli(["--command", "dirichlet",
                            "--preset", "cyclic-vertical",
                            "--radius", "3", "--rays", "300"])
    assert rc == 2
    # an explicit flag overrides the environment
    rc, out, err = run_cli(["--command", "dirichlet",
                            "--preset", "cyclic-vertical",
                            "--radius", "3", "--rays", "300",
                            "--tol", "1e-6"])
    assert rc == 0
    monkeypatch.setenv(cli.TOL_ENV, "1e-8")
    rc, out, err = run_cli(["--command", "dirichlet",
                            "--preset", "cyclic-vertical",
                            "--radius", "3", "--rays", "300"])
    assert rc == 0


def test_out_file_not_written_on_error(tmp_path):
    target = tmp_path / "result.json"
    rc, out, err = run_cli(["--command", "dirichlet", "--preset", "nope",
                            "--out", str(target)])
    assert rc == 2
    assert not target.exists()


def test_out_file_written_on_success(tmp_path):
    target = tmp_path / "result.json"
    rc, out, err = run_cli(["--command", "packing", "--preset", "two-sphere",
                            "--out", str(target)])
    assert rc == 0
    assert out == ""
    data = json.loads(target.read_text())
    assert data["passed"] is True
