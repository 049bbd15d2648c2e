import ast
import builtins
import contextlib
import gc
import io
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import chgeom.cli as cli
import chgeom.core as core
import chgeom.errors as errors
import chgeom.groups as gr
import chgeom.heisenberg as hb
import chgeom.presets as ps


def run_cli(args):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(args)
    finally:
        gc.unfreeze()  # main freezes the collector for a process that then exits
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


def fresh_process(code, *args, blas_threads=None):
    """The completed run of `code`, given args, by a new interpreter that
    imports this source tree, with OPENBLAS_NUM_THREADS set to blas_threads
    or unset."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True)


def fresh_process_output(code, *args, blas_threads=None):
    """stdout of a fresh_process run, which must exit 0."""
    run = fresh_process(code, *args, blas_threads=blas_threads)
    run.check_returncode()
    return run.stdout.strip()


def test_import_leaves_scipy_stats_and_special_unloaded():
    # every command is a fresh process; these two cost ~1 s of start-up
    code = ("import sys, chgeom.cli; "
            "print([m for m in ('scipy.stats', 'scipy.special') if m in sys.modules])")
    assert fresh_process_output(code) == "[]"


def test_censuses_load_neither_scipy_nor_numpy_ma():
    # the census maps Halton points to rays without numpy.random and lists
    # sides without np.unique, whose first call imports numpy.ma
    code = (
        "import contextlib, io, sys\n"
        "import chgeom.cli as cli, chgeom.dirichlet as dm, chgeom.presets as ps\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = cli.main(['--command', 'dirichlet', '--preset', 'z2-lattice',\n"
        "                   '--radius', '3', '--rays', '300'])\n"
        "dm.pullback_domain_sides(ps.group_preset('cyclic-vertical'),\n"
        "                         'vertical-axis', 1.0, 3)\n"
        "print(rc, [m for m in sys.modules\n"
        "           if (m + '.').startswith(('scipy.', 'numpy.ma.', 'numpy.random.'))])\n"
    )
    assert fresh_process_output(code) == "0 []"


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs VmHWM")
def test_budget_limited_profile_holds_only_what_the_ball_keeps():
    # a level's candidates are hashed, not stored, the level that would
    # overflow the budget is never built, and the last level that fits is
    # decided but not stored, as the raised error would discard it.  Each
    # process reads its own peak RSS, VmHWM: ru_maxrss would keep the
    # spawning process's peak
    code = ("import contextlib, io, sys, chgeom.cli as cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    rc = cli.main(['--command', 'profile', '--preset', 'fuchsian',\n"
            "                   '--depth', sys.argv[1]])\n"
            "status = open('/proc/self/status').read()\n"
            "print(rc, status.split('VmHWM:')[1].split()[0])\n")
    (rc2, small), (rc28, large) = (fresh_process_output(code, depth).split()
                                   for depth in ("2", "28"))
    assert (rc2, rc28) == ("0", "5")
    # MB; 58 when levels were stored whole, 33 while the last level was built
    assert (int(large) - int(small)) / 1024 <= 30


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


def test_classify_cube_of_a_schottky_generator(tmp_path):
    # the eigen-cluster classifier read a^3 as borderline and exited 3
    a = ps.group_preset("schottky").isometries[0].matrix
    path = tmp_path / "cube.json"
    path.write_text(json.dumps([matrix_as_pairs(np.linalg.matrix_power(a, 3))]))
    result = payload_of(["--command", "classify", "--preset", str(path)])["results"][0]
    assert result["class"] == "loxodromic"
    assert len(result["boundary_fixed_points"]) == 2


def test_classify_conjugated_vertical_translation_prints_a_null_point(tmp_path):
    # the point printed u = -1.37e-6, which HoroPoint rejects
    g = (hb.embed_translation(0.3 + 0.2j, 0.7) @ hb.embed_dilation(np.exp(6.0))
         @ hb.inversion_matrix())
    m = g @ hb.embed_translation(0.0, 1.0) @ g.inverse()
    path = tmp_path / "conjugated.json"
    path.write_text(json.dumps([matrix_as_pairs(m.matrix)]))
    result = payload_of(["--command", "classify", "--preset", str(path)])["results"][0]
    assert result["class"] == "parabolic"
    (point,) = result["boundary_fixed_points"]
    assert point["u"] >= 0.0
    xi = np.add(point["xi_re"], np.multiply(1j, point["xi_im"]))
    horo = hb.HoroPoint(xi, point["v"], point["u"])
    fixed = hb.horo_to_projective(horo)
    assert core.projective_lift_gap(
        fixed.lift, core.projective_apply(g, core.infinity_point()).lift) <= 1.2e-6


def test_classify_runs_one_trace_class_and_one_eigvals_per_matrix(monkeypatch):
    calls = []
    real_trace, real_eigvals = core._trace_class, np.linalg.eigvals

    def trace_class(mat):
        calls.append(("trace", mat.tobytes()))
        return real_trace(mat)

    def eigvals(mat):
        calls.append(("eigvals", np.asarray(mat).tobytes()))
        return real_eigvals(mat)

    monkeypatch.setattr(core, "_trace_class", trace_class)
    monkeypatch.setattr(np.linalg, "eigvals", eigvals)
    results = payload_of(["--command", "classify", "--preset", "schottky"])["results"]
    assert [r["class"] for r in results] == ["loxodromic", "loxodromic"]
    mats = [iso.matrix.tobytes() for iso in ps.group_preset("schottky").isometries]
    assert [kind for kind, _ in calls].count("trace") == len(mats)
    for mat in mats:
        assert calls.count(("trace", mat)) == calls.count(("eigvals", mat)) == 1


def test_classify_4x4_file_exits_2_with_dimension_error(tmp_path):
    path = tmp_path / "n3.json"
    mat = hb.embed_dilation(np.exp(0.5), n=3).matrix
    path.write_text(json.dumps([matrix_as_pairs(mat)]))
    rc, out, err = run_cli(["--command", "classify", "--preset", str(path)])
    assert rc == 2 and out == ""
    assert json.loads(err)["error"]["type"] == "DimensionError"


@pytest.mark.parametrize("command,sizes", [
    ("orbit", (2, 3)), ("dirichlet", (2, 3)), ("limitset", (3,)),
])
def test_group_file_of_mismatched_dimension_exits_2(tmp_path, command, sizes):
    # generators of different sizes, or n = 3 generators for the n = 2
    # boundary seeds of limitset
    path = tmp_path / "gens.json"
    path.write_text(json.dumps([matrix_as_pairs(hb.embed_dilation(2.0, n=n).matrix)
                                for n in sizes]))
    rc, out, err = run_cli(["--command", command, "--preset", str(path),
                            "--radius", "2", "--rays", "100", "--depth", "2"])
    assert rc == 2 and out == ""
    assert json.loads(err)["error"]["type"] == "DimensionError"


def test_classify_nonisometric_matrix_exits_2_with_defect(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([matrix_as_pairs(np.diag([1.0, 2.0, 1.0]))]))
    rc, out, err = run_cli(["--command", "classify", "--preset", str(path)])
    assert rc == 2
    info = json.loads(err)["error"]
    assert info["type"] == "FormViolationError"
    assert info["defect"] > 0
    assert out == ""


def test_classify_file_dimension_must_match_n(tmp_path):
    # classify shares the resolver of the other commands, --n check included
    path = tmp_path / "gens.json"
    path.write_text(json.dumps([matrix_as_pairs(np.eye(3))]))
    rc, out, err = run_cli(["--command", "classify", "--preset", str(path),
                            "--n", "3"])
    assert rc == 2 and out == ""
    assert "--n 3" in json.loads(err)["error"]["message"]
    data = payload_of(["--command", "classify", "--preset", str(path), "--n", "2"])
    assert data["results"][0]["class"] == "identity"


@pytest.mark.parametrize("command,extra", [
    ("classify", ["--preset", "schottky"]),
    ("orbit", ["--preset", "schottky", "--depth", "2"]),
    ("packing", ["--preset", "two-sphere"]),
    ("bend", ["--preset", "hnn-bend", "--eta-grid", "0", "--depth", "2"]),
])
def test_n_checked_against_bundled_presets(command, extra):
    args = ["--command", command] + extra
    rc, out, err = run_cli(args + ["--n", "3"])
    assert rc == 2 and out == ""
    assert "--n 3" in json.loads(err)["error"]["message"]
    rc, out, err = run_cli(args + ["--n", "2"])
    assert rc == 0, err


def test_classify_takes_more_matrices_than_generator_labels(tmp_path):
    path = tmp_path / "many.json"
    mat = matrix_as_pairs(hb.embed_dilation(np.exp(0.5)).matrix)
    path.write_text(json.dumps([mat] * 30))
    data = payload_of(["--command", "classify", "--preset", str(path)])
    assert [r["class"] for r in data["results"]] == ["loxodromic"] * 30
    rc, _, err = run_cli(["--command", "orbit", "--preset", str(path)])
    assert rc == 2 and "labeling" in json.loads(err)["error"]["message"]


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


@pytest.mark.parametrize("flag,value", [("--seed", "-1"), ("--radius", "nan"),
                                        ("--radius", "inf"), ("--radius", "2.5"),
                                        ("--rays", "99"), ("--rays", "0")])
def test_dirichlet_bad_numeric_flag_exits_2(flag, value):
    rc, out, err = run_cli(["--command", "dirichlet", "--preset", "z2-lattice",
                            "--rays", "300", flag, value])
    assert rc == 2, err
    assert json.loads(err)["error"]["type"] == "InputError"
    assert out == ""


_PRESET_OF = {"classify": "schottky", "dirichlet": "z2-lattice",
              "bend": "hnn-bend", "orbit": "z2-lattice", "limitset": "fuchsian",
              "packing": "two-sphere", "profile": "dilation"}


@pytest.mark.parametrize("flag,value", [
    ("--radius", "nan"), ("--radius", "inf"), ("--radius", "0"),
    ("--radius", "-1"), ("--zeta", "nan"), ("--zeta", "-inf"),
    ("--seed", "-1"), ("--rays", "99"), ("--depth", "0"),
])
@pytest.mark.parametrize("command", cli.COMMANDS)
def test_bad_numeric_flag_exits_2_in_every_command(command, flag, value):
    # checked before dispatch, whether or not the command reads the flag
    rc, out, err = run_cli(["--command", command, "--preset", _PRESET_OF[command],
                            f"{flag}={value}"])
    assert rc == 2 and out == "", err
    info = json.loads(err)["error"]
    assert info["type"] == "InputError"
    assert info["message"].startswith(flag)


def test_valid_unread_flags_are_ignored():
    # every CLI benchmark step gets --seed, whether or not it reads it
    args = ["--command", "profile", "--preset", "dilation", "--depth", "3"]
    want = payload_of(args)["rows"]
    got = payload_of(args + ["--seed", "7", "--rays", "100", "--radius", "2.5",
                             "--zeta", "0.3"])["rows"]
    assert got == want


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1"])
@pytest.mark.parametrize("command,extra", [
    ("dirichlet", ["--preset", "z2-lattice", "--radius", "2", "--rays", "300"]),
    ("bend", ["--depth", "2"]),
])
def test_tol_must_be_finite_and_nonnegative(monkeypatch, command, extra, value):
    # nan once gave dirichlet no sides and bend no passing probe, with exit 0
    args = ["--command", command] + extra
    for source in ("--tol", cli.TOL_ENV):
        if source == "--tol":
            rc, out, err = run_cli(args + [f"--tol={value}"])
        else:
            monkeypatch.setenv(cli.TOL_ENV, value)
            rc, out, err = run_cli(args)
        assert rc == 2 and out == "", err
        info = json.loads(err)["error"]
        assert info["type"] == "InputError"
        assert info["message"].startswith(f"{source} must be finite")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("flag", ["--zeta", "--eta-grid"])
def test_bend_nonfinite_angle_exits_2(flag, value):
    rc, out, err = run_cli(["--command", "bend", "--depth", "2",
                            f"{flag}={value}"])
    assert rc == 2 and out == "", err
    info = json.loads(err)["error"]
    assert info["type"] == "InputError"
    assert info["message"].startswith(f"{flag} must be finite")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0"])
def test_limitset_bad_radius_exits_2(value):
    rc, out, err = run_cli(["--command", "limitset", "--preset", "fuchsian",
                            "--depth", "2", f"--radius={value}"])
    assert rc == 2 and out == "", err
    assert json.loads(err)["error"]["type"] == "InputError"


@pytest.mark.parametrize("command", ["bend", "orbit", "limitset", "profile"])
@pytest.mark.parametrize("depth", ["0", "-1"])
def test_depth_below_1_exits_2(command, depth):
    preset = [] if command == "bend" else ["--preset", "fuchsian"]
    rc, out, err = run_cli(["--command", command, "--depth", depth] + preset)
    assert rc == 2 and out == "", err
    info = json.loads(err)["error"]
    assert info == {"type": "InputError", "message": "--depth must be >= 1",
                    "exit": 2}


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


# --- per-point reference for the columnar orbit payload ------------------
# The payload code that whole-column conversion replaced, kept verbatim with
# the scalar horospherical map it called.


def ref_projective_to_horo(p, tol=1e-12):
    z = p.lift
    k = z.shape[0] - 2
    c = z[k] + z[k + 1]
    if abs(c) <= tol * np.max(np.abs(z)):
        raise errors.PointAtInfinityError("the point at infinity")
    z = z / c
    xi = z[:k]
    u = -float(np.real(core.herm_inner(z, z)))
    v = float(np.imag(z[k] - z[k + 1]))
    if -1e-9 < u < 0.0:
        u = 0.0
    return hb.HoroPoint(xi, v, u)


def ref_point_payload(point):
    if point.projectively_equal(core.infinity_point(point.lift.shape[0] - 1)):
        return {"at_infinity": True}
    horo = ref_projective_to_horo(point)
    return {
        "at_infinity": False,
        "xi_re": [float(x) for x in horo.xi.real],
        "xi_im": [float(x) for x in horo.xi.imag],
        "v": float(horo.v),
        "u": float(horo.u),
    }


@pytest.mark.parametrize("preset,depth", [("z2-lattice", 3), ("fuchsian", 8),
                                          ("schottky", 7)])
def test_orbit_payload_matches_per_point_reference(preset, depth):
    points = payload_of(["--command", "orbit", "--preset", preset,
                         "--depth", str(depth)])["points"]
    orbit = gr.orbit_enumerate(ps.group_preset(preset), depth, core.ball_origin())
    assert len(points) == len(orbit)
    for got, word, length, lift, dist in zip(points, orbit.words, orbit.word_lengths,
                                             orbit.lifts, orbit.distances):
        want = ref_point_payload(core.ProjectivePoint(lift))
        want.update(word=word, word_length=int(length), distance=float(dist))
        # the stacked form norm may round u differently, where u is noise
        u, ref_u = got.pop("u"), want.pop("u")
        assert abs(u - ref_u) <= 1e-12 * (1 + sum(x * x for x in got["xi_re"]
                                                  + got["xi_im"]))
        assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)


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


_ENDING_IN = {
    0: ["--command", "orbit", "--preset", "z2-lattice", "--depth", "3"],
    2: ["--command", "orbit", "--preset", "z2-lattice", "--depth", "three"],
    5: ["--command", "profile", "--preset", "fuchsian", "--depth", "28"],
}


@pytest.mark.parametrize("exit_code", sorted(_ENDING_IN))
def test_main_freezes_the_collector_before_any_exit(exit_code):
    # the collection at interpreter exit skips what import made only if the
    # freeze comes before anything that can end the run, argparse included;
    # importing chgeom.cli alone leaves the collector as it was
    code = ("import contextlib, gc, io, sys\n"
            "import chgeom.cli as cli\n"
            "before = gc.get_freeze_count()\n"
            "with contextlib.redirect_stdout(io.StringIO()), \\\n"
            "        contextlib.redirect_stderr(io.StringIO()):\n"
            "    try:\n"
            "        rc = cli.main(sys.argv[1:])\n"
            "    except SystemExit as e:\n"
            "        rc = e.code\n"
            "print(rc, before, gc.get_freeze_count() > 0)\n")
    assert fresh_process_output(code, *_ENDING_IN[exit_code]) == f"{exit_code} 0 True"


@pytest.mark.parametrize("exit_code, argv", [
    (0, _ENDING_IN[0] + ["--out"]),
    (5, _ENDING_IN[5]),
])
def test_console_script_process_writes_what_main_returns(exit_code, argv, tmp_path):
    # a process that runs main as the console script does, and so exits with
    # a frozen collector, writes the same bytes as main called in process
    def outcome(rc, out, err, target):
        saved = without_timestamp(target.read_text()) if target.exists() else None
        return rc, out, err, saved

    def args(target):
        return argv + [str(target)] if argv[-1] == "--out" else argv

    fresh, here = tmp_path / "fresh.json", tmp_path / "here.json"
    run = fresh_process("import sys, chgeom.cli; sys.exit(chgeom.cli.main())",
                        *args(fresh))
    got = outcome(run.returncode, run.stdout, run.stderr, fresh)
    assert got == outcome(*run_cli(args(here)), here)
    assert got[0] == exit_code
    assert (got[3] is None) == (exit_code != 0)


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


_ONE = [1.0, 0.0]
_ZERO = [0.0, 0.0]


# (argv, generator file text or None, start of the message); {file} is a
# file holding that text, or with no text a directory, which open() refuses
@pytest.mark.parametrize("argv,text,message", [
    (["--command", "orbit"], None, "--preset is required"),
    (["--command", "bend", "--preset", "nope"], None, "unknown bend preset 'nope'"),
    (["--command", "packing", "--preset", "nope"], None,
     "unknown packing preset 'nope'"),
    (["--command", "orbit", "--preset", "{file}"], None,
     "cannot read generator file"),
    (["--command", "orbit", "--preset", "{file}"], "{}",
     "generator file must be a nonempty JSON array"),
    (["--command", "orbit", "--preset", "{file}"], "[]",
     "generator file must be a nonempty JSON array"),
    (["--command", "orbit", "--preset", "{file}"], '[[["a", "b"]]]',
     "generator file entries are not numeric"),
    (["--command", "orbit", "--preset", "{file}"], json.dumps([[_ONE, _ZERO, _ONE]]),
     "flat matrix length is not a perfect square"),
    (["--command", "orbit", "--preset", "{file}"], "[[1, 0, 0]]",
     "matrix entries must be [re, im] pairs"),
    (["--command", "bend", "--eta-grid", "0,x"], None,
     "--eta-grid is not a comma-separated float list"),
], ids=["no-preset", "bend-preset", "packing-preset", "unreadable-file",
        "json-object", "empty-array", "non-numeric", "flat-not-square",
        "other-shape", "eta-grid"])
def test_input_errors_exit_2_with_input_error(tmp_path, argv, text, message):
    path = tmp_path / "gens.json"
    if text is None:
        path.mkdir()
    else:
        path.write_text(text)
    rc, out, err = run_cli([arg.format(file=path) for arg in argv])
    assert rc == 2 and out == ""
    info = json.loads(err)["error"]
    assert info["type"] == "InputError" and info["exit"] == 2
    assert info["message"].startswith(message)


def test_json_determinism_same_seed():
    args = ["--command", "dirichlet", "--preset", "z2-lattice",
            "--radius", "3", "--rays", "300", "--seed", "5"]
    _, first, _ = run_cli(args)
    _, second, _ = run_cli(args)
    assert without_timestamp(first) == without_timestamp(second)


# --- the canonical JSON writer --------------------------------------------

_KEYS = st.text(max_size=5) | st.sampled_from(
    ['"', "%", "%s", "%%", "\\", "\x00", "\n", "\x1f", "\x7f", "é", "ü€", "\U0001d11e"])
_SCALARS = (st.none() | st.booleans() | st.integers()
            | st.integers(min_value=2**63, max_value=2**200).map(lambda k: k * (-1) ** k)
            | st.floats(allow_nan=True, allow_infinity=True)
            | st.sampled_from([float("nan"), np.inf, -np.inf, -0.0, 5e-324, 1e308])
            | _KEYS)
_JSON = st.recursive(
    _SCALARS,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(_KEYS, inner, max_size=4)),
    max_leaves=20)


@st.composite
def _tables(draw):
    """Dicts that share one key set, in varied key orders, among other values."""
    keys = draw(st.lists(_KEYS, min_size=1, max_size=4, unique=True))
    cell = _JSON | st.lists(_SCALARS, max_size=5)  # list columns of unequal length
    rows = [dict(draw(st.permutations(list(row.items()))))
            for row in draw(st.lists(st.fixed_dictionaries({k: cell for k in keys}),
                                     min_size=1, max_size=6))]
    others = draw(st.lists(_JSON | st.dictionaries(_KEYS, cell, max_size=3), max_size=3))
    return draw(st.permutations(rows + others))


def _raises_or_text(render, obj):
    try:
        return render(obj)
    except TypeError:
        return TypeError


def _dumps(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


@settings(max_examples=200, deadline=None)
@given(_JSON | _tables() | st.dictionaries(_KEYS, _tables(), max_size=2))
def test_canonical_json_matches_json_dumps(obj):
    assert cli._canonical_json(obj) == _dumps(obj)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.dictionaries(
    st.none() | st.booleans() | st.integers() | st.floats() | _KEYS | st.tuples(),
    _JSON, min_size=1, max_size=3), min_size=1, max_size=3))
def test_canonical_json_non_str_keys_as_json_dumps(obj):
    # json.dumps converts int, float, bool and None keys and raises
    # TypeError on other keys or on keys it cannot sort
    assert _raises_or_text(cli._canonical_json, obj) == _raises_or_text(_dumps, obj)


_README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _readme_commands():
    with open(_README) as fh:
        return [line.split()[1:] for line in fh if line.startswith("chgeom --command")]


def test_readme_lists_every_command():
    assert sorted({argv[1] for argv in _readme_commands()}) == sorted(cli.COMMANDS)


def test_readme_lists_every_view():
    # "CSV is available for `profile` (`length,dmin,dmax`), ... SVG is
    # available for `bend` ...": each CSV command with its header line
    with open(_README) as fh:
        text = " ".join(fh.read().split())
    csv, svg = text.split("CSV is available for ")[1].split(" SVG is available for ")
    svg = svg.split(".")[0]
    empty = {"rows": [], "sides": [], "margins": {}}
    assert {f for views in cli._VIEWS.values() for f in views} == {"csv", "svg"}
    assert dict(re.findall(r"`(\w+)` \(`([^`]+)`\)", csv)) == {
        command: views["csv"](empty).rstrip("\n")
        for command, views in cli._VIEWS.items() if "csv" in views}
    assert set(re.findall(r"`(\w+)`", svg)) == {
        command for command, views in cli._VIEWS.items() if "svg" in views}


@pytest.mark.parametrize("argv", _readme_commands(), ids=lambda argv: argv[1])
def test_canonical_json_matches_json_dumps_on_readme_payloads(argv):
    args = cli._parse_args(argv)
    payload = cli._DISPATCH[args.command](args, cli._resolve_tol(args))
    assert cli._canonical_json(payload) == _dumps(payload)


def test_dirichlet_output_independent_of_blas_threads():
    # the ball and slice censuses multiply the orbit by chunks of rays sized
    # by the orbit, several at radius 10, and orbit and profile take their
    # distances from the same Bergman kernel; enumeration multiplies each
    # level by a symbol in one product of thousands of rows, which limitset
    # and bend then apply to their seeds.  OpenBLAS may split such products
    # across threads.  The fuchsian profile runs out of budget, exit 5, and
    # its error on stderr must not depend on them either
    codes = [("import sys, chgeom.cli as cli; "
              f"sys.exit(cli.main({['--command'] + args!r}))") for args in (
        ["dirichlet", "--preset", "z2-lattice", "--radius", "6", "--rays", "2000"],
        ["dirichlet", "--preset", "z2-lattice", "--radius", "10", "--rays", "10000"],
        ["orbit", "--preset", "schottky", "--depth", "7"],
        ["profile", "--preset", "schottky", "--depth", "10"],
        ["limitset", "--preset", "fuchsian", "--depth", "9"],
        ["bend", "--preset", "hnn-bend", "--format", "csv"],
        ["profile", "--preset", "fuchsian", "--depth", "28"],
    )]
    codes.append("import chgeom.dirichlet as dm, chgeom.presets as ps; "
                 "print(dm.pullback_domain_sides(ps.group_preset('z2-lattice'), "
                 "'full-horizontal', 1.0, 3, rays=720))")
    for code in codes:
        runs = [fresh_process(code, blas_threads=threads) for threads in ("1", None)]
        outputs = [(run.returncode, run.stderr,
                    [ln for ln in run.stdout.splitlines() if '"timestamp"' not in ln])
                   for run in runs]
        assert outputs[0] == outputs[1], code
        assert outputs[0][0] == (5 if "'--depth', '28'" in code else 0), code


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


@pytest.mark.parametrize("command,extra", [
    ("classify", ["--preset", "schottky"]),
    ("orbit", ["--preset", "z2-lattice", "--depth", "2"]),
    ("limitset", ["--preset", "fuchsian", "--depth", "2"]),
    ("packing", []),
    ("profile", ["--preset", "dilation", "--depth", "2"]),
])
def test_tol_rejected_where_nothing_reads_it(monkeypatch, command, extra):
    args = ["--command", command] + extra
    rc, out, err = run_cli(args + ["--tol", "1e-6"])
    assert rc == 2 and out == ""
    info = json.loads(err)["error"]
    assert info["type"] == "InputError"
    assert "--tol" in info["message"]
    # the environment variable is not even parsed for these commands
    monkeypatch.setenv(cli.TOL_ENV, "not-a-number")
    rc, out, err = run_cli(args)
    assert rc == 0, err


# every typed error, with the exit code and JSON fields that the except
# chain in main() gave it before the errors carried their own codes
_ERROR_TABLE = [
    (errors.FormViolationError("m", defect=0.25), 2, {"defect": 0.25}),
    (errors.DimensionError("m"), 2, {}),
    (errors.InvalidPointError("m"), 2, {}),
    (errors.DegenerateCenterError("m"), 3, {}),
    (errors.DegenerateInputError("m"), 3, {}),
    (errors.PointClassError("m"), 3, {}),
    (errors.PoleError("m"), 3, {}),
    (errors.PointAtInfinityError("m"), 3, {}),
    (errors.BorderlineClassError("m"), 3, {}),
    (errors.InvarianceError("m"), 4, {}),
    (errors.BranchBoundaryError("m"), 4, {}),
    (errors.InvalidPackingError("m"), 4, {}),
    (errors.ParameterError("m"), 4, {}),
    (errors.BudgetExceededError("m", completed_radius=7), 5,
     {"completed_radius": 7}),
    (errors.BudgetExceededError("m"), 5, {"completed_radius": None}),
    (errors.InputError("m"), 2, {}),
]


@pytest.mark.parametrize("exc,code,fields", _ERROR_TABLE,
                         ids=[type(e).__name__ for e, _, _ in _ERROR_TABLE])
def test_error_exit_codes_and_json(monkeypatch, exc, code, fields):
    def fail(args, tol):
        raise exc

    monkeypatch.setitem(cli._DISPATCH, "packing", fail)
    rc, out, err = run_cli(["--command", "packing"])
    assert rc == code and out == ""
    info = {"type": type(exc).__name__, "message": "m",
            "exit": code, **fields}
    assert err == json.dumps({"error": info}, sort_keys=True) + "\n"


def test_every_geometry_error_has_an_exit_code():
    classes = [c for c in vars(errors).values()
               if isinstance(c, type) and issubclass(c, errors.GeometryError)]
    assert len(classes) == 16
    for c in classes:
        assert "exit_code" in vars(c), c.__name__
        assert c.exit_code in (2, 3, 4, 5)


def test_bare_value_error_is_a_bug_and_propagates(monkeypatch):
    def fail(args, tol):
        raise ValueError("m")

    monkeypatch.setitem(cli._DISPATCH, "packing", fail)
    with pytest.raises(ValueError, match="^m$"):
        run_cli(["--command", "packing"])


def test_toolkit_raises_no_builtin_exception():
    src = os.path.dirname(cli.__file__)
    builtin_errors = {name for name, obj in vars(builtins).items()
                      if isinstance(obj, type) and issubclass(obj, BaseException)}
    found = []
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src, name)) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in builtin_errors:
                found.append(f"{name}:{node.lineno} {exc.id}")
    assert found == []
