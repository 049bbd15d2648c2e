"""End-to-end acceptance suite.

Nine desk-scale criteria covering the embedding and form algebra, the
boundary metric, the two distance routes, classification robustness, the
side censuses, word-metric growth, the bending sweep, the packing and
limit-set pipeline, and CLI determinism.  Each criterion prints a single
pass/fail line; run with -s (or execute this file directly) to see them.

Independent oracles live inline here, not in the package: the
equal-height distance formula, the numerical Jacobian, and the raw
byte comparison of CLI reruns.
"""

import contextlib
import io
import json

import numpy as np

import chgeom.bending as bd
import chgeom.cli as cli
import chgeom.core as core
import chgeom.dirichlet as dr
import chgeom.groups as gr
import chgeom.heisenberg as hb
import chgeom.presets as ps

N_RANDOM = 1000
N_CONJ = 100


def _run(num, label, fn):
    try:
        failures = fn()
    except Exception as exc:
        print(f"criterion {num} ({label}): FAIL [{type(exc).__name__}: {exc}]",
              flush=True)
        raise
    verdict = "PASS" if not failures else "FAIL " + "; ".join(failures)
    print(f"criterion {num} ({label}): {verdict}", flush=True)
    assert not failures, failures


def _rand_similarity(rng):
    return hb.HeisSimilarity(
        rotation=np.array([[np.exp(1j * rng.normal())]]),
        translation=hb.HeisPoint(
            rng.normal(size=1) + 1j * rng.normal(size=1), float(rng.normal())
        ),
        dilation=float(np.exp(0.5 * rng.normal())),
    )


def _rand_heis(rng, scale=1.0):
    return hb.HeisPoint(
        scale * (rng.normal(size=1) + 1j * rng.normal(size=1)),
        scale * scale * float(rng.normal()),
    )


# criterion 1 -----------------------------------------------------------


def _criterion_1():
    rng = np.random.default_rng(101)
    failures = []
    sims = [_rand_similarity(rng) for _ in range(N_RANDOM)]
    mats = [hb.embed_isometry(s) for s in sims]

    worst_form = max(core.form_defect(m.matrix) for m in mats)
    if worst_form >= 1e-10:
        failures.append(f"form defect {worst_form:.2e}")

    worst_hom = 0.0
    for k in range(N_RANDOM):
        a, b = sims[k], sims[(k + 1) % N_RANDOM]
        lhs = mats[k] @ mats[(k + 1) % N_RANDOM]
        rhs = hb.embed_isometry(hb.similarity_compose(a, b))
        worst_hom = max(worst_hom, core.projective_matrix_gap(lhs.matrix, rhs.matrix))
    if worst_hom >= 1e-9:
        failures.append(f"homomorphism defect {worst_hom:.2e}")

    worst_lift = 0.0
    for _ in range(N_RANDOM):
        u = float(np.exp(rng.normal()))
        p = hb.HoroPoint(rng.normal(size=1) + 1j * rng.normal(size=1),
                         float(rng.normal()), u)
        z = hb.horo_to_projective(p).lift
        worst_lift = max(worst_lift, abs(core.herm_inner(z, z).real + u))
    if worst_lift >= 1e-12:
        failures.append(f"lift height defect {worst_lift:.2e}")
    return failures


def test_criterion_1_form_and_embedding():
    _run(1, "form and embedding", _criterion_1)


# criterion 2 -----------------------------------------------------------


def _criterion_2():
    rng = np.random.default_rng(102)
    failures = []
    tri = dil = inv = rec = 0.0
    for _ in range(N_RANDOM):
        a, b, c = (_rand_heis(rng) for _ in range(3))
        tri = max(tri, hb.cygan_dist(a, c)
                  - hb.cygan_dist(a, b) - hb.cygan_dist(b, c))

        r = float(np.exp(rng.normal()))
        da = hb.heis_dilate(a, r)
        db = hb.heis_dilate(b, r)
        want = r * hb.cygan_dist(a, b)
        dil = max(dil, abs(hb.cygan_dist(da, db) - want) / max(1.0, want))

        q = hb.heis_inversion(a)
        back = hb.heis_inversion(q)
        inv = max(inv, float(np.max(np.abs(back.xi - a.xi))), abs(back.v - a.v))
        rec = max(rec, abs(hb.cygan_norm(q) - 1.0 / hb.cygan_norm(a)))

    if tri > 1e-12:
        failures.append(f"triangle slack {tri:.2e}")
    if dil > 1e-12:
        failures.append(f"dilation homogeneity {dil:.2e}")
    if inv > 1e-12:
        failures.append(f"inversion involution {inv:.2e}")
    if rec > 1e-12:
        failures.append(f"norm reciprocal {rec:.2e}")
    return failures


def test_criterion_2_cygan_metric():
    _run(2, "Cygan metric", _criterion_2)


# criterion 3 -----------------------------------------------------------


def _equal_height_distance(p1, p2, u):
    # move p1 to the horosphere origin by a left translation, then apply
    # the closed form for d((0,0,u),(xi,v,u))
    step = hb.heis_mul(hb.heis_inverse(p1), p2)
    a = float(np.sum(np.abs(step.xi) ** 2))
    c2 = (a * a + 4 * u * a + 4 * u * u + step.v * step.v) / (4 * u * u)
    return 2.0 * np.arccosh(np.sqrt(c2))


def _criterion_3():
    rng = np.random.default_rng(103)
    failures = []
    worst = 0.0
    for _ in range(N_RANDOM):
        u = float(np.exp(rng.normal()))
        p1, p2 = _rand_heis(rng), _rand_heis(rng)
        d = core.bergman_distance(
            hb.horo_to_projective(hb.HoroPoint(p1.xi, p1.v, u)),
            hb.horo_to_projective(hb.HoroPoint(p2.xi, p2.v, u)),
        )
        want = _equal_height_distance(p1, p2, u)
        worst = max(worst, abs(d - want) / max(1.0, want))
    if worst >= 1e-10:
        failures.append(f"route disagreement {worst:.2e}")

    # pinned cases: vertical ray pairs and the unit horizontal step
    for u in (0.2, 0.5, 2.0, 7.0):
        d = core.bergman_distance(
            hb.horo_to_projective(hb.HoroPoint(np.zeros(1), 0.0, 1.0)),
            hb.horo_to_projective(hb.HoroPoint(np.zeros(1), 0.0, u)),
        )
        want = 2 * np.arccosh(np.sqrt((1 + u) ** 2 / (4 * u)))
        if abs(d - want) > 1e-10:
            failures.append(f"vertical ray u={u}")
    d = core.bergman_distance(
        hb.horo_to_projective(hb.HoroPoint(np.zeros(1), 0.0, 1.0)),
        hb.horo_to_projective(hb.HoroPoint(np.array([1.0 + 0j]), 0.0, 1.0)),
    )
    if abs(d - 2 * np.arccosh(1.5)) > 1e-10:
        failures.append("unit horizontal step")
    return failures


def test_criterion_3_distance_cross_check():
    _run(3, "distance cross-check", _criterion_3)


# criterion 4 -----------------------------------------------------------


def _criterion_4():
    rng = np.random.default_rng(104)
    bases = {
        "parabolic": hb.embed_translation(0.4 + 0.3j, 1.0),
        "loxodromic": hb.embed_dilation(np.exp(0.5)),
        "elliptic": hb.embed_rotation(np.array([[np.exp(0.9j)]])),
    }
    failures = []
    for want, m in bases.items():
        bad = 0
        for _ in range(N_CONJ):
            g = hb.embed_isometry(_rand_similarity(rng))
            conj = g @ m @ g.inverse()
            try:
                got = core.classify_isometry(conj)
            except Exception:
                got = "error"
            if got != want:
                bad += 1
        if bad:
            failures.append(f"{want}: {bad}/{N_CONJ} misclassified")
    return failures


def test_criterion_4_classification():
    _run(4, "classification under conjugation", _criterion_4)


# criterion 5 -----------------------------------------------------------


def _criterion_5():
    failures = []
    origin = core.ball_origin()

    census = dr.dirichlet_side_census(
        ps.group_preset("cyclic-vertical"), origin, 6, rays=2000, seed=0)
    if len(census.sides) != 2:
        failures.append(f"cyclic-vertical sides {census.sides}")

    small = dr.dirichlet_side_census(
        ps.group_preset("z2-lattice"), origin, 3, rays=2000, seed=0)
    large = dr.dirichlet_side_census(
        ps.group_preset("z2-lattice"), origin, 6, rays=2000, seed=0)
    if not len(small.sides) < len(large.sides):
        failures.append(
            f"z2-lattice sides {len(small.sides)} !< {len(large.sides)}")

    census = dr.dirichlet_side_census(
        ps.group_preset("dilation"), origin, 6, rays=2000, seed=0)
    if len(census.sides) != 2:
        failures.append(f"dilation sides {census.sides}")

    sliced = dr.pullback_domain_sides(
        ps.group_preset("z2-lattice"), "full-horizontal", 1.0, 3, rays=720)
    if not sliced.stable:
        failures.append("slice census unstable between R and R+2")
    return failures


def test_criterion_5_dirichlet_censuses():
    _run(5, "Dirichlet side censuses", _criterion_5)


# criterion 6 -----------------------------------------------------------


def _criterion_6():
    failures = []

    rows = gr.word_metric_profile(ps.group_preset("dilation"), 10)
    tau = rows[1][2]
    worst = max(abs(dmax - ell * tau) for ell, _, dmax in rows)
    if worst >= 1e-9:
        failures.append(f"dilation dmax off axis-multiple by {worst:.2e}")

    rows = gr.word_metric_profile(ps.group_preset("schottky"), 10)
    maxdisp = rows[1][2]
    for ell, dmin, dmax in rows[1:]:
        if dmax > ell * maxdisp + 1e-9:
            failures.append(f"schottky dmax({ell}) exceeds {ell}*maxdisp")
    mins = [dmin for _, dmin, _ in rows]
    if any(b < a - 1e-12 for a, b in zip(mins, mins[1:])):
        failures.append("schottky dmin not nondecreasing")
    return failures


def test_criterion_6_word_metric():
    _run(6, "word-metric growth", _criterion_6)


# criterion 7 -----------------------------------------------------------


def _criterion_7():
    rng = np.random.default_rng(107)
    failures = []
    params = bd.BendParams(np.pi / 6, np.pi / 4)

    eps = 1e-12
    jump = 0.0
    for a in (params.zeta, -params.zeta, np.pi - params.zeta,
              params.zeta - np.pi):
        for radius in (0.3, 1.0, 2.7):
            left = bd.bend_plane(radius * np.exp(1j * (a - eps)), params)
            right = bd.bend_plane(radius * np.exp(1j * (a + eps)), params)
            jump = max(jump, abs(left - right))
    if jump >= 1e-10:
        failures.append(f"branch jump {jump:.2e}")

    h = 1e-6
    worst_jac = 0.0
    n_checked = 0
    while n_checked < N_RANDOM:
        z = complex(rng.normal(), rng.normal())
        try:
            want = bd.bend_distortion(z, params)
        except Exception:
            continue
        n_checked += 1
        dx = (bd.bend_plane(z + h, params) - bd.bend_plane(z - h, params)) / (2 * h)
        dy = (bd.bend_plane(z + 1j * h, params)
              - bd.bend_plane(z - 1j * h, params)) / (2 * h)
        jac = np.array([[dx.real, dy.real], [dx.imag, dy.imag]])
        s = np.linalg.svd(jac, compute_uv=False)
        worst_jac = max(worst_jac, abs(s[0] / s[1] - want))
    if worst_jac >= 1e-5:
        failures.append(f"Jacobian ratio mismatch {worst_jac:.2e}")

    comm = sphere = 0.0
    for _ in range(200):
        p = _rand_heis(rng)
        r = float(np.exp(rng.normal()))
        left = bd.bend_heisenberg(hb.heis_dilate(p, r), params)
        right = hb.heis_dilate(bd.bend_heisenberg(p, params), r)
        comm = max(comm, float(np.max(np.abs(left.xi - right.xi))),
                   abs(left.v - right.v))
        q = bd.bend_heisenberg(p, params)
        sphere = max(sphere, abs(hb.cygan_norm(q) - hb.cygan_norm(p)))
    if comm > 1e-12:
        failures.append(f"dilation commutation {comm:.2e}")
    if sphere > 1e-12:
        failures.append(f"Cygan sphere drift {sphere:.2e}")

    spec = ps.bend_preset("hnn-bend")
    same = bd.deform_group(spec, 0.0)
    originals = spec.group_one.isometries + (spec.hnn_partner,)
    gap = max(
        core.projective_matrix_gap(a.matrix, b.matrix)
        for a, b in zip(same.isometries, originals)
    )
    if gap >= 1e-9:
        failures.append(f"zero-angle deformation moved generators {gap:.2e}")

    report = bd.bend_sweep(spec, (-0.2, -0.1, -0.05, 0.0, 0.05, 0.1, 0.2),
                           zeta=np.pi / 4, limit_depth=4)
    if not report.zero_only_at_origin:
        failures.append("Cartan invariant not zero exactly at origin")
    if not report.cartan_distinct:
        failures.append("Cartan invariants not pairwise distinct")
    if not all(row.probe_passed for row in report.rows):
        failures.append("identity-word probe failed in sweep")
    return failures


def test_criterion_7_bending():
    _run(7, "bending deformation", _criterion_7)


# criterion 8 -----------------------------------------------------------


def _criterion_8():
    failures = []

    _, cert = gr.packing_inversion_group(ps.packing_preset("two-sphere"))
    if not abs(cert.min_margin - 0.8) <= 1e-15:
        failures.append(f"packing margin {cert.min_margin!r}, expected 0.8")

    gens = ps.group_preset("fuchsian")
    seeds = ps.boundary_seeds(27)
    xs, ys, vs = [], [], []
    for depth in (6, 7, 8, 9):
        cloud = gr.limit_set_sample(gens, depth, seeds)
        xs.append(cloud.xi[:, 0].real)
        ys.append(cloud.xi[:, 0].imag)
        vs.append(cloud.v)
    x = np.concatenate(xs)
    y = np.concatenate(ys)
    v = np.concatenate(vs)

    off = max(float(np.max(np.abs(y))), float(np.max(np.abs(v))))
    if off >= 1e-6:
        failures.append(f"sample leaves the real circle by {off:.2e}")

    keep = np.abs(x) <= 3.0
    if int(keep.sum()) < 10_000:
        failures.append(f"only {int(keep.sum())} windowed points")
    else:
        cloud = gr.HeisCloud((x[keep] + 1j * y[keep])[:, None], v[keep])
        fit = gr.boxdim_estimate(cloud, (0.3, 0.2, 0.1, 0.05, 0.03))
        if not 0.85 <= fit.slope <= 1.15:
            failures.append(f"box dimension {fit.slope:.3f}")
    return failures


def test_criterion_8_packing_and_limit_set():
    _run(8, "packing and limit set", _criterion_8)


# criterion 9 -----------------------------------------------------------


def _cli_bytes(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    assert code == 0, f"cli {argv} exited {code}"
    return out.getvalue()


def _strip_timestamp(text):
    return [ln for ln in text.splitlines() if '"timestamp"' not in ln]


def _criterion_9():
    runs = [
        ["--command", "classify", "--preset", "cyclic-vertical"],
        ["--command", "dirichlet", "--preset", "z2-lattice",
         "--radius", "4", "--rays", "500", "--seed", "11"],
        ["--command", "orbit", "--preset", "schottky",
         "--depth", "3", "--seed", "2"],
        ["--command", "limitset", "--preset", "fuchsian",
         "--depth", "5", "--seed", "3"],
        ["--command", "bend", "--preset", "hnn-bend",
         "--eta-grid=-0.1,0,0.1", "--depth", "4"],
        ["--command", "packing", "--preset", "two-sphere", "--seed", "7"],
        ["--command", "profile", "--preset", "dilation", "--depth", "6"],
    ]
    failures = []
    for argv in runs:
        first = _strip_timestamp(_cli_bytes(argv))
        second = _strip_timestamp(_cli_bytes(argv))
        if first != second:
            failures.append(f"{argv[1]} rerun differs")
    return failures


def test_criterion_9_determinism():
    _run(9, "CLI determinism", _criterion_9)


if __name__ == "__main__":
    import sys

    checks = [
        (1, "form and embedding", _criterion_1),
        (2, "Cygan metric", _criterion_2),
        (3, "distance cross-check", _criterion_3),
        (4, "classification under conjugation", _criterion_4),
        (5, "Dirichlet side censuses", _criterion_5),
        (6, "word-metric growth", _criterion_6),
        (7, "bending deformation", _criterion_7),
        (8, "packing and limit set", _criterion_8),
        (9, "CLI determinism", _criterion_9),
    ]
    bad = 0
    for num, label, fn in checks:
        try:
            _run(num, label, fn)
        except AssertionError:
            bad += 1
    sys.exit(1 if bad else 0)
