"""Command-line surface: experiment commands with reproducible output.

Every command validates its configuration, computes the full payload, and
only then writes it, so a failing run never leaves a partial file.  JSON is
canonical; CSV projects a table out of it and SVG is presentation only.
The timestamp lives in the meta block and is the single nondeterministic
field.

Exit codes: 0 success, 2 input/parse, 3 degenerate geometry, 4 constraint
violation, 5 resource budget.
"""

import argparse
import contextlib
import json
import os
import sys
import time

import numpy as np

from . import bending as bd
from . import core
from . import dirichlet as dr
from . import groups as gr
from . import heisenberg as hb
from . import presets as ps
from .errors import GeometryError

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CONSTRAINT = 4

TOL_ENV = "CHGEOM_TOL"
DEFAULT_TOL = 1e-6

COMMANDS = ("classify", "dirichlet", "bend", "orbit", "limitset", "packing",
            "profile")
_READS_TOL = ("dirichlet", "bend")

_FORMATS = {
    "classify": ("json",),
    "dirichlet": ("json", "csv"),
    "bend": ("json", "csv", "svg"),
    "orbit": ("json",),
    "limitset": ("json",),
    "packing": ("json",),
    "profile": ("json", "csv"),
}


class _InputError(Exception):
    """Configuration or parse failure."""

    exit_code = EXIT_INPUT


def _parse_args(argv):
    p = argparse.ArgumentParser(
        prog="chgeom",
        description="Complex hyperbolic plane experiments: isometry "
                    "classification, Dirichlet censuses, bending sweeps, "
                    "orbit and limit-set clouds.",
    )
    p.add_argument("--command", required=True, choices=COMMANDS)
    p.add_argument("--preset",
                   help="preset name, or path to a JSON generator file")
    p.add_argument("--n", type=int, default=None,
                   help="complex dimension of the ball (default 2)")
    p.add_argument("--radius", type=float, default=None,
                   help="enumeration radius (dirichlet) or sample window "
                        "radius (limitset)")
    p.add_argument("--rays", type=int, default=2000)
    p.add_argument("--depth", type=int, default=None,
                   help="maximum word length")
    p.add_argument("--eta-grid", default="-0.2,-0.1,-0.05,0,0.05,0.1,0.2",
                   help="comma-separated bending angles")
    p.add_argument("--zeta", type=float, default=float(np.pi / 4))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=None,
                   help=f"strictness margin of dirichlet and bend (default "
                        f"{DEFAULT_TOL}, or the {TOL_ENV} environment "
                        f"variable)")
    p.add_argument("--out", default=None)
    p.add_argument("--format", default="json", choices=("json", "csv", "svg"))
    return p.parse_args(argv)


def _resolve_tol(args):
    if args.command not in _READS_TOL:
        if args.tol is not None:
            raise _InputError(f"--tol is not read by {args.command} (only by "
                              f"{' and '.join(_READS_TOL)})")
        return None
    if args.tol is not None:
        return float(args.tol)
    env = os.environ.get(TOL_ENV)
    if env is not None:
        try:
            return float(env)
        except ValueError:
            raise _InputError(f"{TOL_ENV} is not a number: {env!r}")
    return DEFAULT_TOL


def _parse_matrix_entry(entry):
    arr = np.asarray(entry, dtype=float)
    if arr.ndim == 3 and arr.shape[1] == arr.shape[0] and arr.shape[2] == 2:
        return arr[:, :, 0] + 1j * arr[:, :, 1]
    if arr.ndim == 2 and arr.shape[1] == 2:
        side = int(round(np.sqrt(arr.shape[0])))
        if side * side != arr.shape[0]:
            raise _InputError("flat matrix length is not a perfect square")
        flat = arr[:, 0] + 1j * arr[:, 1]
        return flat.reshape(side, side)
    raise _InputError("matrix entries must be [re, im] pairs, "
                      "row-major or nested by rows")


def _load_generator_file(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as e:
        raise _InputError(f"cannot read generator file: {e}")
    except json.JSONDecodeError as e:
        raise _InputError(f"generator file is not valid JSON: {e}")
    if not isinstance(data, list) or not data:
        raise _InputError("generator file must be a nonempty JSON array")
    try:
        mats = [_parse_matrix_entry(m) for m in data]
    except (ValueError, TypeError):
        raise _InputError("generator file entries are not numeric matrices")
    return mats


_LABELS = "abcdefghijklmnopqrstuvwxyz"


def _gens_from_matrices(mats):
    pairs = []
    involutive = set()
    for k, m in enumerate(mats):
        if k >= len(_LABELS):
            raise _InputError("too many generators for labeling")
        label = _LABELS[k]
        iso = core.Isometry(m)
        if core.is_projective_identity(iso.matrix @ iso.matrix):
            involutive.add(label)
        pairs.append((label, iso))
    return gr.GroupGens(tuple(pairs), involutive=frozenset(involutive))


def _resolve_group(args, allowed_presets):
    if not args.preset:
        raise _InputError("--preset is required for this command")
    if args.preset in allowed_presets:
        return ps.group_preset(args.preset)
    if os.path.exists(args.preset):
        gens = _gens_from_matrices(_load_generator_file(args.preset))
        if args.n is not None and gens.dim != args.n + 1:
            raise _InputError(
                f"generator file dimension {gens.dim} does not match "
                f"--n {args.n}")
        return gens
    raise _InputError(
        f"unknown preset {args.preset!r} (expected one of "
        f"{', '.join(allowed_presets)} or a generator file path)")


def _meta(args, **extra):
    meta = {
        "command": args.command,
        "seed": int(args.seed),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    if args.preset:
        meta["preset"] = args.preset
    meta.update(extra)
    return meta


def _ball_origin(dim):
    lift = np.zeros(dim, dtype=complex)
    lift[-1] = 1.0
    return core.ProjectivePoint(lift)


def _point_payload(point):
    """Horospherical coordinates of a projective point, as JSON fields."""
    if point.projectively_equal(core.infinity_point(point.lift.shape[0] - 1)):
        return {"at_infinity": True}
    horo = hb.projective_to_horo(point)
    return {
        "at_infinity": False,
        "xi_re": [float(x) for x in horo.xi.real],
        "xi_im": [float(x) for x in horo.xi.imag],
        "v": float(horo.v),
        "u": float(horo.u),
    }


def _cmd_classify(args, tol):
    if not args.preset:
        raise _InputError("--preset is required: a preset name or a file "
                          "with the matrices to classify")
    if args.preset in ps.GROUP_PRESETS:
        gens = ps.group_preset(args.preset)
        isos = list(gens.isometries)
    elif os.path.exists(args.preset):
        isos = [core.Isometry(m) for m in
                _load_generator_file(args.preset)]
    else:
        raise _InputError(f"no such preset or file: {args.preset!r}")
    results = []
    for iso in isos:
        tag = core.classify_isometry(iso)
        eig = np.linalg.eigvals(iso.matrix)
        if tag == "identity":
            fixed = []
        else:
            fixed = [_point_payload(q)
                     for q in core.boundary_fixed_points(iso)]
        results.append({
            "class": tag,
            "eigenvalues": [[float(z.real), float(z.imag)] for z in eig],
            "boundary_fixed_points": fixed,
        })
    return {"meta": _meta(args), "results": results}


def _cmd_dirichlet(args, tol):
    gens = _resolve_group(args, ps.DIRICHLET_PRESETS)
    radius = int(args.radius) if args.radius is not None else 6
    if radius < 1:
        raise _InputError("--radius must be a positive enumeration radius")
    census = dr.dirichlet_side_census(
        gens,
        _ball_origin(gens.dim),
        radius,
        rays=args.rays,
        seed=args.seed,
        margin=tol,
    )
    return {
        "meta": _meta(args),
        "sides": list(census.sides),
        "margins": {w: float(census.margins[w]) for w in census.sides},
        "rays": int(census.rays_used),
        "enum_radius": int(census.enumeration_radius),
        "unbounded_ray_fraction": float(census.unbounded_ray_fraction),
    }


def _cmd_bend(args, tol):
    preset = args.preset or "hnn-bend"
    if preset not in ps.BEND_PRESETS:
        raise _InputError(
            f"unknown bend preset {preset!r} (expected one of "
            f"{', '.join(ps.BEND_PRESETS)})")
    spec = ps.bend_preset(preset)
    grid = _parse_eta_grid(args.eta_grid)
    depth = args.depth if args.depth is not None else 5
    report = bd.bend_sweep(
        spec,
        grid,
        zeta=args.zeta,
        probe_tol=tol,
        limit_depth=depth,
    )
    rows = []
    for row in report.rows:
        rows.append({
            "eta": float(row.eta) + 0.0,
            "cartan_alpha": float(row.cartan_alpha) + 0.0,
            "probe_pass": bool(row.probe_passed),
            "min_word_gap": float(row.min_word_gap),
            "limit_xi_re": [float(x) for x in row.limit_points.xi[:, 0].real],
            "limit_xi_im": [float(x) for x in row.limit_points.xi[:, 0].imag],
            "limit_v": [float(x) for x in row.limit_points.v],
        })
    return {
        "meta": _meta(args, zeta=float(args.zeta)),
        "rows": rows,
        "cartan_distinct": bool(report.cartan_distinct),
        "zero_only_at_origin": bool(report.zero_only_at_origin),
    }


def _parse_eta_grid(text):
    items = [s for s in text.split(",") if s.strip()]
    try:
        return [float(s) for s in items]
    except ValueError:
        raise _InputError(f"--eta-grid is not a comma-separated float list: "
                          f"{text!r}")


def _cmd_orbit(args, tol):
    gens = _resolve_group(args, ps.GROUP_PRESETS)
    depth = args.depth if args.depth is not None else 4
    if depth < 1:
        raise _InputError("--depth must be >= 1")
    records = gr.orbit_enumerate(gens, depth, _ball_origin(gens.dim))
    points = []
    for rec in records:
        payload = _point_payload(rec.point)
        payload["word"] = rec.word
        payload["word_length"] = int(rec.word_length)
        payload["distance"] = float(rec.distance)
        points.append(payload)
    return {"meta": _meta(args), "points": points}


def _cmd_limitset(args, tol):
    gens = _resolve_group(args, ps.GROUP_PRESETS)
    depth = args.depth if args.depth is not None else 6
    if depth < 1:
        raise _InputError("--depth must be >= 1")
    seeds = ps.boundary_seeds(25, seed=args.seed)
    cloud = gr.limit_set_sample(gens, depth, seeds)
    xi = cloud.xi
    v = cloud.v
    if args.radius is not None:
        if args.radius <= 0:
            raise _InputError("--radius must be positive")
        keep = np.abs(xi[:, 0]) <= args.radius
        xi, v = xi[keep], v[keep]
    return {
        "meta": _meta(args, depth=int(depth)),
        "points": [
            {
                "xi_re": [float(x) for x in xi[k].real],
                "xi_im": [float(x) for x in xi[k].imag],
                "v": float(v[k]),
            }
            for k in range(xi.shape[0])
        ],
    }


def _cmd_packing(args, tol):
    preset = args.preset or "two-sphere"
    if preset not in ps.PACKING_PRESETS:
        raise _InputError(
            f"unknown packing preset {preset!r} (expected one of "
            f"{', '.join(ps.PACKING_PRESETS)})")
    packing = ps.packing_preset(preset)
    gens, cert = gr.packing_inversion_group(packing)
    return {
        "meta": _meta(args),
        "labels": list(gens.labels),
        "pairs_checked": int(cert.pairs_checked),
        "samples_per_ball": int(cert.samples_per_ball),
        "min_margin": float(cert.min_margin),
        "passed": bool(cert.min_margin > 0),
    }


def _cmd_profile(args, tol):
    gens = _resolve_group(args, ps.GROUP_PRESETS)
    depth = args.depth if args.depth is not None else 10
    if depth < 1:
        raise _InputError("--depth must be >= 1")
    rows = gr.word_metric_profile(gens, depth, budget=400000)
    return {
        "meta": _meta(args, depth=int(depth)),
        "rows": [[int(l), float(dmin), float(dmax)]
                 for l, dmin, dmax in rows],
    }


_DISPATCH = {
    "classify": _cmd_classify,
    "dirichlet": _cmd_dirichlet,
    "bend": _cmd_bend,
    "orbit": _cmd_orbit,
    "limitset": _cmd_limitset,
    "packing": _cmd_packing,
    "profile": _cmd_profile,
}


def _to_csv(command, payload):
    lines = []
    if command == "profile":
        lines.append("length,dmin,dmax")
        for l, dmin, dmax in payload["rows"]:
            lines.append(f"{l},{dmin!r},{dmax!r}")
    elif command == "bend":
        lines.append("eta,cartan_alpha,probe_pass,min_word_gap")
        for row in payload["rows"]:
            lines.append(f"{row['eta']!r},{row['cartan_alpha']!r},"
                         f"{int(row['probe_pass'])},{row['min_word_gap']!r}")
    elif command == "dirichlet":
        lines.append("side,margin")
        for w in payload["sides"]:
            lines.append(f"{w},{payload['margins'][w]!r}")
    else:
        raise _InputError(f"{command} has no CSV projection")
    return "\n".join(lines) + "\n"


_SVG_PALETTE = ("#1b6ca8", "#c4452c", "#2c8c4a", "#8246af", "#b58900",
                "#3a9fbf", "#d33682", "#586e75")


def _svg_panel(points_xy, x0, width, title):
    xs = [p[0] for pts in points_xy for p in pts[1]]
    ys = [p[1] for pts in points_xy for p in pts[1]]
    if not xs:
        return [f'<text x="{x0 + 20}" y="40" class="t">{title} (empty)</text>']
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    xspan = (xmax - xmin) or 1.0
    yspan = (ymax - ymin) or 1.0
    pad = 30.0
    inner = width - 2 * pad

    def sx(x):
        return x0 + pad + (x - xmin) / xspan * inner

    def sy(y):
        return 420.0 - pad - (y - ymin) / yspan * (420.0 - 2 * pad - 30.0)

    out = [f'<text x="{x0 + pad:.1f}" y="24" class="t">{title}</text>']
    for k, (label, pts) in enumerate(points_xy):
        color = _SVG_PALETTE[k % len(_SVG_PALETTE)]
        for x, y in pts:
            out.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="1.6" '
                       f'fill="{color}" fill-opacity="0.75"/>')
        out.append(f'<text x="{x0 + pad:.1f}" y="{44 + 16 * k}" class="l" '
                   f'fill="{color}">{label}</text>')
    return out


def _to_svg(command, payload):
    if command != "bend":
        raise _InputError(f"{command} has no SVG projection")
    plane = []
    vertical = []
    for row in payload["rows"]:
        label = f"eta={row['eta']:g}"
        re, im, v = row["limit_xi_re"], row["limit_xi_im"], row["limit_v"]
        plane.append((label, list(zip(re, im))))
        vertical.append((label,
                         [(re[k] ** 2 + im[k] ** 2, v[k])
                          for k in range(len(v))]))
    body = ['<svg xmlns="http://www.w3.org/2000/svg" width="960" '
            'height="440" viewBox="0 0 960 440">',
            '<style>.t{font:14px sans-serif}.l{font:12px sans-serif}</style>',
            '<rect width="960" height="440" fill="white"/>']
    body.extend(_svg_panel(plane, 0.0, 480.0, "boundary samples, xi plane"))
    body.extend(_svg_panel(vertical, 480.0, 480.0,
                           "boundary samples, (|xi|^2, v) plane"))
    body.append("</svg>")
    return "\n".join(body) + "\n"


def _render(args, payload):
    if args.format == "json":
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if args.format == "csv":
        return _to_csv(args.command, payload)
    return _to_svg(args.command, payload)


def _error_json(code, exc, **extra):
    info = {"type": type(exc).__name__.lstrip("_"),
            "message": str(exc), "exit": code}
    info.update(extra)
    return json.dumps({"error": info}, sort_keys=True)


def main(argv=None):
    args = _parse_args(argv if argv is not None else sys.argv[1:])
    if args.format not in _FORMATS[args.command]:
        print(_error_json(EXIT_INPUT, _InputError(
            f"format {args.format!r} is not available for {args.command} "
            f"(choose from {', '.join(_FORMATS[args.command])})")),
            file=sys.stderr)
        return EXIT_INPUT
    try:
        tol = _resolve_tol(args)
        payload = _DISPATCH[args.command](args, tol)
        text = _render(args, payload)
    except (GeometryError, _InputError, ValueError) as e:
        # a bare ValueError still reads as a constraint violation
        code = getattr(e, "exit_code", EXIT_CONSTRAINT)
        fields = e.json_fields() if isinstance(e, GeometryError) else {}
        print(_error_json(code, e, **fields), file=sys.stderr)
        return code

    if args.out:
        # a failed write must leave no partial file: write aside, then rename
        tmp = f"{args.out}.{os.getpid()}.tmp"
        try:
            with open(tmp, "x") as fh:
                fh.write(text)
            os.replace(tmp, args.out)
        except OSError as e:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            print(_error_json(EXIT_INPUT, e), file=sys.stderr)
            return EXIT_INPUT
    else:
        sys.stdout.write(text)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
