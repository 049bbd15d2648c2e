"""Command-line surface: experiment commands with reproducible output.

Every command validates its configuration, computes the full payload, and
only then writes it, so a failing run never leaves a partial file.  JSON is
canonical, the text of json.dumps(payload, sort_keys=True, indent=2); CSV
projects a table out of it and SVG is presentation only.
The timestamp lives in the meta block and is the single nondeterministic
field.

Exit codes: 0 success, 2 input/parse, 3 degenerate geometry, 4 constraint
violation, 5 resource budget.  Each is the exit_code of the chgeom.errors
class raised; apart from a failed --out write, any other exception is a bug
and ends the run with its traceback.
"""

import argparse
import contextlib
import json
import os
import sys
import time
from itertools import islice

import numpy as np

from . import bending as bd
from . import core
from . import dirichlet as dr
from . import groups as gr
from . import heisenberg as hb
from . import presets as ps
from .errors import GeometryError, InputError, PointAtInfinityError

EXIT_OK = 0
EXIT_INPUT = 2

TOL_ENV = "CHGEOM_TOL"
DEFAULT_TOL = 1e-6

_READS_TOL = ("dirichlet", "bend")


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
                   help="complex dimension of the ball; when given, the "
                        "preset or generator file must have it")
    p.add_argument("--radius", type=float, default=None,
                   help="enumeration radius (dirichlet) or sample window "
                        "radius (limitset)")
    p.add_argument("--rays", type=int, default=dr.DEFAULT_RAYS)
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
    views = dict.fromkeys(f for formats in _VIEWS.values() for f in formats)
    p.add_argument("--format", default="json", choices=("json", *views))
    return p.parse_args(argv)


def _resolve_tol(args):
    if args.command not in _READS_TOL:
        if args.tol is not None:
            raise InputError(f"--tol is not read by {args.command} (only by "
                             f"{' and '.join(_READS_TOL)})")
        return None
    if args.tol is not None:
        tol, source = args.tol, "--tol"
    else:
        env = os.environ.get(TOL_ENV)
        if env is None:
            return DEFAULT_TOL
        try:
            tol, source = float(env), TOL_ENV
        except ValueError:
            raise InputError(f"{TOL_ENV} is not a number: {env!r}")
    if not 0 <= tol < np.inf:
        raise InputError(f"{source} must be finite and nonnegative, not {tol!r}")
    return tol


def _parse_matrix_entry(entry):
    arr = np.asarray(entry, dtype=float)
    if arr.ndim == 3 and arr.shape[1] == arr.shape[0] and arr.shape[2] == 2:
        return arr[:, :, 0] + 1j * arr[:, :, 1]
    if arr.ndim == 2 and arr.shape[1] == 2:
        side = int(round(np.sqrt(arr.shape[0])))
        if side * side != arr.shape[0]:
            raise InputError("flat matrix length is not a perfect square")
        flat = arr[:, 0] + 1j * arr[:, 1]
        return flat.reshape(side, side)
    raise InputError("matrix entries must be [re, im] pairs, "
                     "row-major or nested by rows")


def _load_generator_file(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as e:
        raise InputError(f"cannot read generator file: {e}")
    except json.JSONDecodeError as e:
        raise InputError(f"generator file is not valid JSON: {e}")
    if not isinstance(data, list) or not data:
        raise InputError("generator file must be a nonempty JSON array")
    try:
        mats = [_parse_matrix_entry(m) for m in data]
    except (ValueError, TypeError):
        raise InputError("generator file entries are not numeric matrices")
    return mats


_LABELS = "abcdefghijklmnopqrstuvwxyz"


def _gens_from_isometries(isos):
    if len(isos) > len(_LABELS):
        raise InputError("too many generators for labeling")
    involutive = [label for label, iso in zip(_LABELS, isos)
                  if core.is_projective_identity(iso.matrix @ iso.matrix)]
    return gr.GroupGens(tuple(zip(_LABELS, isos)), involutive=involutive)


def _check_n(args, n, source):
    """Reject a --n that differs from the dimension n of the input."""
    if args.n is not None and args.n != n:
        raise InputError(f"{source} has n = {n}, which does not match "
                         f"--n {args.n}")


def _resolve_group(args, allowed_presets, labeled=True):
    """The preset named by --preset, or the matrices of that generator file.

    Either must have dimension n when --n is given.  labeled=False returns
    the isometries alone, which need no labels, so any number of them is
    accepted.
    """
    if not args.preset:
        raise InputError("--preset is required for this command")
    if args.preset in allowed_presets:
        gens = ps.group_preset(args.preset)
        _check_n(args, gens.dim - 1, f"preset {args.preset}")
        return gens if labeled else list(gens.isometries)
    if os.path.exists(args.preset):
        isos = [core.Isometry(m) for m in _load_generator_file(args.preset)]
        _check_n(args, isos[0].n, "generator file")
        return _gens_from_isometries(isos) if labeled else isos
    raise InputError(
        f"unknown preset {args.preset!r} (expected one of "
        f"{', '.join(allowed_presets)} or a generator file path)")


def _check_numeric_flags(args):
    """Reject a numeric flag outside its domain, whether or not it is read."""
    if args.radius is not None and not 0 < args.radius < np.inf:
        raise InputError(f"--radius must be finite and positive, not {args.radius!r}")
    _finite(args.zeta, "--zeta")
    if args.seed < 0:
        raise InputError("--seed must be nonnegative")
    if args.rays < 100:
        raise InputError("--rays must be at least 100")
    if args.depth is not None and args.depth < 1:
        raise InputError("--depth must be >= 1")


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


def _points_payload(lifts, **columns):
    """JSON fields of the points of a (k, n+1) lift stack, one dict per row.

    Each dict holds at_infinity and, for finite points, the horospherical
    coordinates, plus the row's entry of every extra column.
    """
    infinity = core.infinity_point(lifts.shape[1] - 1).lift
    at_inf = core.projective_lift_gap(lifts, infinity) <= core.PROJ_TOL
    finite, xi, v, u = hb._lift_coords(lifts[~at_inf], 1e-12)
    if not finite.all():
        raise PointAtInfinityError(
            "the point at infinity has no horospherical coordinates")
    coords = zip(xi.real.tolist(), xi.imag.tolist(), v.tolist(), u.tolist())
    names = ("xi_re", "xi_im", "v", "u")
    rows = ({"at_infinity": True} if inf else
            {"at_infinity": False, **dict(zip(names, next(coords)))}
            for inf in at_inf.tolist())
    return [{**row, **dict(zip(columns, values))}
            for row, *values in zip(rows, *columns.values())]


def _cmd_classify(args, tol):
    results = []
    for iso in _resolve_group(args, ps.GROUP_PRESETS, labeled=False):
        # one trace class and one eigvals serve the whole payload
        mat, tag, kernel = core._classified(iso)
        eig = np.linalg.eigvals(mat)
        fixed = [] if tag == "identity" else core._fixed_points(mat, tag, kernel, eig)
        lifts = np.array([q.lift for q in fixed], dtype=complex)
        results.append({
            "class": tag,
            "eigenvalues": [[float(z.real), float(z.imag)] for z in eig],
            "boundary_fixed_points": _points_payload(lifts.reshape(-1, iso.n + 1)),
        })
    return {"meta": _meta(args), "results": results}


def _cmd_dirichlet(args, tol):
    gens = _resolve_group(args, ps.DIRICHLET_PRESETS)
    radius = args.radius if args.radius is not None else 6
    if radius < 1 or radius != int(radius):
        raise InputError("--radius must be an integral enumeration radius >= 1")
    census = dr.dirichlet_side_census(
        gens,
        core.ball_origin(gens.dim - 1),
        int(radius),
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


def _named_preset(args, kind, names, build, default):
    """(name, build(name)) of the bundled preset that --preset names, or of
    default when --preset is absent."""
    name = args.preset or default
    if name not in names:
        raise InputError(f"unknown {kind} preset {name!r} (expected one of "
                         f"{', '.join(names)})")
    return name, build(name)


def _cmd_bend(args, tol):
    preset, spec = _named_preset(args, "bend", ps.BEND_PRESETS, ps.bend_preset,
                                 "hnn-bend")
    _check_n(args, spec.g_alpha.n, f"preset {preset}")
    grid = _parse_eta_grid(args.eta_grid)
    report = bd.bend_sweep(spec, grid, zeta=args.zeta, probe_tol=tol,
                           limit_depth=args.depth or 5)
    rows = []
    for row in report.rows:
        rows.append({
            "eta": float(row.eta) + 0.0,
            "cartan_alpha": float(row.cartan_alpha) + 0.0,
            "probe_pass": bool(row.probe_passed),
            "min_word_gap": float(row.min_word_gap),
            "limit_xi_re": row.limit_points.xi[:, 0].real.tolist(),
            "limit_xi_im": row.limit_points.xi[:, 0].imag.tolist(),
            "limit_v": row.limit_points.v.tolist(),
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
        grid = [float(s) for s in items]
    except ValueError:
        raise InputError(f"--eta-grid is not a comma-separated float list: "
                         f"{text!r}")
    return [_finite(eta, "--eta-grid") for eta in grid]


def _finite(value, flag):
    if not np.isfinite(value):
        raise InputError(f"{flag} must be finite, not {value!r}")
    return value


def _cmd_orbit(args, tol):
    gens = _resolve_group(args, ps.GROUP_PRESETS)
    orbit = gr.orbit_enumerate(gens, args.depth or 4, core.ball_origin(gens.dim - 1))
    points = _points_payload(orbit.lifts, word=orbit.words,
                             word_length=orbit.word_lengths.tolist(),
                             distance=orbit.distances.tolist())
    return {"meta": _meta(args), "points": points}


def _cmd_limitset(args, tol):
    gens = _resolve_group(args, ps.GROUP_PRESETS)
    depth = args.depth or 6
    seeds = ps.boundary_seeds(25, seed=args.seed)
    cloud = gr.limit_set_sample(gens, depth, seeds)
    xi = cloud.xi
    v = cloud.v
    if args.radius is not None:
        keep = np.abs(xi[:, 0]) <= args.radius
        xi, v = xi[keep], v[keep]
    return {
        "meta": _meta(args, depth=int(depth)),
        "points": [{"xi_re": re, "xi_im": im, "v": h} for re, im, h in
                   zip(xi.real.tolist(), xi.imag.tolist(), v.tolist())],
    }


def _cmd_packing(args, tol):
    preset, packing = _named_preset(args, "packing", ps.PACKING_PRESETS,
                                    ps.packing_preset, "two-sphere")
    _check_n(args, packing.spheres[0][0].n, f"preset {preset}")
    gens, cert = gr.packing_inversion_group(packing)
    return {
        "meta": _meta(args),
        "labels": list(gens.labels),
        "pairs_checked": int(cert.pairs_checked),
        "min_margin": float(cert.min_margin),
        "passed": bool(cert.min_margin > 0),
    }


def _cmd_profile(args, tol):
    gens = _resolve_group(args, ps.GROUP_PRESETS)
    depth = args.depth or 10
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
COMMANDS = tuple(_DISPATCH)


def _dirichlet_csv(payload):
    return "side,margin\n" + "".join(f"{w},{payload['margins'][w]!r}\n"
                                      for w in payload["sides"])


def _bend_csv(payload):
    return "eta,cartan_alpha,probe_pass,min_word_gap\n" + "".join(
        f"{row['eta']!r},{row['cartan_alpha']!r},{int(row['probe_pass'])},"
        f"{row['min_word_gap']!r}\n" for row in payload["rows"])


def _profile_csv(payload):
    return "length,dmin,dmax\n" + "".join(f"{l},{dmin!r},{dmax!r}\n"
                                           for l, dmin, dmax in payload["rows"])


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


def _bend_svg(payload):
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


# the renderers of each command beside JSON, which every command has
_VIEWS = {
    "dirichlet": {"csv": _dirichlet_csv},
    "bend": {"csv": _bend_csv, "svg": _bend_svg},
    "profile": {"csv": _profile_csv},
}


# with indent unset, json hands a whole list to its C encoder; "\x00" can
# separate the items, since the encoder escapes it inside strings
_encode_flat = json.JSONEncoder(separators=("\x00", ": ")).encode


def _canonical_json(payload):
    """json.dumps(payload, sort_keys=True, indent=2) + "\n", byte for byte."""
    return _json_cells([payload], "")[0] + "\n"


def _json_cells(values, indent):
    """Each value's text as canonical JSON nests it under `indent`.

    values is a nonempty list.  Its scalars take one C-encoder pass, and so
    do the items of all its lists together.  Dicts with one key order share
    a row template, filled in one column at a time.
    """
    if not any(issubclass(t, (dict, list, tuple)) for t in set(map(type, values))):
        return _encode_flat(values)[1:-1].split("\x00")
    inner = indent + "  "
    cells = [None] * len(values)
    scalars, lists, groups = [], [], {}
    for i, value in enumerate(values):
        if not isinstance(value, (dict, list, tuple)):
            scalars.append(i)
        elif not value:
            cells[i] = "{}" if isinstance(value, dict) else "[]"
        elif isinstance(value, dict):
            groups.setdefault(tuple(value), []).append(i)
        else:
            lists.append(i)
    if scalars:
        for i, cell in zip(scalars, _json_cells([values[i] for i in scalars], indent)):
            cells[i] = cell
    if lists:
        items = iter(_json_cells([x for i in lists for x in values[i]], inner))
        for i in lists:
            cells[i] = (f"[\n{inner}" + f",\n{inner}".join(islice(items, len(values[i])))
                        + f"\n{indent}]")
    tables = []
    for keys, rows in groups.items():
        if all(isinstance(key, str) for key in keys):
            tables.append((keys, rows))
            continue
        # equal keys of other types can differ in text: False, 0, 0.0, -0.0
        split = {}
        for i in rows:
            split.setdefault(_encode_flat(list(values[i])), []).append(i)
        tables.extend((tuple(values[same[0]]), same) for same in split.values())
    for keys, rows in tables:
        keys = sorted(keys)
        # the C encoder writes each key as json does, '"key": 0'
        items = _encode_flat(dict.fromkeys(keys, 0))[1:-1].replace("%", "%%")
        template = ("{" + ",".join(f"\n{inner}{item[:-1]}%s" for item in items.split("\x00"))
                    + f"\n{indent}}}")
        columns = [_json_cells([values[i][key] for i in rows], inner) for key in keys]
        for i, row in zip(rows, zip(*columns)):
            cells[i] = template % row
    return cells


def _error_json(code, exc, **extra):
    info = {"type": type(exc).__name__,
            "message": str(exc), "exit": code}
    info.update(extra)
    return json.dumps({"error": info}, sort_keys=True)


def main(argv=None):
    """Run one command; the process entry point of the `chgeom` script.

    Its first act freezes the garbage collector, so no later collection,
    the one at interpreter exit included, traces the objects that import
    made (numpy's alone take about 9 ms to trace at exit).  An in-process
    caller that wants those objects collected again calls gc.unfreeze()
    afterwards.
    """
    import gc  # not at module level, where importing chgeom.cli would load it

    gc.freeze()
    args = _parse_args(argv if argv is not None else sys.argv[1:])
    try:
        views = {"json": _canonical_json, **_VIEWS.get(args.command, {})}
        if args.format not in views:
            raise InputError(
                f"format {args.format!r} is not available for {args.command} "
                f"(choose from {', '.join(views)})")
        _check_numeric_flags(args)
        tol = _resolve_tol(args)
        text = views[args.format](_DISPATCH[args.command](args, tol))
    except GeometryError as e:
        # any other exception is a bug and keeps its traceback
        print(_error_json(e.exit_code, e, **e.json_fields()), file=sys.stderr)
        return e.exit_code

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
