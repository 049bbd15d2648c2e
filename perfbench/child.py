"""Run one benchmark step in a fresh process.

    python3 child.py REPORT TRACE cli ARG...   # one chgeom CLI command
    python3 child.py REPORT TRACE lib NAME SEED  # one library call
    python3 child.py REPORT 0 prepare GENFILE    # run set-up, not a step

The child imports chgeom.cli first, so the time from spawn to the end of
that import is the step's set-up time, and records the CLOCK_MONOTONIC
instant it finished.  With TRACE=1 it then wraps the package's public
functions (see tracer.py).  The report, written to REPORT as JSON, holds
that instant and the trace; the step's own output goes to stdout and the
exit code is the step's exit code.
"""

import sys
import time

import chgeom.cli

IMPORT_DONE = time.monotonic()

import ctypes  # noqa: E402
import json  # noqa: E402

import numpy as np  # noqa: E402

import chgeom  # noqa: E402
from chgeom import dirichlet as dr  # noqa: E402
from chgeom import groups as gr  # noqa: E402
from chgeom import presets as ps  # noqa: E402


def fuchsian_boxdim(seed):
    """Fuchsian limit set at depths 6-9, windowed, then its box dimension."""
    gens = ps.group_preset("fuchsian")
    seeds = ps.boundary_seeds(27, seed=seed)
    clouds = [gr.limit_set_sample(gens, depth, seeds) for depth in (6, 7, 8, 9)]
    xi = np.concatenate([c.xi[:, 0] for c in clouds])
    v = np.concatenate([c.v for c in clouds])
    keep = np.abs(xi.real) <= 3.0
    fit = gr.boxdim_estimate(gr.HeisCloud(xi[keep][:, None], v[keep]),
                             (0.3, 0.2, 0.1, 0.05, 0.03))
    return {
        "points": int(v.size),
        "windowed": int(keep.sum()),
        "off_circle": max(float(np.max(np.abs(xi.imag))),
                          float(np.max(np.abs(v)))),
        "slope": fit.slope,
    }


def slice_census(seed):
    """Side census of z2 on the full-horizontal slice at u0 = 1."""
    census = dr.pullback_domain_sides(
        ps.group_preset("z2-lattice"), "full-horizontal", 1.0, 3, rays=720)
    return {
        "sides": list(census.sides),
        "stable": bool(census.stable),
        "margins": [census.margins[w] for w in census.sides],
    }


LIBRARY_STEPS = {"fuchsian_boxdim": fuchsian_boxdim,
                 "slice_census": slice_census}


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def prepare(genfile):
    """Write the Schottky generator file; return the library versions."""
    import scipy

    mats = [iso.matrix for iso in ps.group_preset("schottky").isometries]
    with open(genfile, "w") as fh:
        json.dump([[[[z.real, z.imag] for z in row] for row in m]
                   for m in mats], fh)
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas_threads": _blas_threads()}


def main(argv):
    report_path, trace, kind, *args = argv
    report = {"import_done": IMPORT_DONE}
    tracer = None
    if trace == "1":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(chgeom)
    try:
        if kind == "cli":
            code = chgeom.cli.main(args)
        elif kind == "lib":
            name, seed = args
            sys.stdout.write(json.dumps(LIBRARY_STEPS[name](int(seed)),
                                        sort_keys=True) + "\n")
            code = 0
        elif kind == "prepare":
            report["record"] = prepare(*args)
            code = 0
        else:
            raise SystemExit(f"unknown step kind {kind!r}")
    finally:
        if tracer is not None:
            report["trace"] = tracer.report()
        with open(report_path, "w") as fh:
            json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
