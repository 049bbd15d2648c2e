"""The benchmark's workloads: fixed step lists with their output checks.

A step is one fresh process: a chgeom CLI command (the workload seed is
appended as --seed) or a library call made by child.py.  Each check gets
the step's stdout, stderr (import-time lines removed) and --out file text,
raises StepFailed when an answer is wrong, and may return values that the
trace reports as per-layer metrics (known defects kept visible as counts).
"""

import json
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass


class StepFailed(Exception):
    """A step's output contradicts a known answer."""


def expect(cond, message):
    if not cond:
        raise StepFailed(message)


@dataclass(frozen=True)
class Step:
    name: str
    kind: str  # "cli" or "lib"
    args: tuple  # CLI arguments, or (library step name,)
    check: object
    expect_exit: int = 0
    out_file: str = None  # --out target, relative to the run directory


# --- checks -------------------------------------------------------------

def _rows(stdout):
    return json.loads(stdout)["rows"]


def check_profile_schottky(stdout, stderr, out):
    """Criterion 6: dmax(l) <= l * dmax(1), dmin nondecreasing."""
    rows = _rows(stdout)
    expect(len(rows) == 11, f"{len(rows)} profile rows, expected 11")
    dmax1 = rows[1][2]
    for (l, dmin, dmax), prev in zip(rows[1:], rows):
        expect(dmax <= l * dmax1 * (1 + 1e-12), f"dmax({l}) exceeds l*dmax(1)")
        expect(dmin >= prev[1], f"dmin decreases at length {l}")


def check_orbit_schottky(stdout, stderr, out):
    """Orbit points of the free group; kept / free-group count is a defect."""
    points = json.loads(stdout)["points"]
    expect(points and points[0]["word"] == "", "orbit does not start at ''")
    expect(all(p["word_length"] <= 7 for p in points), "word longer than 7")
    free_count = 1 + 2 * (3 ** 7 - 1)
    return {"groups.orbit_enumerate.kept_ratio": len(points) / free_count}


def _off_circle(points):
    return max(max(abs(p["v"]), *(abs(x) for x in p["xi_im"]))
               for p in points)


def check_limitset_fuchsian(stdout, stderr, out):
    """Every sample lies within 1e-6 of the real circle."""
    points = json.loads(stdout)["points"]
    expect(len(points) > 1000, f"only {len(points)} limit-set samples")
    expect(_off_circle(points) < 1e-6, "a sample leaves the real circle")


def check_budget_exhausted(stdout, stderr, out):
    """Exit 5, nothing on stdout, completed radius reported in [1, 27]."""
    expect(stdout == "", "stdout is not empty after a budget failure")
    error = json.loads(stderr)["error"]
    expect(error["exit"] == 5, f"error exit {error['exit']}")
    expect(1 <= error["completed_radius"] <= 27,
           f"completed_radius {error['completed_radius']}")


def check_fuchsian_boxdim(stdout, stderr, out):
    """Samples on the real circle; box dimension of the circle near 1."""
    fit = json.loads(stdout)
    expect(fit["off_circle"] < 1e-6, "a sample leaves the real circle")
    expect(fit["windowed"] >= 10_000, f"only {fit['windowed']} windowed")
    expect(0.85 <= fit["slope"] <= 1.15, f"box dimension {fit['slope']}")


def check_z2_sides(stdout, stderr, out):
    sides = set(json.loads(stdout)["sides"])
    expect({"a", "A", "b", "B"} <= sides, f"z2 sides {sorted(sides)}")


def check_schottky_census(stdout, stderr, out):
    """The census of the free group; uncertified generators are a defect."""
    census = json.loads(stdout)
    expect(census["rays"] == 2000, f"{census['rays']} rays used")
    expect(0.0 <= census["unbounded_ray_fraction"] <= 1.0,
           "unbounded fraction out of range")
    missed = {"a", "A", "b", "B"} - set(census["sides"])
    return {"dirichlet.known_sides_missed": len(missed)}


def check_slice_census(stdout, stderr, out):
    census = json.loads(stdout)
    expect(census["sides"] == ["A", "B", "a", "b"],
           f"slice sides {census['sides']}")
    expect(census["stable"], "slice census unstable between R and R+2")


def check_bend_json(stdout, stderr, out):
    report = json.loads(stdout)
    expect(report["cartan_distinct"], "Cartan invariants not distinct")
    expect(report["zero_only_at_origin"], "Cartan zero away from eta = 0")
    expect(all(r["probe_pass"] for r in report["rows"]), "probe failed")
    expect(len(report["rows"]) == 15, f"{len(report['rows'])} bend rows")


def check_bend_svg(stdout, stderr, out):
    """SVG carries no verdicts: check that it parses and shows 7 angles."""
    root = ET.fromstring(stdout)
    ns = "{http://www.w3.org/2000/svg}"
    labels = [t.text for t in root.iter(ns + "text")
              if t.text and t.text.startswith("eta=")]
    expect(len(labels) == 14, f"{len(labels)} angle labels, expected 7 x 2")
    expect(sum(1 for _ in root.iter(ns + "circle")) > 0, "no samples drawn")


def check_bend_csv(stdout, stderr, out):
    lines = stdout.splitlines()
    expect(lines[0] == "eta,cartan_alpha,probe_pass,min_word_gap",
           "bend CSV header")
    rows = [line.split(",") for line in lines[1:]]
    expect([float(r[0]) for r in rows] == [-0.1, 0.0, 0.1], "bend CSV etas")
    expect(all(r[2] == "1" for r in rows), "probe failed")


def check_packing(stdout, stderr, out):
    cert = json.loads(stdout)
    expect(cert["passed"], "ping-pong certificate failed")
    expect(cert["pairs_checked"] == 2, f"{cert['pairs_checked']} pairs")


def check_cyclic_vertical(stdout, stderr, out):
    sides = json.loads(stdout)["sides"]
    expect(sides == ["A", "a"], f"cyclic-vertical sides {sides}")


def check_classify_schottky(stdout, stderr, out):
    results = json.loads(stdout)["results"]
    expect(len(results) == 2, f"{len(results)} classified generators")
    for r in results:
        expect(r["class"] == "loxodromic", f"class {r['class']}")
        expect(len(r["boundary_fixed_points"]) == 2, "fixed point count")


def check_limitset_window(stdout, stderr, out):
    points = json.loads(stdout)["points"]
    expect(points, "empty limit-set window")
    expect(all(abs(p["xi_re"][0]) <= 3 for p in points), "outside window")
    expect(_off_circle(points) < 1e-6, "a sample leaves the real circle")


def check_orbit_z2(stdout, stderr, out):
    expect(stdout == "", "stdout is not empty with --out")
    points = json.loads(out)["points"]
    expect(len(points) == 25, f"{len(points)} z2 orbit points, expected 25")


def check_profile_dilation(stdout, stderr, out):
    """dmax = l * tau with tau = 2 log(e^0.5) = 1, to 1e-9."""
    lines = stdout.splitlines()
    expect(lines[0] == "length,dmin,dmax", "profile CSV header")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    expect(len(rows) == 11, f"{len(rows)} profile rows")
    for l, _, dmax in rows:
        expect(math.isclose(dmax, l, rel_tol=0, abs_tol=1e-9),
               f"dmax({l:g}) = {dmax!r}")


# --- workloads ----------------------------------------------------------

BEND_GRID = ",".join(f"{k * 0.05:.2f}" for k in range(-7, 8))

# word enumeration and dedup do most of the work; no census; the largest
# peak RSS
ENUMERATE = (
    Step("profile-schottky-10", "cli",
         ("--command", "profile", "--preset", "schottky", "--depth", "10"),
         check_profile_schottky),
    Step("orbit-schottky-7", "cli",
         ("--command", "orbit", "--preset", "schottky", "--depth", "7"),
         check_orbit_schottky),
    Step("limitset-fuchsian-9", "cli",
         ("--command", "limitset", "--preset", "fuchsian", "--depth", "9"),
         check_limitset_fuchsian),
    Step("profile-fuchsian-28", "cli",
         ("--command", "profile", "--preset", "fuchsian", "--depth", "28"),
         check_budget_exhausted, expect_exit=5),
    Step("lib-fuchsian-boxdim", "lib", ("fuchsian_boxdim",),
         check_fuchsian_boxdim),
)

# the Dirichlet layer three ways: bisection-heavy z2, every ray to the
# horizon on Schottky (read from a generator file), and the slice kernel
CENSUS = (
    Step("dirichlet-z2-10", "cli",
         ("--command", "dirichlet", "--preset", "z2-lattice",
          "--radius", "10", "--rays", "10000"),
         check_z2_sides),
    Step("dirichlet-schottky-file-3", "cli",
         ("--command", "dirichlet", "--preset", "{genfile}",
          "--radius", "3", "--rays", "2000"),
         check_schottky_census),
    Step("lib-slice-census", "lib", ("slice_census",), check_slice_census),
)

# the relation probe (element_ball without dedup) and the scalar Heisenberg
# loop of the packing certificate
BEND = (
    Step("bend-hnn-15", "cli",
         ("--command", "bend", "--preset", "hnn-bend",
          f"--eta-grid={BEND_GRID}"),
         check_bend_json),
    Step("bend-hnn-svg", "cli",
         ("--command", "bend", "--preset", "hnn-bend", "--format", "svg",
          "--zeta", "0.5"),
         check_bend_svg),
    Step("packing-two-sphere", "cli",
         ("--command", "packing", "--preset", "two-sphere"),
         check_packing),
)

# the README commands: each computes briefly, so start-up dominates
README = (
    Step("readme-dirichlet", "cli",
         ("--command", "dirichlet", "--preset", "cyclic-vertical",
          "--radius", "6", "--rays", "2000"),
         check_cyclic_vertical),
    Step("readme-classify", "cli",
         ("--command", "classify", "--preset", "schottky"),
         check_classify_schottky),
    Step("readme-bend", "cli",
         ("--command", "bend", "--preset", "hnn-bend",
          "--eta-grid=-0.1,0,0.1", "--format", "csv"),
         check_bend_csv),
    Step("readme-limitset", "cli",
         ("--command", "limitset", "--preset", "fuchsian", "--depth", "7",
          "--radius", "3"),
         check_limitset_window),
    Step("readme-packing", "cli",
         ("--command", "packing", "--preset", "two-sphere"),
         check_packing),
    Step("readme-orbit", "cli",
         ("--command", "orbit", "--preset", "z2-lattice", "--depth", "3",
          "--out", "{out}"),
         check_orbit_z2, out_file="orbit.json"),
    Step("readme-profile", "cli",
         ("--command", "profile", "--preset", "dilation", "--depth", "10",
          "--format", "csv"),
         check_profile_dilation),
)

# The compute steps form one workload: on a shared machine whose speed
# drifts by tens of percent over minutes, one long run per sample is
# steadier than three short ones.
WORKLOADS = {
    "compute": ENUMERATE + CENSUS + BEND,
    "readme": README,
}
