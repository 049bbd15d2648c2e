"""Named generator systems behind the experiment commands.

Each preset is a small, fully specified configuration: a generator system,
a sphere packing, or a bending setup.  Presets exist so that an experiment
is reproducible from its name and a seed alone.
"""

import numpy as np

from . import bending as bd
from . import core
from . import groups as gr
from . import heisenberg as hb
from .errors import ParameterError

DIRICHLET_PRESETS = ("cyclic-vertical", "cyclic-horizontal", "dilation",
                     "z2-lattice")
GROUP_PRESETS = DIRICHLET_PRESETS + ("schottky", "fuchsian")
PACKING_PRESETS = ("two-sphere",)
BEND_PRESETS = ("hnn-bend", "amalgam-bend")

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def _sphere_inversion(x, v, radius=1.0):
    center = hb.HeisPoint(np.array([complex(x)]), float(v))
    return gr.sphere_inversion(center, radius)


def real_glide(s):
    """Loxodromic with a real matrix; fixes the boundary points (-1, 0) and
    (1, 0) and translates by 2s along the axis between them."""
    c, h = float(np.cosh(s)), float(np.sinh(s))
    return core.Isometry(np.array([
        [c, 0.0, h],
        [0.0, 1.0, 0.0],
        [h, 0.0, c],
    ], dtype=complex))


def real_circle_inversion():
    """Involution acting as x -> 1/x on the standard real circle.

    Swaps the origin and infinity, fixes (1, 0) and (-1, 0), and fixes the
    ball-model origin in the interior.
    """
    return core.Isometry(np.diag([1.0, -1.0, 1.0]).astype(complex))


def group_preset(name):
    """Generator system for a named group preset."""
    if name == "cyclic-vertical":
        return gr.GroupGens((("a", hb.embed_translation(0.0, 1.0)),))
    if name == "cyclic-horizontal":
        return gr.GroupGens((("a", hb.embed_translation(1.0, 0.0)),))
    if name == "dilation":
        return gr.GroupGens((("a", hb.embed_dilation(np.exp(0.5))),))
    if name == "z2-lattice":
        return gr.GroupGens((
            ("a", hb.embed_translation(1.0, 0.0)),
            ("b", hb.embed_translation(0.0, 1.0)),
        ))
    if name == "schottky":
        # products of inversions in four pairwise disjoint Cygan balls;
        # freeness comes from the ping-pong argument on the balls, and the
        # basepoint (ball origin) lies outside all four
        a = _sphere_inversion(3.0, 0.0) @ _sphere_inversion(-3.0, 0.0)
        b = _sphere_inversion(0.0, 5.0) @ _sphere_inversion(0.0, -5.0)
        return gr.GroupGens((("a", a), ("b", b)))
    if name == "fuchsian":
        # x -> x + 1 and x -> 1/x preserve the real circle; the limit set
        # is the whole circle and every sample stays exactly real
        return gr.GroupGens(
            (("t", hb.embed_translation(1.0, 0.0)),
             ("s", real_circle_inversion())),
            involutive=frozenset({"s"}),
        )
    raise ParameterError(f"unknown group preset {name!r}")


def packing_preset(name):
    """Sphere packing for a named packing preset."""
    if name == "two-sphere":
        return gr.SpherePacking((
            (hb.HeisPoint(np.array([3.0 + 0.0j]), 0.0), 1.0),
            (hb.HeisPoint(np.array([-3.0 + 0.0j]), 0.0), 1.0),
        ))
    raise ParameterError(f"unknown packing preset {name!r}")


def bend_preset(name):
    """Bending setup (group decomposition) for a named preset."""
    g_alpha = hb.embed_dilation(np.exp(0.5))
    if name == "hnn-bend":
        return bd.AmalgamSpec(
            g_alpha=g_alpha,
            group_one=gr.GroupGens((("a", g_alpha),)),
            hnn_partner=real_glide(1.5),
        )
    if name == "amalgam-bend":
        return bd.AmalgamSpec(
            g_alpha=g_alpha,
            group_one=gr.GroupGens((("a", g_alpha),
                                    ("t", hb.embed_translation(1.0, 0.0)))),
            group_two=gr.GroupGens((("b", real_glide(1.5)),)),
        )
    raise ParameterError(f"unknown bend preset {name!r}")


def boundary_seeds(count, seed=0):
    """Deterministic boundary points on the real circle for limit-set runs.

    Golden-ratio spacing keeps the points irrational and well spread; the
    seed offsets the sequence without changing its character.
    """
    if count < 1:
        raise ParameterError("count must be >= 1")
    out = []
    for k in range(count):
        frac = ((seed * 97 + k + 1) * _GOLDEN) % 1.0
        x = 0.05 + 0.9 * frac
        out.append(hb.horo_to_projective(hb.HeisPoint(np.array([complex(x)]),
                                                      0.0)))
    return out
