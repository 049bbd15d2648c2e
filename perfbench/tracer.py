"""Outside-in tracer for one chgeom process.

The tracer replaces public functions of the chgeom modules with wrappers
after the package is imported.  Callers look these functions up through
their module at call time, so the wrappers see calls between modules and
within one module alike; no file of the package changes.

A timed wrapper records calls and self time: the span's duration minus the
part covered by timed spans nested inside it.  Functions called tens of
thousands of times per step get a count-only wrapper, because a timer on
them would cost more than the work it measures.
"""

import functools
import inspect
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("core", "heisenberg", "groups", "dirichlet", "bending", "presets")

# hot paths: counted, never timed
COUNT_ONLY = (
    "core.identity_gap",
    "core.projective_matrix_gap",
    "core.ProjectivePoint.projectively_equal",
    "heisenberg.cygan_dist",
    "heisenberg.horo_to_projective",
    "heisenberg.projective_to_horo",
)


def _element_ball_done(counts, before, result):
    if isinstance(result, tuple):
        levels, _ = result
        counts["groups.element_ball.elements"] += sum(len(w) for w, _ in levels)


def _orbit_enumerate_done(counts, before, result):
    if isinstance(result, list):
        records = result
    else:  # BudgetExceededError carries the partial orbit
        records = getattr(result, "partial", None) or []
    counts["groups.orbit_enumerate.points"] += len(records)


def _probe_done(counts, before, result):
    counts["groups.identity_word_probe.words"] += (
        counts["core.identity_gap.calls"] - before["core.identity_gap.calls"])


def _census_done(counts, before, result):
    if isinstance(result, BaseException):
        return
    counts["dirichlet.dirichlet_side_census.rays"] += result.rays_used
    counts["dirichlet.dirichlet_side_census.unbounded_rays"] += round(
        result.unbounded_ray_fraction * result.rays_used)
    # the ball enumerated inside the census, minus the identity
    counts["dirichlet.dirichlet_side_census.orbit_size"] += (
        counts["groups.element_ball.elements"]
        - before["groups.element_ball.elements"]
        - (counts["groups.element_ball.calls"]
           - before["groups.element_ball.calls"]))


HOOKS = {
    "groups.element_ball": _element_ball_done,
    "groups.orbit_enumerate": _orbit_enumerate_done,
    "groups.identity_word_probe": _probe_done,
    "dirichlet.dirichlet_side_census": _census_done,
}


class Tracer:
    """Call counts and self times of the wrapped functions of one process."""

    def __init__(self):
        self.counts = Counter()
        self.self_s = defaultdict(float)
        self._stack = []

    def timed(self, name, fn):
        counts, self_s, stack = self.counts, self.self_s, self._stack
        calls = name + ".calls"
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = Counter(counts) if hook else None
            result = None
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                result = exc
                raise
            finally:
                dt = perf_counter() - t0
                self_s[name] += dt - stack.pop()
                if stack:
                    stack[-1] += dt
                counts[calls] += 1
                if hook:
                    hook(counts, before, result)

        return wrapper

    def counted(self, name, fn):
        counts = self.counts
        calls = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[calls] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, package):
        """Wrap the public functions of the package's modules and cli.main."""
        for mod_name in MODULES:
            module = getattr(package, mod_name)
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                name = f"{mod_name}.{attr}"
                wrap = self.counted if name in COUNT_ONLY else self.timed
                setattr(module, attr, wrap(name, fn))
        for name in COUNT_ONLY:
            mod_name, *owner, attr = name.split(".")
            if owner:
                cls = getattr(getattr(package, mod_name), owner[0])
                setattr(cls, attr, self.counted(name, getattr(cls, attr)))
        package.cli.main = self.timed("cli", package.cli.main)

    def report(self):
        return {"counts": dict(self.counts), "self_s": dict(self.self_s)}
