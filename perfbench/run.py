#!/usr/bin/env python3
"""chgeom benchmark: fresh-process workloads, end to end and per layer.

    python3 perfbench/run.py --workload compute --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 60 --trace 0

Each workload is a fixed list of steps (workloads.py); a step is one fresh
process, run one at a time from this script: a closed loop with one
client.  A run repeats the step list, as passes, while another pass still
fits in --seconds (always at least one).  Every step's output is checked
against known answers and hashed without its timestamp; a hash that
differs from another run of the same seed and source fails the step.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1
runs every step twice in a row, untraced and then traced (started with
-X importtime and with tracer.py's wrappers installed), and reports the
per-layer metrics, plus the traced/untraced wall-time overhead.  The last
line of stdout is the JSON result; the lines before it are a readable
table and the run record.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracer import MODULES
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"
CHILD = BENCH_DIR / "child.py"
STEP_TIMEOUT_S = 150.0

_IMPORT_LINE = re.compile(r"^import time:\s*\d+ \|\s*(\d+) \|\s*(\S+)\s*$")
_TIMESTAMP = re.compile(rb'^\s*"timestamp": .*$\n?', re.MULTILINE)


class StepResult:
    """Timings, resource use and verdict of one step process."""

    def __init__(self, step):
        self.step = step
        self.wall = self.setup = self.work = self.rss_mb = 0.0
        self.failure = None
        self.out_bytes = 0
        self.digest = None
        self.imports = {}
        self.trace = None
        self.derived = {}


def _child_env():
    env = dict(os.environ)
    env.pop("CHGEOM_TOL", None)  # inputs come from the step, not the shell
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # import from cached bytecode
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def _spawn(cmd, stdout_path, stderr_path, env):
    """Run cmd to completion; return (start, end, exit code, rusage)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(STEP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            end = time.monotonic()
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return start, end, proc.returncode, usage


def _split_stderr(raw):
    """(import-time cumulative seconds by module, remaining stderr text)."""
    imports = {}
    rest = []
    for line in raw.decode(errors="replace").splitlines(keepends=True):
        m = _IMPORT_LINE.match(line)
        if m:
            imports.setdefault(m.group(2), int(m.group(1)) / 1e6)
        elif not line.startswith("import time:"):
            rest.append(line)
    return imports, "".join(rest)


def run_step(step, seed, traced, rundir, env):
    res = StepResult(step)
    out_path = rundir / (step.out_file or "out")
    args = [a.format(genfile=rundir / "schottky.json", out=out_path)
            for a in step.args]
    args += ["--seed", str(seed)] if step.kind == "cli" else [str(seed)]
    report_path = rundir / "report.json"
    stdout_path, stderr_path = rundir / "stdout", rundir / "stderr"
    for path in (report_path, out_path):
        path.unlink(missing_ok=True)
    cmd = [sys.executable] + (["-X", "importtime"] if traced else [])
    cmd += [str(CHILD), str(report_path), "1" if traced else "0", step.kind]
    start, end, code, usage = _spawn(cmd + args, stdout_path, stderr_path, env)

    res.wall = end - start
    res.work = res.wall
    res.rss_mb = usage.ru_maxrss / 1024.0
    stdout = stdout_path.read_bytes()
    res.imports, stderr = _split_stderr(stderr_path.read_bytes())
    out = out_path.read_bytes() if step.out_file else b""
    res.out_bytes = len(stdout) + len(out)
    res.digest = hashlib.sha256(
        _TIMESTAMP.sub(b"", stdout) + b"\0" + _TIMESTAMP.sub(b"", out)
    ).hexdigest()
    try:
        report = json.loads(report_path.read_text())
    except (OSError, ValueError):
        report = None
    if report is not None:
        res.setup = report["import_done"] - start
        res.work = end - report["import_done"]
        res.trace = report.get("trace")
    if code != step.expect_exit:
        res.failure = f"exit {code}, expected {step.expect_exit}: {stderr[-300:]}"
    elif report is None:
        res.failure = "the step wrote no report"
    else:
        try:
            res.derived = step.check(stdout.decode(), stderr, out.decode()) or {}
        except Exception as exc:  # any malformed output fails the step
            res.failure = f"{type(exc).__name__}: {exc}"
    return res


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "chgeom").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _check_determinism(workload, seed, passes):
    """Fail steps whose output hash differs from an earlier same-seed run."""
    store_path = WORK / f"digests-{_source_digest()}.json"
    try:
        store = json.loads(store_path.read_text())
    except (OSError, ValueError):
        store = {}
    for _, results in passes:
        for res in results:
            key = f"{workload}/{res.step.name}/{seed}"
            expected = store.setdefault(key, res.digest)
            if res.failure is None and res.digest != expected:
                res.failure = "output differs from another run of this seed"
    store_path.write_text(json.dumps(store, indent=1, sort_keys=True))


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _loadavg():
    with open("/proc/loadavg") as fh:
        return float(fh.read().split()[0])


def _prepare(rundir, env):
    """Warm the bytecode cache, write the generator file, read versions."""
    report_path = rundir / "report.json"
    cmd = [sys.executable, str(CHILD), str(report_path), "0", "prepare",
           str(rundir / "schottky.json")]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=STEP_TIMEOUT_S,
                   stdout=subprocess.DEVNULL)
    return json.loads(report_path.read_text())["record"]


def _reference_s():
    """Duration of a fixed pure-Python loop: the machine's current speed."""
    start = time.perf_counter()
    table = {}
    for i in range(200_000):
        key = i % 251
        table[key] = table.get(key, 0) + (i * i) % 7
    return time.perf_counter() - start


def _median(values):
    return statistics.median(values) if values else 0.0


def _step_median_sum(passes, field):
    """Sum over steps of each step's median over the given passes."""
    by_step = {}
    for results in passes:
        for r in results:
            by_step.setdefault(r.step.name, []).append(getattr(r, field))
    return sum(_median(v) for v in by_step.values())


def end_to_end(passes):
    """Per-run end-to-end values from the untraced passes."""
    plain = [results for traced, results in passes if not traced]
    steps = [r for results in plain for r in results]
    return {
        "wall_s": _step_median_sum(plain, "wall"),
        "setup_s": _median([r.setup for r in steps if r.setup > 0]),
        "work_s": _step_median_sum(plain, "work"),
        "peak_rss_mb": max(r.rss_mb for r in steps),
    }


def _layer_values(results):
    """Per-layer values of one traced pass, summed over its steps."""
    values = {}
    self_s = {}
    for res in results:
        for key, value in res.derived.items():
            values[key] = values.get(key, 0) + value
        if res.trace:
            for key, value in res.trace["counts"].items():
                values[key] = values.get(key, 0) + value
            for key, value in res.trace["self_s"].items():
                self_s[key] = self_s.get(key, 0.0) + value
    for key, value in self_s.items():
        values[key + ".self_s"] = value
    for module in MODULES:
        values[module + ".self_s"] = sum(
            v for k, v in self_s.items() if k.startswith(module + "."))
    cli_steps = [r for r in results if r.step.kind == "cli"]
    values["cli.out_bytes"] = sum(r.out_bytes for r in cli_steps)
    values["import.chgeom_s"] = _median(
        [r.imports["chgeom.cli"] for r in results if "chgeom.cli" in r.imports])
    values["import.scipy_stats_s"] = _median(
        [r.imports["scipy.stats"] for r in results if "scipy.stats" in r.imports])
    rays = values.get("dirichlet.dirichlet_side_census.rays", 0)
    values["dirichlet.dirichlet_side_census.unbounded_frac"] = (
        values.get("dirichlet.dirichlet_side_census.unbounded_rays", 0) / rays
        if rays else 0.0)
    return values


def per_layer(passes, names):
    """Median over traced passes of each per-layer metric."""
    traced = [_layer_values(rs) for t, rs in passes if t]
    out = {name: _median([v.get(name, 0) for v in traced]) for name in names}
    plain_wall = _step_median_sum([rs for t, rs in passes if not t], "wall")
    traced_wall = _step_median_sum([rs for t, rs in passes if t], "wall")
    out["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
    return out


def run_workload(name, seed, seconds, trace, spec):
    steps = WORKLOADS[name]
    rundir = WORK / "run"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    env = _child_env()
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": trace, "nproc": len(os.sched_getaffinity(0)),
              "python": sys.version.split()[0], "commit": _git_commit(),
              "loadavg_1m_start": _loadavg()}
    record.update(_prepare(rundir, env))

    # a traced run pairs each untraced step with its traced twin, so slow
    # spells of a shared machine hit both sides of trace.overhead_frac
    modes = (False, True) if trace else (False,)
    passes = []
    refs = []
    start = time.monotonic()
    while True:
        cycle = {traced: [] for traced in modes}
        for step in steps:
            for traced in modes:
                # a speed probe between steps, for the record: the host's
                # speed drifts, and this tells a slow machine from slow code
                refs.append(_reference_s())
                cycle[traced].append(run_step(step, seed, traced, rundir, env))
        passes.extend(cycle.items())
        elapsed = time.monotonic() - start
        if elapsed * (len(passes) + len(modes)) / len(passes) > seconds:
            break
    _check_determinism(name, seed, passes)
    record["loadavg_1m_end"] = _loadavg()
    record["passes"] = len(passes)
    record["reference_s"] = _median(refs)

    results = [r for _, rs in passes for r in rs]
    failed = [r for r in results if r.failure]
    if trace:
        wanted = [m["name"] for m in spec["per_layer"]]
        values = per_layer(passes, [n for n in wanted
                                    if n != "trace.overhead_frac"])
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values = end_to_end(passes)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    metrics = {n: {"value": values[n], "unit": units[n]} for n in units}
    return record, results, failed, metrics


def _print_table(name, record, results, failed, metrics):
    print(f"== {name}  (seed {record['seed']}, {record['passes']} passes)")
    for metric, m in metrics.items():
        print(f"  {metric:52s} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'fail_frac':52s} {len(failed) / len(results):>14.6g} "
          f"(ops {len(results)}, ops_failed {len(failed)})")
    for step in dict.fromkeys(r.step for r in results):
        mine = [r for r in results if r.step is step]
        walls = " ".join(f"{r.wall:.2f}{'T' if r.trace else ''}" for r in mine)
        print(f"  step {step.name:28s} setup {_median([r.setup for r in mine]):5.2f} s"
              f"  rss {max(r.rss_mb for r in mine):6.1f} MB  wall {walls} s")
    for res in failed:
        print(f"  FAILED {res.step.name}: {res.failure}")
    print("  record: " + json.dumps(record, sort_keys=True))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=60)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "chgeom" / "cli.py").is_file():
        print(f"chgeom sources not found under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failures = 0
    combined = {}
    for name in names:
        record, results, failed, metrics = run_workload(
            name, args.seed, args.seconds, bool(args.trace), spec)
        _print_table(name, record, results, failed, metrics)
        attempted += len(results)
        failures += len(failed)
        if len(names) == 1:
            combined = metrics
        else:
            combined.update({f"{name}.{k}": v for k, v in metrics.items()})
    print(json.dumps({"correct": failures == 0, "attempted": attempted,
                      "failed": failures, "metrics": combined}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
