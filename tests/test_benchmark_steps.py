"""Every step of the benchmark's workloads, run in process against its own
check: a change that breaks a step's answer, or the library calls the
benchmark makes, fails here and not only in the benchmark."""

import contextlib
import gc
import importlib.util
import io
import json
from pathlib import Path

import pytest

import chgeom.cli as cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
child = _load("child")

STEPS = [step for steps in workloads.WORKLOADS.values() for step in steps]


@pytest.fixture(scope="module")
def genfile(tmp_path_factory):
    path = tmp_path_factory.mktemp("bench") / "schottky.json"
    child.prepare(str(path))
    return path


@pytest.mark.parametrize("step", STEPS, ids=[step.name for step in STEPS])
def test_benchmark_step_passes_its_check(step, genfile, tmp_path):
    # as run.py runs a step with --seed 1, less the fresh process
    out_path = tmp_path / (step.out_file or "out")
    args = [a.format(genfile=genfile, out=out_path) for a in step.args]
    out, err = io.StringIO(), io.StringIO()
    if step.kind == "cli":
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(args + ["--seed", "1"])
        finally:
            gc.unfreeze()  # main freezes the collector for a process that then exits
    else:
        name, = args
        out.write(json.dumps(child.LIBRARY_STEPS[name](1), sort_keys=True) + "\n")
        code = 0
    assert code == step.expect_exit, err.getvalue()[-300:]
    text = out_path.read_text() if step.out_file else ""
    step.check(out.getvalue(), err.getvalue(), text)
