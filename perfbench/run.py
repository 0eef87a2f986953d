"""Benchmark of survformer's user-facing pipeline: train -> eval -> predict.

    python3 perfbench/run.py --workload fit-2k --seed 1 --seconds 25 --trace 0

Run from a checkout of the repository; the program is imported from its
``src/`` directory and nothing needs building. Set-up draws the workload's
CSV from ``--seed`` and writes it. Then, for ``--seconds``, the benchmark
repeats the pipeline (at least twice). With ``--trace 0`` each stage is the
``survformer`` CLI in its own child process, timed wall to wall with its
peak RSS from ``wait4``; these are the end-to-end metrics. Their times are
wall times scaled to a reference CPU pace (see ``pace``), which this process
probes on the stage's CPU while the stage runs; the wall times themselves
are printed beside them as ``*_wall_s``. With
``--trace 1`` each stage runs in this process through ``survformer.cli.run``,
once plain and once under ``tracer.Tracer``; the spans give the per-layer
metrics, and the traced minus the plain wall time gives the tracing
overhead per stage.

Every stage run is one operation. It fails on a nonzero exit, on a failed
output check (see ``checks``), or when its output differs by a single byte
from the same file in an earlier repeat of the run. The last line of
standard output is the JSON result; the lines above it give the machine and
libraries and a table of every metric with its quartiles and sample count.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One process drives the load and stages run one at a time, so BLAS threads
# would only add scheduling noise. Pinned before numpy loads, here and in
# every stage child; the setting is recorded with each result.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update({var: "1" for var in BLAS_THREAD_VARS})

import numpy as np  # noqa: E402

import checks  # noqa: E402
import pace  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, generate, write_csv  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
STAGES = ("train", "eval", "predict")
OUTPUTS = {"train": "model.json", "eval": "metrics.json", "predict": "curves.csv"}
SETUP_REPEATS = 5
MIN_PIPELINES = 2  # so that every run checks determinism

END_TO_END = {
    "setup_s": "s",
    "train_s": "s",
    "eval_s": "s",
    "predict_s": "s",
    "pipeline_s": "s",
    "train_peak_rss_mb": "MB",
    "eval_peak_rss_mb": "MB",
    "predict_peak_rss_mb": "MB",
    "ctd_mean": "ratio",
}
PER_LAYER = {
    **tracer.LAYER_METRICS,
    **{f"trace.{stage}_overhead_s": "s" for stage in STAGES},
}


def load_program():
    """Import survformer from this checkout's ``src``, never from elsewhere."""
    package = SRC / "survformer"
    if not (package / "cli.py").is_file():
        raise SystemExit(f"error: {package} not found; run from a survformer checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import survformer
    import survformer.cli  # noqa: F401  (binds survformer.cli)

    if Path(survformer.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: survformer was imported from {survformer.__file__}, not {package}")
    return survformer


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(args, log, pacer):
    """Run ``python -m survformer.cli <args>``, probing the CPU's pace into
    ``pacer`` until it exits: (exit code, wall s, peak RSS MB)."""
    with open(log, "wb") as fh:
        pacer.sample()
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "survformer.cli", *args],
            stdout=fh, stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT,
        )
        try:
            exited = os.pidfd_open(proc.pid)
            try:
                while not select.select([exited], [], [], pace.INTERVAL_S)[0]:
                    pacer.sample()
            finally:
                os.close(exited)
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024


def run_inprocess(args, cli):
    """Call ``survformer.cli.run(args)`` here: (exit code, wall s, output)."""
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = cli.run(args)
    except Exception:  # a traceback is a failed operation, not a crash
        code = None
        out.write(traceback.format_exc())
    return code, time.perf_counter() - start, out.getvalue()


def digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Session:
    """One workload and seed: its inputs, operation counts and the first
    digest of every output file, which later repeats must match."""

    def __init__(self, workload, seed, work, program):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.program = program
        self.data = work / "data.csv"
        self.config = work / "config.json"
        self.attempted = 0
        self.failed = 0
        self.reference = {}
        self.recipe = None  # the checkpoint's split recipe, read after train
        self.ctd = []

    def setup(self, pacer):
        """Draw and write the input, then start the CLI once so bytecode and
        the page cache are warm before the first timed stage."""
        header, rows, times = generate(self.workload, self.seed)
        write_csv(self.data, header, rows)
        with open(self.config, "w", encoding="utf-8") as fh:
            json.dump(self.workload.config, fh)
        code, _, _ = run_child(["--help"], self.work / "warmup.log", pacer)
        if code != 0:
            print(f"warning: 'survformer --help' exited {code}", file=sys.stderr)
        self.rows, self.times = rows, times

    def args(self, stage, out):
        data, model = str(self.data), str(out / OUTPUTS["train"])
        if stage == "train":
            return ["train", "--data", data, "--config", str(self.config), "--checkpoint", model]
        if stage == "eval":
            return ["eval", "--data", data, "--checkpoint", model, "--out", str(out / OUTPUTS["eval"])]
        return ["predict", "--data", data, "--checkpoint", model,
                "--times", ",".join(repr(t) for t in self.times), "--out", str(out / OUTPUTS["predict"])]

    def test_fold(self, recipe):
        """Durations and events of the test fold under the split recipe."""
        labels = [(float(r[-2]), int(r[-1])) for r in self.rows]
        _, _, test = self.program.data.split(labels, recipe["fractions"], recipe["seed"])
        return tuple(np.array(col) for col in zip(*test))

    def verify(self, stage, out, code, log):
        """Count one operation; False (and a message) if it failed."""
        self.attempted += 1
        path = out / OUTPUTS[stage]
        try:
            if code != 0:
                raise checks.CheckFailed(f"exit code {code}\n{log[-2000:]}")
            if stage == "train":
                self.recipe = checks.check_checkpoint(path)
            elif stage == "eval":
                t, e = self.test_fold(self.recipe)
                values = checks.check_metrics(path, t, e, self.workload.events)
                self.ctd = self.ctd or values
            else:
                checks.check_curves(path, len(self.rows), self.times, self.workload.events)
            first = self.reference.setdefault(path.name, digest(path))
            if digest(path) != first:
                raise checks.CheckFailed(f"{path.name} differs from the first repeat under this seed")
        except (checks.CheckFailed, OSError, ValueError, KeyError) as err:
            self.failed += 1
            print(f"{self.workload.name} {stage} failed: {err}", file=sys.stderr)
            return False
        return True

    def pipeline_children(self):
        """One untraced pipeline: per stage (wall s, wall s at the reference
        pace, peak RSS MB), or None."""
        out = self.work / "child"
        out.mkdir(exist_ok=True)
        result = {}
        for stage in STAGES:
            log = self.work / f"{stage}.log"
            pacer = pace.Pacer()
            code, wall, rss = run_child(self.args(stage, out), log, pacer)
            if not self.verify(stage, out, code, log.read_text(errors="replace")):
                return None
            result[stage] = (wall, pacer.scale(wall), rss)
        return result

    def pipeline_inprocess(self, name, trace=None):
        """One in-process pipeline, traced if ``trace`` is a Tracer: per
        stage wall s, or None."""
        out = self.work / name
        out.mkdir(exist_ok=True)
        result = {}
        for stage in STAGES:
            scope = trace.span(f"cli.{stage}") if trace else contextlib.nullcontext()
            with scope:
                code, wall, log = run_inprocess(self.args(stage, out), self.program.cli)
            if not self.verify(stage, out, code, log):
                return None
            result[stage] = wall
        return result


def repeat_for(seconds, minimum, body):
    """Call ``body`` at least ``minimum`` times, then again while the next
    call, if as long as the last, would end within ``seconds``."""
    results = []
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        results.append(body())
        took = time.perf_counter() - start
        if len(results) >= minimum and time.perf_counter() + took > deadline:
            return results


def end_to_end(session, setups, pipelines):
    """Samples of every end-to-end metric, whose times are at the reference
    pace, and of the wall times they came from (``*_wall_s``, reported but
    not gated)."""
    done = [p for p in pipelines if p is not None]
    metrics = {"setup_s": [scaled for _, scaled in setups], "setup_wall_s": [wall for wall, _ in setups]}
    for stage in STAGES:
        metrics[f"{stage}_s"] = [p[stage][1] for p in done]
        metrics[f"{stage}_wall_s"] = [p[stage][0] for p in done]
        metrics[f"{stage}_peak_rss_mb"] = [p[stage][2] for p in done]
    metrics["pipeline_s"] = [sum(p[s][1] for s in STAGES) for p in done]
    metrics["pipeline_wall_s"] = [sum(p[s][0] for s in STAGES) for p in done]
    metrics["ctd_mean"] = [statistics.fmean(session.ctd)] if session.ctd else []
    return metrics


def per_layer(iterations):
    metrics = {name: [] for name in PER_LAYER}
    for plain, traced, spans in iterations:
        if plain is None or traced is None:
            continue
        for name, value in tracer.layer_metrics(spans).items():
            metrics[name].append(value)
        for stage in STAGES:
            metrics[f"trace.{stage}_overhead_s"].append(traced[stage] - plain[stage])
    return metrics


def machine(program):
    try:
        import numba  # noqa: F401

        numba_imports = True
    except ImportError:
        numba_imports = False
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_pinned": sorted(os.sched_getaffinity(0)),
        "pace_reference_s": pace.REFERENCE_S,
        "pace_interval_s": pace.INTERVAL_S,
        "platform": platform.platform(),
        "numba_imports": numba_imports,
        "survformer_use_numba": program.kernels.USE_NUMBA,
        "survformer_disable_numba": os.environ.get("SURVFORMER_DISABLE_NUMBA", ""),
    }


def measure(workload, seed, seconds, trace):
    """Run the benchmark; returns (result dict, samples per metric, machine)."""
    program = load_program()
    pace.pin()
    work = ROOT / ".perfbench_work" / f"{workload.name}-s{seed}-t{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        session = Session(workload, seed, work, program)
        setups = []
        for _ in range(SETUP_REPEATS):
            pacer = pace.Pacer()
            pacer.sample()
            start = time.perf_counter()
            session.setup(pacer)
            wall = time.perf_counter() - start
            pacer.sample()
            setups.append((wall, pacer.scale(wall)))
        if trace:

            def iteration():
                plain = session.pipeline_inprocess("plain")
                with tracer.Tracer() as tr:
                    traced = session.pipeline_inprocess("traced", tr)
                return plain, traced, tr.spans

            samples = per_layer(repeat_for(seconds, 1, iteration))
            units = PER_LAYER
        else:
            pipelines = repeat_for(seconds, MIN_PIPELINES, session.pipeline_children)
            samples = end_to_end(session, setups, pipelines)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = {
        name: {"value": statistics.median(samples[name]), "unit": unit}
        for name, unit in units.items()
        if samples[name]
    }
    result = {
        "correct": session.failed == 0 and len(metrics) == len(units),
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": metrics,
    }
    return result, samples, machine(program)


def report(workload, seed, result, samples, env):
    print("machine " + json.dumps(env, sort_keys=True))
    print(
        f"workload {workload.name} seed {seed}: {result['attempted']} stage runs, "
        f"{result['failed']} failed"
    )
    print(f"  {'metric':34} {'median':>14} {'q1':>14} {'q3':>14} {'n':>3}  unit")
    ungated = {name: "s" for name in samples if name not in result["metrics"] and samples[name]}
    for name, unit in [*((n, m["unit"]) for n, m in result["metrics"].items()), *ungated.items()]:
        values = samples[name]
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
        median = statistics.median(values)
        print(f"  {name:34} {median:14.6g} {q1:14.6g} {q3:14.6g} {len(values):3d}  {unit}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    workload = WORKLOADS[args.workload]
    result, samples, env = measure(workload, args.seed, args.seconds, bool(args.trace))
    report(workload, args.seed, result, samples, env)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
