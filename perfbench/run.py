"""Staged-CLI benchmark of bsmrender.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload desk --seed 0 --seconds 20 --trace 0

The program under test is ``src/bsmrender`` of that checkout, started the
way its users start it: ``python3 -m bsmrender.cli <stage> ...``, one
subprocess per stage, one stage at a time, each pass in a fresh artifact
directory under ``.perfbench_runs/`` that is deleted once measured. One
client, closed loop: a call starts when the previous one has ended.
Numeric threads are capped at 2 (the OpenBLAS default on a 2-core box).

``--trace 0`` times the calls from outside and prints the end-to-end
metrics named in BENCHMARK.json. ``--trace 1`` instead runs inproc.py,
which makes the same calls in one process with every public function of
the package wrapped, and prints the per-layer metrics; the record line
carries the full per-function table and the tracing overhead.

Every call's outputs are checked against expected.json; a call that exits
nonzero or fails its check counts as failed. The last line of stdout is the
result object; the line before it is a record with the environment, the
config digests, per-call rows and check details.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import workloads as wl

ROOT = Path.cwd()
PROGRAM = [sys.executable, "-m", "bsmrender.cli"]
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
THREADS = "2"
# a run must end within 180 s; stop starting work past this point
DEADLINE_S = 172.0
MIB = 2.0 ** 20


def child_env():
    env = dict(os.environ)
    # only the checkout's own copy of the package, whatever is installed
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update({var: THREADS for var in THREAD_VARS})
    return env


class Child:
    """A finished subprocess: wall time, its own CPU time and peak RSS
    (from wait4 on its pid, so no other child is mixed in) and exit code."""

    def __init__(self, cmd, log_stem, timeout):
        self.cmd = cmd
        out, err = log_stem.with_suffix(".out"), log_stem.with_suffix(".err")
        with open(out, "wb") as fh_out, open(err, "wb") as fh_err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                                    stdout=fh_out, stderr=fh_err)
            timer = threading.Timer(max(timeout, 0.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            self.wall_s = time.perf_counter() - start
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.rss_mib = usage.ru_maxrss * 1024 / MIB  # ru_maxrss is in KiB
        self.stdout = out.read_text(errors="replace")
        self.stderr = err.read_text(errors="replace")

    def failure(self):
        if self.code == 0:
            return None
        tail = self.stderr.strip().splitlines()[-1:] or ["no stderr"]
        return f"exit {self.code}: {tail[0]}"


class Run:
    """Bookkeeping shared by both modes: the deadline and the op count."""

    def __init__(self, args, work):
        self.args = args
        self.work = work
        self.start = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def remaining(self):
        return DEADLINE_S - (time.monotonic() - self.start)

    def child(self, cmd, log_stem):
        return Child(cmd, log_stem, self.remaining())

    def record(self, label, errors):
        self.attempted += 1
        self.failed += bool(errors)
        self.errors += [f"{label}: {e}" for e in errors]


def dry_runs(run, calls, logs):
    """Set-up: one fresh ``--dry-run`` per call of the pass. Returns the
    wall times and the config digest of each call's variant."""
    walls, digests = [], {}
    for i, call in enumerate(calls):
        child = run.child(PROGRAM + call.dry_run_argv(), logs / f"dry{i}")
        error = child.failure()
        if error is None:
            digests[call.variant] = json.loads(child.stdout)["digest"]
        run.record(f"{call.stage} --dry-run", [error] if error else [])
        walls.append(child.wall_s)
    return walls, digests


def measure(run):
    """Untraced passes that fit in --seconds (at least one)."""
    args = run.args
    logs = run.work / "logs"
    logs.mkdir()
    setup, digests = dry_runs(run, wl.plan(args.workload, args.seed,
                                           run.work / "setup"), logs)
    passes, rows = [], []
    t0 = time.monotonic()
    while True:
        pass_start = time.monotonic()
        pass_dir = run.work / f"pass{len(passes)}"
        calls = wl.plan(args.workload, args.seed, pass_dir)
        children = []
        for i, call in enumerate(calls):
            label = f"pass {len(passes)} {call.stage} {call.variant or ''}".rstrip()
            if run.remaining() <= 0:
                run.record(label, ["not started: deadline reached"])
                continue
            child = run.child(PROGRAM + call.argv, logs / f"p{len(passes)}c{i}")
            error = child.failure()
            errors, observed = ([error], {}) if error else \
                wl.check_call(args.workload, args.seed, call, digests.get(call.variant))
            run.record(label, errors)
            children.append(child)
            rows.append({"pass": len(passes), "stage": call.stage,
                         "variant": call.variant, "wall_s": child.wall_s,
                         "cpu_s": child.cpu_s, "rss_mib": child.rss_mib,
                         "exit": child.code, "observed": observed})
        written = sum(wl.tree_bytes(d) for d in {c.out_dir for c in calls}
                      if d.exists())
        shutil.rmtree(pass_dir)
        passes.append({"wall_s": sum(c.wall_s for c in children),
                       "cpu_s": sum(c.cpu_s for c in children),
                       "rss_mib": max((c.rss_mib for c in children), default=0.0),
                       "bytes": written})
        # whole passes only: stop when another would end past --seconds
        pass_s = time.monotonic() - pass_start
        if time.monotonic() - t0 + pass_s > args.seconds \
                or run.remaining() < 1.5 * pass_s:
            break

    def med(key):
        return statistics.median(p[key] for p in passes)

    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": med("wall_s"),
        "cpu_s": med("cpu_s"),
        "peak_rss_mb": med("rss_mib"),
        "bytes_written_mb": med("bytes") / MIB,
    }
    stage_s = {stage: statistics.median(r["wall_s"] for r in rows if r["stage"] == stage)
               for stage in dict.fromkeys(r["stage"] for r in rows)}
    record = {"digests": digests, "setup_s": setup, "stage_s": stage_s,
              "passes": passes, "calls": rows}
    return metrics, record


def trace(run):
    """One inproc.py child: two traced passes in-process."""
    args = run.args
    cmd = [sys.executable, str(Path(__file__).with_name("inproc.py")),
           "--workload", args.workload, "--seed", str(args.seed),
           "--work", str(run.work / "inproc")]
    child = run.child(cmd, run.work / "inproc")
    error = child.failure()
    if error:
        run.record("inproc", [error])
        return {}, {"stderr": child.stderr[-2000:]}
    result = json.loads(child.stdout.strip().splitlines()[-1])
    run.attempted += result["attempted"]
    run.failed += result["failed"]
    run.errors += result["errors"]
    record = {"child_wall_s": child.wall_s, "child_rss_mib": child.rss_mib,
              **result["record"]}
    return result["values"], record


def environment():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = None
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "threads": {v: child_env()[v] for v in THREAD_VARS},
            "git": git_state()}


def git_state():
    """Commit and dirty flag of the checkout, or None outside a git tree."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}

    def git(*argv):
        return subprocess.run(["git", *argv], cwd=ROOT, env=env, timeout=30,
                              capture_output=True, text=True)

    try:
        head = git("rev-parse", "HEAD")
        if head.returncode != 0:
            return None
        status = git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.TimeoutExpired):
        return None
    return {"commit": head.stdout.strip(), "dirty": bool(status.stdout.strip())}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "bsmrender" / "cli.py").is_file() or not spec_path.is_file():
        print(f"perfbench: run from a bsmrender checkout; {ROOT} has no "
              "src/bsmrender/cli.py or BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())

    scratch = ROOT / ".perfbench_runs"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        run = Run(args, work)
        values, record = (trace if args.trace else measure)(run)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    if run.attempted == 0 or not values:
        print(f"perfbench: no call completed: {run.errors}", file=sys.stderr)
        return 1

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            record.setdefault("absent", []).append(m["name"])
        metrics[m["name"]] = {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "seconds": args.seconds, "trace": args.trace,
                      "environment": environment(),
                      "errors": run.errors, **record}))
    print(json.dumps({"correct": not run.errors, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
