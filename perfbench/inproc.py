"""Traced in-process passes of one workload; run.py starts it for --trace 1.

It makes the calls of a pass through ``bsmrender.cli.main`` in this one
process, twice, traced both times. The per-layer metrics come from the
second pass, whose caches are warm; the counts of both passes must be
identical. An untraced third pass would take a paper run past the 180 s a
run may last, so the tracing overhead is measured instead as the cost of
one wrapped call over a plain call, times the wrapped calls of the pass.

Tracing wraps every public function defined in a ``bsmrender`` module and
rebinds it in every module namespace that holds it, because the CLI imports
names with ``from .x import y``. Each wrapped ``<module>.<fn>`` gets
``.calls``, ``.total_s`` and ``.self_s`` (total minus the time spent in
other wrapped functions it called). Hooks add work counts taken from
arguments and results.

The last line of stdout is one JSON object for run.py.
"""

import argparse
import contextlib
import gc
import inspect
import io
import json
import os
import shutil
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import workloads as wl


def _size_of_path(args, kwargs, result):
    return os.path.getsize(args[0] if args else kwargs["path"])


# traced function -> (count name, amount of work in one call)
COUNT_HOOKS = {
    "simulate.compute_image_sources":
        ("simulate.images_enumerated", lambda a, k, r: r.count),
    "simulate.render_reference_plane_waves":
        ("simulate.sh_channel_samples", lambda a, k, r: r.shape[0] * r.shape[1]),
    "stft.stft":
        ("stft.channel_frames", lambda a, k, r: r.num_channels * r.num_frames),
}
for _fn in ("write_wav", "write_sh_signal", "write_binaural_spectrogram", "write_json"):
    COUNT_HOOKS[f"containers.{_fn}"] = ("containers.bytes_written", _size_of_path)
for _fn in ("read_wav", "read_sh_signal", "read_binaural_spectrogram", "read_json",
            "file_sha256"):
    COUNT_HOOKS[f"containers.{_fn}"] = ("containers.bytes_read", _size_of_path)


class Tracer:
    """Wraps the package's public functions while installed."""

    def __init__(self):
        self.stats = {}  # name -> [calls, total_s, self_s]
        self.counts = Counter({name: 0 for name, _ in COUNT_HOOKS.values()})
        self.hook_errors = set()
        self._stack = []  # time spent in wrapped children, per open frame
        self._patches = []

    def _wrap(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        hook = COUNT_HOOKS.get(name)

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
            if hook is not None:
                try:
                    self.counts[hook[0]] += int(hook[1](args, kwargs, result))
                except (AttributeError, IndexError, KeyError, TypeError, OSError):
                    self.hook_errors.add(name)
            return result

        return wrapper

    def install(self):
        modules = [m for n, m in sys.modules.items()
                   if n.partition(".")[0] == "bsmrender"]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rpartition(".")[2]
            for attr, value in vars(mod).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == mod.__name__):
                    wrappers[value] = self._wrap(f"{short}.{attr}", value)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(mod, attr, wrappers[value])
                    self._patches.append((mod, attr, value))

    def uninstall(self):
        for mod, attr, value in self._patches:
            setattr(mod, attr, value)
        self._patches.clear()

    def values(self):
        out = dict(self.counts)
        for name, (calls, total, own) in self.stats.items():
            out.update({f"{name}.calls": calls, f"{name}.total_s": total,
                        f"{name}.self_s": own})
        return out

    def count_values(self):
        return {k: v for k, v in self.values().items() if not k.endswith("_s")}


def wrapper_cost(repeat=200_000):
    """Seconds a wrapped call adds to a plain call, measured in this process."""
    def noop():
        return None

    wrapped = Tracer()._wrap("noop", noop)
    costs = []
    for fn in (noop, wrapped):
        start = time.perf_counter()
        for _ in range(repeat):
            fn()
        costs.append(time.perf_counter() - start)
    return max(costs[1] - costs[0], 0.0) / repeat


class Tally:
    """Calls attempted and failed, with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def add(self, label, errors):
        self.attempted += 1
        self.failed += bool(errors)
        self.errors += [f"{label}: {e}" for e in errors]


def run_pass(cli, workload, seed, pass_dir, digests, tally, tracer=None):
    """One pass through cli.main, outputs checked; returns its wall time."""
    calls = wl.plan(workload, seed, pass_dir)
    if tracer:
        tracer.install()
    start = time.perf_counter()
    try:
        for call in calls:
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(call.argv)
                errors = [f"exit {code}"] if code else \
                    wl.check_call(workload, seed, call, digests.get(call.variant))[0]
            except Exception:  # a crash of the program is a failed call
                errors = [traceback.format_exc(limit=2).strip().splitlines()[-1]]
            tally.add(f"{pass_dir.name} {call.stage} {call.variant or ''}".rstrip(),
                      errors)
    finally:
        wall = time.perf_counter() - start
        if tracer:
            tracer.uninstall()
    shutil.rmtree(pass_dir)
    gc.collect()
    return wall


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    args = parser.parse_args()

    start = time.perf_counter()
    import bsmrender.cli as cli
    import_s = time.perf_counter() - start

    tally = Tally()
    digests = {}
    for call in wl.plan(args.workload, args.seed, args.work / "setup"):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(call.dry_run_argv())
        tally.add(f"{call.stage} --dry-run", [f"exit {code}"] if code else [])
        if code == 0:
            digests[call.variant] = json.loads(buf.getvalue())["digest"]

    first, second = Tracer(), Tracer()
    walls = {name: run_pass(cli, args.workload, args.seed, args.work / name,
                            digests, tally, tracer)
             for name, tracer in (("first", first), ("second", second))}
    wrapped_calls = sum(calls for calls, _, _ in second.stats.values())
    overhead_s = wrapped_calls * wrapper_cost()

    counts_a, counts_b = first.count_values(), second.count_values()
    differ = sorted(k for k in counts_a.keys() | counts_b.keys()
                    if counts_a.get(k) != counts_b.get(k))
    tally.add("trace self-check",
              [f"counts differ between traced passes: {differ}"] if differ else [])
    values = second.values()
    values.update({"cli.import_s": import_s,
                   "trace.pass_traced_s": walls["second"]})
    print(json.dumps({
        "values": values, "attempted": tally.attempted, "failed": tally.failed,
        "errors": tally.errors,
        "record": {"pass_s": walls, "digests": digests,
                   "wrapped_calls": wrapped_calls, "overhead_s": overhead_s,
                   "overhead": overhead_s / (walls["second"] - overhead_s),
                   "hook_errors": sorted(first.hook_errors | second.hook_errors),
                   "layers": dict(sorted(values.items()))},
    }))


if __name__ == "__main__":
    main()
