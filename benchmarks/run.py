"""wfalloc benchmark: one workload per run, a closed loop with one client.

    python3 benchmarks/run.py --workload online-greedy --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics with tracing
off; with ``--trace 1`` it splits ``--seconds`` between an untraced loop
and a loop with spans around the public functions, and reports the
per-layer metrics. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. See
benchmarks/README.md.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SUBPROCESS_TIMEOUT_S = 60
# The loop may run past --seconds to reach its minimum item count, but never
# past this, so that a run ends well within three minutes.
LOOP_CAP_S = 110.0
MAX_PROBLEMS_SHOWN = 10

END_TO_END_UNITS = {
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "item_ok_ratio": "ratio",
    "setup_s": "s",
    "cli_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv, workload_names):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workload_names)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def time_processes(commands):
    """Run each (argv, repeats) command from the repo root, interleaved, with
    the reference process before and after every run.

    Returns per command (scaled seconds, wall seconds, completed processes);
    a run is scaled by the mean of the reference runs on either side of it.
    """
    import calibration

    def timed(argv):
        start = time.perf_counter()
        done = subprocess.run(argv, cwd=ROOT, env={**os.environ, "PYTHONPATH": str(SRC)},
                              capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S)
        return time.perf_counter() - start, done

    def reference():
        elapsed, done = timed([sys.executable, *calibration.REFERENCE_PROCESS])
        done.check_returncode()
        return elapsed

    runs = [([], [], []) for _ in commands]
    before = reference()
    for r in range(max(repeats for _, repeats in commands)):
        for (argv, repeats), (scaled, wall, results) in zip(commands, runs):
            if r >= repeats:
                continue
            elapsed, done = timed(argv)
            after = reference()
            scaled.append(elapsed * calibration.REFERENCE_PROCESS_S / statistics.fmean((before, after)))
            wall.append(elapsed)
            results.append(done)
            before = after
    return runs


def succeeded(argv, results):
    for done in results:
        if done.returncode != 0:
            raise RuntimeError(f"{argv} exited {done.returncode}: {done.stderr.strip()}")


def provenance(name, seed):
    import numpy

    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    commit = "unknown"
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        # The ceiling stops git from finding a repository above the checkout.
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=SUBPROCESS_TIMEOUT_S,
                              env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        if done.returncode == 0:
            commit = done.stdout.strip()
    return {"workload": name, "seed": seed, "python": platform.python_version(),
            "numpy": numpy.__version__, "cpu": cpu, "nproc": os.cpu_count(), "commit": commit}


def run_loop(workload, items, seconds, min_items, tracer=None):
    """Closed loop over the input pool.

    Returns (item wall seconds, kernel seconds timed before and after each
    item, failed item count, problems, peak RSS in MB once ``min_items``
    items are done). The RSS is read at a fixed item count, not at the end,
    because memory the library leaves to the cycle collector grows with the
    number of items a timed loop happens to reach.
    """
    import calibration

    times, kernels, failed, problems, peak_mb = [], [], 0, [], None
    start = time.perf_counter()
    k = 0
    while True:
        item = items[k % len(items)]
        before = calibration.time_kernel()
        if tracer is not None:
            tracer.item_id, tracer.active = k, True
        t0 = time.perf_counter()
        try:
            out = workload.run(item)
        except Exception as exc:  # a raising item is a failed item
            out, found = None, [f"raised {exc!r}"]
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.active = False
        times.append(t1 - t0)
        kernels.append((before, calibration.time_kernel()))
        if out is not None:
            try:
                found = workload.check(item, out)
            except Exception as exc:  # a check that raises fails the item
                found = [f"check raised {exc!r}"]
        if found:
            failed += 1
            problems.extend(f"item {k}: {p}" for p in found)
        k += 1
        if k == min_items:
            peak_mb = peak_rss_mb()
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and k >= min_items) or elapsed >= LOOP_CAP_S:
            return times, kernels, failed, problems, peak_mb or peak_rss_mb()


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def item_metrics(times):
    return {
        "items_per_s": len(times) / sum(times),
        "item_p50_ms": 1e3 * statistics.median(times),
        "item_p90_ms": 1e3 * statistics.quantiles(times, n=10)[-1],
    }


def run_cli_in_process(tracer, argv, repeats):
    """cli.main on the counterpart command, traced, output discarded."""
    from tracing import CLI_ITEM, CLI_SPAN
    from wfalloc import cli

    main = tracer.wrap(CLI_SPAN, cli.main)
    codes = []
    for _ in range(repeats):
        tracer.item_id, tracer.active = CLI_ITEM, True
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes.append(main(argv))
        tracer.active = False
    return [f"in-process cli.main exited {c}" for c in codes if c != 0]


def run(name, seed, seconds, traced, size_name="full"):
    """One benchmark run. Returns (result, report lines, problems)."""
    import calibration
    import workloads
    from tracing import Tracer, layer_metrics

    size = workloads.SIZES[size_name]
    workload = workloads.WORKLOADS[name](size, seed)
    tracer = Tracer()
    problems = []
    with contextlib.ExitStack() as stack:
        if traced:
            stack.enter_context(tracer.installed())
        stack.enter_context(workload.capturing())

        tracer.active = traced
        items = workload.build()
        tracer.active = False

        # Untimed: the control, then the fixed sample against the references.
        if not workload.run_control():
            problems.append("the planted supermodular control was not flagged in full")
        sample = items[:size.samples]
        outputs = [workload.run(item) for item in sample]
        for item, out in zip(sample, outputs):
            problems += workload.check(item, out) + workload.reference_problems(item, out)

        # Fresh processes: the CLI counterpart, then set-up (untraced) or the
        # import probes (traced).
        cli_argv = [sys.executable, "-m", "wfalloc"] + workload.cli_argv(sample[0])
        if traced:
            probes = [[sys.executable, "-c", "import wfalloc"], [sys.executable, "-c", "pass"]]
        else:
            probes = [[sys.executable, str(HERE / "setup_probe.py"), name, str(seed), size_name]]
        runs = time_processes([(cli_argv, size.cli_repeats)]
                              + [(argv, size.repeats) for argv in probes])
        (cli_scaled, cli_wall, cli_results), probe_runs = runs[0], runs[1:]
        for argv, (_, _, results) in zip(probes, probe_runs):
            succeeded(argv, results)
        for done in cli_results:
            if done.returncode != 0:
                problems.append(f"CLI counterpart exited {done.returncode}: {done.stderr.strip()}")
            problems += workload.cli_problems(sample[0], outputs[0], done.stdout)
        digest = workloads.digest(workload, sample, outputs, cli_results[-1].stdout)

        # A traced run splits its time between an untraced and a traced loop.
        loop_s = seconds / 2 if traced else seconds
        times, kernels, failed, found, peak_mb = run_loop(workload, items, loop_s, size.min_items)
        problems += found
        if traced:
            traced_times, traced_kernels, traced_failed, found, _ = run_loop(
                workload, items, loop_s, size.min_items, tracer)
            problems += found
            failed += traced_failed
            problems += run_cli_in_process(tracer, workload.cli_argv(sample[0]), size.repeats)

    attempted = len(times) + (len(traced_times) if traced else 0)
    scaled = calibration.scaled(times, kernels)
    lines = [f"workload {name}  seed {seed}  trace {int(traced)}  items {len(times)}  "
             f"failed {failed}  (p90 over {len(times)} samples; times scaled to the "
             f"reference host speed, wall times beside them)"]
    if traced:
        metrics = layer_metrics(tracer, calibration.factors(traced_kernels))
        import_s, bare_s = (statistics.median(scaled) for scaled, _, _ in probe_runs)
        metrics["cli.import_s"] = (import_s - bare_s, "s")
        traced_scaled = calibration.scaled(traced_times, traced_kernels)
        metrics["trace.overhead_ratio"] = (
            item_metrics(scaled)["items_per_s"] / item_metrics(traced_scaled)["items_per_s"], "ratio")
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"trace-{name}.npz")
        lines.append(f"traced items {len(traced_times)}  spans {len(tracer.end)}  "
                     f"written to {OUT.relative_to(ROOT) / f'trace-{name}.npz'}")
    else:
        setup_scaled, setup_wall, _ = probe_runs[0]
        values = {
            **item_metrics(scaled),
            "item_ok_ratio": 1.0 - failed / attempted,
            "setup_s": statistics.median(setup_scaled),
            "cli_s": statistics.median(cli_scaled),
            "peak_rss_mb": peak_mb,
        }
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
        wall = {**item_metrics(times), "setup_s": statistics.median(setup_wall),
                "cli_s": statistics.median(cli_wall)}
        lines.append(f"  {'failed_ratio':40s} {failed / attempted!r} ratio")
        lines += [f"  {'wall.' + k:40s} {v!r} {END_TO_END_UNITS[k]}" for k, v in wall.items()]
    lines += [f"  {k:40s} {v!r} {unit}" for k, (v, unit) in metrics.items()]
    lines.append("provenance " + json.dumps(provenance(name, seed), sort_keys=True))
    lines.append(f"digest sha256 {digest}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }
    return result, lines, problems


def main(argv=None, size_name="full"):
    if not (SRC / "wfalloc" / "__init__.py").is_file():
        print(f"error: no wfalloc sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    ours = [str(SRC), str(HERE)]
    sys.path[:] = ours + [p for p in sys.path if p not in ours]
    import workloads

    args = parse_args(argv, sorted(workloads.WORKLOADS))
    result, lines, problems = run(args.workload, args.seed, args.seconds, bool(args.trace), size_name)
    for p in problems[:MAX_PROBLEMS_SHOWN]:
        print(f"problem: {p}", file=sys.stderr)
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    # One CPU for the loop, its calibration kernel and every child process.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.exit(main())
