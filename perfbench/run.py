"""graphsom benchmark: drive the CLI as a user does and time it.

One run sets up one workload's inputs from ``--seed``, then runs its command
sequence (see ``workloads.py``) in a closed loop with one client: one
``graphsom`` process per command, the next command only after the previous
one exits, the whole sequence repeated until ``--seconds`` have passed. No
command starts that would not end by then (judged by its previous wall
time), so a run takes the same time on every workload and the last repeat
may stop part way. Each command's wall time is its median over the repeats;
the timings sum those medians. Every output is checked, and the outputs of
every repeat must be byte-identical to the first.

With ``--trace 1`` the run instead gives per-layer numbers: the sequence
runs once as subprocesses, then in this process untraced and traced (see
``spans.py``), and the three must write the same bytes.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names and
units are those of ``BENCHMARK.json``. ``--all`` runs every workload, prints
each metric by name and unit, writes ``.perfbench/results.json`` with the
benchmark definition, the environment header and every result, and exits 1
when any output check fails.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

# BLAS threads change output bits (and timings), so pin them to one before
# numpy is imported here or in any command process.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

from spans import MissingFunction, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED,
    WORKLOADS,
    check_output,
    cluster_q,
    command_argv,
    write_inputs,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

# a run repeats its sequence at least this often, so determinism is checked
MIN_REPEATS = 2
# Each command writes its own peak RSS (VmHWM, in kB) to the file named by
# PEAK_RSS_VAR as it exits. wait4's ru_maxrss would also count the pages of
# this process, which the command shares until it calls exec.
PEAK_RSS_VAR = "PERFBENCH_PEAK_RSS"
LAUNCH = f"""\
import atexit, os

def _peak_rss():
    with open("/proc/self/status", encoding="ascii") as status:
        kb = next(line for line in status if line.startswith("VmHWM")).split()[1]
    with open(os.environ["{PEAK_RSS_VAR}"], "w", encoding="ascii") as out:
        out.write(kb)

atexit.register(_peak_rss)
from graphsom.cli import entry_point
entry_point()
"""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def spawn(argv, cwd, capture_dir):
    """Run one graphsom command; return (wall s, exit code, max RSS MB, stdout)."""
    out_path = os.path.join(capture_dir, "stdout")
    err_path = os.path.join(capture_dir, "stderr")
    peak_path = os.path.join(capture_dir, "peak_rss_kb")
    with contextlib.suppress(FileNotFoundError):
        os.remove(peak_path)
    env = child_env()
    env[PEAK_RSS_VAR] = peak_path
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", LAUNCH, *argv],
                                cwd=cwd, env=env, stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted or terminated: end the command
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    if code != 0:
        with open(err_path, "rb") as fh:
            sys.stderr.write(fh.read().decode("utf-8", "replace"))
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    peak_kb = read_or_none(peak_path)  # None if the command died early
    rss_mb = (int(peak_kb) if peak_kb else usage.ru_maxrss) / 1024.0
    return wall, code, rss_mb, stdout


def read_or_none(path):
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


class Sequence:
    """Timings, checks and output bytes of one pass over a workload."""

    def __init__(self):
        self.walls: list[float] = []  # seconds, one per command
        self.peak_rss_mb = 0.0
        self.attempted = 0
        self.failed = 0
        self.outputs: dict[str, bytes | None] = {}

    def record(self, workload, index, cmd, wall, code, stdout, workdir):
        self.attempted += 1
        self.walls.append(wall)
        problems = [] if code == 0 else [f"exit code {code}"]
        for path, kind in cmd.outputs:
            if path == "-":
                key, data = f"stdout:{index}", stdout
            else:
                key, data = path, read_or_none(os.path.join(workdir, path))
            self.outputs[key] = data
            reason = check_output(kind, data, workload.n)
            if reason is not None:
                problems.append(f"{key}: {reason}")
        if problems:
            self.failed += 1
            print(f"check failed: {' '.join(cmd.argv)}: {'; '.join(problems)}",
                  file=sys.stderr)


def clear_outputs(workload, workdir):
    for cmd in workload.commands:
        for path, _ in cmd.outputs:
            if path != "-":
                with contextlib.suppress(FileNotFoundError):
                    os.remove(os.path.join(workdir, path))


def run_subprocess(workload, seed, workdir, capture_dir, deadline=None,
                   previous=None) -> Sequence:
    """One pass as subprocesses; with a ``deadline``, stop before the first
    command whose ``previous`` wall time would carry it past the deadline."""
    clear_outputs(workload, workdir)
    seq = Sequence()
    for index, cmd in enumerate(workload.commands):
        if deadline is not None and \
                time.perf_counter() + previous.walls[index] > deadline:
            break
        wall, code, rss, stdout = spawn(command_argv(cmd, seed), workdir,
                                        capture_dir)
        seq.peak_rss_mb = max(seq.peak_rss_mb, rss)
        seq.record(workload, index, cmd, wall, code, stdout, workdir)
    return seq


def run_in_process(workload, seed, workdir, main) -> Sequence:
    """The same sequence through ``graphsom.cli.main`` in this process."""
    clear_outputs(workload, workdir)
    seq = Sequence()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for index, cmd in enumerate(workload.commands):
            buf = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(buf):
                code = main(command_argv(cmd, seed))
            wall = time.perf_counter() - start
            seq.record(workload, index, cmd, wall, code,
                       buf.getvalue().encode("utf-8"), workdir)
    finally:
        os.chdir(cwd)
    return seq


def timed_inputs(workload, seed, workdir) -> float:
    """Generate and write the workload's inputs; return the time taken."""
    start = time.perf_counter()
    write_inputs(workload, seed, workdir)
    return time.perf_counter() - start


def setup(workload, seed, workdir, capture_dir) -> float:
    """Write the inputs; return the time taken.

    An untimed ``--help`` run then imports graphsom and numpy once, so the
    first timed command does not pay for a cold file cache.
    """
    setup_s = timed_inputs(workload, seed, workdir)
    spawn(["--help"], workdir, capture_dir)
    return setup_s


def count_mismatches(reference: Sequence, seq: Sequence, what: str) -> int:
    """Outputs of ``seq`` that differ from ``reference``; a pass that stopped
    part way is compared on the commands it ran."""
    differing = sorted(key for key in seq.outputs
                       if seq.outputs[key] != reference.outputs[key])
    for key in differing:
        print(f"determinism check failed: {key} differs in {what}",
              file=sys.stderr)
    return len(differing)


def end_to_end(workload, seed, seconds, workdir, capture_dir):
    # the inputs are written again before every pass, so the samples of
    # setup_s span the whole run as the command timings do
    setup_times = [setup(workload, seed, workdir, capture_dir)]
    runs = []
    deadline = time.perf_counter() + seconds
    while len(runs) < MIN_REPEATS:
        setup_times.append(timed_inputs(workload, seed, workdir))
        runs.append(run_subprocess(workload, seed, workdir, capture_dir))
    while len(runs[-1].walls) == len(workload.commands) and \
            time.perf_counter() < deadline:
        setup_times.append(timed_inputs(workload, seed, workdir))
        runs.append(run_subprocess(workload, seed, workdir, capture_dir,
                                   deadline, runs[MIN_REPEATS - 1]))
    runs = [seq for seq in runs if seq.walls]
    first = runs[0]
    mismatched = sum(count_mismatches(first, seq, f"repeat {i}")
                     for i, seq in enumerate(runs[1:], start=1))
    attempted = sum(seq.attempted for seq in runs)
    failed = sum(seq.failed for seq in runs)
    # each command's median over the repeats, so a slow spell of the machine
    # during one command of one repeat does not move the result
    walls = [statistics.median(seq.walls[i] for seq in runs
                               if len(seq.walls) > i)
             for i in range(len(workload.commands))]
    metrics = {"pipeline_s": sum(walls)}
    for kind in ("cluster", "layout"):
        metrics[f"{kind}_s"] = sum(wall for wall, cmd in
                                   zip(walls, workload.commands)
                                   if cmd.kind == kind)
    metrics["setup_s"] = statistics.median(setup_times)
    metrics["peak_rss_mb"] = max(seq.peak_rss_mb for seq in runs)
    print(f"{workload.name}: {len(runs)} repeats of up to "
          f"{len(workload.commands)} commands taking "
          f"{', '.join(f'{sum(seq.walls):.3f}' for seq in runs)} s",
          file=sys.stderr)
    return attempted, failed, mismatched == 0, metrics


def traced(workload, seed, seconds, workdir, capture_dir):
    """Per-layer metrics: medians over rounds of untraced and traced runs.

    A round starts only while the previous one would still end within
    ``seconds``; there is always at least one.
    """
    sys.path.insert(0, SRC)
    from graphsom.cli import main

    with Tracer():  # fails here, before any work, if a function is missing
        pass
    setup(workload, seed, workdir, capture_dir)
    deadline = time.perf_counter() + seconds
    reference = run_subprocess(workload, seed, workdir, capture_dir)
    rounds, compared = [], []
    round_s = 0.0
    while not rounds or time.perf_counter() + round_s < deadline:
        round_start = time.perf_counter()
        plain = run_in_process(workload, seed, workdir, main)
        with Tracer() as tracer:
            spans = run_in_process(workload, seed, workdir, main)
        compared += [(plain, "untraced in-process run"),
                     (spans, "traced in-process run")]
        metrics = tracer.metrics()
        metrics["cli.overhead_s"] = sum(reference.walls) - sum(plain.walls)
        metrics["trace.overhead_s"] = sum(spans.walls) - sum(plain.walls)
        metrics["cluster.report_q_mean"] = statistics.fmean(
            cluster_q(spans.outputs, workload) if spans.failed == 0 else [0.0])
        name, self_s = tracer.dominant()
        print(f"{workload.name}: dominant span {name}, "
              f"{self_s / sum(spans.walls):.0%} of traced wall time; "
              f"subprocess {sum(reference.walls):.3f} s, in-process "
              f"{sum(plain.walls):.3f} s, traced {sum(spans.walls):.3f} s",
              file=sys.stderr)
        rounds.append(metrics)
        round_s = time.perf_counter() - round_start
    startup = [spawn(["--help"], workdir, capture_dir)[0] for _ in range(3)]

    mismatched = sum(count_mismatches(reference, seq, what)
                     for seq, what in compared)
    metrics = {key: statistics.median(r[key] for r in rounds)
               for key in rounds[0]}
    metrics["cli.startup_s"] = statistics.median(startup)
    sequences = [reference] + [seq for seq, _ in compared]
    attempted = sum(seq.attempted for seq in sequences)
    failed = sum(seq.failed for seq in sequences)
    return attempted, failed, mismatched == 0, metrics


def run_workload(name, seed, seconds, trace):
    workload = WORKLOADS[name]
    os.makedirs(WORK, exist_ok=True)
    rundir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK)
    workdir = os.path.join(rundir, "files")
    capture_dir = os.path.join(rundir, "capture")
    os.makedirs(workdir)
    os.makedirs(capture_dir)
    try:
        measure = traced if trace else end_to_end
        return measure(workload, seed, seconds, workdir, capture_dir)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)  # only when empty: --all keeps its results there


def _cgroup_cpu_quota():
    for path in ("/sys/fs/cgroup/cpu.max", "/sys/fs/cgroup/cpu/cpu.cfs_quota_us"):
        with contextlib.suppress(OSError):
            with open(path, encoding="ascii") as fh:
                return fh.read().strip()
    return None


def _git_commit():
    """HEAD of the checkout, read from .git, or None outside a git clone."""
    git = os.path.join(ROOT, ".git")
    head = read_or_none(os.path.join(git, "HEAD"))
    if head is None:
        return None
    head = head.decode("ascii").strip()
    if not head.startswith("ref: "):
        return head
    ref = read_or_none(os.path.join(git, *head[5:].split("/")))
    if ref is not None:
        return ref.decode("ascii").strip()
    packed = read_or_none(os.path.join(git, "packed-refs")) or b""
    for line in packed.decode("ascii").splitlines():
        sha, _, name = line.partition(" ")
        if name == head[5:]:
            return sha
    return None


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.25 prints its config only
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cgroup_cpu_quota": _cgroup_cpu_quota(),
        "git_commit": _git_commit(),
    }


def result_line(spec, trace, attempted, failed, correct, metrics):
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    names = [m["name"] for m in declared]
    if set(names) != set(metrics):
        raise RuntimeError(
            f"measured metrics {sorted(set(metrics) ^ set(names))} do not "
            f"match BENCHMARK.json")
    return {"correct": bool(correct and failed == 0),
            "attempted": int(attempted), "failed": int(failed),
            "metrics": {m["name"]: {"value": float(metrics[m["name"]]),
                                    "unit": m["unit"]} for m in declared}}


def print_metrics(name, result):
    print(f"{name}: correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for metric, entry in result["metrics"].items():
        print(f"  {metric} = {entry['value']:.6g} {entry['unit']}")


def main(argv=None) -> int:
    # terminating the benchmark raises SystemExit, so a running command is
    # killed and waited for on the way out
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=sorted(WORKLOADS))
    which.add_argument("--all", action="store_true",
                       help="run every workload in turn")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="measuring time (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "graphsom", "cli.py")):
        print(f"perfbench: no graphsom sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    env = environment()
    print(f"environment: {json.dumps(env, sort_keys=True)}")

    names = sorted(WORKLOADS) if args.all else [args.workload]
    results = {}
    for name in names:
        try:
            measured = run_workload(name, args.seed, seconds, args.trace)
        except MissingFunction as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        results[name] = result_line(spec, args.trace, *measured)
        print_metrics(name, results[name])
    correct = all(r["correct"] for r in results.values())
    if args.all:
        os.makedirs(WORK, exist_ok=True)
        with open(os.path.join(WORK, "results.json"), "w",
                  encoding="utf-8") as fh:
            json.dump({"benchmark": spec, "environment": env, "seed": args.seed,
                       "trace": args.trace, "results": results}, fh, indent=2)
            fh.write("\n")
        print(json.dumps({
            "correct": correct,
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": entry
                        for name, r in results.items()
                        for metric, entry in r["metrics"].items()}}))
    else:
        print(json.dumps(results[args.workload]))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
