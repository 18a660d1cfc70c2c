"""Check that two source trees write the same bytes for every benchmark command.

Usage, from the repository root:

    python3 tools/same_outputs.py PARENT CHANGE [--seed S ...]

PARENT and CHANGE are two checkouts of this repository. For each seed
(default: the benchmark's default seed) and each workload of
``perfbench/workloads.py``, each tree runs the workload's command sequence
in a fresh directory, on inputs written by ``workloads.write_inputs``: one
``python -m graphsom.cli`` process per command, the next after the previous
one exits, with ``PYTHONPATH=<tree>/src`` and ``OPENBLAS_NUM_THREADS=1``.
Every output file, and each command's standard output and exit status, is
compared between the trees. Each difference is printed with the SHA-256 of
both sides and, when both sides are JSON objects, the dotted key path of
each value that differs, such as ``model.energy_trace``: the path descends
through objects present on both sides and stops at any other value. The
exit status is 1 if there is any difference, else 0.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from workloads import DEFAULT_SEED, WORKLOADS, command_argv, write_inputs  # noqa: E402


def _sha256(data: bytes | None) -> str:
    return "missing" if data is None else hashlib.sha256(data).hexdigest()


def _key_paths(a: dict, b: dict, prefix: str = ""):
    """Dotted paths of the values that differ between two JSON objects."""
    absent = object()
    for key in {**a, **b}:
        x, y = a.get(key, absent), b.get(key, absent)
        if x == y:
            continue
        if isinstance(x, dict) and isinstance(y, dict):
            yield from _key_paths(x, y, f"{prefix}{key}.")
        else:
            yield prefix + key


def _differing_paths(old: bytes, new: bytes) -> list[str] | None:
    """Dotted key paths whose values differ, or None unless both sides are
    JSON objects."""
    try:
        a, b = json.loads(old), json.loads(new)
    except ValueError:
        return None
    if not (isinstance(a, dict) and isinstance(b, dict)):
        return None
    return list(_key_paths(a, b))


def run_outputs(tree: str, workload, seed: int) -> dict[str, bytes]:
    """Every output of one run of ``workload`` from ``tree``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"),
               OPENBLAS_NUM_THREADS="1")
    outputs = {}
    with tempfile.TemporaryDirectory() as work:
        write_inputs(workload, seed, work)
        inputs = set(os.listdir(work))
        for index, cmd in enumerate(workload.commands):
            argv = command_argv(cmd, seed)
            proc = subprocess.run([sys.executable, "-m", "graphsom.cli", *argv],
                                  cwd=work, env=env, capture_output=True)
            name = f"command {index} ({' '.join(argv)})"
            outputs[f"{name} stdout"] = proc.stdout
            outputs[f"{name} exit status"] = str(proc.returncode).encode()
        for name in sorted(set(os.listdir(work)) - inputs):
            with open(os.path.join(work, name), "rb") as fh:
                outputs[name] = fh.read()
    return outputs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="source tree of the parent commit")
    parser.add_argument("change", help="source tree of the change")
    parser.add_argument("--seed", type=int, nargs="+", default=[DEFAULT_SEED],
                        help=f"workload seeds (default {DEFAULT_SEED})")
    args = parser.parse_args(argv)
    compared = differ = 0
    for seed in args.seed:
        for workload in WORKLOADS.values():
            before = run_outputs(args.parent, workload, seed)
            after = run_outputs(args.change, workload, seed)
            for name in sorted(before.keys() | after.keys()):
                compared += 1
                old, new = before.get(name), after.get(name)
                if old == new:
                    continue
                differ += 1
                line = (f"{workload.name} seed {seed}: {name}: "
                        f"{_sha256(old)} -> {_sha256(new)}")
                paths = None if None in (old, new) else _differing_paths(old, new)
                if paths:
                    line += f" (values differ at: {', '.join(paths)})"
                print(line)
    print(f"{compared} outputs compared, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
