"""Check that two source trees write the same bytes for every benchmark command.

Usage, from the repository root:

    python3 tools/same_outputs.py PARENT CHANGE [--seed S ...]

PARENT and CHANGE are two checkouts of this repository. For each seed
(default: the benchmark's default seed) and each workload of
``perfbench/workloads.py``, each tree runs the workload's command sequence
in a fresh directory, on inputs written by ``workloads.write_inputs``: one
``python -m graphsom.cli`` process per command, the next after the previous
one exits, with ``PYTHONPATH=<tree>/src`` and ``OPENBLAS_NUM_THREADS=1``.
The SHA-256 of every output file, and of each command's standard output and
exit status, is compared between the trees. Each difference is printed; the
exit status is 1 if there is any, else 0.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from workloads import DEFAULT_SEED, WORKLOADS, command_argv, write_inputs  # noqa: E402


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def output_digests(tree: str, workload, seed: int) -> dict[str, str]:
    """Digest of every output of one run of ``workload`` from ``tree``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"),
               OPENBLAS_NUM_THREADS="1")
    digests = {}
    with tempfile.TemporaryDirectory() as work:
        write_inputs(workload, seed, work)
        inputs = set(os.listdir(work))
        for index, cmd in enumerate(workload.commands):
            argv = command_argv(cmd, seed)
            proc = subprocess.run([sys.executable, "-m", "graphsom.cli", *argv],
                                  cwd=work, env=env, capture_output=True)
            name = f"command {index} ({' '.join(argv)})"
            digests[f"{name} stdout"] = _sha256(proc.stdout)
            digests[f"{name} exit status"] = str(proc.returncode)
        for name in sorted(set(os.listdir(work)) - inputs):
            with open(os.path.join(work, name), "rb") as fh:
                digests[name] = _sha256(fh.read())
    return digests


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
            before = output_digests(args.parent, workload, seed)
            after = output_digests(args.change, workload, seed)
            for name in sorted(before.keys() | after.keys()):
                compared += 1
                old, new = before.get(name, "missing"), after.get(name, "missing")
                if old != new:
                    differ += 1
                    print(f"{workload.name} seed {seed}: {name}: {old} -> {new}")
    print(f"{compared} outputs compared, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
