"""One property over the command line, driven in-process: whatever the
input, a command exits with a code of README's "Exit codes" table, a
failure prints exactly one line, and a failure leaves no new file behind
and no existing file changed.

The inputs come from the kinds of fault that were each once found by hand
to end in a traceback: labels XML cannot carry, file names that are not
valid UTF-8, lone surrogates, deep nesting and over-long integers in a
document, numbers near the float limits in every numeric field of a model
block, and output targets that exist, are directories or name one file.
"""

import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from functools import cache

from hypothesis import given, settings, strategies as st

from graphsom.cli import main

# a file name that is not valid UTF-8; Python hands it over with surrogate
# escapes. Only a file system that stores bytes takes it
NON_UTF8 = os.fsdecode(b"caf\xe9") if sys.getfilesystemencoding() == "utf-8" else "cafe"
# two triangles and a bridge; "a" is the label a fault may replace
EDGES = [("a", "b"), ("b", "c"), ("c", "a"), ("d", "e"), ("e", "f"), ("f", "d"),
         ("c", "d")]
# plain, two that XML 1.0 cannot carry, one it must escape, one non-ASCII
LABELS = ["a", "a\x01b", "a\ufffe", "<&>", "é"]
# JSON literals near the float and int64 limits, and a few plain ones
NUMBERS = ["1.7976931348623157e308", "-1.7976931348623157e308", "5e-324", "-0.0",
           "1e400", "9223372036854775808", "-1", "0", "1", "2.5"]
# every numeric field of the 2x2 model block, as its key path
MODEL_FIELDS = [("grid", "rows"), ("grid", "cols"), ("assignment", 0),
                ("assignment", 5), ("energy_trace", 0), ("energy_trace", -1),
                ("umatrix", 0, 0), ("umatrix", 1, 1)]
DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
DOC_FAULTS = ["none", "surrogate", "nesting", *(["digits"] if DIGITS else []),
              *[("number", path) for path in MODEL_FIELDS]]
# the outputs of each command, by flag
OUTPUTS = {"cluster": ("--out", "--report"), "stats": (), "attrs": ("--out",),
           "summary": ("--svg", "--dot"), "map": ("--svg", "--dot"),
           "full": ("--svg", "--dot")}


@cache
def som_document() -> str:
    """A kernel-som partition document of EDGES, as its JSON text."""
    with tempfile.TemporaryDirectory() as tmp:
        graph = os.path.join(tmp, "g.tsv")
        with open(graph, "w", encoding="utf-8") as fh:
            fh.writelines(f"{u}\t{v}\t1.0\n" for u, v in EDGES)
        out = os.path.join(tmp, "p.json")
        assert main(["cluster", "--input", graph, "--method", "kernel-som",
                     "--grid", "2x2", "--beta", "0.5", "--epochs", "5",
                     "--seed", "0", "--out", out]) == 0
        with open(out, encoding="utf-8") as fh:
            return fh.read()


def document_text(label: str, fault) -> str:
    """The document of :func:`som_document` with vertex "a" named ``label``
    and ``fault`` put in."""
    doc = json.loads(som_document())
    doc["assignment"] = {label if v == "a" else v: c
                         for v, c in doc["assignment"].items()}
    if fault == "surrogate":
        doc["method"] = "spec\udce9"  # json.dumps writes the escape \udce9
    if fault in ("none", "surrogate"):
        return json.dumps(doc)
    if fault in ("nesting", "digits"):
        literal = ("[" * 100_000 + "]" * 100_000 if fault == "nesting"
                   else "9" * (DIGITS + 1))
        doc["seed"] = "HOLE"
    else:
        _, (*keys, last), literal = fault
        node = doc["model"]
        for key in keys:
            node = node[key]
        node[last] = "HOLE"
    return json.dumps(doc).replace('"HOLE"', literal)


def mostly(plain, *others):
    """A strategy that draws ``plain`` about half the time, so that most
    cases hold one fault and its own exit code shows."""
    return st.one_of(st.just(plain), st.sampled_from([plain, *others]))


@st.composite
def scenarios(draw):
    command = draw(st.sampled_from(sorted(OUTPUTS)))
    fault = draw(mostly(*DOC_FAULTS))
    if isinstance(fault, tuple):
        fault = (*fault, draw(st.sampled_from(NUMBERS)))
    flags = OUTPUTS[command]
    return {
        "command": command,
        "label": draw(mostly(*LABELS)),
        "fault": fault,
        # which files get a name that is not valid UTF-8
        "odd_names": draw(mostly(frozenset(), *map(frozenset, [
            ["graph"], ["doc"], *[[flag] for flag in flags]]))),
        # each output is new, an existing file or a directory
        "targets": {flag: draw(mostly("new", "file", "directory")) for flag in flags},
        # the second output spelled as the first's path
        "shared": len(flags) == 2 and draw(mostly(False, True)),
    }


def argv_in(tmp: str, case: dict) -> tuple[list[str], list[str]]:
    """The command of ``case`` and its output paths, with its input files
    written into ``tmp`` and its targets prepared there."""
    def path(name, suffix):
        stem = name.strip("-")
        return os.path.join(tmp, (NON_UTF8 + stem if name in case["odd_names"]
                                  else stem) + suffix)

    graph, doc = path("graph", ".tsv"), path("doc", ".json")
    label = case["label"]
    with open(graph, "w", encoding="utf-8") as fh:
        fh.writelines(f"{u}\t{v}\t1.0\n".replace("a", label, 1) for u, v in EDGES)
    with open(doc, "w", encoding="utf-8") as fh:
        fh.write(document_text(label, case["fault"]))
    outputs = []
    for flag, target in case["targets"].items():
        out = path(flag, ".out")
        if case["shared"] and outputs:
            head, tail = os.path.split(outputs[0][1])
            out = os.path.join(head, ".", tail)
        elif target == "file":
            with open(out, "wb") as fh:
                fh.write(b"an earlier output\n")
        elif target == "directory":
            os.mkdir(out)
        outputs.append((flag, out))
    command = case["command"]
    if command == "cluster":
        argv = ["cluster", "--input", graph, "--method", "kernel-som",
                "--grid", "2x2", "--beta", "0.5", "--epochs", "5", "--seed", "0"]
    elif command == "stats":
        argv = ["stats", "--input", graph, "--partition", doc]
    elif command == "attrs":
        table = os.path.join(tmp, "attrs.tsv")
        with open(table, "w", encoding="utf-8") as fh:
            fh.write(f"!schema\tage:numeric\n{label}\tage\t30\nb\tregion\tcoast\n")
        argv = ["attrs", "--partition", doc, "--attributes", table]
    else:
        source = "--partition" if command == "summary" else "--model"
        argv = ["layout", "--mode", command, "--input", graph, source, doc,
                "--seed", "0"]
        if command != "map":
            argv += ["--iterations", "5"]
    return argv + [part for pair in outputs for part in pair], \
        [out for _, out in outputs]


def snapshot(tmp: str) -> dict:
    """Each entry of ``tmp``: a file's bytes, or None for a directory."""
    out = {}
    for entry in os.scandir(tmp):
        if entry.is_dir():
            out[entry.name] = None
        else:
            with open(entry.path, "rb") as fh:
                out[entry.name] = fh.read()
    return out


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(case=scenarios())
def test_every_exit_is_in_the_table(case):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        argv, outputs = argv_in(tmp, case)
        before = snapshot(tmp)
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        after = snapshot(tmp)
    out, err = out.getvalue(), err.getvalue()
    # a directory as a target is a write failure, which the table gives 1
    allowed = {0, 2, 3, 4} | ({1} if "directory" in case["targets"].values() else set())
    assert code in allowed, err
    if code == 0:
        written = {os.path.basename(path) for path in outputs}
        assert written <= set(after) <= set(before) | written
        for name in set(before) - written:
            assert after[name] == before[name]
    else:
        assert err.count("\n") == 1 and err.startswith("graphsom: "), err
        assert out == ""
        assert after == before
