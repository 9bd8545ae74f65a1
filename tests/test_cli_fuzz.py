"""Hypothesis fuzz over command-line arguments and input files.

Every run draws a subcommand, small and often invalid flag values, and a
small input file that may be malformed or missing. Whatever it draws, the
run must end in exit code 0, 1, 2 or 3 without a traceback, printing one
report, or nothing on an input error (exit 3) or a failed construction
(exit 1).
"""

import argparse
import contextlib
import io
import json
import os
import random
import tempfile
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from deltasys import cli
from conftest import random_semi_cluster

REPORT_KEYS = {"schema", "command", "params", "checks", "result", "verdict", "timing"}
BUILDERS = {"build-steiner", "build-counterexample"}

SUBPARSERS = next(a for a in cli._build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)).choices


def usually(sane, wild):
    """Mostly a sane value, so that runs get past argument checks; one draw
    in eight is a wild one: zero, negative, out of range or not a number.
    The wild draw is a middle value, which hypothesis draws no more often
    than the rest, where it favours the ends of a range."""
    return st.integers(0, 7).flatmap(lambda i: wild if i == 3 else sane)


def int_list(values, sizes):
    return st.lists(values, min_size=sizes[0], max_size=sizes[1]).map(
        lambda xs: ",".join(map(str, xs)))


# value bounds: n <= 7, budget <= 10^4, restarts <= 2
FLAG_VALUES = {
    "budget": usually(st.integers(1, 10**4), st.integers(-1, 0)),
    "restarts": usually(st.integers(0, 2), st.just(-1)),
    "n": usually(st.integers(1, 7), st.integers(-1, 0)),
    "seed": st.integers(0, 3),
}
INT = usually(st.integers(1, 6), st.integers(-2, 8))
FLOAT = usually(st.floats(0, 1), st.sampled_from(["nan", "inf", "-0.5", "2"]))
INT_LIST = usually(int_list(st.integers(1, 3), (1, 3)),
                   int_list(st.integers(-1, 4), (0, 4)) | st.just("1,x"))


@st.composite
def hypergraph_text(draw):
    n = draw(st.integers(1, 7))
    k = draw(st.integers(1, n))
    pool = list(combinations(range(1, n + 1), k))
    edges = draw(st.lists(st.sampled_from(pool), unique=True, max_size=24))
    return "\n".join([f"{n} {k}"] + [" ".join(map(str, e)) for e in edges]) + "\n"


def malformed_hypergraph_text():
    row = st.lists(st.integers(-1, 8), max_size=4).map(lambda r: " ".join(map(str, r)))
    return (st.lists(row, max_size=6).map("\n".join)
            | st.text(alphabet="0123456789 -#x\n", max_size=30))


@st.composite
def semi_cluster(draw):
    rng = random.Random(draw(st.integers(0, 10**6)))
    sizes = draw(st.sampled_from([(1, 1), (2, 1), (1, 2), (1, 1, 1)]))
    groups = tuple(draw(st.integers(1, 3)) for _ in sizes)
    return random_semi_cluster(rng, sizes, groups, pool_size=3)[0].to_json()


def witness_text():
    vertices = st.lists(st.integers(-1, 8), max_size=4)
    shaped = st.fixed_dictionaries({
        "host": vertices,
        "blocks": st.lists(vertices, max_size=3),
        "groups": st.lists(st.lists(vertices, max_size=3), max_size=3),
    })
    anything = st.recursive(
        st.none() | st.booleans() | st.integers(-2, 8) | st.text(max_size=3),
        lambda inner: (st.lists(inner, max_size=3)
                       | st.dictionaries(st.sampled_from(
                           ["host", "blocks", "groups", "result", "witness"]),
                           inner, max_size=4)),
        max_leaves=12)
    wild = (shaped | shaped.map(lambda c: {"result": {"witness": c}}) | anything
            ).map(json.dumps) | st.text(alphabet="{}[]\":,1 ", max_size=20)
    return usually(semi_cluster().map(json.dumps), wild)


def flag_value(action):
    if action.dest in FLAG_VALUES:
        return FLAG_VALUES[action.dest].map(str)
    if action.choices:
        return usually(st.sampled_from(list(action.choices)), st.just("bogus"))
    if action.type is float:
        return FLOAT.map(str)
    if action.type is int:
        return INT.map(str)
    return INT_LIST  # --a, --b, --center


@st.composite
def invocation(draw, workdir):
    """An argv for one subcommand, with the files it names written to workdir."""
    name = draw(st.sampled_from(sorted(SUBPARSERS)))
    argv = [name]
    for action in SUBPARSERS[name]._actions:
        if action.dest in ("help", "output"):
            continue
        if not action.option_strings:
            path = os.path.join(workdir, action.dest)
            text = draw(usually(hypergraph_text(), malformed_hypergraph_text())
                        if action.dest == "input" else witness_text())
            if draw(st.integers(0, 15)):  # else the file is missing
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text)
            argv.append(path)
        elif action.dest == "budget" or draw(st.integers(0, 15)) < (15 if action.required else 6):
            # a budget always: the default of 10^8 nodes is too long to fuzz
            argv += [action.option_strings[0], draw(flag_value(action))]
    if draw(st.booleans()):
        argv += ["--output", os.path.join(workdir, "artifact")]
    return argv


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_every_run_ends_in_an_exit_code_and_at_most_one_report(data):
    with tempfile.TemporaryDirectory() as workdir:
        argv = data.draw(invocation(workdir))
        code, out, err = run(argv)
    assert code in (0, 1, 2, 3), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    if out:
        report = json.loads(out)
        assert set(report) == REPORT_KEYS and report["command"] == argv[0], argv
        assert code != 3, argv
    else:
        assert code == 3 or (code == 1 and argv[0] in BUILDERS), (argv, code, err)
