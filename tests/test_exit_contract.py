"""The exit contract over generated command lines, run in-process.

Every argv exits 0 (pass), 1 (an identity failed) or 2 (usage error),
raises no other exception and so prints no traceback, and writes nothing
to stdout on exit 2.  Sizes stay small (n <= 5, graphs on at most 6
vertices) or far past every ceiling, so that each example runs in
milliseconds.
"""

import contextlib
import io

from hypothesis import example, given, settings
from hypothesis import strategies as st

from gracelab.cli import run

# each subcommand's own options besides --format
OWN = {
    "labels": ["--graph"],
    "graceful": ["--graph"],
    "grl": ["--graph", "--limit"],
    "gammas": ["--n", "--limit"],
    "sp": ["--n", "--seed", "--limit"],
    "tau": ["--n"],
    "genfun": ["--which", "--n", "--oracle"],
    "coeff": ["--which", "--sequence"],
    "props": ["--n", "--which"],
    "tdmtt": ["--n", "--seed"],
    "whitty": ["--n", "--symbolic", "--seed"],
    "neighbors": ["--graph", "--oracle", "--limit"],
    "conjecture": ["--n"],
}
FLAGS = sorted({"--format", "--bogus"}.union(*OWN.values()))

ODD = st.sampled_from(["", "x", "3.5", "-", "1e3", " 2", "0x3", "--n"])
INTEGER = st.one_of(
    st.integers(2, 5), st.integers(-1, 1), st.sampled_from([99, 10**20, -(10**20)])
).map(str)


def _graph(values):
    return f"{len(values)}:" + ",".join(map(str, values))


GRAPH = st.one_of(
    st.lists(st.integers(0, 5), min_size=1, max_size=6)
    .map(lambda vs: [v % len(vs) for v in vs])
    .map(_graph),
    st.lists(st.integers(-1, 7), max_size=6).map(_graph),
    st.tuples(st.integers(0, 7), st.lists(st.integers(0, 3), max_size=4)).map(
        lambda p: f"{p[0]}:" + ",".join(map(str, p[1]))
    ),
)
SEQUENCE = st.lists(st.integers(-1, 6), min_size=1, max_size=6).map(
    lambda vs: ",".join(map(str, vs))
)
VALUES = {
    "--n": INTEGER,
    "--seed": INTEGER,
    "--limit": INTEGER,
    "--graph": GRAPH,
    "--sequence": SEQUENCE,
    "--which": st.sampled_from(["f", "p"]),
    "--format": st.sampled_from(["text", "structured"]),
}
SWITCHES = {"--oracle", "--symbolic"}  # options that take no value
OPTIONAL = {"--format", "--limit", "--seed", *SWITCHES}


@st.composite
def well_formed(draw):
    """A subcommand with its required options and some of its optional
    ones, each with a value argparse accepts; the value may still be out of
    range or malformed graph text."""
    command = draw(st.sampled_from(list(OWN)))
    flags = [
        flag
        for flag in ["--format", *OWN[command]]
        if flag not in OPTIONAL or draw(st.booleans())
    ]
    if "--symbolic" in flags and "--seed" in flags:  # they exclude each other
        flags.remove(draw(st.sampled_from(["--symbolic", "--seed"])))
    argv = [command]
    for flag in draw(st.permutations(flags)):
        argv.append(flag)
        if flag not in SWITCHES:
            argv.append(draw(VALUES[flag]))
    return argv


@st.composite
def garbled(draw):
    """A well-formed argv with one fault: an unknown subcommand, a stray or
    repeated flag, a missing word or a value argparse rejects."""
    argv = draw(well_formed())
    at = draw(st.integers(0, len(argv) - 1))  # any word, the subcommand too
    fault = draw(st.sampled_from(["command", "flag", "drop", "value"]))
    if fault == "command":
        argv[0] = draw(st.sampled_from(["frobnicate", "", "-n", "TAU"]))
    elif fault == "flag":
        argv.insert(at + 1, draw(st.sampled_from(FLAGS)))
    elif fault == "drop":
        del argv[at]
    else:
        argv[at] = draw(ODD)
    return argv


def _check(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as done:  # argparse: usage errors and --help
            code = done.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == "", argv


# a --limit past the largest machine int, on a listing that is in range
# (the derandomized draws never pair INTEGER's 10**20 with one)
HUGE = str(10**20)


@settings(max_examples=250, deadline=None, derandomize=True)
@given(well_formed())
@example(["gammas", "--n", "3", "--limit", HUGE])
@example(["grl", "--graph", "4:0,0,0,0", "--limit", HUGE])
@example(["sp", "--n", "3", "--limit", HUGE])
@example(["neighbors", "--graph", "4:0,0,0,0", "--limit", HUGE])
def test_well_formed_argvs_keep_the_exit_contract(argv):
    _check(argv)


@settings(max_examples=250, deadline=None, derandomize=True)
@given(garbled())
def test_garbled_argvs_keep_the_exit_contract(argv):
    _check(argv)
