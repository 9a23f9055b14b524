"""The command line's help text and its argparse usage errors, pinned.

Each text was generated from the command line as it stood before each
shared option (--format, --graph, --n, --limit, --seed, --which, --oracle)
was declared once, so it pins the parser to its earlier layout: the top
level and every subcommand's --help, and the stderr of usage errors that
argparse itself reports (exit 2).  One pin moved since:
an unknown argument after a subcommand (``tau --n 3 --bogus``) is now
reported by that subcommand's parser, with its usage line, as its other
errors are; one before the subcommand is still the top level's.  argparse
lays its help out differently from one Python release to the next, so these
run only on 3.11, the version CI uses, with the terminal width fixed at 80
columns.
"""

import sys

import pytest

from gracelab.cli import run

pytestmark = pytest.mark.skipif(
    sys.version_info[:2] != (3, 11), reason="argparse help layout is pinned on 3.11"
)

HELP = {
    '': """\
usage: gracelab [-h]
                {labels,graceful,grl,gammas,sp,tau,genfun,coeff,props,tdmtt,whitty,neighbors,conjecture}
                ...

enumerate, count, and verify graceful labelings of functional digraphs

positional arguments:
  {labels,graceful,grl,gammas,sp,tau,genfun,coeff,props,tdmtt,whitty,neighbors,conjecture}
    labels              induced subtractive edge label sequence
    graceful            gracefully-labeled and graceful predicates
    grl                 distinct gracefully labeled conjugates
    gammas              enumerate valid gammas and check the count
    sp                  signed permutations and the entry-product identity
    tau                 bounds and brute-force count of tau_n
    genfun              label-sequence generating function
    coeff               coefficient of one label sequence
    props               structural property reports for F and P
    tdmtt               directed matrix tree theorem spot check
    whitty              Whitty determinantal identity check
    neighbors           edit-distance-one graceful neighbors
    conjecture          star-sequence inclusion sweep

options:
  -h, --help            show this help message and exit
""",
    'labels': """\
usage: gracelab labels [-h] [--format {text,structured}] --graph GRAPH

options:
  -h, --help            show this help message and exit
  --format {text,structured}
                        plain lines or a single JSON document
  --graph GRAPH
""",
    'graceful': """\
usage: gracelab graceful [-h] [--format {text,structured}] --graph GRAPH

options:
  -h, --help            show this help message and exit
  --format {text,structured}
                        plain lines or a single JSON document
  --graph GRAPH
""",
    'grl': """\
usage: gracelab grl [-h] [--format {text,structured}] --graph GRAPH
                    [--limit LIMIT]

options:
  -h, --help            show this help message and exit
  --format {text,structured}
                        plain lines or a single JSON document
  --graph GRAPH
  --limit LIMIT
""",
    'gammas': """\
usage: gracelab gammas [-h] [--format {text,structured}] --n N [--limit LIMIT]

options:
  -h, --help            show this help message and exit
  --format {text,structured}
                        plain lines or a single JSON document
  --n N
  --limit LIMIT
""",
    'sp': """\
usage: gracelab sp [-h] [--format {text,structured}] --n N [--seed SEED]
                   [--limit LIMIT]

options:
  -h, --help            show this help message and exit
  --format {text,structured}
                        plain lines or a single JSON document
  --n N
  --seed SEED
  --limit LIMIT
""",
    'tau': """\
usage: gracelab tau [-h] [--format {text,structured}] --n N

options:
  -h, --help            show this help message and exit
  --format {text,structured}
                        plain lines or a single JSON document
  --n N
""",
    'genfun': """\
usage: gracelab genfun [-h] [--format {text,structured}] --which {f,p} --n N
                       [--oracle]

options:
  -h, --help            show this help message and exit
  --format {text,structured}
                        plain lines or a single JSON document
  --which {f,p}
  --n N
  --oracle
""",
    'coeff': """\
usage: gracelab coeff [-h] [--format {text,structured}] --which {f,p}
                      --sequence SEQUENCE

options:
  -h, --help            show this help message and exit
  --format {text,structured}
                        plain lines or a single JSON document
  --which {f,p}
  --sequence SEQUENCE   comma-separated labels
""",
    'props': """\
usage: gracelab props [-h] [--format {text,structured}] --n N [--which {f,p}]

options:
  -h, --help            show this help message and exit
  --format {text,structured}
                        plain lines or a single JSON document
  --n N
  --which {f,p}
""",
    'tdmtt': """\
usage: gracelab tdmtt [-h] [--format {text,structured}] --n N [--seed SEED]

options:
  -h, --help            show this help message and exit
  --format {text,structured}
                        plain lines or a single JSON document
  --n N
  --seed SEED
""",
    'whitty': """\
usage: gracelab whitty [-h] [--format {text,structured}] --n N
                       [--symbolic | --seed SEED]

options:
  -h, --help            show this help message and exit
  --format {text,structured}
                        plain lines or a single JSON document
  --n N
  --symbolic
  --seed SEED
""",
    'neighbors': """\
usage: gracelab neighbors [-h] [--format {text,structured}] --graph GRAPH
                          [--oracle] [--limit LIMIT]

options:
  -h, --help            show this help message and exit
  --format {text,structured}
                        plain lines or a single JSON document
  --graph GRAPH
  --oracle
  --limit LIMIT
""",
    'conjecture': """\
usage: gracelab conjecture [-h] [--format {text,structured}] --n N

options:
  -h, --help            show this help message and exit
  --format {text,structured}
                        plain lines or a single JSON document
  --n N
""",
}

USAGE_ERRORS = [
    (('gammas',), """\
usage: gracelab gammas [-h] [--format {text,structured}] --n N [--limit LIMIT]
gracelab gammas: error: the following arguments are required: --n
"""),
    (('gammas', '--limit', 'x', '--n', '3'), """\
usage: gracelab gammas [-h] [--format {text,structured}] --n N [--limit LIMIT]
gracelab gammas: error: argument --limit: invalid int value: 'x'
"""),
    (('tau', '--n', '3', '--bogus'), """\
usage: gracelab tau [-h] [--format {text,structured}] --n N
gracelab tau: error: unrecognized arguments: --bogus
"""),
    (('--bogus', 'tau', '--n', '3'), """\
usage: gracelab [-h]
                {labels,graceful,grl,gammas,sp,tau,genfun,coeff,props,tdmtt,whitty,neighbors,conjecture}
                ...
gracelab: error: unrecognized arguments: --bogus
"""),
    (('whitty', '--n', '3', '--symbolic', '--seed', '1'), """\
usage: gracelab whitty [-h] [--format {text,structured}] --n N
                       [--symbolic | --seed SEED]
gracelab whitty: error: argument --seed: not allowed with argument --symbolic
"""),
    (('props', '--n', '3', '--which', 'q'), """\
usage: gracelab props [-h] [--format {text,structured}] --n N [--which {f,p}]
gracelab props: error: argument --which: invalid choice: 'q' (choose from 'f', 'p')
"""),
    (('frobnicate',), """\
usage: gracelab [-h]
                {labels,graceful,grl,gammas,sp,tau,genfun,coeff,props,tdmtt,whitty,neighbors,conjecture}
                ...
gracelab: error: argument command: invalid choice: 'frobnicate' (choose from 'labels', 'graceful', 'grl', 'gammas', 'sp', 'tau', 'genfun', 'coeff', 'props', 'tdmtt', 'whitty', 'neighbors', 'conjecture')
"""),
    ((), """\
usage: gracelab [-h]
                {labels,graceful,grl,gammas,sp,tau,genfun,coeff,props,tdmtt,whitty,neighbors,conjecture}
                ...
gracelab: error: the following arguments are required: command
"""),
    (('genfun', '--n', '3'), """\
usage: gracelab genfun [-h] [--format {text,structured}] --which {f,p} --n N
                       [--oracle]
gracelab genfun: error: the following arguments are required: --which
"""),
    (('labels',), """\
usage: gracelab labels [-h] [--format {text,structured}] --graph GRAPH
gracelab labels: error: the following arguments are required: --graph
"""),
    (('sp', '--n', 'x'), """\
usage: gracelab sp [-h] [--format {text,structured}] --n N [--seed SEED]
                   [--limit LIMIT]
gracelab sp: error: argument --n: invalid int value: 'x'
"""),
    (('genfun', '--which', 'z', '--n', '3'), """\
usage: gracelab genfun [-h] [--format {text,structured}] --which {f,p} --n N
                       [--oracle]
gracelab genfun: error: argument --which: invalid choice: 'z' (choose from 'f', 'p')
"""),
    (('grl', '--graph', '3:1,2,0', '--limit'), """\
usage: gracelab grl [-h] [--format {text,structured}] --graph GRAPH
                    [--limit LIMIT]
gracelab grl: error: argument --limit: expected one argument
"""),
    (('coeff', '--which', 'p'), """\
usage: gracelab coeff [-h] [--format {text,structured}] --which {f,p}
                      --sequence SEQUENCE
gracelab coeff: error: the following arguments are required: --sequence
"""),
]


def _exit(argv):
    with pytest.raises(SystemExit) as stop:
        run(list(argv))
    return stop.value.code


@pytest.fixture(autouse=True)
def _eighty_columns(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")


@pytest.mark.parametrize("command", list(HELP), ids=lambda c: c or "(top level)")
def test_help_text(capsys, command):
    argv = [command, "--help"] if command else ["--help"]
    assert _exit(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == HELP[command]
    assert captured.err == ""


@pytest.mark.parametrize(
    ("argv", "stderr"),
    USAGE_ERRORS,
    ids=[" ".join(argv) or "(no arguments)" for argv, _ in USAGE_ERRORS],
)
def test_usage_error(capsys, argv, stderr):
    assert _exit(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == stderr
