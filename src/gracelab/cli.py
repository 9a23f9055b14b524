"""Command-line interface: every check and enumeration as a subcommand.

Output is deterministic: identical arguments (including --seed) produce
byte-identical output.  Exit status 0 means every check passed, 1 means a
verifiable identity failed and the counterexample was emitted, 2 means a
usage error (unknown subcommand, malformed graph text, out-of-range n,
negative --limit or --seed).
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from typing import Sequence

from gracelab import conjecture as conjecture_mod
from gracelab import digraph as digraph_mod
from gracelab import expansion as expansion_mod
from gracelab import genfun as genfun_mod
from gracelab import neighbors as neighbors_mod
from gracelab import whitty as whitty_mod
from gracelab.polyring import SparsePoly
from gracelab.seeds import integer_matrix

__all__ = ["main", "run"]

# Feasible-n ceilings, enforced before any computation starts.
MAX_N = {
    "graceful": 10,
    "grl": 10,
    "gammas": 13,
    "sp": 7,
    "tau": 9,
    "genfun-f": 9,
    "genfun-p": 12,
    "genfun-oracle": 8,
    "coeff-f": 20,
    "coeff-p": 17,
    "props": 8,
    "tdmtt": 9,
    "whitty": 11,
    "neighbors": 10,
    "neighbors-oracle": 6,
    "conjecture": 12,
}


class UsageError(Exception):
    pass


def _gate(kind: str, n: int, minimum: int = 1) -> None:
    ceiling = MAX_N[kind]
    if not minimum <= n <= ceiling:
        raise UsageError(f"{kind}: n={n} outside feasible range [{minimum}, {ceiling}]")


def _parse_graph(text: str) -> digraph_mod.FunctionalDigraph:
    try:
        return digraph_mod.FunctionalDigraph.parse(text)
    except ValueError as err:
        raise UsageError(str(err)) from None


def _check_limit(args) -> None:
    if getattr(args, "limit", None) is not None and args.limit < 0:
        raise UsageError(f"--limit must be non-negative, got {args.limit}")


def _check_seed(args) -> None:
    if getattr(args, "seed", None) is not None and args.seed < 0:
        raise UsageError(f"{args.command}: --seed must be non-negative, got {args.seed}")


# Polynomial terms, one %-template per term: the compact form of
# json.dumps(poly.to_pairs(), separators=(",", ":")) and the rows that
# json.dumps(..., indent=2) writes for it as a field of a structured document.
_TERM = '["%d","%d"]'
_TERM_ROW = '    [\n      "%d",\n      "%d"\n    ]'


def _filled(template: str, separator: str, poly: SparsePoly) -> str:
    # The templates of all the terms, joined, are filled by one % operation
    # with the exponents and coefficients interleaved: no call per term.
    exponents, coefficients = poly.columns()
    values = [0] * (2 * len(exponents))
    values[::2] = exponents
    values[1::2] = coefficients
    return separator.join([template] * len(exponents)) % tuple(values)


def _poly_json(poly: SparsePoly) -> str:
    return "[" + _filled(_TERM, ",", poly) + "]"


class _Rendered(tuple):
    """A field of a structured document, already written as the pieces of
    its indent-2 JSON."""


def _terms_field(poly: SparsePoly) -> _Rendered:
    if not poly:
        return _Rendered(("[]",))
    return _Rendered(("[\n", _filled(_TERM_ROW, ",\n", poly), "\n  ]"))


def _document(doc: dict) -> list[str]:
    """The pieces of json.dumps(doc, indent=2) and a newline, with each
    _Rendered field's pieces as they are, so a large field is never copied."""
    import json  # only structured output loads it

    pieces = []
    for key, value in doc.items():
        if not isinstance(value, _Rendered):
            value = (json.dumps(value, indent=2).replace("\n", "\n  "),)
        pieces += (",\n  ", json.dumps(key), ": ", *value)
    pieces[0] = "{\n  "  # no comma before the first field
    pieces.append("\n}\n")
    return pieces


def _bool(flag: bool) -> str:
    return "true" if flag else "false"


def _count_violations(which: str, n: int, poly: SparsePoly) -> list[str]:
    # F(1) counts the n^n functions on Z_n, P(1) the n^(n-1) functional
    # trees (Cayley).
    power = n if which == "f" else n - 1
    value = poly.eval_at_one()
    if value == n**power:
        return []
    return [f"{which.upper()}(1) = {value} != {n}^{power} = {n**power}"]


def _cmd_labels(args) -> tuple[bool, dict | list[str]]:
    g = _parse_graph(args.graph)
    labels = digraph_mod.edge_labels(g)
    if args.format == "structured":
        return True, {"graph": g.format(), "labels": list(labels)}
    return True, [",".join(map(str, labels))]


def _cmd_graceful(args) -> tuple[bool, dict | list[str]]:
    g = _parse_graph(args.graph)
    _gate("graceful", g.n)
    labeled = digraph_mod.is_gracefully_labeled(g)
    graceful = digraph_mod.is_graceful(g)
    if args.format == "structured":
        return True, {
            "graph": g.format(),
            "gracefully_labeled": labeled,
            "graceful": graceful,
        }
    return True, [
        f"gracefully_labeled: {_bool(labeled)}",
        f"graceful: {_bool(graceful)}",
    ]


def _cmd_grl(args) -> tuple[bool, dict | list[str]]:
    g = _parse_graph(args.graph)
    _gate("grl", g.n)
    members = digraph_mod.grl_set(g)
    if args.format == "structured":
        return True, {
            "graph": g.format(),
            "members": [m.format() for m in members],
            "count": len(members),
        }
    lines = [m.format() for m in members[: args.limit]]
    lines.append(f"count: {len(members)}")
    return True, lines


def _cmd_gammas(args) -> tuple[bool, dict | list[str]]:
    n = args.n
    _gate("gammas", n, minimum=2)
    # one line per gamma, the same text as Permutation.format
    text = expansion_mod.valid_gammas(n)
    enumerated = text.count("\n") + 1
    count = expansion_mod.count_valid_gammas(n)
    agree = enumerated == count
    if args.format == "structured":
        # written as its indent-2 JSON list: the lines hold only digits
        # and commas, so none needs escaping; n >= 2 lists at least one
        return agree, {
            "n": n,
            "gammas": _Rendered(('[\n    "', text.replace("\n", '",\n    "'), '"\n  ]')),
            "enumerated": enumerated,
            "formula": count,
            "status": "pass" if agree else "fail",
        }
    lines = [text] if args.limit is None else text.split("\n", args.limit)[: args.limit]
    lines.append(f"{enumerated} = {(n - 1) // 2}!*{n // 2}!")
    if not agree:
        lines.append(f"MISMATCH: enumerated {enumerated}, formula {count}")
    return agree, lines


def _cmd_sp(args) -> tuple[bool, dict | list[str]]:
    _gate("sp", args.n, minimum=2)
    sps = expansion_mod.enumerate_sp(args.n)
    matrix = integer_matrix(args.n, args.seed, 1, 100)
    check = expansion_mod.sp_sum_identity_check(sps, matrix)
    if args.format == "structured":
        return check.equal, {
            "n": args.n,
            "seed": args.seed,
            "signed_permutations": [sp.format() for sp in sps],
            "count": len(sps),
            "left": check.left,
            "right": check.right,
            "status": "pass" if check.equal else "fail",
        }
    lines = [sp.format() for sp in sps[: args.limit]]
    lines.append(f"count: {len(sps)}")
    lines.append(
        f"identity: left={check.left} right={check.right} equal={_bool(check.equal)}"
    )
    return check.equal, lines


def _cmd_tau(args) -> tuple[bool, dict | list[str]]:
    _gate("tau", args.n, minimum=2)
    lower, upper = expansion_mod.tau_bounds(args.n)
    tau = expansion_mod.tau_bruteforce(args.n)
    ok = lower <= tau <= upper
    if args.format == "structured":
        return ok, {
            "n": args.n,
            "lower": lower,
            "tau": tau,
            "upper": upper,
            "status": "pass" if ok else "fail",
        }
    return ok, [
        f"lower: {lower}",
        f"tau: {tau}",
        f"upper: {upper}",
        f"within_bounds: {_bool(ok)}",
    ]


def _cmd_genfun(args) -> tuple[bool, dict | list[str]]:
    which = args.which
    _gate(f"genfun-{which}", args.n, minimum=1 if which == "f" else 2)
    if args.oracle:
        _gate("genfun-oracle", args.n)
    if which == "f":
        poly = genfun_mod.compute_F(args.n)
        reference = genfun_mod.compute_F_bruteforce(args.n) if args.oracle else None
    else:
        poly = genfun_mod.compute_P(args.n)
        reference = genfun_mod.compute_P_bruteforce(args.n) if args.oracle else None
    identical = not args.oracle or reference == poly
    violations = _count_violations(which, args.n, poly)
    ok = identical and not violations
    if args.format == "structured":
        doc = {"which": which, "n": args.n, "terms": _terms_field(poly)}
        if violations:
            doc["violations"] = violations
        doc["status"] = "pass" if ok else "fail"
        if args.oracle:
            doc["oracle"] = "identical" if identical else "mismatch"
            if not identical:
                doc["oracle_terms"] = _terms_field(reference)
        return ok, doc
    lines = [_poly_json(poly)]
    if args.oracle:
        if identical:
            lines.append("oracle: identical")
        else:
            lines.append("oracle: MISMATCH")
            lines.append(f"oracle_poly: {_poly_json(reference)}")
    lines.extend(f"invariant failed: {v}" for v in violations)
    return ok, lines


def _cmd_coeff(args) -> tuple[bool, dict | list[str]]:
    try:
        labels = tuple(int(part) for part in args.sequence.split(","))
    except ValueError:
        raise UsageError(f"malformed sequence: {args.sequence!r}") from None
    n = len(labels)
    which = args.which
    _gate(f"coeff-{which}", n, minimum=1 if which == "f" else 2)
    base = n + 1 if which == "f" else n
    try:
        exponent = genfun_mod.encode_sequence(labels, base)
    except ValueError as err:
        raise UsageError(str(err)) from None
    # the coefficient is read in a truncated ring, and the count is asserted
    # on the same construction at x = 1
    construct = genfun_mod.row_sum_product if which == "f" else genfun_mod.matrix_tree_sum
    coefficient = genfun_mod.sequence_coefficient(construct, labels)
    violations = _count_violations(which, n, genfun_mod.value_at_one(construct, n))
    if args.format == "structured":
        doc = {
            "which": which,
            "sequence": list(labels),
            "exponent": str(exponent),
            "coefficient": str(coefficient),
        }
        if violations:
            doc["violations"] = violations
        return not violations, doc
    lines = [f"exponent: {exponent}", f"coefficient: {coefficient}"]
    lines.extend(f"invariant failed: {v}" for v in violations)
    return not violations, lines


def _cmd_props(args) -> tuple[bool, dict | list[str]]:
    _gate("props", args.n, minimum=2)
    reports = []
    if args.which in (None, "f"):
        reports.append(genfun_mod.check_F_properties(args.n))
    if args.which in (None, "p"):
        reports.append(genfun_mod.check_P_properties(args.n))
    ok = all(report.ok for report in reports)
    if args.format == "structured":
        return ok, {
            "n": args.n,
            "reports": [report.to_doc() for report in reports],
            "status": "pass" if ok else "fail",
        }
    return ok, [
        f"{r.which}: claim={c.claim} predicted={c.predicted} computed={c.computed} "
        f"status={c.status}"
        for r in reports
        for c in r.checks
    ]


def _cmd_tdmtt(args) -> tuple[bool, dict | list[str]]:
    _gate("tdmtt", args.n, minimum=1)
    matrix = integer_matrix(args.n, args.seed, 1, 50)
    check = genfun_mod.tdmtt_check(matrix)
    if args.format == "structured":
        return check.equal, {
            "n": args.n,
            "seed": args.seed,
            "left": check.left,
            "right": check.right,
            "status": "pass" if check.equal else "fail",
        }
    return check.equal, [
        f"left: {check.left}",
        f"right: {check.right}",
        f"equal: {_bool(check.equal)}",
    ]


def _cmd_whitty(args) -> tuple[bool, dict | list[str]]:
    _gate("whitty", args.n, minimum=2)
    if args.symbolic:
        matrix = whitty_mod.symbolic_matrix(args.n)
    else:
        # only the upper triangle of A is ever read by either side
        matrix = integer_matrix(args.n, args.seed, 1, 100)
    check = whitty_mod.whitty_check(matrix)
    render = _poly_json if args.symbolic else str
    ok = check.equal_up_to_calibrated_sign
    if args.format == "structured":
        return ok, {
            "n": args.n,
            "symbolic": args.symbolic,
            "seed": None if args.symbolic else args.seed,
            "lhs": render(check.lhs),
            "rhs": render(check.rhs),
            "column_reversal_parity": check.column_reversal_parity,
            "calibration": whitty_mod.CALIBRATION._asdict(),
            "label_signature_reading_agrees": check.label_signature_reading_agrees,
            "status": "pass" if ok else "fail",
        }
    return ok, [
        f"lhs: {render(check.lhs)}",
        f"rhs: {render(check.rhs)}",
        f"column_reversal_parity: {check.column_reversal_parity:+d}",
        f"epsilon: {whitty_mod.CALIBRATION.epsilon:+d}",
        f"pass: {_bool(ok)}",
        f"label_signature_reading_agrees: {_bool(check.label_signature_reading_agrees)}",
    ]


def _cmd_neighbors(args) -> tuple[bool, dict | list[str]]:
    g = _parse_graph(args.graph)
    _gate("neighbors", g.n)
    if args.oracle:
        _gate("neighbors-oracle", g.n)
    fam = neighbors_mod.expansion_family(g)
    sections: dict[str, list[str]] = {}
    if args.oracle:
        report = neighbors_mod.completeness_check(fam)
        generated = report.generated
        complete = not report.missing and not report.extra
        for key in ("oracle", "missing", "extra"):
            sections[key] = [h.format() for h in getattr(report, key)]
    else:
        generated = tuple(neighbors_mod.neighbors_via_expansion(fam))
        complete = True
    if args.format == "structured":
        doc = {
            "graph": g.format(),
            "generated": [h.format() for h in generated],
            **sections,
        }
        if args.oracle:
            doc["status"] = "pass" if complete else "fail"
        return complete, doc
    lines = [h.format() for h in generated[: args.limit]]
    for key, members in sections.items():
        lines.append(f"{key}:")
        lines.extend(members)
    if args.oracle:
        lines.append(f"complete: {_bool(complete)}")
    return complete, lines


def _cmd_conjecture(args) -> tuple[bool, dict | list[str]]:
    _gate("conjecture", args.n, minimum=1)
    report = conjecture_mod.check_conjecture_42(args.n)
    ok = report.holds and not report.violations
    if args.format == "structured":
        doc = {
            "n": args.n,
            "classes": [
                {"representative": c.representative.format(), "size": c.size}
                for c in report.classes
            ],
            "missing": [
                {"class": rep.format(), "sequence": list(seq)}
                for rep, seq in report.missing
            ],
            "class_size_total": report.class_size_total,
        }
        if report.violations:
            doc["violations"] = list(report.violations)
        doc["status"] = "pass" if ok else "fail"
        return ok, doc
    missing_by_class: dict[str, list[str]] = {}
    for rep, seq in report.missing:
        missing_by_class.setdefault(rep.format(), []).append(
            ",".join(str(v) for v in seq)
        )
    lines = []
    for cls in report.classes:
        key = cls.representative.format()
        if key in missing_by_class:
            for seq_text in missing_by_class[key]:
                lines.append(f"class {key}: missing {seq_text}")
        else:
            lines.append(f"class {key}: ok")
    lines.append(f"classes: {len(report.classes)}")
    lines.append(f"class_size_total: {report.class_size_total}")
    lines.append(f"holds: {_bool(report.holds)}")
    lines.extend(f"invariant failed: {v}" for v in report.violations)
    return ok, lines


class _Subcommand(argparse.ArgumentParser):
    """A subcommand's parser: it reports its own leftover arguments, so the
    error shows the subcommand's usage line, as its other errors do."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Every argument that starts with "-" and a digit ("--sequence -1,3",
        # "--seq -1,3", "--graph -1:0") is a value, as "--sequence=-1,3" is:
        # argparse's own test takes only a plain negative number as one.
        self._negative_number_matcher = re.compile(r"-\d")

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error("unrecognized arguments: " + " ".join(extras))
        return namespace, extras


# Each option's spec by name (its flag without the dashes), declared once;
# every subcommand takes format.
_OPTIONS = {
    "format": {
        "choices": ("text", "structured"),
        "default": "text",
        "help": "plain lines or a single JSON document",
    },
    "graph": {"required": True},
    "n": {"type": int, "required": True},
    "limit": {"type": int},
    "seed": {"type": int, "default": 0},
    "which": {"choices": ("f", "p"), "required": True},
    "oracle": {"action": "store_true"},
    "sequence": {"required": True, "help": "comma-separated labels"},
    "symbolic": {"action": "store_true"},
}

# One row per subcommand: its handler, help text and options after format.
# An option is a name from _OPTIONS, a (name, spec) pair where the spec
# differs from that one, or a list of options that exclude each other.
_SUBCOMMANDS = {
    "labels": (_cmd_labels, "induced subtractive edge label sequence", ["graph"]),
    "graceful": (
        _cmd_graceful, "gracefully-labeled and graceful predicates", ["graph"]
    ),
    "grl": (_cmd_grl, "distinct gracefully labeled conjugates", ["graph", "limit"]),
    "gammas": (
        _cmd_gammas, "enumerate valid gammas and check the count", ["n", "limit"]
    ),
    "sp": (
        _cmd_sp,
        "signed permutations and the entry-product identity",
        ["n", "seed", "limit"],
    ),
    "tau": (_cmd_tau, "bounds and brute-force count of tau_n", ["n"]),
    "genfun": (
        _cmd_genfun, "label-sequence generating function", ["which", "n", "oracle"]
    ),
    "coeff": (_cmd_coeff, "coefficient of one label sequence", ["which", "sequence"]),
    "props": (
        _cmd_props,
        "structural property reports for F and P",
        ["n", ("which", {"choices": ("f", "p")})],
    ),
    "tdmtt": (_cmd_tdmtt, "directed matrix tree theorem spot check", ["n", "seed"]),
    "whitty": (
        _cmd_whitty, "Whitty determinantal identity check", ["n", ["symbolic", "seed"]]
    ),
    "neighbors": (
        _cmd_neighbors,
        "edit-distance-one graceful neighbors",
        ["graph", "oracle", "limit"],
    ),
    "conjecture": (_cmd_conjecture, "star-sequence inclusion sweep", ["n"]),
}


def _add_options(target, options) -> None:
    for option in options:
        if isinstance(option, list):
            _add_options(target.add_mutually_exclusive_group(), option)
        elif isinstance(option, str):
            target.add_argument("--" + option, **_OPTIONS[option])
        else:
            target.add_argument("--" + option[0], **option[1])


def _build_parser(argv: Sequence[str]) -> argparse.ArgumentParser:
    """The top-level parser with the subparser of the subcommand argv names.
    The top level's help and its errors list every subcommand, so when argv
    names none, every subparser is built."""
    parser = argparse.ArgumentParser(
        prog="gracelab",
        description="enumerate, count, and verify graceful labelings of "
        "functional digraphs",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Subcommand)
    for name in [name for name in argv[:1] if name in _SUBCOMMANDS] or _SUBCOMMANDS:
        _, help_text, options = _SUBCOMMANDS[name]
        _add_options(sub.add_parser(name, help=help_text), ["format", *options])
    return parser


def _execute(argv: Sequence[str]) -> tuple[int, list[str]]:
    """Exit status and the pieces of the stdout text of one command,
    rendered only in the format it asks for; usage errors are reported on
    stderr.

    Each handler returns whether its checks passed (exit 0, else 1) and its
    output: text lines, or the structured document without its "command"
    field, which is put first here."""
    args = _build_parser(argv).parse_args(argv)
    try:
        _check_limit(args)
        _check_seed(args)
        ok, out = _SUBCOMMANDS[args.command][0](args)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2, []
    code = 0 if ok else 1
    if args.format == "structured":
        return code, _document({"command": args.command, **out})
    out.append("")  # the final newline; no lines write nothing
    return code, ["\n".join(out)]


# Each piece is written a slice at a time, so that encoding it never makes
# a second copy of the whole output.
_SLICE = 1 << 20


def _write(pieces: list[str]) -> None:
    # sys.stdout is looked up at each write: callers may redirect it
    for text in pieces:
        for start in range(0, len(text), _SLICE):
            sys.stdout.write(text[start : start + _SLICE])


def run(argv: Sequence[str]) -> int:
    code, pieces = _execute(argv)
    _write(pieces)
    return code


def main() -> None:
    """Run the command line, write its output and end the process.

    Once the output is flushed the process ends with os._exit, as mypy's
    util.hard_exit does: the interpreter's teardown would only free every
    module and object after the output is already written.
    """
    code, pieces = _execute(sys.argv[1:])
    try:
        _write(pieces)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe (``gracelab gammas --n 12 | head -1``):
        # the rest of the output is dropped, and the exit status stays the
        # command's own.  Nothing flushes stdout again after this.
        pass
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    main()
