"""Command-line interface: one binary, six subcommands, exact machine output.

Each handler takes the parsed arguments and returns (body, exit code);
`main` alone attaches the manifest, to every JSON body and to no text or
CSV body.  All numbers are integers or {num, den} rationals, and the
manifest's wall_time_us is the only field that varies between identical
runs.  Set-producing subcommands emit documents that the set-consuming
subcommands accept verbatim.

Exit codes: 0 success/SAT, 1 failed checks or UNSAT, 2 budget exhausted,
64 usage error, 66 unreadable, invalid or too large input file, 70 internal
verification failure, 71 out of memory or a value too large to build, 73
output file cannot be written.

`main` is the process entry point: each command is one interpreter.  It
starts with gc.freeze(), so neither the command's own collections nor the
one at interpreter shutdown walk the objects that importing numpy and
repfn left alive.  A caller that keeps running after `main` returns should
call gc.unfreeze().

One subparser is built per run: the one that the first word of argv names,
or all six when that word names none (--help, --version, an empty argv or
an unknown command), so usage, help and error texts are those of the whole
parser.  A body is encoded in full before anything is written: nothing is
written unless the whole body encodes.

The verify body's "reports", thousands of dicts with the same eleven keys,
is written without building them.  _report_rows fills one %-template per
row, made once from the sorted keys, with texts each encoded once: a case's
label, orders and card once per case, and each distinct claim id, note,
status and extra once, in memos keyed by value and type.  _json_runs
writes that _Fragment as it stands, at the indent it reaches it at.
"""

from __future__ import annotations

import argparse
import gc
import sys
import time
from collections.abc import Mapping
from enum import Enum
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Sequence

import numpy as np

from . import __version__
from .bounds import SUITE_NAMES, CheckStatus, SuiteCase, run_verification_suite
from .constructions import half_period_doubling, shift_family_report, shifted_doubling, sidon_set
from .groups import VerificationError, parse_subset, read_subset
from .profiles import rep_diff_profile, rep_profile, spectrum
from .search import (
    DEFAULT_MOVES,
    DEFAULT_NODE_BUDGET,
    SearchCertificate,
    SearchOutcome,
    SearchStatus,
    exists_basis,
    heuristic_upper_bound,
    ruzsa_number,
)
from .singer import singer_set

EX_OK = 0
EX_FAIL = 1
EX_EXHAUSTED = 2
EX_USAGE = 64
EX_NOINPUT = 66
EX_SOFTWARE = 70
EX_OSERR = 71
EX_CANTCREAT = 73


class _InputError(Exception):
    """Unreadable or malformed input set file; maps to exit 66."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


def _singer_arguments(p: _Parser) -> None:
    p.add_argument("--p", type=int, required=True, help="prime p")
    p.add_argument("--text", dest="as_text", action="store_true",
                   help="emit the plain-text set format, not JSON")
    p.add_argument("--out", default="-", help="output path, '-' for stdout")


def _construct_arguments(p: _Parser) -> None:
    p.add_argument("--theorem", required=True, choices=("11b", "12b", "13b"),
                   help="which construction family")
    p.add_argument("--p", type=int, required=True, help="prime p")
    p.add_argument("--l", type=int, default=None,
                   help="shift parameter (11b only); omit for the full shift scan")
    p.add_argument("--out", default="-")


def _profile_arguments(p: _Parser) -> None:
    p.add_argument("--in", dest="inp", default="-",
                   help="input set file (JSON or text), '-' for stdin")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--cross-check", dest="cross_check", action="store_true",
                   help="rerun the engine that was not picked and compare")
    p.add_argument("--out", default="-")


def _verify_arguments(p: _Parser) -> None:
    p.add_argument("--suite", choices=SUITE_NAMES, default="all")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-m", dest="max_m", type=int, default=128,
                   help="largest random group order")
    p.add_argument("--out", default="-")


def _ruzsa_arguments(p: _Parser) -> None:
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--r", type=int, default=None,
                   help="cap to decide at; omit to search for the least cap")
    p.add_argument("--mode", choices=("exact", "heuristic"), default="exact")
    p.add_argument("--budget", type=int, default=None,
                   help="nodes (exact) or moves per run (heuristic)")
    p.add_argument("--seed", type=int, default=None,
                   help="heuristic random seed (default 0)")
    p.add_argument("--threads", type=int, default=None,
                   help="number of heuristic runs, made in turn (default 1)")
    p.add_argument("--out", default="-")


# Each subcommand in usage order: its help line and the function that adds
# its arguments.
_COMMANDS = {
    "singer": ("perfect difference set in Z_{p^2+p+1}", _singer_arguments),
    "construct": ("extremal subsets from difference sets", _construct_arguments),
    "spectrum": ("representation-count histogram of a set", _profile_arguments),
    "diff-profile": ("difference representation counts of a set", _profile_arguments),
    "verify": ("machine-check the inequality suites", _verify_arguments),
    "ruzsa": ("basis search / least max representation count", _ruzsa_arguments),
}


def build_parser(command: str | None = None) -> _Parser:
    """The repfn parser, with every subparser, or with only that of command.

    A parser built for one command parses that command's argv as the whole
    parser does: its top-level usage line still names all six commands.
    The whole parser alone can report a missing or unknown command."""
    parser = _Parser(prog="repfn", description="exact representation-function toolkit")
    parser.add_argument("--version", action="version", version=f"repfn {__version__}")
    sub = parser.add_subparsers(
        dest="command", required=True, parser_class=_Parser,
        metavar=None if command is None else "{" + ",".join(_COMMANDS) + "}",
    )
    for name, (blurb, add_arguments) in _COMMANDS.items():
        if command is None or name == command:
            add_arguments(sub.add_parser(name, help=blurb))
    return parser


# -- serialization helpers ---------------------------------------------------


def _int_array_text(arr: np.ndarray, sep: str) -> str:
    """The values of a non-empty 1-D integer array in decimal, joined by sep."""
    lo, hi = int(arr.min()), int(arr.max())
    if hi - lo < arr.size:
        # Few distinct values, as in a profile's counts: index a table of
        # the texts of lo..hi, no longer than the array.
        table = np.array([str(v) for v in range(lo, hi + 1)], dtype=object)
        return sep.join(table[arr - lo].tolist())
    return repr(arr.tolist())[1:-1].replace(", ", sep)


def _fraction_text(value: Fraction, pad: str) -> str:
    """A Fraction as the dict {"den", "num"} that starts on the line of pad."""
    inner = pad + "  "
    return ("{" + inner + '"den": ' + int.__repr__(value.denominator) + "," + inner
            + '"num": ' + int.__repr__(value.numerator) + pad + "}")


class _Fragment:
    """A value whose text runs(pad) gives, for a value that starts on the
    line of pad: _json_runs writes those runs as they stand."""

    __slots__ = ("runs",)

    def __init__(self, runs: Callable[[str], list[str]]) -> None:
        self.runs = runs


def _json_runs(value: Any, pad: str = "\n") -> list[str]:
    """The text json.dumps(value, indent=2, sort_keys=True) gives, in one
    pass and cut into runs whose join is that text, except that a Fraction
    is written as {"den", "num"}, an Enum as its value, a 1-D integer
    ndarray as the list of its values, any other Mapping (a read-only
    MappingProxyType, say) as the dict it holds and a _Fragment as its
    runs.  pad is the newline and indent of the line the value starts on,
    so a value can be written at any depth of a larger text.  A dict key
    that is not a str is refused, and so is any value that is not a str,
    int, bool, None, list, tuple, Mapping, Fraction, Enum, _Fragment or 1-D
    integer ndarray, floats and float arrays included.

    Values are dispatched on their exact type first, so the plain dicts,
    lists, strs and ints that make up every body skip the isinstance chain;
    subclasses (a namedtuple, an int or str Enum) reach it at the end.  A
    dict writes its str, int, bool, None and Fraction values in place, with
    no call per value.  The text of an integer ndarray, such as a profile's
    counts, is a run of its own and is never copied into a longer one."""
    chunks: list[str] = []
    emit = chunks.append
    # Runs of chunks already joined: a long list of small records never
    # holds all its small pieces at once.
    done: list[str] = []
    quote = encode_basestring_ascii
    int_text = int.__repr__
    # For each (pad, key tuple) met in this call, the keys in sorted order,
    # each with the text that precedes its value: a list of dicts with the
    # same keys shares one entry.
    layouts: dict[tuple[str, tuple], list[tuple[str, str]]] = {}

    def encode(value: Any, pad: str) -> None:
        # pad is the newline and indent of the line the value starts on.
        t = type(value)
        if t is dict:
            if not value:
                emit("{}")
                return
            keys = tuple(value)
            inner = pad + "  "
            layout = layouts.get((pad, keys))
            if layout is None:
                # quote raises TypeError on a key that is not a str.
                layout = layouts[pad, keys] = [
                    (k, ("," if i else "{") + inner + quote(k) + ": ")
                    for i, k in enumerate(sorted(keys))
                ]
            for k, prefix in layout:
                v = value[k]
                tv = type(v)
                if tv is str:
                    emit(prefix + quote(v))
                elif tv is int:
                    emit(prefix + int_text(v))
                elif v is True:
                    emit(prefix + "true")
                elif v is False:
                    emit(prefix + "false")
                elif v is None:
                    emit(prefix + "null")
                elif tv is Fraction:
                    emit(prefix + _fraction_text(v, inner))
                else:
                    emit(prefix)
                    encode(v, inner)
            emit(pad + "}")
        elif t is list or t is tuple:
            if not value:
                emit("[]")
                return
            inner = pad + "  "
            sep = "," + inner
            # Profile bodies are long lists of plain ints: write those from one
            # repr (of a list, as a 1-tuple's repr keeps a trailing comma).
            if all(type(v) is int for v in value):
                emit("[" + inner + repr(list(value))[1:-1].replace(", ", sep) + pad + "]")
                return
            emit("[")
            for i, v in enumerate(value):
                emit(sep if i else inner)
                encode(v, inner)
                if len(chunks) > 4096:
                    done.append("".join(chunks))
                    chunks.clear()
            emit(pad + "]")
        elif t is str:
            emit(quote(value))
        elif t is int:
            emit(int_text(value))
        elif value is None:
            emit("null")
        elif value is True:
            emit("true")
        elif value is False:
            emit("false")
        elif t is _Fragment:
            done.append("".join(chunks))
            chunks.clear()
            done.extend(value.runs(pad))
        elif isinstance(value, Fraction):
            emit(_fraction_text(value, pad))
        elif isinstance(value, Enum):
            encode(value.value, pad)
        elif t is np.ndarray:
            if value.ndim != 1 or value.dtype.kind not in "iu":
                raise TypeError(
                    f"refusing inexact serialization of a {value.ndim}-D {value.dtype} array"
                )
            if not value.size:
                emit("[]")
                return
            inner = pad + "  "
            emit("[" + inner)
            done.append("".join(chunks))
            chunks.clear()
            done.append(_int_array_text(value, "," + inner))
            emit(pad + "]")
        elif isinstance(value, str):
            emit(quote(value))
        elif isinstance(value, int):
            emit(int_text(value))
        elif isinstance(value, Mapping):
            encode(dict(value), pad)
        elif isinstance(value, (list, tuple)):
            encode(list(value), pad)
        else:
            raise TypeError(f"refusing inexact serialization of {t.__name__}")

    encode(value, pad)
    done.append("".join(chunks))
    return done


def _json_text(value: Any) -> str:
    """The join of _json_runs(value): json.dumps(value, indent=2,
    sort_keys=True) as that function describes it."""
    return "".join(_json_runs(value))


def _manifest(args: argparse.Namespace, t0: float) -> dict:
    flags = {k: v for k, v in vars(args).items() if k != "command"}
    return {
        "subcommand": args.command,
        "version": __version__,
        "flags": flags,
        "input": getattr(args, "inp", None),
        "output": args.out,
        "wall_time_us": int((time.monotonic() - t0) * 1_000_000),
    }


def _emit(body: dict | str, out_path: str) -> None:
    """Write body, ended by one newline, to out_path or to stdout for '-'.

    A JSON body is encoded into runs (_json_runs) before anything is opened
    or written, so nothing is written unless the whole body encodes; the
    runs and the newline are then written one after another, never joined
    into one copy of the body."""
    if isinstance(body, str):
        runs = [body] if body.endswith("\n") else [body, "\n"]
    else:
        runs = _json_runs(body)
        runs.append("\n")
    if out_path == "-":
        sys.stdout.writelines(runs)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.writelines(runs)


def _load_subset(path: str):
    """The set in the file at path by read_subset, or on stdin for '-',
    read as bytes and decoded as strict UTF-8 in the same way."""
    try:
        if path == "-":
            return parse_subset(sys.stdin.buffer.read().decode("utf-8"))
        return read_subset(path)
    except OSError as exc:
        raise _InputError(str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise _InputError(f"invalid set file: not UTF-8 ({exc})") from exc
    except (ValueError, MemoryError) as exc:
        raise _InputError(f"invalid set file: {exc}") from exc


def _cert_dict(cert: SearchCertificate | None) -> dict | None:
    if cert is None:
        return None
    return {
        "orders": [cert.m],
        "elements": list(cert.elements),
        "claimed_r": cert.claimed_r,
        "verified": cert.verified,
    }


def _outcome_fields(out: SearchOutcome) -> dict:
    return {
        "status": out.status.value,
        "nodes": out.nodes,
        "prunes": out.prunes,
        "notes": list(out.notes),
    }


_STATUS_EXIT = {
    SearchStatus.SAT: EX_OK,
    SearchStatus.UNSAT: EX_FAIL,
    SearchStatus.EXHAUSTED: EX_EXHAUSTED,
}


# -- subcommand handlers -----------------------------------------------------


def _cmd_singer(args: argparse.Namespace) -> tuple[dict | str, int]:
    pds = singer_set(args.p)
    if args.as_text:
        return pds.subset.to_text(), EX_OK
    body = pds.subset.to_json_dict()
    body.update({"p": pds.p, "n": pds.n, "card": pds.subset.card})
    return body, EX_OK


def _cmd_construct(args: argparse.Namespace) -> tuple[dict | str, int]:
    if args.theorem != "11b" and args.l is not None:
        raise ValueError("--l only applies to --theorem 11b")
    if args.theorem == "12b":
        subset = sidon_set(args.p)
        fields = {"s2": (subset.group.order - 1) // 2}
    elif args.theorem == "13b":
        subset = half_period_doubling(args.p)
        fields = {"s4": subset.group.order // 2 - 1}
    elif args.l is not None:
        subset = shifted_doubling(args.p, args.l)
        fields = {"l": args.l}
    else:
        report = shift_family_report(args.p)
        subset = report.best_set
        fields = {
            "best_l": report.best_l,
            "best_s0": report.best_s0,
            "x_odd": report.x_odd,
            "avg_even": report.avg_even,
            "per_l": [[s.x_odd, s.x_even, s.s0] for s in report.per_l],
        }
    body = subset.to_json_dict()
    body.update(theorem=args.theorem, p=args.p, m=subset.group.order, card=subset.card, **fields)
    return body, EX_OK


def _cmd_spectrum(args: argparse.Namespace) -> tuple[dict | str, int]:
    subset = _load_subset(args.inp)
    if args.cross_check:
        profile = rep_profile(subset, cross_check=True)
        spec, mass = profile.spectrum(), profile.mass()
    else:
        # The mass of R_{A,A} is |A|^2.
        spec, mass = spectrum(subset), subset.card ** 2
    if args.format == "csv":
        lines = [f"{i},{spec.histogram[i]}" for i in spec.support()]
        lines.append(f"max_rep,{spec.max_rep}")
        return "\n".join(lines), EX_OK
    body = {
        "orders": list(subset.group.orders),
        "card": subset.card,
        "histogram": {str(i): spec.histogram[i] for i in spec.support()},
        "max_rep": spec.max_rep,
        "mass": mass,
    }
    return body, EX_OK


def _csv_text(*columns: np.ndarray) -> str:
    """The lines "%d,%d,...\n" % row of equal-length non-negative integer
    columns, built in numpy: a byte matrix with one row per line and each
    column right-aligned in a field as wide as its largest value, filled by
    one division by 10 per decimal place, then one compress that drops
    every leading zero."""
    tops = [int(col.max()) for col in columns]
    widths = [len(str(top)) for top in tops]
    text = np.empty((len(columns[0]), sum(widths) + len(widths)), np.uint8)
    keep = np.ones(text.shape, bool)
    seps = []
    for col, top, width in zip(columns, tops, widths):
        units = (seps[-1] if seps else -1) + width
        # uint32 division is about twice as fast as uint64.
        x = col.astype(np.uint32 if top < 2**32 else np.uint64)
        ten = x.dtype.type(10)
        for k in range(units, units - width, -1):
            # A place above the units is written iff its quotient is not 0.
            if k < units:
                np.not_equal(x, 0, out=keep[:, k])
            q = x // ten
            text[:, k] = x - q * ten
            x = q
        seps.append(units + 1)
    text += ord("0")
    text[:, seps] = ord(",")
    text[:, -1] = ord("\n")
    return text[keep].tobytes().decode("ascii")


def _cmd_diff_profile(args: argparse.Namespace) -> tuple[dict | str, int]:
    subset = _load_subset(args.inp)
    profile = rep_diff_profile(subset, cross_check=args.cross_check)
    if args.format == "csv":
        return _csv_text(np.arange(subset.group.order), profile.array), EX_OK
    body = {
        "orders": list(subset.group.orders),
        "card": subset.card,
        "counts": profile.array,
    }
    return body, EX_OK


# The fields of a verify report in sorted order: the order of the slots of
# its row template.
_REPORT_FIELDS = (
    "card", "case", "claim_id", "extra", "holds", "lhs", "note", "orders", "rhs", "slack",
    "status",
)

# Types whose equal values of the same type always have the same text.
_PLAIN_TYPES = frozenset((str, int, bool, type(None), Fraction))


def _report_rows(cases: Sequence[SuiteCase]) -> _Fragment:
    """The verify body's "reports": one dict per report of each case, with
    the case's label, orders and card, written as a _Fragment.

    No dict is built.  Each row is one %-template with a slot per field,
    made once per body from the sorted field names at the pad the list is
    written at, and filled with texts that are each encoded once: a case's
    label, orders and card once for all its reports, a claim id, note and
    status once per distinct triple, and an extra once per distinct dict.
    The memos are keyed by each value together with its type, so 1, True
    and Fraction(1) never share a text; a note or extra holding a value
    that is not a str, int, bool, None or Fraction is encoded each time.
    An int lhs, rhs or slack goes into its slot as it is, where %s writes
    int.__repr__.  Every other text is _json_runs's own: the str quoting,
    _fraction_text, or _json_runs itself at the pad of a report field."""

    def runs(pad: str) -> list[str]:
        if not any(case.reports for case in cases):
            return ["[]"]
        inner = pad + "  "
        field = inner + "  "
        quote = encode_basestring_ascii
        # Every row starts with its separator; the first row's opens the list.
        row = ("," + inner + "{" + ",".join(field + quote(k) + ": %s" for k in _REPORT_FIELDS)
               + inner + "}")

        def text(value: Any) -> str:
            t = type(value)
            if t is str:
                return quote(value)
            if t is int:
                return int.__repr__(value)
            if t is Fraction:
                return _fraction_text(value, field)
            if value is None:
                return "null"
            return "".join(_json_runs(value, field))

        def claim_texts(claim_id: Any, status: Any, note: Any) -> tuple[str, str, str, str]:
            return (text(claim_id.value), "true" if status is CheckStatus.HOLDS else "false",
                    text(note), text(status.value))

        claims: dict[tuple, tuple[str, str, str, str]] = {}
        extras: dict[tuple, str] = {}
        out: list[str] = []
        rows: list[str] = []
        for case in cases:
            card, label, orders = text(case.card), text(case.label), text(list(case.orders))
            for claim_id, lhs, rhs, status, slack, note, extra in case.reports:
                if type(note) in _PLAIN_TYPES:
                    key = (claim_id, type(claim_id), status, type(status), note, type(note))
                    claim = claims.get(key) or claims.setdefault(
                        key, claim_texts(claim_id, status, note))
                else:
                    claim = claim_texts(claim_id, status, note)
                types = tuple(map(type, extra.values())) if type(extra) is dict else None
                if types is not None and _PLAIN_TYPES.issuperset(types):
                    key = (*extra.items(), types)
                    extra_text = extras.get(key) or extras.setdefault(key, text(extra))
                else:
                    extra_text = text(extra)
                claim_text, holds, note_text, status_text = claim
                rows.append(row % (
                    card, label, claim_text, extra_text, holds,
                    lhs if type(lhs) is int else text(lhs), note_text, orders,
                    rhs if type(rhs) is int else text(rhs),
                    slack if type(slack) is int else text(slack), status_text,
                ))
            if len(rows) >= 256:
                out.append("".join(rows))
                rows.clear()
        out.append("".join(rows) + pad + "]")
        out[0] = "[" + out[0][1:]
        return out

    return _Fragment(runs)


def _cmd_verify(args: argparse.Namespace) -> tuple[dict | str, int]:
    """The suite's counts and reports.  "reports" is _report_rows's
    _Fragment: one row template per body, each label, orders list, card,
    claim id, note, status and extra encoded once, in memos keyed by value
    and type.  The text is that of the list of report dicts, byte for byte."""
    if args.max_m < 2:
        raise ValueError("--max-m must be at least 2")
    result = run_verification_suite(args.suite, args.trials, args.seed, args.max_m)
    body = {
        "suite": result.suite,
        "trials": result.trials,
        "seed": result.seed,
        "max_m": args.max_m,
        "counts": {
            "holds": result.held,
            "fails": result.failed,
            "not_applicable": result.not_applicable,
        },
        "reports": _report_rows(result.cases),
    }
    return body, EX_OK if result.ok else EX_FAIL


def _cmd_ruzsa(args: argparse.Namespace) -> tuple[dict | str, int]:
    try:
        if args.mode == "heuristic":
            threads = 1 if args.threads is None else args.threads
            if args.seed is None:
                args.seed = 0
            r = args.m if args.r is None else args.r
            out = heuristic_upper_bound(
                args.m, r, moves=DEFAULT_MOVES if args.budget is None else args.budget,
                seed=args.seed, threads=threads,
            )
            body = {"m": args.m, "mode": "heuristic", "r": r, "threads": threads,
                    "achieved_r": out.certificate.claimed_r if out.certificate else None}
        else:
            # Exact mode reads neither flag, so it refuses both and its manifest
            # echoes neither.
            for flag in ("threads", "seed"):
                if getattr(args, flag) is not None:
                    raise ValueError(f"--{flag} only applies to --mode heuristic")
                delattr(args, flag)
            budget = DEFAULT_NODE_BUDGET if args.budget is None else args.budget
            if args.r is None:
                result = ruzsa_number(args.m, node_budget=budget)
                body = {
                    "m": args.m,
                    "mode": "exact",
                    "status": "VALUE" if result.exact else "EXHAUSTED",
                    "value": result.value,
                    "lo": result.lo,
                    "hi": result.hi,
                    "probes": [[r, status.value] for r, status in result.probes],
                    "nodes": result.nodes,
                    "certificate": _cert_dict(result.certificate),
                    "unsat_record": (None if result.unsat_record is None
                                     else _outcome_fields(result.unsat_record)),
                }
                return body, EX_OK if result.exact else EX_EXHAUSTED
            out = exists_basis(args.m, args.r, node_budget=budget)
            body = {"m": args.m, "mode": "exact", "r": args.r}
        body.update(_outcome_fields(out), certificate=_cert_dict(out.certificate))
        return body, _STATUS_EXIT[out.status]
    except (MemoryError, OverflowError) as exc:
        # Either mode fails at its own statement on a modulus too large to
        # build; both report it as one line that names --m.
        raise MemoryError(f"--m {args.m} is too large to search") from exc


_HANDLERS = {
    "singer": _cmd_singer,
    "construct": _cmd_construct,
    "spectrum": _cmd_spectrum,
    "diff-profile": _cmd_diff_profile,
    "verify": _cmd_verify,
    "ruzsa": _cmd_ruzsa,
}


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code (argparse raises SystemExit).

    The first statement freezes every object alive at the call into the
    collector's permanent generation; objects the command makes are still
    tracked and collected.  `main` is the process entry point: a caller that
    keeps running after it returns should call gc.unfreeze().  A MemoryError
    or OverflowError (a value too large to build, such as the slots of a
    huge m) anywhere in the command exits 71 with one line on stderr, and a
    set too large to load exits 66."""
    gc.freeze()
    if argv is None:
        argv = sys.argv[1:]
    # Only the subparser that the first word names is built.
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        return _run(args)
    except (MemoryError, OverflowError) as exc:
        print(f"repfn: out of memory{f': {exc}' if str(exc) else ''}", file=sys.stderr)
        return EX_OSERR


def _run(args: argparse.Namespace) -> int:
    t0 = time.monotonic()
    try:
        body, code = _HANDLERS[args.command](args)
    except _InputError as exc:
        print(f"repfn: {exc}", file=sys.stderr)
        return EX_NOINPUT
    except VerificationError as exc:
        print(f"repfn: internal verification failure: {exc}", file=sys.stderr)
        return EX_SOFTWARE
    except ValueError as exc:
        print(f"repfn: {exc}", file=sys.stderr)
        return EX_USAGE
    if isinstance(body, dict):
        body["manifest"] = _manifest(args, t0)
    try:
        _emit(body, args.out)
    except OSError as exc:
        print(f"repfn: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
        return EX_CANTCREAT
    return code


if __name__ == "__main__":
    raise SystemExit(main())
