"""Command-line interface: one binary, six subcommands, exact machine output.

Every JSON body embeds a manifest; all numbers are integers or {num, den}
rationals, and the manifest's wall_time_us is the only field that varies
between identical runs.  Set-producing subcommands emit documents that the
set-consuming subcommands accept verbatim.

Exit codes: 0 success/SAT, 1 failed checks or UNSAT, 2 budget exhausted,
64 usage error, 66 unreadable or invalid input file, 70 internal
verification failure, 73 output file cannot be written.
"""

from __future__ import annotations

import argparse
import sys
import time
from enum import Enum
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Any

from . import __version__
from .bounds import SUITE_NAMES, run_verification_suite
from .constructions import half_period_doubling, shift_family_report, shifted_doubling, sidon_set
from .groups import VerificationError, parse_subset
from .profiles import rep_diff_profile, rep_profile
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
EX_CANTCREAT = 73


class _InputError(Exception):
    """Unreadable or malformed input set file; maps to exit 66."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> _Parser:
    parser = _Parser(prog="repfn", description="exact representation-function toolkit")
    parser.add_argument("--version", action="version", version=f"repfn {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("singer", help="perfect difference set in Z_{p^2+p+1}")
    p.add_argument("--p", type=int, required=True, help="prime p")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", dest="as_text", action="store_false",
                     help="emit the JSON set format (default)")
    fmt.add_argument("--text", dest="as_text", action="store_true",
                     help="emit the plain-text set format")
    p.set_defaults(as_text=False)
    p.add_argument("--out", default="-", help="output path, '-' for stdout")

    p = sub.add_parser("construct", help="extremal subsets from difference sets")
    p.add_argument("--theorem", required=True, choices=("11b", "12b", "13b"),
                   help="which construction family")
    p.add_argument("--p", type=int, required=True, help="prime p")
    pick = p.add_mutually_exclusive_group()
    pick.add_argument("--l", type=int, default=None,
                      help="shift parameter (11b only); omit to scan")
    pick.add_argument("--scan", action="store_true",
                      help="full shift scan report (11b only; the default)")
    p.add_argument("--out", default="-")

    for name, blurb in (
        ("spectrum", "representation-count histogram of a set"),
        ("diff-profile", "difference representation counts of a set"),
    ):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--in", dest="inp", default="-",
                       help="input set file (JSON or text), '-' for stdin")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--method", choices=("auto", "naive", "fast"), default="auto")
        p.add_argument("--cross-check", dest="cross_check", action="store_true",
                       help="recompute through the second engine path and compare")
        p.add_argument("--out", default="-")

    p = sub.add_parser("verify", help="machine-check the inequality suites")
    p.add_argument("--suite", choices=SUITE_NAMES, default="all")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-m", dest="max_m", type=int, default=128,
                   help="largest random group order")
    p.add_argument("--out", default="-")

    p = sub.add_parser("ruzsa", help="basis search / least max representation count")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--r", type=int, default=None,
                   help="cap to decide at; omit to search for the least cap")
    p.add_argument("--mode", choices=("exact", "heuristic"), default="exact")
    p.add_argument("--budget", type=int, default=None,
                   help="nodes (exact) or moves per worker (heuristic)")
    p.add_argument("--seed", type=int, default=None,
                   help="heuristic random seed (default 0)")
    p.add_argument("--threads", type=int, default=None,
                   help="heuristic worker count (default 1)")
    p.add_argument("--out", default="-")

    return parser


# -- serialization helpers ---------------------------------------------------


def _json_text(value: Any, pad: str = "\n") -> str:
    """The text json.dumps(value, indent=2, sort_keys=True) would give, in
    one pass: keys become str(k) and are sorted, a Fraction is written as
    {"den", "num"} and an Enum as its value.  Anything else that is not a
    str, int, bool, None, list, tuple or dict, floats included, is refused.
    pad is the newline and indent of the line the value starts on."""
    if isinstance(value, Enum):
        return _json_text(value.value, pad)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, Fraction):
        value = {"num": value.numerator, "den": value.denominator}
    inner = pad + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = sorted({str(k): v for k, v in value.items()}.items())
        body = ("," + inner).join(
            encode_basestring_ascii(k) + ": " + _json_text(v, inner) for k, v in items
        )
        return "{" + inner + body + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        # Profile bodies are long lists of plain ints: write those in one join.
        if all(type(v) is int for v in value):
            body = ("," + inner).join(map(str, value))
        else:
            body = ("," + inner).join(_json_text(v, inner) for v in value)
        return "[" + inner + body + pad + "]"
    raise TypeError(f"refusing inexact serialization of {type(value).__name__}")


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
    if isinstance(body, str):
        text = body if body.endswith("\n") else body + "\n"
    else:
        text = _json_text(body) + "\n"
    if out_path == "-":
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_subset(path: str):
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise _InputError(str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise _InputError(f"invalid set file: not UTF-8 ({exc})") from exc
    try:
        return parse_subset(text)
    except ValueError as exc:
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
        "certificate": _cert_dict(out.certificate),
    }


# -- subcommand handlers -----------------------------------------------------


def _cmd_singer(args: argparse.Namespace, t0: float) -> tuple[dict | str, int]:
    pds = singer_set(args.p)
    if args.as_text:
        return pds.subset.to_text(), EX_OK
    body = pds.subset.to_json_dict()
    body.update({"p": pds.p, "n": pds.n, "card": pds.subset.card})
    body["manifest"] = _manifest(args, t0)
    return body, EX_OK


def _cmd_construct(args: argparse.Namespace, t0: float) -> tuple[dict | str, int]:
    if args.theorem != "11b" and (args.l is not None or args.scan):
        raise ValueError("--l/--scan only apply to --theorem 11b")
    body: dict
    if args.theorem == "12b":
        subset = sidon_set(args.p)
        body = subset.to_json_dict()
        m = subset.group.order
        body.update({"theorem": "12b", "p": args.p, "m": m, "card": subset.card,
                     "s2": (m - 1) // 2})
    elif args.theorem == "13b":
        subset = half_period_doubling(args.p)
        body = subset.to_json_dict()
        m = subset.group.order
        body.update({"theorem": "13b", "p": args.p, "m": m, "card": subset.card,
                     "s4": m // 2 - 1})
    elif args.l is not None:
        subset = shifted_doubling(args.p, args.l)
        body = subset.to_json_dict()
        body.update({"theorem": "11b", "p": args.p, "m": subset.group.order,
                     "card": subset.card, "l": args.l})
    else:
        report = shift_family_report(args.p)
        subset = report.best_set
        body = subset.to_json_dict()
        body.update({
            "theorem": "11b",
            "p": args.p,
            "m": report.m,
            "card": subset.card,
            "best_l": report.best_l,
            "best_s0": report.best_s0,
            "x_odd": report.x_odd,
            "avg_even": report.avg_even,
            "per_l": [[s.x_odd, s.x_even, s.s0] for s in report.per_l],
        })
    body["manifest"] = _manifest(args, t0)
    return body, EX_OK


def _cmd_spectrum(args: argparse.Namespace, t0: float) -> tuple[dict | str, int]:
    subset = _load_subset(args.inp)
    profile = rep_profile(subset, method=args.method, cross_check=args.cross_check)
    spec = profile.spectrum()
    if args.format == "csv":
        lines = [f"{i},{spec.histogram[i]}" for i in spec.support()]
        lines.append(f"max_rep,{spec.max_rep}")
        return "\n".join(lines), EX_OK
    body = {
        "orders": list(subset.group.orders),
        "card": subset.card,
        "histogram": {str(i): spec.histogram[i] for i in spec.support()},
        "max_rep": spec.max_rep,
        "mass": profile.mass(),
        "manifest": _manifest(args, t0),
    }
    return body, EX_OK


def _cmd_diff_profile(args: argparse.Namespace, t0: float) -> tuple[dict | str, int]:
    subset = _load_subset(args.inp)
    profile = rep_diff_profile(subset, method=args.method, cross_check=args.cross_check)
    if args.format == "csv":
        return "\n".join(f"{g},{c}" for g, c in enumerate(profile.counts)), EX_OK
    body = {
        "orders": list(subset.group.orders),
        "card": subset.card,
        "counts": list(profile.counts),
        "manifest": _manifest(args, t0),
    }
    return body, EX_OK


def _cmd_verify(args: argparse.Namespace, t0: float) -> tuple[dict | str, int]:
    result = run_verification_suite(args.suite, args.trials, args.seed, args.max_m)
    reports = []
    for case in result.cases:
        for rep in case.reports:
            reports.append({
                "case": case.label,
                "orders": list(case.orders),
                "card": case.card,
                "claim_id": rep.claim_id.value,
                "lhs": rep.lhs,
                "rhs": rep.rhs,
                "status": rep.status.value,
                "holds": rep.holds,
                "slack": rep.slack,
                "note": rep.note,
                "extra": rep.extra,
            })
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
        "reports": reports,
        "manifest": _manifest(args, t0),
    }
    return body, EX_OK if result.ok else EX_FAIL


def _cmd_ruzsa(args: argparse.Namespace, t0: float) -> tuple[dict | str, int]:
    if args.mode == "heuristic":
        threads = 1 if args.threads is None else args.threads
        if args.seed is None:
            args.seed = 0
        r = args.m if args.r is None else args.r
        out = heuristic_upper_bound(
            args.m, r, moves=DEFAULT_MOVES if args.budget is None else args.budget,
            seed=args.seed, threads=threads,
        )
        body = {"m": args.m, "mode": "heuristic", "r": r, "threads": threads}
        body.update(_outcome_fields(out))
        body["achieved_r"] = out.certificate.claimed_r if out.certificate else None
        body["manifest"] = _manifest(args, t0)
        return body, EX_OK if out.status is SearchStatus.SAT else EX_EXHAUSTED

    # Exact mode reads neither flag, so it refuses both and its manifest
    # echoes neither.
    for flag in ("threads", "seed"):
        if getattr(args, flag) is not None:
            raise ValueError(f"--{flag} only applies to --mode heuristic")
        delattr(args, flag)
    budget = DEFAULT_NODE_BUDGET if args.budget is None else args.budget
    if args.r is not None:
        out = exists_basis(args.m, args.r, node_budget=budget)
        body = {"m": args.m, "mode": "exact", "r": args.r}
        body.update(_outcome_fields(out))
        body["manifest"] = _manifest(args, t0)
        code = {
            SearchStatus.SAT: EX_OK,
            SearchStatus.UNSAT: EX_FAIL,
            SearchStatus.EXHAUSTED: EX_EXHAUSTED,
        }[out.status]
        return body, code

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
        "unsat_record": (
            None
            if result.unsat_record is None
            else {
                "status": result.unsat_record.status.value,
                "nodes": result.unsat_record.nodes,
                "prunes": result.unsat_record.prunes,
                "notes": list(result.unsat_record.notes),
            }
        ),
        "manifest": _manifest(args, t0),
    }
    return body, EX_OK if result.exact else EX_EXHAUSTED


_HANDLERS = {
    "singer": _cmd_singer,
    "construct": _cmd_construct,
    "spectrum": _cmd_spectrum,
    "diff-profile": _cmd_diff_profile,
    "verify": _cmd_verify,
    "ruzsa": _cmd_ruzsa,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.monotonic()
    try:
        body, code = _HANDLERS[args.command](args, t0)
    except _InputError as exc:
        print(f"repfn: {exc}", file=sys.stderr)
        return EX_NOINPUT
    except VerificationError as exc:
        print(f"repfn: internal verification failure: {exc}", file=sys.stderr)
        return EX_SOFTWARE
    except ValueError as exc:
        print(f"repfn: {exc}", file=sys.stderr)
        return EX_USAGE
    try:
        _emit(body, args.out)
    except OSError as exc:
        print(f"repfn: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
        return EX_CANTCREAT
    return code


if __name__ == "__main__":
    raise SystemExit(main())
