"""Command-line interface.

Subcommands: lc, kerr, profile (single-sequence analysis), count (closed
forms), census, verify, refute (distribution work).  main hands the
words after the command name to that command's own parser; the whole
parser, built once per process like the others, runs only for a first
word that names no command or for words the command's parser leaves
over, and prints the same usage and error as ever.  Every subcommand
builds one payload and hands it to _emit, the one reader of --format:
JSON and CSV render the payload (census.render; a census report renders
its own), and every table is built from that same payload.  Every census
runs in the calling process; census, verify and refute accept --jobs and
check it, so scripts may pass it, but it changes nothing, and they alone
load numpy, through lcforge.cosets, when they run.

Exit codes: 0 on success (for verify: every row matches), 1 when verify
finds a formula/census mismatch, 2 on invalid input, 130 on Ctrl-C, 141
when stdout is closed before the output is written (as `| head` does),
with nothing on stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from functools import cache

from . import census as census_mod
from . import core, kerror
from .census import (
    CensusQuery,
    Sampled,
    SequenceClass,
    census_distribution,
    refutation_report,
    verify_formulas,
)
from .errors import InvalidParams, LcforgeError

_FORMATS = ("table", "json", "csv")
_CLASSES = tuple(c.value for c in SequenceClass)


def _add_format(parser):
    parser.add_argument(
        "--format", choices=_FORMATS, default="table", help="output format"
    )


def _add_input(parser):
    parser.add_argument(
        "--n", type=int, required=True, metavar="N",
        help="period exponent: the period is 2^N",
    )
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--bits", metavar="STR", help="one period as a 0/1 string, position 0 first"
    )
    group.add_argument(
        "--hex", dest="hex_digits", metavar="STR",
        help="one period as hex digits, most significant bit first",
    )
    group.add_argument(
        "--file", metavar="PATH",
        help="file holding the 0/1 string (whitespace ignored, 4*2^N bytes at most)",
    )


def _add_jobs(parser):
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="J",
        help="accepted and checked (at least 1); every census runs in-process",
    )


def _add_census_params(parser):
    parser.add_argument("--n", type=int, required=True, metavar="N")
    parser.add_argument("--k", type=int, required=True, metavar="K")
    parser.add_argument(
        "--class", dest="seq_class", choices=_CLASSES, default="all",
        help="sequence class: all, full (odd weight), or less (even weight)",
    )


@cache  # built on the first call, then reused by every call in the process
def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The whole parser, and each command's own parser by its name."""
    parser = argparse.ArgumentParser(
        prog="lcforge",
        description="Linear complexity and k-error linear complexity of"
        " 2^n-periodic binary sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lc", help="linear complexity of one sequence")
    _add_input(p)
    _add_format(p)

    p = sub.add_parser("kerr", help="exact k-error linear complexity with witness")
    _add_input(p)
    p.add_argument("--k", type=int, required=True, metavar="K")
    _add_format(p)

    p = sub.add_parser("profile", help="k-error complexity profile for k = 0..kmax")
    _add_input(p)
    p.add_argument("--kmax", type=int, required=True, metavar="K")
    _add_format(p)

    p = sub.add_parser("count", help="closed-form count of sequences at one L")
    _add_census_params(p)
    p.add_argument("--L", type=int, required=True, metavar="L")
    _add_format(p)

    p = sub.add_parser("census", help="distribution of k-error complexity")
    _add_census_params(p)
    p.add_argument(
        "--mode", choices=("exhaustive", "sampled"), default="exhaustive"
    )
    p.add_argument(
        "--samples", type=int, default=4096, metavar="COUNT",
        help="draws for --mode sampled (default 4096)",
    )
    p.add_argument(
        "--seed", type=int, default=0, metavar="SEED",
        help="stream seed for --mode sampled (default 0)",
    )
    _add_jobs(p)
    _add_format(p)

    p = sub.add_parser("verify", help="census vs closed form for every L")
    _add_census_params(p)
    _add_jobs(p)
    _add_format(p)

    p = sub.add_parser(
        "refute",
        help="period-16 3-error census vs closed form vs the published table",
    )
    _add_jobs(p)
    _add_format(p)

    return parser, sub.choices


def _load_sequence(args) -> core.PeriodicSequence:
    if args.bits is not None:
        return core.parse_binary(args.bits, args.n)
    if args.hex_digits is not None:
        return core.parse_hex(args.hex_digits, args.n)
    # checked before the file is opened, so the read below stays bounded
    core._check_exponent(args.n)
    limit = 4 << args.n
    with open(args.file, "rb") as handle:
        data = handle.read(limit + 1)
    if len(data) > limit:
        raise InvalidParams(
            f"--file is longer than {limit} bytes, the limit at n = {args.n}"
        )
    text = "".join(data.decode("utf-8", errors="replace").split())
    return core.parse_binary(text, args.n)


def _check_jobs(args) -> None:
    if args.jobs is not None and args.jobs < 1:
        raise InvalidParams(f"--jobs must be at least 1, got {args.jobs}")


def _emit(fmt: str, payload, table=None) -> None:
    """Print a result in the --format asked for; nothing else reads it.

    `payload` is a dict for census.render, or a census report, which
    renders its payload() through to_json and to_csv.  The table is the
    lines that `table()` builds from that same payload, called for the
    table format only; by default one "key = value" line per item.
    """
    if fmt == "table":
        lines = table() if table else (f"{k} = {v}" for k, v in payload.items())
        text = "\n".join(lines)
    elif isinstance(payload, dict):
        text = census_mod.render(fmt, payload)
    elif fmt == "json":
        text = payload.to_json()
    else:
        text = payload.to_csv()
    print(text.removesuffix("\n"))


def _cmd_lc(args) -> int:
    s = _load_sequence(args)
    weight = s.weight()
    payload = {
        "n": args.n,
        "L": core.games_chan_lc(s),
        "weight": weight,
        "class": "FullLC" if weight & 1 else "LessLC",
    }
    _emit(args.format, payload)
    return 0


def _cmd_kerr(args) -> int:
    s = _load_sequence(args)
    result = kerror.k_error_lc(s, args.k)
    payload = {
        "n": args.n,
        "k": args.k,
        "L": core.games_chan_lc(s),
        "Lk": result.value,
        "witness": list(result.witness),
    }
    _emit(args.format, payload)
    return 0


def _cmd_profile(args) -> int:
    s = _load_sequence(args)
    profile = kerror.k_error_profile(s, args.kmax)
    payload = {
        "n": args.n,
        "kmax": args.kmax,
        "rows": [{"k": k, "Lk": value} for k, value in profile],
    }

    def table():
        width = len(str(1 << args.n))
        lines = [f"{'k':>4}  {'L_k':>{width}}"]
        return lines + [f"{k:>4}  {value:>{width}}" for k, value in profile]

    _emit(args.format, payload, table)
    return 0


@contextmanager
def _whole_decimals():
    """Lift Python's int-to-decimal digit limit (4300 by default) for a while.

    Counts at n >= 14 have more digits than that; they are exact and are
    printed whole.  Pythons without the limit have nothing to lift.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is None:
        yield
        return
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _cmd_count(args) -> int:
    seq_class = SequenceClass(args.seq_class)
    count = census_mod.closed_form(args.k, seq_class)(args.n, args.L)
    payload = {
        "n": args.n,
        "L": args.L,
        "k": args.k,
        "class": seq_class.value,
        "count": count,
    }
    with _whole_decimals():
        _emit(args.format, payload, lambda: [str(count)])
    return 0


def _census_lines(payload: dict, elapsed: float) -> list[str]:
    width = len(str(1 << payload["n"])) + 1
    interval = "   3s-interval" if payload["mode"]["kind"] == "sampled" else ""
    lines = [f"{'L':>{width}} {'census':>12} {'formula':>12} verdict{interval}"]
    for row in payload["rows"]:
        formula = "-" if row["formula"] is None else row["formula"]
        L, census, verdict = row["L"], row["census"], row["verdict"]
        line = f"{L:>{width}} {census:>12} {formula:>12} {verdict:<9}"
        if "interval" in row:
            line += " [{:.5f}, {:.5f}]".format(*row["interval"])
        lines.append(line.rstrip())
    totals = payload["totals"]
    total = f"total: census {totals['census']}"
    if totals["formula"] is not None:
        total += f", formula {totals['formula']}"
    return [*lines, total, f"elapsed: {elapsed:.3f}s"]


def _cmd_census(args) -> int:
    mode = Sampled(args.samples, args.seed) if args.mode == "sampled" else None
    query = CensusQuery(args.n, args.k, SequenceClass(args.seq_class), mode)
    _check_jobs(args)  # after the query, whose errors are reported first
    report = census_distribution(query)
    _emit(args.format, report, lambda: _census_lines(report.payload(), report.elapsed))
    return 0


def _cmd_verify(args) -> int:
    _check_jobs(args)
    report = verify_formulas(args.n, args.k, SequenceClass(args.seq_class))
    _emit(args.format, report, lambda: _census_lines(report.payload(), report.elapsed))
    return 0 if report.all_match else 1


def _refutation_lines(payload: dict, elapsed: float) -> list[str]:
    totals = payload["totals"]
    return [
        f"{'L':>3} {'census':>8} {'theorem':>8} {'fixture':>8} verdict",
        *(
            f"{row['L']:>3} {row['census']:>8} {row['theorem']:>8}"
            f" {row['fixture']:>8} {row['verdict']}"
            for row in payload["rows"]
        ),
        f"total: census {totals['census']}, theorem {totals['theorem']},"
        f" fixture {totals['fixture']}",
        f"fixture disagrees at L = {payload['mismatched_L']}",
        f"elapsed: {elapsed:.3f}s",
    ]


def _cmd_refute(args) -> int:
    _check_jobs(args)
    report = refutation_report()
    _emit(
        args.format, report, lambda: _refutation_lines(report.payload(), report.elapsed)
    )
    return 0


_COMMANDS = {
    "lc": _cmd_lc,
    "kerr": _cmd_kerr,
    "profile": _cmd_profile,
    "count": _cmd_count,
    "census": _cmd_census,
    "verify": _cmd_verify,
    "refute": _cmd_refute,
}


def _parse(argv) -> tuple[str, argparse.Namespace]:
    """The command argv names and its arguments, or exit with argparse's
    usage and error.

    A first word that names a command is parsed by that command's own
    parser alone, which the whole parser would hand it to anyway.  The
    whole parser runs only when the first word names no command, or when
    the command's parser leaves words over, so that it prints its usage
    and error for them.
    """
    parser, commands = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in commands:
        args, rest = commands[argv[0]].parse_known_args(argv[1:])
        if not rest:
            return argv[0], args
    args = parser.parse_args(argv)
    return args.command, args


def main(argv=None) -> int:
    command, args = _parse(argv)
    try:
        code = _COMMANDS[command](args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:
        # the reader has gone: the flush at exit goes nowhere, quietly,
        # and the exit code is a shell's for a death by SIGPIPE
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (LcforgeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130
