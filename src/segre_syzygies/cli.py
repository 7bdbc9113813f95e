"""Command-line front end.

Every computation is exposed as a subcommand with machine-readable output
(JSON by default, aligned text with --format text); exact rationals are
printed as "a/b".  Exit codes: 0 success, 1 failed verification or internal
inconsistency, 2 bad arguments or partition syntax, 3 capacity exceeded,
4 unsupported parameter range.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .acceptance import run_all
from .characters import character_table, kronecker_coefficient
from .errors import CapacityError, ConsistencyError, UnsupportedError
from .koszul import DEFAULT_CAPACITY, decomposition_json, koszul_homology, new_syzygy_dimension
from .partitions import Partition, check_partition, lr_coefficient
from .rationality import multinomial_sum_rational, rational_reconstruct
from .schur_ring import SymFunc, boxtimes, power_sum, sym_to_json
from .series import (
    DEFAULT_POLICY,
    TruncationPolicy,
    euler_chi,
    f_segre,
    lascoux_leading,
    order_normalize,
    series_to_json,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3
EXIT_UNSUPPORTED = 4


def parse_partition(text: str) -> Partition:
    """Comma-separated parts; "0" or "-" denote the zero partition."""
    text = text.strip()
    if text in ("0", "-", ""):
        return ()
    try:
        parts = [int(x) for x in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"invalid partition syntax: {text!r}") from exc
    return check_partition(parts)


def parse_ints(text: str, what: str) -> tuple[int, ...]:
    """Comma-separated integers, such as dims or a shift vector."""
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise ValueError(f"invalid {what} syntax: {text!r}") from exc


def parse_rational(text: str) -> Fraction:
    """A rational like "3" or "-1/2"; a zero denominator is a usage error."""
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in {text!r}") from exc
    except ValueError as exc:
        raise ValueError(f"invalid rational syntax: {text!r}") from exc


def parse_poly(text: str, d: int) -> dict:
    """Polynomial expressions like "1", "k1", "2*k1^2*k2 - k3 + 1/2"."""
    terms = [t for t in text.replace("-", "+-").replace(" ", "").split("+") if t]
    poly: dict[tuple[int, ...], Fraction] = {}
    for term in terms:
        coeff = Fraction(1)
        expo = [0] * d
        if term.startswith("-"):
            coeff = -coeff
            term = term[1:]
        for factor in term.split("*"):
            if not factor:
                raise ValueError(f"empty factor in polynomial term {term!r}")
            if factor[0] == "k":
                name, caret, power = factor.partition("^")
                if not name[1:].isdecimal():
                    raise ValueError(f"invalid variable {name!r}")
                idx = int(name[1:]) - 1
                if not 0 <= idx < d:
                    raise ValueError(f"variable {name} out of range for d={d}")
                if caret and not power.isdecimal():
                    raise ValueError(f"exponents must be non-negative integers: {text!r}")
                expo[idx] += int(power) if caret else 1
            else:
                coeff *= parse_rational(factor)
        key = tuple(expo)
        poly[key] = poly.get(key, Fraction(0)) + coeff
    return poly


def _emit(payload, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload))
        return
    _emit_text(payload)


def _scalar_list(value) -> bool:
    return isinstance(value, list) and all(
        not isinstance(x, (dict, list)) for x in value
    )


def _inline(value) -> str:
    if _scalar_list(value):
        return "[" + ",".join(str(x) for x in value) + "]"
    if isinstance(value, list):
        return "[" + "; ".join(_inline(x) for x in value) + "]"
    return str(value)


def _emit_text(payload, indent: str = "") -> None:
    if isinstance(payload, dict):
        width = max((len(str(k)) for k in payload), default=0)
        for key, value in payload.items():
            if isinstance(value, dict) or (
                isinstance(value, list) and any(isinstance(x, dict) for x in value)
            ):
                print(f"{indent}{key}:")
                _emit_text(value, indent + "  ")
            else:
                print(f"{indent}{str(key).ljust(width)}  {_inline(value)}")
    elif isinstance(payload, list):
        for item in payload:
            if isinstance(item, dict):
                _emit_text(item, indent)
            else:
                print(f"{indent}{_inline(item)}")
    else:
        print(f"{indent}{payload}")


def _capacity() -> int:
    """The block capacity from SEGRE_CAPACITY, if set."""
    text = os.environ.get("SEGRE_CAPACITY")
    if text is None:
        return DEFAULT_CAPACITY
    try:
        capacity = int(text)
    except ValueError:
        capacity = 0
    if capacity < 1:
        raise ValueError(f"SEGRE_CAPACITY must be a positive integer, got {text!r}")
    return capacity


def _policy(args) -> TruncationPolicy:
    for flag, value in (("--order", args.order), ("--max-part", args.max_part)):
        if value < 0:
            raise ValueError(f"{flag} must be non-negative, got {value}")
    return TruncationPolicy(args.order, args.max_part)


def _add_policy_flags(sub):
    sub.add_argument("--order", type=int, default=DEFAULT_POLICY.max_order,
                     help="truncation order")
    sub.add_argument("--max-part", type=int, default=DEFAULT_POLICY.max_part_size,
                     dest="max_part", help="largest partition size kept")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="segre-syzygies",
        description="Exact equivariant syzygy invariants of Segre embeddings.",
    )
    parser.add_argument("--format", choices=("json", "text"), default="json")
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("char-table", help="character table of a symmetric group")
    sub.add_argument("p", type=int)
    sub.add_argument("--csv", action="store_true", help="emit CSV instead")

    sub = commands.add_parser("kronecker", help="Kronecker coefficient")
    for name in ("lam", "mu", "nu"):
        sub.add_argument(name)

    sub = commands.add_parser("lr", help="Littlewood-Richardson coefficient")
    for name in ("lam", "mu", "nu"):
        sub.add_argument(name)

    sub = commands.add_parser("boxtimes", help="point-wise tensor product of Schur symbols")
    sub.add_argument("lam")
    sub.add_argument("mu")

    sub = commands.add_parser("prime", help="power-sum basis element in the Schur basis")
    sub.add_argument("lam")

    sub = commands.add_parser("euler-chi", help="Euler-characteristic series slice")
    sub.add_argument("k", type=int)
    _add_policy_flags(sub)

    sub = commands.add_parser(
        "f-segre",
        help="p-syzygy series of the Segre for p = 1, 2, 3 "
        "(the degree-5 part of the p=4 series is `euler-chi 5`)",
    )
    sub.add_argument("p", type=int)
    _add_policy_flags(sub)
    sub.add_argument("--star", action="store_true", help="order-normalized form")

    sub = commands.add_parser("lascoux", help="order-two slice of the p-syzygy series")
    sub.add_argument("p", type=int)
    sub.add_argument("d", type=int)

    sub = commands.add_parser("koszul", help="syzygy space at fixed dimensions")
    sub.add_argument("--dims", required=True)
    sub.add_argument("--p", type=int, required=True)
    sub.add_argument("--d", type=int, required=True)
    sub.add_argument("--cosocle", action="store_true",
                     help="dimension of syzygies not induced from merged factors")
    sub.add_argument("--weights", action="store_true", help="include the weight table as CSV")

    sub = commands.add_parser("sumlem", help="closed form of a multinomial-coefficient sum")
    sub.add_argument("--poly", default="1", help="polynomial in k1..kd, e.g. '2*k1^2*k2 - 1/3'")
    sub.add_argument("--e", default=None, help="comma-separated shift vector")
    sub.add_argument("--d", type=int, required=True)
    sub.add_argument("--terms", type=int, default=0, help="also expand this many series terms")

    sub = commands.add_parser("reconstruct", help="rational function from series coefficients")
    sub.add_argument("--max-den", type=int, required=True, dest="max_den")
    sub.add_argument("--coeffs", default=None,
                     help="comma-separated rationals; otherwise a JSON array is read from stdin")

    commands.add_parser("verify", help="run the acceptance suite")

    return parser


def run_command(args) -> int:
    fmt = args.format

    if args.command == "char-table":
        table = character_table(args.p)
        if args.csv:
            sys.stdout.write(table.to_csv())
            return EXIT_OK
        payload = {
            "p": table.p,
            "labels": [list(lam) for lam in table.labels],
            "values": [list(row) for row in table.values],
        }
        _emit(payload, fmt)
        return EXIT_OK

    if args.command == "kronecker":
        value = kronecker_coefficient(
            parse_partition(args.lam), parse_partition(args.mu), parse_partition(args.nu)
        )
        _emit({"coefficient": value}, fmt)
        return EXIT_OK

    if args.command == "lr":
        value = lr_coefficient(
            parse_partition(args.lam), parse_partition(args.mu), parse_partition(args.nu)
        )
        _emit({"coefficient": value}, fmt)
        return EXIT_OK

    if args.command == "boxtimes":
        product = boxtimes(
            SymFunc.basis(parse_partition(args.lam)), SymFunc.basis(parse_partition(args.mu))
        )
        _emit(sym_to_json(product), fmt)
        return EXIT_OK

    if args.command == "prime":
        _emit(sym_to_json(power_sum(parse_partition(args.lam))), fmt)
        return EXIT_OK

    if args.command == "euler-chi":
        series = euler_chi(args.k, _policy(args))
        _emit({"terms": series_to_json(series)}, fmt)
        return EXIT_OK

    if args.command == "f-segre":
        series = f_segre(args.p, _policy(args))
        if args.star:
            series = order_normalize(series)
        _emit({"terms": series_to_json(series)}, fmt)
        return EXIT_OK

    if args.command == "lascoux":
        series = lascoux_leading(args.p, args.d)
        _emit({"terms": series_to_json(series)}, fmt)
        return EXIT_OK

    if args.command == "koszul":
        if args.cosocle and args.weights:
            raise ValueError("--weights lists the homology's weights; it cannot go with --cosocle")
        dims = parse_ints(args.dims, "dims")
        capacity = _capacity()
        if args.cosocle:
            dim, decomposition = new_syzygy_dimension(dims, args.p, args.d, capacity)
            payload = {
                "p": args.p,
                "d": args.d,
                "dims": list(dims),
                "new_dimension": dim,
                "decomposition": decomposition_json(decomposition),
            }
            _emit(payload, fmt)
            return EXIT_OK
        report = koszul_homology(dims, args.p, args.d, capacity)
        payload = report.to_json()
        _emit(payload, fmt)
        if args.weights:
            sys.stdout.write(report.weights_csv())
        return EXIT_OK

    if args.command == "sumlem":
        d = args.d
        e = parse_ints(args.e, "shift") if args.e else (0,) * d
        poly = parse_poly(args.poly, d)
        rf = multinomial_sum_rational(poly, e, d)
        payload = rf.to_json()
        if args.terms:
            payload["series"] = [str(c) for c in rf.coefficients(args.terms)]
        _emit(payload, fmt)
        return EXIT_OK

    if args.command == "reconstruct":
        if args.coeffs is not None:
            coeffs = [parse_rational(x) for x in args.coeffs.split(",")]
        else:
            data = json.load(sys.stdin)
            if not isinstance(data, list):
                raise ValueError("stdin must hold a JSON array of coefficients")
            coeffs = [parse_rational(str(x)) for x in data]
        rf = rational_reconstruct(coeffs, args.max_den)
        if rf is None:
            _emit({"found": False}, fmt)
            return EXIT_FAIL
        payload = rf.to_json()
        payload["found"] = True
        _emit(payload, fmt)
        return EXIT_OK

    if args.command == "verify":
        results = run_all()
        for result in results:
            print(result.line())
        ok = all(r.passed and r.in_budget for r in results)
        return EXIT_OK if ok else EXIT_FAIL

    raise AssertionError(f"unhandled command {args.command}")


def _join_dashed_values(parser: argparse.ArgumentParser, argv) -> list[str]:
    """argv with each value that starts with a single "-" joined to its option
    as --opt=value: argparse takes such a token, "-3,-4" say, for an option."""
    parsers, takes_value, out = [parser], set(), []
    for p in parsers:
        for action in p._actions:
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
            elif action.nargs is None:
                takes_value.update(action.option_strings)
    for token in argv:
        if out and out[-1] in takes_value and token[:1] == "-" and token[:2] != "--":
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_dashed_values(parser, sys.argv[1:] if argv is None else argv))
    try:
        return run_command(args)
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except UnsupportedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except ConsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
