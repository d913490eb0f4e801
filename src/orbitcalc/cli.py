"""Command-line front end.

Each subcommand is a handler whose ``_command`` decorator declares its name,
help line and arguments; the handler returns a JSON object, a text and an
exit code, and :func:`main` prints the object (with ``--json``) or the text.

Exit codes: 0 on success, 1 when a verification sweep finds failures,
2 on input errors, 3 on internal errors (one ``internal error:`` line on
stderr, no traceback), 130 when interrupted (one ``interrupted`` line on
stderr).  ``--json`` prints one JSON object per line with a stable key
order.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable

from .duality import dual_partition
from .partitions import GroupType, collapse, parse_int, parse_partition, transpose
from .waldspurger import PairType, waldspurger, xi_vector


_Result = tuple[dict, str, int]

COMMANDS: dict[str, tuple[str, tuple, Callable[..., _Result]]] = {}


def _arg(*flags: str, **options: object) -> tuple[tuple[str, ...], dict]:
    """One argument, as ``add_argument(*flags, **options)`` takes it."""
    return flags, options


def _command(name: str, help: str, *arguments: tuple) -> Callable:
    """Decorator registering its handler as the subcommand ``name``."""

    def register(handler: Callable[..., _Result]) -> Callable:
        COMMANDS[name] = (help, arguments, handler)
        return handler

    return register


def _int_option(token: str) -> int:
    """An integer option, read by the ASCII-digit rule of
    :func:`~orbitcalc.partitions.parse_int`; argparse reports a rejected
    token as it does for ``type=int``."""
    try:
        return parse_int(token.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {token!r}") from None


_PARTITION = _arg("partition")
_TYPE = _arg("--type", required=True, choices=[t.value for t in GroupType])


@_command("transpose", "transpose a partition", _PARTITION)
def _cmd_transpose(args: argparse.Namespace) -> _Result:
    lam = parse_partition(args.partition)
    result = transpose(lam)
    return {"input": list(lam), "output": list(result)}, str(result), 0


@_command("dual", "duality map", _TYPE, _PARTITION)
def _cmd_dual(args: argparse.Namespace) -> _Result:
    lam = parse_partition(args.partition)
    t = GroupType(args.type)
    result = dual_partition(lam, t)
    obj = {
        "input": list(lam),
        "input_type": str(t),
        "output": list(result),
        "output_type": str(t.dual),
        "special": True,
    }
    return obj, f"{result} (type {t.dual})", 0


@_command("collapse", "B/C/D collapse", _TYPE, _PARTITION)
def _cmd_collapse(args: argparse.Namespace) -> _Result:
    lam = parse_partition(args.partition)
    t = GroupType(args.type)
    result = collapse(lam, t)
    obj = {"input": list(lam), "type": str(t), "output": list(result)}
    return obj, str(result), 0


@_command("waldspurger", "endoscopic transfer map",
          _arg("--pair", required=True, choices=[p.value for p in PairType]),
          _arg("partition1"), _arg("partition2"),
          _arg("--closure", action="store_true",
               help="also print the smallest special partition above the image"))
def _cmd_waldspurger(args: argparse.Namespace) -> _Result:
    pair = PairType(args.pair)
    l1 = parse_partition(args.partition1)
    l2 = parse_partition(args.partition2)
    w = waldspurger(l1, l2, pair)
    xi = xi_vector(l1, l2, pair)
    obj = {
        "pair": str(pair),
        "input1": list(l1),
        "input2": list(l2),
        "w": list(w),
        "xi": list(xi.entries),
        "j_plus": list(xi.j_plus),
        "j_minus": list(xi.j_minus),
    }
    lines = [
        f"W: {w}",
        "xi: " + ",".join(str(v) for v in xi.entries),
        "J+: " + ",".join(str(v) for v in xi.j_plus),
        "J-: " + ",".join(str(v) for v in xi.j_minus),
    ]
    if args.closure:
        from .symbols import special_closure

        closure = special_closure(l1, l2, pair)
        obj["closure"] = list(closure)
        lines.append(f"closure: {closure}")
    return obj, "\n".join(lines), 0


@_command("symbol", "symbol of a bipartition", _TYPE,
          _arg("bipartition", help='rows as "alpha|beta", e.g. "0,1|1"'))
def _cmd_symbol(args: argparse.Namespace) -> _Result:
    from .symbols import (
        is_special_symbol,
        parse_bipartition,
        partition_of_special_symbol,
        symbol_of,
    )

    t = GroupType(args.type)
    rho = parse_bipartition(args.bipartition, t)
    sym = symbol_of(rho)
    special = is_special_symbol(sym)
    lam = partition_of_special_symbol(sym, t) if special else None
    obj = {
        "type": str(t),
        "alpha": list(rho.alpha),
        "beta": list(rho.beta),
        "top": list(sym.top),
        "bottom": list(sym.bottom),
        "special": special,
        "partition": list(lam) if lam is not None else None,
    }
    lines = [
        f"symbol: {sym}",
        f"special: {'yes' if special else 'no'}",
    ]
    if lam is not None:
        lines.append(f"partition: {lam}")
    return obj, "\n".join(lines), 0


@_command("springer", "bipartition of a special orbit", _TYPE, _PARTITION)
def _cmd_springer(args: argparse.Namespace) -> _Result:
    from .symbols import springer_bipartition, symbol_of

    t = GroupType(args.type)
    lam = parse_partition(args.partition)
    rho = springer_bipartition(lam, t)
    sym = symbol_of(rho)
    obj = {
        "type": str(t),
        "partition": list(lam),
        "alpha": list(rho.alpha),
        "beta": list(rho.beta),
        "top": list(sym.top),
        "bottom": list(sym.bottom),
    }
    return obj, f"bipartition: {rho}\nsymbol: {sym}", 0


@_command("wavefront", "predicted wavefront of a shape",
          _arg("--target", required=True,
               help="SOodd, Sp or SOeven (with --rank), or a group name like SO5"),
          _arg("--rank", type=_int_option),
          _arg("--shape", required=True,
               help='summands "DIMxSA*SB:T", comma-separated'),
          _arg("--dual", action="store_true", help="dualize the shape first"))
def _cmd_wavefront(args: argparse.Namespace) -> _Result:
    from .aparams import (
        AParameterShape,
        dual_shape,
        npsi_partition,
        parse_summands,
        parse_target,
        predicted_wavefront,
    )

    target, rank = parse_target(args.target, args.rank)
    shape = AParameterShape(target, rank, parse_summands(args.shape))
    if args.dual:
        shape = dual_shape(shape)
    npsi = npsi_partition(shape)
    wf = predicted_wavefront(shape)
    obj = {
        "target": shape.group_name,
        "rank": shape.rank,
        "shape": [str(s) for s in shape.summands],
        "dualized": bool(args.dual),
        "npsi": list(npsi),
        "wavefront": list(wf),
        "special": True,
    }
    return obj, f"npsi: {npsi}\nwavefront: {wf}", 0


@_command("verify", "run a property sweep", _arg("property", metavar="PROPERTY"),
          _arg("--max", type=_int_option, help="override the default bound"))
def _cmd_verify(args: argparse.Namespace) -> _Result:
    from .harness import verify

    report = verify(args.property, args.max)
    lines = [
        f"property: {report.property}",
        f"bound: {report.bound}",
        f"cases checked: {report.cases_checked}",
        f"failures: {report.info['failure_count']}",
    ]
    lines += [f"{k}: {v}" for k, v in report.info.items() if k != "failure_count"]
    lines.append(f"wall time: {report.wall_time:.3f}s")
    lines += ["counterexample: " + json.dumps(f) for f in report.failures]
    lines.append("PASS" if report.ok else "FAIL")
    return report.to_dict(), "\n".join(lines), 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbitcalc",
        description="Partition calculus for nilpotent orbits of split "
        "classical groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, arguments, handler) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="emit JSON")
        for flags, options in arguments:
            p.add_argument(*flags, **options)
        p.set_defaults(func=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        obj, text, code = args.func(args)
        print(json.dumps(obj) if args.json else text)
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
