"""Command-line front end.

Exit codes: 0 on success, 1 when a verification sweep finds failures,
2 on input errors, 3 on internal errors (one ``internal error:`` line on
stderr, no traceback).  ``--json`` prints one JSON object per line with a
stable key order.
"""

from __future__ import annotations

import argparse
import json
import sys

from .aparams import (
    AParameterShape,
    dual_shape,
    npsi_partition,
    parse_summands,
    parse_target,
    predicted_wavefront,
)
from .duality import dual
from .partitions import GroupType, collapse, parse_partition, transpose
from .symbols import (
    is_special_symbol,
    parse_bipartition,
    partition_of_special_symbol,
    special_closure,
    springer_bipartition,
    symbol_of,
)
from .harness import verify
from .waldspurger import PairType, waldspurger, xi_vector


def _emit(args: argparse.Namespace, obj: dict, text: str) -> None:
    if args.json:
        print(json.dumps(obj))
    else:
        print(text)


def _cmd_transpose(args: argparse.Namespace) -> int:
    lam = parse_partition(args.partition)
    result = transpose(lam)
    _emit(args, {"input": list(lam), "output": list(result)}, str(result))
    return 0


def _cmd_dual(args: argparse.Namespace) -> int:
    lam = parse_partition(args.partition)
    res = dual(lam, GroupType(args.type))
    _emit(
        args,
        {
            "input": list(lam),
            "input_type": str(res.input_type),
            "output": list(res.partition),
            "output_type": str(res.output_type),
            "special": True,
        },
        f"{res.partition} (type {res.output_type})",
    )
    return 0


def _cmd_collapse(args: argparse.Namespace) -> int:
    lam = parse_partition(args.partition)
    t = GroupType(args.type)
    result = collapse(lam, t)
    _emit(
        args,
        {"input": list(lam), "type": str(t), "output": list(result)},
        str(result),
    )
    return 0


def _cmd_waldspurger(args: argparse.Namespace) -> int:
    pair = PairType(args.pair)
    l1 = parse_partition(args.partition1)
    l2 = parse_partition(args.partition2)
    xi = xi_vector(l1, l2, pair)
    w = waldspurger(l1, l2, pair)
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
        closure = special_closure(l1, l2, pair)
        obj["closure"] = list(closure)
        lines.append(f"closure: {closure}")
    _emit(args, obj, "\n".join(lines))
    return 0


def _cmd_symbol(args: argparse.Namespace) -> int:
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
    _emit(args, obj, "\n".join(lines))
    return 0


def _cmd_springer(args: argparse.Namespace) -> int:
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
    _emit(args, obj, f"bipartition: {rho}\nsymbol: {sym}")
    return 0


def _cmd_wavefront(args: argparse.Namespace) -> int:
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
    _emit(args, obj, f"npsi: {npsi}\nwavefront: {wf}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    report = verify(args.property, args.max)
    if args.json:
        print(json.dumps(report.to_dict()))
    else:
        print(f"property: {report.property}")
        print(f"bound: {report.bound}")
        print(f"cases checked: {report.cases_checked}")
        print(f"failures: {report.info['failure_count']}")
        for key, value in report.info.items():
            if key != "failure_count":
                print(f"{key}: {value}")
        print(f"wall time: {report.wall_time:.3f}s")
        for failure in report.failures:
            print("counterexample: " + json.dumps(failure))
        print("PASS" if report.ok else "FAIL")
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbitcalc",
        description="Partition calculus for nilpotent orbits of split "
        "classical groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def with_json(p: argparse.ArgumentParser) -> argparse.ArgumentParser:
        p.add_argument("--json", action="store_true", help="emit JSON")
        return p

    p = with_json(sub.add_parser("transpose", help="transpose a partition"))
    p.add_argument("partition")
    p.set_defaults(func=_cmd_transpose)

    p = with_json(sub.add_parser("dual", help="duality map"))
    p.add_argument("--type", required=True, choices=["B", "C", "D"])
    p.add_argument("partition")
    p.set_defaults(func=_cmd_dual)

    p = with_json(sub.add_parser("collapse", help="B/C/D collapse"))
    p.add_argument("--type", required=True, choices=["B", "C", "D"])
    p.add_argument("partition")
    p.set_defaults(func=_cmd_collapse)

    p = with_json(sub.add_parser("waldspurger", help="endoscopic transfer map"))
    p.add_argument("--pair", required=True, choices=["BB", "CD", "DD"])
    p.add_argument("partition1")
    p.add_argument("partition2")
    p.add_argument(
        "--closure",
        action="store_true",
        help="also print the smallest special partition above the image",
    )
    p.set_defaults(func=_cmd_waldspurger)

    p = with_json(sub.add_parser("symbol", help="symbol of a bipartition"))
    p.add_argument("--type", required=True, choices=["B", "C", "D"])
    p.add_argument("bipartition", help='rows as "alpha|beta", e.g. "0,1|1"')
    p.set_defaults(func=_cmd_symbol)

    p = with_json(
        sub.add_parser("springer", help="bipartition of a special orbit")
    )
    p.add_argument("--type", required=True, choices=["B", "C", "D"])
    p.add_argument("partition")
    p.set_defaults(func=_cmd_springer)

    p = with_json(
        sub.add_parser("wavefront", help="predicted wavefront of a shape")
    )
    p.add_argument(
        "--target",
        required=True,
        help="SOodd, Sp or SOeven (with --rank), or a group name like SO5",
    )
    p.add_argument("--rank", type=int)
    p.add_argument(
        "--shape", required=True, help='summands "DIMxSA*SB:T", comma-separated'
    )
    p.add_argument(
        "--dual", action="store_true", help="dualize the shape first"
    )
    p.set_defaults(func=_cmd_wavefront)

    p = with_json(sub.add_parser("verify", help="run a property sweep"))
    p.add_argument("property", metavar="PROPERTY")
    p.add_argument("--max", type=int, help="override the default bound")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
