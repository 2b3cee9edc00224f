"""Command-line front end.

Record commands (analyze, intersect, convex, tile, render) accept literal
chain words, chain-file paths, or `-` for a chain file on stdin.  Reports
are line-oriented key=value text or JSON with --format machine.  Exit
codes: 0 success, 1 failed --check, 2 input errors.
"""

import argparse
import json
import os
import sys

from .chain import (
    delta,
    is_closed,
    is_simple,
    salient_reentrant,
    trace,
    turning_number,
)
from .chainfile import ChainRecord, parse_chain_file
from .convexity import decide_convexity
from .generate import gen_random_polyomino
from .lyndon import christoffel, format_factorization, lyndon_factorize
from .quadgraph import detect_first_intersection
from .render import render_svg
from .tiling import bn_factorizations


def _collect_records(inputs):
    records = []
    for item in inputs:
        if item == "-":
            records.extend(parse_chain_file(sys.stdin.read()).records)
        elif not item.strip("0123"):
            records.append(ChainRecord(item))
        elif os.path.exists(item):
            with open(item, "rb") as fh:
                records.extend(parse_chain_file(fh.read()).records)
        else:
            raise ValueError(f"not a chain word or readable file: {item!r}")
    return records


def _fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(str(v) for v in value) + ")"
    return str(value)


def _kv_line(report):
    return " ".join(f"{k}={_fmt(v)}" for k, v in report.items())


def _named(rec):
    report = {}
    if rec.name is not None:
        report["name"] = rec.name
    report["word"] = rec.word
    return report


def _print_lines(reports):
    for report in reports:
        print(_kv_line(report))


def _emit(reports, args, to_text=_print_lines):
    if args.format == "machine":
        print(json.dumps(reports))
    else:
        to_text(reports)


def cmd_analyze(args):
    reports = []
    for rec in _collect_records(args.input):
        w = rec.word
        report = _named(rec)
        closed = is_closed(w)
        report["closed"] = closed
        report["simple"] = is_simple(w)
        report["T"] = str(turning_number(w, circular=closed))
        if closed and report["simple"] and report["T"] in ("1", "-1"):
            report["S"], report["R"] = salient_reentrant(w)
        reports.append(report)
    _emit(reports, args)
    failed = any(not (r["closed"] and r["simple"]) for r in reports)
    return 1 if args.check and failed else 0


def cmd_intersect(args):
    reports = []
    for rec in _collect_records(args.input):
        w = rec.word
        report = _named(rec)
        hit = detect_first_intersection(w)
        report["intersects"] = hit is not None
        if hit is not None:
            report["index"], report["point"] = hit
        report["simple"] = hit is None or (hit[0] == len(w) and is_closed(w))
        reports.append(report)
    _emit(reports, args)
    return 1 if args.check and any(not r["simple"] for r in reports) else 0


def cmd_convex(args):
    reports = []
    for rec in _collect_records(args.input):
        report = _named(rec)
        split, arc_factors, convex = decide_convexity(rec.word)
        report["convex"] = convex
        report["arcs"] = split.arcs
        for i, factors in enumerate(arc_factors):
            report[f"factors{i + 1}"] = ",".join(f"({f})^{n}" for f, n in factors)
        reports.append(report)
    _emit(reports, args)
    return 1 if args.check and any(not r["convex"] for r in reports) else 0


def cmd_tile(args):
    reports = []
    for rec in _collect_records(args.input):
        report = _named(rec)
        facts = bn_factorizations(rec.word)
        squares = sum(f.is_square for f in facts)
        if not facts:
            report["class"] = "not-exact"
        else:
            report["class"] = "square" if squares else "hexagon"
        report["squares"] = squares
        report["factorizations"] = [
            {"cuts": list(f.cuts), "X": f.blocks[0], "Y": f.blocks[1], "Z": f.blocks[2]}
            for f in facts
        ]
        reports.append(report)

    def to_text(rs):
        for k, r in enumerate(rs):
            if k:
                print()
            head = {key: r[key] for key in r if key != "factorizations"}
            head["factorizations"] = len(r["factorizations"])
            print(_kv_line(head))
            for f in r["factorizations"]:
                print(
                    f"cuts={_fmt(f['cuts'])} X={f['X']} Y={f['Y']} Z={f['Z']}"
                )

    _emit(reports, args, to_text)
    failed = any(r["class"] == "not-exact" for r in reports)
    return 1 if args.check and failed else 0


def cmd_lyndon(args):
    factors = lyndon_factorize(args.word)
    if args.format == "machine":
        print(json.dumps({"word": args.word, "factors": factors}))
    else:
        print(format_factorization(factors))
    return 0


def cmd_christoffel(args):
    word = christoffel(args.a, args.b)
    if args.format == "machine":
        print(json.dumps({"a": args.a, "b": args.b, "word": word}))
    else:
        print(word)
    return 0


def cmd_render(args):
    records = _collect_records(args.input)
    if len(records) != 1:
        raise ValueError("render expects exactly one word")
    rec = records[0]
    labels = None
    if args.labels == "letters":
        labels = list(rec.word)
    elif args.labels == "delta" and rec.word:
        labels = [None] + list(delta(rec.word))
    svg = render_svg(trace(rec.word, rec.start or (0, 0)), labels=labels)
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(svg + "\n")
    else:
        print(svg)
    return 0


def cmd_gen(args):
    words = [
        str(gen_random_polyomino(args.cells, args.seed + k)) for k in range(args.count)
    ]
    if args.format == "machine":
        print(json.dumps({"words": words}))
    else:
        for w in words:
            print(w)
    return 0


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--check", action="store_true", help="exit 1 on any false analysis result"
    )
    common.add_argument(
        "--format", choices=("text", "machine"), default="text",
        help="report style: key=value lines or JSON",
    )
    parser = argparse.ArgumentParser(
        prog="gridwords", description="Chain-code word analysis on the square grid."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def record_command(name, func, help_text):
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.add_argument("input", nargs="+", help="chain word, chain file, or -")
        p.set_defaults(func=func)
        return p

    record_command("analyze", cmd_analyze, "closedness, simplicity, turning, corners")
    record_command("intersect", cmd_intersect, "first self-intersection of the path")
    record_command("convex", cmd_convex, "digital convexity and arc factorizations")
    record_command("tile", cmd_tile, "tiling class and boundary factorizations")

    p = sub.add_parser("lyndon", parents=[common], help="Lyndon factorization of a raw word")
    p.add_argument("word")
    p.set_defaults(func=cmd_lyndon)

    p = sub.add_parser("christoffel", parents=[common], help="lower Christoffel word")
    p.add_argument("a", type=int, help="number of 0s")
    p.add_argument("b", type=int, help="number of 1s")
    p.set_defaults(func=cmd_christoffel)

    p = record_command("render", cmd_render, "SVG drawing of a path")
    p.add_argument("--svg", metavar="PATH", help="write the SVG here instead of stdout")
    p.add_argument("--labels", choices=("letters", "delta"), help="per-edge labels")

    p = sub.add_parser("gen", parents=[common], help="random polyomino boundary words")
    p.add_argument("--cells", type=int, default=10, help="cell count (default 10)")
    p.add_argument("--count", type=int, default=1, help="how many words (default 1)")
    p.add_argument("--seed", type=int, default=0, help="base random seed (default 0)")
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
