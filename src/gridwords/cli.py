"""Command-line front end.

The four record commands (analyze, intersect, convex, tile) and render
accept literal chain words, chain-file paths, or `-` for a chain file on
stdin.  An argument made only of the letters 0123 is always a word, so a
chain file with such a name is passed with a directory part, as in `./0123`.
--check belongs to the four record commands.  --format belongs to every
command but render, which prints SVG: key=value text, or JSON with
--format machine.  christoffel and gen build at most 2^20 letters per call,
tile prints at most 2^20 block letters per word, checked after the search
and before any report is printed, and render draws words of at most 2^20
letters; the 2^20 grid-dot bound on render belongs to `render_svg`.
Exit codes: 0 success, 1 failed --check, 2 input errors.
"""

import argparse
import json
import os
import sys

from . import render
from .chain import delta, path_facts, simple_from_revisit, trace
from .chainfile import ChainRecord, parse_chain_file
from .convexity import decide_convexity
from .generate import gen_random_polyomino
from .lyndon import christoffel, format_factorization, lyndon_factorize
from .quadgraph import detect_first_intersection
from .tiling import TileClass, bn_factorizations

# Letters christoffel and gen may build in one call, and block letters tile
# may print for one word: the length of the longest walks the package is
# benchmarked on.
_MAX_LETTERS = 1 << 20


def _within(amount, limit, what, unit=""):
    """Raise the size-limit error for `what` when amount exceeds limit."""
    if amount > limit:
        raise ValueError(f"{what}; the limit is {limit}{unit}")


def _collect_records(inputs):
    records = []
    for item in inputs:
        if item == "-":
            records.extend(parse_chain_file(sys.stdin.read()))
        elif not item.strip("0123"):
            records.append(ChainRecord(item))
        elif os.path.exists(item):
            with open(item, "rb") as fh:
                records.extend(parse_chain_file(fh.read()))
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


def _print_tiles(reports):
    for k, r in enumerate(reports):
        if k:
            print()
        head = {key: r[key] for key in r if key != "factorizations"}
        head["factorizations"] = len(r["factorizations"])
        print(_kv_line(head))
        for f in r["factorizations"]:
            print(f"cuts={_fmt(f['cuts'])} X={f['X']} Y={f['Y']} Z={f['Z']}")


def _analyze(word):
    closed, simple, turning, corners = path_facts(word)
    report = {"closed": closed, "simple": simple, "T": str(turning)}
    report.update(zip("SR", corners or ()))
    return report, closed and simple


def _intersect(word):
    hit = detect_first_intersection(word)
    report = {"intersects": hit is not None}
    if hit is not None:
        report["index"], report["point"] = hit
    report["simple"] = simple = simple_from_revisit(word, hit)
    return report, simple


def _convex(word):
    split, arc_factors, convex = decide_convexity(word)
    report = {"convex": convex, "arcs": split.arcs}
    for i, factors in enumerate(arc_factors):
        report[f"factors{i + 1}"] = ",".join(f"({f})^{n}" for f, n in factors)
    return report, convex


def _tile(word):
    facts = bn_factorizations(word)
    letters = len(facts) * (len(word) // 2)
    _within(letters, _MAX_LETTERS,
            f"tile of a {len(word)}-letter word would print {letters} block letters")
    tile_class = TileClass.of(facts)
    report = {
        "class": tile_class.value,
        "squares": sum(f.is_square for f in facts),
        "factorizations": [
            {"cuts": list(f.cuts), **dict(zip("XYZ", f.blocks))} for f in facts
        ],
    }
    return report, tile_class is not TileClass.NOT_EXACT


def cmd_record(args):
    """Report args.verdict on every record; under --check, exit 1 unless
    every record passed."""
    reports, passed = [], True
    for rec in _collect_records(args.input):
        report, ok = args.verdict(rec.word)
        reports.append({**_named(rec), **report})
        passed = passed and ok
    if args.format == "machine":
        print(json.dumps(reports))
    else:
        args.to_text(reports)
    return 1 if args.check and not passed else 0


def _emit(args, payload, text):
    """Print payload as JSON under --format machine, else the text."""
    print(json.dumps(payload) if args.format == "machine" else text)
    return 0


def cmd_lyndon(args):
    factors = lyndon_factorize(args.word)
    return _emit(args, {"word": args.word, "factors": factors},
                 format_factorization(factors))


def cmd_christoffel(args):
    _within(args.a + args.b, _MAX_LETTERS,
            f"christoffel {args.a} {args.b} would build {args.a + args.b} letters")
    word = christoffel(args.a, args.b)
    return _emit(args, {"a": args.a, "b": args.b, "word": word}, word)


def cmd_render(args):
    records = _collect_records(args.input)
    if len(records) != 1:
        raise ValueError("render expects exactly one word")
    rec = records[0]
    n = len(rec.word)
    _within(n, render.MAX_DOTS, f"render of a {n}-letter word", " letters")
    labels = None
    if args.labels == "letters":
        labels = list(rec.word)
    elif args.labels == "delta" and rec.word:
        labels = [None] + list(delta(rec.word))
    svg = render.render_svg(trace(rec.word, rec.start or (0, 0)), labels=labels)
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(svg + "\n")
    else:
        print(svg)
    return 0


def cmd_gen(args):
    if args.count < 1:
        raise ValueError(f"--count must be at least 1, got {args.count}")
    # a polyomino of c cells has perimeter at most 2c + 2
    most = args.count * (2 * args.cells + 2)
    _within(most, _MAX_LETTERS,
            f"--cells {args.cells} --count {args.count} may build {most} letters")
    words = [gen_random_polyomino(args.cells, args.seed + k) for k in range(args.count)]
    return _emit(args, {"words": words}, "\n".join(words))


def _build_parser():
    check = argparse.ArgumentParser(add_help=False)
    check.add_argument(
        "--check", action="store_true", help="exit 1 on any false analysis result"
    )
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument(
        "--format", choices=("text", "machine"), default="text",
        help="report style: key=value lines or JSON",
    )
    inputs = argparse.ArgumentParser(add_help=False)
    inputs.add_argument(
        "input", nargs="+",
        help="chain word, chain file, or -; a file named only by 0123 "
        "letters needs a directory part, e.g. ./0123",
    )
    parser = argparse.ArgumentParser(
        prog="gridwords", description="Chain-code word analysis on the square grid."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text, verdict, to_text in (
        ("analyze", "closedness, simplicity, turning, corners", _analyze, _print_lines),
        ("intersect", "first self-intersection of the path", _intersect, _print_lines),
        ("convex", "digital convexity and arc factorizations", _convex, _print_lines),
        ("tile", "tiling class and boundary factorizations", _tile, _print_tiles),
    ):
        p = sub.add_parser(name, parents=[check, fmt, inputs], help=help_text)
        p.set_defaults(func=cmd_record, verdict=verdict, to_text=to_text)

    p = sub.add_parser("lyndon", parents=[fmt], help="Lyndon factorization of a raw word")
    p.add_argument("word")
    p.set_defaults(func=cmd_lyndon)

    p = sub.add_parser("christoffel", parents=[fmt], help="lower Christoffel word")
    p.add_argument("a", type=int, help="number of 0s")
    p.add_argument("b", type=int, help="number of 1s")
    p.set_defaults(func=cmd_christoffel)

    p = sub.add_parser("render", parents=[inputs], help="SVG drawing of a path")
    p.add_argument("--svg", metavar="PATH", help="write the SVG here instead of stdout")
    p.add_argument("--labels", choices=("letters", "delta"), help="per-edge labels")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("gen", parents=[fmt], help="random polyomino boundary words")
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
