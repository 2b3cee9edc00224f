"""The benchmark's workloads: inputs built from a seed, one operation, checks.

Each workload is a list of inputs that the runner cycles through in order,
one operation per input, in one thread with a closed loop.  `run` is the
timed operation; `outcome`, `letters`, `check` and the probes run outside
the timed region.  Every library call goes through a module attribute
(`gridwords.x`, `gridwords.cli.main`) so that the traced run's wrappers,
installed on those attributes, see it.
"""

import contextlib
import os
import random
from dataclasses import dataclass

import gridwords
import gridwords.cli

import reference as ref


def _van_der_corput(i):
    r, f = 0.0, 0.5
    while i:
        r += f * (i & 1)
        i >>= 1
        f /= 2
    return r


def _interleave(*groups):
    """One round from groups of inputs, each sorted by size.

    Each group is taken in van der Corput order and the groups are merged
    in proportion, so any prefix of the round holds a spread of sizes and
    kinds.
    """
    keyed = []
    for g, group in enumerate(groups):
        order = sorted(range(len(group)), key=_van_der_corput)
        keyed += [(rank / len(group), g, group[i]) for rank, i in enumerate(order)]
    keyed.sort(key=lambda t: t[:2])
    return [item for _, _, item in keyed]


def _strata(lo, hi, count, rng=None):
    """One value per equal slice of [lo, hi): its midpoint, or a random
    point in it when `rng` is given."""
    return [lo + (hi - lo) * (i + (rng.random() if rng else 0.5)) / count
            for i in range(count)]


class _Workload:
    """Defaults for a workload whose op returns its outcome directly."""

    fresh_heap = False  # collect garbage before each op, outside the timing
    probe_words = None  # words for the detection probes; None: the outcomes'

    def outcome(self, raw):
        return raw

    def output_bytes(self, outcome):
        return 0


class _Sink:
    """Stands in for stdout: keeps what the CLI writes, without copying it."""

    def __init__(self):
        self.chunks = []

    def write(self, text):
        self.chunks.append(text)
        return len(text)

    def flush(self):
        pass


# -- walk ---------------------------------------------------------------------

# Three kinds of word at 2^18 and 2^20 letters, one command per word, so
# that a round stays short enough to repeat.  Each command meets both sizes
# and all three kinds, and `analyze` meets a closed word, whose second walk
# (in `salient_reentrant`) it then pays for.
WALK_COMMANDS = {
    ("serpentine", 1 << 18): "analyze", ("serpentine", 1 << 20): "intersect",
    ("comb", 1 << 18): "analyze", ("comb", 1 << 20): "intersect",
    ("revisit", 1 << 18): "intersect", ("revisit", 1 << 20): "analyze",
}
# Fixed, unlike the serpentine widths: `analyze` walks a closed word twice,
# and whether the cyclic GC frees the first quadtree before the second
# peaks depends on exact node counts.  With a seeded height the process
# peak jumped between about 270 and 350 MB from seed to seed.
COMB_HEIGHT = 480


def serpentine(n, width):
    """Open boustrophedon path of n letters with rows `width` steps wide."""
    row = "0" * width + "1" + "2" * width + "1"
    return (row * (n // len(row) + 1))[:n]


def comb(n, height):
    """Closed simple path of n letters: teeth `height` tall over a base bar."""
    tooth = "1" * height + "0" + "3" * height + "0"
    m = (n - 2) // len(tooth)
    depth = 1 + (n - 2 - m * len(tooth)) // 2
    return tooth * m + "3" * depth + "2" * (2 * m) + "1" * depth


def revisit(n, width, back):
    """Serpentine whose first revisit is planted about `back` letters from
    the end: a step down from the middle of a row into the row below."""
    head = serpentine(n - back, width)
    if head[-1] == "1":  # stepping straight back down would cancel, not cross
        head = head[:-1]
    return head + "3" * (n - len(head))


@dataclass(frozen=True)
class WalkInput:
    command: str
    name: str
    path: str
    word: str


class Walk(_Workload):
    """One CLI call (`analyze` or `intersect`) on one chain file per op.

    The quadtree of a walk is cyclic garbage once the call returns; the
    runner collects it between ops, outside the timed region, because a
    CLI user's process exits instead of paying for that collection.
    """

    name = "walk"
    fresh_heap = True

    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        self.inputs = []
        for (kind, size), command in WALK_COMMANDS.items():
            width = rng.randrange(448, 577)
            if kind == "serpentine":
                word = serpentine(size, width)
            elif kind == "comb":
                word = comb(size, COMB_HEIGHT)
            else:
                word = revisit(size, width, rng.randrange(1, 1025))
            name = f"{kind}{size.bit_length() - 1}"
            path = os.path.join(workdir, name + ".chain")
            with open(path, "w", encoding="ascii") as fh:
                fh.write(f"{name}: {word}\n")
            self.inputs.append(WalkInput(command, name, path, word))
        self.probe_words = [inp.word for inp in self.inputs if inp.name.startswith("serpentine")]
        self._revisits = {}

    def run(self, inp):
        sink = _Sink()
        with contextlib.redirect_stdout(sink):
            code = gridwords.cli.main([inp.command, inp.path])
        return code, sink.chunks

    def outcome(self, raw):
        code, chunks = raw
        return code, "".join(chunks)

    def letters(self, inp, outcome):
        return len(inp.word)

    def output_bytes(self, outcome):
        return len(outcome[1])

    def category(self, inp):
        return f"{inp.command}-{inp.name}"

    def check(self, inp, outcome):
        code, text = outcome
        if code != 0:
            return f"exit code {code}"
        lines = text.split("\n")
        if len(lines) != 2 or lines[1]:
            return f"expected one report line, got {len(lines) - 1}"
        got = dict(field.split("=", 1) for field in lines[0].split(" "))
        want = self._expected(inp)
        if got != want:
            bad = sorted(k for k in got.keys() | want.keys() if got.get(k) != want.get(k))
            return "fields differ: " + ", ".join(
                f"{k}={str(got.get(k))[:40]} want {str(want.get(k))[:40]}" for k in bad
            )
        return None

    def _expected(self, inp):
        w = inp.word
        if w not in self._revisits:
            self._revisits[w] = ref.first_revisit(w)
        hit = self._revisits[w]
        closed = ref.is_closed(w)
        simple = hit is None or (hit[0] == len(w) and closed)
        flag = {True: "true", False: "false"}
        want = {"name": inp.name, "word": w}
        if inp.command == "intersect":
            want["intersects"] = flag[hit is not None]
            if hit is not None:
                want["index"] = str(hit[0])
                want["point"] = "({},{})".format(*hit[1])
            want["simple"] = flag[simple]
            return want
        want["closed"] = flag[closed]
        want["simple"] = flag[simple]
        want["T"] = ref.turning_number(w, circular=closed)
        if closed and simple and want["T"] in ("1", "-1"):
            left, right = ref.turns(w, circular=True)
            want["S"], want["R"] = (
                (str(left), str(right)) if want["T"] == "1" else (str(right), str(left))
            )
        return want


# -- shapes -------------------------------------------------------------------

SHAPES_PER_KIND = 160


def ellipse_cells(rng, area):
    """Lattice points of an axis-parallel ellipse of about `area` cells.

    Exact integer arithmetic on a 1/1000 grid: the set is P intersected
    with Z^2 for a convex P, so it is digitally convex, and its rows are
    nested intervals, so it is a simply connected polyomino.
    """
    q = 1000
    ratio = 2 ** rng.uniform(-1, 1)
    a = max(1.0, (area / 3.141592653589793 / ratio) ** 0.5)
    b = max(1.0, a * ratio)
    a2, b2 = round(a * a * q * q), round(b * b * q * q)
    px, py = rng.randrange(q), rng.randrange(q)
    cells = set()
    for y in range(-int(b) - 2, int(b) + 3):
        dy2 = (q * y - py) ** 2 * a2
        for x in range(-int(a) - 2, int(a) + 3):
            if (q * x - px) ** 2 * b2 + dy2 <= a2 * b2:
                cells.add((x, y))
    return frozenset(cells)


@dataclass(frozen=True)
class ShapeInput:
    kind: str  # "polyomino" or "lattice"
    cells: object  # cell count for polyominoes, cell set for lattice shapes
    seed: int


class Shapes(_Workload):
    """Generate one shape and put it through the analyze/convex verdicts."""

    name = "shapes"

    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        polys = [
            ShapeInput("polyomino", int(c), rng.randrange(1 << 30))
            for c in _strata(1, 301, SHAPES_PER_KIND, rng)
        ]
        lattice = [
            ShapeInput("lattice", ellipse_cells(rng, area), 0)
            for area in _strata(4, 300, SHAPES_PER_KIND, rng)
        ]
        self.inputs = _interleave(polys, lattice)

    def run(self, inp):
        if inp.kind == "polyomino":
            word = str(gridwords.gen_random_polyomino(inp.cells, inp.seed))
        else:
            word = gridwords.boundary_word(inp.cells)[0]
        return (
            word,
            gridwords.is_closed(word),
            gridwords.is_simple(word),
            gridwords.turning_number(word, circular=True).quarter_turns,
            gridwords.salient_reentrant(word),
            gridwords.split_extremal(word).arcs,
            gridwords.is_digitally_convex(word),
        )

    def letters(self, inp, outcome):
        return len(outcome[0])

    def category(self, inp):
        return inp.kind

    def check(self, inp, outcome):
        word, closed, simple, quarter_turns, (s, r), arcs, convex = outcome
        if not (closed and simple and ref.is_closed(word) and ref.is_simple(word)):
            return "not reported closed and simple"
        ccw = ref.signed_area(word) > 0
        if quarter_turns != (4 if ccw else -4):
            return f"turning number {quarter_turns}/4 for a {'ccw' if ccw else 'cw'} boundary"
        left, right = ref.turns(word, circular=True)
        if s - r != 4 or s + r != left + right:
            return f"S={s} R={r} with {left + right} corners"
        oriented = word if ccw else ref.hat(word)
        joined = "".join(arcs)
        if len(joined) != len(word) or joined not in oriented + oriented:
            return "arcs do not spell the ccw boundary"
        cells = ref.enclosed_cells(oriented)
        if inp.kind == "lattice":
            x0, y0 = min(cells)
            x1, y1 = min(inp.cells)
            if {(x - x0 + x1, y - y0 + y1) for x, y in cells} != inp.cells:
                return "boundary does not enclose the lattice points"
            want = True
        else:
            if len(cells) != inp.cells:
                return f"{len(cells)} cells enclosed, {inp.cells} asked for"
            want = ref.is_digitally_convex(cells)
        if convex != want:
            return f"convex={convex}, hull check says {want}"
        return None


# -- tiles --------------------------------------------------------------------

# Squares and rectangles take most of a round's time; the many cheaper
# exact tiles and polyominoes fill in the middle of the latency range,
# where the median lies.  The median thus rests on seeded shapes: over ten
# seeds its interquartile range was 10% of its value with 24 of each random
# kind, and 6.5% with 48.
TILES_PER_SIDE_KIND = 8
TILES_PER_RANDOM_KIND = 48


def _block(rng, letters, weights, length):
    return "".join(rng.choices(letters, weights, k=length))


def exact_tile(rng, half, hexagon):
    """Simple boundary X Y Z hat(X) hat(Y) hat(Z) with |XYZ| = half, and the
    cut offsets of that factorization.  Z is empty for a square-type tile."""
    while True:
        if hexagon:
            i, j = sorted(rng.sample(range(1, half), 2))
            x = _block(rng, "01", (3, 1), i)
            y = _block(rng, "12", (6, 1), j - i)
            z = _block(rng, "12", (1, 3), half - j)
        else:
            i = rng.randrange(1, half)
            x = _block(rng, "01", (3, 1), i)
            y = _block(rng, "12", (3, 1), half - i)
            z = ""
        word = x + y + z + ref.hat(x) + ref.hat(y) + ref.hat(z)
        if ref.is_simple(word):
            a, b = len(x), len(x) + len(y)
            return word, {0, a, b, half, half + a, half + b}


@dataclass(frozen=True)
class TileInput:
    kind: str  # "square", "rectangle", "exact" or "polyomino"
    word: str
    cuts: tuple  # a factorization the word is built with, on its least rotation


def _tile_input(kind, word, cuts, clockwise):
    """Orient the word, and move its planted cuts to its least rotation."""
    n = len(word)
    if clockwise:
        word = ref.hat(word)
        cuts = {(n - c) % n for c in cuts}
    if cuts:
        k = ref.least_rotation_index(word)
        cuts = tuple(sorted({(c - k) % n for c in cuts}))
    return TileInput(kind, word, tuple(cuts))


class Tiles(_Workload):
    """One `bn_factorizations` search per op."""

    name = "tiles"

    def __init__(self, seed, workdir):
        # Sizes are fixed and only the exact tiles and polyominoes are drawn
        # from the seed: search time grows as n^2.5 or faster, so seeded
        # sizes moved the per-run figures more than the machine did.
        rng = random.Random(seed)
        kinds = {"square": [], "rectangle": [], "exact": [], "polyomino": []}
        for j in range(1, TILES_PER_SIDE_KIND + 1):
            cw = j % 2 == 0
            # Spaced so that the slowest tenth of a round is mostly squares
            # and rectangles (over 220 letters), beside the largest
            # polyominoes.
            scale = (j / TILES_PER_SIDE_KIND) ** 0.75
            k = round(96 * scale)
            kinds["square"].append(_tile_input(
                "square", "0" * k + "1" * k + "2" * k + "3" * k, {0, k, 2 * k, 3 * k}, cw))
            s = round(192 * scale)
            a = s * (j % 3 + 1) // 5  # aspect 1:4, 2:3 or 3:2
            b = s - a
            kinds["rectangle"].append(_tile_input(
                "rectangle", "0" * a + "1" * b + "2" * a + "3" * b, {0, a, s, s + a}, cw))
        for j, half in enumerate(_strata(20, 200, TILES_PER_RANDOM_KIND)):
            word, cuts = exact_tile(rng, int(half), hexagon=j % 4 < 2)
            kinds["exact"].append(_tile_input("exact", word, cuts, j % 2 == 1))
        for j, cells in enumerate(_strata(100, 3001, TILES_PER_RANDOM_KIND)):
            word = str(gridwords.gen_random_polyomino(int(cells), rng.randrange(1 << 30)))
            kinds["polyomino"].append(_tile_input("polyomino", word, (), j % 2 == 1))
        self.inputs = _interleave(*kinds.values())
        self.probe_words = [t.word for t in self.inputs]

    def run(self, inp):
        return gridwords.bn_factorizations(inp.word)

    def outcome(self, raw):
        return tuple((f.cuts, f.blocks) for f in raw)

    def letters(self, inp, outcome):
        return len(inp.word)

    def category(self, inp):
        return inp.kind

    def check(self, inp, outcome):
        w = inp.word
        n, h = len(w), len(w) // 2
        k = ref.least_rotation_index(w)
        least = w[k:] + w[:k]
        for cuts, (x, y, z) in outcome:
            m = cuts[0]
            if x + y + z + ref.hat(x) + ref.hat(y) + ref.hat(z) != least[m:] + least[:m]:
                return f"factorization at {cuts} does not rebuild the word"
            offsets = {0, len(x), len(x) + len(y), h, h + len(x), h + len(x) + len(y)}
            if tuple(sorted({(m + o) % n for o in offsets})) != cuts:
                return f"cuts {cuts} do not match the block lengths"
        if inp.cuts and inp.cuts not in {cuts for cuts, _ in outcome}:
            return f"planted cuts {inp.cuts} not found among {len(outcome)}"
        return None


WORKLOADS = {w.name: w for w in (Walk, Shapes, Tiles)}
