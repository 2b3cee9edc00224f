"""Chain-code words on the square grid.

Paths are written over the alphabet 0123 (right, up, left, down).  The
package analyzes such words (closure, self-intersection, turning number),
decides digital convexity, factors boundaries for tilings by translation,
and ships a small CLI plus an SVG renderer.
"""

from .chain import (
    ALPHABET,
    STEPS,
    TurningNumber,
    canonical_rotation,
    delta,
    delta_circular,
    hat,
    is_closed,
    is_simple,
    least_rotation,
    orient_ccw,
    reduce,
    reflect,
    rotate,
    salient_reentrant,
    trace,
    turning_number,
)
from .chainfile import (
    ChainFileError,
    ChainRecord,
    parse_chain_file,
    serialize_chain_file,
)
from .convexity import (
    ExtremalSplit,
    decide_convexity,
    is_digitally_convex,
    is_nw_convex,
    split_extremal,
)
from .generate import gen_random_polyomino
from .lyndon import (
    christoffel,
    format_factorization,
    is_christoffel,
    is_lyndon,
    lyndon_factorize,
)
from .polyomino import boundary_word, enclosed_cells
from .quadgraph import (
    QuadGraph,
    detect_first_intersection,
    father_point,
    sibling_condition,
)
from .render import render_svg
from .tiling import (
    BNFactorization,
    TileClass,
    bn_factorizations,
    classify,
    square_count,
)

__version__ = "0.1.0"

__all__ = [
    "ALPHABET",
    "STEPS",
    "BNFactorization",
    "ChainFileError",
    "ChainRecord",
    "ExtremalSplit",
    "QuadGraph",
    "TileClass",
    "TurningNumber",
    "bn_factorizations",
    "boundary_word",
    "canonical_rotation",
    "christoffel",
    "classify",
    "decide_convexity",
    "delta",
    "delta_circular",
    "detect_first_intersection",
    "enclosed_cells",
    "father_point",
    "format_factorization",
    "gen_random_polyomino",
    "hat",
    "is_christoffel",
    "is_closed",
    "is_digitally_convex",
    "is_lyndon",
    "is_nw_convex",
    "is_simple",
    "least_rotation",
    "lyndon_factorize",
    "orient_ccw",
    "parse_chain_file",
    "reduce",
    "reflect",
    "render_svg",
    "rotate",
    "salient_reentrant",
    "serialize_chain_file",
    "sibling_condition",
    "split_extremal",
    "square_count",
    "trace",
    "turning_number",
]
