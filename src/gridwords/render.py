"""Standalone SVG drawings of chain-code paths: grid dots, the path
polyline, a start marker, and optional per-edge labels.  Meant for
figure-sized words, not million-step paths.
"""

from xml.sax.saxutils import escape

SCALE = 24  # pixels per grid unit
MARGIN = 1  # grid units of blank border around the bounding box


def render_svg(vertices, labels=None):
    """SVG text for a path given by its vertices, as `trace` returns them.

    labels: optional sequence of per-edge strings (None entries skipped),
    aligned with the path's edges.
    """
    xs = [v[0] for v in vertices]
    ys = [v[1] for v in vertices]
    minx, maxx = min(xs), max(xs)
    miny, maxy = min(ys), max(ys)

    def px(x):
        return (x - minx + MARGIN) * SCALE

    def py(y):
        return (maxy - y + MARGIN) * SCALE

    width = (maxx - minx + 2 * MARGIN) * SCALE
    height = (maxy - miny + 2 * MARGIN) * SCALE
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        '<g fill="#bbbbbb">',
    ]
    for gx in range(minx, maxx + 1):
        for gy in range(miny, maxy + 1):
            parts.append(f'<circle cx="{px(gx)}" cy="{py(gy)}" r="1.5"/>')
    parts.append("</g>")
    if len(vertices) > 1:
        points = " ".join(f"{px(x)},{py(y)}" for x, y in vertices)
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="#202020" stroke-width="2"/>'
        )
    sx, sy = vertices[0]
    parts.append(f'<circle cx="{px(sx)}" cy="{py(sy)}" r="4" fill="#c03030"/>')
    if labels:
        for k, text in enumerate(labels):
            if text is None or k + 1 >= len(vertices):
                continue
            ax, ay = vertices[k]
            bx, by = vertices[k + 1]
            lx = (px(ax) + px(bx)) / 2 + 4
            ly = (py(ay) + py(by)) / 2 - 4
            parts.append(
                f'<text x="{lx}" y="{ly}" font-size="{SCALE // 2}" '
                f'font-family="monospace">{escape(str(text))}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts)
