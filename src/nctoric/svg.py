"""Deterministic static SVG rendering of 2D polytopes and fans.

Floats appear here and only here, for drawing coordinates; the exact data
is embedded verbatim in an XML comment so nothing is lost in the picture.
"""

from __future__ import annotations

import json

from .errors import OutOfRange, WrongDimension
from .fan import Fan, fan_to_json
from .polytope import SimplePolytope, to_json as polytope_to_json

VIEW = 400.0
MARGIN = 40.0
#: largest coordinate drawn, in absolute value: the spans and ray lengths
#: computed from coordinates up to it stay within the float range
DRAW_LIMIT = 1e300


def _fmt(x: float) -> str:
    return f"{x:.4f}"


def _floats(vectors) -> list:
    """(x, y) floats of 2D vectors, for drawing only; OutOfRange when a
    coordinate exceeds DRAW_LIMIT in absolute value."""
    try:
        pts = [(float(v[0]), float(v[1])) for v in vectors]
        if all(abs(c) <= DRAW_LIMIT for p in pts for c in p):
            return pts
    except OverflowError:  # a rational beyond the float range
        pass
    raise OutOfRange(f"coordinates beyond {DRAW_LIMIT:g} in absolute value "
                     "cannot be drawn")


def _viewport(points):
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    lo_x, hi_x = min(xs), max(xs)
    lo_y, hi_y = min(ys), max(ys)
    span = max(hi_x - lo_x, hi_y - lo_y, 1e-9)
    scale = (VIEW - 2 * MARGIN) / span

    def to_screen(p):
        return (MARGIN + (p[0] - lo_x) * scale,
                VIEW - MARGIN - (p[1] - lo_y) * scale)

    return to_screen


def _document(body, exact_comment: str) -> str:
    comment = exact_comment.replace("--", "- -")
    return (f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'width="{int(VIEW)}" height="{int(VIEW)}" '
            f'viewBox="0 0 {int(VIEW)} {int(VIEW)}">\n'
            f"<!-- exact data: {comment} -->\n"
            + body + "</svg>\n")


def polytope_svg(P: SimplePolytope) -> str:
    """Filled outline of a 2D polytope with vertex dots."""
    if P.dim != 2:
        raise WrongDimension("SVG rendering is for 2D polytopes")
    pts = _floats(P.vertices)
    to_screen = _viewport(pts)
    # order the outline by angle about the centroid
    import math
    cx = sum(p[0] for p in pts) / len(pts)
    cy = sum(p[1] for p in pts) / len(pts)
    ordered = sorted(pts, key=lambda p: math.atan2(p[1] - cy, p[0] - cx))
    path = " ".join(f"{_fmt(to_screen(p)[0])},{_fmt(to_screen(p)[1])}"
                    for p in ordered)
    body = (f'<polygon points="{path}" fill="#cfe2ff" stroke="#1f3a6e" '
            f'stroke-width="1.5"/>\n')
    for p in sorted(pts):
        sx, sy = to_screen(p)
        body += (f'<circle cx="{_fmt(sx)}" cy="{_fmt(sy)}" r="3" '
                 f'fill="#1f3a6e"/>\n')
    return _document(body, json.dumps(polytope_to_json(P), sort_keys=True))


def fan_svg(F: Fan) -> str:
    """Rays of a 2D fan drawn from the origin, sorted for determinism."""
    if F.ambient_dim != 2:
        raise WrongDimension("SVG rendering is for 2D fans")
    rays = _floats(F.rays)
    import math
    pts = [(0.0, 0.0)]
    for x, y in rays:
        n = math.hypot(x, y) or 1.0
        pts.append((x / n, y / n))
    to_screen = _viewport(pts + [(-1.0, -1.0), (1.0, 1.0)])
    ox, oy = to_screen((0.0, 0.0))
    body = ""
    for x, y in sorted(pts[1:]):
        sx, sy = to_screen((x, y))
        body += (f'<line x1="{_fmt(ox)}" y1="{_fmt(oy)}" x2="{_fmt(sx)}" '
                 f'y2="{_fmt(sy)}" stroke="#1f3a6e" stroke-width="1.5"/>\n')
    body += f'<circle cx="{_fmt(ox)}" cy="{_fmt(oy)}" r="3" fill="#1f3a6e"/>\n'
    return _document(body, json.dumps(fan_to_json(F), sort_keys=True))
