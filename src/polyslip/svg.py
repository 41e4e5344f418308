"""Minimal deterministic SVG emission (y-up coordinates)."""

from __future__ import annotations


def _fmt(x: float) -> str:
    return f"{x:.6g}"


class SvgCanvas:
    """Collects shapes in mathematical (y-up) coordinates.

    The viewBox is fixed at construction; the y axis is flipped once for
    the whole document so callers never deal with screen coordinates.
    Output is a pure function of the calls made, byte-for-byte.
    """

    def __init__(self, xmin: float, ymin: float, xmax: float, ymax: float,
                 width: int = 640):
        self.xmin, self.ymin, self.xmax, self.ymax = xmin, ymin, xmax, ymax
        self.width = width
        self.height = max(1, round(width * (ymax - ymin) / (xmax - xmin)))
        self._body: list[str] = []

    def polygon(self, points, fill: str = "none", stroke: str = "black",
                stroke_width: float = 0.01, opacity: float = 1.0) -> None:
        pts = " ".join(f"{_fmt(float(x))},{_fmt(float(y))}" for x, y in points)
        self._body.append(
            f'<polygon points="{pts}" fill="{fill}" fill-opacity="{_fmt(opacity)}" '
            f'stroke="{stroke}" stroke-width="{_fmt(stroke_width)}"/>')

    def polyline(self, points, stroke: str = "black", stroke_width: float = 0.01) -> None:
        pts = " ".join(f"{_fmt(float(x))},{_fmt(float(y))}" for x, y in points)
        self._body.append(
            f'<polyline points="{pts}" fill="none" stroke="{stroke}" '
            f'stroke-width="{_fmt(stroke_width)}"/>')

    def render(self) -> str:
        vb = (f"{_fmt(self.xmin)} {_fmt(-self.ymax)} "
              f"{_fmt(self.xmax - self.xmin)} {_fmt(self.ymax - self.ymin)}")
        head = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}" '
                f'height="{self.height}" viewBox="{vb}">\n'
                f'<g transform="scale(1,-1)">\n')
        return head + "\n".join(self._body) + "\n</g>\n</svg>\n"
