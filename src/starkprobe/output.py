"""Output files: spectra as CSV, JSON sidecar and SVG line plots, plain
CSV tables, the line-parameter report, and the one writer for them all.

Output is byte-deterministic: floats are written with repr-exact 17
significant digits so a re-parsed CSV reproduces the in-memory arrays
bitwise.  Only the spectrum SVG writer imports numpy; the text writers
(`csv_text`, `report_texts`, `write_texts`) take lists or arrays alike.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .detector import Spectrum


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def csv_text(header: str, *columns) -> str:
    """A CSV table: the header line, then one row per index of the equally
    long columns (lists or arrays), every value in repr-exact 17
    significant digits."""
    # an array's tolist() hands over its values as Python floats in one call
    cols = (col.tolist() if hasattr(col, "tolist") else col for col in columns)
    rows = [header]
    rows += [",".join(map(_fmt, row)) for row in zip(*cols)]
    return "\n".join(rows) + "\n"


def write_texts(out_dir: Path, texts: dict[str, str]) -> list[Path]:
    """Write each named text into out_dir, made if missing; returns the
    written paths in order."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = [out_dir/name for name in texts]
    for path, text in zip(paths, texts.values()):
        path.write_text(text)
    return paths


def report_texts(data: dict, stem: str) -> dict[str, str]:
    """A flat parameter report as `key = value` lines and as JSON, named
    {stem}.txt and {stem}.json."""
    lines = (f"{k} = {_fmt(v) if isinstance(v, float) else v}"
             for k, v in data.items())
    return {f"{stem}.txt": "\n".join(lines) + "\n",
            f"{stem}.json": json.dumps(data, indent=2, sort_keys=True,
                                       default=float) + "\n"}


def _column_names(spec: Spectrum) -> list[str]:
    cols = ["omega_p_hz", "re_s21", "im_s21", "abs_s21"]
    for key in sorted(spec.components or ()):
        cols += [f"re_{key}", f"im_{key}"]
    return cols


def spectrum_to_csv(spec: Spectrum, path: Path) -> None:
    columns = [spec.omega_p/math.tau, spec.s21.real, spec.s21.imag,
               abs(spec.s21)]
    for key in sorted(spec.components or ()):
        columns += [spec.components[key].real, spec.components[key].imag]
    path.write_text(csv_text(",".join(_column_names(spec)), *columns))


def spectrum_to_json(spec: Spectrum, path: Path) -> None:
    """The sidecar: the format tag, the CSV's column names, its number of
    points and the resolved parameters."""
    doc = {"format": "starkprobe-spectrum-v1", "columns": _column_names(spec),
           "points": int(spec.omega_p.size), "parameters": spec.meta}
    path.write_text(json.dumps(doc, indent=2, sort_keys=True, default=float)
                    + "\n")


def spectrum_to_svg(spec: Spectrum, path: Path) -> None:
    """One polyline per channel of S21 (re, im, abs) over the probe grid."""
    import numpy as np
    series = {"re": spec.s21.real, "im": spec.s21.imag,
              "abs": abs(spec.s21)}
    colors = {"re": "#1f77b4", "im": "#d62728", "abs": "#2ca02c"}
    xs = spec.omega_p
    x0, x1 = float(xs[0]), float(xs[-1])
    ys = np.concatenate(list(series.values()))
    y0, y1 = float(ys.min()), float(ys.max())
    if y1 == y0:
        y1 = y0 + 1.0
    width, height, pad = 900, 480, 40.0

    def sx(x):
        return pad + (x - x0)/(x1 - x0)*(width - 2*pad)

    def sy(y):
        return height - pad - (y - y0)/(y1 - y0)*(height - 2*pad)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>']
    for row, (ch, values) in enumerate(series.items(), start=1):
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, values))
        parts.append(f'<polyline fill="none" stroke="{colors[ch]}" '
                     f'stroke-width="1.2" points="{pts}"/>')
        parts.append(f'<text x="{pad + 12}" y="{pad + 16*row}" '
                     f'fill="{colors[ch]}" font-size="12">{ch}(S21)</text>')
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n")


def emit_spectrum(spec: Spectrum, out_dir: Path, stem: str,
                  formats: tuple[str, ...] = ("csv", "json")) -> list[Path]:
    """Write the requested formats; returns the created paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for fmt in formats:
        target = out_dir/f"{stem}.{fmt}"
        if fmt == "csv":
            spectrum_to_csv(spec, target)
        elif fmt == "json":
            spectrum_to_json(spec, target)
        elif fmt == "svg":
            spectrum_to_svg(spec, target)
        else:
            raise ValueError(f"unknown format {fmt!r}")
        written.append(target)
    return written
