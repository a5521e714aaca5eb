"""Output files: spectra as CSV, JSON sidecar and SVG line plots, plain
CSV tables, the line-parameter report, and the one writer for them all.

Output is byte-deterministic: floats are written with repr-exact 17
significant digits so a re-parsed CSV reproduces the in-memory arrays
bitwise.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .detector import Spectrum


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def csv_text(header: str, *columns) -> str:
    """A CSV table: the header line, then one row per index of the equally
    long columns, every value in repr-exact 17 significant digits."""
    rows = [header]
    rows += [",".join(map(_fmt, row)) for row in
             zip(*(np.asarray(col, dtype=float).tolist() for col in columns))]
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
               np.abs(spec.s21)]
    for key in sorted(spec.components or ()):
        columns += [spec.components[key].real, spec.components[key].imag]
    path.write_text(csv_text(",".join(_column_names(spec)), *columns))


def csv_to_spectrum(path: Path) -> Spectrum:
    """Inverse of spectrum_to_csv (base columns only)."""
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    idx = {name: i for i, name in enumerate(header)}
    omega, s21 = [], []
    for line in lines[1:]:
        cells = line.split(",")
        omega.append(float(cells[idx["omega_p_hz"]])*math.tau)
        s21.append(complex(float(cells[idx["re_s21"]]),
                           float(cells[idx["im_s21"]])))
    return Spectrum(omega_p=np.array(omega), s21=np.array(s21))


SIDECAR_SCHEMA = {
    "type": "object",
    "required": ["format", "columns", "points", "parameters"],
    "properties": {
        "format": {"type": "string"},
        "columns": {"type": "array", "items": {"type": "string"}},
        "points": {"type": "integer"},
        "parameters": {"type": "object"},
    },
}


def sidecar_dict(spec: Spectrum) -> dict:
    return {
        "format": "starkprobe-spectrum-v1",
        "columns": _column_names(spec),
        "points": int(spec.omega_p.size),
        "parameters": spec.meta,
    }


def validate_sidecar(doc: dict) -> None:
    """Minimal structural validation against SIDECAR_SCHEMA."""
    def check(node, schema, where):
        expected = schema.get("type")
        kinds = {"object": dict, "array": list, "string": str, "integer": int}
        if expected in kinds and not isinstance(node, kinds[expected]):
            raise ValueError(f"{where}: expected {expected}")
        for req in schema.get("required", ()):
            if req not in node:
                raise ValueError(f"{where}: missing key {req!r}")
        for key, sub in schema.get("properties", {}).items():
            if isinstance(node, dict) and key in node:
                check(node[key], sub, f"{where}.{key}")
        if expected == "array" and "items" in schema:
            for i, item in enumerate(node):
                check(item, schema["items"], f"{where}[{i}]")
    check(doc, SIDECAR_SCHEMA, "$")


def spectrum_to_json(spec: Spectrum, path: Path) -> None:
    doc = sidecar_dict(spec)
    validate_sidecar(doc)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True, default=float)
                    + "\n")


def spectrum_to_svg(spec: Spectrum, path: Path,
                    channels: tuple[str, ...] = ("re", "im", "abs"),
                    width: int = 900, height: int = 480) -> None:
    """One polyline per channel over the probe grid."""
    series = {"re": spec.s21.real, "im": spec.s21.imag,
              "abs": np.abs(spec.s21)}
    colors = {"re": "#1f77b4", "im": "#d62728", "abs": "#2ca02c"}
    xs = spec.omega_p
    x0, x1 = float(xs[0]), float(xs[-1])
    ys = np.concatenate([series[ch] for ch in channels])
    y0, y1 = float(ys.min()), float(ys.max())
    if y1 == y0:
        y1 = y0 + 1.0
    pad = 40.0

    def sx(x):
        return pad + (x - x0)/(x1 - x0)*(width - 2*pad)

    def sy(y):
        return height - pad - (y - y0)/(y1 - y0)*(height - 2*pad)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>']
    for ch in channels:
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}"
                       for x, y in zip(xs, series[ch]))
        parts.append(f'<polyline fill="none" stroke="{colors[ch]}" '
                     f'stroke-width="1.2" points="{pts}"/>')
        parts.append(f'<text x="{pad + 12}" y="{pad + 16*(channels.index(ch)+1)}" '
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
