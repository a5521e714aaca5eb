"""Run configuration, and the rule every parameter value obeys.

Text format, one `key = value [unit]` per line, `#` comments:

    omega_c   = 9 GHz
    gamma_c   = 100 kHz
    s         = 6.6 um

Frequencies convert to angular (times 2 pi); lengths, times and
capacitances convert to SI.  JSON files hold the same keys with values
either numbers (already SI-angular) or strings parsed like text values.
Each command names the keys it accepts; any other key is rejected.
"""

from __future__ import annotations

import cmath
import json
import math
from pathlib import Path
from typing import Collection, Mapping, Union


class ConfigError(ValueError):
    """Malformed configuration input."""


# Every parameter value is finite (only CpwGeometry.h1 may be infinite) and
# carries one sign rule: (what the message says, test).
FINITE = ("finite", cmath.isfinite)
POSITIVE = ("positive and finite", lambda x: 0 < x < math.inf)
NON_NEGATIVE = ("non-negative and finite", lambda x: 0 <= x < math.inf)
NON_ZERO = ("non-zero and finite", lambda x: x != 0 and math.isfinite(x))
AT_LEAST_ONE = ("at least 1 and finite", lambda x: 1 <= x < math.inf)
POSITIVE_OR_INF = ("positive", lambda x: x > 0)
COUNT = ("a non-negative integer",
         lambda x: 0 <= x < math.inf and float(x).is_integer())


def check_values(values: Mapping[str, object], **rules) -> None:
    """Raise ValueError naming the first value that breaks its rule.

    `rules` gives each name its rule; a value that is None or absent (an
    optional input left unset, or a class default) is not checked.
    Parameter classes pass `vars(self)` from `__post_init__`.
    """
    for name, (what, holds) in rules.items():
        value = values.get(name)
        if value is not None and not holds(value):
            raise ValueError(f"{name} must be {what}, got {value:g}")


# unit -> (scale, is_frequency); frequencies additionally pick up 2 pi
_UNITS = {
    "hz": (1.0, True), "khz": (1e3, True), "mhz": (1e6, True),
    "ghz": (1e9, True),
    "rad/s": (1.0, False),
    "s": (1.0, False), "ms": (1e-3, False), "us": (1e-6, False),
    "ns": (1e-9, False), "ps": (1e-12, False), "fs": (1e-15, False),
    "m": (1.0, False), "mm": (1e-3, False), "um": (1e-6, False),
    "µm": (1e-6, False), "nm": (1e-9, False),
    "f": (1.0, False), "ff": (1e-15, False), "pf": (1e-12, False),
    "f/m": (1.0, False), "pf/m": (1e-12, False),
    "h/m": (1.0, False),
    "ohm": (1.0, False),
    "j": (1.0, False), "ev": (1.602176634e-19, False),
    "1/s": (1.0, False), "photons/s": (1.0, False),
    "m/s": (1.0, False),
}


def parse_quantity(text: str) -> float:
    """Parse '9 GHz' -> 2 pi 9e9, '6.6 um' -> 6.6e-6, '0.25' -> 0.25."""
    parts = str(text).strip().split()
    if not parts:
        raise ConfigError("empty value")
    try:
        value = float(parts[0])
    except ValueError as exc:
        raise ConfigError(f"bad number in {text!r}") from exc
    if len(parts) == 1:
        return value
    if len(parts) > 2:
        raise ConfigError(f"too many tokens in {text!r}")
    unit = parts[1].lower()
    if unit not in _UNITS:
        raise ConfigError(f"unknown unit {parts[1]!r}")
    scale, is_freq = _UNITS[unit]
    value *= scale
    if is_freq:
        value *= math.tau
    return value


def _unique_keys(pairs, path: Path) -> dict:
    """A JSON object's (key, value) pairs as a dict, refusing a key given
    twice, which `json.loads` would otherwise keep the last of."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ConfigError(f"{path}: key {key} given twice")
        out[key] = value
    return out


def load_config(path: Union[str, Path],
                keys: Collection[str]) -> dict[str, float]:
    """Read a text or JSON config into {key: SI-angular float}.

    Raises ConfigError naming any key outside `keys`, those the command
    reads, and any key given twice (a text config names both lines).
    """
    path = Path(path)
    try:
        raw = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    out = {}
    if path.suffix.lower() == ".json":
        try:
            data = json.loads(raw, object_pairs_hook=lambda pairs:
                              _unique_keys(pairs, path))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"bad JSON in {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("JSON config must be an object")
        for key, val in data.items():
            if isinstance(val, (int, float)):
                out[str(key)] = float(val)
            elif isinstance(val, str):
                out[str(key)] = parse_quantity(val)
            else:
                raise ConfigError(f"config key {key!r}: unsupported value {val!r}")
    else:
        first_line = {}
        for lineno, line in enumerate(raw.splitlines(), start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = body.partition("=")
            key = key.strip()
            if key in first_line:
                raise ConfigError(f"{path}:{lineno}: key {key} given twice, "
                                  f"first on line {first_line[key]}")
            first_line[key] = lineno
            try:
                out[key] = parse_quantity(value)
            except ConfigError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from exc
    unknown = sorted(set(out) - set(keys))
    if unknown:
        raise ConfigError(f"{path}: unknown key {', '.join(unknown)} "
                          f"(accepted: {', '.join(sorted(keys))})")
    return out
