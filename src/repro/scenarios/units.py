"""The unit vocabulary: physical units spelled by name suffixes.

Seconds, bytes, joules, watts, giga-ops and megabits-per-second all flow
through the platform as bare ``float``\\ s, and a name's trailing suffix
says which (``deadline_s``, ``tx_bytes``, ``drive_efficiency_wh_per_km``).
This module turns those suffixes into a :class:`Unit` -- base-dimension
exponents plus a scale -- so two spellings of one quantity can be
compared.  The scenario schema uses it to catch ``barrier_ms`` written
for ``barrier_s`` (SCN002).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = [
    "SUFFIX_UNITS",
    "Unit",
    "split_name_unit",
]

#: Base dimensions and their display symbols.
_BASE_SYMBOL = {
    "time": "s",
    "data": "bytes",
    "energy": "J",
    "op": "op",
    "length": "m",
}


@dataclass(frozen=True)
class Unit:
    """A physical unit: base-dimension exponents plus a scale factor.

    ``dims`` is a sorted tuple of ``(base, exponent)`` pairs with zero
    exponents elided; two units are *dimension-compatible* when their
    ``dims`` match.  ``scale`` is the magnitude relative to the canonical
    base unit (seconds, bytes, joules, ops, metres).
    """

    dims: tuple[tuple[str, int], ...]
    scale: float = 1.0

    @staticmethod
    def make(dims: dict[str, int], scale: float = 1.0) -> "Unit":
        packed = tuple(sorted((k, v) for k, v in dims.items() if v))
        return Unit(packed, scale)

    def same_dimension(self, other: "Unit") -> bool:
        return self.dims == other.dims

    def same_scale(self, other: "Unit") -> bool:
        return abs(self.scale - other.scale) <= 1e-12 * max(
            abs(self.scale), abs(other.scale), 1.0
        )

    def div(self, other: "Unit") -> "Unit":
        dims = dict(self.dims)
        for base, exp in other.dims:
            dims[base] = dims.get(base, 0) - exp
        return Unit.make(dims, self.scale / other.scale)

    def render(self) -> str:
        """Human name: a known unit token if one matches, else composed."""
        named = _NAMED_UNITS.get((self.dims, self.scale))
        if named is not None:
            return named
        if not self.dims:
            return "dimensionless"
        num = [
            f"{_BASE_SYMBOL[b]}" + (f"^{e}" if e != 1 else "")
            for b, e in self.dims if e > 0
        ]
        den = [
            f"{_BASE_SYMBOL[b]}" + (f"^{-e}" if e != -1 else "")
            for b, e in self.dims if e < 0
        ]
        text = "*".join(num) or "1"
        if den:
            text += "/" + "/".join(den)
        if self.scale != 1.0:
            text += f" (x{self.scale:g})"
        return text


def _u(dims: dict[str, int], scale: float = 1.0) -> Unit:
    return Unit.make(dims, scale)


#: Suffix-token vocabulary.  A trailing ``s`` on a compute token means
#: "per second" (industry GOPS = Gop/s); the bare token is the count
#: (``work_gop`` is giga-operations, ``peak_gops`` is Gop/s).
SUFFIX_UNITS: dict[str, Unit] = {
    # time
    "s": _u({"time": 1}),
    "sec": _u({"time": 1}),
    "secs": _u({"time": 1}),
    "seconds": _u({"time": 1}),
    "ms": _u({"time": 1}, 1e-3),
    "us": _u({"time": 1}, 1e-6),
    "ns": _u({"time": 1}, 1e-9),
    # frequency
    "hz": _u({"time": -1}),
    "khz": _u({"time": -1}, 1e3),
    "mhz": _u({"time": -1}, 1e6),
    "ghz": _u({"time": -1}, 1e9),
    # data
    "byte": _u({"data": 1}),
    "bytes": _u({"data": 1}),
    "nbytes": _u({"data": 1}),
    "kb": _u({"data": 1}, 1e3),
    "mb": _u({"data": 1}, 1e6),
    "gb": _u({"data": 1}, 1e9),
    "bit": _u({"data": 1}, 0.125),
    "bits": _u({"data": 1}, 0.125),
    # data rate
    "bps": _u({"data": 1, "time": -1}, 0.125),
    "kbps": _u({"data": 1, "time": -1}, 125.0),
    "mbps": _u({"data": 1, "time": -1}, 1.25e5),
    "gbps": _u({"data": 1, "time": -1}, 1.25e8),
    # energy
    "joule": _u({"energy": 1}),
    "joules": _u({"energy": 1}),
    "wh": _u({"energy": 1}, 3600.0),
    "kwh": _u({"energy": 1}, 3.6e6),
    # power
    "watt": _u({"energy": 1, "time": -1}),
    "watts": _u({"energy": 1, "time": -1}),
    "kw": _u({"energy": 1, "time": -1}, 1e3),
    # compute work (counts) and throughput (rates)
    "op": _u({"op": 1}),
    "flop": _u({"op": 1}),
    "gop": _u({"op": 1}, 1e9),
    "gflop": _u({"op": 1}, 1e9),
    "flops": _u({"op": 1, "time": -1}),
    "gops": _u({"op": 1, "time": -1}, 1e9),
    "gflops": _u({"op": 1, "time": -1}, 1e9),
    "tflops": _u({"op": 1, "time": -1}, 1e12),
    # length & speed
    "m": _u({"length": 1}),
    "meters": _u({"length": 1}),
    "mm": _u({"length": 1}, 1e-3),
    "km": _u({"length": 1}, 1e3),
    "mps": _u({"length": 1, "time": -1}),
}

#: Preferred display name per (dims, scale) -- first token wins.
_NAMED_UNITS: dict[tuple[tuple[tuple[str, int], ...], float], str] = {}
for _token, _unit in SUFFIX_UNITS.items():
    _NAMED_UNITS.setdefault((_unit.dims, _unit.scale), _token)


def split_name_unit(name: str) -> tuple[str, Optional[Unit]]:
    """Split a name into its quantity stem and trailing unit suffix.

    ``("v2v_latency", seconds)`` for ``v2v_latency_s``; ``(name, None)``
    when no suffix parses; ``drive_efficiency_wh_per_km`` -> Wh/km.
    Whole-word names (``seconds``, ``joules``) count when >= 2 chars, so
    a loop index ``s`` or matrix column ``m`` never picks up a unit.
    The stem is what scenario key-matching uses to recognize
    ``barrier_ms`` as a mis-scaled spelling of the ``barrier_s`` field.
    """
    tokens = name.lower().split("_")
    if len(tokens) == 1 and len(tokens[0]) < 2:
        return name, None
    # Earliest start whose trailing segment parses as ``unit (per unit)*``
    # wins, so the longest well-formed suffix is used.  A segment preceded
    # by ``per`` is the tail of a larger compound we could not parse
    # (``kpa_per_s``) -- claiming just the tail would misread the unit.
    for start in range(len(tokens)):
        if start > 0 and tokens[start - 1] == "per":
            return name, None
        unit = SUFFIX_UNITS.get(tokens[start])
        if unit is None:
            continue
        rest = tokens[start + 1:]
        while len(rest) >= 2 and rest[0] == "per" and rest[1] in SUFFIX_UNITS:
            unit = unit.div(SUFFIX_UNITS[rest[1]])
            rest = rest[2:]
        if not rest:
            return "_".join(tokens[:start]), unit
    return name, None
