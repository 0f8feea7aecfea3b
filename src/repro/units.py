"""Units of measure for the reproduction's quantities.

Every number this repo computes is a rate, a size, a time or a count, and the
claim ledger rests on arithmetic that mixes nine different unit conventions
(``_bps``, ``_mbps``, ``_bytes``, ``_s``, ``_ms``, ...).  This module makes
those conventions first-class:

* **Unit aliases** — ``Annotated`` type aliases (:data:`Bps`, :data:`Mbps`,
  :data:`Bytes`, :data:`Seconds`, ...) used in signatures so that both human
  readers and the static checker (``python -m repro.devtools.lint``) know the
  dimension and scale of a parameter or return value.  At runtime they are
  plain ``float``/``int`` — annotating a signature changes nothing.
* **Named conversion constants** — :data:`BITS_PER_BYTE`,
  :data:`BPS_PER_MBPS`, :data:`MS_PER_S`, :data:`BYTES_PER_KB`.  Converting
  with one of these is a declared, checkable unit change; converting with an
  anonymous ``* 8.0`` or ``/ 1e6`` is an RPL014 finding.

The suffix policy:

========== =========================== ==============================
Suffix     Meaning                     Notes
========== =========================== ==============================
``_bps``   rate, bits per second       canonical rate unit
``_mbps``  rate, megabits per second   presentation/claims only
``_bytes`` size, bytes                 canonical size unit
``_bits``  size, bits                  transient (rate arithmetic)
``_s``     time, seconds               canonical time unit
``_ms``    time, milliseconds          presentation/claims only
``_packets`` count of packets          dimensionless in arithmetic
========== =========================== ==============================

New code uses these spellings.  The checker reads the others it knows
(``_sec``, ``_seconds``, ``_msec``, ``_millis``, ...) as the same units, so
mixing them is a unit mismatch like any other; bare time names (``delay``,
``rtt``) are being migrated to suffixed forms where they do not appear in
archived cell-identity JSON.
"""

from __future__ import annotations

from typing import Annotated

__all__ = [
    "Unit",
    "Bps",
    "Mbps",
    "Gbps",
    "Bytes",
    "Bits",
    "Seconds",
    "Ms",
    "Packets",
    "BITS_PER_BYTE",
    "BPS_PER_MBPS",
    "BPS_PER_GBPS",
    "MS_PER_S",
    "BYTES_PER_KB",
]


class Unit:
    """Annotation marker naming a quantity's dimension and scale.

    Instances carry no behaviour; they exist so that ``Annotated[float,
    Unit("rate", "bps")]`` is introspectable metadata rather than a bare
    comment, and so the AST units checker can recognise the alias *names*
    below in annotations.
    """

    __slots__ = ("dimension", "scale")

    def __init__(self, dimension: str, scale: str) -> None:
        self.dimension = dimension
        self.scale = scale

    def __repr__(self) -> str:
        return f"Unit({self.dimension!r}, {self.scale!r})"


#: A rate in bits per second — the canonical rate unit of the whole tree.
Bps = Annotated[float, Unit("rate", "bps")]
#: A rate in megabits per second — presentation and claim thresholds only.
Mbps = Annotated[float, Unit("rate", "mbps")]
#: A rate in gigabits per second (power-metric axes).
Gbps = Annotated[float, Unit("rate", "gbps")]
#: A size in bytes — the canonical size unit (packet/buffer/flow sizes).
Bytes = Annotated[float, Unit("size", "bytes")]
#: A size in bits — transient, produced by ``bytes * BITS_PER_BYTE``.
Bits = Annotated[float, Unit("size", "bits")]
#: A duration or timestamp in seconds — the canonical time unit.
Seconds = Annotated[float, Unit("time", "s")]
#: A duration in milliseconds — presentation and claim thresholds only.
Ms = Annotated[float, Unit("time", "ms")]
#: A packet count — dimensionless in arithmetic, named for clarity.
Packets = Annotated[int, Unit("count", "packets")]


#: Bits in one byte: ``size_bits = size_bytes * BITS_PER_BYTE``.
BITS_PER_BYTE: float = 8.0
#: Bits-per-second in one megabit-per-second: ``mbps = bps / BPS_PER_MBPS``.
BPS_PER_MBPS: float = 1e6
#: Bits-per-second in one gigabit-per-second: ``gbps = bps / BPS_PER_GBPS``.
BPS_PER_GBPS: float = 1e9
#: Milliseconds in one second: ``ms = s * MS_PER_S``.
MS_PER_S: float = 1000.0
#: Bytes in one kilobyte (decimal, as used by buffer-size axes): ``kb = bytes / BYTES_PER_KB``.
BYTES_PER_KB: float = 1000.0

