"""Live progress/ETA reporting for cell execution.

A :class:`ProgressReporter` renders a single in-place line on **stderr** —
cells done/total, store hit rate, execution rate, ETA — as
:func:`repro.experiments.execute.execute_cells` consumes cell outcomes.
Canonical stdout/JSON output is never touched: progress is telemetry, and
like per-cell wall times it must not perturb byte-identical results.

By default the line renders only when stderr is a terminal (CI logs stay
clean); pass ``enabled=True``/``False`` to force it.  Rendering is
throttled, and the final state is always printed (with a newline) so an
interactive run ends with a complete summary line.
"""

from __future__ import annotations

import sys
import time
from typing import IO, Optional

__all__ = ["ProgressReporter"]

#: Minimum seconds between in-place re-renders (updates arrive per cell,
#: which can be thousands per second for store hits).
RENDER_INTERVAL_S = 0.1


def _format_eta(eta_s: float) -> str:
    """``m:ss`` (or ``h:mm:ss``) rendering of a non-negative ETA."""
    total = int(eta_s)
    hours, rest = divmod(total, 3600)
    minutes, seconds = divmod(rest, 60)
    if hours:
        return f"{hours}:{minutes:02d}:{seconds:02d}"
    return f"{minutes}:{seconds:02d}"


class ProgressReporter:
    """In-place ``\\r`` progress line over one ``execute_cells`` invocation.

    ``total`` counts every cell of the run; ``reused`` is how many were
    satisfied before execution started (store hits), so the line
    can show the hit rate alongside the live execution rate and ETA for the
    remaining cells.
    """

    def __init__(self, total: int, reused: int = 0,
                 stream: Optional[IO[str]] = None,
                 enabled: Optional[bool] = None) -> None:
        self.total = total
        self.reused = reused
        self.done = reused
        self._stream: IO[str] = stream if stream is not None else sys.stderr
        if enabled is None:
            isatty = getattr(self._stream, "isatty", None)
            enabled = bool(isatty()) if callable(isatty) else False
        self.enabled = enabled
        # repro-lint: disable=RPL001 progress telemetry only; rendered to stderr, never canonical output
        self._started_s = time.monotonic()
        self._last_render_s = -RENDER_INTERVAL_S
        self._rendered = False

    def update(self, completed: int = 1) -> None:
        """Record ``completed`` more cells and re-render (throttled)."""
        self.done += completed
        # repro-lint: disable=RPL001 progress telemetry only; rendered to stderr, never canonical output
        now_s = time.monotonic()
        if now_s - self._last_render_s >= RENDER_INTERVAL_S:
            self._render(now_s, final=False)

    def finish(self) -> None:
        """Render the final state and terminate the line with a newline."""
        # repro-lint: disable=RPL001 progress telemetry only; rendered to stderr, never canonical output
        self._render(time.monotonic(), final=True)

    def line(self, now_s: float) -> str:
        """The current progress line (pure of I/O; used by tests too)."""
        percent = 100.0 * self.done / self.total if self.total else 100.0
        parts = [f"cells {self.done}/{self.total} ({percent:3.0f}%)"]
        if self.reused:
            hit_percent = 100.0 * self.reused / self.total
            parts.append(f"reused {self.reused} ({hit_percent:.0f}% hit)")
        executed = self.done - self.reused
        elapsed_s = now_s - self._started_s
        if executed > 0 and elapsed_s > 0:
            per_second = executed / elapsed_s
            parts.append(f"{per_second:.1f} cells/s")
            remaining = self.total - self.done
            if remaining > 0:
                parts.append(f"ETA {_format_eta(remaining / per_second)}")
        return " | ".join(parts)

    def _render(self, now_s: float, final: bool) -> None:
        if not self.enabled:
            return
        self._last_render_s = now_s
        self._rendered = True
        self._stream.write("\r\x1b[K" + self.line(now_s))
        if final:
            self._stream.write("\n")
        self._stream.flush()
