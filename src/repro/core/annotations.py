"""Range-specific analysis: grid-id windows and ``pasta.start()/stop()`` regions.

Section III-F1 of the paper describes two ways to focus analysis on a
sub-region of an application:

* the ``START_GRID_ID`` / ``END_GRID_ID`` environment variables select a window
  of kernel-launch indices for standard GPU applications, and
* the ``pasta`` Python package lets users bracket interesting code regions with
  ``pasta.start()`` and ``pasta.stop()`` (e.g. around one transformer layer).

Both are implemented by :class:`RangeFilter`, which the event processor
consults before dispatching kernel-level events to tools.  The module-level
``start``/``stop`` functions provide the user-facing annotation API; they act
on every started :class:`~repro.core.session.PastaSession` — one per rank of
a multi-GPU profile.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import AnnotationError

#: Environment variable names used by the paper's artifact.
START_GRID_ID_ENV = "START_GRID_ID"
END_GRID_ID_ENV = "END_GRID_ID"


@dataclass
class RangeFilter:
    """Decides whether kernel-level events fall inside the analysis range.

    The filter is permissive by default (everything is analysed).  Setting a
    grid-id window restricts analysis to launches whose sequential index lies
    in ``[start_grid_id, end_grid_id]``; annotation regions restrict analysis
    to launches that occur while at least one ``pasta.start()`` region is open.
    When both mechanisms are configured a launch must satisfy both.
    """

    start_grid_id: Optional[int] = None
    end_grid_id: Optional[int] = None
    #: Whether any annotation region has been used during this run; once a
    #: region has been seen, launches outside regions are filtered out.
    annotations_used: bool = False
    _open_regions: list[str] = field(default_factory=list)
    kernels_in_range: int = 0
    kernels_filtered: int = 0

    # ------------------------------------------------------------------ #
    # configuration
    # ------------------------------------------------------------------ #
    @classmethod
    def from_environment(cls, env: Optional[dict[str, str]] = None) -> "RangeFilter":
        """Build a filter from ``START_GRID_ID`` / ``END_GRID_ID``."""
        env = dict(os.environ if env is None else env)
        start = env.get(START_GRID_ID_ENV)
        end = env.get(END_GRID_ID_ENV)
        filt = cls()
        if start is not None:
            filt.start_grid_id = int(start)
        if end is not None:
            filt.end_grid_id = int(end)
        return filt

    def set_grid_window(self, start: Optional[int], end: Optional[int]) -> None:
        """Explicitly set the grid-id window."""
        if start is not None and end is not None and end < start:
            raise AnnotationError(f"END_GRID_ID ({end}) must be >= START_GRID_ID ({start})")
        self.start_grid_id = start
        self.end_grid_id = end

    # ------------------------------------------------------------------ #
    # annotation regions
    # ------------------------------------------------------------------ #
    def open_region(self, label: str = "") -> None:
        """Enter a ``pasta.start()`` region."""
        self.annotations_used = True
        self._open_regions.append(label)

    def close_region(self, label: str = "") -> str:
        """Leave the innermost region; returns its label."""
        if not self._open_regions:
            raise AnnotationError("pasta.stop() called without a matching pasta.start()")
        return self._open_regions.pop()

    @property
    def region_depth(self) -> int:
        """Number of currently open annotation regions."""
        return len(self._open_regions)

    @property
    def current_region(self) -> str:
        """Label of the innermost open region ('' when none)."""
        return self._open_regions[-1] if self._open_regions else ""

    # ------------------------------------------------------------------ #
    # the filter itself
    # ------------------------------------------------------------------ #
    @property
    def can_reject(self) -> bool:
        """True when :meth:`in_range` may reject a launch: a grid-id window is
        set or an annotation region has been used."""
        return self.start_grid_id is not None or self.end_grid_id is not None or self.annotations_used

    def in_range(self, grid_index: int) -> bool:
        """True if a launch with this sequential index should be analysed."""
        if self.start_grid_id is not None and grid_index < self.start_grid_id:
            self.kernels_filtered += 1
            return False
        if self.end_grid_id is not None and grid_index > self.end_grid_id:
            self.kernels_filtered += 1
            return False
        if self.annotations_used and not self._open_regions:
            self.kernels_filtered += 1
            return False
        self.kernels_in_range += 1
        return True


# --------------------------------------------------------------------------- #
# the user-facing ``pasta`` annotation API
# --------------------------------------------------------------------------- #
#: Sessions started and not yet stopped, in start order: each
#: ``PastaSession`` adds itself in ``start()`` and removes itself in ``stop()``.
_active_sessions: list = []


def start(label: str = "") -> None:
    """Begin an analysis region (the paper's ``pasta.start()``).

    Inside a region, kernel launches and fine-grained events are analysed;
    once any region has been used, launches outside all regions are skipped.
    The region opens on every started session.  A session started while a
    region is open never sees that region: it analyses as if no region had
    been used until the next ``start()``.  A no-op when no PASTA session is
    active, so annotated application code runs unmodified without the
    profiler.
    """
    for session in tuple(_active_sessions):
        session.begin_region(label)


def stop(label: str = "") -> None:
    """End the innermost analysis region (the paper's ``pasta.stop()``).

    The region ends on every started session that has one open.  Raises
    :class:`AnnotationError` when sessions are started and none of them has
    a region open: a ``stop()`` without a matching ``start()``.
    """
    sessions = tuple(_active_sessions)
    open_in = [s for s in sessions if s.processor.range_filter.region_depth]
    if sessions and not open_in:
        raise AnnotationError("pasta.stop() called without a matching pasta.start()")
    for session in open_in:
        session.end_region(label)
