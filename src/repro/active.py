"""The process-wide "active handle" behind telemetry, progress and faults.

Telemetry, the campaign progress bus and the fault-injection harness each
keep one current object that instrumented code consults without having it
passed down, defaulting to a shared no-op null object.  The handle is a
plain attribute, not a ``ContextVar``: scheduler pool threads and the api
runner's rank threads must see what the main thread activated, and
``ThreadPoolExecutor`` workers do not inherit context variables.  This
module imports nothing from :mod:`repro`, so every layer can use it.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Generic, Iterator, Optional, TypeVar

T = TypeVar("T")


class ActiveHandle(Generic[T]):
    """One process-wide current handle.  The first :meth:`get` (and the first
    after :meth:`reset`) installs ``arm()`` when given, else ``null``."""

    def __init__(self, null: T, arm: Optional[Callable[[], T]] = None) -> None:
        self.null = null
        self.arm = arm
        self.current: Optional[T] = None

    def get(self) -> T:
        if self.current is None:
            self.current = self.arm() if self.arm is not None else self.null
        return self.current

    def set(self, handle: T) -> T:
        self.current = handle
        return handle

    def reset(self) -> None:
        """Forget the active handle, as in a fresh process."""
        self.current = None

    @contextmanager
    def scope(self, handle: T, *, close: bool) -> Iterator[T]:
        """Activate ``handle`` for a block; restore the previous handle on
        exit, even when the block raises, and close ``handle`` if asked."""
        previous = self.current
        self.current = handle
        try:
            yield handle
        finally:
            self.current = previous
            if close:
                handle.close()  # type: ignore[attr-defined]
