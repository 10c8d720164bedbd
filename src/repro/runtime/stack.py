"""Thread frames and stack traces."""

from __future__ import annotations

import itertools
from typing import List, Optional, Tuple, TYPE_CHECKING

from repro.heap.objects import HeapObject
from repro.runtime.code import CodeLocation, MethodModel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.thread import SimThread

#: Globally unique stack-shape tokens.  Every frame push or pop on any
#: thread draws a fresh token, so two observations of the same token value
#: guarantee the observing thread's frame stack (identities *and* the
#: callers' current lines, which can only change while a frame is on top)
#: is unchanged.  Allocation sites key their interned-trace cache on this
#: (see :class:`repro.runtime.code.AllocSite`).
stack_tokens = itertools.count(1)


class Frame:
    """One activation record on a simulated thread stack.

    ``current_line`` tracks the line the frame is executing — updated at
    every call and allocation so that captured stack traces carry the call
    chain the paper's Analyzer needs (class, method, line per frame).

    ``locals`` holds heap objects referenced from the frame; they are GC
    roots until the frame pops.

    A frame built for a thread is also the context manager of its own
    activation (hand-rolled: frame entry/exit is one of the hottest paths
    in the simulation): entering pushes it, leaving pops it and restores
    the thread's target generation when the call switched it.
    """

    __slots__ = ("method", "current_line", "locals", "thread", "saved_gen")

    def __init__(
        self,
        method: MethodModel,
        thread: Optional["SimThread"] = None,
        saved_gen: Optional[int] = None,
    ) -> None:
        self.method = method
        self.current_line = 0
        self.locals: List[HeapObject] = []
        self.thread = thread
        self.saved_gen = saved_gen

    def __enter__(self) -> "Frame":
        thread = self.thread
        thread.frames.append(self)
        thread.stack_token = next(stack_tokens)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        thread = self.thread
        thread.frames.pop()
        thread.stack_token = next(stack_tokens)
        if self.saved_gen is not None:
            thread.target_gen = self.saved_gen

    @property
    def location(self) -> CodeLocation:
        return (self.method.class_name, self.method.name, self.current_line)

    def keep(self, obj: HeapObject) -> HeapObject:
        """Root ``obj`` in this frame (a local-variable store)."""
        self.locals.append(obj)
        return obj

    def drop(self, obj: HeapObject) -> None:
        """Remove one local-variable root (best effort; no-op if absent)."""
        try:
            self.locals.remove(obj)
        except ValueError:
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Frame({self.method.class_name}.{self.method.name}:{self.current_line})"


def capture_stack_trace(frames: List[Frame]) -> Tuple[CodeLocation, ...]:
    """Snapshot the call chain, innermost frame last.

    Every frame contributes ⟨class, method, current line⟩; for outer frames
    the current line is the call site through which control reached the
    next frame, and for the innermost frame it is the allocation line —
    matching the stack traces the Recorder logs (§3.2).
    """
    return tuple(frame.location for frame in frames)
