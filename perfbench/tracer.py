"""Layer spans recorded from outside the program.

The benchmark must not add tracing inside ``src/tandem``, so it wraps the
public functions of each layer instead.  A function is often reached through
more than one name: ``cli`` imports ``simulate_plan`` by name, while
``planner.optimize_plan`` resolves ``predict_makespan`` and ``random_plan``
through its own module globals.  ``Tracer.install`` therefore rebinds the
wrapper at every module attribute of the package that holds the original
object, and wraps methods on the class itself so calls through ``self`` are
seen too.  ``Tracer.uninstall`` puts every original back.

Spans stay in memory; the caller turns them into metrics once a run ends.
The program is single-threaded, so spans nest strictly and a span's children
cover disjoint parts of its interval.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from types import ModuleType
from typing import Callable, Iterable


@dataclass
class Span:
    """One call through a wrapped name."""

    name: str
    start: float
    end: float = 0.0
    parent: int = -1  # index of the enclosing span, -1 at top level
    info: dict = field(default_factory=dict)  # counts observed at the boundary

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


# Called after the span closes, outside its timed interval.
Observer = Callable[[Span, tuple, dict, object], None]


@dataclass(frozen=True)
class Target:
    """A function to wrap: span name, the object that defines it, attribute."""

    name: str
    owner: object  # a module, or a class whose method is wrapped in place
    attr: str
    observe: Observer | None = None


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, observe: Observer | None = None) -> Callable:
        """A wrapper that records one span per call of ``fn``.

        An exception passing through marks the span failed and propagates.
        """
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, clock(), parent=stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.info["failed"] = type(exc).__name__
                raise
            finally:
                span.end = clock()
                stack.pop()
            if observe is not None:
                observe(span, args, kwargs, result)
            return result

        return traced

    def install(self, modules: Iterable[ModuleType], targets: Iterable[Target]) -> None:
        """Wrap each target at every name the package's modules resolve it by."""
        modules = list(modules)
        for target in targets:
            original = getattr(target.owner, target.attr)
            wrapper = self.wrap(target.name, original, target.observe)
            if isinstance(target.owner, type):
                self._rebind(target.owner, target.attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, wrapper)

    def _rebind(self, owner: object, attr: str, wrapper: Callable) -> None:
        # Read from __dict__ so a class gets back its own function, not a bound one.
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every rebound name, latest first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.duration
    return [span.duration - c for span, c in zip(spans, covered)]
