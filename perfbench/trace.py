"""Spans around the program's public functions, installed from outside.

``Tracer.wrap(owner, attr, name)`` replaces ``owner.attr`` with a
wrapper that records each call's duration under ``name``; ``restore()``
puts every original back.  Nothing in ``src/`` changes.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from typing import Dict, List, Tuple


class Tracer:
    def __init__(self) -> None:
        self.spans: Dict[str, List[float]] = defaultdict(list)
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def span(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                with tracer._lock:
                    tracer.spans[name].append(dt)

        setattr(owner, attr, span)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def take(self) -> Dict[str, List[float]]:
        """Recorded spans so far; resets the recorder."""
        with self._lock:
            out = dict(self.spans)
            self.spans = defaultdict(list)
        return out
