"""Request metrics for the HTTP servers (``GET /metrics``).

Per key (a REST route or an MCP tool): the request count and error count
since start, and p50/p99 latency over the last ``_WINDOW`` requests of that
key, so memory stays bounded however long the server runs.
"""

from __future__ import annotations

import math
import threading
from collections import deque

_WINDOW = 1024


def _nearest_rank(ordered: list[float], q: float) -> float:
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class RequestMetrics:
    """Thread-safe per-key request counters and a latency window."""

    def __init__(self):
        self._lock = threading.Lock()
        self._keys: dict[str, tuple[list[int], deque]] = {}

    def record(self, key: str, seconds: float, error: bool) -> None:
        with self._lock:
            counts, recent = self._keys.setdefault(
                key, ([0, 0], deque(maxlen=_WINDOW))
            )
            counts[0] += 1
            counts[1] += bool(error)
            recent.append(seconds)

    def snapshot(self) -> dict:
        """``{key: {requests, errors, p50_ms, p99_ms}}``, keys sorted."""
        with self._lock:
            items = [(k, list(c), sorted(r)) for k, (c, r) in self._keys.items()]
        return {
            key: {
                "requests": n,
                "errors": errors,
                "p50_ms": _nearest_rank(lat, 0.50) * 1e3,
                "p99_ms": _nearest_rank(lat, 0.99) * 1e3,
            }
            for key, (n, errors), lat in sorted(items)
        }
