"""Order-preserving parallel map.

Work items run concurrently but results come back in submission order, so
downstream reductions behave identically for any worker count.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def ordered_map(fn: Callable[[T], R], items: Sequence[T], workers: int = 1) -> List[R]:
    if workers is None or workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    # imported here: concurrent.futures loads logging and queue, which a
    # one-worker run never needs
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
