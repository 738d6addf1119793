"""Bounded caches for the routing hot path.

The per-destination reverse-reachability masks the router memoizes are
small (one bool per node) but unbounded workloads touch unboundedly many
destinations: a million-pair batch over a 64^3 mesh would otherwise pin
hundreds of thousands of masks.  ``LRUCache`` keeps the most recently
used entries and evicts the rest; the batch layer orders work by
destination, so grouped workloads hit the cache even at tiny capacities.

:func:`mask_digest` supports the content-addressed caches layered on
top (:mod:`repro.core.model_cache`): consumers that meet one fault
pattern — e.g. T5's three consumers labelling the same mask — key
canonical-class labellings by fault-mask content so the fixed point
runs once per (pattern, class).
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Generic, Hashable, Iterator, TypeVar

import numpy as np


def mask_digest(mask: np.ndarray) -> bytes:
    """Content address of a boolean mask: digest of shape + packed bits.

    Two masks share a digest iff they have the same shape and the same
    cell values (BLAKE2b, 16-byte digest — collisions are not a
    practical concern).  The mask is packed to bits first so hashing a
    64^3 mesh touches 32 KiB, a few microseconds next to one labelling
    fixed point.
    """
    mask = np.asarray(mask, dtype=bool)
    h = hashlib.blake2b(digest_size=16)
    h.update(repr(mask.shape).encode("ascii"))
    h.update(np.packbits(mask, axis=None).tobytes())
    return h.digest()

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


class LRUCache(Generic[K, V]):
    """A dict bounded to ``maxsize`` entries with least-recently-used eviction.

    ``maxsize=None`` disables eviction (plain dict behaviour); ``maxsize``
    must otherwise be positive.
    """

    def __init__(self, maxsize: int | None = None):
        if maxsize is not None and maxsize <= 0:
            raise ValueError(f"LRUCache maxsize must be positive, got {maxsize}")
        self.maxsize = maxsize
        self._data: OrderedDict[K, V] = OrderedDict()

    def get(self, key: K) -> V | None:
        """The cached value (refreshing recency), or None."""
        if key in self._data:
            self._data.move_to_end(key)
            return self._data[key]
        return None

    def put(self, key: K, value: V) -> V:
        self._data[key] = value
        self._data.move_to_end(key)
        if self.maxsize is not None and len(self._data) > self.maxsize:
            self._data.popitem(last=False)
        return value

    def __contains__(self, key: K) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def keys(self) -> list[K]:
        """Snapshot of the cached keys (least recently used first)."""
        return list(self._data)

    def __iter__(self) -> Iterator[K]:
        return iter(list(self._data))

    def pop(self, key: K) -> V | None:
        """Remove and return one entry (None when absent).

        Selective eviction for callers that can scope an invalidation —
        e.g. the online routing service drops only the reachability
        masks a fault event can have changed instead of the whole cache.
        """
        return self._data.pop(key, None)

    def clear(self) -> None:
        self._data.clear()
