"""BlockHammer: blacklist-and-throttle (Yaglikci et al., HPCA 2021).

Instead of refreshing victims, BlockHammer *throttles* aggressors: rows
whose activation rate (estimated with counting Bloom filters) exceeds a
blacklist threshold get their subsequent activations delayed so that no
row can receive more than ``max_safe_activations`` within one refresh
window — making HC_first unreachable by construction, at the cost of
attacker-visible latency (benign workloads rarely hit the blacklist).
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.defenses.base import MitigationController
from repro.dram.geometry import RowAddress
from repro.dram.row_mapping import RowMapping
from repro.dram.seeding import splitmix64
from repro.dram.timing import DEFAULT_TIMINGS, TimingParameters

#: Keys whose hash indices one filter memoizes before it starts over.
_INDEX_MEMO_SIZE = 1 << 14


class CountingBloomFilter:
    """Counting Bloom filter over (bank, row) activation counts."""

    def __init__(self, size: int = 1024, hashes: int = 4,
                 seed: int = 0xB10C,
                 rng: Optional[np.random.Generator] = None) -> None:
        if size < 8 or hashes < 1:
            raise ValueError("size must be >= 8 and hashes >= 1")
        self.size = size
        self.hashes = hashes
        self.counts = np.zeros(size, dtype=np.int64)
        if rng is None:
            rng = np.random.default_rng(seed)
        self._salts = [int(s) for s in rng.integers(1, 2 ** 62,
                                                    size=hashes)]
        #: key -> its (read-only) hash indices; the hashes are a pure
        #: function of the key and the fixed salts.
        self._index_memo: Dict[int, np.ndarray] = {}

    def _indices(self, key: int) -> np.ndarray:
        indices = self._index_memo.get(key)
        if indices is None:
            if len(self._index_memo) >= _INDEX_MEMO_SIZE:
                self._index_memo.clear()
            # Full-avalanche mixing: multiplicative hashing modulo a
            # power-of-two size catastrophically aliases low bits.
            indices = np.array([splitmix64(key ^ salt) % self.size
                                for salt in self._salts], dtype=int)
            indices.flags.writeable = False
            self._index_memo[key] = indices
        return indices

    def add(self, key: int, count: int = 1) -> None:
        self.counts[self._indices(key)] += count

    def estimate(self, key: int) -> int:
        """Count-min estimate (never undercounts)."""
        return int(self.counts[self._indices(key)].min())

    def clear(self) -> None:
        self.counts[:] = 0


class BlockHammer(MitigationController):
    """Blacklist-and-throttle controller.

    Once a row's estimated count passes ``blacklist_threshold``, its
    remaining activation budget for the window is paced evenly over the
    rest of the refresh window, capping the total at
    ``max_safe_activations``.
    """

    def __init__(self, blacklist_threshold: int = 2048,
                 max_safe_activations: int = 8192,
                 rows: int = 16384,
                 believed_mapping: Optional[RowMapping] = None,
                 timings: TimingParameters = DEFAULT_TIMINGS,
                 filter_size: int = 4096,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__(rows, believed_mapping)
        if blacklist_threshold >= max_safe_activations:
            raise ValueError(
                "blacklist_threshold must be below max_safe_activations")
        self.blacklist_threshold = blacklist_threshold
        self.max_safe_activations = max_safe_activations
        self.timings = timings
        self.filter = CountingBloomFilter(size=filter_size, rng=rng)
        self._window_start_ns = 0.0

    @staticmethod
    def _key(address: RowAddress) -> int:
        return (((address.channel * 2 + address.pseudo_channel) * 16
                 + address.bank) << 14) | address.row

    def throttle_ns(self, address: RowAddress, count: int,
                    t_on: Optional[float], now_ns: float) -> float:
        """Delay so the row cannot exceed the safe budget this window."""
        estimate = self.filter.estimate(self._key(address))
        if estimate + count <= self.blacklist_threshold:
            return 0.0
        # Pace the row: it may spend at most max_safe activations per
        # window, i.e. one activation per (tREFW / max_safe).
        pace_ns = self.timings.t_refw / self.max_safe_activations
        earliest = self._window_start_ns + estimate * pace_ns
        target = max(now_ns, earliest) + (count - 1) * max(
            0.0, pace_ns - self.timings.t_rc)
        return max(0.0, target - now_ns)

    def observe(self, address: RowAddress, count: int,
                t_on: Optional[float], now_ns: float) -> List[int]:
        self.filter.add(self._key(address), count)
        return []  # BlockHammer never refreshes; it throttles.

    def on_window_rollover(self, now_ns: float) -> None:
        self.filter.clear()
        self._window_start_ns = now_ns

    def is_blacklisted(self, address: RowAddress) -> bool:
        """Whether the row currently exceeds the blacklist threshold."""
        return self.filter.estimate(self._key(address)) \
            > self.blacklist_threshold
