"""YCSB-style workloads over the LSM store.

Workload A (50% read / 50% update, zipfian) and workload C (100% read,
zipfian) — the two mixes the paper uses (Figures 2 and 10).  Provides both
a synchronous runner and a co-running actor that records an
operations-per-second timeline.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Tuple

from ..errors import InvalidArgument
from .distributions import UniformKeys, ZipfianKeys
from .kvstore import LsmStore


#: skew of the zipfian key distribution
ZIPF_THETA = 0.99
#: application CPU per operation (request parsing, memtable work, ...)
OP_CPU = 0.00003


@dataclass(frozen=True)
class YcsbConfig:
    record_count: int = 100_000
    value_size: int = 1024
    read_proportion: float = 1.0
    update_proportion: float = 0.0
    distribution: str = "zipfian"  # "zipfian" | "uniform"
    seed: int = 42

    def __post_init__(self) -> None:
        if abs(self.read_proportion + self.update_proportion - 1.0) > 1e-9:
            raise InvalidArgument("proportions must sum to 1")


WORKLOAD_A = YcsbConfig(read_proportion=0.5, update_proportion=0.5)
WORKLOAD_C = YcsbConfig(read_proportion=1.0, update_proportion=0.0)


def _key(i: int) -> bytes:
    return b"user%012d" % i


class YcsbWorkload:
    """Load + run YCSB operations against an :class:`LsmStore`."""

    def __init__(self, store: LsmStore, config: YcsbConfig = WORKLOAD_C) -> None:
        self.store = store
        self.config = config
        self._op_rng = random.Random(config.seed ^ 0x5EED)
        self._value_rng = random.Random(config.seed ^ 0xDA7A)
        if config.distribution == "zipfian":
            self._keys = ZipfianKeys(config.record_count, ZIPF_THETA, config.seed)
        elif config.distribution == "uniform":
            self._keys = UniformKeys(config.record_count, config.seed)
        else:
            raise InvalidArgument(f"unknown distribution {config.distribution!r}")

    # -- load phase ----------------------------------------------------------

    def load(self, now: float = 0.0) -> float:
        """Insert every record, then flush (the YCSB load phase)."""
        for i in range(self.config.record_count):
            now = self.store.put(_key(i), self._value(), now=now)
        return self.store.flush(now)

    def _value(self) -> bytes:
        return self._value_rng.randbytes(self.config.value_size)

    # -- run phase -------------------------------------------------------------

    def one_op(self, now: float) -> Tuple[float, bool]:
        """Execute one operation; returns (finish, was_read)."""
        now += OP_CPU
        key = _key(self._keys.next())
        if self._op_rng.random() < self.config.read_proportion:
            now, value = self.store.get(key, now=now)
            return now, True
        return self.store.put(key, self._value(), now=now), False

    def run_ops(self, ops: int, now: float = 0.0) -> Tuple[float, float]:
        """Run ``ops`` operations; returns (finish, ops/sec)."""
        start = now
        for _ in range(ops):
            now, _ = self.one_op(now)
        return now, ops / (now - start) if now > start else 0.0

    def actor(self, duration: Optional[float] = None, max_ops: Optional[int] = None):
        """Co-running actor: one yield per op, completions on the timeline."""
        if duration is None and max_ops is None:
            raise InvalidArgument("actor needs a duration or an op budget")

        def _run(ctx):
            done = 0
            end = None if duration is None else ctx.now + duration
            while (end is None or ctx.now < end) and (max_ops is None or done < max_ops):
                ctx.now, _ = self.one_op(ctx.now)
                ctx.record()
                done += 1
                yield
        return _run
