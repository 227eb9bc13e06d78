"""The pinned wall-clock suite behind ``repro perf``.

Each layer of the hot path — syscalls, extent maps, free space, the
splitter, the page cache, the device models — gets one seeded
microbenchmark, plus one end-to-end experiment run (the Figure 8/9
synthetic grid cell that funnels through every layer at once).  Every
benchmark is timed with ``time.perf_counter``; microbenchmarks run
``repeats`` times and keep the *minimum* wall time, the standard way to
strip scheduler noise from a throughput reading.

The configuration (op counts, sizes, seeds) is pinned and fingerprinted
into the document so ``repro perf --compare`` refuses to read two
different suites against each other.
"""

from __future__ import annotations

import cProfile
import pstats
import random
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..constants import BLOCK_SIZE, KIB, MIB
from . import regression


def suite_config(smoke: bool = False) -> Dict[str, object]:
    """The full parameterisation of one suite run (fingerprinted)."""
    if smoke:
        return {
            "smoke": True,
            "repeats": 2,
            "seed": 1337,
            "syscalls": {"files": 10, "chunks": 4, "chunk_kib": 64, "read_rounds": 2},
            "extent_map": {"ops": 4000},
            "free_space": {"ops": 3000},
            "page_cache": {"ops": 6000, "capacity_pages": 512},
            "splitter": {"calls": 3000, "pieces": 48},
            "splitter_batch": {"calls": 300, "runs": 8, "run_mib": 4},
            "device_models": {"batches": 200, "batch_commands": 8},
            "device_plans": {"plans": 2000, "max_pages": 64},
            "end_to_end": {"file_size_mib": 2},
        }
    return {
        "smoke": False,
        "repeats": 3,
        "seed": 1337,
        "syscalls": {"files": 24, "chunks": 6, "chunk_kib": 64, "read_rounds": 5},
        "extent_map": {"ops": 30000},
        "free_space": {"ops": 20000},
        "page_cache": {"ops": 40000, "capacity_pages": 2048},
        "splitter": {"calls": 20000, "pieces": 48},
        "splitter_batch": {"calls": 2000, "runs": 8, "run_mib": 4},
        "device_models": {"batches": 1200, "batch_commands": 8},
        "device_plans": {"plans": 12000, "max_pages": 64},
        "end_to_end": {"file_size_mib": 8},
    }


@dataclass(frozen=True)
class LayerResult:
    """One layer's reading: operations over best-of-N wall seconds."""

    name: str
    ops: int
    wall_s: float

    @property
    def ops_per_sec(self) -> float:
        return self.ops / self.wall_s if self.wall_s > 0 else 0.0

    def to_dict(self) -> Dict[str, float]:
        return {
            "ops": self.ops,
            "wall_s": self.wall_s,
            "ops_per_sec": self.ops_per_sec,
        }


def _best_of(fn: Callable[[], int], repeats: int) -> Tuple[int, float]:
    """Run ``fn`` ``repeats`` times; return (ops, minimum wall seconds)."""
    best = float("inf")
    ops = 0
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        ops = fn()
        elapsed = time.perf_counter() - t0
        best = min(best, elapsed)
    return ops, best


# ---------------------------------------------------------------------------
# layer microbenchmarks
# ---------------------------------------------------------------------------


def _bench_syscalls(cfg: Dict[str, int]) -> int:
    """Round-robin buffered writes (interleaved allocation => fragmented
    files), fsync, then repeated drop-caches + buffered/direct read sweeps:
    the paper's hot loop, counted in syscalls."""
    from ..bench.harness import fresh_fs

    fs, _ = fresh_fs("ext4", "optane")
    chunk = cfg["chunk_kib"] * KIB
    handles = [
        fs.open(f"/perf/f{i}", app="perf", create=True) for i in range(cfg["files"])
    ]
    calls = 0
    now = 0.0
    # interleave chunk writes across files so extents interleave on disk
    for c in range(cfg["chunks"]):
        for handle in handles:
            result = fs.write(handle, c * chunk, chunk, now=now)
            now = result.finish_time
            calls += 1
    for handle in handles:
        result = fs.fsync(handle, now=now)
        now = result.finish_time
        calls += 1
    size = cfg["chunks"] * chunk
    for _ in range(cfg["read_rounds"]):
        fs.drop_caches()
        for handle in handles:
            for off in range(0, size, chunk):
                result = fs.read(handle, off, chunk, now=now)
                now = result.finish_time
                calls += 1
        for handle in handles:
            result = fs.read(handle, 0, size, now=now)
            now = result.finish_time
            calls += 1
    direct = [
        fs.open(f"/perf/f{i}", o_direct=True, app="perf") for i in range(cfg["files"])
    ]
    for handle in direct:
        result = fs.read(handle, 0, size, now=now)
        now = result.finish_time
        calls += 1
    return calls


def _bench_extent_map(cfg: Dict[str, int]) -> int:
    from ..fs.extent_map import Extent, ExtentMap

    rng = random.Random(cfg.get("seed", 7))
    emap = ExtentMap()
    span_blocks = 4096
    ops = cfg["ops"]
    for _ in range(ops):
        roll = rng.random()
        offset = rng.randrange(span_blocks) * BLOCK_SIZE
        length = rng.randrange(1, 17) * BLOCK_SIZE
        if roll < 0.45:
            disk = rng.randrange(span_blocks * 4) * BLOCK_SIZE
            emap.insert(Extent(offset, disk, length))
        elif roll < 0.65:
            emap.punch(offset, length)
        elif roll < 0.90:
            emap.map_range(offset, length)
        else:
            emap.fragment_count()
    return ops


def _bench_free_space(cfg: Dict[str, int]) -> int:
    from ..errors import NoSpaceError
    from ..fs.free_space import FreeSpaceManager

    rng = random.Random(cfg.get("seed", 11))
    manager = FreeSpaceManager(0, 512 * MIB)
    held: List[Tuple[int, int]] = []
    ops = cfg["ops"]
    for _ in range(ops):
        roll = rng.random()
        if roll < 0.5 or not held:
            length = rng.randrange(1, 33) * BLOCK_SIZE
            goal = rng.randrange(0, 512 * MIB, BLOCK_SIZE) if rng.random() < 0.5 else None
            try:
                held.extend(manager.alloc(length, goal=goal))
            except NoSpaceError:
                start, length = held.pop(rng.randrange(len(held)))
                manager.free(start, length)
        elif roll < 0.9:
            start, length = held.pop(rng.randrange(len(held)))
            manager.free(start, length)
        else:
            manager.stats()
            manager.runs()
    return ops


def _bench_page_cache(cfg: Dict[str, int]) -> int:
    from ..fs.page_cache import PageCache

    rng = random.Random(cfg.get("seed", 13))
    cache = PageCache(capacity_pages=cfg["capacity_pages"])
    inodes = 32
    pages_per_ino = cfg["capacity_pages"] // 8
    ops = cfg["ops"]
    for _ in range(ops):
        roll = rng.random()
        ino = rng.randrange(inodes)
        page = rng.randrange(pages_per_ino)
        if roll < 0.4:
            cache.probe(ino, page, page)
        elif roll < 0.7:
            cache.fill(ino, range(page, page + 8))
        elif roll < 0.9:
            cache.mark_dirty(ino, range(page, page + 4))
        elif roll < 0.97:
            cache.clean(ino, cache.dirty_pages(ino))
        else:
            cache.invalidate_inode(ino)
    return ops


def _bench_splitter(cfg: Dict[str, int]) -> int:
    from ..block.request import IoOp
    from ..block.splitter import split_ranges

    rng = random.Random(cfg.get("seed", 17))
    pieces = cfg["pieces"]
    # a fragmented mapping: mostly discontiguous 4-16 KiB pieces with
    # occasional adjacency so request merging has work to do
    ranges: List[Tuple[int, int]] = []
    position = 0
    for _ in range(pieces):
        length = rng.randrange(1, 5) * BLOCK_SIZE
        if ranges and rng.random() < 0.25:
            prev_offset, prev_len = ranges[-1]
            ranges.append((prev_offset + prev_len, length))
        else:
            position += rng.randrange(2, 64) * BLOCK_SIZE
            ranges.append((position, length))
            position += length
    calls = cfg["calls"]
    for _ in range(calls):
        split_ranges(IoOp.READ, ranges, tag="perf")
    return calls


def _bench_splitter_batch(cfg: Dict[str, int]) -> int:
    """The cap-emission path in isolation: few, multi-MiB contiguous runs
    that each split into hundreds of ``MAX_REQUEST_SIZE`` commands — the
    loop the arithmetic batch emission replaced."""
    from ..block.request import IoOp
    from ..block.splitter import split_ranges

    rng = random.Random(cfg.get("seed", 19))
    run_bytes = cfg["run_mib"] * MIB
    ranges: List[Tuple[int, int]] = []
    position = 0
    for _ in range(cfg["runs"]):
        length = run_bytes + rng.randrange(0, 16) * BLOCK_SIZE
        position += rng.randrange(2, 64) * BLOCK_SIZE
        ranges.append((position, length))
        position += length
    calls = cfg["calls"]
    for _ in range(calls):
        split_ranges(IoOp.WRITE, ranges, tag="perf")
    return calls


def _bench_device_models(cfg: Dict[str, int]) -> int:
    from ..block.request import IoCommand, IoOp
    from ..device import make_device

    batches = cfg["batches"]
    per_batch = cfg["batch_commands"]
    total = 0
    for kind in ("optane", "flash", "hdd", "microsd"):
        rng = random.Random(cfg.get("seed", 23))
        device = make_device(kind)
        span = device.capacity // 2
        now = 0.0
        for index in range(batches):
            op = IoOp.WRITE if index % 3 == 0 else IoOp.READ
            commands = []
            for _ in range(per_batch):
                offset = rng.randrange(0, span // BLOCK_SIZE) * BLOCK_SIZE
                length = rng.randrange(1, 9) * BLOCK_SIZE
                commands.append(IoCommand(op, offset, length, "perf"))
            result = device.submit(commands, now)
            now = result.finish_time
            total += per_batch
    return total


def _bench_device_plans(cfg: Dict[str, int]) -> int:
    """Batch plan construction in isolation: optane's closed-form bank
    layout and the flash FTL's batch channel count, with offsets and
    page counts varied so the plan memos mostly miss."""
    from ..block.request import IoCommand, IoOp
    from ..device.flash import FlashSsd
    from ..device.optane import OptaneSsd

    rng = random.Random(cfg.get("seed", 29))
    plans = cfg["plans"]
    max_pages = cfg["max_pages"]
    optane = OptaneSsd()
    flash = FlashSsd()
    span = flash.capacity // 2
    # scatter some writes first so flash reads hit real mapping entries
    for index in range(64):
        flash._plan_command(IoCommand(
            IoOp.WRITE, (index * 37 % (span // BLOCK_SIZE)) * BLOCK_SIZE,
            rng.randrange(1, max_pages) * BLOCK_SIZE, "perf",
        ))
    for index in range(plans):
        offset = rng.randrange(0, span // BLOCK_SIZE) * BLOCK_SIZE
        length = rng.randrange(1, max_pages) * BLOCK_SIZE
        op = IoOp.WRITE if index % 3 == 0 else IoOp.READ
        optane._plan_command(IoCommand(op, offset, length, "perf"))
        flash._plan_command(IoCommand(IoOp.READ, offset, length, "perf"))
    return plans


def _run_end_to_end(cfg: Dict[str, int]) -> int:
    from ..bench.experiments import synthetic_defrag

    synthetic_defrag.run(
        "ext4", "optane",
        file_size=cfg["file_size_mib"] * MIB,
        variants=("original", "fragpicker_b"),
        patterns=("seq_read", "stride_read"),
    )
    return 1


_MICRO_BENCHES: Dict[str, Callable[[Dict[str, int]], int]] = {
    "syscalls": _bench_syscalls,
    "extent_map": _bench_extent_map,
    "free_space": _bench_free_space,
    "page_cache": _bench_page_cache,
    "splitter": _bench_splitter,
    "splitter_batch": _bench_splitter_batch,
    "device_models": _bench_device_models,
    "device_plans": _bench_device_plans,
}


def _perf_shard(payload: Tuple[str, Dict[str, int], int]) -> Tuple[str, int, float]:
    """Worker entry: one layer's best-of-N timing."""
    name, layer_cfg, repeats = payload
    bench = _MICRO_BENCHES[name]
    ops, wall = _best_of(lambda: bench(layer_cfg), repeats)
    return name, ops, wall


# ---------------------------------------------------------------------------
# profiling
# ---------------------------------------------------------------------------


def _short_func_name(func: Tuple[str, int, str]) -> str:
    filename, lineno, name = func
    if "src/" in filename:
        filename = filename.split("src/", 1)[1]
    elif "/" in filename:
        filename = filename.rsplit("/", 1)[1]
    return f"{filename}:{lineno}:{name}"


def hot_function_table(cfg: Dict[str, int], top: int = 15) -> List[Dict[str, object]]:
    """cProfile the end-to-end run; top functions by total (self) time."""
    profiler = cProfile.Profile()
    profiler.enable()
    _run_end_to_end(cfg)
    profiler.disable()
    stats = pstats.Stats(profiler)
    rows = []
    for func, (cc, nc, tottime, cumtime, _) in stats.stats.items():  # type: ignore[attr-defined]
        rows.append({
            "func": _short_func_name(func),
            "calls": nc,
            "tottime_s": round(tottime, 6),
            "cumtime_s": round(cumtime, 6),
        })
    rows.sort(key=lambda row: row["tottime_s"], reverse=True)
    return rows[:top]


# ---------------------------------------------------------------------------
# the suite
# ---------------------------------------------------------------------------


def run_suite(
    smoke: bool = False,
    label: str = "local",
    profile: bool = True,
    config: Optional[Dict[str, object]] = None,
    workers: Optional[int] = None,
    scaling: Optional[Dict[str, object]] = None,
) -> Tuple[Dict[str, object], List[LayerResult]]:
    """Run the pinned suite; returns ``(perf_document, layer_results)``.

    ``workers`` shards the layer microbenchmarks across processes
    (:mod:`repro.par`); layer results come back in suite order and the
    document's fingerprint (config-only) is unchanged — wall readings
    are wall readings either way, each timed inside its own process.
    ``scaling`` attaches a measured :func:`scaling_curve` to the
    document (recorded, never gated).
    """
    from ..par import run_sharded

    config = config if config is not None else suite_config(smoke)
    repeats = int(config["repeats"])
    seed = int(config["seed"])
    payloads = []
    for name in _MICRO_BENCHES:
        layer_cfg = dict(config[name])
        layer_cfg["seed"] = seed
        payloads.append((name, layer_cfg, repeats))
    sharded = run_sharded(
        _perf_shard, payloads, workers=workers, label="perf layer"
    )
    results = [LayerResult(name, ops, wall) for name, ops, wall in sharded]
    e2e_cfg = dict(config["end_to_end"])
    ops, wall = _best_of(lambda: _run_end_to_end(e2e_cfg), 1 if smoke else 2)
    results.append(LayerResult("end_to_end", ops, wall))
    hot_table: List[Dict[str, object]] = []
    if profile:
        hot_table = hot_function_table(suite_config(smoke=True)["end_to_end"])
    document = regression.build_document(
        label, config,
        layers={result.name: result.to_dict() for result in results},
        total_wall_s=sum(result.wall_s for result in results),
        profile=hot_table,
        scaling=scaling,
    )
    return document, results


def scaling_curve(
    worker_counts: Tuple[int, ...] = (1, 2, 4, 8),
    smoke: bool = False,
) -> Dict[str, object]:
    """Measure the parallel engine's wall-clock scaling on a pinned
    workload (a seed-7 fault-campaign series) and return it in the
    shape the PERF document records.

    ``speedup`` is serial wall over parallel wall; ``efficiency`` is
    speedup over worker count.  Purely a measurement — the sharded
    results themselves are asserted byte-identical elsewhere.
    """
    import os

    from ..faults.campaign import CampaignConfig, run_campaign_series

    trials = 8 if smoke else 32
    config = CampaignConfig(seed=7)

    def timed(workers: Optional[int]) -> float:
        t0 = time.perf_counter()
        run_campaign_series(config, trials=trials, workers=workers)
        return time.perf_counter() - t0

    serial_wall = timed(None)
    points = []
    for workers in worker_counts:
        wall = timed(workers)
        speedup = serial_wall / wall if wall > 0 else 0.0
        points.append({
            "workers": workers,
            "wall_s": wall,
            "speedup": speedup,
            "efficiency": speedup / workers,
        })
    return {
        "workload": "fault_campaign_series",
        "seed": config.seed,
        "trials": trials,
        "host_cpus": os.cpu_count(),
        "serial_wall_s": serial_wall,
        "points": points,
    }


def evaluate_slos(document, wall_budget_s=None, specs=None):
    """Post-hoc SLO evaluation over one PERF document's layer timings.

    Wall clock is noisy, so this never feeds back into the document —
    it judges an already-persisted run: each layer's wall seconds is one
    window's sample under a "stay within the per-layer wall budget"
    objective (default: 2x the run's mean layer time), and a burn alert
    means several layers in a row blew the budget.
    """
    from ..obs.slo import SloPlane, SloSpec

    layers = document.get("layers", {})
    if not layers:
        raise ValueError("document has no layers")
    if wall_budget_s is None:
        total = sum(float(entry.get("wall_s", 0.0)) for entry in layers.values())
        wall_budget_s = 2.0 * total / len(layers)
    if specs is None:
        specs = [SloSpec(
            name="layer_wall", metric="perf.wall_s",
            threshold=wall_budget_s, objective="le", target=0.75,
            fast_windows=1, slow_windows=3, fast_burn=2.0, slow_burn=1.5,
        )]
    plane = SloPlane(specs, window=1.0)
    for index, name in enumerate(sorted(layers)):
        plane.observe_at(
            "perf.wall_s", index, float(layers[name].get("wall_s", 0.0))
        )
    plane.evaluate_all()
    return plane
