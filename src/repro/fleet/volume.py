"""One fleet volume: a filesystem on its own device plus its workload.

A volume owns its virtual clock.  The controller marches every volume
through the same tick windows (relative to the volume's post-setup
epoch), so "per tick" means the same slice of virtual time on every
volume even though their absolute clocks differ after setup.

Foreground traffic is seed-keyed per volume and always includes reads —
each read's ``finish - submit`` latency lands in ``read_latencies``, the
raw material of the fleet's p50/p99 SLO.  Injected transient faults
surface to the application (counted, not retried), exactly like an EIO
reaching a real process; only power-off crashes propagate.
"""

from __future__ import annotations

import random
from typing import Dict, List

from ..constants import BLOCK_SIZE, KIB, READAHEAD_SIZE
from ..device import make_device
from ..errors import FaultError, InjectedCrash
from ..fs import make_filesystem
from ..obs.sampler import FragmentationSampler
from ..workloads.synthetic import FragmentSpec, make_fragmented_file
from .spec import DEVICE_CAPACITY, WORKLOADS, FleetConfig, VolumeSpec

#: foreground update request size
_UPDATE_SIZE = 16 * KIB


class Volume:
    """Runtime state of one simulated volume."""

    def __init__(self, spec: VolumeSpec, config: FleetConfig) -> None:
        self.spec = spec
        self.config = config
        #: per-volume instrumentation for armed fleet runs — the builder
        #: constructs the volume under ``obs_hooks.use(child)`` (so the
        #: fs/device/sampler layers capture it) and then stores the
        #: child here; None on unarmed runs
        self.obs = None
        self.device = make_device(spec.device, capacity=DEVICE_CAPACITY)
        self.fs = make_filesystem(spec.fs_type, self.device)
        now = 0.0
        for file_spec in spec.files:
            if file_spec.piece >= file_spec.size:
                frag = FragmentSpec(file_spec.size, 0)
            else:
                frag = FragmentSpec(file_spec.piece, file_spec.gap)
            now = make_fragmented_file(
                self.fs, file_spec.path, file_spec.size, frag,
                now=now, app="fleet-setup",
            )
        # drop the interleave dummies: like an aged filesystem, the gaps
        # they occupied become fragmented free space
        for file_spec in spec.files:
            dummy = file_spec.path + ".dummy"
            if self.fs.exists(dummy):
                now = self.fs.unlink(dummy, now=now).finish_time
        self.paths: List[str] = [f.path for f in spec.files]
        #: virtual clock; tick windows are relative to ``epoch``
        self.now = now
        self.epoch = now
        self.sampler = FragmentationSampler(
            self.fs, interval=config.tick_seconds / 4, paths=self.paths,
        )
        self.rng = random.Random(spec.workload_seed)
        self.read_latencies: List[float] = []
        self.fg_ops = 0
        self.fg_errors = 0
        self._handles: Dict[str, object] = {
            path: self.fs.open(path, o_direct=True, app="fg") for path in self.paths
        }
        self._scan_offsets: Dict[str, int] = {path: 0 for path in self.paths}
        self._trace_ops = None
        if spec.workload not in WORKLOADS:
            # the trace reader loads only for a ``trace:<path>`` workload
            from ..replay.workload import cycling_ops, parse_trace_workload

            trace_path = parse_trace_workload(spec.workload)
            if trace_path is not None:
                # every volume re-reads the same trace; records are mapped
                # onto this volume's own file set (file_id % files) so the
                # stream is shareable across heterogeneous volumes
                self._trace_ops = cycling_ops(trace_path)

    # -- observability -------------------------------------------------

    def scope(self):
        """Context installing this volume's instrumentation (if any).

        Live ``obs_hooks.current()`` readers — the concurrency engine's
        actor events, journal recovery, job construction — must run
        inside this scope so they record onto this volume's plane, not
        the ambient one.
        """
        from contextlib import nullcontext

        from ..obs import hooks as obs_hooks

        return obs_hooks.use(self.obs) if self.obs is not None else nullcontext()

    # -- tick geometry -------------------------------------------------

    def window(self, tick: int):
        """This volume's [start, end) virtual window for ``tick``."""
        dt = self.config.tick_seconds
        return self.epoch + tick * dt, self.epoch + (tick + 1) * dt

    # -- fragmentation census ------------------------------------------

    def frag_level(self) -> float:
        """Sample now; returns the mean extents-per-file reading."""
        return self.sampler.sample(self.now)["frag.extents_per_file"]

    # -- foreground workload -------------------------------------------

    def _trace_op(self):
        """The next trace-driven op (workload ``trace:<path>``).

        Trace entities land on this volume's file set by residue
        (``file_id % files``); ranges are clamped to the target file so
        any trace drives any volume.  Returns ``(op, path, offset,
        length)``.
        """
        record = next(self._trace_ops)
        path = self.paths[record.file_id % len(self.paths)]
        if record.op == "fsync":
            return "fsync", path, 0, 0
        size = self.fs.inode_of(path).size
        length = max(BLOCK_SIZE, min(record.size, size))
        length -= length % BLOCK_SIZE
        offset = record.offset % max(BLOCK_SIZE, size - length + 1)
        offset -= offset % BLOCK_SIZE
        return ("read" if record.op == "read" else "write"), path, offset, length

    def _mix_op(self):
        """The next op of the seed-keyed workload mix, as ``(op, path,
        offset, length)``."""
        path = self.rng.choice(self.paths)
        size = self.fs.inode_of(path).size
        workload = self.spec.workload
        if workload != "rw_mix" or self.rng.random() < 0.5:
            request = min(READAHEAD_SIZE, size)
            if workload == "read_seq":
                offset = self._scan_offsets[path]
                self._scan_offsets[path] = (
                    0 if offset + 2 * request > size else offset + request
                )
            else:
                slots = max(1, size // request)
                offset = self.rng.randrange(slots) * request
            return "read", path, offset, request
        slots = max(1, (size - _UPDATE_SIZE) // BLOCK_SIZE + 1)
        offset = self.rng.randrange(slots) * BLOCK_SIZE
        offset = min(offset, size - _UPDATE_SIZE)
        return "write", path, offset, _UPDATE_SIZE

    def _one_op(self, now: float) -> float:
        """One foreground op at ``now``; returns its finish time."""
        op, path, offset, length = (
            self._trace_op() if self._trace_ops is not None else self._mix_op()
        )
        handle = self._handles[path]
        try:
            if op == "read":
                result = self.fs.read(handle, offset, length, now=now)
                self.read_latencies.append(result.finish_time - now)
            elif op == "write":
                result = self.fs.write(handle, offset, length, now=now)
            else:
                result = self.fs.fsync(handle, now=now)
        except InjectedCrash:
            raise
        except FaultError:
            # an EIO reached the application; it moves on to the next op
            self.fg_errors += 1
            self.fg_ops += 1
            return now
        self.fg_ops += 1
        return result.finish_time

    def run_foreground(self, until: float, max_ops: int) -> None:
        """Issue ops until the window closes or the op budget is spent."""
        now = self.now
        ops = 0
        while now < until and ops < max_ops:
            now = self._one_op(now)
            ops += 1
        self.now = max(now, until)

    def foreground_actor(self, until: float, max_ops: int):
        """Co-running form of :meth:`run_foreground` (one yield per op),
        for interleaving with a defrag job on the shared device."""
        def _run(ctx):
            ops = 0
            while ctx.now < until and ops < max_ops:
                ctx.now = self._one_op(ctx.now)
                ops += 1
                yield
        return _run

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        self.sampler.detach()
