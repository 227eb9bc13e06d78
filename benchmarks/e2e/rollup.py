"""Roll cProfile self time up into the ``repro`` layers.

Every profiled function's self time goes to exactly one place:

- a function defined under ``repro/<layer>/`` to that layer; ``repro``'s
  other modules (bench, par, types, the CLI) and the benchmark's own
  files to ``other``;
- any other function (stdlib, builtins, numpy) to the layers of its
  callers, in proportion to the self time cProfile measured per caller,
  followed through stdlib-to-stdlib calls until a layer is reached.

One function's shares always sum to 1, so the layer self times partition
the profiled total by construction, as the latency components of
``repro.obs.analysis.Attribution`` partition a syscall's latency.
"""

from __future__ import annotations

import math
import os
from collections import defaultdict
from typing import Dict, List, Optional, Set, Tuple

from spec import ALL_LAYERS, LAYERS, OTHER

#: cProfile's function key: (filename, first line, name)
Func = Tuple[str, int, str]

#: ``Filesystem`` syscall methods (``fs/base.py``) counted by ``fs.syscalls``
SYSCALLS = ("open", "read", "write", "fsync", "fallocate", "truncate", "unlink")

#: the residual the split may leave, relative to the profiled total
TOLERANCE = 1e-6

TOP_FUNCTIONS = 15


class Rollup:
    """Layer attribution over one ``pstats.Stats(...).stats`` table."""

    def __init__(self, stats: Dict[Func, tuple], repro_root: str, bench_root: str) -> None:
        self.stats = stats
        self.repro_root = os.path.normpath(repro_root) + os.sep
        self.bench_root = os.path.normpath(bench_root) + os.sep
        self.home = {func: self._home(func) for func in stats}
        self._memo: Dict[Func, Dict[str, float]] = {}

    def _in_repro(self, filename: str) -> Optional[str]:
        """``filename`` relative to the ``repro`` package, if inside it."""
        filename = os.path.normpath(filename)
        if filename.startswith(self.repro_root):
            return filename[len(self.repro_root):]
        return None

    def _home(self, func: Func) -> Optional[str]:
        """The layer that owns ``func``; None for code charged to callers."""
        rel = self._in_repro(func[0])
        if rel is not None:
            package = rel.split(os.sep)[0]
            return package if package in LAYERS else OTHER
        if os.path.normpath(func[0]).startswith(self.bench_root):
            return OTHER
        return None

    def shares(self, func: Func, active: Optional[Set[Func]] = None) -> Dict[str, float]:
        """How ``func``'s self time divides between layers (sums to 1)."""
        home = self.home[func]
        if home is not None:
            return {home: 1.0}
        if func in self._memo:
            return self._memo[func]
        active = set() if active is None else active
        active.add(func)
        callers = [(caller, entry) for caller, entry in self.stats[func][4].items()
                   if caller in self.stats and caller not in active]
        # weigh callers by the self time spent on their behalf; fall back
        # to call counts when every call was too short to register
        weights = [entry[2] for _, entry in callers]
        if not math.fsum(weights) > 0.0:
            weights = [entry[1] for _, entry in callers]
        total = math.fsum(weights)
        result: Dict[str, float] = defaultdict(float)
        if total > 0.0:
            for (caller, _), weight in zip(callers, weights):
                for layer, share in self.shares(caller, active).items():
                    result[layer] += share * weight / total
        else:
            result[OTHER] = 1.0
        active.discard(func)
        self._memo[func] = dict(result)
        return self._memo[func]

    def layer_of(self, func: Func) -> str:
        """The owning layer, or the one charged most for a stdlib function."""
        shares = self.shares(func)
        return max(sorted(shares), key=shares.__getitem__)

    def split(self) -> Dict[str, object]:
        """Per-layer self time, share and cross-layer calls, plus checks."""
        pieces: Dict[str, List[float]] = {layer: [] for layer in ALL_LAYERS}
        calls_in = {layer: 0 for layer in ALL_LAYERS}
        syscalls = 0
        for func, (_, ncalls, tottime, _, callers) in self.stats.items():
            for layer, share in self.shares(func).items():
                pieces[layer].append(tottime * share)
            home = self.home[func]
            if home is None:
                continue
            for caller, entry in callers.items():
                if caller in self.stats and self.layer_of(caller) != home:
                    calls_in[home] += entry[1]
            if self._is_syscall(func):
                syscalls += ncalls
        total = math.fsum(row[2] for row in self.stats.values())
        self_s = {layer: math.fsum(values) for layer, values in pieces.items()}
        residual = total - math.fsum(self_s.values())
        return {
            "total_s": total,
            "residual_rel": abs(residual) / total if total else 0.0,
            "layers": {
                layer: {
                    "self_s": self_s[layer],
                    "self_share": self_s[layer] / total if total else 0.0,
                    "calls_in": calls_in[layer],
                }
                for layer in ALL_LAYERS
            },
            "fs_syscalls": syscalls,
            "top": self.top(),
        }

    def _is_syscall(self, func: Func) -> bool:
        rel, name = self._in_repro(func[0]), func[2]
        return (rel == os.path.join("fs", "base.py") and name in SYSCALLS) or (
            rel == os.path.join("fs", "fiemap.py") and name == "fiemap"
        )

    def top(self, count: int = TOP_FUNCTIONS) -> List[Dict[str, object]]:
        """The functions with the most self time, tagged with their layer."""
        ranked = sorted(self.stats.items(), key=lambda item: item[1][2], reverse=True)
        rows = []
        for func, (_, ncalls, tottime, cumtime, _) in ranked[:count]:
            filename, line, name = func
            rel = self._in_repro(filename)
            if rel is not None:
                where = f"repro/{rel}:{line}"
            else:
                where = os.path.basename(filename) + (f":{line}" if line else "")
            rows.append({
                "function": f"{where}({name})",
                "layer": self.layer_of(func),
                "charged_to_caller": self.home[func] is None,
                "calls": ncalls,
                "self_s": tottime,
                "cum_s": cumtime,
            })
        return rows
