"""The paper's shape claims, one row each, and the one evaluator for them.

A row names the ``repro run`` experiment and the run() keywords
(``--fs-type``/``--device``) it holds for, its EXPERIMENTS.md id and
paper section, the paper's number ("—" where it gives none) and the
check ``lhs relation [factor *] rhs``.  An operand is a number or a
dotted path into the result: attributes, mapping keys and list indices,
with methods called.  ``*`` fans out over a mapping or list as in
:mod:`repro.doc`; two fanned-out sides pair element by element.
``repro run`` prints :func:`render` after each report and exits 1 on a
failing row; ``benchmarks/test_claims.py`` checks every configuration.
"""

from __future__ import annotations

import operator
from typing import Dict, List, NamedTuple, Tuple

RELATIONS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge, "==": operator.eq}

#: a measured value this close to zero prints as 0: it is float noise
#: (say, two throughputs equal up to rounding), and its digits would
#: change with any reordering of the arithmetic behind it
NOISE = 1e-9


class Claim(NamedTuple):
    experiment: str
    on: Dict[str, Tuple[str, ...]]
    eid: str
    section: str
    text: str
    paper: str
    check: str

    @property
    def bound(self) -> str:
        """``> 0.03`` against a number, ``< 0.75×`` against a path."""
        _, relation, *rhs = self.check.split()
        return f"{relation} {rhs[-1]}" if _is_number(rhs[-1]) else f"{relation} {rhs[0] if rhs[1:] else 1}×"


class Outcome(NamedTuple):
    claim: Claim
    key: str      # the fanned-out element, "" for a scalar row
    ours: float   # the left side, as a ratio to the right one when that is a path
    ok: bool


def _claims(*entries) -> List[Claim]:
    """A 4-tuple ``(experiment, on, eid, section)`` heads the rows after it."""
    rows, group = [], ()
    for entry in entries:
        group = entry if len(entry) == 4 else group
        rows += [Claim(*group, *entry)] if len(entry) == 3 else []
    return rows


CLAIMS = _claims(
    ("fig2", {}, "E1", "Fig 2"),
    ("e4defrag degrades co-running YCSB-A", "0.32", "runs.e4defrag.degradation > 0.03"),
    ("e4defrag disruption vs FragPicker's", "—",
     "runs.e4defrag.defrag_elapsed > 2.0 * runs.fragpicker.defrag_elapsed"),
    ("YCSB-A recovers after e4defrag", "recovers", "runs.e4defrag.after_ops > 0.7 * runs.e4defrag.before_ops"),
    ("YCSB-A recovers after FragPicker", "—", "runs.fragpicker.after_ops > 0.7 * runs.fragpicker.before_ops"),
    ("e4defrag timeline samples", "—", "runs.e4defrag.samples >= 5"),
    ("fig4", {}, "E2/E3", "Fig 4, Table 1"),
    ("CC(frag size) below 128 KiB", "0.84–0.99", "sweeps.*.table1_row.cc_size_before > 0.6"),
    ("NLRS(frag size) after vs before 128 KiB", "0.0002–0.005",
     "modern.*.table1_row.nlrs_size_after < 0.1 * modern.*.table1_row.nlrs_size_before"),
    ("NLRS(frag distance) magnitude vs NLRS(frag size)", "~0",
     "modern.*.distance_slope < 0.01 * modern.*.table1_row.nlrs_size_before"),
    ("HDD NLRS past 128 KiB vs flash NLRS below", "7.1",
     "sweeps.hdd.table1_row.nlrs_size_after > sweeps.flash.table1_row.nlrs_size_before"),
    ("CC(frag distance) HDD", "-0.53", "sweeps.hdd.table1_row.cc_distance < -0.4"),
    ("MicroSD NLRS vs flash NLRS (no queuing)", "13.6",
     "sweeps.microsd.table1_row.nlrs_size_before > sweeps.flash.table1_row.nlrs_size_before"),
    ("Optane NLRS vs flash NLRS (kernel overhead)", "3.5",
     "sweeps.optane.table1_row.nlrs_size_before > sweeps.flash.table1_row.nlrs_size_before"),
    ("MicroSD 512 KiB vs 128 KiB fragments (mapping cache)", "> 1",
     "sweeps.microsd.size_curve.524288 > sweeps.microsd.size_curve.131072"),
    ("sec33", {}, "E4", "§3.3"),
    ("Optane update NLRS below 128 KiB", "0.0072", "summary.optane.update_nlrs > 0.001"),
    ("Flash update NLRS vs flash read NLRS", "0.57", "summary.flash.update_nlrs < summary.flash.read_nlrs"),
    ("Optane vs flash update NLRS", "4.5", "summary.optane.update_nlrs > summary.flash.update_nlrs"),
    ("fig8", {"device": ("optane",)}, "E5", "Fig 8"),
    ("Seq read, Conv. vs original", "1.75",
     "cells.conv.seq_read.throughput_mbps > 1.2 * cells.original.seq_read.throughput_mbps"),
    ("Seq read, FragPicker vs Conv.", "0.98–1",
     "cells.fragpicker.seq_read.throughput_mbps > 0.95 * cells.conv.seq_read.throughput_mbps"),
    ("Stride read, FragPicker vs Conv.", "0.98–1",
     "cells.fragpicker.stride_read.throughput_mbps > 0.95 * cells.conv.stride_read.throughput_mbps"),
    ("Seq writes, FragPicker vs Conv.", "~0.5",
     "cells.fragpicker.seq_read.defrag_write_mb < 0.75 * cells.conv.seq_read.defrag_write_mb"),
    ("Stride writes, FragPicker vs Conv.", "~0.27",
     "cells.fragpicker.stride_read.defrag_write_mb < 0.60 * cells.conv.stride_read.defrag_write_mb"),
    ("fig8", {"device": ("optane",), "fs_type": ("ext4", "f2fs")}, "E5", "Fig 8a-b"),
    ("Seq update, FragPicker vs original (in-place)", "1.73 Ext4, 1.60–1.79 F2FS",
     "cells.fragpicker.seq_update.throughput_mbps > 1.2 * cells.original.seq_update.throughput_mbps"),
    ("Seq update, FragPicker vs Conv.", "0.98–1",
     "cells.fragpicker.seq_update.throughput_mbps > 0.95 * cells.conv.seq_update.throughput_mbps"),
    ("Seq read, FragPicker-B vs FragPicker", "~1",
     "cells.fragpicker_b.seq_read.throughput_mbps > 0.98 * cells.fragpicker.seq_read.throughput_mbps"),
    ("Stride read, FragPicker-B vs FragPicker", "0.88",
     "cells.fragpicker_b.stride_read.throughput_mbps < cells.fragpicker.stride_read.throughput_mbps"),
    ("Stride writes, FragPicker-B vs FragPicker", "1.45",
     "cells.fragpicker_b.stride_read.defrag_write_mb > cells.fragpicker.stride_read.defrag_write_mb"),
    ("fig8", {"device": ("optane",), "fs_type": ("btrfs",)}, "E5", "Fig 8c"),
    ("Btrfs seq update change after Conv. (CoW)", "0",
     "conv_update_change < 0.05 * cells.original.seq_update.throughput_mbps"),
    ("Stride read, Conv.-T vs FragPicker", "0.87",
     "cells.conv_t.stride_read.throughput_mbps < 0.99 * cells.fragpicker.stride_read.throughput_mbps"),
    ("Stride writes, Conv.-T vs FragPicker", "~2",
     "cells.conv_t.stride_read.defrag_write_mb > cells.fragpicker.stride_read.defrag_write_mb"),
    ("fig9", {"device": ("flash",), "fs_type": ("ext4", "f2fs")}, "E6", "Fig 9"),
    ("Seq read, FragPicker vs original", "1.30",
     "cells.fragpicker.seq_read.throughput_mbps > 1.10 * cells.original.seq_read.throughput_mbps"),
    ("Seq read gain stays moderate on flash", "1.30 (Optane 1.75)",
     "cells.fragpicker.seq_read.throughput_mbps < 2.0 * cells.original.seq_read.throughput_mbps"),
    ("Seq update gain vs seq read gain", "0.90", "gains.seq_update < gains.seq_read"),
    ("Seq read, FragPicker vs Conv.", "~1",
     "cells.fragpicker.seq_read.throughput_mbps > 0.95 * cells.conv.seq_read.throughput_mbps"),
    ("Stride read, FragPicker vs Conv.", "> 1",
     "cells.fragpicker.stride_read.throughput_mbps > 0.98 * cells.conv.stride_read.throughput_mbps"),
    ("Seq writes, FragPicker vs Conv.", "—",
     "cells.fragpicker.seq_read.defrag_write_mb < 0.75 * cells.conv.seq_read.defrag_write_mb"),
    ("discard", {}, "E7", "§5.2.2"),
    ("fstrim cost, defragmented vs fragmented", "0.51", "cost.fragpicker < 0.6 * cost.original"),
    ("Discard commands, defragmented vs fragmented", "—", "commands.fragpicker < 0.2 * commands.original"),
    ("fig10", {}, "E8", "Fig 10"),
    ("DB fragments per table before defrag", "avg frag ~7 KiB", "runs.e4defrag.fragments_before > 20"),
    ("DB fragments per table after e4defrag", "—", "runs.e4defrag.fragments_after <= 2"),
    ("Throughput after e4defrag vs before", "0.201", "runs.e4defrag.improvement_after > 0.05"),
    ("Throughput after FragPicker vs before", "—", "runs.fragpicker.improvement_after > 0.03"),
    ("Post-defrag gap, FragPicker vs e4defrag", "0.034", "post_defrag_gap < 0.10"),
    ("Defrag elapsed, FragPicker vs e4defrag", "0.16",
     "runs.fragpicker.defrag_elapsed < 0.3 * runs.e4defrag.defrag_elapsed"),
    ("Defrag I/O, FragPicker vs e4defrag", "0.34",
     "runs.fragpicker.total_io_mb < 0.6 * runs.e4defrag.total_io_mb"),
    ("Analysis-phase throughput drop", "0.014", "analysis_drop < 0.05"),
    ("sqlite", {}, "E9", "§5.3.2"),
    ("SELECT time, FragPicker vs fragmented", "0.15", "runs.fragpicker.select_elapsed < 0.4 * select_before"),
    ("SELECT elapsed, FragPicker vs btrfs.defragment", "1.035",
     "runs.fragpicker.select_elapsed < 1.05 * conventional.select_elapsed"),
    ("Defrag reads, FragPicker vs btrfs.defragment", "0.34",
     "runs.fragpicker.defrag_read_mb < 0.5 * conventional.defrag_read_mb"),
    ("Defrag writes, FragPicker vs btrfs.defragment", "0.32",
     "runs.fragpicker.defrag_write_mb < 0.5 * conventional.defrag_write_mb"),
    ("Co-running FIO, FragPicker vs btrfs.defragment", "~2",
     "runs.fragpicker.fio_mbps > 1.5 * conventional.fio_mbps"),
    ("fig11", {"device": ("flash", "optane")}, "E10", "Fig 11"),
    ("Fragments per file before defrag", "1068 / 1395", "fragments_before > 30"),
    ("Grep cost, FragPicker vs original", "0.71 / 0.63",
     "cells.fragpicker.grep_cost < 0.85 * cells.original.grep_cost"),
    ("Grep cost, FragPicker vs Conv.", "~1.02", "cells.fragpicker.grep_cost < 1.05 * cells.conv.grep_cost"),
    ("Defrag writes, FragPicker vs Conv.", "0.48 / 0.56",
     "cells.fragpicker.defrag_write_mb < 0.70 * cells.conv.defrag_write_mb"),
    ("Fragments per file after FragPicker", "2.48 / 1.77", "cells.fragpicker.avg_fragments < 8"),
    ("fig12", {}, "E11", "Fig 12"),
    ("Uniform throughput, top 100% vs 10%", "rises",
     "sweeps.uniform.-1.throughput_mbps > 1.1 * sweeps.uniform.0.throughput_mbps"),
    ("Uniform writes, top 100% vs 10%", "rise", "sweeps.uniform.-1.write_mb > 2.0 * sweeps.uniform.0.write_mb"),
    ("Top 10%/100% throughput ratio, zipfian minus uniform", "—", "ratio_gap > 0.05"),
    ("Zipfian: top 10%/100% throughput ratio", "~1", "ratios.zipfian > 0.75"),
    ("Writes, zipfian vs uniform, per criterion", "tiny (0.7 MB)",
     "sweeps.zipfian.*.write_mb < 0.6 * sweeps.uniform.*.write_mb"),
    ("Zipfian: top 10% vs the fragmented original", "—",
     "sweeps.zipfian.0.throughput_mbps > 1.05 * original_mbps.zipfian"),
    ("splitting", {"device": ("optane",)}, "E12", "ablation"),
    ("Commands per 128 KiB syscall, 4 KiB fragments", "32", "by_size.4096.commands_per_syscall == 32.0"),
    ("Commands per 128 KiB syscall, 128 KiB fragments", "1", "by_size.131072.commands_per_syscall == 1.0"),
    ("Kernel time, 4 KiB vs 128 KiB fragments", "—",
     "by_size.4096.kernel_time_us > 20 * by_size.131072.kernel_time_us"),
    ("Steps where latency rises with fragment size", "—", "latency_rises == 0"),
    ("phases", {}, "E13", "ablation"),
    ("Every variant vs the original", "—", "cells.*.throughput_mbps > 1.2 * original_mbps"),
    ("Writes with vs without fragmentation checking", "—", "cells.full.write_mb < cells.no_check.write_mb"),
    ("Throughput with vs without fragmentation checking", "—",
     "cells.full.throughput_mbps > 0.98 * cells.no_check.throughput_mbps"),
    ("endurance", {}, "E14", "§6 (extension)"),
    ("Flash pages programmed, FragPicker vs conventional", "—",
     "cells.fragpicker.pages_programmed < 0.75 * cells.conventional.pages_programmed"),
    ("Host writes, FragPicker vs conventional", "—",
     "cells.fragpicker.host_write_mb < 0.75 * cells.conventional.host_write_mb"),
    ("pba", {}, "E15", "§6 (extension)"),
    ("Channel-concentrated vs balanced read", "—", "conflicted_mbps < 0.5 * balanced_mbps"),
    ("Channel imbalance before", "—", "imbalance_before > 4.0"),
    ("Ranges stock FragPicker migrates", "0 (its stated limit)", "stock_migrated == 0"),
    ("Stock FragPicker vs channel-concentrated read", "—", "stock_fragpicker_mbps < 1.05 * conflicted_mbps"),
    ("Ranges PBA-aware FragPicker migrates", "—", "pba_migrated > 0"),
    ("PBA-aware FragPicker vs balanced read", "—", "pba_fragpicker_mbps > 0.9 * balanced_mbps"),
    ("Channel imbalance after", "—", "imbalance_after < 1.5"),
    ("recurrence", {}, "E16", "§2.4 (extension)"),
    ("Cumulative writes, FragPicker vs e4defrag", "—",
     "runs.fragpicker.total_write_mb < 0.6 * runs.e4defrag.total_write_mb"),
    ("Flash pages programmed, FragPicker vs e4defrag", "—",
     "runs.fragpicker.pages_programmed < 0.7 * runs.e4defrag.pages_programmed"),
    ("Final grep cost, FragPicker vs e4defrag", "—",
     "runs.fragpicker.final_grep_cost < 1.15 * runs.e4defrag.final_grep_cost"),
    ("FragPicker writes, last cycle vs first", "—",
     "runs.fragpicker.per_cycle_write_mb.-1 < runs.fragpicker.per_cycle_write_mb.0"),
)


def _is_number(token: str) -> bool:
    return token.lstrip("-")[:1].isdigit()


def _step(node, segment: str):
    if isinstance(node, dict):
        node = node[segment] if segment in node else node[int(segment)]
    else:
        node = node[int(segment)] if segment.lstrip("-").isdigit() else getattr(node, segment)
    return node() if callable(node) else node


def _operand(result, token: str) -> List[Tuple[str, float]]:
    """``(fan-out key, value)`` for each value the operand names."""
    if _is_number(token):
        return [("", float(token))]
    items = [("", result)]
    for segment in token.split("."):
        if segment == "*":
            items = [(f"{key}.{sub}" if key else str(sub), value) for key, node in items
                     for sub, value in (node.items() if isinstance(node, dict) else enumerate(node))]
        else:
            items = [(key, _step(node, segment)) for key, node in items]
    return items


def evaluate(claim: Claim, result) -> List[Outcome]:
    """Check one row against ``result``; a path that names nothing raises."""
    lhs, relation, *rhs = claim.check.split()
    compare, factor = RELATIONS[relation], float(rhs[0]) if len(rhs) == 3 else None
    left, right = _operand(result, lhs), _operand(result, rhs[-1])
    left = left if "*" in lhs else left * len(right)
    right = right if "*" in rhs[-1] else right * len(left)
    if not left or len(left) != len(right):
        raise ValueError(f"{claim.check!r}: the sides name {len(left)} and {len(right)} values")
    ratio = not _is_number(rhs[-1])
    return [Outcome(claim, lkey or rkey, l / r if ratio and r else l,
                    compare(l, r if factor is None else factor * r))
            for (lkey, l), (rkey, r) in zip(left, right)]


def check(experiment: str, config: Dict[str, str], result) -> List[Outcome]:
    """Every row that holds for ``repro run experiment`` with ``config``."""
    return [outcome for claim in CLAIMS if claim.experiment == experiment
            and all(config.get(key) in values for key, values in claim.on.items())
            for outcome in evaluate(claim, result)]


def render(experiment: str, config: Dict[str, str], outcomes: List[Outcome]) -> str:
    """The table ``repro run`` prints and EXPERIMENTS.md holds."""
    flags = "".join(f" --{key.replace('_', '-')} {value}" for key, value in config.items())
    eids = ", ".join(dict.fromkeys(o.claim.eid for o in outcomes))
    sections = ", ".join(dict.fromkeys(o.claim.section for o in outcomes))
    lines = [f"Claims ({eids}: {sections}): `repro run {experiment}{flags}`", "",
             "| claim | paper | ours | bound | ok |", "|---|---|---|---|---|"]
    for o in outcomes:
        text = f"{o.claim.text} [{o.key}]" if o.key else o.claim.text
        ours = 0.0 if abs(o.ours) < NOISE else o.ours
        lines.append(f"| {text} | {o.claim.paper} | {ours:.4g} | {o.claim.bound} | "
                     f"{'ok' if o.ok else 'FAIL'} |")
    return "\n".join(lines)
