"""Command-line interface: run any paper experiment, print its report and
check the paper's claims on it (:mod:`repro.bench.claims`).

Usage::

    python -m repro list
    python -m repro run fig4
    python -m repro run fig8 --fs-type f2fs --device optane
    python -m repro run all
    python -m repro trace --smoke            # instrumented Fig. 10 run:
                                             # metrics, syscall->cmd trees,
                                             # critical path, flamegraph,
                                             # flow trace
    python -m repro trace --metrics-json m.json   # + metrics registry JSON
    python -m repro bench --smoke --json BENCH_ci.json   # persist a suite run
    python -m repro bench --compare BENCH_base.json BENCH_ci.json
    python -m repro faults --smoke           # crash sweep + fault campaign
    python -m repro faults --device hdd microsd flash optane
    python -m repro fleet --volumes 64 --seed 7 --json   # defrag-as-a-service
    python -m repro fleet --smoke --volumes 8            # CI smoke fleet
    python -m repro fleet --smoke --slo                  # + SLO admission gating
    python -m repro fleet --compare FLEET_a.json FLEET_b.json
    python -m repro fleet --smoke --slo-json SLO_ci.json # + the SLO document
    python -m repro fleet --compare SLO_clean.json SLO_storm.json
    python -m repro fleet --smoke --slo-prom slo.prom    # budget gauges, Prom text
    python -m repro fleet --smoke --watch 6              # final dashboard frame
    python -m repro fleet --volumes 16 --watch 2         # frame every 2nd tick
    python -m repro replay --generate 1000000 --out t.bin --seed 7
    python -m repro replay --trace t.bin --json R.json   # reconstruct + replay
    python -m repro replay --trace blk.txt --format blktrace --pacing trace
    python -m repro replay --smoke                       # generate + replay
    python -m repro replay --compare REPLAY_a.json REPLAY_b.json
    python -m repro fleet --smoke --workload trace:t.bin # trace-driven fleet
    python -m repro runs                                 # run-ledger history
    python -m repro runs trajectory --verb fleet         # figures across runs
    python -m repro runs show 000003                     # one full manifest
"""

from __future__ import annotations

import argparse
import importlib
import sys
from typing import Dict, Tuple

from . import cli_util
from .constants import MIB
from .doc import BENCH, FLEET, REPLAY, SLO


#: name -> (module under repro.bench.experiments, help, run() kwargs).
#: ``--fs-type`` and ``--device`` override only the keys an entry names;
#: every other parameter keeps the experiment's own default.
EXPERIMENTS: Dict[str, Tuple[str, str, Dict[str, str]]] = {
    "fig2": ("fig2_background_defrag", "Figure 2: YCSB-A with background e4defrag", {}),
    "fig4": ("fig4_frag_metrics", "Figure 4 + Table 1: frag size/distance sweeps", {}),
    "sec33": ("sec33_update_sweep", "Section 3.3: update sweeps", {}),
    "fig8": ("synthetic_defrag", "Figure 8: synthetic workloads (Optane)",
             {"fs_type": "ext4", "device": "optane"}),
    "fig9": ("synthetic_defrag", "Figure 9: synthetic workloads (flash)",
             {"fs_type": "ext4", "device": "flash"}),
    "fig10": ("fig10_ycsb_rocksdb", "Figure 10: YCSB-C / LSM on aged Ext4", {}),
    "fig11": ("fig11_fileserver", "Figure 11: fileserver grep cost", {"device": "flash"}),
    "fig12": ("fig12_hotness", "Figure 12: hotness criterion sweep", {}),
    "sqlite": ("sec532_sqlite_microsd", "Section 5.3.2: SQLite on Btrfs/MicroSD", {}),
    "discard": ("sec522_discard_cost", "Section 5.2.2: discard (fstrim) cost", {}),
    "splitting": ("ablation_splitting", "ablation: request splitting mechanics",
                  {"device": "optane"}),
    "phases": ("ablation_phases", "ablation: FragPicker design choices", {}),
    "endurance": ("ext_endurance", "extension: flash wear per tool", {}),
    "pba": ("ext_pba_defrag", "extension: open-channel PBA fragmentation", {}),
    "recurrence": ("ext_recurrence", "extension: scheduled defrag routine", {}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="FragPicker (SOSP 2021) reproduction experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    runner = sub.add_parser("run", help="run one experiment (or 'all')")
    runner.add_argument("experiment", choices=sorted(EXPERIMENTS) + ["all"])
    runner.add_argument("--fs-type", default=None, choices=["ext4", "f2fs", "btrfs"])
    runner.add_argument("--device", default=None,
                        choices=["hdd", "microsd", "flash", "optane"])
    trace = sub.add_parser(
        "trace",
        help="instrumented Fig. 10 run: metrics tables, per-syscall command "
             "trees, critical path, flamegraph, and a Chrome trace with "
             "flow arrows",
    )
    trace.add_argument("--smoke", action="store_true",
                       help="small/fast variant (CI smoke test)")
    trace.add_argument("--top", type=int, default=10, metavar="N",
                       help="slowest-syscall table depth (default 10)")
    trace.add_argument("--device", default="optane",
                       choices=["hdd", "microsd", "flash", "optane"],
                       help="device model under the aged fs (default optane)")
    trace.add_argument("--out", default="trace.json",
                       help="Chrome trace_event output path ('' to skip)")
    trace.add_argument("--flame", default="flame.txt", metavar="PATH",
                       help="collapsed-stack flamegraph output ('' to skip)")
    trace.add_argument("--json", default=None, metavar="PATH",
                       help="also dump forest summary + critical path as JSON")
    trace.add_argument("--metrics-json", default=None, metavar="PATH",
                       help="also dump the metrics registry as JSON here")
    trace.add_argument("--max-events", type=int, default=262144,
                       help="event-ring capacity for the armed run "
                            "(default 262144; wraps drop oldest edges)")
    bench = sub.add_parser(
        "bench",
        help="instrumented benchmark suite: persist BENCH_*.json, compare runs",
    )
    bench.add_argument("--smoke", action="store_true",
                       help="small/fast suite variant (CI smoke job)")
    bench.add_argument("--trace", default=None, metavar="PATH",
                       help="also write the instrumented run's Chrome trace "
                            "(spans + fragmentation timeline)")
    bench.add_argument("--metrics-json", default=None, metavar="PATH",
                       help="arm the ambient obs plane for the suite and "
                            "dump its metrics registry as JSON here")
    bench.add_argument("--prom", default=None, metavar="PATH",
                       help="arm the ambient obs plane and dump Prometheus "
                            "text-format metrics here")
    cli_util.add_workers_arg(bench)
    cli_util.add_document_args(bench, "BENCH")
    cli_util.add_ledger_args(bench)
    fleet = sub.add_parser(
        "fleet",
        help="defrag-as-a-service fleet simulator: persist FLEET_*.json, "
             "compare runs",
    )
    fleet.add_argument("--volumes", type=int, default=64,
                       help="fleet size (default 64)")
    fleet.add_argument("--seed", type=int, default=0,
                       help="fleet seed (same seed => byte-identical fleet)")
    fleet.add_argument("--smoke", action="store_true",
                       help="small/fast fleet variant (CI smoke job)")
    fleet.add_argument("--ticks", type=int, default=None,
                       help="scheduler ticks to run (default: config)")
    fleet.add_argument("--budget", type=float, default=None, metavar="MIB",
                       help="fleet-wide migration budget per tick, in MiB "
                            "(0 = unthrottled; default: config)")
    fleet.add_argument("--trigger", type=float, default=None,
                       help="extents-per-file admission trigger (default: config)")
    fleet.add_argument("--max-jobs", type=int, default=None,
                       help="global concurrent defrag-job cap (default: config)")
    fleet.add_argument("--faults", action="store_true",
                       help="arm the seeded fleet fault storm (transient "
                            "errors + one mid-migration power-off)")
    fleet.add_argument("--slo", action="store_true",
                       help="arm the SLO monitor: burn-rate alerting plus "
                            "admission gating (alerting volumes jump the "
                            "queue); alerts land in the FLEET report")
    fleet.add_argument("--latency-slo-ms", type=float, default=None,
                       metavar="MS",
                       help="foreground read-latency objective for --slo "
                            "(default 2.0 ms)")
    fleet.add_argument("--slo-spec", default=None, metavar="PATH",
                       help="JSON file of SLO specs replacing the fleet "
                            "defaults ({\"slos\": [...]} or a bare list); "
                            "implies --slo")
    fleet.add_argument("--slo-json", default=None, metavar="PATH",
                       help="also write the run's repro.slo/v1 document "
                            "here; implies --slo")
    fleet.add_argument("--slo-prom", default=None, metavar="PATH",
                       help="also export budget-remaining/compliance gauges "
                            "as Prometheus text format here; implies --slo")
    fleet.add_argument("--watch", type=int, default=None, metavar="N",
                       help="print a dashboard frame every Nth tick and on "
                            "the final tick (N >= ticks: final frame only); "
                            "implies --slo")
    fleet.add_argument("--workload", default=None, metavar="KIND",
                       help="override every volume's foreground workload: "
                            "one of read_seq/read_stride/rw_mix, or "
                            "'trace:<path>' to replay a captured trace as "
                            "the foreground stream")
    fleet.add_argument("--trace", default=None, metavar="PATH",
                       help="also write the run's Chrome trace")
    fleet.add_argument("--metrics-json", default=None, metavar="PATH",
                       help="also dump the metrics registry as JSON here")
    fleet.add_argument("--prom", default=None, metavar="PATH",
                       help="also dump Prometheus text-format metrics here")
    cli_util.add_document_args(fleet, "FLEET")
    cli_util.add_ledger_args(fleet)
    replay = sub.add_parser(
        "replay",
        help="trace replay: parse a block/syscall trace, reconstruct it on "
             "a live simulated fs, persist REPLAY_*.json, compare runs",
    )
    replay.add_argument("--trace", default=None, metavar="PATH",
                        help="trace file to replay (blktrace text, CSV, or "
                             "repro.replay/v1 binary; format auto-sniffed)")
    replay.add_argument("--format", default="auto",
                        choices=["auto", "blktrace", "csv", "binary"],
                        help="trace format (default: auto-detect)")
    replay.add_argument("--fs-type", default="ext4",
                        choices=["ext4", "f2fs", "btrfs"],
                        help="filesystem personality to replay onto")
    replay.add_argument("--device", default="flash",
                        choices=["hdd", "microsd", "flash", "optane"],
                        help="device model under the fs (default flash)")
    replay.add_argument("--pacing", default="afap",
                        choices=["afap", "trace"],
                        help="afap = closed loop; trace = preserve the "
                             "trace's inter-arrival gaps (default afap)")
    replay.add_argument("--seed", type=int, default=0,
                        help="placement seed (same seed => byte-identical "
                             "reconstruction and document)")
    replay.add_argument("--generate", type=int, default=None, metavar="OPS",
                        help="generate a seeded binary corpus of OPS ops "
                             "(to --out) instead of, or before, replaying")
    replay.add_argument("--out", default="trace.bin", metavar="PATH",
                        help="output path for --generate (default trace.bin)")
    replay.add_argument("--files", type=int, default=64,
                        help="distinct files in the generated corpus")
    replay.add_argument("--smoke", action="store_true",
                        help="no trace needed: generate a small seeded "
                             "corpus in a temp dir and replay it (CI smoke)")
    cli_util.add_workers_arg(
        replay,
        help="with --generate: build the corpus in chunks across N worker "
             "processes (default: serial).  The chunked corpus is the same "
             "for every N but differs from the serial one for the same seed",
    )
    cli_util.add_document_args(replay, "REPLAY")
    cli_util.add_ledger_args(replay)
    faults = sub.add_parser(
        "faults",
        help="fault-injection survival report: crash-point sweep + seeded campaign",
    )
    faults.add_argument("--smoke", action="store_true",
                        help="fast CI variant (one device, FragPicker only)")
    faults.add_argument("--seed", type=int, default=0,
                        help="campaign seed (same seed => same storm)")
    faults.add_argument("--device", nargs="+", default=["optane"], metavar="DEV",
                        choices=["hdd", "microsd", "flash", "optane"],
                        help="device models to sweep crash points on; the "
                             "campaign runs on the first")
    faults.add_argument("--fs-type", default="ext4", choices=["ext4"],
                        help="crash sweep targets the in-place migration path")
    faults.add_argument("--json", default=None, metavar="PATH",
                        help="also write the survival report as JSON here")
    faults.add_argument("--trials", type=int, default=None, metavar="N",
                        help="also run an N-trial seed-perturbed campaign "
                             "series (fingerprinted per trial)")
    cli_util.add_ledger_args(faults)
    # the verbs that record runs: those taking the ledger flags, plus
    # ``slo``, under which ``fleet --slo-json`` records its SLO document
    # (the order of repro.obs.ledger.VERBS, without importing the ledger)
    recording = [name for name, verb in sub.choices.items()
                 if verb.get_default("no_ledger") is False]
    recording.insert(recording.index("fleet") + 1, "slo")
    runs = sub.add_parser(
        "runs",
        help="query the persistent run ledger: every document verb "
             "appends a fingerprinted manifest per run",
    )
    runs.add_argument("action", nargs="?", default="list",
                      choices=["list", "show", "trajectory"],
                      help="list = one line per run; show = full manifest "
                           "JSON; trajectory = headline figures across "
                           "runs (default: list)")
    runs.add_argument("selector", nargs="?", default=None,
                      help="for show: a sequence number or manifest "
                           "fingerprint prefix")
    runs.add_argument("--verb", default=None,
                      choices=recording,
                      help="only runs recorded by this verb")
    runs.add_argument("--ledger-dir", default=None, metavar="DIR",
                      help="run-ledger directory (default: "
                           "$REPRO_LEDGER_DIR or benchmarks/ledger)")
    return parser


def configure(name: str, fs_type=None, device=None) -> Dict[str, str]:
    """The run() keywords of ``repro run name [--fs-type T] [--device D]``."""
    config = dict(EXPERIMENTS[name][2])
    for key, value in (("fs_type", fs_type), ("device", device)):
        if key in config and value:
            config[key] = value
    return config


def run_experiment(name: str, config: Dict[str, str]):
    """Run one experiment; returns its result object."""
    module = importlib.import_module(f"repro.bench.experiments.{EXPERIMENTS[name][0]}")
    return module.run(**config)


def _run_trace(args) -> int:
    import json

    from .bench.experiments import obs_trace
    from .obs.critical_path import write_flamegraph
    from .obs.hooks import Instrumentation

    obs = Instrumentation(provenance=True, max_events=args.max_events)
    result = obs_trace.run(smoke=args.smoke, obs=obs, device=args.device)
    print(result.report(top=args.top))
    path = result.critical_path()
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(result.trace(), fh)
        print(f"\nwrote Chrome trace (with causal flow arrows) to {args.out}")
    if args.flame:
        write_flamegraph(args.flame, result.forest(), obs.spans)
        print(f"wrote collapsed-stack flamegraph to {args.flame} "
              "(feed to flamegraph.pl or speedscope)")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"schema": "repro.obs.trace/v1",
                       "provenance": result.forest().summary(),
                       "critical_path": path.to_dict()}, fh, indent=2)
        print(f"wrote trace summary JSON to {args.json}")
    cli_util.write_exports(obs.registry, args.metrics_json)
    if not path.check():
        print("critical-path check FAILED (segments do not sum to wall-clock)")
        return 1
    return 0


def _run_bench(args) -> int:
    import time

    from .bench import suite
    from .obs import hooks as obs_hooks
    from .obs.export import write_chrome_trace
    from .obs.hooks import Instrumentation

    code = cli_util.run_compare(args, BENCH)
    if code is not None:
        return code

    label, path = cli_util.document_path(args, "BENCH")
    armed = bool(args.metrics_json or args.prom)
    start = time.perf_counter()
    if armed:
        # ambient arming: worker-side telemetry is harvested back and
        # merged in shard order, so --workers N exports the same bytes
        obs = Instrumentation()
        with obs_hooks.use(obs):
            document, trace_result = suite.run_suite(
                smoke=args.smoke, label=label, obs=obs, workers=args.workers
            )
    else:
        document, trace_result = suite.run_suite(
            smoke=args.smoke, label=label, workers=args.workers
        )
    wall_s = time.perf_counter() - start
    BENCH.save(path, document)
    print(f"wrote bench document to {path} "
          f"(schema {document['schema']}, fingerprint {document['fingerprint']})")
    for figure, variants in document["figures"].items():
        print(f"  {figure}: {len(variants)} variant(s)")
    if args.trace:
        write_chrome_trace(
            args.trace, trace_result.obs.spans, trace_result.obs.registry,
            sampler=trace_result.sampler,
        )
        print(f"wrote Chrome trace to {args.trace}")
    if armed:
        cli_util.write_exports(obs.registry, args.metrics_json, args.prom)
    cli_util.record_ledger(
        args, "bench", document, label=label, wall_s=wall_s,
        extra={"smoke": args.smoke},
    )
    print()
    print(trace_result.attribution().table())
    return 0


def _fleet_config(args):
    """Build the FleetConfig ``repro fleet`` asked for; knobs left unset
    fall through to the config defaults."""
    from .fleet import FleetConfig

    overrides = {"faults": args.faults}
    if args.workload is not None:
        overrides["workload"] = args.workload
    if args.ticks is not None:
        overrides["ticks"] = args.ticks
    if args.budget is not None:
        overrides["budget_per_tick"] = (
            None if args.budget <= 0 else int(args.budget * MIB)
        )
    if args.trigger is not None:
        overrides["trigger"] = args.trigger
    if args.max_jobs is not None:
        overrides["max_jobs"] = args.max_jobs
    if args.smoke:
        return FleetConfig.smoke(
            volumes=args.volumes, seed=args.seed, **overrides
        )
    return FleetConfig(volumes=args.volumes, seed=args.seed, **overrides)


def _dashboard(config, monitor, every: int):
    """The ``--watch`` tick hook: print a frame every ``every``-th tick
    and on the final tick."""
    from .obs.dashboard import Frame, render

    def on_tick(controller, tick: int, row) -> None:
        last = tick == config.ticks - 1
        if not last and tick % every != every - 1:
            return
        frame = Frame(
            tick=tick,
            ticks_total=config.ticks,
            now=max((v.now for v in controller.volumes), default=0.0),
            volumes=len(controller.volumes),
            rows=controller.report.ticks,
            slo_summaries=monitor.fleet_summaries(),
            alerts=monitor.plane.alerts,
            firing=monitor.firing(),
            budget_per_tick=config.budget_per_tick,
        )
        print(render(frame))
        print()

    return on_tick


def _run_fleet(args) -> int:
    import time

    from .fleet import run_fleet

    code = cli_util.run_compare(args, FLEET, SLO)
    if code is not None:
        return code

    config = _fleet_config(args)
    gated = bool(args.slo or args.slo_spec or args.slo_json or args.slo_prom
                 or args.watch is not None)
    monitor = None
    if gated:
        from .fleet.slo import DEFAULT_LATENCY_SLO_S, FleetSlo
        from .obs import slo as obs_slo

        monitor = FleetSlo.for_config(
            config,
            latency_slo_s=(DEFAULT_LATENCY_SLO_S if args.latency_slo_ms is None
                           else args.latency_slo_ms / 1e3),
            specs=obs_slo.load_specs(args.slo_spec) if args.slo_spec else None,
        )
    on_tick = (
        _dashboard(config, monitor, max(1, args.watch))
        if args.watch is not None else None
    )

    armed = bool(args.trace or args.metrics_json or args.prom)
    start = time.perf_counter()
    if armed:
        from .obs import hooks as obs_hooks
        from .obs.export import write_chrome_trace

        obs = obs_hooks.Instrumentation()
        with obs_hooks.use(obs):
            report = run_fleet(config, slo=monitor, on_tick=on_tick)
    else:
        report = run_fleet(config, slo=monitor, on_tick=on_tick)
    wall_s = time.perf_counter() - start

    print(report.text())
    label, path = cli_util.document_path(args, "FLEET")
    document = report.to_dict()
    FLEET.save(path, document)
    print(f"\nwrote fleet document to {path} "
          f"(schema {document['schema']}, fingerprint {document['fingerprint']})")
    if args.trace:
        write_chrome_trace(args.trace, obs.spans, obs.registry)
        print(f"wrote Chrome trace to {args.trace}")
    if armed:
        cli_util.write_exports(obs.registry, args.metrics_json, args.prom)
    cli_util.record_ledger(
        args, "fleet", document, label=label, seed=args.seed, wall_s=wall_s,
        extra={"smoke": args.smoke, "volumes": args.volumes,
               "slo": gated, "faults": args.faults},
    )
    if args.slo_json or args.slo_prom:
        from .obs import slo as obs_slo
        from .obs.export import prometheus_text

        slo_document = monitor.document(
            label, {"kind": "fleet", "config": config.to_dict()}
        )
        obs_slo.validate(slo_document)
        print()
        print(obs_slo.report_text(slo_document))
        if args.slo_json:
            SLO.save(args.slo_json, slo_document)
            print(f"\nwrote SLO document to {args.slo_json} "
                  f"(schema {slo_document['schema']}, "
                  f"fingerprint {slo_document['fingerprint']})")
        if args.slo_prom:
            with open(args.slo_prom, "w") as fh:
                fh.write(prometheus_text(
                    obs_slo.prometheus_registry(slo_document)
                ))
            print(f"wrote Prometheus budget gauges to {args.slo_prom}")
        cli_util.record_ledger(
            args, "slo", slo_document, label=label, seed=args.seed,
            wall_s=wall_s,
            extra={"smoke": args.smoke, "volumes": args.volumes,
                   "faults": args.faults},
        )
    return 0 if report.budget_ok else 1


def _run_replay(args) -> int:
    import os
    import tempfile
    import time

    from .replay import (
        ReplayConfig, TraceProfile, generate_trace, run_replay, validate,
    )

    code = cli_util.run_compare(args, REPLAY)
    if code is not None:
        return code

    trace_path = args.trace
    if args.generate is not None:
        profile = TraceProfile(ops=args.generate, seed=args.seed,
                               files=args.files)
        written = generate_trace(args.out, profile, workers=args.workers)
        size = os.path.getsize(args.out)
        print(f"wrote {written} records ({size} bytes) to {args.out} "
              f"(seed {args.seed}, {args.files} files)")
        if trace_path is None and not args.smoke:
            return 0
        trace_path = trace_path or args.out
    elif trace_path is None and args.smoke:
        tmpdir = tempfile.mkdtemp(prefix="repro-replay-")
        trace_path = os.path.join(tmpdir, "smoke.bin")
        generate_trace(trace_path, TraceProfile(ops=20_000, seed=args.seed))
    elif trace_path is None:
        print("replay: need --trace PATH, --generate OPS, or --smoke",
              file=sys.stderr)
        return 2

    config = ReplayConfig(
        fs_type=args.fs_type, device=args.device, fmt=args.format,
        pacing=args.pacing, seed=args.seed,
    )
    start = time.perf_counter()
    result = run_replay(trace_path, config)
    wall_s = time.perf_counter() - start
    print(result.text())
    label, path = cli_util.document_path(args, "REPLAY")
    document = result.to_dict(label)
    validate(document)
    REPLAY.save(path, document)
    print(f"\nwrote replay document to {path} "
          f"(schema {document['schema']}, fingerprint {document['fingerprint']})")
    cli_util.record_ledger(
        args, "replay", document, label=label, seed=args.seed, wall_s=wall_s,
        extra={"smoke": args.smoke, "fs_type": args.fs_type,
               "device": args.device, "pacing": args.pacing},
    )
    return 0


def _run_faults(args) -> int:
    import time

    from .doc import dumps
    from .faults.campaign import survival_report

    start = time.perf_counter()
    report = survival_report(
        seed=args.seed,
        devices=args.device,
        fs_type=args.fs_type,
        smoke=args.smoke,
        trials=args.trials,
    )
    wall_s = time.perf_counter() - start
    print(report.text())
    document = report.to_dict()
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(dumps(document))
        print(f"\nwrote survival report JSON to {args.json}")
    cli_util.record_ledger(
        args, "faults", document,
        label="smoke" if args.smoke else "full",
        seed=args.seed, wall_s=wall_s,
        extra={"smoke": args.smoke, "device": args.device[0],
               "trials": args.trials},
    )
    return 0 if report.ok else 1


def _run_runs(args) -> int:
    import json
    import os

    from .obs import ledger

    runs = ledger.list_runs(args.ledger_dir, verb=args.verb)
    if args.action == "show":
        if not args.selector:
            print("runs show: need a sequence number or fingerprint prefix",
                  file=sys.stderr)
            return 2
        selector = args.selector
        matches = [
            run for run in runs
            if str(run["fingerprint"]).startswith(selector)
            or os.path.basename(str(run["path"])).split("_")[0]
            == selector.zfill(6)
        ]
        if not matches:
            print(f"runs show: no recorded run matches {selector!r}",
                  file=sys.stderr)
            return 1
        for run in matches:
            manifest = {k: v for k, v in run.items() if k != "path"}
            print(f"# {run['path']}")
            print(json.dumps(manifest, indent=2, sort_keys=True))
        return 0
    if not runs:
        print("run ledger is empty (document verbs append manifests under "
              f"{ledger.resolve_dir(args.ledger_dir)})")
        return 0
    if args.action == "trajectory":
        print(ledger.trajectory_table(runs))
    else:
        print(ledger.runs_table(runs))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "trace":
        return _run_trace(args)
    if args.command == "bench":
        return _run_bench(args)
    if args.command == "fleet":
        return _run_fleet(args)
    if args.command == "replay":
        return _run_replay(args)
    if args.command == "faults":
        return _run_faults(args)
    if args.command == "runs":
        return _run_runs(args)
    if args.command == "list":
        width = max(len(name) for name in EXPERIMENTS)
        for name in sorted(EXPERIMENTS):
            print(f"{name.ljust(width)}  {EXPERIMENTS[name][1]}")
        return 0
    from .bench import claims

    targets = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    failed = 0
    for name in targets:
        print(f"=== {name}: {EXPERIMENTS[name][1]} ===")
        config = configure(name, args.fs_type, args.device)
        result = run_experiment(name, config)
        print(result.report())
        outcomes = claims.check(name, config, result)
        if outcomes:
            print("\n" + claims.render(name, config, outcomes))
        failed += sum(not outcome.ok for outcome in outcomes)
        print()
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
