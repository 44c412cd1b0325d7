#!/usr/bin/env python3
"""Perf-smoke floor checks for the CI pipeline.

Compares a freshly measured BENCH_1.json (per-alert solve-chain throughput)
against the committed baseline and sanity-checks BENCH_2.json (the scenario
registry replay, the service front door, durability, and the network load
run). Floors are deliberately generous — CI runners are noisy — so only
real regressions (a solver fallen off its fast path, an accidentally
quadratic replay) trip them.

The checks are grouped into named sections selectable with `--sections`
(comma-separated), so each CI job gates exactly the reports it produced:
the perf-smoke job runs everything, the network-smoke job runs only
`service_network`. Every section is isolated: a malformed or truncated
report fails its own section's checks and the run still prints every other
section's verdicts, so one broken file can never mask the rest of the
report. Exit status is non-zero on any violation; every check prints
PASS/FAIL so the workflow log reads as a report.
"""

import argparse
import json
import sys

SECTIONS = (
    "bench1",
    "scenarios",
    "service_concurrent",
    "durability",
    "sharding",
    "cluster",
    "service_network",
    "service_chaos",
)

failures = []


def check(label, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {label}: {detail}")
    if not ok:
        failures.append(label)


def load_json(path, label):
    """Load a report, charging unreadability to `label` instead of dying."""
    if not path:
        return None
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        check(f"{label}.readable", False, f"{path}: {e}")
        return None


def check_bench1(baseline, fresh, floor):
    """BENCH_1: solve-chain throughput and streaming latency."""
    floor_aps = baseline["alerts_per_sec"] * floor
    check(
        "throughput.alerts_per_sec",
        fresh["alerts_per_sec"] >= floor_aps,
        f'{fresh["alerts_per_sec"]:.0f} alerts/sec (floor {floor_aps:.0f}, '
        f'baseline {baseline["alerts_per_sec"]:.0f})',
    )

    # The streaming block must exist with sane percentiles (a missing or
    # zeroed block means the session ingest path silently stopped being
    # measured), its throughput is floored like the bulk replay, and its p99
    # is ceilinged against the committed baseline: latency is
    # lower-is-better, so the fresh run may be at most 1/floor (4x at the
    # default 0.25) of the baseline p99.
    streaming = fresh.get("streaming")
    streaming_ok = isinstance(streaming, dict) and isinstance(
        streaming.get("latency_micros"), dict)
    check(
        "streaming.present",
        streaming_ok,
        "BENCH_1 carries a streaming latency block",
    )
    if streaming_ok:
        lat = streaming["latency_micros"]
        check(
            "streaming.latency_sane",
            0.0 < lat["p50"] <= lat["p99"],
            f'p50 {lat["p50"]:.1f}us <= p99 {lat["p99"]:.1f}us',
        )
        floor_stream_aps = baseline["streaming"]["alerts_per_sec"] * floor
        check(
            "streaming.alerts_per_sec",
            streaming["alerts_per_sec"] >= floor_stream_aps,
            f'{streaming["alerts_per_sec"]:.0f} alerts/sec '
            f"(floor {floor_stream_aps:.0f})",
        )
        p99_ceiling = baseline["streaming"]["latency_micros"]["p99"] / floor
        check(
            "streaming.p99_micros",
            lat["p99"] <= p99_ceiling,
            f'{lat["p99"]:.1f}us (ceiling {p99_ceiling:.1f}us, baseline '
            f'{baseline["streaming"]["latency_micros"]["p99"]:.1f}us)',
        )


def check_scenarios(scenarios, scenario_baseline, floor):
    """BENCH_2: every registered scenario replays at real throughput."""
    # The throughput floor here is deliberately absolute, not derived from
    # the 7-type BENCH_1 baseline: scenarios are free to be intrinsically
    # heavier (more types, bigger populations). The floor only catches
    # catastrophic regressions like an accidentally quadratic replay.
    scenario_floor_aps = 500.0
    # The federated scenarios carry the most types per solve; when a
    # committed BENCH_2 baseline is supplied, their throughput is gated
    # against it.
    federated = {"multi-site", "metro-grid"}
    baseline_rows = {}
    if scenario_baseline is not None:
        baseline_rows = {
            row["name"]: row for row in scenario_baseline["scenarios"]}
    rows = scenarios["scenarios"]
    check("scenarios.count", len(rows) >= 7, f"{len(rows)} scenarios")
    for row in rows:
        name = row["name"]
        check(
            f"scenario.{name}.alerts",
            row["alerts"] > 100,
            f'{row["alerts"]} alerts replayed',
        )
        check(
            f"scenario.{name}.alerts_per_sec",
            row["alerts_per_sec"] >= scenario_floor_aps,
            f'{row["alerts_per_sec"]:.0f} alerts/sec '
            f"(floor {scenario_floor_aps:.0f})",
        )
        if name in federated:
            if name in baseline_rows:
                scen_floor = baseline_rows[name]["alerts_per_sec"] * floor
                check(
                    f"scenario.{name}.alerts_per_sec_vs_baseline",
                    row["alerts_per_sec"] >= scen_floor,
                    f'{row["alerts_per_sec"]:.0f} alerts/sec (floor '
                    f"{scen_floor:.0f}, baseline "
                    f'{baseline_rows[name]["alerts_per_sec"]:.0f})',
                )
            elif scenario_baseline is not None:
                # A federated scenario with no committed baseline row would
                # silently disarm the throughput gate; fail loudly so a
                # stale/renamed BENCH_2 baseline can't mask a regression.
                check(
                    f"scenario.{name}.alerts_per_sec_vs_baseline",
                    False,
                    "scenario missing from the committed scenario baseline; "
                    "regenerate BENCH_2.json to re-arm the gate",
                )


def check_service_concurrent(scenarios, scenario_baseline, floor):
    """BENCH_2: multi-tenant AuditService throughput."""
    # The service front door multiplexes N tenants' owned sessions over a
    # worker pool; its concurrent throughput is floored both absolutely
    # (catastrophic-regression catch) and against the committed baseline
    # (same convention as the federated scenarios). The concurrent-vs-serial
    # speedup is only gated on hosts that can physically show one.
    scenario_floor_aps = 500.0
    service = scenarios.get("service_concurrent")
    service_ok = isinstance(service, dict)
    check(
        "service_concurrent.present",
        service_ok,
        "BENCH_2 carries a service_concurrent block",
    )
    if not service_ok:
        return
    check(
        "service_concurrent.alerts",
        service["alerts"] > 1000,
        f'{service["alerts"]} alerts served across '
        f'{service["tenants"]} tenants',
    )
    check(
        "service_concurrent.alerts_per_sec",
        service["alerts_per_sec"] >= scenario_floor_aps,
        f'{service["alerts_per_sec"]:.0f} alerts/sec '
        f"(absolute floor {scenario_floor_aps:.0f})",
    )
    if scenario_baseline is not None:
        service_base = scenario_baseline.get("service_concurrent")
        if service_base:
            service_floor = service_base["alerts_per_sec"] * floor
            check(
                "service_concurrent.alerts_per_sec_vs_baseline",
                service["alerts_per_sec"] >= service_floor,
                f'{service["alerts_per_sec"]:.0f} alerts/sec (floor '
                f"{service_floor:.0f}, baseline "
                f'{service_base["alerts_per_sec"]:.0f})',
            )
        else:
            # A missing committed section would silently disarm the gate;
            # fail loudly so a stale BENCH_2 baseline cannot mask a
            # front-door regression.
            check(
                "service_concurrent.alerts_per_sec_vs_baseline",
                False,
                "section missing from the committed scenario baseline; "
                "regenerate BENCH_2.json to re-arm the gate",
            )
    service_threads = service["threads_available"]
    if service_threads >= 4 and service["workers"] > 1:
        check(
            "service_concurrent.speedup_vs_serial",
            service["speedup_vs_serial"] > 1.3,
            f'{service["speedup_vs_serial"]:.2f}x over '
            f'{service["workers"]} workers '
            f"({service_threads} threads available)",
        )
    else:
        note = service.get("note", "")
        print(
            f"[SKIP] service_concurrent.speedup_vs_serial: only "
            f"{service_threads} thread(s) available, measured "
            f'{service["speedup_vs_serial"]:.2f}x'
            + (f" — {note}" if note else "")
        )


def check_durability(scenarios, scenario_baseline, floor):
    """BENCH_2: WAL cost and crash recovery."""
    # The durability section logs a 10k-alert day through the write-ahead
    # log (fsync on and off) and recovers it from the surviving bytes. The
    # bitwise-equality flag is a hard correctness gate: a recovered day that
    # diverges from the uninterrupted run is a bug regardless of runner
    # noise. Throughput floors are absolute like the scenario replays —
    # fsync-on gets a much lower floor because a barrier per record is
    # disk-bound, not CPU-bound, and CI disks vary wildly.
    scenario_floor_aps = 500.0
    durability = scenarios.get("durability")
    durability_ok = isinstance(durability, dict)
    check(
        "durability.present",
        durability_ok,
        "BENCH_2 carries a durability block",
    )
    if not durability_ok:
        return
    check(
        "durability.alerts",
        durability["alerts"] >= 10000,
        f'{durability["alerts"]} alerts logged and recovered',
    )
    check(
        "durability.recovered_bitwise_equal",
        durability.get("recovered_bitwise_equal") is True,
        "recovered day matches the uninterrupted run bitwise",
    )
    check(
        "durability.fsync_off_alerts_per_sec",
        durability["fsync_off_alerts_per_sec"] >= scenario_floor_aps,
        f'{durability["fsync_off_alerts_per_sec"]:.0f} alerts/sec '
        f"(floor {scenario_floor_aps:.0f})",
    )
    check(
        "durability.fsync_on_alerts_per_sec",
        durability["fsync_on_alerts_per_sec"] >= 25.0,
        f'{durability["fsync_on_alerts_per_sec"]:.0f} alerts/sec '
        "(floor 25, disk-bound)",
    )
    check(
        "durability.recovery_alerts_per_sec",
        durability["recovery_alerts_per_sec"] >= scenario_floor_aps,
        f'{durability["recovery_alerts_per_sec"]:.0f} alerts/sec '
        f'replayed in {durability["recovery_wall_seconds"]:.3f}s '
        f"(floor {scenario_floor_aps:.0f})",
    )
    if scenario_baseline is not None:
        durability_base = scenario_baseline.get("durability")
        if durability_base:
            recovery_floor = (
                durability_base["recovery_alerts_per_sec"] * floor)
            check(
                "durability.recovery_vs_baseline",
                durability["recovery_alerts_per_sec"] >= recovery_floor,
                f'{durability["recovery_alerts_per_sec"]:.0f} alerts/sec '
                f"(floor {recovery_floor:.0f}, baseline "
                f'{durability_base["recovery_alerts_per_sec"]:.0f})',
            )
        else:
            check(
                "durability.recovery_vs_baseline",
                False,
                "section missing from the committed scenario baseline; "
                "regenerate BENCH_2.json to re-arm the gate",
            )


def check_sharding(scenarios):
    """BENCH_2: sharded replay must actually scale on multi-core runners."""
    # The comparison is only meaningful when the binary was built with the
    # `parallel` feature (otherwise replay_sharded runs sequentially and the
    # "speedup" is pure timer noise) — the perf-smoke job always builds with
    # it, so a missing feature flag is a CI misconfiguration and fails hard.
    # On < 4 cores a speedup is physically impossible; BENCH_2 records the
    # honest ~1.0x plus a note, and the gate is skipped. A broken parallel
    # path on >= 4 cores measures ~1.0x; real sharding measures ~3x. The
    # gate sits at 1.3 (not the ~1.5+ the bench output shows on a quiet
    # 4-core host) because shared CI runners are noisy and each best-of-3
    # leg is only tens of milliseconds.
    sharding = scenarios["sharding"]
    threads = sharding["threads_available"]
    check(
        "sharding.parallel_feature",
        sharding.get("parallel_feature", False),
        "bench binary built with the `parallel` feature",
    )
    if threads >= 4:
        check(
            "sharding.speedup",
            sharding["speedup"] > 1.3,
            f'{sharding["speedup"]:.2f}x over {sharding["shards"]} shards '
            f"({threads} threads available)",
        )
    else:
        note = sharding.get("note", "")
        print(
            f"[SKIP] sharding.speedup: only {threads} thread(s) available, "
            f'measured {sharding["speedup"]:.2f}x'
            + (f" — {note}" if note else "")
        )


def check_cluster(scenarios):
    """BENCH_2: the consistent-hash cluster's multi-core scaling curves."""
    # Two curves per shard count (1/2/4/8, capped at the tenant count): the
    # engine's sharded batch replay, and the sag-cluster deployment shape —
    # N independent AuditService shards each driven by its own OS thread.
    # `results_identical` is a hard correctness gate: a shard count that
    # changes any per-tenant result bitwise breaks the routing invariant.
    # Speedup floors are only enforced at points the host can physically
    # show (workers <= cores); an honest ~1.0x elsewhere is a pass. The
    # cluster curve threads regardless of the `parallel` feature; the
    # replay curve additionally needs it to fan out.
    cluster = scenarios.get("cluster")
    cluster_ok = isinstance(cluster, dict) and isinstance(
        cluster.get("points"), list)
    check(
        "cluster.present",
        cluster_ok,
        "BENCH_2 carries a cluster scaling block",
    )
    if not cluster_ok:
        return
    check(
        "cluster.results_identical",
        cluster.get("results_identical") is True,
        "per-tenant results bitwise identical at every shard count",
    )
    points = cluster["points"]
    check(
        "cluster.points",
        len(points) >= 1 and points[0]["workers"] == 1,
        f"{len(points)} point(s), curve starts at 1 shard",
    )
    threads = cluster["threads_available"]
    parallel = cluster.get("parallel_feature", False)
    for point in points:
        workers = point["workers"]
        if workers <= 1:
            continue
        label = f"cluster.speedup_{workers}shards"
        if threads >= workers:
            check(
                label,
                point["cluster_speedup"] > 1.2,
                f'{point["cluster_speedup"]:.2f}x thread-per-shard over '
                f"{workers} shards ({threads} threads available)",
            )
            if parallel:
                check(
                    f"cluster.replay_speedup_{workers}shards",
                    point["replay_speedup"] > 1.2,
                    f'{point["replay_speedup"]:.2f}x sharded replay over '
                    f"{workers} shards",
                )
        else:
            note = cluster.get("note", "")
            print(
                f"[SKIP] {label}: only {threads} thread(s) available for "
                f'{workers} shards, measured {point["cluster_speedup"]:.2f}x'
                + (f" — {note}" if note else "")
            )


def check_service_network(scenarios, scenario_baseline, floor):
    """BENCH_2: the TCP front door under concurrent load (load_gen)."""
    # Produced by `load_gen` driving a tenant fleet over real loopback
    # sockets. `metrics_consistent` is a hard correctness gate — the
    # counters scraped from the wire either account for every request the
    # generator sent or the observability layer is lying. Throughput gets
    # an absolute floor well under the committed numbers (socket framing
    # on a noisy shared runner), latency is ceilinged against the
    # committed baseline like BENCH_1's streaming block, and the shed
    # probe's counters are deterministic, so they are gated exactly.
    network_floor_aps = 300.0
    network = scenarios.get("service_network")
    network_ok = isinstance(network, dict)
    check(
        "service_network.present",
        network_ok,
        "report carries a service_network block",
    )
    if not network_ok:
        return
    check(
        "service_network.metrics_consistent",
        network.get("metrics_consistent") is True,
        "scraped counters account for every request sent"
        + (f' — {"; ".join(network["metrics_notes"])}'
           if network.get("metrics_notes") else ""),
    )
    check(
        "service_network.alerts",
        network["alerts"] > 500,
        f'{network["alerts"]} alerts served to {network["tenants"]} '
        "concurrent tenants",
    )
    check(
        "service_network.alerts_per_sec",
        network["alerts_per_sec"] >= network_floor_aps,
        f'{network["alerts_per_sec"]:.0f} alerts/sec sustained '
        f"(absolute floor {network_floor_aps:.0f})",
    )
    lat = network["latency_micros"]
    check(
        "service_network.latency_sane",
        0.0 < lat["p50"] <= lat["p99"],
        f'p50 {lat["p50"]:.0f}us <= p99 {lat["p99"]:.0f}us',
    )
    # A sharded run (load_gen --shards N) carries a per-shard breakdown;
    # the shard slices must account for exactly the aggregate burst.
    shards = network.get("shards", 1)
    if shards > 1:
        per_shard = network.get("per_shard")
        per_shard_ok = isinstance(per_shard, list) and len(per_shard) == shards
        shard_alerts = (
            sum(s["alerts"] for s in per_shard) if per_shard_ok else -1)
        check(
            "service_network.per_shard",
            per_shard_ok and shard_alerts == network["alerts"],
            f"{len(per_shard) if per_shard_ok else 0} shard slice(s) "
            f"accounting for {shard_alerts}/{network['alerts']} alerts",
        )
    probe = network.get("shed_probe")
    probe_ok = isinstance(probe, dict)
    check(
        "service_network.shed_probe.present",
        probe_ok,
        "report carries the over-quota shed probe",
    )
    if probe_ok:
        check(
            "service_network.shed_probe.sheds",
            probe["shed"] >= 1 and probe["served"] >= 1,
            f'{probe["burst"]}-deep burst vs quota {probe["quota"]}: '
            f'{probe["served"]} served, {probe["shed"]} shed',
        )
        check(
            "service_network.shed_probe.retries",
            probe["retried_ok"] == probe["shed"],
            f'{probe["retried_ok"]}/{probe["shed"]} shed pushes succeeded '
            "on retry",
        )
    if scenario_baseline is not None:
        network_base = scenario_baseline.get("service_network")
        if network_base:
            aps_floor = network_base["alerts_per_sec"] * floor
            check(
                "service_network.alerts_per_sec_vs_baseline",
                network["alerts_per_sec"] >= aps_floor,
                f'{network["alerts_per_sec"]:.0f} alerts/sec (floor '
                f"{aps_floor:.0f}, baseline "
                f'{network_base["alerts_per_sec"]:.0f})',
            )
            p99_ceiling = network_base["latency_micros"]["p99"] / floor
            check(
                "service_network.p99_micros",
                lat["p99"] <= p99_ceiling,
                f'{lat["p99"]:.0f}us (ceiling {p99_ceiling:.0f}us, baseline '
                f'{network_base["latency_micros"]["p99"]:.0f}us)',
            )
        else:
            check(
                "service_network.alerts_per_sec_vs_baseline",
                False,
                "section missing from the committed scenario baseline; "
                "regenerate BENCH_2.json to re-arm the gate",
            )


def check_service_chaos(scenarios, scenario_baseline, floor):
    """BENCH_2: the front door under injected faults (load_gen --chaos)."""
    # Produced by `load_gen --chaos`: the fleet driven through a seeded
    # fault-injecting proxy (duplicates, resets, delays, plus two scripted
    # faults that guarantee the retry and dedup paths fire every run).
    # `bitwise_equal` and `recovery_converged` are hard correctness gates —
    # exactly-once either holds under faults or the protocol is broken.
    # Goodput gets a low absolute floor: the run spends real wall-clock in
    # backoff sleeps by design.
    chaos_floor_aps = 100.0
    chaos = scenarios.get("service_chaos")
    chaos_ok = isinstance(chaos, dict)
    check(
        "service_chaos.present",
        chaos_ok,
        "report carries a service_chaos block",
    )
    if not chaos_ok:
        return
    check(
        "service_chaos.bitwise_equal",
        chaos.get("bitwise_equal") is True,
        "faulted results match the unfaulted control bitwise",
    )
    check(
        "service_chaos.recovery_converged",
        chaos.get("recovery_converged") is True,
        "kill-and-recover probe converged through the WAL",
    )
    check(
        "service_chaos.faults_injected",
        chaos["faults_injected"] >= 10,
        f'{chaos["faults_injected"]} faults injected — the proxy did real '
        "damage",
    )
    check(
        "service_chaos.retries",
        chaos["retries"] >= 1,
        f'{chaos["retries"]} client retries ({chaos["reconnects"]} '
        "reconnects)",
    )
    check(
        "service_chaos.duplicates_suppressed",
        chaos["duplicates_suppressed"] + chaos["duplicates_replayed"] >= 1,
        f'{chaos["duplicates_suppressed"]} suppressed / '
        f'{chaos["duplicates_replayed"]} replayed server-side',
    )
    check(
        "service_chaos.goodput_alerts_per_sec",
        chaos["goodput_alerts_per_sec"] >= chaos_floor_aps,
        f'{chaos["goodput_alerts_per_sec"]:.0f} alerts/sec goodput under '
        f"faults (absolute floor {chaos_floor_aps:.0f})",
    )
    if scenario_baseline is not None:
        chaos_base = scenario_baseline.get("service_chaos")
        if chaos_base:
            goodput_floor = chaos_base["goodput_alerts_per_sec"] * floor
            check(
                "service_chaos.goodput_vs_baseline",
                chaos["goodput_alerts_per_sec"] >= goodput_floor,
                f'{chaos["goodput_alerts_per_sec"]:.0f} alerts/sec (floor '
                f"{goodput_floor:.0f}, baseline "
                f'{chaos_base["goodput_alerts_per_sec"]:.0f})',
            )
        else:
            check(
                "service_chaos.goodput_vs_baseline",
                False,
                "section missing from the committed scenario baseline; "
                "regenerate BENCH_2.json to re-arm the gate",
            )


def run_section(name, fn, *args):
    """Run one section; a crash (missing key, wrong shape) fails that
    section without silencing the others."""
    try:
        fn(*args)
    except (KeyError, TypeError, IndexError) as e:
        check(f"{name}.well_formed", False,
              f"section check crashed on malformed report: {e!r}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline",
                        help="committed BENCH_1.json baseline "
                             "(required by the bench1 section)")
    parser.add_argument("--throughput",
                        help="freshly measured BENCH_1.json "
                             "(required by the bench1 section)")
    parser.add_argument("--scenarios",
                        help="freshly measured BENCH_2.json (required by "
                             "every section except bench1)")
    parser.add_argument("--scenario-baseline", default=None,
                        help="committed BENCH_2.json baseline (enables "
                             "per-scenario, service and network floors "
                             "against the committed numbers)")
    parser.add_argument("--sections", default=",".join(SECTIONS),
                        help="comma-separated subset of: "
                             + ", ".join(SECTIONS))
    parser.add_argument("--floor", type=float, default=0.25,
                        help="fraction of the baseline the fresh run must "
                             "retain")
    args = parser.parse_args()

    selected = [s.strip() for s in args.sections.split(",") if s.strip()]
    unknown = [s for s in selected if s not in SECTIONS]
    if unknown:
        parser.error(f"unknown section(s): {', '.join(unknown)}")

    needs_bench1 = "bench1" in selected
    needs_scenarios = any(s != "bench1" for s in selected)
    if needs_bench1 and not (args.baseline and args.throughput):
        parser.error("the bench1 section needs --baseline and --throughput")
    if needs_scenarios and not args.scenarios:
        parser.error("every section except bench1 needs --scenarios")

    baseline = load_json(args.baseline, "bench1") if needs_bench1 else None
    fresh = load_json(args.throughput, "bench1") if needs_bench1 else None
    scenarios = (load_json(args.scenarios, "scenarios")
                 if needs_scenarios else None)
    scenario_baseline = load_json(args.scenario_baseline, "scenario_baseline")

    if baseline is not None and fresh is not None:
        run_section("bench1", check_bench1, baseline, fresh, args.floor)
    if scenarios is not None:
        if "scenarios" in selected:
            run_section("scenarios", check_scenarios, scenarios,
                        scenario_baseline, args.floor)
        if "service_concurrent" in selected:
            run_section("service_concurrent", check_service_concurrent,
                        scenarios, scenario_baseline, args.floor)
        if "durability" in selected:
            run_section("durability", check_durability, scenarios,
                        scenario_baseline, args.floor)
        if "sharding" in selected:
            run_section("sharding", check_sharding, scenarios)
        if "cluster" in selected:
            run_section("cluster", check_cluster, scenarios)
        if "service_network" in selected:
            run_section("service_network", check_service_network, scenarios,
                        scenario_baseline, args.floor)
        if "service_chaos" in selected:
            run_section("service_chaos", check_service_chaos, scenarios,
                        scenario_baseline, args.floor)

    if failures:
        print(f"\n{len(failures)} perf floor(s) violated: "
              f"{', '.join(failures)}")
        return 1
    print("\nall perf floors hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
