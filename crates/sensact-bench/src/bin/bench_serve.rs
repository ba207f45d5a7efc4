//! Serving front-end throughput: sustained ticks/s and p99 tick latency
//! for mixed lidar + cartpole traffic over the deterministic loopback
//! transport, batched vs. per-loop dispatch, at fleet sizes 1 / 8 / 64 /
//! 512.
//!
//! Every observation travels the full protocol path (client wire encode →
//! sniff → decode → admission/shed → tick → action encode → client
//! decode), so the numbers are the serving stack's cost, not the kernels'
//! alone. The cross-loop batching win shows up at fleet ≥ 64, where half
//! the leases share the LidarConv perceptor and their forwards collapse
//! into one batched conv call per drain.
//!
//! Writes `BENCH_serve.json` (full mode), whose `gate` headlines
//! (`bench_gate` re-measures them) pin batched-vs-unbatched serving cost at
//! fleet 64: the p99 ratio (tail) and the median cost ratio (tight).
//! `--smoke` runs the reduced CI matrix and skips the JSON.

use sensact_bench::servebench::{serve_gate_headline, serve_pair, ServePair};

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mode = if smoke { "smoke" } else { "full" };
    let isa = sensact_math::simd::isa_name();
    println!("== bench_serve ({mode}) — loopback serving throughput ==");
    println!("host isa: {isa}\n");

    let fleets: &[usize] = if smoke { &[1, 8] } else { &[1, 8, 64, 512] };
    let rounds = |fleet: usize| -> usize {
        // Keep total observations roughly constant so each cell runs a
        // comparable amount of work (and the p99 has rounds to rank).
        let target = if smoke { 4_000 } else { 200_000 };
        (target / fleet).clamp(if smoke { 20 } else { 100 }, 4_000)
    };

    println!(
        "{:>6}  {:>10}  {:>14}  {:>12}  {:>8}  {:>8}",
        "fleet", "mode", "ticks/s", "p99 tick", "served", "shed"
    );
    let mut cells: Vec<ServePair> = Vec::new();
    for &fleet in fleets {
        let r = rounds(fleet);
        let pair = serve_pair(fleet, r);
        for m in [&pair.unbatched, &pair.batched] {
            println!(
                "{:>6}  {:>10}  {:>12.0}/s  {:>9.2} us  {:>8}  {:>8}",
                m.fleet,
                if m.batched { "batched" } else { "per-loop" },
                m.ticks_per_s,
                m.p99_tick_us,
                m.served,
                m.shed
            );
        }
        println!(
            "{:>6}  {:>10}  batched/unbatched  p99 = {:.1} %   median cost = {:.1} %",
            "",
            "",
            100.0 * pair.batched.p99_tick_us / pair.unbatched.p99_tick_us,
            pair.median_cost_ratio_pct
        );
        cells.push(pair);
    }

    let csv_rows: Vec<String> = cells
        .iter()
        .flat_map(|p| [&p.unbatched, &p.batched])
        .map(|m| {
            format!(
                "{},{},{:.0},{:.3},{},{}",
                m.fleet, m.batched, m.ticks_per_s, m.p99_tick_us, m.served, m.shed
            )
        })
        .collect();
    sensact_bench::write_csv(
        "bench_serve",
        "fleet,batched,ticks_per_s,p99_tick_us,served,shed",
        &csv_rows,
    );

    if !smoke {
        let fleet_json: Vec<String> = cells
            .iter()
            .map(|p| {
                let (u, b) = (&p.unbatched, &p.batched);
                format!(
                    "    {{ \"fleet\": {}, \"unbatched\": {{ \"ticks_per_s\": {:.0}, \"p99_tick_us\": {:.3}, \"served\": {}, \"shed\": {} }}, \"batched\": {{ \"ticks_per_s\": {:.0}, \"p99_tick_us\": {:.3}, \"served\": {}, \"shed\": {} }}, \"batched_speedup\": {:.3}, \"median_cost_ratio_pct\": {:.2} }}",
                    u.fleet,
                    u.ticks_per_s,
                    u.p99_tick_us,
                    u.served,
                    u.shed,
                    b.ticks_per_s,
                    b.p99_tick_us,
                    b.served,
                    b.shed,
                    b.ticks_per_s / u.ticks_per_s,
                    p.median_cost_ratio_pct,
                )
            })
            .collect();
        // Gate headlines: paired batched/unbatched ratios at fleet 64 —
        // the regime where the whole fleet's working set is still
        // cache-resident, so the batching win is cleanest. The
        // committed baselines are medians over five 400-round passes (the
        // center of the statistic); `bench_gate` re-measures single passes
        // with the exact same routine and compares its best-of-three floor
        // against these numbers.
        let gate_fleet = 64;
        let (p99_ratio_pct, median_ratio_pct) = serve_gate_headline(gate_fleet, 400, 5);
        let sustained = cells
            .iter()
            .map(|p| p.batched.ticks_per_s)
            .fold(0.0f64, f64::max);
        let json = format!(
            "{{\n  \"isa\": \"{isa}\",\n  \"fleets\": [\n{}\n  ],\n  \"sustained_ticks_per_s\": {:.0},\n  \"gate\": {{\n    \"fleet\": {},\n    \"p99_ratio_pct\": {:.2},\n    \"median_cost_ratio_pct\": {:.2}\n  }}\n}}\n",
            fleet_json.join(",\n"),
            sustained,
            gate_fleet,
            p99_ratio_pct,
            median_ratio_pct,
        );
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
        std::fs::write(path, json).expect("write BENCH_serve.json");
        println!(
            "\nwrote BENCH_serve.json (gate at fleet {gate_fleet}: p99 ratio {p99_ratio_pct:.1} %, median cost ratio {median_ratio_pct:.1} %)"
        );
    }
}
