//! Building a workload by hand with the public trace API: a producer/
//! consumer pipeline over a shared buffer, run through the whole prefetching
//! pipeline.
//!
//! ```text
//! cargo run --release --example custom_workload
//! ```

use charlie::cache::CacheGeometry;
use charlie::prefetch::{PreparedTrace, Strategy, TraceMarks};
use charlie::sim::{simulate, SimConfig};
use charlie::trace::{Addr, TraceBuilder};

fn main() {
    const PROCS: usize = 4;
    const ROUNDS: u32 = 200;
    const BUF_LINES: u64 = 64;
    const BUF_BASE: u64 = 0x8000_0000;

    // Each round: the producer (P0) fills the buffer under a lock, a barrier
    // opens the read phase, every consumer scans the buffer, and a second
    // barrier closes the round (strict phase separation).
    let mut b = TraceBuilder::new(PROCS);
    for round in 0..ROUNDS {
        {
            let mut p0 = b.proc(0);
            p0.lock(0);
            for line in 0..BUF_LINES {
                p0.work(4).write(Addr::new(BUF_BASE + line * 32 + u64::from(round % 8) * 4));
            }
            p0.unlock(0);
        }
        for p in 1..PROCS {
            b.proc(p).work(40);
        }
        for p in 0..PROCS {
            b.proc(p).barrier(2 * round);
        }
        for p in 1..PROCS {
            let mut c = b.proc(p);
            for line in 0..BUF_LINES {
                c.work(2).read(Addr::new(BUF_BASE + line * 32 + u64::from(round % 8) * 4));
            }
        }
        {
            // keep the producer busy while consumers read
            let mut p0 = b.proc(0);
            p0.work(6 * BUF_LINES as u32);
        }
        for p in 0..PROCS {
            b.proc(p).barrier(2 * round + 1);
        }
    }
    let trace = b.build();
    trace.validate().expect("well-formed custom trace");

    println!("producer/consumer: {} demand accesses total\n", trace.total_accesses());
    println!(
        "{:<6} {:>10} {:>9} {:>10} {:>9} {:>10}",
        "strat", "cycles", "CPU MR", "inval MR", "bus util", "prefetches"
    );

    let geometry = CacheGeometry::paper_default();
    let cfg = SimConfig { num_procs: PROCS, ..SimConfig::default() };
    let mut np_cycles = None;
    let marks = TraceMarks::new(&trace, geometry);
    for strategy in Strategy::ALL {
        let plan = marks.plan(&trace, strategy);
        let prepared = PreparedTrace::new(&trace, &plan);
        let report = simulate(&cfg, prepared).expect("simulation succeeds");
        np_cycles.get_or_insert(report.cycles);
        println!(
            "{:<6} {:>10} {:>8.2}% {:>9.2}% {:>9.2} {:>10}",
            strategy.name(),
            report.cycles,
            100.0 * report.cpu_miss_rate(),
            100.0 * report.invalidation_miss_rate(),
            report.bus_utilization(),
            prepared.total_prefetches(),
        );
    }
    println!(
        "\nThe consumers' misses are invalidation misses (the producer rewrote the\n\
         buffer), which the uniprocessor oracle cannot predict — only PWS covers them."
    );
}
