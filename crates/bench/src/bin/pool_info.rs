//! Parallelism sanity probe for CI: drives one real chunked batch
//! through the persistent evaluation pool, then prints the pool's live
//! worker count next to what the runner claims to offer.
//!
//! The smoke job runs this right after its `--threads 4` steps so a
//! runner that silently schedules everything on one core is visible in
//! the log (no parallel speed-up can be read off such a run).
//!
//! `cargo run --release -p dlcm-bench --bin pool_info [--threads N]`

use dlcm_eval::pool;

fn main() {
    let threads = dlcm_bench::threads().max(4);
    let len = 4096;
    // A real fan-out (cutover-free: the pool is enlisted directly), so
    // `worker_count` reflects helpers actually spawned, not a guess.
    let doubled = pool::parallel_map(threads, len, |i| i * 2);
    assert_eq!(
        doubled.iter().sum::<usize>(),
        len * (len - 1),
        "chunked parallel_map returned wrong values"
    );
    println!("requested threads:      {threads}");
    println!("pool worker_count():    {}", pool::worker_count());
    println!(
        "auto grain at {len}:      {}",
        pool::auto_grain(len, threads)
    );
    println!(
        "available_parallelism:  {}",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
}
