//! Corpus generation CLI: the §3 data-generation pipeline, sharded.
//!
//! Generates the canonical training corpus (nine scenario families,
//! paper-protocol labeling) as JSONL shards plus a manifest under
//! `results/corpus/`, fanning work across `--threads` workers and
//! deduplicating samples by content fingerprint. Thread count never
//! changes the output: the manifest and every shard are byte-identical
//! for any `--threads` value (the same guarantee `modelctl reproduce`
//! makes for every file it writes).
//!
//! ```text
//! cargo run --release -p dlcm-bench --bin datagen -- \
//!     [--threads N] [--quick] [--force]
//! ```
//!
//! Whether the corpus on disk is reused is the decision every consumer
//! makes too (`dlcm_bench::ensure_corpus`: same dataset configuration
//! and four seed shards — generations appended by the flywheel are kept);
//! `--force` regenerates even then.

use dlcm_bench::{corpus_config, corpus_dir, ensure_corpus, write_json, Flags};
use dlcm_datagen::ShardManifest;

const USAGE: &str = "datagen [--quick] [--threads N] [--force]";

fn main() {
    let flags = Flags::parse(std::env::args().skip(1), USAGE);
    let quick = flags.has("quick");
    let threads = flags.positive("threads", 1);
    let dir = corpus_dir();

    eprintln!("=== DATAGEN: sharded corpus (quick={quick}, threads={threads}) ===");
    if flags.has("force") {
        // Without its commit point the resolver finds no corpus here.
        let _ = std::fs::remove_file(ShardManifest::path(&dir));
    }
    let start = std::time::Instant::now();
    let (corpus, stats) = ensure_corpus(&dir, corpus_config(quick, threads));
    let elapsed = start.elapsed().as_secs_f64();
    corpus.verify().expect("corpus shard fingerprints");
    let manifest = corpus.manifest();
    let Some(stats) = stats else {
        println!(
            "corpus up to date at {dir:?}: {} programs, {} points in {} shards (pass --force to regenerate)",
            manifest.total_programs,
            manifest.total_points,
            manifest.shards.len()
        );
        return;
    };

    println!("--- corpus written to {dir:?} in {elapsed:.1}s ---");
    println!("programs            : {}", manifest.total_programs);
    println!("labeled points      : {}", manifest.total_points);
    println!("shards              : {}", manifest.shards.len());
    println!("duplicates dropped  : {}", manifest.duplicates_dropped);
    println!(
        "measured candidates : {} ({} equivalent schedules served from cache)",
        stats.eval.num_evals, stats.eval.cache_hits
    );
    for shard in &manifest.shards {
        eprintln!(
            "  {}  {:>4} programs  {:>5} points  fp {}",
            shard.file, shard.num_programs, shard.num_points, shard.fingerprint
        );
    }
    write_json("datagen_stats.json", &stats);
}
