//! What the codec allocates for one `serve_hot`-shaped frame, counted
//! with a global allocator — hence a test binary of its own, with one
//! test so no other thread's allocations are in the count.
//!
//! Through the `Value` tree (PR 18) the same request cost 727
//! allocations to encode and 595 to decode: a `String` per key and per
//! number, a `Vec` per object and array. Streaming, encoding allocates
//! only to grow the one output buffer, and decoding allocates what the
//! decoded value owns.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use dlcm::datagen::{ProgramGenConfig, ProgramGenerator, ScheduleGenConfig, ScheduleGenerator};
use dlcm::net::Request;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Counts every block handed out or moved.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a side effect.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

#[test]
fn a_speedups_frame_is_encoded_and_decoded_without_a_tree() {
    let mut rng = ChaCha8Rng::seed_from_u64(19);
    let programs = ProgramGenerator::new(ProgramGenConfig::wide());
    let schedules = ScheduleGenerator::new(ScheduleGenConfig::default());
    for i in 0..32 {
        let program = programs.generate(&mut rng, &format!("p{i}"));
        let schedules = schedules.generate_distinct(&program, 8, &mut rng);
        let request = Request::Speedups {
            program,
            schedules,
            deadline_ms: Some(250),
        };

        let (text, encoding) = allocations(|| serde_json::to_string(&request).expect("encodes"));
        let (back, decoding) =
            allocations(|| serde_json::from_str::<Request>(&text).expect("decodes"));
        let (copy, building) = allocations(|| request.clone());
        assert_eq!(back, request);
        assert_eq!(copy, request);
        println!(
            "{} bytes: {encoding} allocations to encode, {decoding} to decode, {building} to clone",
            text.len()
        );

        // Encoding: the output buffer doubling from empty, nothing per
        // field — the count does not depend on how many fields there are.
        let doublings = text.len().ilog2() as usize + 1;
        assert!(
            encoding <= doublings,
            "{encoding} allocations to encode {} bytes",
            text.len()
        );
        // Decoding: what the value owns, and nothing per key, number or
        // container. A `Vec` read from a stream regrows (4, 8, 16, …)
        // where a clone sizes it once; on these requests that is up to
        // 1.4x a clone's count, so half again is the allowance.
        assert!(
            decoding <= building + building / 2 + 8,
            "{decoding} allocations to decode what {building} build"
        );
    }
}
