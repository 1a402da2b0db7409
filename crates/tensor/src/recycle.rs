//! The process-wide shelf of `f32` buffers every [`crate::Tensor`] of
//! 1 KiB or more is built in and handed back to.
//!
//! A training step builds and drops a few thousand tensors — node
//! values, gradients, transposes, dropout masks, the packed feature
//! matrix — and the next step builds the same shapes again. Left to the
//! system allocator, the large ones are returned to the kernel when they
//! are freed (glibc unmaps a block above its mmap threshold, and trims
//! the heap top above its trim threshold), so every step page-faults
//! them back in. Shelved here instead, a buffer dropped by one step is
//! the buffer the next step builds in, on whichever lane: the shelf is
//! one `Mutex`, because the helper lane builds products the caller
//! drops.
//!
//! Buffers are shelved by *size class*: four classes per doubling of the
//! length (256, 320, 384, 448, 512, 640, … elements), so a request is
//! served by a buffer at most a quarter larger than it, and a loop that
//! repeats its shapes settles on a fixed set of buffers after one pass.
//! A request rounds *up* to its class; a returned buffer shelves *down*
//! to the largest class its capacity covers, so any shelved buffer fits
//! any request of its class. Buffers under 256 elements (1 KiB) go to
//! the allocator as usual. The shelf holds at most [`MAX_SHELVED_BYTES`];
//! past that a returned buffer is freed.
//!
//! Reuse never changes a value: every constructor writes each element it
//! hands out (zeroing where a fresh buffer was zeroed before).

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Shortest buffer worth shelving: 1 KiB of `f32`, the smallest class.
const MIN_LEN: usize = 256;

/// `log2(MIN_LEN)`: the doubling the first class sits at.
const MIN_LOG2: u32 = MIN_LEN.trailing_zeros();

/// Classes per doubling of the length.
const STEPS: usize = 4;

/// Most bytes the shelf keeps; a buffer that would take it past this is
/// freed instead.
const MAX_SHELVED_BYTES: usize = 256 << 20;

struct Shelf {
    /// One stack of free buffers per size class.
    classes: Vec<Vec<Vec<f32>>>,
    /// Bytes of capacity held across every class.
    bytes: usize,
}

static SHELF: Mutex<Shelf> = Mutex::new(Shelf {
    classes: Vec::new(),
    bytes: 0,
});

fn shelf() -> MutexGuard<'static, Shelf> {
    // Nothing panics while holding the lock; a poisoned shelf is still
    // a consistent one.
    SHELF.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The class a length of at least `MIN_LEN` falls in, and that class's
/// length: rounded up to a class boundary when `up`, down otherwise.
fn class(len: usize, up: bool) -> (usize, usize) {
    debug_assert!(len >= MIN_LEN);
    let log2 = len.ilog2();
    let base = 1usize << log2;
    let step = base / STEPS;
    let over = len - base;
    let q = if up { over.div_ceil(step) } else { over / step };
    let index = (log2 - MIN_LOG2) as usize * STEPS + q;
    (index, base + q * step)
}

/// An empty buffer with room for at least `len` elements: a shelved one
/// of `len`'s class when there is one, else a fresh one of the class's
/// exact length.
pub(crate) fn take(len: usize) -> Vec<f32> {
    if len < MIN_LEN {
        return Vec::with_capacity(len);
    }
    let (index, class_len) = class(len, true);
    let mut shelf = shelf();
    if let Some(buf) = shelf.classes.get_mut(index).and_then(Vec::pop) {
        shelf.bytes -= buf.capacity() * size_of::<f32>();
        return buf;
    }
    drop(shelf);
    Vec::with_capacity(class_len)
}

/// Shelves a buffer nobody holds any more (freed instead when it is
/// under 1 KiB or the shelf is full).
pub(crate) fn give(mut buf: Vec<f32>) {
    let capacity = buf.capacity();
    if capacity < MIN_LEN {
        return;
    }
    buf.clear();
    let (index, _) = class(capacity, false);
    let bytes = capacity * size_of::<f32>();
    let mut shelf = shelf();
    if shelf.bytes + bytes > MAX_SHELVED_BYTES {
        drop(shelf);
        return;
    }
    if shelf.classes.len() <= index {
        shelf.classes.resize_with(index + 1, Vec::new);
    }
    shelf.classes[index].push(buf);
    shelf.bytes += bytes;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_step_a_quarter_of_a_doubling() {
        let up = |len| class(len, true);
        assert_eq!(up(256), (0, 256));
        assert_eq!(up(257), (1, 320));
        assert_eq!(up(320), (1, 320));
        assert_eq!(up(321), (2, 384));
        assert_eq!(up(449), (4, 512));
        assert_eq!(up(512), (4, 512));
        assert_eq!(up(513), (5, 640));
        for len in MIN_LEN..5000 {
            let (index, class_len) = up(len);
            assert!(class_len >= len && class_len * 4 < len * 5);
            // A class's own length shelves into that class, and a longer
            // capacity never shelves below a request it could serve.
            assert_eq!(class(class_len, false), (index, class_len));
            let (down, down_len) = class(len, false);
            assert!(down_len <= len && down <= index);
        }
    }

    #[test]
    fn a_returned_buffer_serves_the_next_request_of_its_class() {
        // Lengths no other test in this crate builds, so no parallel test
        // takes the buffer in between.
        let len = 3_000_017;
        let buf = take(len);
        assert!(buf.is_empty() && buf.capacity() >= len);
        let ptr = buf.as_ptr();
        give(buf);
        let again = take(len - 5);
        assert_eq!(again.as_ptr(), ptr);
        assert!(again.is_empty());
        give(again);
        // Small buffers are not shelved.
        let small = take(MIN_LEN - 1);
        assert!(small.capacity() < MIN_LEN);
    }
}
