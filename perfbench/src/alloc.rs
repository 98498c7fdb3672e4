//! A counting global allocator: every allocation a thread makes, the
//! simulator's included, bumps that thread's counter. Layers read the
//! counter before and after a call to charge the allocations to it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Forwards to the system allocator and counts `alloc`/`realloc` calls.
pub struct Counting;

thread_local! {
    // Const-initialised and without a destructor, so reading it never
    // allocates and stays valid for the whole life of the thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    ALLOCS.with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; counting touches only a thread-local integer.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocations made by the calling thread so far.
pub fn count() -> u64 {
    ALLOCS.with(Cell::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_a_known_allocation() {
        let before = count();
        let b = std::hint::black_box(Box::new([7u8; 64]));
        assert_eq!(count() - before, 1, "one Box::new is one allocation");
        drop(b);
        let mut v: Vec<u64> = std::hint::black_box(Vec::with_capacity(4));
        v.extend(0..64);
        assert_eq!(count() - before, 3, "with_capacity plus one growing realloc");
        drop(v);
        assert_eq!(count() - before, 3, "frees are not counted");
    }
}
