//! Set-up cost of a multi-processor must be linear in its core count.
//!
//! The DP–DP message fabric keeps one inbox per destination rather than
//! one queue per (source, destination) pair, so building a machine never
//! pays for the n² channels an all-to-all crossbar could in principle
//! carry.  A counting global allocator pins this down: building a
//! 1024-core IMP-II machine (full DP–DP crossbar) allocates a bounded
//! number of bytes per core.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use skilltax_machine::multi::{MultiMachine, MultiSubtype};

/// The system allocator with a per-thread allocated-bytes counter (the
/// harness's own threads must not be charged to the machine build).
struct CountingAlloc;

thread_local! {
    // Const-initialised and drop-free, so touching it never allocates.
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn bump(bytes: usize) {
    // `try_with`: a thread being torn down may still free and allocate.
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

// Delegates every call to `System` verbatim and only adds a counter
// bump on the allocation paths.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Bytes allocated while building an IMP-II machine of `cores` cores with
/// 4 words per bank.
fn setup_bytes(cores: usize) -> u64 {
    let subtype = MultiSubtype::from_index(2).unwrap();
    assert!(
        subtype.dp_dp_crossbar(),
        "IMP-II carries the DP-DP crossbar"
    );
    let before = BYTES.with(Cell::get);
    let machine = MultiMachine::new(subtype, cores, 4);
    let after = BYTES.with(Cell::get);
    drop(machine);
    after - before
}

#[test]
fn imp_ii_setup_allocates_linear_in_cores() {
    let cores = 1024;
    let bytes = setup_bytes(cores);
    // A queue per (source, destination) pair would need 32 bytes per
    // channel, i.e. 32 MiB at 1024 cores; a few hundred bytes per core
    // covers the cores, banks and inboxes with room to spare.
    const PER_CORE: u64 = 512;
    assert!(
        bytes <= PER_CORE * cores as u64,
        "{cores}-core set-up allocated {bytes} bytes, over {PER_CORE} per core"
    );
}
