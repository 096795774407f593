//! DKG1 streams whose count fields promise far more records than the body
//! holds must fail with a typed error, and must do so without allocating
//! for the promised records. A counting global allocator records the
//! largest single request made while decoding.

use dkindex_graph::io::{read_graph, write_str, write_u32, ReadError};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct Largest;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the atomic bookkeeping
// neither allocates nor touches the returned memory.
unsafe impl GlobalAlloc for Largest {
    // SAFETY: same contract as `System.alloc`, to which it forwards.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: forwarded unchanged to the system allocator.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: same contract as `System.dealloc`, to which it forwards.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: same contract as `System.realloc`, to which it forwards.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        // SAFETY: forwarded unchanged to the system allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Largest = Largest;

/// Header and labels of a DKG1 stream, then `nodes` as the declared node
/// count followed by three valid node records.
fn stream_with_node_count(nodes: u32) -> Vec<u8> {
    let mut bytes = b"DKG1".to_vec();
    write_u32(&mut bytes, 2).unwrap();
    write_str(&mut bytes, "ROOT").unwrap();
    write_str(&mut bytes, "VALUE").unwrap();
    write_u32(&mut bytes, nodes).unwrap();
    for label in [0, 1, 1] {
        write_u32(&mut bytes, label).unwrap();
    }
    bytes
}

fn largest_allocation_while(decode: impl FnOnce()) -> usize {
    LARGEST.store(0, Ordering::Relaxed);
    decode();
    LARGEST.load(Ordering::Relaxed)
}

/// One test only: the allocator's high-water mark is process-wide, so no
/// other test may allocate concurrently in this binary.
#[test]
fn huge_declared_counts_fail_typed_without_a_large_allocation() {
    const LIMIT: usize = 1 << 20;

    let nodes = stream_with_node_count(u32::MAX);
    let largest = largest_allocation_while(|| {
        let err = read_graph(&mut nodes.as_slice()).unwrap_err();
        assert!(
            matches!(err, ReadError::Io(ref e) if e.kind() == std::io::ErrorKind::UnexpectedEof)
        );
    });
    assert!(
        largest < LIMIT,
        "u32::MAX nodes allocated {largest} bytes at once"
    );

    let mut edges = stream_with_node_count(3);
    write_u32(&mut edges, u32::MAX).unwrap();
    for (from, to) in [(0u32, 1u32), (1, 2)] {
        write_u32(&mut edges, from).unwrap();
        write_u32(&mut edges, to).unwrap();
        edges.push(0);
    }
    let largest = largest_allocation_while(|| {
        let err = read_graph(&mut edges.as_slice()).unwrap_err();
        assert!(
            matches!(err, ReadError::Io(ref e) if e.kind() == std::io::ErrorKind::UnexpectedEof)
        );
    });
    assert!(
        largest < LIMIT,
        "u32::MAX edges allocated {largest} bytes at once"
    );
}
