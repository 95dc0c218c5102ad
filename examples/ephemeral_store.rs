//! Ephemeral storage over the *threaded* CoRM server — real worker threads
//! polling the shared RPC queue, real concurrent clients.
//!
//! Models the paper's "ephemeral storage" use case: tasks burst-write
//! intermediate results, other tasks consume (read + free) them, and the
//! node periodically compacts the churned heap. Demonstrates the threaded
//! execution mode where CPU writers and compaction genuinely race with
//! one-sided readers.
//!
//! Run: `cargo run --release --example ephemeral_store`

use std::sync::atomic::Ordering;
use std::sync::Arc;

use corm::core::server::threaded::{Request, Response, ThreadedServer};
use corm::core::server::{CormServer, ServerConfig};

fn main() {
    let server = Arc::new(CormServer::new(ServerConfig { workers: 4, ..ServerConfig::default() }));
    let node = ThreadedServer::start(server.clone());

    // Producers: each writes a burst of intermediate results.
    let mut producers = Vec::new();
    for p in 0..4 {
        let rpc = node.rpc_client();
        producers.push(std::thread::spawn(move || {
            let mut handles = Vec::new();
            for i in 0..200 {
                let data = format!("shuffle-partition-{p}-{i}").into_bytes();
                let ptr = match rpc.call(Request::Alloc { len: data.len() }).unwrap() {
                    Response::Ptr(ptr) => ptr,
                    other => panic!("alloc failed: {other:?}"),
                };
                match rpc.call(Request::Write { ptr, data }).unwrap() {
                    Response::Done(_) => handles.push(ptr),
                    other => panic!("write failed: {other:?}"),
                }
            }
            handles
        }));
    }
    let partitions: Vec<Vec<_>> = producers.into_iter().map(|p| p.join().unwrap()).collect();
    println!(
        "produced {} objects; active memory {} KiB",
        partitions.iter().map(Vec::len).sum::<usize>(),
        server.active_bytes() / 1024
    );

    // Consumers: read then free ~90% of the objects concurrently.
    let mut consumers = Vec::new();
    for (p, handles) in partitions.into_iter().enumerate() {
        let rpc = node.rpc_client();
        consumers.push(std::thread::spawn(move || {
            let mut kept = Vec::new();
            for (i, ptr) in handles.into_iter().enumerate() {
                let expect = format!("shuffle-partition-{p}-{i}").into_bytes();
                match rpc.call(Request::Read { ptr, len: expect.len() }).unwrap() {
                    Response::Data { data, .. } => assert_eq!(data, expect),
                    other => panic!("read failed: {other:?}"),
                }
                if i % 10 == 0 {
                    kept.push(ptr); // long-lived result
                } else {
                    match rpc.call(Request::Free { ptr }).unwrap() {
                        Response::Done(_) => {}
                        other => panic!("free failed: {other:?}"),
                    }
                }
            }
            kept
        }));
    }
    let survivors: Vec<_> = consumers.into_iter().flat_map(|c| c.join().unwrap()).collect();
    let before = server.active_bytes();
    println!("consumed: {} survivors, active memory {} KiB", survivors.len(), before / 1024);

    // Compact every fragmented class while the node keeps serving.
    let frag = server.fragmentation_report();
    let mut freed = 0;
    for class in frag.classes_exceeding(1.5) {
        freed += node.compact_class(class).expect("compaction").merges;
    }
    println!(
        "compaction freed {freed} blocks: {} KiB -> {} KiB",
        before / 1024,
        server.active_bytes() / 1024
    );

    // Survivors remain readable over RPC after compaction.
    let rpc = node.rpc_client();
    for ptr in &survivors {
        match rpc.call(Request::Read { ptr: *ptr, len: 8 }).unwrap() {
            Response::Data { data, .. } => assert!(data.starts_with(b"shuffle-")),
            other => panic!("post-compaction read failed: {other:?}"),
        }
    }
    println!(
        "all {} survivors verified; corrections={} served-requests={:?}",
        survivors.len(),
        server.stats.corrections.load(Ordering::Relaxed),
        node.shutdown()
    );
}
