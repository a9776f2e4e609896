//! A grid slab's memory is the boxes a cold reach build lays out
//! (DESIGN §11): a cold reach build on 2BXG must grow resident memory by
//! well under the whole lattice's slabs, by little more than the box bytes
//! it allocates, and each box page it writes must cost one page fault.
//!
//! The test measures the whole process, so it is a test binary of its own
//! that no other test shares. Run it in release mode:
//!
//! ```text
//! cargo test --release -p vsscore --test slab_memory -- --ignored
//! ```

use vsmol::surface::detect_spots;
use vsmol::{Dataset, SurfaceOptions};
use vsscore::{grid_cache_stats, host_threads, shared_pool, GridOptions, Kernel};
use vsscore::{Scorer, ScorerOptions};

const PAGE: u64 = 4096;

/// A `kB` field of `/proc/self/status`, in bytes.
fn status_bytes(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let line = status.lines().find(|l| l.starts_with(field)).expect("the field");
    let kb = line[field.len()..].trim().trim_end_matches("kB").trim();
    kb.parse::<u64>().expect("a count of kB") * 1024
}

/// Minor faults of this process so far: field 10 of `/proc/self/stat`,
/// counted after the parenthesised command name.
fn minor_faults() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat");
    let after = &stat[stat.rfind(')').expect("the command name") + 1..];
    // Fields 3 onward; `minflt` is field 10.
    after.split_whitespace().nth(7).expect("minflt").parse().expect("a count")
}

/// Why the measurement cannot hold on this host, if it cannot.
fn unmeasurable() -> Option<&'static str> {
    if !cfg!(target_os = "linux") {
        return Some("resident memory and faults are read from Linux's /proc");
    }
    let thp = std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled");
    if thp.is_ok_and(|mode| mode.contains("[always]")) {
        return Some("transparent huge pages are [always]: a slab's first write maps 2 MiB");
    }
    None
}

#[test]
#[ignore = "run in release mode: measures this process's resident memory and page faults"]
fn a_cold_reach_build_makes_resident_only_the_box_pages_it_writes() {
    if let Some(why) = unmeasurable() {
        eprintln!("skipped: {why}");
        return;
    }
    let (rec, lig) = (Dataset::TwoBxg.receptor(), Dataset::TwoBxg.ligand());
    let spots = detect_spots(&rec, &SurfaceOptions { max_spots: 16, ..Default::default() });
    assert_eq!(spots.len(), 16);
    let kernel = Kernel::Grid { spacing: GridOptions::default().spacing };
    let opts = ScorerOptions { kernel, ..Default::default() };
    // The build's workers start before the measurement.
    shared_pool(host_threads());

    let (rss, faults) = (status_bytes("VmRSS:"), minor_faults());
    let scorer = Scorer::for_spots(&rec, &lig, opts, &spots);
    let grown = status_bytes("VmRSS:").saturating_sub(rss);
    let faulted = minor_faults() - faults;

    let cache = grid_cache_stats();
    assert_eq!(cache.misses, 1, "{cache:?}");
    let (slabs, box_bytes) = (cache.entries, cache.bytes);
    // The same slabs over the whole lattice: a later request rebuilds them
    // whole, in place of the boxes.
    let whole = Scorer::new(&rec, &lig, opts);
    let dense = grid_cache_stats();
    assert_eq!((dense.misses, dense.entries), (2, slabs), "{dense:?}");
    let dense_bytes = dense.bytes;

    let box_pages = box_bytes.div_ceil(PAGE);
    let (dense_share, box_share, fault_share) = (
        grown as f64 / dense_bytes as f64,
        grown as f64 / box_bytes as f64,
        faulted as f64 / box_pages as f64,
    );
    eprintln!(
        "{slabs} slabs: {box_bytes} box bytes ({box_pages} pages), {dense_bytes} bytes whole; \
         resident grew {grown} bytes ({dense_share:.3} of whole, {box_share:.3} of the boxes), \
         {faulted} minor faults ({fault_share:.3} per box page)"
    );
    assert!(dense_share <= 0.40, "resident memory grew by {dense_share:.3} of the whole slabs");
    assert!(box_share <= 1.1, "resident memory grew by {box_share:.3} of the box bytes");
    assert!(fault_share <= 1.1, "{fault_share:.3} minor faults per box page");
    drop((scorer, whole));
}
