//! Quickstart: index an ordered relation with a BF-Tree through the
//! unified `AccessMethod` surface, probe it, and compare its footprint
//! with a B+-Tree.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use bftree::{AccessMethod, BfTree};
use bftree_access::{DurableConfig, DurableIndex, RangeCursor, RangeCursorExt};
use bftree_btree::{BPlusTree, BTreeConfig};
use bftree_storage::tuple::PK_OFFSET;
use bftree_storage::{
    DeviceKind, Duplicates, HeapFile, IoContext, PageDevice, Relation, TupleLayout,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A relation of 256-byte tuples, ordered on its primary key —
    //    the "implicit clustering" the BF-Tree exploits. The Relation
    //    handle bundles the heap file, the indexed attribute, and the
    //    duplicate layout.
    let mut heap = HeapFile::new(TupleLayout::new(256));
    for pk in 0..200_000u64 {
        heap.append_record(pk, pk / 11);
    }
    let relation = Relation::new(heap, PK_OFFSET, Duplicates::Unique)?;
    println!(
        "relation: {} tuples in {} pages ({} MB)",
        relation.heap().tuple_count(),
        relation.heap().page_count(),
        relation.heap().byte_size() >> 20
    );

    // 2. Bulk-load a BF-Tree at a chosen accuracy. fpp is the knob:
    //    looser = smaller index + more false reads.
    let tree = BfTree::builder().fpp(1e-3).build(&relation)?;

    // 3. Probe it (Algorithm 1) through the AccessMethod trait — the
    //    same interface the B+-Tree, hash-index, and FD-Tree baselines
    //    implement. An unmetered IoContext means "just correctness".
    let index: &dyn AccessMethod = &tree;
    let io = IoContext::unmetered();
    let probe = index.probe_first(123_456, &relation, &io)?;
    let (pid, slot) = probe.matches[0];
    assert_eq!(relation.heap().attr(pid, slot, PK_OFFSET), 123_456);
    println!(
        "probe(123456): found on page {pid} slot {slot} — {} page read(s)",
        probe.pages_read
    );

    // 4. A miss costs (almost) nothing: the filters reject it.
    let miss = index.probe_first(999_999_999, &relation, &io)?;
    assert!(!miss.found());
    println!(
        "probe(999999999): not found — {} page read(s)",
        miss.pages_read
    );

    // 5. Size comparison with an exact B+-Tree over the same key,
    //    built through the same trait.
    let mut bp = BPlusTree::new(BTreeConfig::paper_default());
    AccessMethod::build(&mut bp, &relation)?;
    println!(
        "index size: BF-Tree {} pages vs B+-Tree {} pages -> {:.1}x smaller",
        tree.total_pages(),
        bp.total_pages(),
        bp.total_pages() as f64 / tree.total_pages() as f64
    );

    // 6. Range scans work too (§7): partitions overlapping the range
    //    are scanned, with the boundary partitions' overhead reported.
    let scan = index.range_scan(1_000, 2_000, &relation, &io)?;
    println!(
        "range [1000, 2000]: {} matches from {} page reads ({} overhead)",
        scan.matches.len(),
        scan.pages_read,
        scan.overhead_pages
    );

    // 7. Or stream the same range as pages of 10: a limit(10) cursor
    //    reads only the data pages behind the rows it delivers, and
    //    the continuation token re-enters the scan exactly where the
    //    previous request stopped.
    let mut cursor = index.range_cursor(1_000, 2_000, &relation, &io)?.limit(10);
    let mut first_page = Vec::new();
    while let Some(rows) = cursor.next_page_matches() {
        first_page.extend_from_slice(rows);
        cursor.advance();
    }
    assert_eq!(first_page.len(), 10);
    let token = cursor.continuation().expect("991 matches still pending");
    println!(
        "paginated range [1000, 2000]: first {} rows from {} page read(s); resume token {:?}",
        first_page.len(),
        cursor.io().pages_read,
        token
    );
    let next_request = index.resume_range_cursor(&token, &relation, &io)?;
    drop((cursor, next_request)); // release the borrows on `tree`

    // 8. Make the write path durable: wrap any index in a WAL + ingest
    //    memtable. Writes hit the log first (group-committed), are
    //    served from the memtable immediately, and bulk-flush into the
    //    base index; `DurableIndex::recover` replays a crashed log
    //    back to identical answers (see tests/write_path_recovery.rs).
    let mut relation = relation;
    let mut durable = DurableIndex::new(
        tree,
        &relation,
        PageDevice::cold(DeviceKind::Ssd),
        DurableConfig::default(),
    );
    let key = 1_000_000u64;
    let loc = relation.append_tuple(key, key, &io);
    durable.insert(key, loc, &relation)?;
    assert!(durable.probe_first(key, &relation, &io)?.found());
    println!(
        "durable insert({key}): logged {} bytes ({}), served from the memtable",
        durable.wal().len(),
        durable.wal().mode().label(),
    );
    Ok(())
}
