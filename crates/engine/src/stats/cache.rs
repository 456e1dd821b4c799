//! Process-wide cache of per-frame statistics partials, keyed on the frame
//! fingerprint.
//!
//! The payoff is the append path: `concat` stamps its result with
//! `(parent_fingerprint, parent_rows)`, so when metadata runs on the
//! appended frame it can fetch the parent's partials here, scan **only the
//! appended tail**, and merge — O(new rows) instead of O(all rows). Entries
//! are small (sets are capped, sketches are a few KiB) and evicted LRU past
//! a fixed 64 MiB byte budget.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use lux_dataframe::prelude::DType;

use super::ColumnStats;
use crate::sync::lock_recover;

/// Cache budget in bytes (64 MiB).
const BUDGET_BYTES: u64 = 64 << 20;

/// Cached partials for one frame, with everything needed to validate reuse.
#[derive(Debug)]
pub struct FrameStatsEntry {
    /// Rows the partials cover (the frame's row count when cached).
    pub rows: usize,
    /// Sketch precision the partials were built at.
    pub precision: u32,
    /// Per column, in frame order: name, dtype, the scan cap its pass was
    /// planned with, and the merged partial.
    pub columns: Vec<(String, DType, usize, ColumnStats)>,
}

impl FrameStatsEntry {
    fn bytes(&self) -> u64 {
        self.columns
            .iter()
            .map(|(name, _, _, stats)| 64 + name.len() as u64 + stats.bytes())
            .sum()
    }
}

struct StatsCache {
    entries: HashMap<u64, (u64, Arc<FrameStatsEntry>)>,
    total_bytes: u64,
}

fn cache() -> &'static Mutex<StatsCache> {
    static CACHE: OnceLock<Mutex<StatsCache>> = OnceLock::new();
    CACHE.get_or_init(|| {
        Mutex::new(StatsCache {
            entries: HashMap::new(),
            total_bytes: 0,
        })
    })
}

/// Logical clock for LRU ordering (never wall time — replayable).
fn tick() -> u64 {
    static TICK: AtomicU64 = AtomicU64::new(1);
    TICK.fetch_add(1, Ordering::Relaxed)
}

/// Fetch the partials cached for `fingerprint`, refreshing its LRU slot.
pub fn lookup(fingerprint: u64) -> Option<Arc<FrameStatsEntry>> {
    let mut c = lock_recover(cache());
    let (stamp, entry) = c.entries.get_mut(&fingerprint)?;
    *stamp = tick();
    Some(Arc::clone(entry))
}

/// Cache `entry` under `fingerprint`, evicting least-recently-used frames
/// past the byte budget. An entry larger than the whole budget is not
/// cached at all.
pub fn store(fingerprint: u64, entry: Arc<FrameStatsEntry>) {
    let bytes = entry.bytes();
    if bytes > BUDGET_BYTES {
        return;
    }
    let mut c = lock_recover(cache());
    if let Some((_, old)) = c.entries.remove(&fingerprint) {
        c.total_bytes -= old.bytes();
    }
    c.total_bytes += bytes;
    c.entries.insert(fingerprint, (tick(), entry));
    while c.total_bytes > BUDGET_BYTES {
        let Some((&oldest, _)) = c
            .entries
            .iter()
            .min_by_key(|(_, (stamp, _))| *stamp)
            .map(|(k, v)| (k, v))
        else {
            break;
        };
        if let Some((_, evicted)) = c.entries.remove(&oldest) {
            c.total_bytes -= evicted.bytes();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::StatsSpec;
    use lux_dataframe::prelude::*;

    fn entry(rows: usize) -> Arc<FrameStatsEntry> {
        let col = Column::Int64(PrimitiveColumn::from_values((0..rows as i64).collect()));
        let spec = StatsSpec {
            scan_cap: 1024,
            precision: 12,
            values_cap: 8,
        };
        Arc::new(FrameStatsEntry {
            rows,
            precision: 12,
            columns: vec![(
                "x".to_string(),
                DType::Int64,
                1024,
                ColumnStats::scan(&col, 0, rows, &spec),
            )],
        })
    }

    #[test]
    fn store_then_lookup_roundtrips() {
        let fp = u64::MAX - 12345; // avoid colliding with real fingerprints
        assert!(lookup(fp).is_none());
        store(fp, entry(100));
        let got = lookup(fp).expect("cached");
        assert_eq!(got.rows, 100);
        assert_eq!(got.columns.len(), 1);
    }

    #[test]
    fn restore_replaces_and_keeps_accounting() {
        let fp = u64::MAX - 54321;
        store(fp, entry(10));
        store(fp, entry(20)); // re-store same key must not leak accounting
        assert_eq!(lookup(fp).expect("cached").rows, 20);
    }
}
