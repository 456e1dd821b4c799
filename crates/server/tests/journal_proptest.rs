//! Property-based torture of the spool directory: arbitrary put/drop
//! streams through the registry, then arbitrary damage to any file under
//! `frames/` — truncation, bit flips, appended garbage, deletion,
//! tombstones included — plus a planted header-less file. Recovery must
//! never panic, never serve a payload that fails its checksum, never invent
//! a frame that was never put, and report every quarantine.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

use lux_server::journal::read_spool;
use lux_server::protocol::crc32;
use lux_server::Registry;
use proptest::prelude::*;

fn tmp_dir(tag: &str, case: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lux_jprop_{tag}_{}_{case}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// One scripted mutation of server state.
#[derive(Debug, Clone)]
enum Op {
    Put { tenant: u8, name: u8, rows: u8 },
    Drop { tenant: u8, name: u8 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (0u8..3, 0u8..4, 1u8..12).prop_map(|(tenant, name, rows)| Op::Put {
            tenant,
            name,
            rows
        }),
        2 => (0u8..3, 0u8..4).prop_map(|(tenant, name)| Op::Drop { tenant, name }),
    ]
}

/// One scripted act of on-disk vandalism, applied after the "crash".
#[derive(Debug, Clone)]
enum Damage {
    /// Truncate a file to `frac`/255 of its length (0 = empty it).
    Truncate { pick: u8, frac: u8 },
    /// XOR one byte at a pseudo-position.
    FlipBit { pick: u8, pos: u16, bit: u8 },
    /// Append raw garbage.
    Garbage { pick: u8, bytes: Vec<u8> },
    /// Delete a file outright.
    Delete { pick: u8 },
}

fn damage_strategy() -> impl Strategy<Value = Damage> {
    prop_oneof![
        (0u8..=255, 0u8..=255).prop_map(|(pick, frac)| Damage::Truncate { pick, frac }),
        (0u8..=255, 0u16..=u16::MAX, 0u8..8).prop_map(|(pick, pos, bit)| Damage::FlipBit {
            pick,
            pos,
            bit
        }),
        (0u8..=255, proptest::collection::vec(0u8..=255, 1..48))
            .prop_map(|(pick, bytes)| Damage::Garbage { pick, bytes }),
        (0u8..=255u8).prop_map(|pick| Damage::Delete { pick }),
    ]
}

fn csv_payload(rows: u8) -> String {
    let mut s = String::from("a,b\n");
    for i in 0..rows {
        s.push_str(&format!("{i},{}\n", u16::from(i) * 3));
    }
    s
}

/// A frame's `(tenant, name)`.
type Key = (String, String);

/// Apply `ops` through a registry, then "crash" (drop it). Returns the live
/// frames, key -> payload, and every key ever put.
fn build_state(dir: &Path, ops: &[Op]) -> (BTreeMap<Key, String>, BTreeSet<Key>) {
    let (reg, _) = Registry::recover(dir).unwrap();
    let mut live = BTreeMap::new();
    let mut ever = BTreeSet::new();
    for op in ops {
        match op {
            Op::Put { tenant, name, rows } => {
                let (t, n) = (format!("t{tenant}"), format!("f{name}"));
                let payload = csv_payload(*rows);
                let entry = reg.put_frame(&t, &n, &payload, "tok").unwrap();
                assert!(entry.seq > 0, "healthy put must be durable");
                ever.insert((t.clone(), n.clone()));
                live.insert((t, n), payload);
            }
            Op::Drop { tenant, name } => {
                let (t, n) = (format!("t{tenant}"), format!("f{name}"));
                assert_eq!(reg.drop_frame(&t, &n), live.remove(&(t, n)).is_some());
            }
        }
    }
    (live, ever)
}

/// Every file under `<dir>/<tree>/`, sorted.
fn files_under(dir: &Path, tree: &str) -> Vec<PathBuf> {
    let mut out = Vec::new();
    if let Ok(tenants) = std::fs::read_dir(dir.join(tree)) {
        for t in tenants.flatten() {
            if let Ok(files) = std::fs::read_dir(t.path()) {
                out.extend(files.flatten().map(|f| f.path()));
            }
        }
    }
    out.sort();
    out
}

fn apply_damage(dir: &Path, damage: &Damage) {
    let files = files_under(dir, "frames");
    let pick = |pick: u8| files.get(usize::from(pick) % files.len().max(1));
    match damage {
        Damage::Truncate { pick: p, frac } => {
            if let Some(p) = pick(*p) {
                if let Ok(bytes) = std::fs::read(p) {
                    let keep = bytes.len() * usize::from(*frac) / 255;
                    let _ = std::fs::write(p, &bytes[..keep]);
                }
            }
        }
        Damage::FlipBit { pick: p, pos, bit } => {
            if let Some(p) = pick(*p) {
                if let Ok(mut bytes) = std::fs::read(p) {
                    if !bytes.is_empty() {
                        let at = usize::from(*pos) % bytes.len();
                        bytes[at] ^= 1 << bit;
                        let _ = std::fs::write(p, &bytes);
                    }
                }
            }
        }
        Damage::Garbage { pick: p, bytes } => {
            if let Some(p) = pick(*p) {
                if let Ok(mut cur) = std::fs::read(p) {
                    cur.extend_from_slice(bytes);
                    let _ = std::fs::write(p, &cur);
                }
            }
        }
        Damage::Delete { pick: p } => {
            if let Some(p) = pick(*p) {
                let _ = std::fs::remove_file(p);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Undamaged state always recovers exactly: every live frame is served
    /// with its payload's checksum, nothing else is, nothing is quarantined.
    #[test]
    fn clean_recovery_is_exact(
        ops in proptest::collection::vec(op_strategy(), 1..40),
        case in 0u64..u64::MAX,
    ) {
        let dir = tmp_dir("clean", case);
        let (live, _) = build_state(&dir, &ops);
        let (reg, notes) = Registry::recover(&dir).expect("recover");
        prop_assert_eq!(reg.frame_count(), live.len(), "{:?}", notes);
        for ((t, n), payload) in &live {
            let entry = reg.get(t, n).expect("live frame recovered");
            prop_assert_eq!(entry.crc, crc32(payload.as_bytes()));
        }
        prop_assert!(files_under(&dir, "quarantine").is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Damaged state never panics, never serves a payload that fails its
    /// checksum, never invents a frame, and reports every quarantine.
    #[test]
    fn damage_never_panics_and_never_serves_corrupt_frames(
        ops in proptest::collection::vec(op_strategy(), 1..40),
        damage in proptest::collection::vec(damage_strategy(), 1..6),
        case in 0u64..u64::MAX,
    ) {
        let dir = tmp_dir("damage", case);
        let (_, ever) = build_state(&dir, &ops);
        for d in &damage {
            apply_damage(&dir, d);
        }
        // Plus a header-less file of a frame that was never put: it must
        // be quarantined, not served.
        std::fs::create_dir_all(dir.join("frames/t0")).unwrap();
        std::fs::write(dir.join("frames/t0/ghost.1.csv"), "a,b\n1,2\n").unwrap();
        let (reg, notes) = Registry::recover(&dir).expect("recover never fails");
        for t in 0..3 {
            let tenant = format!("t{t}");
            for name in reg.list(&tenant) {
                prop_assert!(ever.contains(&(tenant.clone(), name.clone())),
                    "recovery invented frame {}/{}", tenant, name);
                let entry = reg.get(&tenant, &name).unwrap();
                let spool = read_spool(&dir.join(&entry.file))
                    .unwrap_or_else(|e| panic!("served frame fails verification: {e}"));
                prop_assert_eq!(crc32(&spool.payload), entry.crc,
                    "served a frame whose payload fails its checksum");
            }
        }
        let quarantined = files_under(&dir, "quarantine");
        prop_assert!(quarantined.iter().any(|p| p.ends_with("t0/ghost.1.csv")));
        for p in &quarantined {
            let file = p.strip_prefix(dir.join("quarantine")).unwrap().display().to_string();
            prop_assert!(notes.iter().any(|n| n.contains(&file) && n.contains("quarantined")),
                "quarantine of {} not reported: {:?}", file, notes);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
