//! Property-based torture of journal + spool recovery: arbitrary op
//! streams followed by arbitrary on-disk corruption — truncation, bit
//! flips, appended garbage, deleted spools — must never panic replay,
//! never produce a recovered frame whose payload fails its journaled
//! checksum, and always account for the damage (skipped lines, quarantined
//! or unreadable spools) instead of silently absorbing it.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use lux_server::journal::{self, FsyncPolicy, Journal, JournalConfig, PutRecord, SnapshotState};
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
    Compact,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (0u8..3, 0u8..4, 1u8..12).prop_map(|(tenant, name, rows)| Op::Put {
            tenant,
            name,
            rows
        }),
        2 => (0u8..3, 0u8..4).prop_map(|(tenant, name)| Op::Drop { tenant, name }),
        1 => Just(Op::Compact),
    ]
}

/// One scripted act of on-disk vandalism, applied after the "crash".
#[derive(Debug, Clone)]
enum Damage {
    /// Truncate a file to `frac`/255 of its length (0 = empty it).
    Truncate { target: u8, frac: u8 },
    /// XOR one byte at a pseudo-position.
    FlipBit { target: u8, pos: u16, bit: u8 },
    /// Append raw garbage.
    Garbage { target: u8, bytes: Vec<u8> },
    /// Delete a spool file outright.
    DeleteSpool { pick: u8 },
}

fn damage_strategy() -> impl Strategy<Value = Damage> {
    prop_oneof![
        (0u8..4, 0u8..=255).prop_map(|(target, frac)| Damage::Truncate { target, frac }),
        (0u8..4, 0u16..=u16::MAX, 0u8..8).prop_map(|(target, pos, bit)| Damage::FlipBit {
            target,
            pos,
            bit
        }),
        (0u8..4, proptest::collection::vec(0u8..=255, 1..48))
            .prop_map(|(target, bytes)| Damage::Garbage { target, bytes }),
        (0u8..=255u8).prop_map(|pick| Damage::DeleteSpool { pick }),
    ]
}

fn csv_payload(rows: u8) -> String {
    let mut s = String::from("a,b\n");
    for i in 0..rows {
        s.push_str(&format!("{i},{}\n", u16::from(i) * 3));
    }
    s
}

/// Drive the journal module directly (no env, no registry) so the test is
/// hermetic under parallel execution. Returns the live frames the journal
/// has acked: (tenant, name) -> payload.
fn build_state(
    dir: &Path,
    ops: &[Op],
) -> (
    BTreeMap<(String, String), Vec<u8>>,
    std::collections::BTreeSet<(String, String)>,
) {
    let cfg = JournalConfig {
        fsync: FsyncPolicy::Never, // tmpfs torture: no durability needed
        compact_bytes: u64::MAX,
        compact_lines: u64::MAX, // compaction only via the explicit op
    };
    let mut j = Journal::open(dir, cfg, journal::replay(dir).last_seq).unwrap();
    let mut live: BTreeMap<(String, String), (PutRecord, Vec<u8>)> = BTreeMap::new();
    let mut ever = std::collections::BTreeSet::new();
    let mut tenants: Vec<String> = Vec::new();
    for op in ops {
        match op {
            Op::Put { tenant, name, rows } => {
                let (t, n) = (format!("t{tenant}"), format!("f{name}"));
                if !tenants.contains(&t) {
                    tenants.push(t.clone());
                    j.record_tenant(&t);
                }
                let payload = csv_payload(*rows).into_bytes();
                let mut rec = PutRecord {
                    tenant: t.clone(),
                    name: n.clone(),
                    rows: u64::from(*rows),
                    cols: 2,
                    file: journal::spool_rel_path(&t, &n, j.next_seq()),
                    len: payload.len() as u64,
                    crc: crc32(&payload),
                    token: format!("tok-{}", j.next_seq()),
                    seq: 0,
                };
                journal::spool_write(&dir.join(&rec.file), &payload, false).unwrap();
                rec.seq = j.record_put(&rec).durable().unwrap();
                ever.insert((t.clone(), n.clone()));
                live.insert((t, n), (rec, payload));
            }
            Op::Drop { tenant, name } => {
                let (t, n) = (format!("t{tenant}"), format!("f{name}"));
                if live.remove(&(t.clone(), n.clone())).is_some() {
                    j.record_drop(&t, &n);
                }
            }
            Op::Compact => {
                let state = SnapshotState {
                    tenants: tenants.clone(),
                    frames: live.values().map(|(rec, _)| rec.clone()).collect(),
                };
                j.compact(&state);
                assert!(j.degraded().is_none(), "compact must not degrade here");
            }
        }
    }
    (live.into_iter().map(|(k, (_, p))| (k, p)).collect(), ever)
}

fn spool_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    if let Ok(tenants) = std::fs::read_dir(dir.join("frames")) {
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
    let target_path = |target: u8| -> Option<PathBuf> {
        match target % 4 {
            0 => Some(dir.join("journal.jsonl")),
            1 => Some(dir.join("snapshot.jsonl")),
            _ => {
                let files = spool_files(dir);
                if files.is_empty() {
                    None
                } else {
                    Some(files[target as usize % files.len()].clone())
                }
            }
        }
    };
    match damage {
        Damage::Truncate { target, frac } => {
            if let Some(p) = target_path(*target) {
                if let Ok(bytes) = std::fs::read(&p) {
                    let keep = bytes.len() * usize::from(*frac) / 255;
                    let _ = std::fs::write(&p, &bytes[..keep]);
                }
            }
        }
        Damage::FlipBit { target, pos, bit } => {
            if let Some(p) = target_path(*target) {
                if let Ok(mut bytes) = std::fs::read(&p) {
                    if !bytes.is_empty() {
                        let at = usize::from(*pos) % bytes.len();
                        bytes[at] ^= 1 << bit;
                        let _ = std::fs::write(&p, &bytes);
                    }
                }
            }
        }
        Damage::Garbage { target, bytes } => {
            if let Some(p) = target_path(*target) {
                if let Ok(mut cur) = std::fs::read(&p) {
                    cur.extend_from_slice(bytes);
                    let _ = std::fs::write(&p, &cur);
                }
            }
        }
        Damage::DeleteSpool { pick } => {
            let files = spool_files(dir);
            if !files.is_empty() {
                let _ = std::fs::remove_file(&files[usize::from(*pick) % files.len()]);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Undamaged state always recovers exactly: every acked live frame is
    /// replayed, passes verification byte-for-byte, nothing is skipped.
    #[test]
    fn clean_recovery_is_exact(
        ops in proptest::collection::vec(op_strategy(), 1..40),
        case in 0u64..u64::MAX,
    ) {
        let dir = tmp_dir("clean", case);
        let (live, _) = build_state(&dir, &ops);
        let replayed = journal::replay(&dir);
        prop_assert_eq!(replayed.skipped, 0);
        prop_assert_eq!(replayed.frames.len(), live.len());
        for rec in &replayed.frames {
            let bytes = journal::verify_spool(&dir, rec)
                .unwrap_or_else(|e| panic!("verify failed: {e}"));
            let expect = &live[&(rec.tenant.clone(), rec.name.clone())];
            prop_assert_eq!(&bytes, expect, "replayed payload differs");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Damaged state never panics, never yields a frame whose payload
    /// fails its journaled checksum, and accounts for every casualty:
    /// a frame is either recovered intact or reported (quarantined /
    /// unreadable), with counts to match.
    #[test]
    fn corruption_never_panics_and_never_serves_corrupt_frames(
        ops in proptest::collection::vec(op_strategy(), 1..40),
        damage in proptest::collection::vec(damage_strategy(), 1..6),
        case in 0u64..u64::MAX,
    ) {
        let dir = tmp_dir("damage", case);
        let (_, ever) = build_state(&dir, &ops);
        for d in &damage {
            apply_damage(&dir, d);
        }
        // Plus one unframed (no `v2` header, so no checksum) put of a frame
        // that was never stored: it must count as corrupt, not replay.
        let mut journal_text = std::fs::read(dir.join("journal.jsonl")).unwrap_or_default();
        journal_text.extend_from_slice(
            b"\n{\"op\":\"put\",\"tenant\":\"t0\",\"name\":\"ghost\",\"rows\":1,\"cols\":2,\
              \"file\":\"frames/t0/ghost.csv\",\"len\":0,\"crc\":0,\"token\":\"\"}\n",
        );
        std::fs::write(dir.join("journal.jsonl"), journal_text).unwrap();
        // Replay must hold its invariants on whatever is left. Damage may
        // *resurrect* a dropped frame (a lost `drop` record) — that is a
        // reported casualty, not corruption — but it can never invent a
        // frame that was never put.
        let replayed = journal::replay(&dir);
        prop_assert!(replayed.skipped >= 1, "the unframed line was not counted");
        for rec in &replayed.frames {
            prop_assert!(ever.contains(&(rec.tenant.clone(), rec.name.clone())),
                "replay invented frame {}/{}", rec.tenant, rec.name);
        }
        let mut quarantined = 0usize;
        let mut unreadable = 0usize;
        for rec in &replayed.frames {
            match journal::verify_spool(&dir, rec) {
                Ok(bytes) => {
                    // Anything verification lets through matches the
                    // journaled facts exactly.
                    prop_assert_eq!(bytes.len() as u64, rec.len);
                    prop_assert_eq!(crc32(&bytes), rec.crc);
                }
                Err(reason) if reason.contains("quarantined") => {
                    quarantined += 1;
                    // The damaged payload is out of serving position.
                    prop_assert!(!dir.join(&rec.file).exists(),
                        "quarantined spool left in place: {}", rec.file);
                }
                Err(_) => unreadable += 1, // deleted / unreadable spool
            }
        }
        prop_assert!(quarantined + unreadable <= replayed.frames.len());
        // And the full registry path serves only verified payloads — no
        // panic, no corrupt frame, whatever we did to the disk.
        let (reg, notes) = Registry::recover(&dir).expect("recover never fails");
        for t in 0..3 {
            let tenant = format!("t{t}");
            for name in reg.list(&tenant) {
                let entry = reg.get(&tenant, &name).unwrap();
                let bytes = std::fs::read(dir.join(&entry.file))
                    .unwrap_or_else(|e| panic!("served frame lost its spool: {e}"));
                prop_assert_eq!(crc32(&bytes), entry.crc,
                    "served a frame whose payload fails its checksum");
            }
        }
        // Every casualty is reported, never silent: if anything was
        // quarantined the notes say so.
        if quarantined > 0 {
            prop_assert!(notes.iter().any(|n| n.contains("quarantined")),
                "quarantine happened but was not reported: {notes:?}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
