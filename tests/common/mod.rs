//! Golden figure digests shared by the sweep acceptance tests: an FNV-1a
//! digest over every byte of a figure's data, checked against the
//! seed-2021 lines of the committed golden table. A refactor that claims
//! to leave the figures alone proves it here, without an oracle copy of
//! the code it replaced.

use isolation_bench::prelude::*;

/// The committed golden table: one `seed slug hex-digest` line per
/// experiment and golden seed, quick mode.
const GOLDEN: &str = include_str!("../../perfbench/golden/digests.txt");

/// The root seed the acceptance fixtures run at.
const SEED: u64 = 2021;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(mut hash: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// The digest of a figure's data: slug, title, series labels, and each
/// point's label and the exact bits of its numbers.
fn figure_digest(fig: &FigureData) -> u64 {
    let mut h = fnv(FNV_OFFSET, fig.experiment.slug().as_bytes());
    h = fnv(h, &[0]);
    h = fnv(h, fig.title.as_bytes());
    for series in &fig.series {
        h = fnv(h, &[1]);
        h = fnv(h, series.label.as_bytes());
        for p in &series.points {
            h = fnv(h, &[2]);
            h = fnv(h, p.x.as_bytes());
            for v in [p.x_value, p.mean, p.std_dev] {
                h = fnv(h, &v.to_bits().to_le_bytes());
            }
        }
    }
    h
}

/// The golden seed-2021 digest of `slug`.
fn golden(slug: &str) -> u64 {
    GOLDEN
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .find_map(|l| {
            let fields: Vec<&str> = l.split_whitespace().collect();
            match fields.as_slice() {
                [seed, name, digest] if *seed == SEED.to_string() && *name == slug => {
                    Some(u64::from_str_radix(digest, 16).expect("hex golden digest"))
                }
                _ => None,
            }
        })
        .unwrap_or_else(|| panic!("no seed-{SEED} golden digest for {slug}"))
}

/// Asserts that `fig`, computed in quick mode at seed 2021, matches its
/// golden digest byte for byte.
pub fn assert_golden(fig: &FigureData) {
    let slug = fig.experiment.slug();
    assert_eq!(
        format!("{:016x}", figure_digest(fig)),
        format!("{:016x}", golden(slug)),
        "{slug}: figure data moved from the golden table"
    );
}
