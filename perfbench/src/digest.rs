//! FNV-1a digests of figure data and the golden digests they are checked
//! against.

use harness::FigureData;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The seed the golden table was recorded at, and the held-out seed no
/// change was tuned on.
pub const GOLDEN_SEEDS: [u64; 2] = [2021, 7];

/// The committed golden digests: one `seed slug hex-digest` line per
/// experiment and golden seed, quick mode.
const GOLDEN: &str = include_str!("../golden/digests.txt");

fn fnv(mut hash: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// The digest of every byte of a figure's data: title, series labels and
/// each point's label and the exact bits of its numbers.
pub fn figure_digest(fig: &FigureData) -> u64 {
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

/// The golden digest of `slug` at `seed`, if one was recorded.
pub fn golden(seed: u64, slug: &str) -> Option<u64> {
    parse_golden(GOLDEN).find_map(|(s, name, d)| (s == seed && name == slug).then_some(d))
}

fn parse_golden(text: &str) -> impl Iterator<Item = (u64, &str, u64)> {
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let mut f = l.split_whitespace();
            let seed = f.next().and_then(|s| s.parse().ok());
            let slug = f.next();
            let digest = f.next().and_then(|d| u64::from_str_radix(d, 16).ok());
            match (seed, slug, digest) {
                (Some(seed), Some(slug), Some(digest)) => (seed, slug, digest),
                _ => panic!("malformed golden digest line {l:?}"),
            }
        })
}

/// The golden-table lines of `figures` at `seed`.
pub fn golden_lines(seed: u64, figures: &[FigureData]) -> String {
    figures
        .iter()
        .map(|f| format!("{seed} {} {:016x}\n", f.experiment.slug(), figure_digest(f)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use harness::ExperimentId;

    #[test]
    fn every_experiment_has_a_golden_at_both_seeds() {
        for seed in GOLDEN_SEEDS {
            for e in ExperimentId::all() {
                assert!(golden(seed, e.slug()).is_some(), "{seed} {}", e.slug());
            }
        }
    }

    #[test]
    fn the_digest_sees_every_bit_of_a_point() {
        let fig = harness::figures::run(ExperimentId::Fig08Stream, &harness::RunConfig::quick(3));
        let base = figure_digest(&fig);
        let mut nudged = fig.clone();
        let p = &mut nudged.series[0].points[0];
        p.mean = f64::from_bits(p.mean.to_bits() ^ 1);
        assert_ne!(figure_digest(&nudged), base);
        let mut relabelled = fig;
        relabelled.series[0].label.push(' ');
        assert_ne!(figure_digest(&relabelled), base);
    }
}
