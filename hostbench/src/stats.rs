//! Order statistics, the tail-percentile picker, span self time, and the
//! model digest.

use std::collections::HashMap;

use haft::trace::{ArgValue, EventKind, TraceEvent};

/// Median of `xs` (mean of the middle pair for an even count); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `q` (0–100] of `sorted` (ascending, non-empty).
fn percentile(sorted: &[f64], q: f64) -> f64 {
    sorted[rank(sorted.len(), q)]
}

fn rank(n: usize, q: f64) -> usize {
    // The tolerance keeps 99.9 % of 10,000 at rank 9,990 despite rounding.
    ((q / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n) - 1
}

/// Candidate tail percentiles, highest first.
const TAILS: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest percentile of `n` samples that still has at least ten
/// samples beyond it, so a reported tail always rests on ten
/// observations; 50 when even the median has fewer.
pub fn tail_percentile(n: usize) -> f64 {
    TAILS.into_iter().find(|&q| n > 0 && n - 1 - rank(n, q) >= 10).unwrap_or(50.0)
}

/// Median, picked tail percentile and its value, over `samples`.
pub struct Summary {
    pub p50: f64,
    pub tail_pct: f64,
    pub tail: f64,
}

pub fn summarize(samples: &[f64]) -> Summary {
    if samples.is_empty() {
        return Summary { p50: 0.0, tail_pct: 50.0, tail: 0.0 };
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let tail_pct = tail_percentile(v.len());
    Summary { p50: percentile(&v, 50.0), tail_pct, tail: percentile(&v, tail_pct) }
}

/// Geometric mean; 0 when empty.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Numeric argument `key` of a trace event.
pub fn num_arg(ev: &TraceEvent, key: &str) -> Option<f64> {
    ev.args.iter().find(|(k, _)| *k == key).and_then(|(_, v)| match v {
        ArgValue::Num(n) => Some(*n),
        ArgValue::Str(_) => None,
    })
}

/// String argument `key` of a trace event.
pub fn str_arg<'e>(ev: &'e TraceEvent, key: &str) -> Option<&'e str> {
    ev.args.iter().find(|(k, _)| *k == key).and_then(|(_, v)| match v {
        ArgValue::Str(s) => Some(s.as_str()),
        ArgValue::Num(_) => None,
    })
}

/// Self time of every span, keyed by its `span` argument: the span's
/// duration minus the part of its interval that its children cover
/// (children are the spans whose `parent` argument names it). Children
/// may overlap each other, as spans from parallel workers do; covered
/// time counts each instant once.
pub fn self_times(events: &[TraceEvent]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for ev in events {
        if let (Some(parent), EventKind::Span { .. }) = (num_arg(ev, "parent"), ev.kind) {
            children.entry(parent as u64).or_default().push((ev.ts, ev.end()));
        }
    }
    let mut out = HashMap::new();
    for ev in events {
        let (Some(span), EventKind::Span { dur }) = (num_arg(ev, "span"), ev.kind) else {
            continue;
        };
        let mut kids: Vec<(u64, u64)> = children
            .get(&(span as u64))
            .into_iter()
            .flatten()
            .map(|&(s, e)| (s.max(ev.ts), e.min(ev.end())))
            .filter(|(s, e)| s < e)
            .collect();
        kids.sort_unstable();
        let (mut covered, mut reach) = (0, ev.ts);
        for (s, e) in kids {
            let s = s.max(reach);
            if e > s {
                covered += e - s;
                reach = e;
            }
        }
        out.insert(span as u64, dur - covered);
    }
    out
}

/// FNV-1a over a stream of words: the model digest. Every simulated
/// statistic a workload produces is fed in a fixed order, so two runs
/// of the same seed print the same digest exactly when the model
/// produced the same numbers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn words(&mut self, ws: impl IntoIterator<Item = u64>) {
        for w in ws {
            self.word(w);
        }
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// A 64-bit mix of `seed` and `tag` (splitmix64 finalizer), for deriving
/// independent sub-seeds from the one workload seed.
pub fn derive(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, ts: u64, dur: u64, span: u64, parent: u64) -> TraceEvent {
        TraceEvent::span("t", name, ts, dur).arg("id", 0u64).arg("span", span).arg("parent", parent)
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // root [0,100): children [10,30) and [20,50) overlap (two
        // workers), [90,120) sticks out past the root's end. The
        // grandchild [12,18) belongs to span 2 only.
        let events = vec![
            span("grandchild", 12, 6, 5, 2),
            span("a", 10, 20, 2, 1),
            span("b", 20, 30, 3, 1),
            span("c", 90, 30, 4, 1),
            span("root", 0, 100, 1, 0),
            span("lone", 200, 7, 6, 0),
        ];
        let st = self_times(&events);
        // Covered: [10,50) = 40 and [90,100) = 10.
        assert_eq!(st[&1], 100 - 50);
        assert_eq!(st[&2], 20 - 6);
        assert_eq!(st[&3], 30);
        assert_eq!(st[&4], 30);
        assert_eq!(st[&5], 6);
        assert_eq!(st[&6], 7);
        // Self times of a tree whose children nest inside their parents
        // add up to the root's wall time.
        let nested = vec![span("k", 5, 10, 2, 1), span("g", 6, 2, 3, 2), span("r", 0, 40, 1, 0)];
        let st = self_times(&nested);
        assert_eq!(st.values().sum::<u64>(), 40);
    }

    #[test]
    fn picker_takes_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(10_000), 99.9);
        assert_eq!(tail_percentile(1_000), 99.0);
        assert_eq!(tail_percentile(999), 95.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(21), 50.0);
        assert_eq!(tail_percentile(5), 50.0);
        assert_eq!(tail_percentile(0), 50.0);
        for n in 1..3_000usize {
            let q = tail_percentile(n);
            let beyond = n - 1 - rank(n, q);
            assert!(beyond >= 10 || q == 50.0, "n={n} q={q} beyond={beyond}");
            // No higher candidate also qualifies.
            for higher in TAILS.iter().filter(|&&h| h > q) {
                assert!(n - 1 - rank(n, *higher) < 10, "n={n}: {higher} also has ten beyond");
            }
        }
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = summarize(&xs);
        assert_eq!((s.p50, s.tail_pct, s.tail), (500.0, 99.0, 990.0));
    }

    #[test]
    fn medians_and_digests() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        let (mut a, mut b) = (Digest::default(), Digest::default());
        a.words([1, 2, 3]);
        b.words([1, 2, 3]);
        assert_eq!(a, b);
        b.word(4);
        assert_ne!(a, b);
        assert_ne!(derive(1, 0), derive(1, 1));
        assert_ne!(derive(1, 0), derive(2, 0));
    }
}
