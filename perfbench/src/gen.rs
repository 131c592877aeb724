//! Seeded query lists, one per workload.
//!
//! Every list is a pure function of `(seed, seconds)`. The share of each
//! query kind, the spread of kinds over datasets and the spread of each
//! kind's parameter (rank, `k`, `q`) over its range are fixed by
//! stratification, not left to independent draws, so runs with different
//! seeds differ only in exact parameter values, dataset contents, order
//! and arrival times — never in how much of each kind of work they hold.

use sampleselect::rng::SplitMix64;
use sampleselect::server::dataset::{DatasetSpec, DistCode};
use sampleselect::{QueryKind, QueryRequest};

/// Elements per dataset. 2^20 f32 (4 MiB) stays steady on a small
/// shared VM; 2^22 did not.
pub const N: u64 = 1 << 20;

/// serve-mixed queries per second of `--seconds` (about what two
/// closed-loop connections complete on a 2-vCPU VM).
pub const MIXED_PER_S: f64 = 27.0;
/// host-lib calls per second of `--seconds` (likewise, one pool thread).
pub const HOST_PER_S: f64 = 70.0;
/// Every list holds at least this many queries, so that at least ten
/// samples lie beyond p99.
pub const MIN_LIST: usize = 1000;
/// serve-overload offered rate: about twice what two workers sustain on
/// its mix (160–230/s on a 2-vCPU VM, depending on the neighbours), so
/// the queue stays full even when the machine runs fast.
pub const OVERLOAD_QPS: f64 = 400.0;
/// Deadline carried by half of the serve-overload queries.
pub const OVERLOAD_DEADLINE_MS: u32 = 100;

/// One query of a list. `due_s` is the offset from the run start at
/// which an open loop must send it (0 for closed loops).
#[derive(Debug, Clone, PartialEq)]
pub struct Item {
    pub req: QueryRequest,
    pub due_s: f64,
}

/// A workload's datasets, its set-up calls and its query list.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    pub specs: Vec<DatasetSpec>,
    /// Set-up calls: an exact query on every dataset (which caches it in
    /// a server), then one query of each kind of the list at the middle
    /// of its parameter range. Only dataset contents follow the seed, so
    /// set-up does the same work on every run.
    pub warm_up: Vec<QueryRequest>,
    pub items: Vec<Item>,
}

/// What the list generator varies per query.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Tag {
    Exact,
    ExactDeadline,
    Approx,
    TopK,
    ApproxTopK,
    Quantiles,
    QStream,
}

/// Short label of a query kind, used to group per-kind figures.
pub fn kind_label(kind: &QueryKind) -> &'static str {
    match kind {
        QueryKind::Exact { .. } => "exact",
        QueryKind::Approx { .. } => "approx",
        QueryKind::TopK { .. } => "topk",
        QueryKind::ApproxTopK { .. } => "approx_topk",
        QueryKind::Quantiles { .. } => "quantiles",
        QueryKind::QuantileStream { .. } => "qstream",
        QueryKind::Stream { .. } => "stream",
    }
}

fn specs(rng: &mut SplitMix64, dists: &[DistCode]) -> Vec<DatasetSpec> {
    dists
        .iter()
        .map(|&dist| DatasetSpec {
            dist,
            n: N,
            seed: rng.next_u64(),
        })
        .collect()
}

/// One slot of a list: what to ask, of which dataset, and where in the
/// kind's parameter range to ask it.
#[derive(Debug, Clone, Copy)]
struct Slot {
    tag: Tag,
    dataset: usize,
    /// Stratified draw in `[0, 1)`: the `j`-th of a tag's `count` slots
    /// lies in `[j / count, (j + 1) / count)`.
    u: f64,
}

/// `total` slots with exact per-mille shares of each tag, each tag
/// spread round-robin over `datasets`, then shuffled.
fn schedule(
    rng: &mut SplitMix64,
    total: usize,
    shares: &[(Tag, usize)],
    datasets: usize,
) -> Vec<Slot> {
    debug_assert_eq!(shares.iter().map(|s| s.1).sum::<usize>(), 1000);
    let mut counts: Vec<usize> = shares.iter().map(|s| total * s.1 / 1000).collect();
    counts[0] += total - counts.iter().sum::<usize>();
    let mut slots = Vec::with_capacity(total);
    for (&(tag, _), &count) in shares.iter().zip(&counts) {
        let offset = rng.next_below(datasets);
        for j in 0..count {
            slots.push(Slot {
                tag,
                dataset: (j + offset) % datasets,
                u: (j as f64 + rng.next_f64()) / count as f64,
            });
        }
    }
    for i in (1..slots.len()).rev() {
        slots.swap(i, rng.next_below(i + 1));
    }
    slots
}

/// The `u`-quantile of `0..len`.
fn pick(u: f64, len: u64) -> u64 {
    ((u * len as f64) as u64).min(len - 1)
}

fn request(
    tag: Tag,
    dataset: DatasetSpec,
    u: f64,
    palette: Option<&[u64]>,
    seed: u64,
) -> QueryRequest {
    let n = dataset.n;
    let rank = match palette {
        Some(p) => p[pick(u, p.len() as u64) as usize],
        None => pick(u, n),
    };
    let (kind, deadline_ms) = match tag {
        Tag::Exact => (QueryKind::Exact { rank }, None),
        Tag::ExactDeadline => (QueryKind::Exact { rank }, Some(OVERLOAD_DEADLINE_MS)),
        Tag::Approx => (QueryKind::Approx { rank }, None),
        Tag::TopK => (
            QueryKind::TopK {
                k: 1 + pick(u, 1024),
            },
            None,
        ),
        Tag::ApproxTopK => (
            QueryKind::ApproxTopK {
                k: n / 32 + pick(u, n / 32),
                recall_bits: 0.9f32.to_bits(),
            },
            None,
        ),
        Tag::Quantiles => (QueryKind::Quantiles { q: 2 + pick(u, 15) }, None),
        // loadgen's shape: tumbling quarter-dataset windows, 2^14 chunks.
        Tag::QStream => (
            QueryKind::QuantileStream {
                window_len: n / 4,
                slide: n / 4,
                chunk_len: 1 << 14,
            },
            None,
        ),
    };
    let tenant = match tag {
        Tag::ExactDeadline => "exact-deadline".to_string(),
        _ => kind_label(&kind).to_string(),
    };
    QueryRequest {
        tenant,
        kind,
        dataset,
        deadline_ms,
        seed,
    }
}

fn warm_up(
    specs: &[DatasetSpec],
    shares: &[(Tag, usize)],
    palette: Option<&[u64]>,
) -> Vec<QueryRequest> {
    let per_dataset = specs
        .iter()
        .map(|&spec| request(Tag::Exact, spec, 0.5, None, 1));
    let per_kind = shares
        .iter()
        .map(|&(tag, _)| request(tag, specs[0], 0.5, palette, 1));
    per_dataset
        .chain(per_kind)
        .map(|req| QueryRequest {
            tenant: "warm-up".to_string(),
            ..req
        })
        .collect()
}

/// The list's items for `slots`, in slot order.
fn items(
    rng: &mut SplitMix64,
    slots: &[Slot],
    specs: &[DatasetSpec],
    palette: Option<&[u64]>,
) -> Vec<Item> {
    slots
        .iter()
        .map(|s| Item {
            req: request(s.tag, specs[s.dataset], s.u, palette, rng.next_u64()),
            due_s: 0.0,
        })
        .collect()
}

fn list_len(per_s: f64, seconds: u64) -> usize {
    ((per_s * seconds as f64).round() as usize).max(MIN_LIST)
}

/// serve-mixed: a closed-loop list over four cached datasets whose
/// distributions steer the planner to different backends.
pub fn serve_mixed(seed: u64, seconds: u64) -> Workload {
    let mut rng = SplitMix64::new(seed ^ 0x4d49_5845_4400_0001);
    let specs = specs(
        &mut rng,
        &[
            DistCode::Uniform,
            DistCode::Normal,
            DistCode::Distinct1024,
            DistCode::GeometricCascade,
        ],
    );
    let shares = [
        (Tag::Exact, 445),
        (Tag::Approx, 100),
        (Tag::TopK, 200),
        (Tag::ApproxTopK, 150),
        (Tag::Quantiles, 100),
        (Tag::QStream, 5),
    ];
    let slots = schedule(
        &mut rng,
        list_len(MIXED_PER_S, seconds),
        &shares,
        specs.len(),
    );
    Workload {
        warm_up: warm_up(&specs, &shares, None),
        items: items(&mut rng, &slots, &specs, None),
        specs,
    }
}

/// serve-overload: open-loop arrivals at [`OVERLOAD_QPS`] on two hot
/// datasets, exact-heavy with ranks from a 16-entry palette (so queued
/// exact queries can batch); half carry a deadline.
pub fn serve_overload(seed: u64, seconds: u64) -> Workload {
    let mut rng = SplitMix64::new(seed ^ 0x4f56_4552_4c44_0002);
    let specs = specs(&mut rng, &[DistCode::Uniform, DistCode::Normal]);
    let palette: Vec<u64> = (1..=16).map(|i| i * N / 17).collect();
    let shares = [
        (Tag::ExactDeadline, 500),
        (Tag::Exact, 250),
        (Tag::TopK, 150),
        (Tag::Approx, 100),
    ];
    let total = list_len(OVERLOAD_QPS, seconds);
    let slots = schedule(&mut rng, total, &shares, specs.len());
    // A Poisson process conditioned on its count: uniform arrival times.
    let mut due: Vec<f64> = (0..total)
        .map(|_| rng.next_f64() * seconds as f64)
        .collect();
    due.sort_by(f64::total_cmp);
    let mut items = items(&mut rng, &slots, &specs, Some(&palette));
    for (it, due_s) in items.iter_mut().zip(due) {
        it.due_s = due_s;
    }
    Workload {
        warm_up: warm_up(&specs, &shares, Some(&palette)),
        items,
        specs,
    }
}

/// host-lib: calls into the host backend (`cpu.rs`), expressed as the
/// query kinds they answer: `Exact` → `cpu_sample_select`, `TopK` →
/// `cpu_top_k`, `Quantiles` → `cpu_multi_select`, `Approx` →
/// `cpu_approx_select`. The calls on one dataset run back to back, so
/// each 4 MiB dataset stays in cache while it is used, as in a caller
/// that answers many questions about one array.
pub fn host_lib(seed: u64, seconds: u64) -> Workload {
    let mut rng = SplitMix64::new(seed ^ 0x484f_5354_4c49_0003);
    let specs = specs(
        &mut rng,
        &[
            DistCode::Uniform,
            DistCode::Distinct1024,
            DistCode::GeometricCascade,
        ],
    );
    let shares = [
        (Tag::Exact, 400),
        (Tag::TopK, 200),
        (Tag::Quantiles, 200),
        (Tag::Approx, 200),
    ];
    let mut slots = schedule(
        &mut rng,
        list_len(HOST_PER_S, seconds),
        &shares,
        specs.len(),
    );
    slots.sort_by_key(|s| s.dataset);
    Workload {
        warm_up: warm_up(&specs, &shares, None),
        items: items(&mut rng, &slots, &specs, None),
        specs,
    }
}

/// The list of a workload by its command-line name.
pub fn workload(name: &str, seed: u64, seconds: u64) -> Option<Workload> {
    match name {
        "serve-mixed" => Some(serve_mixed(seed, seconds)),
        "serve-overload" => Some(serve_overload(seed, seconds)),
        "host-lib" => Some(host_lib(seed, seconds)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    const NAMES: [&str; 3] = ["serve-mixed", "serve-overload", "host-lib"];

    fn census(w: &Workload) -> BTreeMap<(&'static str, bool), usize> {
        let mut c = BTreeMap::new();
        for it in &w.items {
            *c.entry((kind_label(&it.req.kind), it.req.deadline_ms.is_some()))
                .or_insert(0) += 1;
        }
        c
    }

    /// Sum of each kind's parameter (rank, `k` or `q`) over the list.
    fn parameter_sums(w: &Workload) -> BTreeMap<&'static str, f64> {
        let mut sums = BTreeMap::new();
        for it in &w.items {
            let p = match it.req.kind {
                QueryKind::Exact { rank } | QueryKind::Approx { rank } => rank,
                QueryKind::TopK { k } | QueryKind::ApproxTopK { k, .. } => k,
                QueryKind::Quantiles { q } => q,
                _ => 0,
            };
            *sums.entry(kind_label(&it.req.kind)).or_insert(0.0) += p as f64;
        }
        sums
    }

    #[test]
    fn same_seed_gives_the_same_list() {
        for name in NAMES {
            assert_eq!(workload(name, 7, 3), workload(name, 7, 3), "{name}");
        }
    }

    #[test]
    fn another_seed_gives_another_list_with_the_same_composition() {
        for name in NAMES {
            let a = workload(name, 1, 3).unwrap();
            let b = workload(name, 2, 3).unwrap();
            assert_ne!(a, b, "{name}");
            assert_ne!(
                a.specs, b.specs,
                "{name}: dataset seeds follow the run seed"
            );
            assert_eq!(
                census(&a),
                census(&b),
                "{name}: kind shares are fixed counts"
            );
            assert_eq!(a.items.len(), b.items.len());
            // Stratified parameters: each kind asks for the same amount
            // of work under every seed, to well within 1 %.
            let (pa, pb) = (parameter_sums(&a), parameter_sums(&b));
            for (kind, sa) in &pa {
                let sb = pb[kind];
                assert!(
                    (sa - sb).abs() <= 0.01 * sa.max(sb),
                    "{name} {kind}: {sa} vs {sb}"
                );
            }
            // Set-up calls differ only in the dataset they name.
            let kinds = |w: &Workload| w.warm_up.iter().map(|r| r.kind).collect::<Vec<_>>();
            assert_eq!(kinds(&a), kinds(&b), "{name}");
        }
    }

    #[test]
    fn lists_scale_with_seconds_and_stay_valid() {
        for name in NAMES {
            let w = workload(name, 3, 1).unwrap();
            assert_eq!(w.items.len(), MIN_LIST, "{name}: ≥1000 timed operations");
            for it in &w.items {
                let n = it.req.dataset.n;
                assert!(w.specs.contains(&it.req.dataset));
                match it.req.kind {
                    QueryKind::Exact { rank } | QueryKind::Approx { rank } => assert!(rank < n),
                    QueryKind::TopK { k } | QueryKind::ApproxTopK { k, .. } => {
                        assert!(k >= 1 && k <= n)
                    }
                    QueryKind::Quantiles { q } => assert!((2..=16).contains(&q)),
                    QueryKind::QuantileStream { window_len, .. } => assert_eq!(window_len, n / 4),
                    QueryKind::Stream { .. } => panic!("no list uses Stream"),
                }
            }
        }
        let mixed = serve_mixed(3, 1);
        assert_eq!(census(&mixed)[&("qstream", false)], 5);
        assert_eq!(census(&mixed)[&("exact", false)], 445);
        assert_eq!(mixed.warm_up.len(), 4 + 6);
    }

    #[test]
    fn host_calls_on_one_dataset_run_back_to_back() {
        let w = host_lib(4, 2);
        let mut order: Vec<_> = w.items.iter().map(|it| it.req.dataset).collect();
        order.dedup();
        assert_eq!(order, w.specs);
    }

    #[test]
    fn overload_arrivals_are_sorted_inside_the_run() {
        let w = serve_overload(5, 5);
        assert_eq!(w.items.len(), 2000);
        assert!(w.items.windows(2).all(|p| p[0].due_s <= p[1].due_s));
        assert!(w.items.iter().all(|it| (0.0..5.0).contains(&it.due_s)));
        let with_deadline = w
            .items
            .iter()
            .filter(|it| it.req.deadline_ms.is_some())
            .count();
        assert_eq!(with_deadline, 1000);
    }
}
