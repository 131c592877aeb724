//! The answer checker. It runs after timing: it regenerates each
//! dataset from its spec, sorts it once, and judges every answer
//! against that sorted copy, so neither set-up time nor peak memory of
//! the timed part includes it.

use std::cmp::Ordering;
use std::collections::BTreeMap;

use sampleselect::element::{reference_select, sort_elements};
use sampleselect::multiselect::quantile_ranks;
use sampleselect::quantile_stream::{rank_for_prob, DEFAULT_PROBS};
use sampleselect::server::dataset::{self, DatasetSpec};
use sampleselect::{QueryKind, QueryRequest, QueryStatus, SelectElement};

/// How one answer was judged.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Correct, at the quality asked for: an exact answer to an exact
    /// kind, or an honest approximation to an approximate kind.
    Good,
    /// An exact query answered approximately because of its deadline,
    /// with a truthful achieved rank.
    Degraded,
    /// Refused at admission (explicit backpressure).
    Refused,
    /// The program reported a failure.
    Failed(String),
    /// A wrong answer.
    Wrong(String),
}

struct Sorted {
    /// The dataset in element order.
    all: Vec<f32>,
    /// The last quarter of the dataset in element order: the final
    /// window of a quantile stream with `window = slide = n/4`.
    last_quarter: Vec<f32>,
}

/// Sorted copies of every dataset a list names.
pub struct Reference {
    sorted: BTreeMap<DatasetSpec, Sorted>,
}

fn same(a: f32, b: f32) -> bool {
    a.to_bits() == b.to_bits()
}

impl Reference {
    /// Regenerate and sort each dataset. The sorted copy is tied to
    /// `reference_select` by checking both agree on a few ranks.
    pub fn build(specs: &[DatasetSpec]) -> Result<Self, String> {
        let mut sorted = BTreeMap::new();
        for spec in specs {
            let data = dataset::instantiate(spec);
            let n = data.len();
            let mut last_quarter = data[n - n / 4..].to_vec();
            sort_elements(&mut last_quarter);
            let mut all = data.clone();
            sort_elements(&mut all);
            for rank in [0, n / 3, n - 1] {
                let want = reference_select(&data, rank).ok_or("empty dataset")?;
                if !same(all[rank], want) {
                    return Err(format!(
                        "sorted reference disagrees with reference_select on {spec:?}"
                    ));
                }
            }
            sorted.insert(*spec, Sorted { all, last_quarter });
        }
        Ok(Self { sorted })
    }

    /// Judge one answer. `None` means the query was refused.
    pub fn check(&self, req: &QueryRequest, status: Option<&QueryStatus>) -> Verdict {
        let Some(status) = status else {
            return Verdict::Refused;
        };
        let Some(s) = self.sorted.get(&req.dataset) else {
            return Verdict::Wrong(format!("no reference for {:?}", req.dataset));
        };
        let all = &s.all;
        let n = all.len() as u64;
        let truthful =
            |value: f32, achieved: u64| achieved < n && same(all[achieved as usize], value);
        let wrong = |what: String| {
            Verdict::Wrong(format!("{what} for {:?} on {:?}", req.kind, req.dataset))
        };
        match (req.kind, status) {
            (_, QueryStatus::Failed { message }) => Verdict::Failed(message.clone()),
            (_, QueryStatus::Checkpointed { resume_token }) => {
                Verdict::Failed(format!("checkpointed ({resume_token})"))
            }
            (QueryKind::Exact { rank }, QueryStatus::Exact { value }) => {
                if same(*value, all[rank as usize]) {
                    Verdict::Good
                } else {
                    wrong(format!("exact {value} != {}", all[rank as usize]))
                }
            }
            (
                QueryKind::Exact { .. },
                QueryStatus::Approximate {
                    value,
                    achieved_rank,
                    deadline_degraded: true,
                    ..
                },
            ) => {
                if truthful(*value, *achieved_rank) {
                    Verdict::Degraded
                } else {
                    wrong(format!("degraded {value} is not rank {achieved_rank}"))
                }
            }
            // An asked-for approximation may also return a splitter
            // bound that is not an input element (the host backend's
            // equality-bucket bounds on duplicate-heavy data); its rank
            // is then the count of elements below it.
            (
                QueryKind::Approx { .. },
                QueryStatus::Approximate {
                    value,
                    achieved_rank,
                    ..
                },
            ) => {
                let below =
                    all.partition_point(|x| SelectElement::total_cmp(*x, *value) == Ordering::Less);
                if truthful(*value, *achieved_rank) || below as u64 == *achieved_rank {
                    Verdict::Good
                } else {
                    wrong(format!("approx {value} is not rank {achieved_rank}"))
                }
            }
            (QueryKind::TopK { k }, QueryStatus::TopK { threshold, k: got }) => {
                let want = all[(n - k) as usize];
                if *got == k && same(*threshold, want) {
                    Verdict::Good
                } else {
                    wrong(format!("top-{got} threshold {threshold} != {want}"))
                }
            }
            (
                QueryKind::ApproxTopK { k, .. },
                QueryStatus::ApproxTopK {
                    threshold,
                    k: got,
                    expected_recall,
                },
            ) => {
                // The candidates are a subset of the input, so the
                // approximate threshold can never exceed the exact one.
                let exact = all[(n - k) as usize];
                let bounded = SelectElement::total_cmp(*threshold, exact) != Ordering::Greater;
                if *got == k && bounded && *expected_recall > 0.0 && *expected_recall <= 1.0 {
                    Verdict::Good
                } else {
                    wrong(format!(
                        "approx top-{got} threshold {threshold} above exact {exact} (recall {expected_recall})"
                    ))
                }
            }
            (QueryKind::Quantiles { q }, QueryStatus::Quantiles { values }) => {
                let ranks = match quantile_ranks(n as usize, q as usize) {
                    Ok(r) => r,
                    Err(e) => return wrong(e.to_string()),
                };
                if values.len() == ranks.len()
                    && ranks.iter().zip(values).all(|(&r, &v)| same(v, all[r]))
                {
                    Verdict::Good
                } else {
                    wrong(format!(
                        "{} quantile values differ from the sorted reference",
                        values.len()
                    ))
                }
            }
            (
                QueryKind::QuantileStream {
                    window_len, slide, ..
                },
                QueryStatus::QuantileStream { windows, values },
            ) => {
                let w = &s.last_quarter;
                let expected_windows = (n - window_len) / slide + 1;
                let ok = window_len == n / 4
                    && *windows == expected_windows
                    && values.len() == DEFAULT_PROBS.len()
                    && DEFAULT_PROBS
                        .iter()
                        .zip(values)
                        .all(|(&p, &v)| same(v, w[rank_for_prob(w.len(), p)]));
                if ok {
                    Verdict::Good
                } else {
                    wrong(format!("{windows} windows / final window {values:?}"))
                }
            }
            (_, other) => wrong(format!("answer of the wrong kind {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sampleselect::server::dataset::DistCode;

    fn req(kind: QueryKind, spec: DatasetSpec) -> QueryRequest {
        QueryRequest {
            tenant: "t".to_string(),
            kind,
            dataset: spec,
            deadline_ms: None,
            seed: 1,
        }
    }

    #[test]
    fn judges_right_and_wrong_answers() {
        let spec = DatasetSpec {
            dist: DistCode::Distinct1024,
            n: 4096,
            seed: 9,
        };
        let r = Reference::build(&[spec]).unwrap();
        let data = dataset::instantiate(&spec);
        let at = |rank: usize| reference_select(&data, rank).unwrap();

        let exact = req(QueryKind::Exact { rank: 100 }, spec);
        let good = QueryStatus::Exact { value: at(100) };
        assert_eq!(r.check(&exact, Some(&good)), Verdict::Good);
        let bad = QueryStatus::Exact {
            value: at(100) + 5.0,
        };
        assert!(matches!(r.check(&exact, Some(&bad)), Verdict::Wrong(_)));
        assert_eq!(r.check(&exact, None), Verdict::Refused);

        let degraded = QueryStatus::Approximate {
            value: at(2000),
            achieved_rank: 2000,
            rank_error: 1900,
            deadline_degraded: true,
        };
        assert_eq!(r.check(&exact, Some(&degraded)), Verdict::Degraded);
        let lying = QueryStatus::Approximate {
            value: at(4000),
            achieved_rank: 10,
            rank_error: 90,
            deadline_degraded: true,
        };
        assert!(matches!(r.check(&exact, Some(&lying)), Verdict::Wrong(_)));

        // An approximation between two input values is truthful when its
        // rank counts the elements below it.
        let approx = req(QueryKind::Approx { rank: 2000 }, spec);
        let mut sorted = data.clone();
        sort_elements(&mut sorted);
        let v = sorted[2000];
        let between = f32::from_bits(v.to_bits() + 1);
        let below = sorted.iter().filter(|&&x| x <= v).count() as u64;
        let honest = QueryStatus::Approximate {
            value: between,
            achieved_rank: below,
            rank_error: below - 2000,
            deadline_degraded: false,
        };
        assert_eq!(r.check(&approx, Some(&honest)), Verdict::Good);
        let off_by_one = QueryStatus::Approximate {
            value: between,
            achieved_rank: below - 1,
            rank_error: below - 2001,
            deadline_degraded: false,
        };
        assert!(matches!(
            r.check(&approx, Some(&off_by_one)),
            Verdict::Wrong(_)
        ));

        let topk = req(QueryKind::TopK { k: 10 }, spec);
        let t = QueryStatus::TopK {
            threshold: at(4086),
            k: 10,
        };
        assert_eq!(r.check(&topk, Some(&t)), Verdict::Good);

        let approx_topk = req(
            QueryKind::ApproxTopK {
                k: 10,
                recall_bits: 0.9f32.to_bits(),
            },
            spec,
        );
        let below = QueryStatus::ApproxTopK {
            threshold: at(4000),
            k: 10,
            expected_recall: 0.95,
        };
        assert_eq!(r.check(&approx_topk, Some(&below)), Verdict::Good);
        let above = QueryStatus::ApproxTopK {
            threshold: at(4095) + 1.0,
            k: 10,
            expected_recall: 0.95,
        };
        assert!(matches!(
            r.check(&approx_topk, Some(&above)),
            Verdict::Wrong(_)
        ));

        let q = req(QueryKind::Quantiles { q: 4 }, spec);
        let values = vec![at(1024), at(2048), at(3072)];
        assert_eq!(
            r.check(&q, Some(&QueryStatus::Quantiles { values })),
            Verdict::Good
        );

        let failed = QueryStatus::Failed {
            message: "boom".to_string(),
        };
        assert!(matches!(r.check(&q, Some(&failed)), Verdict::Failed(_)));
    }
}
