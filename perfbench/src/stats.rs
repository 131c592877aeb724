//! Order statistics and process memory readings.

/// Linear-interpolation percentile of an ascending-sorted slice, `p` in
/// `[0, 1]` (the C = 1 variant: `p = 0` is the minimum, `p = 1` the
/// maximum). Returns 0 for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let h = (sorted.len() - 1) as f64 * p.clamp(0.0, 1.0);
    let lo = h.floor() as usize;
    let hi = (lo + 1).min(sorted.len() - 1);
    sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
}

/// Sort a sample ascending (every sample here is finite).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median of an unsorted sample.
pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v.to_vec()), 0.5)
}

/// Percentile `p` of a sample kept in arrival order, taken as the
/// median over consecutive blocks of at least `block` samples (the last
/// block takes the remainder; a sample shorter than two blocks is one
/// block). A stall then moves one block's figure, not the result.
pub fn blocked_percentile(in_order: &[f64], p: f64, block: usize) -> f64 {
    let blocks = (in_order.len() / block.max(1)).max(1);
    let per = in_order.len() / blocks;
    let figures: Vec<f64> = (0..blocks)
        .map(|b| {
            let end = if b + 1 == blocks {
                in_order.len()
            } else {
                (b + 1) * per
            };
            percentile(&sorted(in_order[b * per..end].to_vec()), p)
        })
        .collect();
    median(&figures)
}

/// Peak resident set size (`VmHWM`) of a process in MiB, from
/// `/proc/<pid>/status`; `None` reads the calling process.
pub fn vm_hwm_mib(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_order_statistics() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 1.0), 10.0);
        assert_eq!(percentile(&s, 0.5), 5.5);
        // h = 9 * 0.99 = 8.91: between the 9th and 10th samples, not the max.
        assert!((percentile(&s, 0.99) - 9.91).abs() < 1e-12);
    }

    #[test]
    fn percentile_degenerate_and_out_of_range() {
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.25], 0.99), 7.25);
        assert_eq!(percentile(&[1.0, 3.0], 0.25), 1.5);
        assert_eq!(percentile(&[1.0, 3.0], 2.0), 3.0);
        assert_eq!(percentile(&[1.0, 3.0], -1.0), 1.0);
    }

    #[test]
    fn median_ignores_input_order() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn blocked_percentile_ignores_one_stalled_block() {
        let mut v: Vec<f64> = (0..3000).map(|i| f64::from(i % 100)).collect();
        // A stall in the second block.
        v[1000..1050].iter_mut().for_each(|x| *x = 1e4);
        assert!((blocked_percentile(&v, 0.99, 1000) - 98.01).abs() < 1e-9);
        assert_eq!(percentile(&sorted(v.clone()), 0.99), 1e4);
        // Shorter than two blocks: the plain percentile.
        let short = &v[..1999];
        assert_eq!(
            blocked_percentile(short, 0.99, 1000),
            percentile(&sorted(short.to_vec()), 0.99)
        );
        assert_eq!(blocked_percentile(&[], 0.99, 1000), 0.0);
    }

    #[test]
    fn own_peak_rss_is_readable() {
        let mib = vm_hwm_mib(None).expect("VmHWM in /proc/self/status");
        assert!(mib > 0.0);
    }
}
