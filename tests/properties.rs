//! Property-based tests (proptest) over the core data structures and
//! algorithms: selection correctness on arbitrary inputs, search-tree
//! order consistency, bitonic-network sortedness, scan identities, and
//! top-k multiset equality.

use gpu_selection::gpu_sim::arch::v100;
use gpu_selection::gpu_sim::Device;
use gpu_selection::hpc_par::ThreadPool;
use gpu_selection::sampleselect::bitonic::bitonic_sort;
use gpu_selection::sampleselect::cpu::{
    cpu_multi_select, cpu_sample_select, cpu_top_k, CpuSelectConfig,
};
use gpu_selection::sampleselect::element::{reference_select, SelectElement};
use gpu_selection::sampleselect::kv::Pair;
use gpu_selection::sampleselect::multiselect::multi_select_on_device;
use gpu_selection::sampleselect::samplesort::sample_sort_on_device;
use gpu_selection::sampleselect::searchtree::SearchTree;
use gpu_selection::sampleselect::{
    quick_select_on_device, sample_select_on_device, top_k_largest_on_device, SampleSelectConfig,
};
use proptest::collection::vec;
use proptest::prelude::*;

fn small_cfg() -> SampleSelectConfig {
    // Tiny buckets/base case so even small random inputs recurse.
    SampleSelectConfig::default()
        .with_buckets(8)
        .with_oversampling(2)
        .with_base_case(16)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sampleselect_equals_reference(
        data in vec(-1000i32..1000, 1..500),
        rank_frac in 0.0f64..1.0,
    ) {
        let rank = ((data.len() - 1) as f64 * rank_frac) as usize;
        let pool = ThreadPool::new(1);
        let mut device = Device::new(v100(), &pool);
        let got = sample_select_on_device(&mut device, &data, rank, &small_cfg())
            .unwrap()
            .value;
        prop_assert_eq!(got, reference_select(&data, rank).unwrap());
    }

    #[test]
    fn quickselect_equals_reference(
        data in vec(-50i64..50, 1..400),
        rank_frac in 0.0f64..1.0,
    ) {
        let rank = ((data.len() - 1) as f64 * rank_frac) as usize;
        let pool = ThreadPool::new(1);
        let mut device = Device::new(v100(), &pool);
        let mut cfg = small_cfg();
        cfg.base_case_size = 16;
        let got = quick_select_on_device(&mut device, &data, rank, &cfg)
            .unwrap()
            .value;
        prop_assert_eq!(got, reference_select(&data, rank).unwrap());
    }

    #[test]
    fn sampleselect_on_finite_floats(
        data in vec(prop::num::f32::NORMAL | prop::num::f32::ZERO | prop::num::f32::SUBNORMAL, 1..300),
        rank_frac in 0.0f64..1.0,
    ) {
        let rank = ((data.len() - 1) as f64 * rank_frac) as usize;
        let pool = ThreadPool::new(1);
        let mut device = Device::new(v100(), &pool);
        let got = sample_select_on_device(&mut device, &data, rank, &small_cfg())
            .unwrap()
            .value;
        prop_assert_eq!(
            got.to_bits(),
            reference_select(&data, rank).unwrap().to_bits()
        );
    }

    #[test]
    fn cpu_backend_equals_reference(
        data in vec(0u32..100, 1..2000),
        rank_frac in 0.0f64..1.0,
    ) {
        let rank = ((data.len() - 1) as f64 * rank_frac) as usize;
        let pool = ThreadPool::new(2);
        let cfg = CpuSelectConfig {
            num_buckets: 8,
            oversampling: 2,
            base_case_size: 32,
            ..CpuSelectConfig::default()
        };
        let (got, _) = cpu_sample_select(&pool, &data, rank, &cfg).unwrap();
        prop_assert_eq!(got, reference_select(&data, rank).unwrap());

        // The host executor answers as the simulated drivers do on the
        // same level shape.
        let sim_cfg = small_cfg().with_base_case(32).with_seed(cfg.seed);
        let mut device = Device::new(v100(), &pool);
        let sim = sample_select_on_device(&mut device, &data, rank, &sim_cfg).unwrap();
        prop_assert_eq!(got, sim.value);
        let k = data.len() - rank;
        // Both filters are bucket-major, so the top-k sequences match.
        let (top, threshold) = cpu_top_k(&pool, &data, k, &cfg).unwrap();
        let sim_top = top_k_largest_on_device(&mut device, &data, k, &sim_cfg).unwrap();
        prop_assert_eq!(top, sim_top.elements);
        prop_assert_eq!(threshold, sim_top.threshold);
        let ranks = [rank, data.len() / 2, 0, rank];
        let values = cpu_multi_select(&pool, &data, &ranks, &cfg).unwrap();
        let sim_values = multi_select_on_device(&mut device, &data, &ranks, &sim_cfg).unwrap();
        prop_assert_eq!(values, sim_values.values);
    }

    #[test]
    fn bitonic_network_sorts_anything(data in vec(any::<i32>(), 0..300)) {
        let mut sorted = data.clone();
        bitonic_sort(&mut sorted);
        prop_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
        // permutation check
        let mut a = data;
        let mut b = sorted;
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn searchtree_lookup_matches_linear_reference(
        mut splitters in vec(-100i32..100, 7usize),
        queries in vec(-150i32..150, 0..64),
    ) {
        splitters.sort_unstable();
        let tree = SearchTree::build(&splitters);
        for q in queries {
            prop_assert_eq!(tree.lookup(q), tree.lookup_reference(q), "query {}", q);
        }
    }

    #[test]
    fn searchtree_is_monotone(mut splitters in vec(-100f64..100.0, 15usize)) {
        splitters.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let tree = SearchTree::build(&splitters);
        let mut queries: Vec<f64> = (-120..120).map(|i| i as f64 * 0.9).collect();
        queries.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let buckets: Vec<u32> = queries.iter().map(|&q| tree.lookup(q)).collect();
        prop_assert!(buckets.windows(2).all(|w| w[0] <= w[1]), "bucket ids must be monotone in the query");
    }

    #[test]
    fn equality_buckets_capture_all_duplicates(
        value in -50i32..50,
        dup_count in 2usize..8,
    ) {
        // splitters with a run of `dup_count` copies of `value`
        let mut splitters = vec![value - 10, value - 5];
        splitters.extend(std::iter::repeat_n(value, dup_count));
        splitters.extend([value + 5, value + 10]);
        while splitters.len() < 15 {
            splitters.push(value + 20 + splitters.len() as i32);
        }
        splitters.truncate(15);
        splitters.sort_unstable();
        let tree = SearchTree::build(&splitters);
        let bucket = tree.lookup(value) as usize;
        prop_assert!(tree.is_equality_bucket(bucket));
        prop_assert_eq!(tree.equality_value(bucket), value);
        // neighbours stay out
        prop_assert_ne!(tree.lookup(value - 1) as usize, bucket);
        prop_assert_ne!(tree.lookup(value + 1) as usize, bucket);
    }

    #[test]
    fn scan_identities(values in vec(0u64..1000, 0..500)) {
        let mut ex = values.clone();
        let total = gpu_selection::hpc_par::exclusive_scan(&mut ex);
        prop_assert_eq!(total, values.iter().sum::<u64>());
        // exclusive_scan[i] == sum of values[..i]
        let mut running = 0u64;
        for (i, v) in values.iter().enumerate() {
            prop_assert_eq!(ex[i], running);
            running += v;
        }
        // parallel scan agrees
        let pool = ThreadPool::new(3);
        let mut par = values.clone();
        let ptotal = gpu_selection::hpc_par::parallel_exclusive_scan(&pool, &mut par);
        prop_assert_eq!(ptotal, total);
        prop_assert_eq!(par, ex);
    }

    #[test]
    fn topk_is_the_sorted_suffix(
        data in vec(-100i32..100, 1..300),
        k_frac in 0.01f64..1.0,
    ) {
        let k = ((data.len() as f64 * k_frac) as usize).clamp(1, data.len());
        let pool = ThreadPool::new(1);
        let mut device = Device::new(v100(), &pool);
        let res = top_k_largest_on_device(&mut device, &data, k, &small_cfg()).unwrap();
        prop_assert_eq!(res.elements.len(), k);
        let mut got = res.elements.clone();
        got.sort_unstable();
        let mut sorted = data.clone();
        sorted.sort_unstable();
        let expected = &sorted[data.len() - k..];
        prop_assert_eq!(&got[..], expected);
        prop_assert_eq!(res.threshold, sorted[data.len() - k]);
    }

    #[test]
    fn sort_keys_refine_ieee_order_f64(a in any::<f64>(), b in any::<f64>()) {
        prop_assume!(!a.is_nan() && !b.is_nan());
        // The key order is a *total* refinement of IEEE `<`: strictly
        // ordered values keep their order; ties (only ±0.0) may be
        // broken either way but never inverted.
        if a < b {
            prop_assert!(a.to_sort_key() < b.to_sort_key());
        }
        if a.to_sort_key() < b.to_sort_key() {
            prop_assert!(b.partial_cmp(&a) != Some(std::cmp::Ordering::Less));
        }
    }

    #[test]
    fn sort_keys_preserve_order_i64(a in any::<i64>(), b in any::<i64>()) {
        prop_assert_eq!(a < b, a.to_sort_key() < b.to_sort_key());
    }

    #[test]
    fn next_up_has_no_value_in_between_f32(x in prop::num::f32::NORMAL) {
        prop_assume!(x != f32::MAX);
        let y = SelectElement::next_up(x);
        prop_assert!(x < y);
        prop_assert_eq!(y.to_bits(), if x >= 0.0 { x.to_bits() + 1 } else { x.to_bits() - 1 });
    }

    #[test]
    fn multiselect_matches_per_rank_reference(
        data in vec(-200i32..200, 2..400),
        rank_fracs in vec(0.0f64..1.0, 1..6),
    ) {
        let ranks: Vec<usize> = rank_fracs
            .iter()
            .map(|f| ((data.len() - 1) as f64 * f) as usize)
            .collect();
        let pool = ThreadPool::new(1);
        let mut device = Device::new(v100(), &pool);
        let res = multi_select_on_device(&mut device, &data, &ranks, &small_cfg()).unwrap();
        for (i, &rank) in ranks.iter().enumerate() {
            prop_assert_eq!(res.values[i], reference_select(&data, rank).unwrap());
        }
    }

    #[test]
    fn samplesort_sorts_arbitrary_input(data in vec(any::<i32>(), 0..400)) {
        let pool = ThreadPool::new(1);
        let mut device = Device::new(v100(), &pool);
        let res = sample_sort_on_device(&mut device, &data, &small_cfg()).unwrap();
        prop_assert!(res.sorted.windows(2).all(|w| w[0] <= w[1]));
        let mut a = data;
        let mut b = res.sorted;
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn kv_selection_returns_consistent_pairs(
        keys in vec(-100i32..100, 1..300),
        rank_frac in 0.0f64..1.0,
    ) {
        let pairs: Vec<Pair<i32, u32>> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| Pair::new(k, i as u32))
            .collect();
        let rank = ((pairs.len() - 1) as f64 * rank_frac) as usize;
        let pool = ThreadPool::new(1);
        let mut device = Device::new(v100(), &pool);
        let got = sample_select_on_device(&mut device, &pairs, rank, &small_cfg())
            .unwrap()
            .value;
        // key has the right rank
        prop_assert_eq!(got.key, reference_select(&keys, rank).unwrap());
        // payload resolves to an element with that key
        prop_assert_eq!(keys[got.value as usize], got.key);
    }

    /// Metamorphic: selection is a function of the multiset, so any
    /// permutation of the input leaves the selected value unchanged.
    #[test]
    fn selection_is_permutation_invariant(
        data in vec(-1000i32..1000, 1..400),
        rank_frac in 0.0f64..1.0,
        shuffle_seed in any::<u64>(),
    ) {
        let rank = ((data.len() - 1) as f64 * rank_frac) as usize;
        let pool = ThreadPool::new(1);
        let mut device = Device::new(v100(), &pool);
        let base = sample_select_on_device(&mut device, &data, rank, &small_cfg())
            .unwrap()
            .value;

        // Fisher–Yates with a deterministic generator.
        let mut shuffled = data;
        let mut state = shuffle_seed;
        for i in (1..shuffled.len()).rev() {
            state = state
                .wrapping_add(0x9e3779b97f4a7c15)
                .wrapping_mul(0xbf58476d1ce4e5b9);
            state ^= state >> 27;
            shuffled.swap(i, (state % (i as u64 + 1)) as usize);
        }
        let mut device = Device::new(v100(), &pool);
        let permuted = sample_select_on_device(&mut device, &shuffled, rank, &small_cfg())
            .unwrap()
            .value;
        prop_assert_eq!(base, permuted);
    }

    /// Metamorphic: negation reverses the order, so the rank-`k`
    /// element of `v` is the negation of the rank-`n-1-k` element of
    /// `-v` (rank-complement symmetry).
    #[test]
    fn rank_complement_symmetry_under_negation(
        data in vec(-1000i32..1000, 1..400),
        rank_frac in 0.0f64..1.0,
    ) {
        let n = data.len();
        let rank = ((n - 1) as f64 * rank_frac) as usize;
        let negated: Vec<i32> = data.iter().map(|&x| -x).collect();

        let pool = ThreadPool::new(1);
        let mut device = Device::new(v100(), &pool);
        let forward = sample_select_on_device(&mut device, &data, rank, &small_cfg())
            .unwrap()
            .value;
        let mut device = Device::new(v100(), &pool);
        let backward = sample_select_on_device(&mut device, &negated, n - 1 - rank, &small_cfg())
            .unwrap()
            .value;
        prop_assert_eq!(forward, -backward);
    }

    /// Duplicate-heavy inputs (a handful of distinct values, so almost
    /// every bucket degenerates to an equality bucket) still select the
    /// exact rank, across the sample- and quick-select pipelines.
    #[test]
    fn duplicate_heavy_inputs_select_exactly(
        data in vec(0i32..5, 1..500),
        rank_frac in 0.0f64..1.0,
    ) {
        let rank = ((data.len() - 1) as f64 * rank_frac) as usize;
        let expect = reference_select(&data, rank).unwrap();
        let pool = ThreadPool::new(1);
        let mut device = Device::new(v100(), &pool);
        let sample = sample_select_on_device(&mut device, &data, rank, &small_cfg())
            .unwrap()
            .value;
        prop_assert_eq!(sample, expect);
        let mut device = Device::new(v100(), &pool);
        let quick = quick_select_on_device(&mut device, &data, rank, &small_cfg())
            .unwrap()
            .value;
        prop_assert_eq!(quick, expect);
    }
}

// ---------------------------------------------------------------------
// Zero-allocation hot path: the pooled-workspace driver must be
// bit-identical to the fresh-allocation driver — same value, same
// kernel schedule, same simulated timeline — on arbitrary shapes, both
// cold and warm (reused across queries), and an injected bit flip must
// never leak a poisoned buffer into the next query.
// ---------------------------------------------------------------------

fn trace_signature(
    report: &gpu_selection::sampleselect::SelectReport,
) -> Vec<(String, u64, f64, u64, u64)> {
    report
        .kernels
        .iter()
        .map(|k| {
            (
                k.name.clone(),
                k.launches,
                k.total_time.as_ns(),
                k.cost.global_read_bytes,
                k.cost.global_write_bytes,
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pooled_workspace_matches_fresh_path(
        data in vec(-1000i32..1000, 8..400),
        rank_frac in 0.0f64..1.0,
        warm_queries in 0usize..3,
    ) {
        use gpu_selection::sampleselect::recursion::{select_with_workspace, Bucketing::Splitters};
        use gpu_selection::sampleselect::SelectWorkspace;

        let rank = ((data.len() - 1) as f64 * rank_frac) as usize;
        let cfg = small_cfg();
        let pool = ThreadPool::new(1);

        // Reference: the fresh-allocation path on a pristine device.
        let mut fresh_dev = Device::new(v100(), &pool);
        let fresh = sample_select_on_device(&mut fresh_dev, &data, rank, &cfg).unwrap();

        // Pooled path: armed buffer pool + a workspace reused across
        // `warm_queries` preceding queries (0 = cold first query).
        let mut pooled_dev = Device::new(v100(), &pool);
        pooled_dev.enable_buffer_pool();
        let mut ws: SelectWorkspace<i32> = SelectWorkspace::new();
        for _ in 0..warm_queries {
            select_with_workspace(&mut pooled_dev, &data, rank, &cfg, &mut ws, Splitters).unwrap();
            pooled_dev.reset();
        }
        let pooled =
            select_with_workspace(&mut pooled_dev, &data, rank, &cfg, &mut ws, Splitters).unwrap();

        prop_assert_eq!(fresh.value, pooled.value);
        prop_assert_eq!(
            trace_signature(&fresh.report),
            trace_signature(&pooled.report)
        );
        prop_assert_eq!(fresh.report.total_time, pooled.report.total_time);
        prop_assert_eq!(fresh.report.levels, pooled.report.levels);
    }

    #[test]
    fn poisoned_buffers_never_leak_into_next_query(
        data in vec(-1000i32..1000, 64..400),
        rank_frac in 0.0f64..1.0,
        fault_seed in 1u64..64,
    ) {
        use gpu_selection::gpu_sim::FaultPlan;
        use gpu_selection::sampleselect::recursion::{select_with_workspace, Bucketing::Splitters};
        use gpu_selection::sampleselect::SelectWorkspace;

        let rank = ((data.len() - 1) as f64 * rank_frac) as usize;
        let cfg = small_cfg();
        let pool = ThreadPool::new(1);
        let expect = reference_select(&data, rank).unwrap();

        let mut device = Device::new(v100(), &pool);
        device.enable_buffer_pool();
        let mut ws: SelectWorkspace<i32> = SelectWorkspace::new();

        // Query 1 under heavy bit-flip injection: it may detect the
        // corruption and error, or survive — either way any corrupted
        // pooled region is poisoned and must not reach query 2.
        device.set_fault_plan(FaultPlan::new(fault_seed).bitflips(1.0));
        let _ = select_with_workspace(&mut device, &data, rank, &cfg, &mut ws, Splitters);
        device.clear_fault_plan();
        device.reset();

        // Query 2 on the same device/workspace/pool must be clean.
        let second =
            select_with_workspace(&mut device, &data, rank, &cfg, &mut ws, Splitters).unwrap();
        prop_assert_eq!(second.value, expect);
    }
}

// ---------------------------------------------------------------------
// Sharded multi-device selection: the coordinator protocol must be
// invisible — any shard count produces the bit-identical result of the
// single-device driver on arbitrary inputs (clean), and killing any
// single shard at any level still yields the exact answer via replay
// recovery (faulted).
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// K ∈ {2, 4, 8} is bit-identical to K = 1 on arbitrary integer
    /// inputs, independent of the host thread-pool width (the sharded
    /// coordinator must not let scheduling order leak into the result).
    #[test]
    fn sharded_selection_is_bit_identical_to_single_device(
        data in vec(-1000i32..1000, 64..600),
        rank_frac in 0.0f64..1.0,
        pool_threads in 1usize..4,
    ) {
        use gpu_selection::sampleselect::{sharded_select, ShardConfig, ShardFaults};

        let rank = ((data.len() - 1) as f64 * rank_frac) as usize;
        let cfg = small_cfg();
        let pool = ThreadPool::new(pool_threads);
        let arch = v100();

        let single = sharded_select(
            &arch, &pool, &data, rank, &cfg, &ShardConfig::default().with_shards(1), &ShardFaults::default(),
        ).unwrap();
        prop_assert!(single.outcome.is_exact());
        prop_assert_eq!(single.outcome.value(), reference_select(&data, rank).unwrap());

        for k in [2usize, 4, 8] {
            let sharded = sharded_select(
                &arch, &pool, &data, rank, &cfg, &ShardConfig::default().with_shards(k), &ShardFaults::default(),
            ).unwrap();
            prop_assert!(sharded.outcome.is_exact(), "K={} must stay exact", k);
            prop_assert_eq!(
                sharded.outcome.value(), single.outcome.value(),
                "K={} diverged from K=1", k
            );
            prop_assert!(sharded.report.events.is_clean(), "K={} run must be fault-free", k);
        }
    }

    /// Same invariant on floats, compared bit-for-bit (so -0.0 vs 0.0
    /// and NaN-payload drift would be caught).
    #[test]
    fn sharded_selection_is_bit_identical_on_floats(
        data in vec(prop::num::f32::NORMAL | prop::num::f32::ZERO, 64..400),
        rank_frac in 0.0f64..1.0,
        k_idx in 0usize..3,
    ) {
        use gpu_selection::sampleselect::{sharded_select, ShardConfig, ShardFaults};

        let rank = ((data.len() - 1) as f64 * rank_frac) as usize;
        let cfg = small_cfg();
        let pool = ThreadPool::new(2);
        let arch = v100();
        let k = [2usize, 4, 8][k_idx];

        let single = sharded_select(
            &arch, &pool, &data, rank, &cfg, &ShardConfig::default().with_shards(1), &ShardFaults::default(),
        ).unwrap();
        let sharded = sharded_select(
            &arch, &pool, &data, rank, &cfg, &ShardConfig::default().with_shards(k), &ShardFaults::default(),
        ).unwrap();
        prop_assert_eq!(
            sharded.outcome.value().to_bits(),
            single.outcome.value().to_bits(),
            "K={} not bit-identical to K=1", k
        );
    }

    /// Killing any single shard at any early recursion level keeps the
    /// result exact: the coordinator replays the dead shard's partition
    /// on a spare device and verifies the replay fingerprint.
    #[test]
    fn any_single_shard_kill_is_recovered_exactly(
        data in vec(-500i32..500, 128..600),
        rank_frac in 0.0f64..1.0,
        shard in 0usize..4,
        level in 0u32..2,
    ) {
        use gpu_selection::sampleselect::{sharded_select, ShardConfig, ShardFaults};

        let rank = ((data.len() - 1) as f64 * rank_frac) as usize;
        let cfg = small_cfg();
        let pool = ThreadPool::new(2);
        let arch = v100();
        let scfg = ShardConfig::default().with_shards(4).with_recovery_budget(1);
        let faults = ShardFaults::default().kill_shard(shard, level);

        let res = sharded_select(&arch, &pool, &data, rank, &cfg, &scfg, &faults).unwrap();
        prop_assert!(
            res.outcome.is_exact(),
            "kill {}@{} must be recovered, not degraded", shard, level
        );
        prop_assert_eq!(res.outcome.value(), reference_select(&data, rank).unwrap());
        // The kill fires only if the recursion reaches `level`; when it
        // does, exactly one recovery must be recorded.
        prop_assert!(res.report.shards_recovered <= 1);
        if res.report.levels > level {
            prop_assert_eq!(res.report.shards_recovered, 1, "kill at a reached level must recover");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `--algo auto` is a *router*, not an algorithm: whatever backend
    /// the planner reports choosing, running that backend directly on a
    /// fresh device must give the bit-identical answer (integer case).
    #[test]
    fn auto_plan_bit_identical_to_forced_backend_u32(
        data in vec(any::<u32>(), 1..600),
        rank_frac in 0.0f64..1.0,
    ) {
        use gpu_selection::sampleselect::planner::run_planned;
        use gpu_selection::sampleselect::{auto_select_on_device, plan_rank_query, SelectWorkspace};

        let rank = ((data.len() - 1) as f64 * rank_frac) as usize;
        let cfg = small_cfg();
        let pool = ThreadPool::new(1);
        let arch = v100();

        let decision = plan_rank_query(&arch, &data, rank, &cfg);
        let mut auto_dev = Device::new(arch.clone(), &pool);
        let (live, auto_res) = auto_select_on_device(&mut auto_dev, &data, rank, &cfg).unwrap();
        prop_assert_eq!(live.backend, decision.backend, "planning must be deterministic");
        prop_assert_eq!(auto_res.report.algorithm, decision.backend.name());

        let mut forced_dev = Device::new(arch.clone(), &pool);
        let mut ws = SelectWorkspace::new();
        let forced =
            run_planned(&mut forced_dev, &data, rank, &cfg, &mut ws, decision.backend).unwrap();
        prop_assert_eq!(auto_res.value, forced.value);
        prop_assert_eq!(auto_res.value, reference_select(&data, rank).unwrap());
    }

    /// Float case, NaN-laden inputs included: the values come from raw
    /// bit patterns (arbitrary NaN payloads, infinities, `-0.0`) and
    /// the comparison is on raw bit patterns too.
    #[test]
    fn auto_plan_bit_identical_to_forced_backend_f32(
        bits in vec(any::<u32>(), 1..500),
        rank_frac in 0.0f64..1.0,
    ) {
        let data: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
        use gpu_selection::sampleselect::planner::run_planned;
        use gpu_selection::sampleselect::{auto_select_on_device, plan_rank_query, SelectWorkspace};

        let rank = ((data.len() - 1) as f64 * rank_frac) as usize;
        let cfg = small_cfg();
        let pool = ThreadPool::new(1);
        let arch = v100();

        let decision = plan_rank_query(&arch, &data, rank, &cfg);
        let mut auto_dev = Device::new(arch.clone(), &pool);
        let (live, auto_res) = auto_select_on_device(&mut auto_dev, &data, rank, &cfg).unwrap();
        prop_assert_eq!(live.backend, decision.backend);
        prop_assert_eq!(auto_res.report.algorithm, decision.backend.name());

        let mut forced_dev = Device::new(arch.clone(), &pool);
        let mut ws = SelectWorkspace::new();
        let forced =
            run_planned(&mut forced_dev, &data, rank, &cfg, &mut ws, decision.backend).unwrap();
        prop_assert_eq!(
            auto_res.value.to_bits_u64(),
            forced.value.to_bits_u64(),
            "auto and forced {} disagree: {:?} vs {:?}",
            decision.backend.name(),
            auto_res.value,
            forced.value
        );
    }

    /// The planner consults only (data, rank, cfg, arch) — replanning
    /// the same query must reproduce the decision exactly, estimates
    /// and override flag included, for every data shape.
    #[test]
    fn planner_choice_deterministic_per_seed_and_distribution(
        seed in any::<u64>(),
        dist in 0usize..4,
        n in 64usize..4000,
    ) {
        use gpu_selection::sampleselect::plan_rank_query;
        use gpu_selection::sampleselect::rng::SplitMix64;

        let mut rng = SplitMix64::new(seed);
        let data: Vec<u32> = (0..n)
            .map(|i| match dist {
                0 => rng.next_u64() as u32,               // uniform
                1 => (rng.next_u64() % 16) as u32,        // duplicate-heavy
                2 => i as u32,                            // sorted
                _ => (rng.next_u64() % 251) as u32,       // low-entropy keys
            })
            .collect();
        let cfg = small_cfg();
        let arch = v100();
        let a = plan_rank_query(&arch, &data, n / 2, &cfg);
        let b = plan_rank_query(&arch, &data, n / 2, &cfg);
        prop_assert_eq!(a.backend, b.backend);
        prop_assert_eq!(a.overridden, b.overridden);
        let ea: Vec<_> = a.estimates.iter().map(|&(be, t)| (be, t.as_ns().to_bits())).collect();
        let eb: Vec<_> = b.estimates.iter().map(|&(be, t)| (be, t.as_ns().to_bits())).collect();
        prop_assert_eq!(ea, eb, "estimates must replay bit-for-bit");
    }
}

/// Deterministic companion to the property above: with corruption
/// guaranteed to land in a pooled region, the pool must record the
/// quarantined drop.
#[test]
fn corrupted_pooled_region_is_quarantined() {
    use gpu_selection::gpu_sim::FaultPlan;
    use gpu_selection::sampleselect::recursion::{select_with_workspace, Bucketing::Splitters};
    use gpu_selection::sampleselect::SelectWorkspace;

    let data: Vec<i32> = (0..4096)
        .map(|i| (i * 2654435761u64 as i64 % 4096) as i32)
        .collect();
    let cfg = small_cfg();
    let pool = ThreadPool::new(1);
    let mut device = Device::new(v100(), &pool);
    device.enable_buffer_pool();
    let mut ws: SelectWorkspace<i32> = SelectWorkspace::new();

    // Corruptible-access index 1 is the level-0 `counts` buffer (index
    // 0 is the splitter staging buffer, which is workspace-owned): the
    // bit flip is guaranteed to land in a pool-recycled region.
    device.set_fault_plan(FaultPlan::new(3).corrupt_accesses_at(&[1]));
    let _ = select_with_workspace(&mut device, &data, 2048, &cfg, &mut ws, Splitters);
    device.clear_fault_plan();
    device.reset();

    let second = select_with_workspace(&mut device, &data, 2048, &cfg, &mut ws, Splitters).unwrap();
    assert_eq!(
        second.value,
        reference_select(&data, 2048).unwrap(),
        "query after quarantine must be exact"
    );
    let stats = device.buffer_pool_stats().expect("pool armed");
    assert!(
        stats.poisoned_dropped > 0,
        "guaranteed corruption must quarantine the poisoned buffer, stats: {stats:?}"
    );
}

// ---------------------------------------------------------------------
// SIMD dispatch: every level must be bit-identical to the scalar
// reference, for every element type, input length (lane-multiple or
// not), and key structure (NaN payloads, signed zeros, duplicate-heavy
// splitter sets). `SELECT_SIMD=scalar` (the portable fallback) and
// AVX2 must agree with each other and with the per-element reference
// code (`SearchTree::lookup`, `lt_key_f32`, `sort_key_f32`).
// ---------------------------------------------------------------------

/// Every dispatch level this machine can run, `Scalar` (the reference
/// level) first.
fn simd_levels() -> Vec<gpu_selection::hpc_par::simd::SimdLevel> {
    use gpu_selection::hpc_par::simd::{avx2_available, SimdLevel};
    let mut levels = vec![SimdLevel::Scalar];
    if avx2_available() {
        levels.push(SimdLevel::Avx2);
    }
    levels
}

/// Tree lookups at every dispatch level, compared lane-for-lane.
fn assert_descent_identical<T: SelectElement>(data: &[T], splitters: &mut [T]) {
    use gpu_selection::hpc_par::simd::force_level;
    splitters.sort_unstable_by(|a, b| a.total_cmp(*b));
    let tree = SearchTree::build(splitters);
    let reference: Vec<u32> = data.iter().map(|&x| tree.lookup(x)).collect();
    let mut out = vec![0u32; data.len()];
    for level in simd_levels() {
        force_level(Some(level));
        tree.lookup_batch(data, &mut out);
        force_level(None);
        assert_eq!(out, reference, "descent diverged at dispatch {level}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn simd_descent_matches_scalar_u32(
        data in vec(any::<u32>(), 1..300),
        raw_splitters in vec(any::<u32>(), 3..64),
    ) {
        // Round the splitter count down to `b - 1` for a power-of-two b.
        let b = (raw_splitters.len() + 1).next_power_of_two() / 2;
        let mut splitters = raw_splitters[..b - 1].to_vec();
        assert_descent_identical(&data, &mut splitters);
    }

    #[test]
    fn simd_descent_matches_scalar_u64(
        data in vec(any::<u64>(), 1..300),
        raw_splitters in vec(any::<u64>(), 3..64),
    ) {
        let b = (raw_splitters.len() + 1).next_power_of_two() / 2;
        let mut splitters = raw_splitters[..b - 1].to_vec();
        assert_descent_identical(&data, &mut splitters);
    }

    #[test]
    fn simd_descent_matches_scalar_f32_all_bit_patterns(
        bits in vec(any::<u32>(), 1..300),
        raw_splitters in vec(-100.0f32..100.0, 3..64),
    ) {
        // Raw bit patterns cover NaN payloads, infinities, and both
        // zeros; splitters stay finite so the tree is well-ordered.
        let data: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
        let b = (raw_splitters.len() + 1).next_power_of_two() / 2;
        let mut splitters = raw_splitters[..b - 1].to_vec();
        assert_descent_identical(&data, &mut splitters);
    }

    #[test]
    fn simd_descent_matches_scalar_duplicate_heavy(
        picks in vec(0usize..4, 1..300),
        sdup in vec(0usize..4, 7..8),
    ) {
        // Four distinct values and splitters drawn from the same tiny
        // set: every bucket boundary is an equality-bucket candidate.
        let values = [1.5f32, -0.0, 0.0, f32::NAN];
        let data: Vec<f32> = picks.iter().map(|&i| values[i]).collect();
        let mut splitters: Vec<f32> = sdup.iter().map(|&i| values[i % 3]).collect();
        assert_descent_identical(&data, &mut splitters);
    }

    #[test]
    fn simd_pivot_masks_and_compress_match_scalar(
        keys in vec(any::<u32>(), 1..33),
        pivot in any::<u32>(),
        force_dups in any::<bool>(),
    ) {
        use gpu_selection::hpc_par::simd::{compress_u32, mask_for_len, pivot_masks_u32};
        let keys: Vec<u32> = if force_dups {
            keys.iter().map(|&k| k % 4).collect()
        } else {
            keys
        };
        let pivot = if force_dups { pivot % 4 } else { pivot };
        let mut lt_ref = 0u32;
        let mut eq_ref = 0u32;
        for (i, &k) in keys.iter().enumerate() {
            if k < pivot {
                lt_ref |= 1 << i;
            } else if k == pivot {
                eq_ref |= 1 << i;
            }
        }
        for level in simd_levels() {
            let (lt, eq) = pivot_masks_u32(&keys, pivot, level);
            prop_assert_eq!(lt, lt_ref, "lt mask diverged at {}", level);
            prop_assert_eq!(eq, eq_ref, "eq mask diverged at {}", level);
            for mask in [lt, eq, !(lt | eq) & mask_for_len(keys.len())] {
                let expect: Vec<u32> = keys
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| mask & (1 << i) != 0)
                    .map(|(_, &k)| k)
                    .collect();
                let mut staging = [0u32; 32];
                let cnt = compress_u32(&keys, mask, &mut staging, level);
                prop_assert_eq!(
                    &staging[..cnt],
                    expect.as_slice(),
                    "compress not stable/exact at {}",
                    level
                );
            }
        }
    }

    #[test]
    fn simd_float_keys_match_scalar(bits in vec(any::<u32>(), 1..100)) {
        use gpu_selection::hpc_par::simd::{lt_key_f32, sort_key_f32};
        use gpu_selection::sampleselect::element::{fill_lt_keys32, fill_sort_keys32};
        let data: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
        let lt_ref: Vec<u32> = data.iter().map(|&v| lt_key_f32(v)).collect();
        let sort_ref: Vec<u32> = data.iter().map(|&v| sort_key_f32(v)).collect();
        let mut out = vec![0u32; data.len()];
        for level in simd_levels() {
            fill_lt_keys32(&data, &mut out, level);
            prop_assert_eq!(&out, &lt_ref, "lt keys diverged at {}", level);
            fill_sort_keys32(&data, &mut out, level);
            prop_assert_eq!(&out, &sort_ref, "sort keys diverged at {}", level);
        }
    }

    #[test]
    fn simd_full_query_identical_across_forced_levels(
        seed in any::<u64>(),
        dup in any::<bool>(),
    ) {
        use gpu_selection::hpc_par::simd::force_level;
        use gpu_selection::sampleselect::rng::SplitMix64;
        let mut rng = SplitMix64::new(seed);
        let n = 6000;
        let data: Vec<f32> = (0..n)
            .map(|_| {
                if dup {
                    (rng.next_u64() % 7) as f32
                } else {
                    rng.next_f64() as f32 * 2.0 - 1.0
                }
            })
            .collect();
        let cfg = small_cfg();
        let pool = ThreadPool::new(2);
        let mut reference: Option<(u32, u64)> = None;
        for level in simd_levels() {
            let mut device = Device::new(v100(), &pool);
            force_level(Some(level));
            let r = sample_select_on_device(&mut device, &data, n / 2, &cfg);
            force_level(None);
            let r = r.expect("select succeeds");
            let fp = (r.value.to_bits(), r.report.total_time.as_ns().to_bits());
            match reference {
                None => reference = Some(fp),
                Some(ref_fp) => prop_assert_eq!(
                    fp,
                    ref_fp,
                    "answer or simulated time diverged at dispatch {}",
                    level
                ),
            }
        }
    }
}
