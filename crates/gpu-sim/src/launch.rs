//! Kernel launch configuration and occupancy.

use crate::arch::GpuArchitecture;

/// Grid/block dimensions and static shared-memory footprint of a kernel
/// launch, mirroring CUDA's `<<<blocks, threads, smem>>>` triple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchConfig {
    /// Number of thread blocks in the grid.
    pub blocks: u32,
    /// Threads per block (multiple of the warp size for full warps).
    pub threads_per_block: u32,
    /// Static shared memory per block, in bytes.
    pub shared_mem_bytes: u32,
}

impl LaunchConfig {
    /// A grid that covers `n` elements with `threads_per_block` threads
    /// per block and `items_per_thread` elements per thread (grid-stride
    /// processing within a block's contiguous chunk).
    pub fn for_elements(
        n: usize,
        threads_per_block: u32,
        items_per_thread: u32,
        shared_mem_bytes: u32,
    ) -> Self {
        let per_block = (threads_per_block as usize) * (items_per_thread as usize).max(1);
        let blocks = n.div_ceil(per_block.max(1)).max(1);
        Self {
            blocks: blocks.min(u32::MAX as usize) as u32,
            threads_per_block,
            shared_mem_bytes,
        }
    }

    /// Elements each block processes when `n` elements are distributed
    /// over the grid in contiguous chunks.
    pub fn block_chunk(&self, n: usize) -> usize {
        n.div_ceil(self.blocks as usize).max(1)
    }

    /// Warps per block.
    pub fn warps_per_block(&self, warp_size: u32) -> u32 {
        self.threads_per_block.div_ceil(warp_size)
    }

    /// Total threads in the grid.
    pub fn total_threads(&self) -> u64 {
        self.blocks as u64 * self.threads_per_block as u64
    }
}

/// Occupancy analysis: how many blocks can be resident per SM, and how
/// much of the device a launch keeps busy.
#[derive(Debug, Clone, Copy)]
pub struct Occupancy {
    /// Resident blocks per SM given threads/smem/block-count limits.
    pub blocks_per_sm: u32,
    /// Resident warps per SM.
    pub warps_per_sm: u32,
    /// Effective number of busy SMs (fractional): SM count actually
    /// covered by the grid, derated when too few warps are resident to
    /// hide memory latency.
    pub effective_sms: f64,
}

/// Number of resident warps per SM needed to hide DRAM latency; below
/// this, effective parallelism is derated linearly. (Little's-law
/// style: latency x bandwidth demands ~a dozen outstanding warps.)
const LATENCY_HIDING_WARPS: f64 = 12.0;

/// Compute the occupancy of `config` on `arch`.
pub fn occupancy(arch: &GpuArchitecture, config: &LaunchConfig) -> Occupancy {
    let threads = config.threads_per_block.max(1);
    let by_threads = (arch.max_threads_per_sm / threads).max(1);
    let smem_per_block = config.shared_mem_bytes.max(1);
    let by_smem = ((arch.shared_mem_per_block_kib * 1024) / smem_per_block).max(1);
    let blocks_per_sm = by_threads.min(by_smem).min(arch.max_blocks_per_sm);

    let warps_per_block = config.warps_per_block(arch.warp_size);
    // Blocks actually resident on each SM, limited by the grid size.
    let grid_blocks = config.blocks as f64;
    let resident_blocks_per_busy_sm = (grid_blocks / arch.num_sms as f64)
        .min(blocks_per_sm as f64)
        .max(1.0_f64.min(grid_blocks));
    let resident_warps = resident_blocks_per_busy_sm * warps_per_block as f64;
    let latency_factor = (resident_warps / LATENCY_HIDING_WARPS).min(1.0);

    // The grid covers min(blocks, num_sms) SMs at minimum one block per
    // SM; latency hiding derates them.
    let busy = grid_blocks.min(arch.num_sms as f64);
    Occupancy {
        blocks_per_sm,
        warps_per_sm: blocks_per_sm * warps_per_block,
        effective_sms: (busy * latency_factor).max(0.05),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::v100;

    #[test]
    fn for_elements_covers_input() {
        let cfg = LaunchConfig::for_elements(1000, 128, 4, 0);
        assert!(cfg.blocks as usize * 128 * 4 >= 1000);
        assert_eq!(cfg.threads_per_block, 128);
    }

    #[test]
    fn for_elements_empty_input_gets_one_block() {
        let cfg = LaunchConfig::for_elements(0, 256, 1, 0);
        assert_eq!(cfg.blocks, 1);
    }

    #[test]
    fn block_chunk_tiles_grid() {
        let cfg = LaunchConfig::for_elements(10_000, 256, 4, 0);
        let chunk = cfg.block_chunk(10_000);
        assert!(chunk * cfg.blocks as usize >= 10_000);
        assert!(chunk * (cfg.blocks as usize - 1) < 10_000);
    }

    #[test]
    fn warps_per_block_rounds_up() {
        let cfg = LaunchConfig {
            blocks: 1,
            threads_per_block: 33,
            shared_mem_bytes: 0,
        };
        assert_eq!(cfg.warps_per_block(32), 2);
    }

    #[test]
    fn occupancy_limited_by_threads() {
        let arch = v100();
        let cfg = LaunchConfig {
            blocks: 10_000,
            threads_per_block: 1024,
            shared_mem_bytes: 0,
        };
        let occ = occupancy(&arch, &cfg);
        assert_eq!(occ.blocks_per_sm, 2); // 2048 / 1024
        assert!((occ.effective_sms - arch.num_sms as f64).abs() < 1e-9);
    }

    #[test]
    fn occupancy_limited_by_shared_memory() {
        let arch = v100();
        let cfg = LaunchConfig {
            blocks: 10_000,
            threads_per_block: 128,
            shared_mem_bytes: 48 * 1024,
        };
        let occ = occupancy(&arch, &cfg);
        assert_eq!(occ.blocks_per_sm, 2); // 96 KiB / 48 KiB
    }

    #[test]
    fn small_grid_cannot_fill_device() {
        let arch = v100();
        let cfg = LaunchConfig {
            blocks: 4,
            threads_per_block: 512,
            shared_mem_bytes: 0,
        };
        let occ = occupancy(&arch, &cfg);
        assert!(occ.effective_sms <= 4.0);
    }

    #[test]
    fn tiny_block_derated_for_latency() {
        let arch = v100();
        let one_warp = LaunchConfig {
            blocks: arch.num_sms,
            threads_per_block: 32,
            shared_mem_bytes: 0,
        };
        let occ = occupancy(&arch, &one_warp);
        // One warp per SM cannot hide latency: far below full speed.
        assert!(occ.effective_sms < arch.num_sms as f64 * 0.2);
    }
}
