//! The roofline-style timing model.
//!
//! A work batch's execution time on a device is
//!
//! ```text
//! t = max(t_compute, t_memory) + t_launch + t_transfer          (GPU)
//! t = max(t_compute, t_memory)                                   (CPU)
//!
//! t_compute = units · cycles_per_unit / (lanes · clock · arch_eff · occ_eff)
//! t_memory  = units · bytes_per_unit / DRAM_bandwidth
//! t_transfer = PCIe latency + bytes / PCIe_bandwidth
//! ```
//!
//! where a *unit* is one atom-pair interaction of the scoring kernel and an
//! *item* is one conformation (= one CUDA warp, §3.2). The model derives
//! relative device throughput purely from the card parameters the paper
//! tabulates (Tables 1–3), which is all the heterogeneity-aware scheduler
//! observes; see DESIGN.md §1.

use crate::launch::occupancy_efficiency;
use crate::spec::{DeviceKind, DeviceSpec};
use serde::{Deserialize, Serialize};

/// The work-unit *regime* of a scoring kernel: what one `unit` in a
/// [`WorkBatch`] physically is, and therefore which per-unit rates the
/// cost model prices it at. The dense kernels, the potential-grid
/// interpolator, and the cell-list cutoff kernel do different work per
/// unit by orders of magnitude — pricing a grid job in pair units would
/// mispredict it by the ratio of receptor atoms to one.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub enum KernelClass {
    /// One unit = one `ligand × receptor` atom-pair interaction (the dense
    /// Naive and Fused kernels). The calibrated default.
    #[default]
    PairSweep,
    /// One unit = one ligand atom interpolated from precomputed potential
    /// grids: ~2×8 corner gathers plus trilinear weights. Gather-dominated
    /// (random node access), so high bytes-per-unit.
    GridInterp,
    /// One unit = one cutoff-shell pair enumerated through a cell list:
    /// the pair math plus neighbor-list chasing (scattered loads, not the
    /// streamed tiles of the dense kernels).
    ShellPairs,
}

impl KernelClass {
    /// Stable numeric id for trace payloads (`vstrace` events carry plain
    /// `u32`s so the trace crate stays independent of this one).
    pub fn ordinal(self) -> u32 {
        match self {
            KernelClass::PairSweep => 0,
            KernelClass::GridInterp => 1,
            KernelClass::ShellPairs => 2,
        }
    }
}

/// One scoring kernel invocation: `items` conformations, each computing
/// `units_per_item` work units of the given [`KernelClass`], with
/// host↔device payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkBatch {
    /// Work items (conformations; one warp each on GPUs).
    pub items: u64,
    /// Work units per item (pairs, ligand atoms, or shell pairs — see
    /// [`WorkBatch::class`]).
    pub units_per_item: u64,
    /// The regime `units_per_item` is counted in.
    pub class: KernelClass,
    /// Host→device bytes for this batch (poses).
    pub bytes_down: u64,
    /// Device→host bytes for this batch (scores).
    pub bytes_up: u64,
}

impl WorkBatch {
    /// A dense pair-sweep conformation batch with the standard payload
    /// sizes: a pose is 7 doubles (quaternion + translation) down, a score
    /// is one double up.
    pub fn conformations(items: u64, pairs_per_item: u64) -> WorkBatch {
        WorkBatch::kernel(items, pairs_per_item, KernelClass::PairSweep)
    }

    /// A conformation batch in an explicit work-unit regime (same standard
    /// pose/score payloads as [`WorkBatch::conformations`]).
    pub fn kernel(items: u64, units_per_item: u64, class: KernelClass) -> WorkBatch {
        WorkBatch { items, units_per_item, class, bytes_down: items * 56, bytes_up: items * 8 }
    }

    pub fn total_units(&self) -> u64 {
        self.items * self.units_per_item
    }
}

/// A kernel's per-item work shape — how many units one conformation costs
/// and which regime those units are priced in. This is what schedulers
/// thread through warm-up splits and deque seeding so the cost model sees
/// grid jobs as grid jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkProfile {
    pub units_per_item: u64,
    pub class: KernelClass,
}

impl WorkProfile {
    pub fn new(units_per_item: u64, class: KernelClass) -> WorkProfile {
        WorkProfile { units_per_item, class }
    }

    /// The dense pair-sweep profile (`pairs = ligand × receptor atoms`).
    pub fn pairs(pairs_per_item: u64) -> WorkProfile {
        WorkProfile { units_per_item: pairs_per_item, class: KernelClass::PairSweep }
    }

    /// A conformation [`WorkBatch`] of `items` items in this profile.
    pub fn batch(&self, items: u64) -> WorkBatch {
        WorkBatch::kernel(items, self.units_per_item, self.class)
    }
}

/// Model constants. Defaults are calibrated once against the paper's
/// OpenMP-vs-GPU speed-up bands (Tables 6–9) and then *never varied per
/// experiment* — every reported number comes from the same model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Lane-cycles per pair interaction (LJ: ~12 FLOPs + table lookup,
    /// amortized over FMA throughput).
    pub cycles_per_unit: f64,
    /// DRAM bytes per pair interaction after shared-memory tiling (receptor
    /// tiles are reused by every warp in a block, so per-pair traffic is
    /// far below the 32 B/atom of an untiled kernel).
    pub bytes_per_unit: f64,
    /// Fixed kernel-launch overhead per batch (GPU only), seconds.
    pub launch_overhead_s: f64,
    /// PCIe bandwidth, GB/s (GPU only).
    pub pcie_bandwidth_gbs: f64,
    /// PCIe/driver latency per transfer direction, seconds (GPU only).
    pub pcie_latency_s: f64,
    /// When true, PCIe transfers overlap kernel execution (CUDA streams +
    /// double buffering): the batch costs `max(kernel, transfer)` instead
    /// of their sum. Off by default — the paper's implementation uses the
    /// simple synchronous copy-compute-copy structure of Algorithm 2.
    pub overlap_transfers: bool,
    /// Lane-cycles per [`KernelClass::GridInterp`] unit (one ligand atom:
    /// 16 corner gathers, 24 weight multiplies, the charge scale).
    pub grid_cycles_per_unit: f64,
    /// DRAM bytes per grid-interpolation unit: the corner gathers are
    /// random-access node reads that tiling cannot coalesce.
    pub grid_bytes_per_unit: f64,
    /// Lane-cycles per [`KernelClass::ShellPairs`] unit: the pair math
    /// plus cell-list index chasing.
    pub shell_cycles_per_unit: f64,
    /// DRAM bytes per shell pair (scattered neighbor loads, no tile reuse).
    pub shell_bytes_per_unit: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            cycles_per_unit: 6.0,
            bytes_per_unit: 0.5,
            launch_overhead_s: 12e-6,
            pcie_bandwidth_gbs: 6.0,
            pcie_latency_s: 8e-6,
            overlap_transfers: false,
            grid_cycles_per_unit: 48.0,
            grid_bytes_per_unit: 64.0,
            shell_cycles_per_unit: 9.0,
            shell_bytes_per_unit: 4.0,
        }
    }
}

impl CostModel {
    /// Modeled wall time for `batch` on `spec`, in seconds.
    pub fn execution_time(&self, spec: &DeviceSpec, batch: &WorkBatch) -> f64 {
        let (t_kernel, t_transfer) = self.time_breakdown(spec, batch);
        if spec.is_gpu() {
            if self.overlap_transfers {
                t_kernel.max(t_transfer) + self.launch_overhead_s
            } else {
                t_kernel + self.launch_overhead_s + t_transfer
            }
        } else {
            t_kernel
        }
    }

    /// The `(kernel, PCIe transfer)` components of [`Self::execution_time`],
    /// in seconds — the split the trace's `DeviceBusy` events and the
    /// makespan breakdown report. The fixed launch overhead is in neither
    /// component (it shows up as `busy − kernel − transfer`); transfers are
    /// zero on CPUs, which have no PCIe hop.
    pub fn time_breakdown(&self, spec: &DeviceSpec, batch: &WorkBatch) -> (f64, f64) {
        let t_transfer = if spec.is_gpu() {
            let bytes = (batch.bytes_down + batch.bytes_up) as f64;
            2.0 * self.pcie_latency_s + bytes / (self.pcie_bandwidth_gbs * 1e9)
        } else {
            0.0
        };
        if batch.items == 0 || batch.units_per_item == 0 {
            // Empty launches compute nothing but still pay the fixed
            // per-direction PCIe latency on a GPU.
            return (0.0, t_transfer);
        }
        let units = batch.total_units() as f64;

        let parallel_eff = match spec.kind {
            DeviceKind::Gpu { .. } => occupancy_efficiency(spec, batch.items),
            DeviceKind::Cpu { cores, .. } => (batch.items as f64 / cores as f64).min(1.0),
        };
        let (cycles, bytes) = self.unit_cost(batch.class);
        let lane_hz = spec.sustained_lane_hz() * parallel_eff.max(1e-9);
        let t_compute = units * cycles / lane_hz;
        let t_memory = units * bytes / (spec.memory_bandwidth_gbs * 1e9);
        (t_compute.max(t_memory), t_transfer)
    }

    /// Per-unit `(lane-cycles, DRAM bytes)` for a work-unit regime.
    pub fn unit_cost(&self, class: KernelClass) -> (f64, f64) {
        match class {
            KernelClass::PairSweep => (self.cycles_per_unit, self.bytes_per_unit),
            KernelClass::GridInterp => (self.grid_cycles_per_unit, self.grid_bytes_per_unit),
            KernelClass::ShellPairs => (self.shell_cycles_per_unit, self.shell_bytes_per_unit),
        }
    }

    /// Asymptotic throughput in pair interactions per second for large,
    /// machine-filling batches (the calibrated [`KernelClass::PairSweep`]
    /// regime).
    pub fn peak_units_per_second(&self, spec: &DeviceSpec) -> f64 {
        self.peak_units_per_second_for(spec, KernelClass::PairSweep)
    }

    /// Asymptotic units-per-second in an explicit work-unit regime.
    pub fn peak_units_per_second_for(&self, spec: &DeviceSpec, class: KernelClass) -> f64 {
        let (cycles, bytes) = self.unit_cost(class);
        let compute = spec.sustained_lane_hz() / cycles;
        let memory = spec.memory_bandwidth_gbs * 1e9 / bytes;
        compute.min(memory)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    fn big_batch(pairs: u64) -> WorkBatch {
        WorkBatch::conformations(100_000, pairs)
    }

    #[test]
    fn time_scales_linearly_with_units_when_saturated() {
        let m = CostModel::default();
        let d = catalog::geforce_gtx_580();
        // Large units-per-item keeps the fixed transfer cost negligible.
        let t1 = m.execution_time(&d, &big_batch(100_000));
        let t2 = m.execution_time(&d, &big_batch(200_000));
        let ratio = t2 / t1;
        assert!((ratio - 2.0).abs() < 0.05, "ratio {ratio}");
    }

    #[test]
    fn faster_device_is_faster() {
        let m = CostModel::default();
        let b = big_batch(45 * 3264);
        let t_k40 = m.execution_time(&catalog::tesla_k40c(), &b);
        let t_580 = m.execution_time(&catalog::geforce_gtx_580(), &b);
        let t_cpu = m.execution_time(&catalog::xeon_e3_1220(), &b);
        assert!(t_k40 < t_580, "K40c {t_k40} vs 580 {t_580}");
        assert!(t_580 < t_cpu, "580 {t_580} vs CPU {t_cpu}");
    }

    #[test]
    fn gpu_cpu_ratio_in_paper_band() {
        // Tables 6–9: single-node GPU configurations beat OpenMP by tens of
        // times. A single big Fermi card over Jupiter's 12-core Xeon should
        // land in roughly the 5–30× band (4–6 such GPUs give the paper's
        // 50–92×).
        let m = CostModel::default();
        let b = big_batch(45 * 3264);
        let t_gpu = m.execution_time(&catalog::geforce_gtx_590(), &b);
        let t_cpu = m.execution_time(&catalog::xeon_e5_2620_dual(), &b);
        let ratio = t_cpu / t_gpu;
        assert!((5.0..30.0).contains(&ratio), "GPU:CPU ratio {ratio}");
    }

    #[test]
    fn k40_to_580_ratio_matches_hertz_premise() {
        // Hertz's heterogeneous algorithm gains 1.3–1.56×, which requires
        // the K40c to be roughly 2–3× the GTX 580 on this workload.
        let m = CostModel::default();
        let b = big_batch(32 * 8609);
        let t_k40 = m.execution_time(&catalog::tesla_k40c(), &b);
        let t_580 = m.execution_time(&catalog::geforce_gtx_580(), &b);
        let ratio = t_580 / t_k40;
        assert!((1.8..3.5).contains(&ratio), "K40c:580 ratio {ratio}");
    }

    #[test]
    fn empty_batch_costs_only_overheads() {
        let m = CostModel::default();
        let d = catalog::geforce_gtx_580();
        let t = m.execution_time(&d, &WorkBatch::conformations(0, 100));
        assert!(t > 0.0 && t < 1e-3);
        let c = catalog::xeon_e3_1220();
        assert_eq!(m.execution_time(&c, &WorkBatch::conformations(0, 100)), 0.0);
    }

    #[test]
    fn small_batches_pay_occupancy_penalty() {
        // Per-unit cost must be higher for a batch that cannot fill the GPU.
        let m = CostModel::default();
        let d = catalog::tesla_k40c();
        let small = WorkBatch::conformations(8, 10_000);
        let large = WorkBatch::conformations(100_000, 10_000);
        let per_unit_small = m.execution_time(&d, &small) / small.total_units() as f64;
        let per_unit_large = m.execution_time(&d, &large) / large.total_units() as f64;
        assert!(
            per_unit_small > 2.0 * per_unit_large,
            "small {per_unit_small} vs large {per_unit_large}"
        );
    }

    #[test]
    fn cpu_small_batches_underuse_cores() {
        let m = CostModel::default();
        let c = catalog::xeon_e5_2620_dual(); // 12 cores
        let one = WorkBatch::conformations(1, 100_000);
        let twelve = WorkBatch::conformations(12, 100_000);
        let t1 = m.execution_time(&c, &one);
        let t12 = m.execution_time(&c, &twelve);
        // 12 items on 12 cores take the same time as 1 item on 1 core.
        assert!((t1 - t12).abs() / t1 < 1e-9, "{t1} vs {t12}");
    }

    #[test]
    fn transfer_cost_grows_with_items() {
        let m = CostModel::default();
        let d = catalog::geforce_gtx_590();
        // Same total units, different item granularity: more items = more
        // PCIe payload.
        let few = WorkBatch::conformations(1_000, 1_000_000);
        let many = WorkBatch::conformations(1_000_000, 1_000);
        assert!(m.execution_time(&d, &many) > m.execution_time(&d, &few));
    }

    #[test]
    fn peak_throughput_ordering() {
        let m = CostModel::default();
        let mut rates: Vec<(String, f64)> = [
            catalog::xeon_e3_1220(),
            catalog::xeon_e5_2620_dual(),
            catalog::tesla_c2075(),
            catalog::geforce_gtx_590(),
            catalog::geforce_gtx_580(),
            catalog::tesla_k40c(),
        ]
        .iter()
        .map(|d| (d.name.clone(), m.peak_units_per_second(d)))
        .collect();
        rates.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
        let names: Vec<&str> = rates.iter().map(|(n, _)| n.as_str()).collect();
        // CPUs slowest, K40c fastest.
        assert_eq!(names[0], "Intel Xeon E3-1220");
        assert_eq!(names[1], "2x Intel Xeon E5-2620");
        assert_eq!(names[5], "Tesla K40c");
    }

    #[test]
    fn overlapping_transfers_never_slower() {
        let sync = CostModel::default();
        let overlap = CostModel { overlap_transfers: true, ..Default::default() };
        let d = catalog::geforce_gtx_590();
        for (items, pairs) in [(100u64, 100u64), (10_000, 1_000), (1_000_000, 100)] {
            let b = WorkBatch::conformations(items, pairs);
            let ts = sync.execution_time(&d, &b);
            let to = overlap.execution_time(&d, &b);
            assert!(to <= ts + 1e-15, "overlap {to} > sync {ts}");
        }
    }

    #[test]
    fn overlap_helps_balanced_batches_most() {
        // Many tiny items: transfer-dominated; overlap hides almost all of
        // the kernel or transfer time, whichever is smaller.
        let sync = CostModel::default();
        let overlap = CostModel { overlap_transfers: true, ..Default::default() };
        let d = catalog::geforce_gtx_590();
        // Kernel ≈ transfer time: overlap hides nearly half the total.
        let balanced = WorkBatch::conformations(100_000, 800);
        let gain = sync.execution_time(&d, &balanced) / overlap.execution_time(&d, &balanced);
        assert!(gain > 1.5, "balanced-batch overlap gain {gain}");
        // Compute-bound batches barely change.
        let compute_bound = WorkBatch::conformations(10_000, 1_000_000);
        let gain2 =
            sync.execution_time(&d, &compute_bound) / overlap.execution_time(&d, &compute_bound);
        assert!(gain2 < 1.01, "compute-bound overlap gain {gain2}");
    }

    #[test]
    fn batch_constructor_payloads() {
        let b = WorkBatch::conformations(10, 99);
        assert_eq!(b.bytes_down, 560);
        assert_eq!(b.bytes_up, 80);
        assert_eq!(b.total_units(), 990);
        assert_eq!(b.class, KernelClass::PairSweep);
    }

    #[test]
    fn work_profile_builds_batches_in_its_regime() {
        let p = WorkProfile::new(32, KernelClass::GridInterp);
        let b = p.batch(1000);
        assert_eq!(b.items, 1000);
        assert_eq!(b.units_per_item, 32);
        assert_eq!(b.class, KernelClass::GridInterp);
        assert_eq!(b.bytes_down, WorkBatch::conformations(1000, 1).bytes_down);
        assert_eq!(WorkProfile::pairs(7).batch(3), WorkBatch::conformations(3, 7));
    }

    #[test]
    fn grid_jobs_priced_far_below_equivalent_pair_jobs() {
        // The whole point of the per-kernel regime: 32 grid units per item
        // (a 32-atom ligand) must cost orders of magnitude less than the
        // 32×8609 pair units the dense kernel would burn on the same
        // complex — even though grid units are individually pricier.
        let m = CostModel::default();
        for d in [catalog::tesla_k40c(), catalog::xeon_e5_2620_dual()] {
            let grid = WorkBatch::kernel(100_000, 32, KernelClass::GridInterp);
            let dense = WorkBatch::conformations(100_000, 32 * 8609);
            let t_grid = m.execution_time(&d, &grid);
            let t_dense = m.execution_time(&d, &dense);
            assert!(t_grid * 20.0 < t_dense, "{}: grid {t_grid} vs dense {t_dense}", d.name);
        }
    }

    #[test]
    fn per_class_unit_costs_are_distinct_and_ordered() {
        let m = CostModel::default();
        let (pc, pb) = m.unit_cost(KernelClass::PairSweep);
        let (gc, gb) = m.unit_cost(KernelClass::GridInterp);
        let (sc, sb) = m.unit_cost(KernelClass::ShellPairs);
        // A grid unit (one ligand atom, 16 gathers) is pricier than a pair
        // unit; a shell pair is a pair plus index chasing.
        assert!(gc > sc && sc > pc);
        assert!(gb > sb && sb > pb);
        let d = catalog::tesla_k40c();
        let pair_rate = m.peak_units_per_second_for(&d, KernelClass::PairSweep);
        assert_eq!(pair_rate, m.peak_units_per_second(&d));
        assert!(m.peak_units_per_second_for(&d, KernelClass::GridInterp) < pair_rate);
        assert!(m.peak_units_per_second_for(&d, KernelClass::ShellPairs) < pair_rate);
    }
}
