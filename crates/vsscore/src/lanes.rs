//! The lane types of the explicit-width kernels: the pair sweep of
//! [`crate::run`], and the grid build and the grid interpolation of
//! [`crate::grid_potential`].
//!
//! A kernel writes its arithmetic once, over a value type that offers
//! exactly what it needs ([`Lane`]: broadcast, `+ − × ÷`, compare-select,
//! truncation toward zero, and a masked `f32` accumulate; its four-wide
//! refinement [`Wide`] adds the array conversions, one of them narrowing to
//! `f32`), and takes four elements per step ([`LANES`]). There are three
//! such types:
//!
//! - `f64` — the `len % 4` elements left over after the last full step;
//! - [`F64x4`], a `[f64; 4]` with element-wise operators — portable; LLVM
//!   packs it into whatever the target's baseline offers (two 128-bit
//!   halves on x86-64), with no per-element bounds check left;
//! - `avx2::Avx`, one 256-bit `__m256d` register, its operators the
//!   `_mm256_{add,sub,mul,div}_pd` / `cmp` + `blendv` / `round_pd` /
//!   `cvtpd_ps` intrinsics. It exists only on x86-64 and is private to this
//!   module: the one way to run a kernel over it is [`widest`], which asks
//!   the CPU for `avx2` first, and for `avx512f` and `avx512vl`, which
//!   compile the same body with 32 vector registers.
//!
//! Every lane operation in all three is a correctly rounded IEEE-754 add,
//! subtract, multiply, divide or `f64 → f32` conversion, an exact
//! truncation to an integral value, or a compare-select — there is no fused
//! multiply-add, no reciprocal estimate and no reassociation — so the three
//! give each lane the bits the `f64` implementation gives that lane alone,
//! non-finite inputs included. Which one runs depends on the host CPU; no
//! result does. The kernels' tests hold them to that by `to_bits`, the
//! portable one instantiated directly so it is exercised on every host.
//!
//! Apart from these, [`F32x8`] holds the eight `f32` lanes the grid
//! interpolation blends its cell corners in: plain IEEE `+ − ×` per lane
//! and a fixed-tree horizontal sum, the same bits under any target.

use std::ops::{Add, Div, Mul, Sub};

/// Elements per step of a wide kernel. Four `f64` lanes fill one 256-bit
/// register.
pub const LANES: usize = 4;

/// What the kernels need of a value: correctly rounded IEEE `+ − × ÷` per
/// lane, a broadcast, compares, truncation, and a masked narrowing
/// accumulate. Nothing here fuses, estimates or reassociates, so every
/// implementation gives each lane the bits the `f64` implementation gives
/// that lane alone.
pub(crate) trait Lane:
    Copy + Add<Output = Self> + Sub<Output = Self> + Mul<Output = Self> + Div<Output = Self>
{
    /// One truth value per lane.
    type Mask: Copy;

    /// Every lane set to `v`.
    fn splat(v: f64) -> Self;
    /// Lane by lane `if self < rhs { lt } else { ge }`; a NaN compares
    /// false and takes `ge`.
    fn select_lt(self, rhs: Self, lt: Self, ge: Self) -> Self;
    /// Lane by lane `!(self > rhs)`: true on a NaN.
    fn not_gt(self, rhs: Self) -> Self::Mask;
    /// Lane by lane [`f64::trunc`]: the integral value toward zero, which
    /// keeps the sign of a zero result, NaN and ±∞.
    fn trunc(self) -> Self;
    /// How many lanes of `mask` hold.
    fn count(mask: Self::Mask) -> u32;
    /// `cell += lane as f32` for lane `l` and cell `cells[at + l]`, in the
    /// lanes where `keep` holds. The other cells keep the bits they had:
    /// adding a zero instead would turn a `-0.0` cell into `+0.0`.
    ///
    /// # Panics
    /// Panics unless `cells` holds a cell for every lane.
    fn add_narrowed(self, keep: Self::Mask, cells: &mut [f32], at: usize);
}

impl Lane for f64 {
    type Mask = bool;

    #[inline(always)]
    fn splat(v: f64) -> f64 {
        v
    }
    #[inline(always)]
    fn select_lt(self, rhs: f64, lt: f64, ge: f64) -> f64 {
        if self < rhs {
            lt
        } else {
            ge
        }
    }
    #[inline(always)]
    // The negation is the point: `self <= rhs` is false on a NaN.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    fn not_gt(self, rhs: f64) -> bool {
        !(self > rhs)
    }
    #[inline(always)]
    fn trunc(self) -> f64 {
        f64::trunc(self)
    }
    #[inline(always)]
    fn count(mask: bool) -> u32 {
        u32::from(mask)
    }
    #[inline(always)]
    fn add_narrowed(self, keep: bool, cells: &mut [f32], at: usize) {
        if keep {
            cells[at] += self as f32;
        }
    }
}

/// [`LANES`] lanes side by side, read from and written to arrays.
pub(crate) trait Wide: Lane {
    fn from_array(lanes: [f64; LANES]) -> Self;
    fn to_array(self) -> [f64; LANES];
    /// Every lane `as f32`: rounded to nearest, ties to even.
    fn to_f32_array(self) -> [f32; LANES];
}

/// The portable [`Wide`]: each operator is the `f64` one, spelled out lane
/// by lane over a fixed-size array — no index can be out of bounds and no
/// lane reads another — which LLVM turns into packed instructions of
/// whatever width the target's baseline has (two 128-bit halves on
/// x86-64; the same thing through `array::from_fn` packs fewer of them).
#[derive(Clone, Copy)]
pub(crate) struct F64x4([f64; LANES]);

macro_rules! lanewise {
    ($($op:ident $method:ident $sign:tt),*) => {$(
        impl $op for F64x4 {
            type Output = F64x4;
            #[inline(always)]
            fn $method(self, rhs: F64x4) -> F64x4 {
                let (a, b) = (self.0, rhs.0);
                F64x4([a[0] $sign b[0], a[1] $sign b[1], a[2] $sign b[2], a[3] $sign b[3]])
            }
        }
    )*};
}
lanewise!(Add add +, Sub sub -, Mul mul *, Div div /);

impl Lane for F64x4 {
    type Mask = [bool; LANES];

    #[inline(always)]
    fn splat(v: f64) -> F64x4 {
        F64x4([v; LANES])
    }
    #[inline(always)]
    fn select_lt(self, rhs: F64x4, lt: F64x4, ge: F64x4) -> F64x4 {
        let (a, b, lt, ge) = (self.0, rhs.0, lt.0, ge.0);
        F64x4([
            a[0].select_lt(b[0], lt[0], ge[0]),
            a[1].select_lt(b[1], lt[1], ge[1]),
            a[2].select_lt(b[2], lt[2], ge[2]),
            a[3].select_lt(b[3], lt[3], ge[3]),
        ])
    }
    #[inline(always)]
    fn not_gt(self, rhs: F64x4) -> [bool; LANES] {
        let (a, b) = (self.0, rhs.0);
        [a[0].not_gt(b[0]), a[1].not_gt(b[1]), a[2].not_gt(b[2]), a[3].not_gt(b[3])]
    }
    #[inline(always)]
    fn trunc(self) -> F64x4 {
        let a = self.0;
        F64x4([a[0].trunc(), a[1].trunc(), a[2].trunc(), a[3].trunc()])
    }
    #[inline(always)]
    fn count(mask: [bool; LANES]) -> u32 {
        mask.iter().map(|&m| u32::from(m)).sum()
    }
    #[inline(always)]
    fn add_narrowed(self, keep: [bool; LANES], cells: &mut [f32], at: usize) {
        let cells = &mut cells[at..at + LANES];
        for (l, (v, keep)) in self.0.into_iter().zip(keep).enumerate() {
            v.add_narrowed(keep, cells, l);
        }
    }
}

impl Wide for F64x4 {
    #[inline(always)]
    fn from_array(lanes: [f64; LANES]) -> F64x4 {
        F64x4(lanes)
    }
    #[inline(always)]
    fn to_array(self) -> [f64; LANES] {
        self.0
    }
    #[inline(always)]
    fn to_f32_array(self) -> [f32; LANES] {
        let a = self.0;
        [a[0] as f32, a[1] as f32, a[2] as f32, a[3] as f32]
    }
}

/// Eight `f32` lanes with element-wise `+ − ×`: each operator is a lane
/// loop over the array, which LLVM turns into `vaddps`/`vmulps` where the
/// target has them and into scalar code elsewhere, with the same bits
/// either way (plain IEEE-754 per lane, no contraction, no reassociation).
/// Every operation is `#[inline(always)]`, so that it is compiled inside
/// the kernel body that blends, with that body's target features.
#[derive(Clone, Copy)]
pub(crate) struct F32x8([f32; 8]);

impl F32x8 {
    /// Number of lanes.
    pub const LANES: usize = 8;

    /// All lanes set to `v`.
    #[inline(always)]
    pub fn splat(v: f32) -> F32x8 {
        F32x8([v; 8])
    }

    /// Lanes from an array.
    #[inline(always)]
    pub fn from_array(a: [f32; 8]) -> F32x8 {
        F32x8(a)
    }

    /// Horizontal sum over the fixed pairwise tree
    /// `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))` — the reduction order every
    /// caller (wide or scalar reference) must share for bit-identity.
    #[inline(always)]
    pub fn horizontal_sum(self) -> f32 {
        let l = self.0;
        ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]))
    }
}

macro_rules! lanewise_f32 {
    ($($op:ident $method:ident $sign:tt),*) => {$(
        impl $op for F32x8 {
            type Output = F32x8;
            #[inline(always)]
            fn $method(self, rhs: F32x8) -> F32x8 {
                let mut out = [0f32; 8];
                for (l, o) in out.iter_mut().enumerate() {
                    *o = self.0[l] $sign rhs.0[l];
                }
                F32x8(out)
            }
        }
    )*};
}
lanewise_f32!(Add add +, Sub sub -, Mul mul *);

/// A kernel written over the lane type: [`widest`] picks the `W` it is
/// called with. Implementations mark `call` `#[inline(always)]`, so that
/// the body is compiled with the instructions of the caller that picked.
pub(crate) trait WideFn {
    type Output;
    fn call<W: Wide>(self) -> Self::Output;
}

/// `kernel` over the widest lanes the host has: 256-bit ones when the
/// running x86-64 CPU reports `avx2` (asked once per call), the portable
/// [`F64x4`] otherwise and on every other architecture. Where the CPU also
/// reports `avx512f` and `avx512vl`, the same 256-bit body is compiled
/// with them enabled, which gives it 32 vector registers instead of 16 and
/// adds no lane type and no operation. The answer picks the instructions,
/// never a bit of the result (module docs).
pub(crate) fn widest<F: WideFn>(kernel: F) -> F::Output {
    #[cfg(target_arch = "x86_64")]
    let kernel = match avx2::Entry::Avx512vl.run(kernel).or_else(|k| avx2::Entry::Avx2.run(k)) {
        Ok(out) => return out,
        Err(kernel) => kernel,
    };
    kernel.call::<F64x4>()
}

/// `kernel` on every lane path this host can run, by name: the portable
/// [`F64x4`], then each x86-64 entry whose features the CPU reports — the
/// one [`widest`] picks and the one it passes over — so that a host with
/// AVX-512 still runs the body that AVX2-only CPUs take. `kernel` makes a
/// fresh kernel for each path.
#[cfg(test)]
pub(crate) fn every_path<F: WideFn>(kernel: impl Fn() -> F) -> Vec<(&'static str, F::Output)> {
    let mut seen = vec![("portable", kernel().call::<F64x4>())];
    #[cfg(target_arch = "x86_64")]
    for (path, entry) in [("avx2", avx2::Entry::Avx2), ("avx512vl", avx2::Entry::Avx512vl)] {
        if let Ok(out) = entry.run(kernel()) {
            seen.push((path, out));
        }
    }
    seen
}

/// The 256-bit [`Wide`] and the door to it — the only architecture-specific
/// item; without it every target runs [`F64x4`].
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{Lane, Wide, WideFn, LANES};
    use std::arch::x86_64::*;
    use std::ops::{Add, Div, Mul, Sub};

    /// One `ymm` register of four `f64` lanes. Private to this module, so
    /// the only code that can name it is [`call`] and [`call_avx512vl`]:
    /// its methods run under one of them or not at all.
    #[derive(Clone, Copy)]
    struct Avx(__m256d);

    /// Rust refuses `#[target_feature]` on a safe trait method, so the
    /// lane operations below cannot carry the attribute that would make
    /// their intrinsics safe to call; each forwards through here instead.
    /// What they need is the CPU feature: `Avx` is private to this module,
    /// [`call`] and [`call_avx512vl`] are its only users, and both are
    /// compiled with `avx2` — which implies `avx` — so reaching either at
    /// all was the caller's promise that the CPU has the feature.
    macro_rules! avx {
        ($intrinsic:expr) => {
            // SAFETY: AVX/SSE2 intrinsics under `call` or `call_avx512vl`,
            // which have the CPU feature (above). All work on registers but
            // `_mm_loadu_ps` / `_mm_storeu_ps`, unaligned, which get the
            // pointer of a slice or an array of `LANES` cells: sixteen
            // bytes valid to read and to write.
            unsafe { $intrinsic }
        };
    }

    macro_rules! forward {
        ($($op:ident $method:ident $intrinsic:ident),*) => {$(
            impl $op for Avx {
                type Output = Avx;
                #[inline(always)]
                fn $method(self, rhs: Avx) -> Avx {
                    Avx(avx!($intrinsic(self.0, rhs.0)))
                }
            }
        )*};
    }
    forward!(
        Add add _mm256_add_pd,
        Sub sub _mm256_sub_pd,
        Mul mul _mm256_mul_pd,
        Div div _mm256_div_pd
    );

    impl Lane for Avx {
        /// All ones in the lanes that hold, all zeros in the others.
        type Mask = __m256d;

        #[inline(always)]
        fn splat(v: f64) -> Avx {
            Avx(avx!(_mm256_set1_pd(v)))
        }
        #[inline(always)]
        fn select_lt(self, rhs: Avx, lt: Avx, ge: Avx) -> Avx {
            // Ordered, quiet `<`: false on a NaN, like the scalar operator.
            Avx(avx!(_mm256_blendv_pd(ge.0, lt.0, _mm256_cmp_pd::<_CMP_LT_OQ>(self.0, rhs.0))))
        }
        #[inline(always)]
        fn not_gt(self, rhs: Avx) -> __m256d {
            // Unordered, quiet not-`>`: true on a NaN, like `!(a > b)`.
            avx!(_mm256_cmp_pd::<_CMP_NGT_UQ>(self.0, rhs.0))
        }
        #[inline(always)]
        fn trunc(self) -> Avx {
            // Toward zero, exact, no exception flags: `f64::trunc`.
            const TOWARD_ZERO: i32 = _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC;
            Avx(avx!(_mm256_round_pd::<TOWARD_ZERO>(self.0)))
        }
        #[inline(always)]
        fn count(mask: __m256d) -> u32 {
            avx!(_mm256_movemask_pd(mask)).count_ones()
        }
        #[inline(always)]
        fn add_narrowed(self, keep: __m256d, cells: &mut [f32], at: usize) {
            let cells = &mut cells[at..at + LANES];
            avx!({
                // `cvtpd_ps` rounds as `as f32` does, to nearest even.
                let old = _mm_loadu_ps(cells.as_ptr());
                let sum = _mm_add_ps(old, _mm256_cvtpd_ps(self.0));
                // The low half of each 64-bit mask lane: lanes 0, 2 of the
                // low pair, then of the high pair.
                let keep = _mm256_castpd_ps(keep);
                let keep = _mm_shuffle_ps::<0b10_00_10_00>(
                    _mm256_castps256_ps128(keep),
                    _mm256_extractf128_ps::<1>(keep),
                );
                _mm_storeu_ps(cells.as_mut_ptr(), _mm_blendv_ps(old, sum, keep));
            })
        }
    }

    impl Wide for Avx {
        #[inline(always)]
        fn from_array(a: [f64; LANES]) -> Avx {
            // Lane 0 is the last argument; one unaligned 256-bit load.
            Avx(avx!(_mm256_set_pd(a[3], a[2], a[1], a[0])))
        }
        #[inline(always)]
        fn to_array(self) -> [f64; LANES] {
            avx!({
                let (lo, hi) = (_mm256_castpd256_pd128(self.0), _mm256_extractf128_pd::<1>(self.0));
                [
                    _mm_cvtsd_f64(lo),
                    _mm_cvtsd_f64(_mm_unpackhi_pd(lo, lo)),
                    _mm_cvtsd_f64(hi),
                    _mm_cvtsd_f64(_mm_unpackhi_pd(hi, hi)),
                ]
            })
        }
        #[inline(always)]
        fn to_f32_array(self) -> [f32; LANES] {
            let mut lanes = [0f32; LANES];
            // `cvtpd_ps` rounds as `as f32` does, to nearest even.
            avx!(_mm_storeu_ps(lanes.as_mut_ptr(), _mm256_cvtpd_ps(self.0)));
            lanes
        }
    }

    /// A door to [`Avx`]: the CPU features its body is compiled with.
    #[derive(Clone, Copy)]
    pub(super) enum Entry {
        /// `avx2`, through [`call`].
        Avx2,
        /// `avx2`, `avx512f` and `avx512vl`, through [`call_avx512vl`].
        Avx512vl,
    }

    impl Entry {
        /// `kernel` over [`Avx`] through this entry, or `kernel` back when
        /// the running CPU lacks one of the entry's features.
        pub(super) fn run<F: WideFn>(self, kernel: F) -> Result<F::Output, F> {
            let avx2 = std::arch::is_x86_feature_detected!("avx2");
            let has = match self {
                Entry::Avx2 => avx2,
                Entry::Avx512vl => {
                    avx2 && std::arch::is_x86_feature_detected!("avx512f")
                        && std::arch::is_x86_feature_detected!("avx512vl")
                }
            };
            if !has {
                return Err(kernel);
            }
            // SAFETY: the running CPU was just found to have every feature
            // the entry's function is compiled with.
            Ok(unsafe {
                match self {
                    Entry::Avx2 => call(kernel),
                    Entry::Avx512vl => call_avx512vl(kernel),
                }
            })
        }
    }

    /// `kernel` over [`Avx`]: its `#[inline(always)]` body is built here
    /// with 256-bit vectors enabled.
    #[target_feature(enable = "avx2")]
    fn call<F: WideFn>(kernel: F) -> F::Output {
        kernel.call::<Avx>()
    }

    /// [`call`]'s body, compiled with AVX-512's 32 vector registers and
    /// masks as well: the same lanes and the same IEEE operations, only
    /// fewer values spilled to the stack. Nothing enables `fma` contraction
    /// (Rust never contracts `a * b + c`), so every bit is [`call`]'s.
    #[target_feature(enable = "avx2,avx512f,avx512vl")]
    fn call_avx512vl<F: WideFn>(kernel: F) -> F::Output {
        kernel.call::<Avx>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two values of four lanes and four cells, to put through each lane type.
    struct Probe {
        a: [f64; LANES],
        b: [f64; LANES],
        cells: [f32; LANES],
    }

    /// (select_lt(a, b, a, b), count(!(a > b)), cells after the masked add
    /// of `a`, trunc(a), a narrowed to `f32`).
    type Seen = ([u64; LANES], u32, [u32; LANES], [u64; LANES], [u32; LANES]);

    impl WideFn for Probe {
        type Output = Seen;
        #[inline(always)]
        fn call<W: Wide>(mut self) -> Seen {
            let (a, b) = (W::from_array(self.a), W::from_array(self.b));
            let keep = a.not_gt(b);
            a.add_narrowed(keep, &mut self.cells, 0);
            (
                a.select_lt(b, a, b).to_array().map(f64::to_bits),
                W::count(keep),
                self.cells.map(f32::to_bits),
                a.trunc().to_array().map(f64::to_bits),
                a.to_f32_array().map(f32::to_bits),
            )
        }
    }

    impl Probe {
        /// The same through `f64`, lane by lane.
        fn scalar(mut self) -> Seen {
            let mut kept = 0;
            let (mut min, mut trunc, mut narrow) = ([0; LANES], [0; LANES], [0; LANES]);
            for l in 0..LANES {
                let (a, b) = (self.a[l], self.b[l]);
                let keep = a.not_gt(b);
                kept += f64::count(keep);
                a.add_narrowed(keep, &mut self.cells, l);
                min[l] = a.select_lt(b, a, b).to_bits();
                trunc[l] = Lane::trunc(a).to_bits();
                narrow[l] = (a as f32).to_bits();
            }
            (min, kept, self.cells.map(f32::to_bits), trunc, narrow)
        }
    }

    #[test]
    fn f32x8_elementwise_ops() {
        let a = F32x8::from_array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        let b = F32x8::splat(2.0);
        assert_eq!((a + b).0, [3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]);
        assert_eq!((a - b).0, [-1.0, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!((a * b).0, [2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0]);
    }

    #[test]
    fn f32x8_horizontal_sum_matches_tree_order() {
        let v = [0.1f32, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8];
        let want = ((v[0] + v[1]) + (v[2] + v[3])) + ((v[4] + v[5]) + (v[6] + v[7]));
        assert_eq!(F32x8::from_array(v).horizontal_sum().to_bits(), want.to_bits());
    }

    #[test]
    fn f32x8_splat() {
        assert_eq!(F32x8::splat(0.0).horizontal_sum(), 0.0);
        assert_eq!(F32x8::splat(1.5).horizontal_sum(), 12.0);
    }

    #[test]
    fn compares_masks_and_narrowing_agree_on_every_lane_type() {
        let nan = f64::NAN;
        let inf = f64::INFINITY;
        // Halfway between two `f32`s, beyond `f32::MAX`, subnormal in `f32`:
        // where a narrowing that rounded differently would show. Halves,
        // a negative fraction (truncated to `-0.0`), the last fractional
        // `f64` below 2⁵² and an integral -1e300: where truncation would.
        let values = [
            0.0,
            -0.0,
            1.0,
            -1.5,
            nan,
            inf,
            -inf,
            1.0 + f64::from(f32::EPSILON) / 2.0,
            1.0 + f64::from(f32::EPSILON) * 1.5,
            3.5e38,
            -3.5e38,
            1.0e-40,
            f64::MIN_POSITIVE,
            0.1,
            2.5,
            -2.5,
            -0.25,
            4503599627370495.5,
            -1.0e300,
        ];
        let n = values.len();
        for shift in 0..n {
            for cell_shift in [0, 3, 7] {
                let pick = |k: usize| values[k % n];
                let a = [pick(shift), pick(shift + 1), pick(shift + 2), pick(shift + 3)];
                let b = [pick(shift + 5), pick(shift), pick(shift + 9), pick(shift + 2)];
                let cells = [0, 1, 2, 3].map(|l| pick(cell_shift + shift + l) as f32);
                let probe = || Probe { a, b, cells };
                let want = probe().scalar();
                for (path, seen) in every_path(probe) {
                    assert_eq!(seen, want, "{path} lanes: {a:?} vs {b:?}");
                }
                assert_eq!(widest(probe()), want, "detected lanes: {a:?} vs {b:?}");
            }
        }
        // A lane that is not kept leaves its cell's bits alone.
        let cells = [-0.0f32; LANES];
        let probe = || Probe { a: [2.0, 0.0, 2.0, 0.0], b: [1.0; LANES], cells };
        for (path, (_, kept, after, _, _)) in every_path(probe) {
            assert_eq!(kept, 2, "{path} lanes");
            assert_eq!(after, [(-0.0f32).to_bits(), 0, (-0.0f32).to_bits(), 0], "{path} lanes");
        }
    }

    /// The portable lanes run everywhere, and an x86-64 host that has a
    /// feature runs the entry compiled with it: a host with AVX-512 covers
    /// the AVX2-only path too.
    #[test]
    fn every_path_offers_each_entry_the_cpu_has() {
        let probe = || Probe { a: [1.0; LANES], b: [2.0; LANES], cells: [0.0; LANES] };
        let paths: Vec<&str> = every_path(probe).into_iter().map(|(path, _)| path).collect();
        let mut want = vec!["portable"];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                want.push("avx2");
            }
            if std::arch::is_x86_feature_detected!("avx512vl") {
                want.push("avx512vl");
            }
        }
        assert_eq!(paths, want);
    }
}
