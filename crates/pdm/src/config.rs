//! PDM geometry: the (N, B, D, M) quadruple and its logarithms.

use crate::error::{PdmError, Result};

/// The Vitter–Shriver parallel-disk geometry.
///
/// `N` records are stored on `D` disks in blocks of `B` records, and the
/// machine has an internal memory of `M` records. All four are powers of
/// two, with `BD ≤ M < N` (paper, Section 1). The paper's lower-case
/// logarithms are exposed as [`Geometry::b`], [`Geometry::d`],
/// [`Geometry::m`], and [`Geometry::n`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Geometry {
    records: usize,
    block: usize,
    disks: usize,
    memory: usize,
}

impl Geometry {
    /// Validates and builds a geometry.
    ///
    /// Requirements (paper, Section 1): `N`, `B`, `D`, `M` are powers of
    /// two; `BD ≤ M` (one parallel I/O must fit in memory); `M < N`
    /// (otherwise everything fits in memory and the model is moot).
    pub fn new(records: usize, block: usize, disks: usize, memory: usize) -> Result<Self> {
        for (name, v) in [
            ("N (records)", records),
            ("B (block)", block),
            ("D (disks)", disks),
            ("M (memory)", memory),
        ] {
            if v == 0 || !v.is_power_of_two() {
                return Err(PdmError::Config(format!(
                    "{name} = {v} must be a nonzero power of two"
                )));
            }
        }
        let stripe = block.checked_mul(disks).ok_or_else(|| {
            PdmError::Config(format!(
                "BD = {block} x {disks} overflows the address space (usize)"
            ))
        })?;
        if stripe > memory {
            return Err(PdmError::Config(format!(
                "BD = {stripe} exceeds memory M = {memory}"
            )));
        }
        if memory >= records {
            return Err(PdmError::Config(format!(
                "M = {memory} must be smaller than N = {records}"
            )));
        }
        Ok(Geometry {
            records,
            block,
            disks,
            memory,
        })
    }

    /// `N`: total number of records.
    #[inline]
    pub fn records(&self) -> usize {
        self.records
    }

    /// `B`: records per block.
    #[inline]
    pub fn block(&self) -> usize {
        self.block
    }

    /// `D`: number of disks.
    #[inline]
    pub fn disks(&self) -> usize {
        self.disks
    }

    /// `M`: records of memory.
    #[inline]
    pub fn memory(&self) -> usize {
        self.memory
    }

    /// `n = lg N`.
    #[inline]
    pub fn n(&self) -> usize {
        self.records.trailing_zeros() as usize
    }

    /// `b = lg B`.
    #[inline]
    pub fn b(&self) -> usize {
        self.block.trailing_zeros() as usize
    }

    /// `d = lg D`.
    #[inline]
    pub fn d(&self) -> usize {
        self.disks.trailing_zeros() as usize
    }

    /// `m = lg M`.
    #[inline]
    pub fn m(&self) -> usize {
        self.memory.trailing_zeros() as usize
    }

    /// `s = n − (b + d)`: number of stripe bits.
    #[inline]
    pub fn s(&self) -> usize {
        self.n() - self.b() - self.d()
    }

    /// Number of stripes, `N / BD`.
    #[inline]
    pub fn stripes(&self) -> usize {
        self.records / (self.block * self.disks)
    }

    /// Number of blocks in the whole data set, `N / B`.
    #[inline]
    pub fn total_blocks(&self) -> usize {
        self.records / self.block
    }

    /// Number of memoryloads, `N / M`.
    #[inline]
    pub fn memoryloads(&self) -> usize {
        self.records / self.memory
    }

    /// Blocks per memoryload, `M / B`.
    #[inline]
    pub fn blocks_per_memoryload(&self) -> usize {
        self.memory / self.block
    }

    /// Stripes per memoryload, `M / BD`.
    #[inline]
    pub fn stripes_per_memoryload(&self) -> usize {
        self.memory / (self.block * self.disks)
    }

    /// `lg(M/B) = m − b`: the paper's ubiquitous denominator.
    #[inline]
    pub fn lg_mb(&self) -> usize {
        self.m() - self.b()
    }

    /// `lg(N/B) = n − b`.
    #[inline]
    pub fn lg_nb(&self) -> usize {
        self.n() - self.b()
    }

    /// Parallel I/Os in one *pass* (read and write every record once):
    /// `2N/BD` (paper, Table 1 caption).
    #[inline]
    pub fn ios_per_pass(&self) -> usize {
        2 * self.stripes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_figure1_geometry() {
        // Figure 1: N = 64, B = 2, D = 8 (choose M = 32 to satisfy BD≤M<N).
        let g = Geometry::new(64, 2, 8, 32).unwrap();
        assert_eq!(g.n(), 6);
        assert_eq!(g.b(), 1);
        assert_eq!(g.d(), 3);
        assert_eq!(g.m(), 5);
        assert_eq!(g.stripes(), 4);
        assert_eq!(g.total_blocks(), 32);
        assert_eq!(g.memoryloads(), 2);
        assert_eq!(g.ios_per_pass(), 8);
    }

    #[test]
    fn paper_figure2_geometry() {
        // Figure 2: n = 13, b = 3, d = 4, m = 8 → s = 6.
        let g = Geometry::new(1 << 13, 1 << 3, 1 << 4, 1 << 8).unwrap();
        assert_eq!(g.s(), 6);
        assert_eq!(g.lg_mb(), 5);
        assert_eq!(g.lg_nb(), 10);
        assert_eq!(g.stripes_per_memoryload(), 2);
        assert_eq!(g.blocks_per_memoryload(), 32);
    }

    #[test]
    fn rejects_non_powers_of_two() {
        assert!(Geometry::new(63, 2, 8, 32).is_err());
        assert!(Geometry::new(64, 3, 8, 32).is_err());
        assert!(Geometry::new(64, 2, 7, 32).is_err());
        assert!(Geometry::new(64, 2, 8, 31).is_err());
        assert!(Geometry::new(0, 2, 8, 32).is_err());
    }

    #[test]
    fn rejects_bd_exceeding_m() {
        // BD = 32 > M = 16.
        assert!(Geometry::new(64, 4, 8, 16).is_err());
    }

    #[test]
    fn rejects_overflowing_bd_with_a_typed_error() {
        // B·D = 2^64 wraps to 0 in release arithmetic, which used to
        // pass the BD ≤ M check and divide by zero in `stripes`.
        let err = Geometry::new(1 << 63, 1 << 32, 1 << 32, 1 << 62).unwrap_err();
        assert!(matches!(err, PdmError::Config(_)), "got {err:?}");
        assert!(err.to_string().contains("overflows"), "{err}");
    }

    #[test]
    fn rejects_memory_not_less_than_n() {
        assert!(Geometry::new(64, 2, 8, 64).is_err());
        assert!(Geometry::new(64, 2, 8, 128).is_err());
    }

    #[test]
    fn accepts_single_disk() {
        let g = Geometry::new(1 << 10, 1 << 2, 1, 1 << 5).unwrap();
        assert_eq!(g.d(), 0);
        assert_eq!(g.stripes(), 1 << 8);
    }

    #[test]
    fn bd_equals_m_allowed() {
        let g = Geometry::new(1 << 8, 1 << 2, 1 << 3, 1 << 5).unwrap();
        assert_eq!(g.memory(), g.block() * g.disks());
    }
}
