//! Size of the dense reachable-set matrix of paper §3.2.2.
//!
//! DCatch answers HB queries with one bit-array reachable set per vertex,
//! `n²` bits for an `n`-record trace. That quadratic index is what runs
//! the paper's unselective traces out of memory (Table 8). This crate
//! answers queries with [`ChainClocks`](crate::ChainClocks) instead; only
//! the matrix's size formula remains, so Table 8 can still state the
//! paper's verdict.

/// The dense `n × n` reachable-set matrix, kept as a size formula only.
#[derive(Debug)]
pub enum BitMatrix {}

impl BitMatrix {
    /// Bytes an `n × n` matrix of 64-bit-word rows needs.
    pub fn estimated_bytes(n: usize) -> usize {
        let words = n.div_ceil(64);
        n.saturating_mul(words).saturating_mul(8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimated_bytes_is_quadratic() {
        assert_eq!(BitMatrix::estimated_bytes(64), 64 * 8);
        assert_eq!(BitMatrix::estimated_bytes(128), 128 * 2 * 8);
        // 200k records ≈ 10 GB — the Table 8 OOM regime
        assert!(BitMatrix::estimated_bytes(200_000) > 4 * 1024 * 1024 * 1024);
    }
}
