//! Seeded randomness for input generation: SplitMix64 plus a Zipf
//! sampler. Self-contained so that a stream depends on nothing but its
//! seed.

/// SplitMix64 (Steele, Lea & Flood 2014): tiny, fast, and a pure
/// function of its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated from other streams by `salt`.
    /// The salt is hashed first: salts that differ by a small amount must
    /// not start streams a few steps apart on the same sequence.
    pub fn new(seed: u64, salt: u64) -> Rng {
        let salt = Rng(salt).next_u64();
        let mut r = Rng(seed ^ salt);
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n ≥ 1`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo + 1) as u64) as i64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf(θ) over ranks `0..n`, rank 0 the most popular.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, theta: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n.max(1))
            .map(|k| {
                acc += 1.0 / (k as f64).powf(theta);
                acc
            })
            .collect();
        for v in &mut cdf {
            *v /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neighbouring_salts_give_unrelated_streams() {
        for seed in 0..64 {
            let a: Vec<u64> = {
                let mut r = Rng::new(seed, 16);
                (0..64).map(|_| r.next_u64()).collect()
            };
            let mut b = Rng::new(seed, 17);
            let b: Vec<u64> = (0..64).map(|_| b.next_u64()).collect();
            // No shifted copy of one stream appears in the other.
            for shift in 0..8 {
                assert_ne!(a[shift..shift + 32], b[..32], "seed {seed} shift {shift}");
                assert_ne!(b[shift..shift + 32], a[..32], "seed {seed} shift {shift}");
            }
        }
    }
}
