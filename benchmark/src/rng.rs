//! The benchmark's own input generator. Everything the program under test
//! receives is drawn from here; the seed itself never crosses into it.

/// SplitMix64: a full-period 64-bit generator, one multiply-xorshift
/// round per draw. Streams are split by seeding with a salted seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, salted so streams of one seed differ.
    pub fn new(seed: u64, salt: u64) -> Rng {
        let mut r = Rng(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    /// The next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2^-40 for
    /// every `n` the workloads use.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fills `dest` with generator output.
    pub fn fill(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let word = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }
}

/// A deck of the numbers `0..size`, dealt in seeded order and reshuffled
/// when it runs out. Drawing the op mix from a deck instead of rolling a
/// die per op gives every `size` consecutive ops exactly the declared
/// mix, so neither counts nor timings wander with the seed's luck.
#[derive(Debug, Clone)]
pub struct Deck {
    size: usize,
    cards: Vec<usize>,
}

impl Deck {
    /// An empty deck of `size` cards; the first draw shuffles it.
    pub fn new(size: usize) -> Deck {
        Deck {
            size,
            cards: Vec::new(),
        }
    }

    /// The next card.
    pub fn draw(&mut self, rng: &mut Rng) -> usize {
        if self.cards.is_empty() {
            self.cards = (0..self.size).collect();
            for i in (1..self.size).rev() {
                self.cards.swap(i, rng.below(i + 1));
            }
        }
        self.cards.pop().expect("just refilled")
    }
}

/// Zipf(α) over ranks `0..n` by inverse-CDF lookup.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Rank `r` is drawn with probability proportional to `1/(r+1)^alpha`.
    pub fn new(n: usize, alpha: f64) -> Zipf {
        let weights: Vec<f64> = (1..=n).map(|r| (r as f64).powf(-alpha)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    /// The rank a uniform `u` in `[0, 1)` maps to.
    pub fn sample(&self, u: f64) -> usize {
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_differ_per_salt() {
        let draw = |seed, salt| {
            let mut r = Rng::new(seed, salt);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, 1), draw(7, 1));
        assert_ne!(draw(7, 1), draw(7, 2));
        assert_ne!(draw(7, 1), draw(8, 1));
        let mut r = Rng::new(1, 1);
        assert!((0..1000).all(|_| r.below(13) < 13));
        assert!((0..1000).map(|_| r.unit()).all(|u| (0.0..1.0).contains(&u)));
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let z = Zipf::new(64, 0.99);
        assert_eq!(z.sample(0.0), 0);
        assert_eq!(z.sample(0.999_999_999), 63);
        let mut r = Rng::new(3, 3);
        let mut hits = [0usize; 64];
        for _ in 0..20_000 {
            hits[z.sample(r.unit())] += 1;
        }
        assert!(hits[0] > 3 * hits[7], "{} vs {}", hits[0], hits[7]);
        assert!(hits[63] > 0);
    }
}
