//! Noise-injection plans (paper §5.3).
//!
//! The paper injects memory errors as random bit flips, citing field
//! studies: single-event upsets (SEU), multi-cell upsets (MCU, bursts of
//! adjacent bits — 4-bit bursts 10% and 8-bit bursts 1% of the time at
//! 22 nm per Ibe et al.), and strong within-machine error correlation
//! (Schroeder et al.). A [`NoisePlan`] describes one such injection
//! pattern; applying it to a [`NoisyTable`] corrupts the algorithm's
//! declared vulnerable state surface.

use hdhash_hashfn::SplitMix64;
use hdhash_table::NoisyTable;

/// A description of memory errors to inject into a table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NoisePlan {
    /// `count` independent single-bit flips at uniform positions (SEU).
    Seu {
        /// Number of bit flips.
        count: usize,
    },
    /// One burst of `length` adjacent flipped bits (MCU).
    Mcu {
        /// Burst length in bits.
        length: usize,
    },
    /// `events` upset events whose burst lengths follow the Ibe et al.
    /// 22 nm mixture: 1 bit (89%), 4 bits (10%), 8 bits (1%).
    IbeMixture {
        /// Number of upset events.
        events: usize,
    },
}

impl NoisePlan {
    /// Applies the plan to a table, drawing randomness from `seed`.
    /// Returns the total number of bits flipped.
    pub fn apply(self, table: &mut (dyn NoisyTable + Send), seed: u64) -> usize {
        let mut rng = SplitMix64::new(seed);
        match self {
            NoisePlan::Seu { count } => table.inject_bit_flips(count, rng.next_u64()),
            NoisePlan::Mcu { length } => table.inject_burst(length, rng.next_u64()),
            NoisePlan::IbeMixture { events } => {
                let mut flipped = 0;
                for _ in 0..events {
                    let x = rng.next_f64();
                    let length = if x < 0.01 {
                        8
                    } else if x < 0.11 {
                        4
                    } else {
                        1
                    };
                    flipped += table.inject_burst(length, rng.next_u64());
                }
                flipped
            }
        }
    }

    /// The nominal number of bits this plan flips (upper bound for
    /// mixtures).
    #[must_use]
    pub fn nominal_bits(self) -> usize {
        match self {
            NoisePlan::Seu { count } => count,
            NoisePlan::Mcu { length } => length,
            NoisePlan::IbeMixture { events } => events * 8,
        }
    }
}

impl core::fmt::Display for NoisePlan {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            NoisePlan::Seu { count } => write!(f, "seu({count})"),
            NoisePlan::Mcu { length } => write!(f, "mcu({length})"),
            NoisePlan::IbeMixture { events } => write!(f, "ibe({events})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::AlgorithmKind;
    use hdhash_table::ServerId;

    fn table_with_servers(kind: AlgorithmKind, n: u64) -> Box<dyn NoisyTable + Send> {
        let mut t = kind.build(n as usize);
        for i in 0..n {
            t.join(ServerId::new(i)).expect("fresh server");
        }
        t
    }

    #[test]
    fn seu_flips_exact_count() {
        let mut t = table_with_servers(AlgorithmKind::Consistent, 32);
        assert_eq!(NoisePlan::Seu { count: 7 }.apply(&mut *t, 1), 7);
    }

    #[test]
    fn mcu_burst_is_bounded() {
        let mut t = table_with_servers(AlgorithmKind::Rendezvous, 32);
        let flipped = NoisePlan::Mcu { length: 10 }.apply(&mut *t, 2);
        assert!((1..=10).contains(&flipped));
    }

    #[test]
    fn ibe_mixture_flips_reasonable_total() {
        let mut t = table_with_servers(AlgorithmKind::Hd, 32);
        let flipped = NoisePlan::IbeMixture { events: 100 }.apply(&mut *t, 3);
        // Expected ≈ 100 · (0.89·1 + 0.10·4 + 0.01·8) ≈ 137.
        assert!((100..=250).contains(&flipped), "flipped {flipped}");
        assert_eq!(NoisePlan::IbeMixture { events: 100 }.nominal_bits(), 800);
    }

    #[test]
    fn plans_are_deterministic() {
        let mut a = table_with_servers(AlgorithmKind::Consistent, 16);
        let mut b = table_with_servers(AlgorithmKind::Consistent, 16);
        NoisePlan::Seu { count: 5 }.apply(&mut *a, 9);
        NoisePlan::Seu { count: 5 }.apply(&mut *b, 9);
        for k in 0..500u64 {
            let key = hdhash_table::RequestKey::new(k);
            assert_eq!(a.lookup(key).expect("non-empty"), b.lookup(key).expect("non-empty"));
        }
    }

    #[test]
    fn display_and_nominal() {
        assert_eq!(NoisePlan::Seu { count: 3 }.to_string(), "seu(3)");
        assert_eq!(NoisePlan::Mcu { length: 10 }.to_string(), "mcu(10)");
        assert_eq!(NoisePlan::IbeMixture { events: 2 }.to_string(), "ibe(2)");
        assert_eq!(NoisePlan::Seu { count: 3 }.nominal_bits(), 3);
        assert_eq!(NoisePlan::Mcu { length: 10 }.nominal_bits(), 10);
    }
}
