//! Round-robin arbitration, the primitive under the two-phase VC and
//! switch allocators of the baseline router (Table 4).

use serde::{Deserialize, Serialize};

/// A rotating-priority arbiter over `n` requesters.
///
/// After each grant the priority pointer moves past the winner, giving
/// strong fairness (every continuously-requesting input is served within
/// `n` grants).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoundRobin {
    next: usize,
    n: usize,
}

impl RoundRobin {
    /// An arbiter over `n` requesters.
    pub fn new(n: usize) -> Self {
        Self { next: 0, n }
    }

    /// Grants the requester closest at or after the priority pointer
    /// among `candidates` (distinct indices in `0..n`, in any order) and
    /// moves the pointer past it. Returns `None` — leaving the pointer
    /// where it was — when nothing requests, so skipping an arbiter with
    /// no requesters is exactly equivalent to consulting it.
    pub fn grant_among(&mut self, candidates: &[usize]) -> Option<usize> {
        // Distance from the pointer, wrapping without a division.
        let distance = |c: usize| {
            if c >= self.next {
                c - self.next
            } else {
                c + self.n - self.next
            }
        };
        let winner = candidates.iter().copied().min_by_key(|&c| distance(c))?;
        debug_assert!(winner < self.n, "requester {winner} out of range");
        self.next = if winner + 1 == self.n { 0 } else { winner + 1 };
        Some(winner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotates_fairly() {
        let mut rr = RoundRobin::new(3);
        let all = [0, 1, 2];
        assert_eq!(rr.grant_among(&all), Some(0));
        assert_eq!(rr.grant_among(&all), Some(1));
        assert_eq!(rr.grant_among(&all), Some(2));
        assert_eq!(rr.grant_among(&all), Some(0));
    }

    #[test]
    fn skips_idle_requesters() {
        let mut rr = RoundRobin::new(4);
        assert_eq!(rr.grant_among(&[2]), Some(2));
        // Pointer is now at 3, which is idle; the grant wraps to 0.
        assert_eq!(rr.grant_among(&[0, 2]), Some(0));
    }

    #[test]
    fn none_when_no_requests() {
        let mut rr = RoundRobin::new(2);
        assert_eq!(rr.grant_among(&[]), None);
        assert_eq!(RoundRobin::new(0).grant_among(&[]), None);
        // An empty request set leaves the pointer alone.
        rr.grant_among(&[0]);
        let before = rr.clone();
        assert_eq!(rr.grant_among(&[]), None);
        assert_eq!(rr, before);
    }

    #[test]
    fn matches_a_modulo_scan() {
        // The division-free distance picks what the textbook
        // `(next + off) % n` scan picks, for every pointer and request set.
        for n in 1..7usize {
            for mask in 0u32..(1 << n) {
                for next in 0..n {
                    let cands: Vec<usize> = (0..n).filter(|&i| mask & (1 << i) != 0).collect();
                    let want = (0..n)
                        .map(|off| (next + off) % n)
                        .find(|i| cands.contains(i));
                    let mut rr = RoundRobin { next, n };
                    assert_eq!(rr.grant_among(&cands), want, "n={n} next={next} {cands:?}");
                    let next_after = want.map_or(next, |w| (w + 1) % n);
                    assert_eq!(rr.next, next_after);
                }
            }
        }
    }

    #[test]
    fn grant_among_respects_pointer() {
        let mut rr = RoundRobin::new(5);
        assert_eq!(rr.grant_among(&[1, 3]), Some(1));
        // Pointer now at 2: 3 wins over 1.
        assert_eq!(rr.grant_among(&[1, 3]), Some(3));
        // Pointer now at 4: wraps to 1.
        assert_eq!(rr.grant_among(&[1, 3]), Some(1));
        assert_eq!(rr.grant_among(&[]), None);
    }

    #[test]
    fn starvation_freedom() {
        // Input 0 always requests; input 1 requests too. Both must be
        // served infinitely often.
        let mut rr = RoundRobin::new(2);
        let mut counts = [0u32; 2];
        for _ in 0..100 {
            let w = rr.grant_among(&[0, 1]).unwrap();
            counts[w] += 1;
        }
        assert_eq!(counts, [50, 50]);
    }
}
