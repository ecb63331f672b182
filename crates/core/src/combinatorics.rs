//! Small combinatorial helpers for the coalition checkers.

/// Iterates over all `k`-element subsets of `0..n` in lexicographic order.
pub(crate) fn combinations(n: usize, k: usize) -> Combinations {
    Combinations {
        n,
        k,
        state: None,
        done: k > n,
    }
}

/// Iterator type of [`combinations`].
#[derive(Debug, Clone)]
pub(crate) struct Combinations {
    n: usize,
    k: usize,
    state: Option<Vec<u32>>,
    done: bool,
}

impl Iterator for Combinations {
    type Item = Vec<u32>;

    fn next(&mut self) -> Option<Vec<u32>> {
        if self.done {
            return None;
        }
        match &mut self.state {
            None => {
                let first: Vec<u32> = (0..self.k as u32).collect();
                self.state = Some(first.clone());
                if self.k == 0 {
                    self.done = true;
                }
                Some(first)
            }
            Some(cur) => {
                // Find the rightmost index that can be incremented.
                let k = self.k;
                let n = self.n;
                let mut i = k;
                loop {
                    if i == 0 {
                        self.done = true;
                        return None;
                    }
                    i -= 1;
                    if cur[i] < (n - k + i) as u32 {
                        break;
                    }
                }
                cur[i] += 1;
                for j in i + 1..k {
                    cur[j] = cur[j - 1] + 1;
                }
                Some(cur.clone())
            }
        }
    }
}

/// Iterates over all subsets of `items` with size between `min_size` and
/// `max_size` (inclusive), materialized as vectors.
pub(crate) fn bounded_subsets<T: Copy>(
    items: &[T],
    min_size: usize,
    max_size: usize,
) -> impl Iterator<Item = Vec<T>> + '_ {
    let n = items.len();
    (min_size..=max_size.min(n)).flat_map(move |k| {
        combinations(n, k).map(move |idx| idx.iter().map(|&i| items[i as usize]).collect())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combination_counts() {
        assert_eq!(combinations(5, 0).count(), 1);
        assert_eq!(combinations(5, 2).count(), 10);
        assert_eq!(combinations(5, 5).count(), 1);
        assert_eq!(combinations(3, 4).count(), 0);
        assert_eq!(combinations(0, 0).count(), 1);
    }

    #[test]
    fn combinations_are_sorted_and_unique() {
        let pairs: Vec<Vec<u32>> = combinations(4, 2).collect();
        assert_eq!(pairs.len(), 6);
        assert_eq!(pairs[0], vec![0, 1]);
        assert_eq!(pairs[5], vec![2, 3]);
        let all: Vec<Vec<u32>> = combinations(6, 3).collect();
        assert_eq!(all.len(), 20);
        for c in &all {
            assert!(c.windows(2).all(|w| w[0] < w[1]));
        }
        let mut dedup = all.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len());
    }

    #[test]
    fn bounded_subsets_sizes() {
        let items = [10, 20, 30];
        let subs: Vec<Vec<i32>> = bounded_subsets(&items, 1, 2).collect();
        // C(3,1) + C(3,2) = 3 + 3
        assert_eq!(subs.len(), 6);
        assert!(subs.iter().all(|s| (1..=2).contains(&s.len())));
    }
}
