//! The service's node clocks, with the earliest one kept at hand.
//!
//! [`Clocks`] holds one value per slot (a node's free time, or a static
//! plan's load on a node) and a tournament tree over the slots keyed on
//! `(value, slot)`. The root names the slot with the least value, the
//! lowest slot among equal values, so the earliest-free node is read in
//! O(1) and moving one clock costs O(log n) instead of a scan of every
//! clock.

/// A leaf past the last slot.
const NONE: u32 = u32::MAX;

/// Values by slot and the tournament tree over them (DESIGN.md §13).
pub(crate) struct Clocks {
    /// The one array of values, by slot.
    values: Vec<f64>,
    /// `win[k]`: the winning slot of the subtree under match `k`. The root
    /// is match 1 and match `k` plays `2k` against `2k + 1`; slot `i` is
    /// leaf `width + i`, and the leaves past the last slot hold [`NONE`].
    win: Vec<u32>,
}

impl Clocks {
    /// Clocks over `values`, one slot each.
    pub fn new(values: Vec<f64>) -> Clocks {
        assert!(values.len() < NONE as usize, "slots are counted in u32");
        let mut clocks = Clocks { values, win: Vec::new() };
        clocks.rebuild();
        clocks
    }

    /// The values by slot.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The slot with the least value, and that value; on equal values the
    /// lower slot. `None` when there is no slot.
    pub fn earliest(&self) -> Option<(usize, f64)> {
        let w = self.win[1];
        (w != NONE).then(|| (w as usize, self.values[w as usize]))
    }

    /// Set slot `i` to `value`, replaying the matches on its leaf's path.
    pub fn set(&mut self, i: usize, value: f64) {
        self.values[i] = value;
        let mut k = (self.win.len() / 2 + i) / 2;
        while k > 0 {
            self.win[k] = self.play(self.win[2 * k], self.win[2 * k + 1]);
            k /= 2;
        }
    }

    /// Add a slot after the last one and rebuild the tree.
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
        assert!(self.values.len() < NONE as usize, "slots are counted in u32");
        self.rebuild();
    }

    fn rebuild(&mut self) {
        let width = self.values.len().next_power_of_two();
        self.win = vec![NONE; 2 * width];
        for (i, leaf) in self.win[width..][..self.values.len()].iter_mut().enumerate() {
            *leaf = i as u32;
        }
        for k in (1..width).rev() {
            self.win[k] = self.play(self.win[2 * k], self.win[2 * k + 1]);
        }
    }

    /// One match. Every slot under the left child is lower than every slot
    /// under the right one, and padding sits only on the right, so the
    /// left entrant wins unless the right one holds a smaller value. The
    /// values are finite or `+∞`, where `total_cmp` is numeric order.
    fn play(&self, left: u32, right: u32) -> u32 {
        if right != NONE
            && self.values[right as usize].total_cmp(&self.values[left as usize]).is_lt()
        {
            right
        } else {
            left
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsmath::RngStream;

    /// The scan the tree replaced: the first slot with the least value.
    fn scan(values: &[f64]) -> Option<(usize, f64)> {
        values.iter().copied().enumerate().min_by(|a, b| a.1.total_cmp(&b.1))
    }

    /// The drain's old question: the first node free before `until`.
    fn scan_before(values: &[f64], until: f64) -> Option<usize> {
        let free = values.iter().copied().enumerate().filter(|&(_, c)| c < until);
        free.min_by(|a, b| a.1.total_cmp(&b.1)).map(|(i, _)| i)
    }

    #[test]
    fn tree_agrees_with_the_linear_scan() {
        // Dispatches move one clock forward, leaves set it to +∞ and joins
        // add a slot. Ties copy the least clock or another slot's, or land
        // on a coarse grid, so equal clocks at the top are common.
        for fleet in [1usize, 2, 3, 33, 100] {
            let mut rng = RngStream::derive(2016, fleet as u64);
            let mut values: Vec<f64> = (0..fleet).map(|_| rng.uniform()).collect();
            let mut clocks = Clocks::new(values.clone());
            let mut ties = 0;
            for op in 0..6000 {
                let i = rng.index(values.len());
                let least = scan(&values).map_or(0.0, |(_, c)| c);
                let value = match rng.index(8) {
                    0 => Some(f64::INFINITY),
                    1 if values.len() < fleet + 40 => {
                        let t = rng.uniform_range(0.0, 4.0);
                        values.push(t);
                        clocks.push(t);
                        None
                    }
                    2 => Some(least),
                    3 => Some(values[rng.index(values.len())]),
                    4 => Some((rng.uniform_range(0.0, 4.0) * 4.0).floor() / 4.0),
                    _ if values[i].is_finite() => Some(values[i] + rng.uniform_range(0.0, 1.0)),
                    _ => Some(rng.uniform_range(0.0, 4.0)),
                };
                if let Some(value) = value {
                    values[i] = value;
                    clocks.set(i, value);
                }
                assert_eq!(clocks.values(), &values[..], "fleet {fleet}, op {op}");
                let (want, got) = (scan(&values), clocks.earliest());
                assert_eq!(got, want, "fleet {fleet}, op {op}");
                let until = rng.uniform_range(0.0, 5.0);
                let first = got.filter(|&(_, c)| c < until).map(|(i, _)| i);
                assert_eq!(first, scan_before(&values, until), "fleet {fleet}, op {op}");
                let least = want.map(|(_, c)| c);
                ties += usize::from(values.iter().filter(|&&c| Some(c) == least).count() > 1);
            }
            assert!(ties > 100, "fleet {fleet}: only {ties} operations left a tie at the top");
        }
    }

    #[test]
    fn empty_and_single_slot_trees() {
        let mut clocks = Clocks::new(Vec::new());
        assert_eq!(clocks.earliest(), None);
        clocks.push(3.0);
        assert_eq!(clocks.earliest(), Some((0, 3.0)));
        clocks.set(0, f64::INFINITY);
        assert_eq!(clocks.earliest(), Some((0, f64::INFINITY)));
        clocks.push(f64::INFINITY);
        assert_eq!(clocks.earliest(), Some((0, f64::INFINITY)), "equal +∞: the lower slot");
    }
}
