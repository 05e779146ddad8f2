//! The per-layer time ledger: where one workload's CPU time went.
//!
//! The total is the CPU time the process spent inside one call into the
//! program (wall time × busy cores). Each row is one layer's busy time,
//! measured apart from that total: the CPU time of the layer's public
//! function called on its own over the same inputs, or, where a layer
//! cannot be called on its own, a busy counter the program exports. The
//! `unaccounted` remainder is what the rows leave over: the cost of
//! running the layers together (threads, channels, reordering) plus any
//! layer without a row. The ledger conserves when its parts fit in the
//! whole: every row is measured and the rows together exceed the total
//! by no more than [`OVERCOVER_TOLERANCE`].

use etw_telemetry::Snapshot;

/// A remainder beyond this share of the total is flagged by name.
pub const FLAG_SHARE: f64 = 0.25;

/// How far the rows may exceed the total, as a share of it, before the
/// ledger fails. The rows and the total come from separate runs, so
/// they carry separate noise; 10% covers it.
pub const OVERCOVER_TOLERANCE: f64 = 0.10;

/// One layer's busy time.
#[derive(Clone, Debug)]
pub struct Row {
    /// Layer name (the module names of BENCHMARK.md).
    pub layer: &'static str,
    /// Busy time in ns.
    pub busy_ns: u64,
    /// Where the number came from.
    pub source: &'static str,
}

impl Row {
    /// A row for a layer function the benchmark called on its own.
    pub fn isolated(layer: &'static str, cpu_ns: u64, function: &'static str) -> Row {
        Row {
            layer,
            busy_ns: cpu_ns,
            source: function,
        }
    }

    /// A row from the program's `stage.<name>.busy_ns_total` counter.
    pub fn counter(snap: &Snapshot, layer: &'static str, counter: &'static str) -> Row {
        Row {
            layer,
            busy_ns: snap.counter(counter),
            source: counter,
        }
    }
}

/// A workload's ledger.
#[derive(Clone, Debug)]
pub struct Ledger {
    /// The workload it describes.
    pub workload: &'static str,
    /// Wall time of the call, in ns.
    pub wall_ns: u64,
    /// CPU time of the call (all threads), in ns.
    pub total_ns: u64,
    /// Per-layer busy time.
    pub rows: Vec<Row>,
}

impl Ledger {
    /// `total - sum(rows)`; negative when the rows over-cover the total.
    pub fn unaccounted_ns(&self) -> i64 {
        self.total_ns as i64 - self.rows_ns() as i64
    }

    fn rows_ns(&self) -> u64 {
        self.rows.iter().map(|r| r.busy_ns).sum()
    }

    /// Sum of layer busy time over the total.
    pub fn accounted_share(&self) -> f64 {
        self.rows_ns() as f64 / self.total_ns.max(1) as f64
    }

    /// CPU time over wall time: how many cores were busy on average.
    pub fn busy_cores(&self) -> f64 {
        self.total_ns as f64 / self.wall_ns.max(1) as f64
    }

    /// Every way the ledger fails to conserve (empty when it does).
    pub fn conservation_failures(&self) -> Vec<String> {
        let mut out = Vec::new();
        if self.total_ns == 0 || self.wall_ns == 0 {
            out.push(format!(
                "{} ledger: empty total (wall {} ns, cpu {} ns)",
                self.workload, self.wall_ns, self.total_ns
            ));
        }
        if self.rows.is_empty() {
            out.push(format!("{} ledger: no layer rows", self.workload));
        }
        for r in self.rows.iter().filter(|r| r.busy_ns == 0) {
            out.push(format!(
                "{} ledger: layer {} has no busy time ({})",
                self.workload, r.layer, r.source
            ));
        }
        let limit = self.total_ns as f64 * (1.0 + OVERCOVER_TOLERANCE);
        if self.rows_ns() as f64 > limit {
            out.push(format!(
                "{} ledger does not conserve: layers {} ns exceed cpu total {} ns by more than {:.0}%",
                self.workload,
                self.rows_ns(),
                self.total_ns,
                100.0 * OVERCOVER_TOLERANCE
            ));
        }
        out
    }

    /// The ledger as report lines, largest layer first, with the
    /// remainder flagged by name when it exceeds [`FLAG_SHARE`].
    pub fn render(&self) -> Vec<String> {
        let total = self.total_ns.max(1) as f64;
        let mut rows = self.rows.clone();
        rows.sort_by_key(|r| std::cmp::Reverse(r.busy_ns));
        let mut out = vec![format!(
            "ledger {}: wall {:.3} s, cpu {:.3} s ({:.2} busy cores), accounted {:.1}%",
            self.workload,
            self.wall_ns as f64 / 1e9,
            self.total_ns as f64 / 1e9,
            self.busy_cores(),
            100.0 * self.accounted_share()
        )];
        for r in &rows {
            out.push(format!(
                "ledger {}:   {:<12} {:>10.3} ms  {:>6.1}%  ({})",
                self.workload,
                r.layer,
                r.busy_ns as f64 / 1e6,
                100.0 * r.busy_ns as f64 / total,
                r.source
            ));
        }
        let rem = self.unaccounted_ns() as f64 / total;
        out.push(format!(
            "ledger {}:   {:<12} {:>10.3} ms  {:>6.1}%",
            self.workload,
            "unaccounted",
            self.unaccounted_ns() as f64 / 1e6,
            100.0 * rem
        ));
        if rem > FLAG_SHARE {
            out.push(format!(
                "ledger {}: FLAG unaccounted: {:.1}% of cpu time is in no layer row",
                self.workload,
                100.0 * rem
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<Row> {
        vec![
            Row::isolated("decode", 600, "test"),
            Row::isolated("write", 100, "test"),
        ]
    }

    fn ledger(total_ns: u64) -> Ledger {
        Ledger {
            workload: "t",
            wall_ns: 500,
            total_ns,
            rows: rows(),
        }
    }

    #[test]
    fn rows_within_the_total_conserve() {
        let l = ledger(1000);
        assert_eq!(l.unaccounted_ns(), 300);
        assert!(l.conservation_failures().is_empty());
        assert!((l.accounted_share() - 0.7).abs() < 1e-12);
        assert!((l.busy_cores() - 2.0).abs() < 1e-12);
        // Within the tolerance: 700 ns of rows in 640 ns of cpu time.
        assert!(ledger(640).conservation_failures().is_empty());
    }

    #[test]
    fn rows_beyond_the_total_do_not_conserve() {
        let failures = ledger(600).conservation_failures();
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("does not conserve"));
    }

    #[test]
    fn an_empty_row_fails() {
        let mut l = ledger(1000);
        l.rows[1].busy_ns = 0;
        assert_eq!(l.conservation_failures().len(), 1);
    }

    #[test]
    fn large_remainder_is_flagged_by_name() {
        assert!(ledger(4000)
            .render()
            .iter()
            .any(|s| s.contains("FLAG unaccounted")));
        assert!(!ledger(800).render().iter().any(|s| s.contains("FLAG")));
    }
}
