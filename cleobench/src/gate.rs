//! The correctness gate: every check the benchmark makes on the program's
//! outputs.  A failed check is recorded, reported on standard error, makes
//! the result's `correct` false and the exit code non-zero.

use cleo_core::serving::FrontDoorStats;

/// Failures printed and kept per run; later ones are only counted.
const KEPT: usize = 20;

/// Collected check failures of one run.
#[derive(Debug, Default)]
pub struct Gate {
    failures: Vec<String>,
    count: usize,
}

impl Gate {
    /// Record the outcome of one check.
    pub fn check(&mut self, outcome: Result<(), String>) {
        if let Err(e) = outcome {
            self.count += 1;
            if self.failures.len() < KEPT {
                eprintln!("correctness check failed: {e}");
                self.failures.push(e);
            }
        }
    }

    /// Whether every check passed.
    pub fn passed(&self) -> bool {
        self.count == 0
    }

    /// The first failures.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// Every failure, kept or not.
    pub fn count(&self) -> usize {
        self.count
    }
}

/// Zero-loss identity of one serve phase: every offered request is exactly
/// one of ok, shed, expired or errored, and every non-shed request came back.
pub fn zero_loss(
    phase: &str,
    stats: &FrontDoorStats,
    ok: u64,
    returned: usize,
) -> Result<(), String> {
    let offered = stats.offered();
    let accounted = ok + stats.shed + stats.expired + stats.errored;
    if offered != accounted {
        return Err(format!(
            "{phase}: offered {offered} != ok {ok} + shed {} + expired {} + errored {}",
            stats.shed, stats.expired, stats.errored
        ));
    }
    if returned as u64 != offered - stats.shed {
        return Err(format!(
            "{phase}: {returned} requests came back, {} were admitted",
            offered - stats.shed
        ));
    }
    Ok(())
}

/// Two `f64` sequences agree bit for bit.
pub fn bits_equal(what: &str, got: &[f64], want: &[f64]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "{what}: {} values, expected {}",
            got.len(),
            want.len()
        ));
    }
    match got
        .iter()
        .zip(want)
        .position(|(g, w)| g.to_bits() != w.to_bits())
    {
        Some(i) => Err(format!(
            "{what}: value {i} is {:e}, expected {:e}",
            got[i], want[i]
        )),
        None => Ok(()),
    }
}

/// Two counts agree.
pub fn count_equal(what: &str, got: u64, want: u64) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: {got}, expected {want}"))
    }
}

/// Two byte strings agree.
pub fn bytes_equal(what: &str, got: &[u8], want: &[u8]) -> Result<(), String> {
    if got == want {
        return Ok(());
    }
    let at = got
        .iter()
        .zip(want)
        .position(|(a, b)| a != b)
        .unwrap_or(got.len().min(want.len()));
    Err(format!(
        "{what}: {} bytes vs {} expected, first difference at byte {at}",
        got.len(),
        want.len()
    ))
}

/// A condition that must hold.
pub fn ensure(cond: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(what())
    }
}
