//! Recursive-doubling allreduce.
//!
//! log₂(p) rounds; in round k each rank swaps its full partial vector with
//! partner `r XOR 2ᵏ` and folds the received vector in. Latency-optimal,
//! but the whole vector crosses the wire every round — the small-message
//! choice. Power-of-two worlds only.

use crate::schedcheck::SchedError;
use crate::schedule::{CommSchedule, Geometry, Region, ScheduleBuilder, ScheduleSink};

/// Defined for power-of-two world sizes.
pub fn supports(p: u32) -> bool {
    p.is_power_of_two()
}

/// Build the schedule for `p` ranks reducing `msg`-byte vectors.
///
/// Errors with [`SchedError::UnsupportedWorld`] if `!supports(p)` —
/// recursive doubling needs a power-of-two world size.
pub fn schedule(p: u32, msg: usize) -> Result<CommSchedule, SchedError> {
    if !supports(p) {
        return Err(SchedError::UnsupportedWorld { world: p });
    }
    Ok(ScheduleBuilder::build(|sb| emit(p, msg, sb)))
}

/// Emit the schedule into `sb`, one round across all ranks at a time.
/// `p` must satisfy [`supports`].
pub(crate) fn emit(p: u32, msg: usize, sb: &mut impl ScheduleSink) {
    sb.begin(Geometry::new(p, msg, msg, msg, msg).in_place());
    let mut k = 0u32;
    while (1u32 << k) < p {
        for r in 0..p {
            let partner = r ^ (1 << k);
            sb.step(r, |s| {
                if k > 0 {
                    s.combine(Region::aux(0, msg), Region::work(0, msg));
                }
                s.send(partner, Region::work(0, msg));
                s.recv(partner, Region::aux(0, msg));
            });
        }
        k += 1;
    }
    if p > 1 {
        for r in 0..p {
            sb.step(r, |s| s.combine(Region::aux(0, msg), Region::work(0, msg)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::check_allreduce;

    #[test]
    fn correct_for_powers_of_two() {
        for p in [1u32, 2, 4, 8, 16, 32] {
            check_allreduce(&schedule(p, 16).unwrap(), 16).unwrap();
        }
    }

    #[test]
    fn full_vector_every_round() {
        let p = 8u32;
        let msg = 1024;
        let sch = schedule(p, msg).unwrap();
        for r in 0..p {
            assert_eq!(sch.bytes_sent_by(r), 3 * msg); // log2(8) rounds
            assert_eq!(sch.messages_sent_by(r), 3);
        }
    }

    #[test]
    fn rejects_non_power_of_two() {
        assert!(matches!(
            schedule(6, 8),
            Err(SchedError::UnsupportedWorld { world: 6 })
        ));
    }
}
