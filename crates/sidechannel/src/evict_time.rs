//! Evict+Time: time the victim itself after evicting a chosen set. No
//! attack uses it; its tests pin the L1D timing model a victim sees.

use phantom_mem::VirtAddr;
use phantom_pipeline::Machine;

use crate::noise::NoiseModel;
use crate::prime_probe::{BuildError, PrimeProbe, ProbeError};

/// Evict+Time on the L1D: evict a set, run the victim (a closure over
/// the machine), and compare its cycle cost against a no-eviction
/// baseline. A slower run means the victim used the evicted set.
#[derive(Debug, Clone)]
pub struct EvictTime {
    eviction_set: PrimeProbe,
}

impl EvictTime {
    /// Build over an L1D set.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] if the eviction set cannot be mapped.
    pub fn new(
        machine: &mut Machine,
        attacker_base: VirtAddr,
        set: usize,
    ) -> Result<EvictTime, BuildError> {
        Ok(EvictTime {
            eviction_set: PrimeProbe::new_l1d(machine, attacker_base, set)?,
        })
    }

    /// Run `victim` twice — once with the set warm, once after eviction —
    /// and return the cycle slowdown (0 when the victim avoids the set).
    ///
    /// # Errors
    ///
    /// Returns a [`ProbeError`] if an eviction-set page was unmapped
    /// out from under the set (the trial is retryable).
    pub fn measure<F>(
        &self,
        machine: &mut Machine,
        noise: &mut NoiseModel,
        mut victim: F,
    ) -> Result<u64, ProbeError>
    where
        F: FnMut(&mut Machine) -> u64,
    {
        // Warm pass.
        victim(machine);
        let warm = noise.jitter(victim(machine));
        // Evict (prime floods the set with attacker lines) and re-time.
        self.eviction_set.prime(machine)?;
        let cold = noise.jitter(victim(machine));
        Ok(cold.saturating_sub(warm))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phantom_mem::{AccessKind, PageFlags, PrivilegeLevel};
    use phantom_pipeline::UarchProfile;

    #[test]
    fn victim_outside_the_set_shows_no_slowdown() {
        let mut m = Machine::new(UarchProfile::zen2(), 1 << 24);
        let victim_line = VirtAddr::new(0x6000_0000 + 20 * 64);
        m.map_range(victim_line, 64, PageFlags::USER_DATA).unwrap();
        let et = EvictTime::new(&mut m, VirtAddr::new(0x5100_0000), 21).unwrap();
        let mut noise = NoiseModel::quiet(0);
        let slowdown = et.measure(&mut m, &mut noise, |m| {
            let pa = m
                .page_table()
                .translate(victim_line, AccessKind::Read, PrivilegeLevel::User)
                .unwrap();
            let (_, lat) = m.caches_mut().access_data(pa.raw());
            lat
        });
        assert_eq!(slowdown.unwrap(), 0);
    }

    #[test]
    fn victim_inside_the_set_shows_slowdown() {
        let mut m = Machine::new(UarchProfile::zen2(), 1 << 24);
        let victim_line = VirtAddr::new(0x6000_0000 + 20 * 64);
        m.map_range(victim_line, 64, PageFlags::USER_DATA).unwrap();
        let et = EvictTime::new(&mut m, VirtAddr::new(0x5100_0000), 20).unwrap();
        let mut noise = NoiseModel::quiet(0);
        let slowdown = et.measure(&mut m, &mut noise, |m| {
            let pa = m
                .page_table()
                .translate(victim_line, AccessKind::Read, PrivilegeLevel::User)
                .unwrap();
            let (_, lat) = m.caches_mut().access_data(pa.raw());
            lat
        });
        assert!(slowdown.unwrap() > 0);
    }
}
