//! Behavioural models of the real applications (paper Table 2).
//!
//! Substitution for running the actual binaries on MareNostrum4 (see
//! DESIGN.md §4): each application is characterised by its CPU utilisation,
//! memory-bandwidth pressure and an Amdahl-style scalability curve. These
//! drive two things in the Workload-5 / Fig.-9 simulation:
//!
//! 1. the **co-scheduling rate model** — a job shrunk to `c` of `C` cores
//!    loses `speedup(c)/speedup(C)` (less than proportional, because real
//!    codes do not scale perfectly — the paper's second observed reason for
//!    malleable jobs improving runtime), minus a memory-contention term when
//!    sharing a node with a bandwidth-hungry neighbour;
//! 2. the **power weighting** — compute-bound jobs draw more dynamic power
//!    than memory-bound ones, which is how the energy savings of Fig. 9
//!    materialise.

/// Identifies one of the modelled applications.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AppId {
    /// PILS — synthetic compute-bound kernel (LeWI benchmark suite).
    Pils,
    /// STREAM — memory-bandwidth benchmark.
    Stream,
    /// CoreNeuron — HBP neural simulator, compute+memory intensive.
    CoreNeuron,
    /// NEST — HBP spiking-network simulator.
    Nest,
    /// Alya — multi-physics solver.
    Alya,
}

impl AppId {
    /// This application's position in [`APPS`], which lists them in
    /// declaration order: how checkpoint images and the wire number it.
    pub fn index(self) -> usize {
        self as usize
    }

    /// The application at position `i` in [`APPS`], if any.
    pub fn from_index(i: usize) -> Option<AppId> {
        APPS.get(i).map(|m| m.id)
    }
}

/// Static characterisation of an application.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppModel {
    pub id: AppId,
    pub name: &'static str,
    /// Fraction of the Workload-5 job mix (Table 2 "% workload").
    pub share: f64,
    /// CPU pipeline utilisation in `[0,1]` (power weight).
    pub cpu_util: f64,
    /// Memory-bandwidth pressure in `[0,1]` (contention driver).
    pub mem_util: f64,
    /// Amdahl serial fraction (scalability limit).
    pub serial_fraction: f64,
}

/// The five applications with Table 2's mix and qualitative profiles.
pub const APPS: [AppModel; 5] = [
    AppModel {
        id: AppId::Pils,
        name: "PILS",
        share: 0.305,
        cpu_util: 0.95,
        mem_util: 0.10,
        serial_fraction: 0.015,
    },
    AppModel {
        id: AppId::Stream,
        name: "STREAM",
        share: 0.308,
        cpu_util: 0.30,
        mem_util: 0.95,
        serial_fraction: 0.05,
    },
    AppModel {
        id: AppId::CoreNeuron,
        name: "CoreNeuron",
        share: 0.355,
        cpu_util: 0.90,
        mem_util: 0.60,
        serial_fraction: 0.03,
    },
    AppModel {
        id: AppId::Nest,
        name: "NEST",
        share: 0.026,
        cpu_util: 0.85,
        mem_util: 0.55,
        serial_fraction: 0.08,
    },
    AppModel {
        id: AppId::Alya,
        name: "Alya",
        share: 0.006,
        cpu_util: 0.90,
        mem_util: 0.60,
        serial_fraction: 0.04,
    },
];

/// Coupling strength of the memory-contention term (calibrated so a
/// STREAM/STREAM pairing loses ~25 % and a PILS/STREAM pairing ~3 %).
const MEM_CONTENTION_BETA: f64 = 0.30;

impl AppModel {
    pub fn by_id(id: AppId) -> &'static AppModel {
        APPS.iter().find(|a| a.id == id).expect("all ids present")
    }

    /// Amdahl speedup at `cores` (relative to 1 core).
    pub fn speedup(&self, cores: u32) -> f64 {
        let n = cores.max(1) as f64;
        1.0 / (self.serial_fraction + (1.0 - self.serial_fraction) / n)
    }

    /// Progress-rate factor of this job when it holds `cores` of the `full`
    /// cores it was sized for (1.0 = full speed).
    ///
    /// `speedup(c)/speedup(C)` — strictly greater than `c/C` for any
    /// imperfectly scaling code, which is why partitioning nodes between
    /// jobs can beat exclusive use.
    pub fn shrink_rate(&self, cores: u32, full: u32) -> f64 {
        if cores >= full {
            return 1.0;
        }
        (self.speedup(cores) / self.speedup(full)).clamp(0.0, 1.0)
    }

    /// Multiplicative slowdown from sharing a node with a neighbour whose
    /// memory-bandwidth pressure is `neighbour_mem`:
    /// `1/(1 + β·mem_self·mem_other)`, exactly 1 without one (`0.0`).
    pub fn contention(&self, neighbour_mem: f64) -> f64 {
        1.0 / (1.0 + MEM_CONTENTION_BETA * self.mem_util * neighbour_mem)
    }
}

/// Draws an application id according to the Table 2 shares.
pub(crate) fn sample_app(rng: &mut simkit::DetRng) -> AppId {
    let weights: Vec<f64> = APPS.iter().map(|a| a.share).collect();
    APPS[rng.weighted_index(&weights)].id
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::DetRng;

    #[test]
    fn shares_sum_to_one() {
        let total: f64 = APPS.iter().map(|a| a.share).sum();
        assert!((total - 1.0).abs() < 1e-9, "total {total}");
    }

    #[test]
    fn index_is_the_position_in_apps() {
        for (i, app) in APPS.iter().enumerate() {
            assert_eq!(app.id.index(), i, "{}", app.name);
            assert_eq!(AppId::from_index(i), Some(app.id));
        }
        assert_eq!(AppId::from_index(APPS.len()), None);
    }

    #[test]
    fn speedup_monotone_and_bounded() {
        for app in &APPS {
            let mut last = 0.0;
            for c in [1, 2, 4, 8, 16, 24, 48] {
                let s = app.speedup(c);
                assert!(s >= last, "{} monotone", app.name);
                assert!(s <= c as f64 + 1e-9, "{} superlinear?", app.name);
                last = s;
            }
            assert!((app.speedup(1) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn shrink_rate_beats_proportional() {
        // Half the cores must keep MORE than half the speed for every app —
        // the paper's "scalability problems" observation.
        for app in &APPS {
            let r = app.shrink_rate(24, 48);
            assert!(r > 0.5, "{}: rate {r}", app.name);
            assert!(r < 1.0);
        }
    }

    #[test]
    fn shrink_rate_full_allocation_is_one() {
        let app = AppModel::by_id(AppId::Pils);
        assert_eq!(app.shrink_rate(48, 48), 1.0);
        assert_eq!(app.shrink_rate(64, 48), 1.0);
    }

    #[test]
    fn contention_hits_memory_bound_pairs_hardest() {
        let stream = AppModel::by_id(AppId::Stream);
        let pils = AppModel::by_id(AppId::Pils);
        let ss = stream.contention(stream.mem_util);
        let sp = stream.contention(pils.mem_util);
        let pp = pils.contention(pils.mem_util);
        assert!(ss < sp, "stream+stream worse than stream+pils");
        assert!(pp > 0.99, "compute-bound pairs barely contend");
        assert!((0.7..0.85).contains(&ss), "stream pair factor {ss}");
    }

    #[test]
    fn sample_app_tracks_shares() {
        let mut rng = DetRng::new(17);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..20_000 {
            *counts.entry(sample_app(&mut rng)).or_insert(0usize) += 1;
        }
        let frac = |id: AppId| counts.get(&id).copied().unwrap_or(0) as f64 / 20_000.0;
        assert!((frac(AppId::Pils) - 0.305).abs() < 0.02);
        assert!((frac(AppId::Stream) - 0.308).abs() < 0.02);
        assert!((frac(AppId::CoreNeuron) - 0.355).abs() < 0.02);
        assert!(frac(AppId::Nest) < 0.06);
        assert!(frac(AppId::Alya) < 0.03);
    }
}
