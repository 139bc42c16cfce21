//! Power and energy model.
//!
//! Substitution for the paper's "energy consumption … reported by system
//! software": node power is `idle + busy_cores × core_watts × utilisation`,
//! where the utilisation weight comes from the running application's CPU
//! profile (compute-bound apps draw more than memory-bound ones). Energy is
//! the exact integral of that step function — the [`EnergyMeter`] is advanced
//! lazily at every occupancy change, so the integration is event-accurate.

use simkit::SimTime;

/// Per-node power coefficients (watts).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    /// Power drawn by a powered-on, idle node.
    pub idle_watts: f64,
    /// Additional power per fully-busy core.
    pub core_watts: f64,
}

impl PowerModel {
    /// MN4-like node: ~200 W idle, ~6 W per busy core (48 cores → ~490 W full).
    pub(crate) fn mn4_node() -> PowerModel {
        PowerModel {
            idle_watts: 200.0,
            core_watts: 6.0,
        }
    }

    /// Instantaneous power of one node given a *weighted* busy-core count
    /// (cores × per-job CPU-utilisation factor).
    pub fn node_power(&self, weighted_busy_cores: f64) -> f64 {
        self.idle_watts + self.core_watts * weighted_busy_cores.max(0.0)
    }
}

/// Integrates whole-machine energy over simulation time.
///
/// The caller reports every change of the machine-wide weighted busy-core
/// count; the meter integrates the resulting step function. All `nodes` are
/// assumed powered on for the entire measured interval (the paper's systems
/// do not power-gate idle nodes).
#[derive(Debug, Clone)]
pub struct EnergyMeter {
    model: PowerModel,
    nodes: u32,
    last_time: SimTime,
    weighted_busy: f64,
    joules: f64,
    started: bool,
}

impl EnergyMeter {
    pub fn new(model: PowerModel, nodes: u32) -> Self {
        EnergyMeter {
            model,
            nodes,
            last_time: SimTime::ZERO,
            weighted_busy: 0.0,
            joules: 0.0,
            started: false,
        }
    }

    /// Marks the measurement start (first job arrival).
    pub fn start(&mut self, now: SimTime) {
        self.last_time = now;
        self.started = true;
    }

    /// Advances the integral to `now` and records a new machine-wide weighted
    /// busy-core count effective from `now` on.
    pub fn update(&mut self, now: SimTime, weighted_busy_cores: f64) {
        if !self.started {
            self.start(now);
        }
        let dt = now.since(self.last_time) as f64;
        if dt > 0.0 {
            self.joules += self.instant_power() * dt;
            self.last_time = now;
        }
        self.weighted_busy = weighted_busy_cores.max(0.0);
    }

    /// Finalises the integral at `end` and returns total energy in joules.
    pub fn finish(&mut self, end: SimTime) -> f64 {
        self.update(end, self.weighted_busy);
        self.joules
    }

    /// Current machine power in watts.
    pub(crate) fn instant_power(&self) -> f64 {
        self.nodes as f64 * self.model.idle_watts + self.model.core_watts * self.weighted_busy
    }

    /// Energy accumulated so far, joules.
    pub fn joules(&self) -> f64 {
        self.joules
    }

    /// Convenience: kWh accumulated so far.
    pub fn kwh(&self) -> f64 {
        self.joules / 3.6e6
    }

    /// Mutable integration state, for persistence:
    /// `(last_time, weighted_busy, joules, started)`. The model and node
    /// count are configuration, not state — the restorer supplies them.
    pub fn snapshot(&self) -> (SimTime, f64, f64, bool) {
        (self.last_time, self.weighted_busy, self.joules, self.started)
    }

    /// Rebuilds a meter from configuration plus a
    /// [`snapshot`](EnergyMeter::snapshot).
    pub fn from_snapshot(
        model: PowerModel,
        nodes: u32,
        last_time: SimTime,
        weighted_busy: f64,
        joules: f64,
        started: bool,
    ) -> Self {
        EnergyMeter {
            model,
            nodes,
            last_time,
            weighted_busy,
            joules,
            started,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_machine_draws_idle_power() {
        let mut m = EnergyMeter::new(PowerModel::mn4_node(), 10);
        m.start(SimTime(0));
        let j = m.finish(SimTime(100));
        assert!((j - 10.0 * 200.0 * 100.0).abs() < 1e-9);
    }

    #[test]
    fn step_function_integrates_exactly() {
        let mut m = EnergyMeter::new(
            PowerModel {
                idle_watts: 100.0,
                core_watts: 10.0,
            },
            2,
        );
        m.start(SimTime(0));
        m.update(SimTime(10), 4.0); // 0–10 s idle: 2×100 × 10 = 2000 J
        m.update(SimTime(20), 0.0); // 10–20 s: (200 + 40) × 10 = 2400 J
        let j = m.finish(SimTime(30)); // 20–30 s idle again: 2000 J
        assert!((j - 6400.0).abs() < 1e-9);
    }

    #[test]
    fn update_without_start_self_starts() {
        let mut m = EnergyMeter::new(PowerModel::mn4_node(), 1);
        m.update(SimTime(50), 10.0);
        let j = m.finish(SimTime(60));
        // Only the 50–60 s interval is measured.
        assert!((j - (200.0 + 6.0 * 10.0) * 10.0).abs() < 1e-9);
    }

    #[test]
    fn utilisation_weighting_scales_power() {
        let pm = PowerModel {
            idle_watts: 50.0,
            core_watts: 2.0,
        };
        assert!((pm.node_power(8.0) - 66.0).abs() < 1e-12);
        assert!((pm.node_power(4.0) - 58.0).abs() < 1e-12); // same cores, half util weight
        assert_eq!(pm.node_power(-3.0), 50.0, "negative clamped");
    }

    #[test]
    fn kwh_conversion() {
        let mut m = EnergyMeter::new(
            PowerModel {
                idle_watts: 1000.0,
                core_watts: 0.0,
            },
            1,
        );
        m.start(SimTime(0));
        m.finish(SimTime(3600));
        assert!((m.kwh() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn repeated_updates_at_same_instant_keep_last() {
        let mut m = EnergyMeter::new(
            PowerModel {
                idle_watts: 0.0,
                core_watts: 1.0,
            },
            1,
        );
        m.start(SimTime(0));
        m.update(SimTime(0), 5.0);
        m.update(SimTime(0), 7.0);
        let j = m.finish(SimTime(10));
        assert!((j - 70.0).abs() < 1e-9);
    }
}
