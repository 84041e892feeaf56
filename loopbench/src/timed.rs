//! [`Timed`]: a delegating [`ControlTransport`] that counts and times every
//! trait method of the transport it wraps, from outside the program.
//!
//! It changes no argument and no result, so a deployment driven through it
//! issues exactly the calls it would issue unwrapped (the benchmark's tests
//! check that both land identical FIBs). With span tracing on, each call
//! also records a `ctl.<method>` span, so the controller's own work shows as
//! the self time of the span around the whole operation.

use centralium_core::health::{HealthCheck, HealthReport};
use centralium_core::switch_agent::IssuedOp;
use centralium_core::transport::ControlTransport;
use centralium_core::Error;
use centralium_rpa::RpaDocument;
use centralium_simnet::{ConvergenceReport, SimTime};
use centralium_telemetry::span;
use centralium_telemetry::Telemetry;
use centralium_topology::{DeviceId, Topology};
use serde_json::Value;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::time::Instant;

/// Methods that advance simulated time: the convergence barriers. Every
/// other method is a plain request/response call.
pub const BARRIER_METHODS: [&str; 3] = [
    "run_until_quiescent",
    "run_until",
    "force_full_reconvergence",
];

/// Timing of one trait method.
#[derive(Debug, Clone, Default)]
pub struct MethodLog {
    /// Calls made.
    pub calls: u64,
    /// Calls that returned an error.
    pub errors: u64,
    /// Latency of each call, ns, in call order.
    pub samples_ns: Vec<u64>,
}

impl MethodLog {
    /// Sum of the call latencies, ns.
    pub fn total_ns(&self) -> u64 {
        self.samples_ns.iter().sum()
    }
}

/// Everything [`Timed`] observed, mergeable across connections.
#[derive(Debug, Clone, Default)]
pub struct CallLog {
    /// Per trait method, by name.
    pub methods: BTreeMap<&'static str, MethodLog>,
    /// Latency of the first `topology()` call of each wrapped transport —
    /// over TCP, the one call per connection that fetches the topology.
    pub first_topology_ns: Vec<u64>,
    /// Simulated events processed by the barrier calls that returned one.
    pub barrier_events: u64,
}

impl CallLog {
    /// Fold `other` into `self`.
    pub fn merge(&mut self, other: CallLog) {
        for (name, log) in other.methods {
            let mine = self.methods.entry(name).or_default();
            mine.calls += log.calls;
            mine.errors += log.errors;
            mine.samples_ns.extend(log.samples_ns);
        }
        self.first_topology_ns.extend(other.first_topology_ns);
        self.barrier_events += other.barrier_events;
    }

    /// Total calls over all methods.
    pub fn calls(&self) -> u64 {
        self.methods.values().map(|m| m.calls).sum()
    }

    /// Total failed calls over all methods.
    pub fn errors(&self) -> u64 {
        self.methods.values().map(|m| m.errors).sum()
    }

    /// Total time in transport calls, ns.
    pub fn total_ns(&self) -> u64 {
        self.methods.values().map(MethodLog::total_ns).sum()
    }

    /// Latencies of every non-barrier call, ns.
    pub fn non_barrier_samples(&self) -> Vec<u64> {
        self.methods
            .iter()
            .filter(|(name, _)| !BARRIER_METHODS.contains(name))
            .flat_map(|(_, m)| m.samples_ns.iter().copied())
            .collect()
    }
}

/// The delegating, timing decorator. See the module docs.
#[derive(Debug)]
pub struct Timed<T> {
    inner: T,
    log: CallLog,
    topology_seen: bool,
}

impl<T: ControlTransport> Timed<T> {
    /// Wrap `inner`.
    pub fn new(inner: T) -> Self {
        Timed {
            inner,
            log: CallLog::default(),
            topology_seen: false,
        }
    }

    /// Unwrap, yielding what was observed.
    pub fn into_log(self) -> CallLog {
        self.log
    }

    fn call<R>(
        &mut self,
        method: &'static str,
        span_name: &'static str,
        f: impl FnOnce(&mut T) -> Result<R, Error>,
    ) -> Result<R, Error> {
        let sp = span::span("bench", span_name);
        let started = Instant::now();
        let result = f(&mut self.inner);
        record(&mut self.log, method, started, result.is_err());
        drop(sp);
        result
    }
}

fn record(log: &mut CallLog, method: &'static str, started: Instant, failed: bool) {
    let ns = started.elapsed().as_nanos() as u64;
    let m = log.methods.entry(method).or_default();
    m.calls += 1;
    m.errors += u64::from(failed);
    m.samples_ns.push(ns);
}

impl<T: ControlTransport> ControlTransport for Timed<T> {
    fn describe(&self) -> &'static str {
        self.inner.describe()
    }

    fn telemetry(&self) -> Telemetry {
        self.inner.telemetry()
    }

    fn now(&mut self) -> Result<SimTime, Error> {
        self.call("now", "ctl.now", |t| t.now())
    }

    fn run_until_quiescent(&mut self) -> Result<ConvergenceReport, Error> {
        let report = self.call("run_until_quiescent", "ctl.run_until_quiescent", |t| {
            t.run_until_quiescent()
        })?;
        self.log.barrier_events += report.events_processed;
        Ok(report)
    }

    fn run_until(&mut self, deadline: SimTime) -> Result<u64, Error> {
        let events = self.call("run_until", "ctl.run_until", |t| t.run_until(deadline))?;
        self.log.barrier_events += events;
        Ok(events)
    }

    fn force_full_reconvergence(&mut self) -> Result<(), Error> {
        self.call(
            "force_full_reconvergence",
            "ctl.force_full_reconvergence",
            |t| t.force_full_reconvergence(),
        )
    }

    fn topology(&mut self) -> Result<Cow<'_, Topology>, Error> {
        let Timed {
            inner,
            log,
            topology_seen,
        } = self;
        let sp = span::span("bench", "ctl.topology");
        let started = Instant::now();
        let result = inner.topology();
        if !*topology_seen {
            log.first_topology_ns
                .push(started.elapsed().as_nanos() as u64);
            *topology_seen = true;
        }
        record(log, "topology", started, result.is_err());
        drop(sp);
        result
    }

    fn set_intended(&mut self, device: DeviceId, doc: &RpaDocument) -> Result<(), Error> {
        self.call("set_intended", "ctl.set_intended", |t| {
            t.set_intended(device, doc)
        })
    }

    fn seed_intended(&mut self, path: &str, value: Value) -> Result<(), Error> {
        self.call("seed_intended", "ctl.seed_intended", |t| {
            t.seed_intended(path, value)
        })
    }

    fn clear_intended(&mut self, device: DeviceId, name: &str) -> Result<(), Error> {
        self.call("clear_intended", "ctl.clear_intended", |t| {
            t.clear_intended(device, name)
        })
    }

    fn reconcile(&mut self) -> Result<Vec<IssuedOp>, Error> {
        self.call("reconcile", "ctl.reconcile", |t| t.reconcile())
    }

    fn poll_current(&mut self) -> Result<(), Error> {
        self.call("poll_current", "ctl.poll_current", |t| t.poll_current())
    }

    fn poll_devices(&mut self, devices: &[DeviceId]) -> Result<(), Error> {
        self.call("poll_devices", "ctl.poll_devices", |t| {
            t.poll_devices(devices)
        })
    }

    fn out_of_sync_paths(&mut self) -> Result<Vec<String>, Error> {
        self.call("out_of_sync_paths", "ctl.out_of_sync_paths", |t| {
            t.out_of_sync_paths()
        })
    }

    fn next_retry_due(&mut self, now: SimTime) -> Result<Option<SimTime>, Error> {
        self.call("next_retry_due", "ctl.next_retry_due", |t| {
            t.next_retry_due(now)
        })
    }

    fn health_check(&mut self, check: &HealthCheck) -> Result<HealthReport, Error> {
        self.call("health_check", "ctl.health_check", |t| {
            t.health_check(check)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_and_totals() {
        let mut a = CallLog::default();
        a.methods.insert(
            "now",
            MethodLog {
                calls: 2,
                errors: 0,
                samples_ns: vec![10, 30],
            },
        );
        let mut b = CallLog::default();
        b.methods.insert(
            "run_until_quiescent",
            MethodLog {
                calls: 1,
                errors: 1,
                samples_ns: vec![500],
            },
        );
        b.first_topology_ns.push(7);
        b.barrier_events = 9;
        a.merge(b);
        assert_eq!(a.calls(), 3);
        assert_eq!(a.errors(), 1);
        assert_eq!(a.total_ns(), 540);
        assert_eq!(a.non_barrier_samples(), vec![10, 30]);
        assert_eq!(a.first_topology_ns, vec![7]);
        assert_eq!(a.barrier_events, 9);
    }
}
