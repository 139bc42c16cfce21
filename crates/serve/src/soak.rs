//! Kill-and-reconnect chaos harness (`sd-loadgen --soak`).
//!
//! Drives a *real* `sd-serve` subprocess with `--wal`, `kill -9`s it at
//! random points mid-traffic, restarts it from the same WAL directory,
//! resynchronises, and finally asserts that the recovered run's
//! `/v1/result` is **bit-identical** to an uninterrupted reference run of
//! the same traffic — the "recovery ≡ never crashed" contract of
//! DESIGN.md §14, checked end to end through process death.
//!
//! Exactly-once resync: job ids are dense (submission *n* gets id *n*), so
//! `jobs_total` from `/v1/stats` after a restart is precisely the number of
//! submissions that survived durably — whether the kill landed before the
//! WAL append (command lost, resubmit), after it (recovery replays it), or
//! between apply and reply (ack lost, but the job is there). The client
//! resumes from that index instead of retrying acks blindly.

use crate::client::{Client, ClientError};
use crate::json::Json;
use crate::proto::SubmitRequest;
use slurm_sim::SimResult;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// One chaos campaign.
#[derive(Debug, Clone)]
pub struct SoakOptions {
    /// `kill -9` + restart cycles before the run is allowed to finish.
    pub cycles: u32,
    /// Path of the `sd-serve` binary to spawn.
    pub server_bin: PathBuf,
    /// Extra `sd-serve` flags (cluster/policy/model…); the harness adds
    /// `--port 0` and, for the chaos runs, `--wal <dir>`.
    pub server_args: Vec<String>,
    /// WAL directory for the chaos run (wiped at start).
    pub wal_dir: PathBuf,
    /// Seed for the kill-delay jitter (reproducible campaigns).
    pub seed: u64,
    /// Target submissions per wall second during the chaos run (None = flat
    /// out). Pacing stretches the submission window so kills land
    /// mid-traffic instead of after the burst; the virtual clock makes the
    /// result independent of wall pacing.
    pub rate: Option<f64>,
}

/// What the campaign did and proved.
#[derive(Debug)]
pub struct SoakReport {
    pub cycles: u32,
    /// Submissions the reference (and recovered) run accepted.
    pub submitted: u64,
    /// Submission attempts that died with the server mid-kill and were
    /// resubmitted after resync.
    pub(crate) resubmitted: u64,
    /// Wall time of the whole campaign.
    pub wall: Duration,
    /// The two final results that were compared equal.
    pub reference: SimResult,
    pub recovered: SimResult,
}

impl SoakReport {
    pub fn render(&self) -> String {
        format!(
            "soak: {} kill -9 cycles | {} jobs | {} resubmitted after resync | {:.2}s wall\n\
             recovered /v1/result ≡ uninterrupted reference ({} outcomes, makespan {})",
            self.cycles,
            self.submitted,
            self.resubmitted,
            self.wall.as_secs_f64(),
            self.reference.outcomes.len(),
            self.reference.makespan,
        )
    }
}

/// A spawned `sd-serve` with its parsed listen address.
struct Server {
    child: Child,
    addr: SocketAddr,
}

impl Server {
    /// Spawns the server and blocks until it prints its listen line (the
    /// port is ephemeral). Recovery happens before the print, so a returned
    /// server is fully caught up.
    fn spawn(bin: &PathBuf, args: &[String]) -> Result<Server, String> {
        let mut child = Command::new(bin)
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout piped");
        let mut reader = std::io::BufReader::new(stdout);
        let mut line = String::new();
        use std::io::BufRead as _;
        let addr = loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) => {
                    let _ = child.kill();
                    return Err("server exited before printing its address".into());
                }
                Ok(_) => {
                    if let Some(rest) = line.trim().strip_prefix("sd-serve listening on ") {
                        break rest
                            .parse()
                            .map_err(|e| format!("bad listen address {rest:?}: {e}"))?;
                    }
                }
                Err(e) => {
                    let _ = child.kill();
                    return Err(format!("reading server stdout: {e}"));
                }
            }
        };
        // Keep draining stdout in the background so the child never blocks
        // on a full pipe.
        std::thread::spawn(move || {
            let mut sink = String::new();
            while matches!(reader.read_line(&mut sink), Ok(n) if n > 0) {
                sink.clear();
            }
        });
        Ok(Server { child, addr })
    }

    fn kill9(&mut self) {
        let _ = self.child.kill(); // SIGKILL on unix
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn request_for(j: &swf::SwfJob) -> SubmitRequest {
    SubmitRequest {
        procs: j.procs().unwrap_or(1),
        req_time: j.requested_time().unwrap_or(0),
        run_time: j.runtime().unwrap_or(0),
        submit: Some(j.submit.max(0) as u64),
        malleable: None,
        trace_id: Some(j.job_id),
        tenant: Some(j.user.max(0) as u64),
        project: Some(j.group.max(0) as u64),
    }
}

/// Connect-with-patience: the server may be mid-restart.
fn connect(addr: SocketAddr) -> Result<Client, ClientError> {
    let mut c = Client::new(addr).with_retries(8);
    c.health()?;
    Ok(c)
}

/// Durably applied submissions = `jobs_total` (ids are dense and the soak
/// traffic never cancels).
fn applied_jobs(client: &mut Client) -> Result<usize, ClientError> {
    let stats = client.stats()?;
    Ok(stats
        .get(crate::metrics::JOBS_TOTAL.key)
        .and_then(Json::as_u64)
        .unwrap_or(0) as usize)
}

/// One full uninterrupted session: submit everything, drain, fetch the
/// result, shut down cleanly.
fn reference_run(
    bin: &PathBuf,
    args: &[String],
    jobs: &[swf::SwfJob],
) -> Result<SimResult, String> {
    let mut argv = args.to_vec();
    argv.extend(["--port".into(), "0".into()]);
    let server = Server::spawn(bin, &argv)?;
    let mut client = connect(server.addr).map_err(|e| format!("reference connect: {e}"))?;
    for (i, j) in jobs.iter().enumerate() {
        client
            .submit(&request_for(j))
            .map_err(|e| format!("reference submit {i}: {e}"))?;
    }
    client.drain().map_err(|e| format!("reference drain: {e}"))?;
    let result = client.result().map_err(|e| format!("reference result: {e}"))?;
    client
        .shutdown()
        .map_err(|e| format!("reference shutdown: {e}"))?;
    Ok(result)
}

/// Runs the chaos campaign. `jobs` should be ordered by submit time (SWF
/// order); both runs submit the identical request sequence.
pub fn run(jobs: &[swf::SwfJob], opts: &SoakOptions) -> Result<SoakReport, String> {
    if jobs.is_empty() {
        return Err("soak needs a non-empty workload".into());
    }
    let t0 = Instant::now();
    let reference = reference_run(&opts.server_bin, &opts.server_args, jobs)?;

    let _ = std::fs::remove_dir_all(&opts.wal_dir);
    let mut argv = opts.server_args.to_vec();
    argv.extend([
        "--port".into(),
        "0".into(),
        "--wal".into(),
        opts.wal_dir.display().to_string(),
        // Small cadence: kills land in every phase of the checkpoint cycle.
        "--checkpoint-every".into(),
        "16".into(),
    ]);

    let mut rng = opts.seed | 1;
    let mut next_delay_ms = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        5 + rng % 46 // 5..=50 ms
    };

    let mut resubmitted = 0u64;
    let mut kills = 0u32;
    let mut next = 0usize; // next job index to submit
    'campaign: loop {
        let mut server = Server::spawn(&opts.server_bin, &argv)?;
        let mut client =
            connect(server.addr).map_err(|e| format!("soak connect (cycle {kills}): {e}"))?;
        let durable = applied_jobs(&mut client)
            .map_err(|e| format!("soak resync (cycle {kills}): {e}"))?;
        if kills > 0 {
            // Attempts past the durable count died with the server.
            resubmitted += next.saturating_sub(durable) as u64;
        }
        next = durable;

        let armed = kills < opts.cycles;
        let fuse = Instant::now() + Duration::from_millis(next_delay_ms());
        let gap = opts.rate.map(|r| Duration::from_secs_f64(1.0 / r.max(1e-9)));
        while next < jobs.len() {
            if let Some(g) = gap {
                std::thread::sleep(g);
            }
            if armed && Instant::now() >= fuse {
                server.kill9();
                kills += 1;
                // The in-flight submit (if any) may or may not have made the
                // log; the next cycle's resync decides.
                continue 'campaign;
            }
            match client.submit(&request_for(&jobs[next])) {
                Ok(_) => next += 1,
                Err(ClientError::Status(s, body)) => {
                    return Err(format!("soak submit {next}: HTTP {s}: {body}"));
                }
                Err(_) if armed => {
                    // Transport death without our kill firing yet (e.g. the
                    // kill raced the request): treat it as the cycle kill.
                    server.kill9();
                    kills += 1;
                    continue 'campaign;
                }
                Err(e) => return Err(format!("soak submit {next}: {e}")),
            }
        }
        // All submissions durable. Burn any remaining kill budget on this
        // fully-checkpointable state: kill again, restart, resync (the next
        // cycle finds every job present and falls straight through here).
        if kills < opts.cycles {
            std::thread::sleep(Duration::from_millis(next_delay_ms() / 4));
            server.kill9();
            kills += 1;
            continue 'campaign;
        }
        match client.drain() {
            Ok(_) => {}
            // The last kill can race the final submit's response; one more
            // restart recovers (Drain was never logged) and re-drains.
            Err(ClientError::Io(_)) | Err(ClientError::Protocol(_)) => {
                drop(client);
                server.kill9();
                continue 'campaign;
            }
            Err(e) => return Err(format!("soak drain: {e}")),
        }
        let recovered = client.result().map_err(|e| format!("soak result: {e}"))?;
        client.shutdown().map_err(|e| format!("soak shutdown: {e}"))?;
        if recovered != reference {
            return Err(format!(
                "recovered result diverges from the uninterrupted reference: \
                 {} vs {} outcomes, makespan {} vs {}",
                recovered.outcomes.len(),
                reference.outcomes.len(),
                recovered.makespan,
                reference.makespan,
            ));
        }
        return Ok(SoakReport {
            cycles: kills,
            submitted: jobs.len() as u64,
            resubmitted,
            wall: t0.elapsed(),
            reference,
            recovered,
        });
    }
}
