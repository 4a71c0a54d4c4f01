//! Crash-consistent checkpoints.
//!
//! A checkpoint captures everything needed to continue a job from the
//! last committed chunk with a *bit-identical* future: the grid (padded
//! storage, f64 bit patterns), the plan (kernel weights, fusion degree,
//! variant, boundary), accumulated report counters, and — crucially —
//! every pool device's fault cursor (plan, epoch, launch-attempt count,
//! dead flag) plus breaker state, so the deterministic fault streams
//! resume exactly where they stopped.
//!
//! ## Wire format
//!
//! Plain text, one header line followed by `key=value` payload lines:
//!
//! ```text
//! CONVSTENCIL-CKPT v1 crc64=<16 hex> payload_bytes=<n>
//! job=heat
//! dim=2
//! ...
//! ```
//!
//! The CRC-64/XZ checksum covers the payload bytes exactly; any
//! single-byte corruption anywhere in the payload is detected (see
//! [`crate::crc64`]). Floats travel as `f64::to_bits` hex so the round
//! trip is bit-exact, including NaNs and signed zeros.
//!
//! ## Codec cost
//!
//! The format is fixed at v1; encoding and decoding cost time linear in
//! the file's bytes with a small constant. `encode` writes the f64 lists
//! through a nibble table into one payload buffer sized up front and
//! inserts the header into that buffer. `decode` checks the CRC (slicing
//! by 8) before any field is parsed, then reads canonical f64 lists in
//! 17-byte strides and hands any other list to the per-token parser, so
//! what is accepted and every error text stay those of the per-token
//! parser. Error texts are only built on the error path.
//!
//! ## Crash consistency
//!
//! Files are written with the bench crate's `atomic_write` (temp file +
//! fsync + atomic rename — the PR 2 artifact pattern), so a crash at any
//! point leaves either the previous checkpoint or the complete new one,
//! never a torn file. The loader scans a directory, tries newest-first,
//! and skips corrupt or truncated files with a warning instead of
//! failing the resume.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use crate::breaker::BreakerState;
use crate::crc64::crc64;
use convstencil::ConvStencilError;
use convstencil_bench::atomic_write;
use tcu_sim::{Counters, EccBurst, FaultPlan, HangSpec, LaunchStats, Phase, SanitizerReport};

/// Magic prefix of every checkpoint file.
pub const MAGIC: &str = "CONVSTENCIL-CKPT v1";

/// File extension used by [`Checkpoint::save`] and [`load_latest`].
pub const EXTENSION: &str = "ckpt";

/// One pool device's persisted fault cursor + breaker state.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceCursor {
    pub id: usize,
    pub plan: Option<FaultPlan>,
    pub fault_epoch: u64,
    pub launch_attempts: u64,
    pub dead: bool,
    pub breaker: BreakerState,
}

/// Everything a resumed job needs (see module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    pub job: String,
    /// 1, 2 or 3.
    pub dim: u8,
    pub radius: usize,
    /// Base (unfused) kernel weights, row-major.
    pub weights: Vec<f64>,
    /// Temporal fusion degree (always 1 for 3D).
    pub fusion: usize,
    /// "dirichlet" | "periodic".
    pub boundary: String,
    /// The four variant switches, in declaration order.
    pub variant: [bool; 4],
    /// Runner observability flags: tracing, sanitizer, scratch pooling.
    pub flags: [bool; 3],
    pub steps_total: u64,
    pub steps_done: u64,
    pub checkpoint_every: u64,
    /// Interior extents: `[n]`, `[m, n]` or `[d, m, n]`.
    pub grid_dims: Vec<usize>,
    pub grid_halo: usize,
    /// Full padded storage (interior + halo), bit-exact.
    pub grid_data: Vec<f64>,
    /// Job-accumulated event ledger.
    pub counters: Counters,
    pub launch_stats: LaunchStats,
    pub migrations: u64,
    pub degraded: bool,
    pub checkpoints_written: u64,
    pub faults_detected: u64,
    pub retries: u64,
    /// Pool logical clock (chunks committed anywhere).
    pub pool_completed: u64,
    /// Slot the job was running on when the checkpoint was cut (`None`
    /// once the job degraded to the reference backend). Resume continues
    /// on this device so the fault streams of an interrupted-then-resumed
    /// run align bit-exactly with an uninterrupted one.
    pub active_device: Option<usize>,
    /// Aggregated sanitizer totals + per-phase histograms. Verbatim
    /// violation records are capped diagnostics and are not persisted.
    pub sanitizer: Option<SanitizerReport>,
    pub devices: Vec<DeviceCursor>,
}

/// Lowercase hex digit of each nibble value.
const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Marks a byte that is not a lowercase hex digit in [`HEX_VALUES`].
const NOT_HEX: u8 = 0x80;

/// Value of each byte as a lowercase hex digit, or [`NOT_HEX`].
const HEX_VALUES: [u8; 256] = {
    let mut table = [NOT_HEX; 256];
    let mut i = 0;
    while i < 16 {
        table[HEX_DIGITS[i] as usize] = i as u8;
        i += 1;
    }
    table
};

/// `{:016x}` of `v.to_bits()` into `out[..16]`.
fn write_hex16(v: f64, out: &mut [u8]) {
    let bits = v.to_bits();
    for (i, digit) in out[..16].iter_mut().enumerate() {
        *digit = HEX_DIGITS[((bits >> (60 - 4 * i)) & 0xF) as usize];
    }
}

fn hex_f64(v: f64) -> String {
    let mut out = String::with_capacity(16);
    push_hex_f64_list(&mut out, &[v]);
    out
}

/// Append `vs` as comma-separated `{:016x}` bit patterns. Values are
/// encoded a block at a time into a stack buffer, so the only copy is the
/// one into `out`.
fn push_hex_f64_list(out: &mut String, vs: &[f64]) {
    const BLOCK: usize = 256;
    let mut buf = [0u8; BLOCK * 17];
    for block in vs.chunks(BLOCK) {
        for (v, slot) in block.iter().zip(buf.chunks_exact_mut(17)) {
            write_hex16(*v, slot);
            slot[16] = b',';
        }
        out.push_str(
            std::str::from_utf8(&buf[..block.len() * 17]).expect("hex digits and commas are ASCII"),
        );
    }
    if !vs.is_empty() {
        out.pop(); // the comma after the last value
    }
}

fn read_err(path: &Path, reason: impl Into<String>) -> ConvStencilError {
    ConvStencilError::ArtifactRead {
        path: path.display().to_string(),
        reason: reason.into(),
    }
}

/// Field-level parse context carried while decoding, so every failure
/// reports *which* key was malformed.
struct FieldError {
    key: &'static str,
    why: String,
}

type FieldResult<T> = Result<T, FieldError>;

fn field_err<T>(key: &'static str, why: impl Into<String>) -> FieldResult<T> {
    Err(FieldError {
        key,
        why: why.into(),
    })
}

fn parse_u64(key: &'static str, s: &str) -> FieldResult<u64> {
    s.parse::<u64>().map_err(|e| FieldError {
        key,
        why: format!("bad integer {s:?}: {e}"),
    })
}

fn parse_usize(key: &'static str, s: &str) -> FieldResult<usize> {
    s.parse::<usize>().map_err(|e| FieldError {
        key,
        why: format!("bad integer {s:?}: {e}"),
    })
}

fn parse_f64_bits(key: &'static str, s: &str) -> FieldResult<f64> {
    u64::from_str_radix(s, 16)
        .map(f64::from_bits)
        .map_err(|e| FieldError {
            key,
            why: format!("bad f64 bit pattern {s:?}: {e}"),
        })
}

/// Decode a comma-separated list of f64 bit patterns. The canonical
/// layout written by [`push_hex_f64_list`] (16 lowercase hex digits per
/// value, one comma between values) is decoded in strides of 17 bytes
/// with one validity flag; anything else, including every malformed
/// list, goes through the per-token [`parse_f64_bits`], so the accepted
/// inputs and the error texts are those of the per-token parser.
fn parse_f64_list(key: &'static str, s: &str) -> FieldResult<Vec<f64>> {
    if s.is_empty() {
        return Ok(Vec::new());
    }
    let bytes = s.as_bytes();
    if (bytes.len() + 1).is_multiple_of(17) {
        let mut out = Vec::with_capacity((bytes.len() + 1) / 17);
        let mut flags = 0u8;
        for token in bytes.chunks(17) {
            let mut bits = 0u64;
            for &b in &token[..16] {
                let d = HEX_VALUES[b as usize];
                flags |= d;
                bits = (bits << 4) | u64::from(d & 0xF);
            }
            if token.len() == 17 && token[16] != b',' {
                flags |= NOT_HEX;
            }
            out.push(f64::from_bits(bits));
        }
        if flags & NOT_HEX == 0 {
            return Ok(out);
        }
    }
    s.split(',').map(|tok| parse_f64_bits(key, tok)).collect()
}

fn parse_bool(key: &'static str, s: &str) -> FieldResult<bool> {
    match s {
        "0" => Ok(false),
        "1" => Ok(true),
        other => field_err(key, format!("bad flag {other:?} (want 0 or 1)")),
    }
}

fn encode_plan(plan: &Option<FaultPlan>) -> String {
    match plan {
        None => "-".to_string(),
        Some(p) => {
            let die = p
                .die_at_launch
                .map_or_else(|| "-".to_string(), |d| d.to_string());
            let ecc = p
                .ecc_burst
                .map_or_else(|| "-".to_string(), |b| format!("{}/{}", b.start, b.len));
            let hang = p.hang.map_or_else(
                || "-".to_string(),
                |h| format!("{}/{}", h.at_launch, h.stall_cycles),
            );
            format!(
                "seed:{} dmma:{} smem:{} lfail:{} die:{} ecc:{} hang:{}",
                p.seed,
                hex_f64(p.dmma_flip_rate),
                hex_f64(p.smem_corrupt_rate),
                hex_f64(p.launch_fail_rate),
                die,
                ecc,
                hang,
            )
        }
    }
}

fn decode_plan(s: &str) -> FieldResult<Option<FaultPlan>> {
    const KEY: &str = "device.plan";
    if s == "-" {
        return Ok(None);
    }
    let mut seed = None;
    let mut dmma = None;
    let mut smem = None;
    let mut lfail = None;
    let mut die = None;
    let mut ecc = None;
    let mut hang = None;
    for tok in s.split(' ') {
        let (k, v) = tok.split_once(':').ok_or_else(|| FieldError {
            key: KEY,
            why: format!("bad token {tok:?}"),
        })?;
        match k {
            "seed" => seed = Some(parse_u64(KEY, v)?),
            "dmma" => dmma = Some(parse_f64_bits(KEY, v)?),
            "smem" => smem = Some(parse_f64_bits(KEY, v)?),
            "lfail" => lfail = Some(parse_f64_bits(KEY, v)?),
            "die" if v != "-" => die = Some(parse_u64(KEY, v)?),
            "ecc" if v != "-" => {
                let (a, b) = v.split_once('/').ok_or_else(|| FieldError {
                    key: KEY,
                    why: format!("bad ecc window {v:?}"),
                })?;
                ecc = Some(EccBurst {
                    start: parse_u64(KEY, a)?,
                    len: parse_u64(KEY, b)?,
                });
            }
            "hang" if v != "-" => {
                let (a, b) = v.split_once('/').ok_or_else(|| FieldError {
                    key: KEY,
                    why: format!("bad hang spec {v:?}"),
                })?;
                hang = Some(HangSpec {
                    at_launch: parse_u64(KEY, a)?,
                    stall_cycles: parse_u64(KEY, b)?,
                });
            }
            "die" | "ecc" | "hang" => {}
            other => return field_err(KEY, format!("unknown token {other:?}")),
        }
    }
    let mut plan = FaultPlan::quiet(seed.ok_or_else(|| FieldError {
        key: KEY,
        why: "missing seed".to_string(),
    })?);
    plan.dmma_flip_rate = dmma.unwrap_or(0.0);
    plan.smem_corrupt_rate = smem.unwrap_or(0.0);
    plan.launch_fail_rate = lfail.unwrap_or(0.0);
    plan.die_at_launch = die;
    plan.ecc_burst = ecc;
    plan.hang = hang;
    Ok(Some(plan))
}

fn encode_breaker(state: &BreakerState) -> String {
    match state {
        BreakerState::Closed {
            consecutive_failures,
        } => format!("closed:{consecutive_failures}"),
        BreakerState::Open { until_jobs } => format!("open:{until_jobs}"),
        BreakerState::HalfOpen => "halfopen".to_string(),
    }
}

fn decode_breaker(s: &str) -> FieldResult<BreakerState> {
    const KEY: &str = "device.breaker";
    if s == "halfopen" {
        return Ok(BreakerState::HalfOpen);
    }
    let (k, v) = s.split_once(':').ok_or_else(|| FieldError {
        key: KEY,
        why: format!("bad breaker state {s:?}"),
    })?;
    match k {
        "closed" => Ok(BreakerState::Closed {
            consecutive_failures: u32::try_from(parse_u64(KEY, v)?)
                .or_else(|_| field_err(KEY, format!("failure count {v} does not fit in u32")))?,
        }),
        "open" => Ok(BreakerState::Open {
            until_jobs: parse_u64(KEY, v)?,
        }),
        other => field_err(KEY, format!("bad breaker state {other:?}")),
    }
}

impl Checkpoint {
    /// Canonical file name for this job at this step.
    pub fn file_name(job: &str, steps_done: u64) -> String {
        format!("{job}.step{steps_done:08}.{EXTENSION}")
    }

    /// Upper bound on the encoded size: 17 bytes per f64 list entry, 512
    /// per `device=` line, and 4 KiB for the header and every other line.
    fn encoded_capacity(&self) -> usize {
        (self.weights.len() + self.grid_data.len()) * 17
            + self.devices.len() * 512
            + self.grid_dims.len() * 21
            + self.job.len()
            + self.boundary.len()
            + 4096
    }

    /// Serialize to the wire format (header + payload). The payload is
    /// built in one buffer sized by [`Self::encoded_capacity`], and the
    /// header is then inserted in front of it within the same allocation.
    pub fn encode(&self) -> String {
        let mut p = String::with_capacity(self.encoded_capacity());
        let _ = writeln!(p, "job={}", self.job);
        let _ = writeln!(p, "dim={}", self.dim);
        let _ = writeln!(p, "radius={}", self.radius);
        p.push_str("weights=");
        push_hex_f64_list(&mut p, &self.weights);
        p.push('\n');
        let _ = writeln!(p, "fusion={}", self.fusion);
        let _ = writeln!(p, "boundary={}", self.boundary);
        let _ = writeln!(
            p,
            "variant={}",
            self.variant
                .iter()
                .map(|b| if *b { "1" } else { "0" })
                .collect::<Vec<_>>()
                .join(",")
        );
        let _ = writeln!(
            p,
            "flags={}",
            self.flags
                .iter()
                .map(|b| if *b { "1" } else { "0" })
                .collect::<Vec<_>>()
                .join(",")
        );
        let _ = writeln!(p, "steps_total={}", self.steps_total);
        let _ = writeln!(p, "steps_done={}", self.steps_done);
        let _ = writeln!(p, "checkpoint_every={}", self.checkpoint_every);
        let _ = writeln!(
            p,
            "grid_dims={}",
            self.grid_dims
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join(",")
        );
        let _ = writeln!(p, "grid_halo={}", self.grid_halo);
        p.push_str("grid_data=");
        push_hex_f64_list(&mut p, &self.grid_data);
        p.push('\n');
        let _ = writeln!(
            p,
            "counters={}",
            self.counters
                .field_pairs()
                .iter()
                .map(|(k, v)| format!("{k}:{v}"))
                .collect::<Vec<_>>()
                .join(",")
        );
        let _ = writeln!(
            p,
            "launches=kernel_launches:{},total_blocks:{}",
            self.launch_stats.kernel_launches, self.launch_stats.total_blocks
        );
        let _ = writeln!(
            p,
            "job_stats=migrations:{},degraded:{},checkpoints_written:{},faults_detected:{},retries:{}",
            self.migrations,
            u8::from(self.degraded),
            self.checkpoints_written,
            self.faults_detected,
            self.retries
        );
        let _ = writeln!(p, "pool_completed={}", self.pool_completed);
        let _ = writeln!(
            p,
            "active_device={}",
            self.active_device
                .map_or_else(|| "-".to_string(), |id| id.to_string())
        );
        if let Some(s) = &self.sanitizer {
            let _ = writeln!(
                p,
                "sanitizer=init:{},mem:{},race:{},bank:{}",
                s.init_total, s.mem_total, s.race_total, s.bank_total
            );
            let _ = writeln!(
                p,
                "sanitizer_load={}",
                s.load_conflicts
                    .iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            );
            let _ = writeln!(
                p,
                "sanitizer_store={}",
                s.store_conflicts
                    .iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            );
        }
        for d in &self.devices {
            let _ = writeln!(
                p,
                "device={};plan={};epoch={};attempts={};dead={};breaker={}",
                d.id,
                encode_plan(&d.plan),
                d.fault_epoch,
                d.launch_attempts,
                u8::from(d.dead),
                encode_breaker(&d.breaker)
            );
        }
        let header = format!(
            "{MAGIC} crc64={:016x} payload_bytes={}\n",
            crc64(p.as_bytes()),
            p.len()
        );
        p.insert_str(0, &header);
        p
    }

    /// Parse the wire format, verifying the checksum first. `path` is
    /// only used in error messages.
    pub fn decode(text: &str, path: &Path) -> Result<Self, ConvStencilError> {
        let (header, payload) = text
            .split_once('\n')
            .ok_or_else(|| read_err(path, "missing header line"))?;
        let mut magic_ok = false;
        let mut want_crc = None;
        let mut want_len = None;
        let mut toks = header.split(' ');
        if let (Some(a), Some(b)) = (toks.next(), toks.next()) {
            magic_ok = format!("{a} {b}") == MAGIC;
        }
        for tok in toks {
            if let Some(v) = tok.strip_prefix("crc64=") {
                want_crc = u64::from_str_radix(v, 16).ok();
            } else if let Some(v) = tok.strip_prefix("payload_bytes=") {
                want_len = v.parse::<usize>().ok();
            }
        }
        if !magic_ok {
            return Err(read_err(path, "not a ConvStencil checkpoint (bad magic)"));
        }
        let want_crc = want_crc.ok_or_else(|| read_err(path, "header missing crc64"))?;
        let want_len = want_len.ok_or_else(|| read_err(path, "header missing payload_bytes"))?;
        if payload.len() != want_len {
            return Err(read_err(
                path,
                format!(
                    "truncated payload: {} bytes on disk, header says {}",
                    payload.len(),
                    want_len
                ),
            ));
        }
        let got_crc = crc64(payload.as_bytes());
        if got_crc != want_crc {
            return Err(read_err(
                path,
                format!("checksum mismatch: computed {got_crc:016x}, header says {want_crc:016x}"),
            ));
        }
        Self::decode_payload(payload)
            .map_err(|e| read_err(path, format!("field `{}`: {}", e.key, e.why)))
    }

    fn decode_payload(payload: &str) -> FieldResult<Self> {
        let mut ck = Checkpoint {
            job: String::new(),
            dim: 0,
            radius: 0,
            weights: Vec::new(),
            fusion: 1,
            boundary: "dirichlet".to_string(),
            variant: [false; 4],
            flags: [false; 3],
            steps_total: 0,
            steps_done: 0,
            checkpoint_every: 0,
            grid_dims: Vec::new(),
            grid_halo: 0,
            grid_data: Vec::new(),
            counters: Counters::default(),
            launch_stats: LaunchStats::default(),
            migrations: 0,
            degraded: false,
            checkpoints_written: 0,
            faults_detected: 0,
            retries: 0,
            pool_completed: 0,
            active_device: None,
            sanitizer: None,
            devices: Vec::new(),
        };
        let mut seen_dim = false;
        for line in payload.lines() {
            if line.is_empty() {
                continue;
            }
            let (key, value) = line.split_once('=').ok_or_else(|| FieldError {
                key: "payload",
                why: format!("line without `=`: {line:?}"),
            })?;
            match key {
                "job" => ck.job = value.to_string(),
                "dim" => {
                    ck.dim = u8::try_from(parse_u64("dim", value)?).or_else(|_| {
                        field_err("dim", format!("{value} is out of range (want 1..=3)"))
                    })?;
                    seen_dim = true;
                }
                "radius" => ck.radius = parse_usize("radius", value)?,
                "weights" => ck.weights = parse_f64_list("weights", value)?,
                "fusion" => ck.fusion = parse_usize("fusion", value)?,
                "boundary" => ck.boundary = value.to_string(),
                "variant" => {
                    let bits: Vec<&str> = value.split(',').collect();
                    if bits.len() != 4 {
                        return field_err(
                            "variant",
                            format!("want 4 switches, got {}", bits.len()),
                        );
                    }
                    for (i, b) in bits.iter().enumerate() {
                        ck.variant[i] = parse_bool("variant", b)?;
                    }
                }
                "flags" => {
                    let bits: Vec<&str> = value.split(',').collect();
                    if bits.len() != 3 {
                        return field_err("flags", format!("want 3 flags, got {}", bits.len()));
                    }
                    for (i, b) in bits.iter().enumerate() {
                        ck.flags[i] = parse_bool("flags", b)?;
                    }
                }
                "steps_total" => ck.steps_total = parse_u64("steps_total", value)?,
                "steps_done" => ck.steps_done = parse_u64("steps_done", value)?,
                "checkpoint_every" => ck.checkpoint_every = parse_u64("checkpoint_every", value)?,
                "grid_dims" => {
                    ck.grid_dims = value
                        .split(',')
                        .map(|d| parse_usize("grid_dims", d))
                        .collect::<FieldResult<_>>()?;
                }
                "grid_halo" => ck.grid_halo = parse_usize("grid_halo", value)?,
                "grid_data" => ck.grid_data = parse_f64_list("grid_data", value)?,
                "counters" => {
                    for pair in value.split(',') {
                        let (k, v) = pair.split_once(':').ok_or_else(|| FieldError {
                            key: "counters",
                            why: format!("bad pair {pair:?}"),
                        })?;
                        if !ck.counters.set_field(k, parse_u64("counters", v)?) {
                            return field_err("counters", format!("unknown counter {k:?}"));
                        }
                    }
                }
                "launches" => {
                    for pair in value.split(',') {
                        let (k, v) = pair.split_once(':').ok_or_else(|| FieldError {
                            key: "launches",
                            why: format!("bad pair {pair:?}"),
                        })?;
                        match k {
                            "kernel_launches" => {
                                ck.launch_stats.kernel_launches = parse_u64("launches", v)?
                            }
                            "total_blocks" => {
                                ck.launch_stats.total_blocks = parse_u64("launches", v)?
                            }
                            other => {
                                return field_err("launches", format!("unknown stat {other:?}"))
                            }
                        }
                    }
                }
                "job_stats" => {
                    for pair in value.split(',') {
                        let (k, v) = pair.split_once(':').ok_or_else(|| FieldError {
                            key: "job_stats",
                            why: format!("bad pair {pair:?}"),
                        })?;
                        match k {
                            "migrations" => ck.migrations = parse_u64("job_stats", v)?,
                            "degraded" => ck.degraded = parse_bool("job_stats", v)?,
                            "checkpoints_written" => {
                                ck.checkpoints_written = parse_u64("job_stats", v)?
                            }
                            "faults_detected" => ck.faults_detected = parse_u64("job_stats", v)?,
                            "retries" => ck.retries = parse_u64("job_stats", v)?,
                            other => {
                                return field_err("job_stats", format!("unknown stat {other:?}"))
                            }
                        }
                    }
                }
                "pool_completed" => ck.pool_completed = parse_u64("pool_completed", value)?,
                "active_device" => {
                    ck.active_device = if value == "-" {
                        None
                    } else {
                        Some(parse_usize("active_device", value)?)
                    };
                }
                "sanitizer" => {
                    let s = ck.sanitizer.get_or_insert_with(SanitizerReport::default);
                    for pair in value.split(',') {
                        let (k, v) = pair.split_once(':').ok_or_else(|| FieldError {
                            key: "sanitizer",
                            why: format!("bad pair {pair:?}"),
                        })?;
                        let v = parse_u64("sanitizer", v)?;
                        match k {
                            "init" => s.init_total = v,
                            "mem" => s.mem_total = v,
                            "race" => s.race_total = v,
                            "bank" => s.bank_total = v,
                            other => {
                                return field_err("sanitizer", format!("unknown total {other:?}"))
                            }
                        }
                    }
                }
                "sanitizer_load" | "sanitizer_store" => {
                    let s = ck.sanitizer.get_or_insert_with(SanitizerReport::default);
                    let vals: Vec<u64> = value
                        .split(',')
                        .map(|v| parse_u64("sanitizer_histogram", v))
                        .collect::<FieldResult<_>>()?;
                    if vals.len() != Phase::ALL.len() {
                        return field_err(
                            "sanitizer_histogram",
                            format!("want {} phases, got {}", Phase::ALL.len(), vals.len()),
                        );
                    }
                    let dst = if key == "sanitizer_load" {
                        &mut s.load_conflicts
                    } else {
                        &mut s.store_conflicts
                    };
                    dst.copy_from_slice(&vals);
                }
                "device" => {
                    let mut id = None;
                    let mut plan = None;
                    let mut epoch = 0;
                    let mut attempts = 0;
                    let mut dead = false;
                    let mut breaker = None;
                    for (i, part) in value.split(';').enumerate() {
                        if i == 0 {
                            id = Some(parse_usize("device.id", part)?);
                            continue;
                        }
                        let (k, v) = part.split_once('=').ok_or_else(|| FieldError {
                            key: "device",
                            why: format!("bad part {part:?}"),
                        })?;
                        match k {
                            "plan" => plan = Some(decode_plan(v)?),
                            "epoch" => epoch = parse_u64("device.epoch", v)?,
                            "attempts" => attempts = parse_u64("device.attempts", v)?,
                            "dead" => dead = parse_bool("device.dead", v)?,
                            "breaker" => breaker = Some(decode_breaker(v)?),
                            other => return field_err("device", format!("unknown part {other:?}")),
                        }
                    }
                    ck.devices.push(DeviceCursor {
                        id: id.ok_or_else(|| FieldError {
                            key: "device",
                            why: "missing id".to_string(),
                        })?,
                        plan: plan.unwrap_or(None),
                        fault_epoch: epoch,
                        launch_attempts: attempts,
                        dead,
                        breaker: breaker.ok_or_else(|| FieldError {
                            key: "device",
                            why: "missing breaker state".to_string(),
                        })?,
                    });
                }
                other => {
                    return field_err("payload", format!("unknown key {other:?}"));
                }
            }
        }
        if !seen_dim || !(1..=3).contains(&ck.dim) {
            return field_err("dim", "missing or out of range (want 1..=3)");
        }
        if ck.grid_dims.len() != ck.dim as usize {
            return field_err(
                "grid_dims",
                format!("{} extents for a {}D grid", ck.grid_dims.len(), ck.dim),
            );
        }
        Ok(ck)
    }

    /// Write atomically into `dir` (created if missing) under the
    /// canonical [`Checkpoint::file_name`]. Returns the final path.
    pub fn save(&self, dir: &Path) -> Result<PathBuf, ConvStencilError> {
        std::fs::create_dir_all(dir).map_err(|e| ConvStencilError::ArtifactWrite {
            path: dir.display().to_string(),
            reason: e.to_string(),
        })?;
        let path = dir.join(Self::file_name(&self.job, self.steps_done));
        atomic_write(&path, &self.encode()).map_err(|e| ConvStencilError::ArtifactWrite {
            path: path.display().to_string(),
            reason: e.to_string(),
        })?;
        Ok(path)
    }

    /// Read and verify one checkpoint file.
    pub fn load(path: &Path) -> Result<Self, ConvStencilError> {
        let text = std::fs::read_to_string(path).map_err(|e| read_err(path, e.to_string()))?;
        Self::decode(&text, path)
    }
}

/// Scan `dir` for checkpoints (optionally restricted to one job name),
/// newest step first, and return the first one that loads cleanly plus a
/// warning line for every file that had to be skipped (corrupt,
/// truncated, unreadable). Fails with [`ConvStencilError::ArtifactRead`]
/// only when no valid checkpoint exists at all.
pub fn load_latest(
    dir: &Path,
    job: Option<&str>,
) -> Result<(Checkpoint, Vec<String>), ConvStencilError> {
    let entries = std::fs::read_dir(dir).map_err(|e| read_err(dir, e.to_string()))?;
    let mut candidates: Vec<(u64, PathBuf)> = Vec::new();
    for entry in entries.flatten() {
        let path = entry.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if !name.ends_with(&format!(".{EXTENSION}")) {
            continue;
        }
        if let Some(job) = job {
            if !name.starts_with(&format!("{job}.step")) {
                continue;
            }
        }
        // Parse the trailing `.step<NNNNNNNN>.ckpt` for newest-first order;
        // unparseable names sort oldest so they are still tried last.
        let step = name
            .rsplit(".step")
            .next()
            .and_then(|rest| rest.strip_suffix(&format!(".{EXTENSION}")))
            .and_then(|digits| digits.parse::<u64>().ok())
            .unwrap_or(0);
        candidates.push((step, path));
    }
    if candidates.is_empty() {
        return Err(read_err(
            dir,
            match job {
                Some(job) => format!("no checkpoint files for job {job:?}"),
                None => "no checkpoint files".to_string(),
            },
        ));
    }
    candidates.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| b.1.cmp(&a.1)));
    let mut warnings = Vec::new();
    for (_, path) in &candidates {
        match Checkpoint::load(path) {
            Ok(ck) => return Ok((ck, warnings)),
            Err(e) => warnings.push(format!("skipping {}: {e}", path.display())),
        }
    }
    Err(read_err(
        dir,
        format!(
            "all {} checkpoint files are corrupt or unreadable ({})",
            candidates.len(),
            warnings.join("; ")
        ),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::breaker::BreakerState;

    fn sample() -> Checkpoint {
        Checkpoint {
            job: "heat".to_string(),
            dim: 2,
            radius: 1,
            weights: vec![0.0, 0.1, 0.0, 0.1, 0.6, 0.1, 0.0, 0.1, 0.0],
            fusion: 3,
            boundary: "dirichlet".to_string(),
            variant: [false, true, true, true],
            flags: [true, false, true],
            steps_total: 8,
            steps_done: 4,
            checkpoint_every: 2,
            grid_dims: vec![8, 16],
            grid_halo: 3,
            grid_data: (0..(8 + 6) * (16 + 6)).map(|i| (i as f64).sin()).collect(),
            counters: {
                let mut c = Counters::default();
                c.set_field("dmma_ops", 123);
                c.set_field("hang_stall_cycles", 7);
                c
            },
            launch_stats: LaunchStats {
                kernel_launches: 9,
                total_blocks: 81,
            },
            migrations: 1,
            degraded: false,
            checkpoints_written: 2,
            faults_detected: 3,
            retries: 1,
            pool_completed: 2,
            active_device: Some(1),
            sanitizer: None,
            devices: vec![
                DeviceCursor {
                    id: 0,
                    plan: Some(
                        FaultPlan::quiet(7)
                            .with_device_death_at(5)
                            .with_ecc_burst(1, 2)
                            .with_hang_at(3, 1000),
                    ),
                    fault_epoch: 2,
                    launch_attempts: 6,
                    dead: true,
                    breaker: BreakerState::Open { until_jobs: 4 },
                },
                DeviceCursor {
                    id: 1,
                    plan: None,
                    fault_epoch: 0,
                    launch_attempts: 3,
                    dead: false,
                    breaker: BreakerState::Closed {
                        consecutive_failures: 1,
                    },
                },
            ],
        }
    }

    #[test]
    fn encode_decode_round_trips_bit_exactly() {
        let ck = sample();
        let text = ck.encode();
        let back = Checkpoint::decode(&text, Path::new("mem")).expect("round trip");
        assert_eq!(back, ck);
        // f64 bit patterns survive exactly, including non-finite values.
        let mut odd = ck;
        odd.grid_data[0] = f64::NAN;
        odd.grid_data[1] = -0.0;
        odd.grid_data[2] = f64::INFINITY;
        let back = Checkpoint::decode(&odd.encode(), Path::new("mem")).expect("round trip");
        assert_eq!(back.grid_data[0].to_bits(), odd.grid_data[0].to_bits());
        assert_eq!(back.grid_data[1].to_bits(), odd.grid_data[1].to_bits());
        assert_eq!(back.grid_data[2].to_bits(), odd.grid_data[2].to_bits());
    }

    #[test]
    fn encoding_is_byte_identical_to_the_recorded_v1_files() {
        // CRC-64 and length of the whole file, as encoded by the
        // `format!("{:016x}")`-per-value codec this one replaced.
        let ck = sample();
        let text = ck.encode();
        assert_eq!(
            (crc64(text.as_bytes()), text.len()),
            (0x0b2f_85d6_4a3c_c8dd, 6567)
        );
        assert!(text.len() <= ck.encoded_capacity());
        let mut odd = ck;
        odd.grid_data[0] = f64::NAN;
        odd.grid_data[1] = -0.0;
        odd.grid_data[2] = f64::INFINITY;
        let text = odd.encode();
        assert_eq!(
            (crc64(text.as_bytes()), text.len()),
            (0x9a5c_674e_209d_1a2f, 6567)
        );
    }

    #[test]
    fn non_canonical_f64_lists_match_the_per_token_parser() {
        fn per_token(s: &str) -> Result<Vec<u64>, String> {
            s.split(',')
                .map(|tok| parse_f64_bits("grid_data", tok))
                .map(|r| r.map(f64::to_bits).map_err(|e| e.why))
                .collect()
        }
        let strided = |s: &str| -> Result<Vec<u64>, String> {
            parse_f64_list("grid_data", s)
                .map(|vs| vs.into_iter().map(f64::to_bits).collect())
                .map_err(|e| e.why)
        };
        let canonical = "3fe0000000000000,bff0000000000000,7ff8000000000000";
        assert_eq!(
            strided(canonical),
            Ok(vec![
                0x3fe0_0000_0000_0000,
                0xbff0_0000_0000_0000,
                0x7ff8_0000_0000_0000
            ])
        );
        let accepted = [
            "3FE0000000000000,bff0000000000000,7ff8000000000000", // uppercase digits
            "3fe0000000000000,+ff0000000000000,7ff8000000000000", // `+` prefix
            "3fe0000000000000,1,7ff8000000000000",                // 1-digit token
        ];
        let rejected = [
            "3fe0000000000000,,ff0000000000000,7ff8000000000000", // empty token
            "3fe0000000000000,bff0000000000000,",                 // trailing comma
            "3fe00000000000000,ff0000000000000,7ff8000000000000", // 17 digits
            "3fe0000000000000,bff000000000000g,7ff8000000000000", // non-hex byte
        ];
        for s in accepted {
            assert!(strided(s).is_ok(), "{s}");
            assert_eq!(strided(s), per_token(s), "{s}");
        }
        for s in rejected {
            assert!(strided(s).is_err(), "{s}");
            assert_eq!(strided(s), per_token(s), "{s}");
        }
    }

    #[test]
    fn a_large_odd_sized_grid_round_trips_bit_exactly() {
        let mut ck = sample();
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        ck.grid_data = (0..1_048_583)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                f64::from_bits(state)
            })
            .collect();
        let text = ck.encode();
        assert!(text.len() <= ck.encoded_capacity());
        let back = Checkpoint::decode(&text, Path::new("big")).expect("round trip");
        assert_eq!(back.grid_data.len(), ck.grid_data.len());
        assert!(back
            .grid_data
            .iter()
            .zip(&ck.grid_data)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn counts_that_do_not_fit_are_rejected_not_truncated() {
        fn with_header(payload: &str) -> String {
            format!(
                "{MAGIC} crc64={:016x} payload_bytes={}\n{payload}",
                crc64(payload.as_bytes()),
                payload.len()
            )
        }
        let text = sample().encode();
        let payload = text.split_once('\n').unwrap().1;
        let cases = [
            ("dim=2\n", "dim=257\n", "field `dim`"),
            (
                "breaker=closed:1\n",
                "breaker=closed:4294967296\n",
                "field `device.breaker`",
            ),
        ];
        for (from, to, want) in cases {
            assert!(payload.contains(from), "{from}");
            let bad = with_header(&payload.replace(from, to));
            let err = Checkpoint::decode(&bad, Path::new("m")).unwrap_err();
            assert!(err.to_string().contains(want), "{err}");
        }
    }

    #[test]
    fn truncation_and_corruption_are_rejected() {
        let text = sample().encode();
        let truncated = &text[..text.len() - 10];
        let err = Checkpoint::decode(truncated, Path::new("t")).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
        // Flip one payload byte without changing the length.
        let mut bytes = text.clone().into_bytes();
        let idx = text.find("grid_data=").unwrap() + 15;
        bytes[idx] ^= 0x01;
        let corrupt = String::from_utf8(bytes).unwrap();
        let err = Checkpoint::decode(&corrupt, Path::new("c")).unwrap_err();
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
    }

    #[test]
    fn load_latest_skips_corrupt_and_picks_newest_valid() {
        let dir = std::env::temp_dir().join(format!("ckpt_scan_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut ck = sample();
        ck.steps_done = 2;
        ck.save(&dir).unwrap();
        ck.steps_done = 4;
        ck.save(&dir).unwrap();
        ck.steps_done = 6;
        let newest = ck.save(&dir).unwrap();
        // Corrupt the newest file in place.
        let mut bytes = std::fs::read(&newest).unwrap();
        let n = bytes.len();
        bytes[n / 2] ^= 0xFF;
        std::fs::write(&newest, bytes).unwrap();
        let (loaded, warnings) = load_latest(&dir, Some("heat")).expect("fallback");
        assert_eq!(loaded.steps_done, 4, "newest valid wins");
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].contains("step00000006"), "{warnings:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn all_corrupt_is_a_typed_artifact_read_error() {
        let dir = std::env::temp_dir().join(format!("ckpt_bad_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("x.step00000001.ckpt"), "garbage").unwrap();
        let err = load_latest(&dir, None).unwrap_err();
        assert!(
            matches!(err, ConvStencilError::ArtifactRead { .. }),
            "{err:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
