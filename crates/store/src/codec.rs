//! The on-disk binary record format.
//!
//! Everything the store persists is encoded with the fixed-width,
//! big-endian primitives in this module — no `serde`, no varints, no
//! platform-dependent layouts. Integers are `u64` BE (usizes widened so
//! 32- and 64-bit builds agree), floats travel as their raw IEEE-754 bit
//! patterns (a warm value is *bit-identical* to the solve that produced
//! it, `-0.0` and NaN payloads included), and every variable-length
//! sequence is length-prefixed.
//!
//! A serialized store (file or wire bundle) is:
//!
//! ```text
//! +--------------------+----------------+
//! | magic  "FSCSTORE"  | version u32 BE |   12-byte header
//! +--------------------+----------------+
//! | len u32 BE | checksum u64 BE | payload (len bytes) |   record 0
//! | len u32 BE | checksum u64 BE | payload (len bytes) |   record 1
//! | …                                                  |
//! ```
//!
//! The checksum is the pinned FNV-1a/64 [`StableHasher`] over the
//! payload bytes — the same algorithm every stable hash in the workspace
//! uses, so the store adds no second hashing scheme. Each payload begins
//! with a one-byte artifact kind tag; unknown tags (future artifact
//! classes) are skipped as damaged rather than misread.
//!
//! Decoding is **total**: every parse failure — truncated input, bad
//! checksum, unknown tag, a circuit that fails IR validation, a schedule
//! cycle that would violate the scheduler's invariants — turns into a
//! dropped record, never a panic and never a wrong artifact. The
//! crash-safety proptests fuzz this loop with random truncations and
//! byte flips.

use crate::{Artifact, ScheduleArtifact, SmtArtifact, StaticsArtifact};
use fastsc_core::{CompileStats, CompiledProgram};
use fastsc_ir::hash::StableHasher;
use fastsc_ir::{Circuit, Gate, Instruction, Operands};
use fastsc_noise::{Cycle, CycleScratch, Frequencies, Schedule, ScheduledGate};
use std::sync::Arc;
use std::time::Duration;

/// File/bundle magic: identifies a byte stream as a FastSC artifact
/// store.
pub const MAGIC: &[u8; 8] = b"FSCSTORE";

/// Current format version. Bumped on any incompatible layout change; an
/// unknown version opens as an empty **read-only** store (clean cold
/// fall-back, the foreign file is preserved untouched).
pub const FORMAT_VERSION: u32 = 1;

/// Header length: magic + version.
pub const HEADER_LEN: usize = MAGIC.len() + 4;

/// Record kind tags (payload byte 0). Append-only, never renumbered —
/// the same discipline as `Gate::stable_code`.
const KIND_STATICS: u8 = 1;
const KIND_SMT: u8 = 2;
const KIND_SCHEDULE: u8 = 3;

/// The 12-byte header of every serialized store.
pub fn header() -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[..MAGIC.len()].copy_from_slice(MAGIC);
    h[MAGIC.len()..].copy_from_slice(&FORMAT_VERSION.to_be_bytes());
    h
}

/// FNV-1a/64 of `bytes` via the workspace's pinned [`StableHasher`].
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut h = StableHasher::new();
    h.write_bytes(bytes);
    h.finish()
}

// ---------------------------------------------------------------------
// Primitive writer/reader
// ---------------------------------------------------------------------

/// Append-only byte sink for record payloads.
#[derive(Debug, Default)]
struct Writer {
    out: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.out.push(v);
    }

    fn u64(&mut self, v: u64) {
        self.out.extend_from_slice(&v.to_be_bytes());
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn f64_bits(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// A length prefix, then every value's bits: `&[f64]` and a cycle's
    /// `&Frequencies` (in either layout) write the same bytes for the
    /// same values.
    fn f64_seq<'v, I>(&mut self, vs: I)
    where
        I: IntoIterator<Item = &'v f64>,
        I::IntoIter: ExactSizeIterator,
    {
        let vs = vs.into_iter();
        self.usize(vs.len());
        for &v in vs {
            self.f64_bits(v);
        }
    }
}

/// Cursor over a record payload; every read is bounds-checked and a
/// short read is a decode failure (`None`), not a panic.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn u8(&mut self) -> Option<u8> {
        let b = *self.bytes.get(self.pos)?;
        self.pos += 1;
        Some(b)
    }

    fn u64(&mut self) -> Option<u64> {
        let end = self.pos.checked_add(8)?;
        let chunk = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(u64::from_be_bytes(chunk.try_into().expect("8-byte slice")))
    }

    fn usize(&mut self) -> Option<usize> {
        usize::try_from(self.u64()?).ok()
    }

    /// A length prefix for `elem_bytes`-sized elements, rejected when the
    /// remaining input cannot possibly hold that many — so a corrupt
    /// length can never trigger an over-allocation.
    fn len_prefix(&mut self, elem_bytes: usize) -> Option<usize> {
        let n = self.usize()?;
        let need = n.checked_mul(elem_bytes.max(1))?;
        (need <= self.bytes.len() - self.pos).then_some(n)
    }

    fn f64_bits(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }

    fn f64_vec(&mut self) -> Option<Vec<f64>> {
        let n = self.len_prefix(8)?;
        (0..n).map(|_| self.f64_bits()).collect()
    }

    /// Appends a length-prefixed float sequence to `out`; fails unless
    /// it holds exactly `n` values.
    fn f64_row(&mut self, n: usize, out: &mut Vec<f64>) -> Option<()> {
        if self.len_prefix(8)? != n {
            return None;
        }
        for _ in 0..n {
            out.push(self.f64_bits()?);
        }
        Some(())
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn finished(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

// ---------------------------------------------------------------------
// Artifact payloads
// ---------------------------------------------------------------------

/// Encodes one artifact as a record payload (kind tag + body).
pub fn encode_artifact(artifact: &Artifact) -> Vec<u8> {
    let mut w = Writer::default();
    match artifact {
        Artifact::Statics(s) => {
            w.u8(KIND_STATICS);
            w.u64(s.device_fingerprint);
            w.u64(s.config_fingerprint);
            w.usize(s.colors.len());
            for &c in &s.colors {
                w.usize(c);
            }
            w.usize(s.color_count);
            w.f64_seq(&s.freqs);
        }
        Artifact::Smt(m) => {
            w.u8(KIND_SMT);
            w.u64(m.device_fingerprint);
            w.u64(m.config_fingerprint);
            w.usize(m.k);
            w.u64(m.band_lo);
            w.u64(m.band_hi);
            w.u64(m.alpha);
            w.u64(m.tol);
            w.f64_seq(&m.values);
        }
        Artifact::Schedule(s) => {
            w.u8(KIND_SCHEDULE);
            w.u64(s.device_fingerprint);
            w.u64(s.program_hash);
            w.u8(s.strategy_code);
            w.u64(s.config_fingerprint);
            encode_circuit(&mut w, &s.program);
            encode_schedule(&mut w, &s.compiled.schedule);
            encode_stats(&mut w, &s.compiled.stats);
        }
    }
    w.out
}

/// Decodes one record payload. `None` on any malformation — including
/// trailing garbage after a well-formed body, which signals a corrupt
/// length that happened to parse.
pub fn decode_artifact(payload: &[u8]) -> Option<Artifact> {
    let mut r = Reader::new(payload);
    let artifact = match r.u8()? {
        KIND_STATICS => {
            let device_fingerprint = r.u64()?;
            let config_fingerprint = r.u64()?;
            let n = r.len_prefix(8)?;
            let colors: Vec<usize> = (0..n).map(|_| r.usize()).collect::<Option<_>>()?;
            let color_count = r.usize()?;
            let freqs = r.f64_vec()?;
            // The coloring and the frequency table index the same
            // couplings; a mismatch is corruption, not a variant layout.
            if freqs.len() != colors.len() {
                return None;
            }
            Artifact::Statics(StaticsArtifact {
                device_fingerprint,
                config_fingerprint,
                colors,
                color_count,
                freqs,
            })
        }
        KIND_SMT => Artifact::Smt(SmtArtifact {
            device_fingerprint: r.u64()?,
            config_fingerprint: r.u64()?,
            k: r.usize()?,
            band_lo: r.u64()?,
            band_hi: r.u64()?,
            alpha: r.u64()?,
            tol: r.u64()?,
            values: r.f64_vec()?,
        }),
        KIND_SCHEDULE => {
            let device_fingerprint = r.u64()?;
            let program_hash = r.u64()?;
            let strategy_code = r.u8()?;
            let config_fingerprint = r.u64()?;
            let program = decode_circuit(&mut r)?;
            let schedule = decode_schedule(&mut r)?;
            let stats = decode_stats(&mut r)?;
            Artifact::Schedule(ScheduleArtifact {
                device_fingerprint,
                program_hash,
                strategy_code,
                config_fingerprint,
                program,
                compiled: Arc::new(CompiledProgram { schedule, stats }),
            })
        }
        _ => return None,
    };
    r.finished().then_some(artifact)
}

fn encode_instruction(w: &mut Writer, inst: &Instruction) {
    let (tag, params) = inst.gate.stable_code();
    w.u8(tag);
    w.u64(params);
    match inst.operands {
        Operands::One(q) => {
            w.u8(1);
            w.usize(q);
        }
        Operands::Two(a, b) => {
            w.u8(2);
            w.usize(a);
            w.usize(b);
        }
    }
}

fn decode_instruction(r: &mut Reader<'_>) -> Option<Instruction> {
    let gate = Gate::from_stable_code(r.u8()?, r.u64()?)?;
    let operands = match r.u8()? {
        1 => Operands::One(r.usize()?),
        2 => Operands::Two(r.usize()?, r.usize()?),
        _ => return None,
    };
    // Arity must match the gate, or downstream invariants break.
    let arity = match operands {
        Operands::One(_) => 1,
        Operands::Two(..) => 2,
    };
    (gate.arity() == arity).then_some(Instruction { gate, operands })
}

fn encode_circuit(w: &mut Writer, circuit: &Circuit) {
    w.usize(circuit.n_qubits());
    w.usize(circuit.len());
    for inst in circuit.instructions() {
        encode_instruction(w, inst);
    }
}

/// Rebuilds a circuit through [`Circuit::push`], so every IR invariant
/// (operands in range, two-qubit operands distinct) is re-validated on
/// the way in — a record that would build an invalid circuit is dropped.
fn decode_circuit(r: &mut Reader<'_>) -> Option<Circuit> {
    let n_qubits = r.usize()?;
    // 2 u64 words per qubit is far below any instruction's footprint;
    // this bound only rejects absurd counts a corrupt length could claim.
    if n_qubits > r.bytes.len() {
        return None;
    }
    let len = r.len_prefix(10)?;
    let mut circuit = Circuit::new(n_qubits);
    for _ in 0..len {
        let inst = decode_instruction(r)?;
        circuit.push(inst).ok()?;
    }
    Some(circuit)
}

fn encode_schedule(w: &mut Writer, schedule: &Schedule) {
    w.usize(schedule.n_qubits());
    w.usize(schedule.cycles().len());
    for cycle in schedule.cycles() {
        w.usize(cycle.gates.len());
        for g in &cycle.gates {
            encode_instruction(w, &g.instruction);
            match g.interaction_freq {
                None => w.u8(0),
                Some(f) => {
                    w.u8(1);
                    w.f64_bits(f);
                }
            }
        }
        w.f64_seq(&cycle.frequencies);
        w.usize(cycle.active_couplings.len());
        for &(a, b) in &cycle.active_couplings {
            w.usize(a);
            w.usize(b);
        }
        w.f64_bits(cycle.duration_ns);
    }
}

/// Rebuilds a schedule cycle by cycle, laying every cycle's frequency
/// row into one value block that the decoded cycles are windows onto.
/// Every condition [`Schedule::push_cycle_with`] enforces by panicking is
/// pre-checked here and turned into a decode failure instead, so a
/// damaged record can never abort the process — and the rebuilt schedule
/// then passes exactly the validation a freshly compiled one does,
/// through one reused scratch.
fn decode_schedule(r: &mut Reader<'_>) -> Option<Schedule> {
    let n_qubits = r.usize()?;
    if n_qubits > r.bytes.len() {
        return None;
    }
    let n_cycles = r.len_prefix(9)?;
    // Every cycle stores its row, 8 bytes a value: a count the payload
    // cannot hold fails before the block is reserved.
    let n_values = n_qubits.checked_mul(n_cycles)?;
    if n_values.checked_mul(8)? > r.remaining() {
        return None;
    }
    let mut rows = Vec::with_capacity(n_values);
    let mut cycles = Vec::with_capacity(n_cycles);
    let mut used = vec![usize::MAX; n_qubits];
    for stamp in 0..n_cycles {
        let n_gates = r.len_prefix(10)?;
        let mut gates = Vec::with_capacity(n_gates);
        for _ in 0..n_gates {
            let instruction = decode_instruction(r)?;
            for q in instruction.operands {
                if q >= n_qubits || used[q] == stamp {
                    return None;
                }
                used[q] = stamp;
            }
            let interaction_freq = match r.u8()? {
                0 => None,
                1 => Some(r.f64_bits()?),
                _ => return None,
            };
            gates.push(ScheduledGate { instruction, interaction_freq });
        }
        r.f64_row(n_qubits, &mut rows)?;
        let n_couplings = r.len_prefix(16)?;
        let active_couplings: Vec<(usize, usize)> =
            (0..n_couplings).map(|_| Some((r.usize()?, r.usize()?))).collect::<Option<_>>()?;
        let duration_ns = r.f64_bits()?;
        if duration_ns.is_nan() || duration_ns < 0.0 {
            return None;
        }
        cycles.push((gates, active_couplings, duration_ns));
    }
    let rows: Arc<[f64]> = rows.into();
    let mut schedule = Schedule::with_capacity(n_qubits, n_cycles);
    let mut scratch = CycleScratch::new();
    for (c, (gates, active_couplings, duration_ns)) in cycles.into_iter().enumerate() {
        let frequencies = Frequencies::row(&rows, c * n_qubits..(c + 1) * n_qubits);
        let cycle = Cycle { gates, frequencies, active_couplings, duration_ns };
        schedule.push_cycle_with(cycle, &mut scratch);
    }
    Some(schedule)
}

fn encode_stats(w: &mut Writer, stats: &CompileStats) {
    w.usize(stats.swaps_inserted);
    w.usize(stats.lowered_gate_count);
    w.usize(stats.max_colors_used);
    w.usize(stats.smt_calls);
    w.usize(stats.deferred_gates);
    // Duration as whole nanoseconds: u64 holds ~584 years of compile
    // time, and determinism is asserted on schedules, not wall clocks.
    w.u64(stats.compile_time.as_nanos().min(u128::from(u64::MAX)) as u64);
}

fn decode_stats(r: &mut Reader<'_>) -> Option<CompileStats> {
    Some(CompileStats {
        swaps_inserted: r.usize()?,
        lowered_gate_count: r.usize()?,
        max_colors_used: r.usize()?,
        smt_calls: r.usize()?,
        deferred_gates: r.usize()?,
        compile_time: Duration::from_nanos(r.u64()?),
    })
}

// ---------------------------------------------------------------------
// Bundles (the file body and the wire export share this layout)
// ---------------------------------------------------------------------

/// Appends one framed record (length + checksum + payload) to `out`.
pub fn append_record(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(&checksum(payload).to_be_bytes());
    out.extend_from_slice(payload);
}

/// Serializes artifacts as a self-contained bundle: header + records.
/// The same bytes are valid as a store file — `cache_import` and
/// [`ArtifactStore::open`](crate::ArtifactStore::open) share one parser.
pub fn encode_bundle(artifacts: &[Artifact]) -> Vec<u8> {
    let mut out = header().to_vec();
    for artifact in artifacts {
        append_record(&mut out, &encode_artifact(artifact));
    }
    out
}

/// The outcome of scanning a serialized store.
#[derive(Debug, Default)]
pub struct ScanOutcome {
    /// Every artifact that decoded and verified, in record order.
    pub artifacts: Vec<Artifact>,
    /// Records discarded: bad checksum, unknown kind, failed validation.
    pub dropped: usize,
    /// Byte offset just past the last structurally sound record — the
    /// truncation point for a torn tail.
    pub good_len: usize,
    /// Bytes past `good_len` (a torn tail from an interrupted append).
    pub torn_bytes: usize,
    /// The header belongs to a different (future) format version, or is
    /// not a FastSC store at all: nothing was read and the caller must
    /// not write.
    pub foreign: bool,
}

/// Scans `bytes` as a serialized store, recovering everything that
/// verifies. Total: never panics, never errors — corruption only shrinks
/// the result.
pub fn scan(bytes: &[u8]) -> ScanOutcome {
    let mut outcome = ScanOutcome::default();
    let head = header();
    if bytes.len() < HEADER_LEN || bytes[..MAGIC.len()] != *MAGIC {
        // A strict prefix of our own header is a torn initial write —
        // truncate to empty and start over. Anything else is foreign.
        if head.starts_with(bytes) {
            outcome.torn_bytes = bytes.len();
        } else {
            outcome.foreign = true;
        }
        return outcome;
    }
    if bytes[MAGIC.len()..HEADER_LEN] != FORMAT_VERSION.to_be_bytes() {
        outcome.foreign = true;
        return outcome;
    }
    let mut pos = HEADER_LEN;
    outcome.good_len = pos;
    while pos < bytes.len() {
        // Frame: 4-byte length + 8-byte checksum + payload. Anything
        // short of a complete frame is a torn tail.
        let Some(frame_head) = bytes.get(pos..pos + 12) else { break };
        let len = u32::from_be_bytes(frame_head[..4].try_into().expect("4 bytes")) as usize;
        let Some(payload) = bytes.get(pos + 12..pos + 12 + len) else { break };
        let expected = u64::from_be_bytes(frame_head[4..12].try_into().expect("8 bytes"));
        pos += 12 + len;
        if checksum(payload) == expected {
            match decode_artifact(payload) {
                Some(artifact) => outcome.artifacts.push(artifact),
                // Checksummed but undecodable: written by a buggy or
                // newer producer — drop it, keep scanning (framing is
                // still sound).
                None => outcome.dropped += 1,
            }
        } else {
            // Payload corruption with intact framing: drop this record,
            // keep scanning. (If the *length* was corrupted, subsequent
            // "records" fail their checksums too and land here, until a
            // frame runs off the end and the remainder is truncated.)
            outcome.dropped += 1;
        }
        outcome.good_len = pos;
    }
    outcome.torn_bytes = bytes.len() - outcome.good_len;
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastsc_core::{CompileContext, Compiler, CompilerConfig, Strategy};
    use fastsc_device::Device;
    use fastsc_workloads::Benchmark;

    fn sample_schedule_artifact() -> ScheduleArtifact {
        let device = Device::grid(3, 3, 7);
        let program = Benchmark::Xeb(9, 3).build(7);
        let compiler = Compiler::new(device.clone(), CompilerConfig::default());
        let compiled = compiler.compile(&program, Strategy::ColorDynamic).expect("compiles");
        ScheduleArtifact {
            device_fingerprint: 0x1111,
            program_hash: program.structural_hash(),
            strategy_code: Strategy::ColorDynamic.stable_code(),
            config_fingerprint: CompilerConfig::default().fingerprint(),
            program,
            compiled: Arc::new(compiled),
        }
    }

    #[test]
    fn statics_round_trip_is_bit_exact() {
        let artifact = Artifact::Statics(StaticsArtifact {
            device_fingerprint: 1,
            config_fingerprint: 2,
            colors: vec![0, 1, 2, 0],
            color_count: 3,
            freqs: vec![6.1, -0.0, f64::MIN_POSITIVE, 7.25],
        });
        let payload = encode_artifact(&artifact);
        let back = decode_artifact(&payload).expect("decodes");
        let Artifact::Statics(s) = back else { panic!("wrong kind") };
        assert_eq!(s.colors, vec![0, 1, 2, 0]);
        assert_eq!(s.color_count, 3);
        let bits: Vec<u64> = s.freqs.iter().map(|f| f.to_bits()).collect();
        assert_eq!(bits[1], (-0.0f64).to_bits(), "float bits must survive exactly");
        assert_eq!(bits.len(), 4);
    }

    #[test]
    fn empty_statics_round_trip_and_seed_a_coupling_free_context() {
        // A coupling-free device's statics are empty; they persist and
        // hydrate like any other assignment.
        let device = Device::grid(1, 1, 3);
        let config = CompilerConfig::default();
        let solved = fastsc_core::CompileContext::new(device.clone(), config).expect("context");
        let statics = solved.statics().expect("empty statics").clone();
        let artifact = Artifact::Statics(StaticsArtifact {
            device_fingerprint: 5,
            config_fingerprint: 6,
            colors: statics.colors,
            color_count: statics.color_count,
            freqs: statics.freqs,
        });
        let payload = encode_artifact(&artifact);
        let Artifact::Statics(s) = decode_artifact(&payload).expect("decodes") else {
            panic!("wrong kind")
        };
        assert!(s.colors.is_empty() && s.freqs.is_empty());
        assert_eq!(s.color_count, 0);
        let fresh = fastsc_core::CompileContext::new(device, config).expect("context");
        assert!(fresh.seed_statics(fastsc_core::StaticAssignment {
            colors: s.colors,
            color_count: s.color_count,
            freqs: s.freqs,
        }));
        assert_eq!(fresh.export_statics().map(|a| a.color_count), Some(0));
    }

    #[test]
    fn smt_round_trip_is_bit_exact() {
        let artifact = Artifact::Smt(SmtArtifact {
            device_fingerprint: 3,
            config_fingerprint: 4,
            k: 5,
            band_lo: 6.0f64.to_bits(),
            band_hi: 7.0f64.to_bits(),
            alpha: (-0.3f64).to_bits(),
            tol: 1e-3f64.to_bits(),
            values: vec![6.9, 6.5, 6.1, 6.05, 6.01],
        });
        let payload = encode_artifact(&artifact);
        let Artifact::Smt(m) = decode_artifact(&payload).expect("decodes") else {
            panic!("wrong kind")
        };
        assert_eq!(m.k, 5);
        assert_eq!(m.alpha, (-0.3f64).to_bits());
        assert_eq!(m.values.len(), 5);
    }

    #[test]
    fn schedule_round_trip_preserves_schedule_hash() {
        let artifact = sample_schedule_artifact();
        let original_hash = artifact.compiled.schedule.stable_hash();
        let payload = encode_artifact(&Artifact::Schedule(artifact.clone()));
        let Artifact::Schedule(back) = decode_artifact(&payload).expect("decodes") else {
            panic!("wrong kind")
        };
        assert_eq!(back.compiled.schedule, artifact.compiled.schedule);
        assert_eq!(back.compiled.schedule.stable_hash(), original_hash);
        assert_eq!(back.program, artifact.program, "collision-defense payload round-trips");
        assert_eq!(back.program.structural_hash(), artifact.program_hash);
        assert_eq!(
            back.compiled.stats.lowered_gate_count,
            artifact.compiled.stats.lowered_gate_count
        );
    }

    #[test]
    fn a_decoded_scale_tier_baseline_u_schedule_hashes_like_the_original() {
        // ~2,000 cycles over 1,024 qubits, almost all of them pairs over
        // the parking vector: decoding lays them out as dense rows.
        let tier = fastsc_workloads::scale_tiers()
            .into_iter()
            .find(|t| t.n_qubits() == 1024)
            .expect("the ladder has a 1024-qubit tier");
        let device = Device::grid(tier.side, tier.side, tier.seed);
        let compiler = Compiler::new(device, CompilerConfig::default());
        let program = tier.circuit();
        let compiled = compiler.compile(&program, Strategy::BaselineU).expect("compiles");
        let artifact = ScheduleArtifact {
            device_fingerprint: 0x2222,
            program_hash: program.structural_hash(),
            strategy_code: Strategy::BaselineU.stable_code(),
            config_fingerprint: CompilerConfig::default().fingerprint(),
            program,
            compiled: Arc::new(compiled),
        };
        let original = &artifact.compiled.schedule;
        let payload = encode_artifact(&Artifact::Schedule(artifact.clone()));
        let Artifact::Schedule(back) = decode_artifact(&payload).expect("decodes") else {
            panic!("wrong kind")
        };
        assert!(original.depth() > 1_000, "depth {}", original.depth());
        assert_eq!(back.compiled.schedule.stable_hash(), original.stable_hash());
        assert_eq!(&back.compiled.schedule, original);
    }

    /// `artifact`'s schedule with every cycle's frequencies stored in one
    /// layout: overlays on `parking` (`Some`), or dense vectors (`None`).
    fn relaid(artifact: &ScheduleArtifact, parking: Option<&Arc<[f64]>>) -> Schedule {
        let schedule = &artifact.compiled.schedule;
        let mut relaid = Schedule::new(schedule.n_qubits());
        for cycle in schedule.cycles() {
            let values = cycle.frequencies.to_vec();
            let frequencies = match parking {
                Some(base) => {
                    let retuned = (0..values.len())
                        .filter(|&q| values[q].to_bits() != base[q].to_bits())
                        .map(|q| (q, values[q]))
                        .collect();
                    Frequencies::overlay(Arc::clone(base), retuned)
                }
                None => values.into(),
            };
            relaid.push_cycle(Cycle { frequencies, ..cycle.clone() });
        }
        relaid
    }

    #[test]
    fn overlay_and_dense_schedules_encode_to_the_same_pinned_bytes() {
        let artifact = sample_schedule_artifact();
        let context = CompileContext::new(Device::grid(3, 3, 7), CompilerConfig::default());
        let parking: Arc<[f64]> = context.expect("context").parking().into();
        // Zero the wall-clock compile time so the payload is reproducible.
        let stats = CompileStats { compile_time: Duration::ZERO, ..artifact.compiled.stats };
        let encode = |schedule: Schedule| {
            let compiled = Arc::new(CompiledProgram { schedule, stats });
            encode_artifact(&Artifact::Schedule(ScheduleArtifact {
                compiled,
                ..artifact.clone()
            }))
        };
        let bytes = encode(relaid(&artifact, None));
        assert_eq!(encode(relaid(&artifact, Some(&parking))), bytes);
        assert_eq!(encode(artifact.compiled.schedule.clone()), bytes);
        // The bytes the dense-only schedule model wrote for this artifact:
        // the layout moved neither the format nor its version.
        assert_eq!(checksum(&bytes), 0x5d16_7f7f_47b9_acdd, "pinned payload digest moved");
        let Artifact::Schedule(back) = decode_artifact(&bytes).expect("decodes") else {
            panic!("wrong kind")
        };
        let overlay = relaid(&artifact, Some(&parking));
        assert_eq!(back.compiled.schedule, overlay);
        assert_eq!(back.compiled.schedule.stable_hash(), overlay.stable_hash());
    }

    #[test]
    fn any_single_byte_flip_in_a_payload_is_rejected_or_harmless() {
        // The checksum catches the flip at scan level; this test pins
        // the *decoder*: even fed a corrupt payload directly, it either
        // fails cleanly or produces a structurally valid artifact —
        // never a panic.
        let artifact = sample_schedule_artifact();
        let payload = encode_artifact(&Artifact::Schedule(artifact));
        for i in (0..payload.len()).step_by(7) {
            let mut bent = payload.clone();
            bent[i] ^= 0x40;
            let _ = decode_artifact(&bent); // must not panic
        }
    }

    #[test]
    fn trailing_garbage_fails_decode() {
        let artifact = Artifact::Smt(SmtArtifact {
            device_fingerprint: 1,
            config_fingerprint: 1,
            k: 1,
            band_lo: 0,
            band_hi: 0,
            alpha: 0,
            tol: 0,
            values: vec![6.5],
        });
        let mut payload = encode_artifact(&artifact);
        payload.push(0);
        assert!(decode_artifact(&payload).is_none(), "over-long payload must be rejected");
    }

    #[test]
    fn bundle_scan_recovers_everything() {
        let artifacts = vec![
            Artifact::Smt(SmtArtifact {
                device_fingerprint: 1,
                config_fingerprint: 2,
                k: 2,
                band_lo: 0,
                band_hi: 0,
                alpha: 0,
                tol: 0,
                values: vec![6.5, 6.1],
            }),
            Artifact::Schedule(sample_schedule_artifact()),
        ];
        let bytes = encode_bundle(&artifacts);
        let outcome = scan(&bytes);
        assert!(!outcome.foreign);
        assert_eq!(outcome.artifacts.len(), 2);
        assert_eq!(outcome.dropped, 0);
        assert_eq!(outcome.good_len, bytes.len());
        assert_eq!(outcome.torn_bytes, 0);
    }

    #[test]
    fn torn_tail_truncates_to_last_good_record() {
        let artifacts = vec![Artifact::Smt(SmtArtifact {
            device_fingerprint: 1,
            config_fingerprint: 2,
            k: 1,
            band_lo: 0,
            band_hi: 0,
            alpha: 0,
            tol: 0,
            values: vec![6.5],
        })];
        let mut bytes = encode_bundle(&artifacts);
        let full = bytes.len();
        append_record(&mut bytes, &encode_artifact(&artifacts[0]));
        bytes.truncate(bytes.len() - 3); // interrupted append
        let outcome = scan(&bytes);
        assert_eq!(outcome.artifacts.len(), 1);
        assert_eq!(outcome.good_len, full);
        assert_eq!(outcome.torn_bytes, bytes.len() - full);
        assert_eq!(outcome.dropped, 0, "a torn tail is truncation, not a damaged record");
    }

    #[test]
    fn flipped_checksum_byte_drops_only_that_record() {
        let smt = |k: usize| {
            Artifact::Smt(SmtArtifact {
                device_fingerprint: 1,
                config_fingerprint: 2,
                k,
                band_lo: 0,
                band_hi: 0,
                alpha: 0,
                tol: 0,
                values: vec![6.5; k],
            })
        };
        let bytes = encode_bundle(&[smt(1), smt(2), smt(3)]);
        // Flip one byte of record 1's checksum (header 12 + frame of
        // record 0, then 4 length bytes into record 1's frame).
        let rec0_payload = encode_artifact(&smt(1)).len();
        let flip_at = HEADER_LEN + 12 + rec0_payload + 4;
        let mut bent = bytes.clone();
        bent[flip_at] ^= 0xff;
        let outcome = scan(&bent);
        assert_eq!(outcome.dropped, 1, "exactly the damaged record is dropped");
        assert_eq!(outcome.artifacts.len(), 2, "neighbors survive");
        assert_eq!(outcome.torn_bytes, 0);
    }

    #[test]
    fn unknown_version_is_foreign_and_empty() {
        let mut bytes = encode_bundle(&[]);
        bytes[MAGIC.len()] ^= 0x01; // version 1 -> some other version
        let outcome = scan(&bytes);
        assert!(outcome.foreign);
        assert!(outcome.artifacts.is_empty());
    }

    #[test]
    fn alien_bytes_are_foreign() {
        let outcome = scan(b"PNG\x89 definitely not a store");
        assert!(outcome.foreign);
        assert!(outcome.artifacts.is_empty());
    }

    #[test]
    fn torn_header_prefix_truncates_to_empty() {
        let outcome = scan(&header()[..5]);
        assert!(!outcome.foreign, "our own torn header is recoverable, not foreign");
        assert_eq!(outcome.torn_bytes, 5);
        assert_eq!(outcome.good_len, 0);
    }
}
