//! Golden schedule corpus: pins `(stable_hash, depth, deferred_gates,
//! max_colors_used)` for a fixed set of compiles, so an engine change
//! that claims bit-identical schedules has to prove it.
//!
//! - [`golden_schedules_tier1`] runs the Fig. 9 suite × all five
//!   strategies on the paper-seed grids (Baseline G on the
//!   tunable-coupler copy) at six configs, plus the 64-qubit scale tier
//!   whole-device and partitioned. It pins one line per compile.
//! - [`golden_schedules_full_sweep`] (ignored; run it in release with
//!   `cargo test --release -p fastsc-core --test schedule_golden --
//!   --ignored`) runs the suite on five device families at twelve configs,
//!   plus all three scale tiers whole-device, `with_partition` and
//!   `with_partition_auto`. It pins one digest line per
//!   `(family, config)` group, folding every compile of the group.
//!
//! On a mismatch each test prints the actual line of every compile or
//! group that differs, so an intentional re-pin is a copy-paste. The full
//! sweep also prints the per-compile lines of a differing group, which
//! can be diffed against the same output of the previous engine.
//!
//! A compile outcome is `hash depth deferred colors` on success, `err
//! <message>` on a typed error, or `panic` when the compile panics (no
//! pinned compile does: the four that did, partitioned Baseline S/G
//! compiles with a coupling-free region, were re-pinned when such a
//! region's statics became empty instead of a zero-color `smt_find`).
//! Express2D is left out at `d ≥ 2`, where its static solve takes
//! seconds.

use fastsc_core::{CompileError, CompiledProgram, Compiler, CompilerConfig, Strategy};
use fastsc_device::{CouplerKind, Device};
use fastsc_graph::topology::Topology;
use fastsc_ir::decompose::Strategy as Lowering;
use fastsc_ir::hash::StableHasher;
use fastsc_ir::Circuit;
use fastsc_workloads::{scale_tiers, Benchmark};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Device and program seed of the paper workloads.
const SEED: u64 = 2020;

fn short(strategy: Strategy) -> &'static str {
    match strategy {
        Strategy::BaselineN => "N",
        Strategy::BaselineG => "G",
        Strategy::BaselineU => "U",
        Strategy::BaselineS => "S",
        Strategy::ColorDynamic => "CD",
    }
}

/// The smallest square side that fits `n` program qubits (at least 2).
fn side_for(n: usize) -> usize {
    ((n as f64).sqrt().ceil() as usize).max(2)
}

/// One compile's outcome in golden-line form (without its label).
fn outcome(result: std::thread::Result<Result<CompiledProgram, CompileError>>) -> String {
    match result {
        Ok(Ok(c)) => format!(
            "{:016x} {} {} {}",
            c.schedule.stable_hash(),
            c.schedule.depth(),
            c.stats.deferred_gates,
            c.stats.max_colors_used
        ),
        Ok(Err(e)) => format!("err {e}"),
        Err(_) => "panic".to_string(),
    }
}

fn compile_line(compiler: &Compiler, program: &Circuit, strategy: Strategy) -> String {
    outcome(catch_unwind(AssertUnwindSafe(|| compiler.compile(program, strategy))))
}

/// Compilers shared per `(device key, config key)`, so contexts and SMT
/// memos stay warm across the compiles of one group.
#[derive(Default)]
struct Compilers(BTreeMap<(String, String), Compiler>);

impl Compilers {
    fn get(
        &mut self,
        device_key: &str,
        config_key: &str,
        build: impl FnOnce() -> (Device, CompilerConfig),
    ) -> &Compiler {
        self.0.entry((device_key.to_string(), config_key.to_string())).or_insert_with(|| {
            let (device, config) = build();
            Compiler::new(device, config)
        })
    }
}

/// Compares `actual` lines (`label outcome`) against the `golden` table
/// and panics listing every difference, printing the actual line of each
/// so that a deliberate re-pin is a copy-paste.
fn check(golden: &str, actual: &[String]) {
    let pinned: BTreeMap<&str, &str> = golden
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .map(|l| l.split_once(" = ").expect("golden line is `label = outcome`"))
        .collect();
    let mut seen = std::collections::BTreeSet::new();
    let mut diffs = Vec::new();
    for line in actual {
        let (label, got) = line.split_once(" = ").expect("actual line is `label = outcome`");
        seen.insert(label);
        match pinned.get(label) {
            Some(&want) if want == got => {}
            Some(&want) => diffs.push(format!("{line}    (pinned: {want})")),
            None => diffs.push(format!("{line}    (not pinned)")),
        }
    }
    for label in pinned.keys().filter(|l| !seen.contains(*l)) {
        diffs.push(format!("{label}    (pinned but not compiled)"));
    }
    if !diffs.is_empty() {
        for d in &diffs {
            println!("{d}");
        }
        panic!(
            "{} of {} golden lines differ (actual lines printed above)",
            diffs.len(),
            actual.len()
        );
    }
}

fn config_with(f: impl FnOnce(&mut CompilerConfig)) -> CompilerConfig {
    let mut config = CompilerConfig::default();
    f(&mut config);
    config
}

/// The six tier-1 configs: the default and one change each.
fn tier1_configs() -> Vec<(&'static str, CompilerConfig)> {
    vec![
        ("default", CompilerConfig::default()),
        ("d0", config_with(|c| c.crosstalk_distance = 0)),
        ("d2", config_with(|c| c.crosstalk_distance = 2)),
        ("mc2", config_with(|c| c.max_colors = Some(2))),
        ("ct1", config_with(|c| c.conflict_threshold = 1)),
        ("cz", config_with(|c| c.decomposition = Lowering::CzOnly)),
    ]
}

/// The twelve full-sweep configs: the default and one change each.
fn sweep_configs() -> Vec<(&'static str, CompilerConfig)> {
    vec![
        ("default", CompilerConfig::default()),
        ("d0", config_with(|c| c.crosstalk_distance = 0)),
        ("d2", config_with(|c| c.crosstalk_distance = 2)),
        ("mc1", config_with(|c| c.max_colors = Some(1))),
        ("mc2", config_with(|c| c.max_colors = Some(2))),
        ("mc3", config_with(|c| c.max_colors = Some(3))),
        ("ct1", config_with(|c| c.conflict_threshold = 1)),
        ("ct2", config_with(|c| c.conflict_threshold = 2)),
        ("ct8", config_with(|c| c.conflict_threshold = 8)),
        ("cz", config_with(|c| c.decomposition = Lowering::CzOnly)),
        ("iswap", config_with(|c| c.decomposition = Lowering::ISwapOnly)),
        ("sqiswap", config_with(|c| c.decomposition = Lowering::SqrtISwapOnly)),
    ]
}

/// The paper-seed grid for `n` program qubits; Baseline G gets the
/// tunable-coupler copy, as in the Fig. 9 harness.
fn paper_grid(n: usize, strategy: Strategy) -> (String, Device) {
    let side = side_for(n);
    let grid = Device::grid(side, side, SEED);
    if strategy == Strategy::BaselineG {
        (format!("tgrid{side}"), grid.with_coupler(CouplerKind::tunable(0.0)))
    } else {
        (format!("grid{side}"), grid)
    }
}

/// `(label, lines)` for the scale tiers in `tiers` under each mode.
fn tier_lines(tiers: &[usize], modes: &[&str]) -> Vec<String> {
    let mut lines = Vec::new();
    for tier in scale_tiers().into_iter().filter(|t| tiers.contains(&t.n_qubits())) {
        let device = Device::grid(tier.side, tier.side, tier.seed);
        let program = tier.circuit();
        for &mode in modes {
            let config = match mode {
                "whole" => CompilerConfig::default(),
                "part" => CompilerConfig::with_partition(tier.partition_cap),
                "auto" => CompilerConfig::with_partition_auto(),
                other => unreachable!("unknown mode {other}"),
            };
            let compiler = Compiler::new(device.clone(), config);
            for strategy in Strategy::all() {
                lines.push(format!(
                    "{} {mode} {} = {}",
                    tier.label(),
                    short(strategy),
                    compile_line(&compiler, &program, strategy)
                ));
            }
        }
    }
    lines
}

#[test]
fn golden_schedules_tier1() {
    let suite = Benchmark::fig9_suite();
    let programs: Vec<Circuit> = suite.iter().map(|b| b.build(SEED)).collect();
    let mut compilers = Compilers::default();
    let mut actual = Vec::new();
    for (cfg_label, config) in tier1_configs() {
        for (bench, program) in suite.iter().zip(&programs) {
            for strategy in Strategy::all() {
                let (dev_label, device) = paper_grid(bench.n_qubits(), strategy);
                let compiler = compilers.get(&dev_label, cfg_label, || (device, config));
                actual.push(format!(
                    "{cfg_label} {bench} {} = {}",
                    short(strategy),
                    compile_line(compiler, program, strategy)
                ));
            }
        }
    }
    actual.extend(tier_lines(&[64], &["whole", "part"]));
    check(TIER1, &actual);
}

/// The full sweep's device families, each sized to the program.
fn family_device(family: &str, n: usize) -> (String, Device) {
    let side = side_for(n);
    let nq = side * side;
    match family {
        "grid" => (format!("grid{side}"), Device::grid(side, side, SEED)),
        "tgrid" => (
            format!("tgrid{side}"),
            Device::grid(side, side, SEED).with_coupler(CouplerKind::tunable(0.0)),
        ),
        "linear" => (format!("linear{nq}"), Device::from_topology(Topology::Linear, nq, SEED)),
        "ex1d" => {
            (format!("ex1d{nq}"), Device::from_topology(Topology::Express1D { k: 2 }, nq, SEED))
        }
        "ex2d" => {
            (format!("ex2d{nq}"), Device::from_topology(Topology::Express2D { k: 2 }, nq, SEED))
        }
        other => unreachable!("unknown family {other}"),
    }
}

#[test]
#[ignore = "full golden sweep; run in release with --ignored"]
fn golden_schedules_full_sweep() {
    let suite = Benchmark::fig9_suite();
    let programs: Vec<Circuit> = suite.iter().map(|b| b.build(SEED)).collect();
    let mut compilers = Compilers::default();
    let mut actual = Vec::new();
    let mut details: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for family in ["grid", "tgrid", "linear", "ex1d", "ex2d"] {
        for (cfg_label, config) in sweep_configs() {
            if family == "ex2d" && config.crosstalk_distance >= 2 {
                continue;
            }
            let group = format!("{family} {cfg_label}");
            let mut digest = StableHasher::new();
            let mut lines = Vec::new();
            for (bench, program) in suite.iter().zip(&programs) {
                for strategy in Strategy::all() {
                    let (dev_label, device) = family_device(family, bench.n_qubits());
                    let compiler = compilers.get(&dev_label, cfg_label, || (device, config));
                    let line = format!(
                        "{group} {bench} {} = {}",
                        short(strategy),
                        compile_line(compiler, program, strategy)
                    );
                    digest.write_bytes(line.as_bytes());
                    lines.push(line);
                }
            }
            actual.push(format!("{group} = {:016x} {}", digest.finish(), lines.len()));
            details.insert(group, lines);
        }
    }
    let tiers = tier_lines(&[64, 256, 1024], &["whole", "part", "auto"]);
    let result = catch_unwind(|| check(FULL_SWEEP, &actual));
    let tier_result = catch_unwind(|| check(FULL_SWEEP_TIERS, &tiers));
    if result.is_err() {
        println!("-- per-compile lines of every group --");
        for line in details.values().flatten() {
            println!("{line}");
        }
    }
    assert!(result.is_ok() && tier_result.is_ok(), "full golden sweep differs");
}

/// Tier-1 golden lines: `config program strategy = hash depth deferred
/// colors`, then the 64-qubit tier.
const TIER1: &str = "
default bv(4) N = fdeee90160357ebd 3 0 4
default bv(4) G = 554e8f5abc49a1aa 3 0 4
default bv(4) U = b10c9d72a2564e62 3 0 1
default bv(4) S = 6b81c5cbe36f7bea 3 0 4
default bv(4) CD = 73ce547c7857e12b 3 0 1
default bv(9) N = d297dde6f80812c1 18 0 4
default bv(9) G = f52d6421e23b6348 18 0 9
default bv(9) U = d49d39175d387b15 18 0 1
default bv(9) S = b2871b85e6b2975a 18 0 9
default bv(9) CD = ac60c7670a7dd069 18 0 1
default bv(16) N = fcdecaeb767e25d0 69 0 4
default bv(16) G = 94c1f33430790e0c 69 12 10
default bv(16) U = a585218ecd000a7f 69 34 1
default bv(16) S = d50e5b53d8fed6d7 69 4 10
default bv(16) CD = bff59a1ec6df8642 69 4 1
default qaoa(4) N = 011ec24fe86836e2 31 0 4
default qaoa(4) G = 1bd45e5d7a01aa3d 31 0 4
default qaoa(4) U = a713180d2f19a415 31 0 1
default qaoa(4) S = d27b1a97efc13ded 31 0 4
default qaoa(4) CD = 3462ba49754ba938 31 0 1
default qaoa(9) N = bba325856e750125 144 0 4
default qaoa(9) G = a25feb45f703a11d 144 10 9
default qaoa(9) U = aa24eab1bf5138ba 144 10 1
default qaoa(9) S = 4b74dd23244199d9 144 9 9
default qaoa(9) CD = 46ebb9d925482cfc 144 9 1
default ising(4) N = ae25dd38ec8afb5c 60 0 4
default ising(4) G = 8278c6e0a2536d97 63 4 4
default ising(4) U = fc3ce2264d4cffe7 63 4 1
default ising(4) S = 09d027e3abe407a7 60 1 4
default ising(4) CD = f01a514297e0f2a4 60 1 2
default qgan(4) N = 9f08915eae644a8c 23 0 4
default qgan(4) G = e51449b2b6dbc9c9 23 0 4
default qgan(4) U = 0ace276ed5c380f1 23 0 1
default qgan(4) S = 740025e4ca4e2945 23 0 4
default qgan(4) CD = 74f6f3b15adecb4a 23 0 1
default qgan(9) N = c1a3876ca7d2048d 63 0 4
default qgan(9) G = a39ef1ce02fb913e 63 3 9
default qgan(9) U = f7010802fe1f8ff1 63 3 1
default qgan(9) S = 5375abc66751724a 63 3 9
default qgan(9) CD = 01dd14a69354c9e8 63 3 1
default qgan(16) N = b0a2186749a46ca1 121 0 4
default qgan(16) G = 455ef29a5b1d39eb 122 5 10
default qgan(16) U = ac38bb746672d747 122 5 1
default qgan(16) S = 14876b0f0c1376c9 121 3 10
default qgan(16) CD = 4d1a4ff3ab608317 121 3 2
default qgan(25) N = 8fc60a9f1e3db66d 197 0 4
default qgan(25) G = 0d3e68773fab3719 199 7 10
default qgan(25) U = e1ce52160a9f064f 199 7 1
default qgan(25) S = 6cbebc816b259322 197 3 10
default qgan(25) CD = 2c5404d68027a814 197 3 2
default xeb(4,5) N = 776f62155968f7b6 8 0 4
default xeb(4,5) G = 78d75ba67a4ace4b 11 3 4
default xeb(4,5) U = 5d67f398181263a7 11 3 1
default xeb(4,5) S = daa61b343b98b47d 8 0 4
default xeb(4,5) CD = 48c38843a2354f40 8 0 2
default xeb(9,5) N = 28bfb057e9a382e4 10 0 4
default xeb(9,5) G = 821ceeabd6243c0f 14 14 9
default xeb(9,5) U = 493bb7aa4c2bfe03 16 22 1
default xeb(9,5) S = 5a88b2c556161bc3 10 5 9
default xeb(9,5) CD = ad1df91d0177d6e1 10 5 2
default xeb(16,5) N = 8a94d3eef69124b8 10 0 4
default xeb(16,5) G = 928009479d04e68e 24 68 10
default xeb(16,5) U = 0c6d0ff4704dc24e 33 143 1
default xeb(16,5) S = 6a8df5140a5e0ef6 10 8 10
default xeb(16,5) CD = 285e90bf58348e6c 10 8 2
default xeb(25,5) N = 441076ccaab9c4e8 10 0 4
default xeb(25,5) G = 496876e5c7c0faf9 25 111 10
default xeb(25,5) U = be23b3ee8412e0d6 51 416 1
default xeb(25,5) S = 6e8535d3ca2c4cbf 10 11 10
default xeb(25,5) CD = 519047d7a9ca3e55 10 11 2
default xeb(4,10) N = 9db5bd46d965f588 16 0 4
default xeb(4,10) G = d942b13044816586 21 6 4
default xeb(4,10) U = fb9f8250aff0b36c 21 6 1
default xeb(4,10) S = 748d77187aea4a60 16 1 4
default xeb(4,10) CD = 725bfe87cb963d05 16 1 2
default xeb(9,10) N = c10a3f8f60831d3e 20 0 4
default xeb(9,10) G = 6d6a9534654b107b 26 25 9
default xeb(9,10) U = 802a179d40ce2641 31 43 1
default xeb(9,10) S = 7cda273b3c1c3dbf 20 10 9
default xeb(9,10) CD = 05d2c72549c2b627 20 10 2
default xeb(16,10) N = c6b2f38f56e9330f 20 0 4
default xeb(16,10) G = 613d368e0231a2ee 46 140 10
default xeb(16,10) U = 034fed3b774e91bc 65 299 1
default xeb(16,10) S = 5ef7968409deef51 20 16 10
default xeb(16,10) CD = c4432f27b6b673ad 20 16 2
default xeb(25,10) N = 4362b5228af1532b 20 0 4
default xeb(25,10) G = 4b82f73f3f67b7c9 51 238 10
default xeb(25,10) U = 756ddd75700b7057 101 880 1
default xeb(25,10) S = 1ce7c216ea6bd4f1 20 25 10
default xeb(25,10) CD = 2d825b4fbbaa0098 20 25 2
default xeb(4,15) N = 16d73cb86c5e80e9 23 0 4
default xeb(4,15) G = 54ae7153dbc2aaf1 28 7 4
default xeb(4,15) U = 7754c873c25878f5 28 7 1
default xeb(4,15) S = 67431317aa90c5c1 23 2 4
default xeb(4,15) CD = 0ad4d13543c83cc4 23 2 2
default xeb(9,15) N = 7758ea9bb8d1857c 30 0 4
default xeb(9,15) G = e176d59e1db8da92 39 35 9
default xeb(9,15) U = c49872c5e65ec710 46 63 1
default xeb(9,15) S = fb429407e3d7a8f2 30 15 9
default xeb(9,15) CD = c5c453874121444d 30 15 2
default xeb(16,15) N = 06c57ef84a939b5a 30 0 4
default xeb(16,15) G = 628724f44530f008 65 206 10
default xeb(16,15) U = 5dae04130e098695 93 438 1
default xeb(16,15) S = 888504313b7843e8 30 27 10
default xeb(16,15) CD = 17021baab2cf5a9a 30 27 2
default xeb(25,15) N = 49abce26ac6983e3 30 0 4
default xeb(25,15) G = 4ce9489574f63506 75 371 10
default xeb(25,15) U = d3eb0a946c1b267a 151 1343 1
default xeb(25,15) S = 8ae2ec9f4535d0a7 30 36 10
default xeb(25,15) CD = caafb6a4a9cf776a 30 36 2
d0 bv(4) N = fdeee90160357ebd 3 0 4
d0 bv(4) G = e17b51a9ef9ec535 3 0 2
d0 bv(4) U = b10c9d72a2564e62 3 0 1
d0 bv(4) S = e233ca612b7d2fb5 3 0 2
d0 bv(4) CD = 73ce547c7857e12b 3 0 1
d0 bv(9) N = d297dde6f80812c1 18 0 4
d0 bv(9) G = 44f365f3a58faca2 18 0 4
d0 bv(9) U = d49d39175d387b15 18 0 1
d0 bv(9) S = b0b67eb257395f2c 18 0 4
d0 bv(9) CD = ac60c7670a7dd069 18 0 1
d0 bv(16) N = fcdecaeb767e25d0 69 0 4
d0 bv(16) G = fc60028da6ab0b73 69 21 4
d0 bv(16) U = a585218ecd000a7f 69 34 1
d0 bv(16) S = 381bafc972c39027 69 0 4
d0 bv(16) CD = 37223c4744c50c48 69 0 1
d0 qaoa(4) N = 011ec24fe86836e2 31 0 4
d0 qaoa(4) G = cf32c36ebb585971 31 0 2
d0 qaoa(4) U = a713180d2f19a415 31 0 1
d0 qaoa(4) S = 22f1f0719576cb21 31 0 2
d0 qaoa(4) CD = 3462ba49754ba938 31 0 1
d0 qaoa(9) N = bba325856e750125 144 0 4
d0 qaoa(9) G = 308ae280b3061caf 144 9 4
d0 qaoa(9) U = aa24eab1bf5138ba 144 10 1
d0 qaoa(9) S = 9063e074d0225803 144 0 4
d0 qaoa(9) CD = 905e4beca7bd892d 144 0 1
d0 ising(4) N = ae25dd38ec8afb5c 60 0 4
d0 ising(4) G = 9c356775c3eb3be7 60 0 2
d0 ising(4) U = fc3ce2264d4cffe7 63 4 1
d0 ising(4) S = 890f9cbbe42844ff 60 0 2
d0 ising(4) CD = f4119495064c4f9e 60 0 1
d0 qgan(4) N = 9f08915eae644a8c 23 0 4
d0 qgan(4) G = 41dd4a415d4e521b 23 0 2
d0 qgan(4) U = 0ace276ed5c380f1 23 0 1
d0 qgan(4) S = fd27e0f61afdbdd3 23 0 2
d0 qgan(4) CD = 74f6f3b15adecb4a 23 0 1
d0 qgan(9) N = c1a3876ca7d2048d 63 0 4
d0 qgan(9) G = 486f45f7ae552275 63 0 4
d0 qgan(9) U = f7010802fe1f8ff1 63 3 1
d0 qgan(9) S = cd7bec898f2e6f0f 63 0 4
d0 qgan(9) CD = c7b0c16aac8705d1 63 0 1
d0 qgan(16) N = b0a2186749a46ca1 121 0 4
d0 qgan(16) G = fb3296849b26e058 122 5 4
d0 qgan(16) U = ac38bb746672d747 122 5 1
d0 qgan(16) S = be192e1ebee42d20 121 0 4
d0 qgan(16) CD = b198a1bc4d1a0980 121 0 1
d0 qgan(25) N = 8fc60a9f1e3db66d 197 0 4
d0 qgan(25) G = 671c9e33e61a2e2f 198 5 4
d0 qgan(25) U = e1ce52160a9f064f 199 7 1
d0 qgan(25) S = 4d63f9a9e53b4033 197 0 4
d0 qgan(25) CD = 168e896f44451c86 197 0 1
d0 xeb(4,5) N = 776f62155968f7b6 8 0 4
d0 xeb(4,5) G = 8d89bd31839b3b62 8 0 2
d0 xeb(4,5) U = 5d67f398181263a7 11 3 1
d0 xeb(4,5) S = 198975b66b8ca270 8 0 2
d0 xeb(4,5) CD = 66192489a6571b6f 8 0 1
d0 xeb(9,5) N = 28bfb057e9a382e4 10 0 4
d0 xeb(9,5) G = 086837e7b19c8480 11 4 4
d0 xeb(9,5) U = 493bb7aa4c2bfe03 16 22 1
d0 xeb(9,5) S = d196165045908fdc 10 0 4
d0 xeb(9,5) CD = 3cff5ed6fe4b8958 10 0 1
d0 xeb(16,5) N = 8a94d3eef69124b8 10 0 4
d0 xeb(16,5) G = 1d18f8fd435fce70 14 20 4
d0 xeb(16,5) U = 0c6d0ff4704dc24e 33 143 1
d0 xeb(16,5) S = 26680ac6ee087e7b 10 0 4
d0 xeb(16,5) CD = 20245f771266d6bd 10 0 1
d0 xeb(25,5) N = 441076ccaab9c4e8 10 0 4
d0 xeb(25,5) G = 10f9d3abd1d41084 15 32 4
d0 xeb(25,5) U = be23b3ee8412e0d6 51 416 1
d0 xeb(25,5) S = 65dc60a6c2f58a29 10 0 4
d0 xeb(25,5) CD = bbd2c8e059f4de9b 10 0 1
d0 xeb(4,10) N = 9db5bd46d965f588 16 0 4
d0 xeb(4,10) G = 993311f1767b9a2b 16 0 2
d0 xeb(4,10) U = fb9f8250aff0b36c 21 6 1
d0 xeb(4,10) S = 67202fbd1ab5c799 16 0 2
d0 xeb(4,10) CD = 0f7265b22f211e6c 16 0 1
d0 xeb(9,10) N = c10a3f8f60831d3e 20 0 4
d0 xeb(9,10) G = aea166154d48a299 20 6 4
d0 xeb(9,10) U = 802a179d40ce2641 31 43 1
d0 xeb(9,10) S = 1985b5b3eef34533 20 0 4
d0 xeb(9,10) CD = 969712ab5b5c1e79 20 0 1
d0 xeb(16,10) N = c6b2f38f56e9330f 20 0 4
d0 xeb(16,10) G = 96d2e05e14b5efe7 26 32 4
d0 xeb(16,10) U = 034fed3b774e91bc 65 299 1
d0 xeb(16,10) S = ad01ee17968c55e8 20 0 4
d0 xeb(16,10) CD = 4d26642e096da5d8 20 0 1
d0 xeb(25,10) N = 4362b5228af1532b 20 0 4
d0 xeb(25,10) G = 52299a5c3174ba12 30 64 4
d0 xeb(25,10) U = 756ddd75700b7057 101 880 1
d0 xeb(25,10) S = a3cbef534a879bfb 20 0 4
d0 xeb(25,10) CD = 48fc45ec508fbb54 20 0 1
d0 xeb(4,15) N = 16d73cb86c5e80e9 23 0 4
d0 xeb(4,15) G = 2cc5a18cbb60f373 23 0 2
d0 xeb(4,15) U = 7754c873c25878f5 28 7 1
d0 xeb(4,15) S = 30e1a07f14b031af 23 0 2
d0 xeb(4,15) CD = f427b7b52363a74f 23 0 1
d0 xeb(9,15) N = 7758ea9bb8d1857c 30 0 4
d0 xeb(9,15) G = 9dd405d2a7c6926a 30 8 4
d0 xeb(9,15) U = c49872c5e65ec710 46 63 1
d0 xeb(9,15) S = d732864da3b8cd1c 30 0 4
d0 xeb(9,15) CD = 9d0dc99352009e53 30 0 1
d0 xeb(16,15) N = 06c57ef84a939b5a 30 0 4
d0 xeb(16,15) G = c7b94b925f517b96 37 46 4
d0 xeb(16,15) U = 5dae04130e098695 93 438 1
d0 xeb(16,15) S = fe7250db6549512f 30 0 4
d0 xeb(16,15) CD = c0f16d7979e2a23e 30 0 1
d0 xeb(25,15) N = 49abce26ac6983e3 30 0 4
d0 xeb(25,15) G = 536ea6f8e75eec28 45 97 4
d0 xeb(25,15) U = d3eb0a946c1b267a 151 1343 1
d0 xeb(25,15) S = e54b6ebf8ea9066b 30 0 4
d0 xeb(25,15) CD = bf31cdc85f5613cd 30 0 1
d2 bv(4) N = fdeee90160357ebd 3 0 4
d2 bv(4) G = 554e8f5abc49a1aa 3 0 4
d2 bv(4) U = b10c9d72a2564e62 3 0 1
d2 bv(4) S = 6b81c5cbe36f7bea 3 0 4
d2 bv(4) CD = 73ce547c7857e12b 3 0 1
d2 bv(9) N = d297dde6f80812c1 18 0 4
d2 bv(9) G = db4b7fc699c2e0f4 18 0 12
d2 bv(9) U = d49d39175d387b15 18 0 1
d2 bv(9) S = 02f1370ef11eee2e 18 0 12
d2 bv(9) CD = ac60c7670a7dd069 18 0 1
d2 bv(16) N = fcdecaeb767e25d0 69 0 4
d2 bv(16) G = 9ab49660bf4ff824 69 34 14
d2 bv(16) U = a585218ecd000a7f 69 34 1
d2 bv(16) S = a2bff8f65a57576d 69 13 14
d2 bv(16) CD = c729b8742ee600f8 69 13 1
d2 qaoa(4) N = 011ec24fe86836e2 31 0 4
d2 qaoa(4) G = 1bd45e5d7a01aa3d 31 0 4
d2 qaoa(4) U = a713180d2f19a415 31 0 1
d2 qaoa(4) S = d27b1a97efc13ded 31 0 4
d2 qaoa(4) CD = 3462ba49754ba938 31 0 1
d2 qaoa(9) N = bba325856e750125 144 0 4
d2 qaoa(9) G = 204a97e077cfcf29 144 10 12
d2 qaoa(9) U = aa24eab1bf5138ba 144 10 1
d2 qaoa(9) S = 1441c683bf008719 144 10 12
d2 qaoa(9) CD = 30ce1841fbc36543 144 10 1
d2 ising(4) N = ae25dd38ec8afb5c 60 0 4
d2 ising(4) G = 8278c6e0a2536d97 63 4 4
d2 ising(4) U = fc3ce2264d4cffe7 63 4 1
d2 ising(4) S = 09d027e3abe407a7 60 1 4
d2 ising(4) CD = f01a514297e0f2a4 60 1 2
d2 qgan(4) N = 9f08915eae644a8c 23 0 4
d2 qgan(4) G = e51449b2b6dbc9c9 23 0 4
d2 qgan(4) U = 0ace276ed5c380f1 23 0 1
d2 qgan(4) S = 740025e4ca4e2945 23 0 4
d2 qgan(4) CD = 74f6f3b15adecb4a 23 0 1
d2 qgan(9) N = c1a3876ca7d2048d 63 0 4
d2 qgan(9) G = 12867c249a8e4043 63 3 12
d2 qgan(9) U = f7010802fe1f8ff1 63 3 1
d2 qgan(9) S = c0517102ecad0ad7 63 3 12
d2 qgan(9) CD = 01dd14a69354c9e8 63 3 1
d2 qgan(16) N = b0a2186749a46ca1 121 0 4
d2 qgan(16) G = 47029de9b23156e8 122 5 14
d2 qgan(16) U = ac38bb746672d747 122 5 1
d2 qgan(16) S = 3dbace0808acaad7 121 3 14
d2 qgan(16) CD = 4d1a4ff3ab608317 121 3 2
d2 qgan(25) N = 8fc60a9f1e3db66d 197 0 4
d2 qgan(25) G = f9cb964cdef4dd8b 199 7 16
d2 qgan(25) U = e1ce52160a9f064f 199 7 1
d2 qgan(25) S = 99e9cfe04f021ea4 197 3 16
d2 qgan(25) CD = 2c5404d68027a814 197 3 2
d2 xeb(4,5) N = 776f62155968f7b6 8 0 4
d2 xeb(4,5) G = 78d75ba67a4ace4b 11 3 4
d2 xeb(4,5) U = 5d67f398181263a7 11 3 1
d2 xeb(4,5) S = daa61b343b98b47d 8 0 4
d2 xeb(4,5) CD = 48c38843a2354f40 8 0 2
d2 xeb(9,5) N = 28bfb057e9a382e4 10 0 4
d2 xeb(9,5) G = e35bc0df8166d0ab 16 22 12
d2 xeb(9,5) U = 493bb7aa4c2bfe03 16 22 1
d2 xeb(9,5) S = 00c9e6bbcc8ea13c 10 7 12
d2 xeb(9,5) CD = 03547a9de4bd3734 10 7 3
d2 xeb(16,5) N = 8a94d3eef69124b8 10 0 4
d2 xeb(16,5) G = 1c409dd6b65d0ce8 20 51 14
d2 xeb(16,5) U = 0c6d0ff4704dc24e 33 143 1
d2 xeb(16,5) S = 04eb4e26bbc7c455 12 15 14
d2 xeb(16,5) CD = 70d45754c7c413c8 12 15 4
d2 xeb(25,5) N = 441076ccaab9c4e8 10 0 4
d2 xeb(25,5) G = 8f531caf89af861d 22 103 16
d2 xeb(25,5) U = be23b3ee8412e0d6 51 416 1
d2 xeb(25,5) S = b7a884be03045a0f 14 37 16
d2 xeb(25,5) CD = e20f158ef72793d6 14 37 4
d2 xeb(4,10) N = 9db5bd46d965f588 16 0 4
d2 xeb(4,10) G = d942b13044816586 21 6 4
d2 xeb(4,10) U = fb9f8250aff0b36c 21 6 1
d2 xeb(4,10) S = 748d77187aea4a60 16 1 4
d2 xeb(4,10) CD = 725bfe87cb963d05 16 1 2
d2 xeb(9,10) N = c10a3f8f60831d3e 20 0 4
d2 xeb(9,10) G = d9cf1409b100b2ba 31 43 12
d2 xeb(9,10) U = 802a179d40ce2641 31 43 1
d2 xeb(9,10) S = 7ba630b6c3a53c8f 20 13 12
d2 xeb(9,10) CD = 88ec033154cf5982 20 13 3
d2 xeb(16,10) N = c6b2f38f56e9330f 20 0 4
d2 xeb(16,10) G = f92ac0aef9715765 41 118 14
d2 xeb(16,10) U = 034fed3b774e91bc 65 299 1
d2 xeb(16,10) S = cd3927b89d297435 24 34 14
d2 xeb(16,10) CD = 3c8fc08e398a2c36 24 34 4
d2 xeb(25,10) N = 4362b5228af1532b 20 0 4
d2 xeb(25,10) G = 26a3294f5fc59218 43 206 16
d2 xeb(25,10) U = 756ddd75700b7057 101 880 1
d2 xeb(25,10) S = 3f084012a4f62f3d 28 85 16
d2 xeb(25,10) CD = 7ed1555624807bef 28 85 4
d2 xeb(4,15) N = 16d73cb86c5e80e9 23 0 4
d2 xeb(4,15) G = 54ae7153dbc2aaf1 28 7 4
d2 xeb(4,15) U = 7754c873c25878f5 28 7 1
d2 xeb(4,15) S = 67431317aa90c5c1 23 2 4
d2 xeb(4,15) CD = 0ad4d13543c83cc4 23 2 2
d2 xeb(9,15) N = 7758ea9bb8d1857c 30 0 4
d2 xeb(9,15) G = 3217de7382a83f46 46 63 12
d2 xeb(9,15) U = c49872c5e65ec710 46 63 1
d2 xeb(9,15) S = 97ac727e409a998f 30 18 12
d2 xeb(9,15) CD = aad55d258cdc7827 30 18 3
d2 xeb(16,15) N = 06c57ef84a939b5a 30 0 4
d2 xeb(16,15) G = d219cdeea952f0d4 60 176 14
d2 xeb(16,15) U = 5dae04130e098695 93 438 1
d2 xeb(16,15) S = 87fe7a27d28c2675 34 51 14
d2 xeb(16,15) CD = 3443cecb601009b5 34 51 4
d2 xeb(25,15) N = 49abce26ac6983e3 30 0 4
d2 xeb(25,15) G = 29fe7d62fb2cccb7 64 319 16
d2 xeb(25,15) U = d3eb0a946c1b267a 151 1343 1
d2 xeb(25,15) S = a0136c6bfa4a6b81 42 131 16
d2 xeb(25,15) CD = 69dad06b865e7347 42 131 4
mc2 bv(4) N = fdeee90160357ebd 3 0 4
mc2 bv(4) G = 554e8f5abc49a1aa 3 0 4
mc2 bv(4) U = b10c9d72a2564e62 3 0 1
mc2 bv(4) S = 6b81c5cbe36f7bea 3 0 4
mc2 bv(4) CD = 73ce547c7857e12b 3 0 1
mc2 bv(9) N = d297dde6f80812c1 18 0 4
mc2 bv(9) G = f52d6421e23b6348 18 0 9
mc2 bv(9) U = d49d39175d387b15 18 0 1
mc2 bv(9) S = b2871b85e6b2975a 18 0 9
mc2 bv(9) CD = ac60c7670a7dd069 18 0 1
mc2 bv(16) N = fcdecaeb767e25d0 69 0 4
mc2 bv(16) G = 94c1f33430790e0c 69 12 10
mc2 bv(16) U = a585218ecd000a7f 69 34 1
mc2 bv(16) S = d50e5b53d8fed6d7 69 4 10
mc2 bv(16) CD = bff59a1ec6df8642 69 4 1
mc2 qaoa(4) N = 011ec24fe86836e2 31 0 4
mc2 qaoa(4) G = 1bd45e5d7a01aa3d 31 0 4
mc2 qaoa(4) U = a713180d2f19a415 31 0 1
mc2 qaoa(4) S = d27b1a97efc13ded 31 0 4
mc2 qaoa(4) CD = 3462ba49754ba938 31 0 1
mc2 qaoa(9) N = bba325856e750125 144 0 4
mc2 qaoa(9) G = a25feb45f703a11d 144 10 9
mc2 qaoa(9) U = aa24eab1bf5138ba 144 10 1
mc2 qaoa(9) S = 4b74dd23244199d9 144 9 9
mc2 qaoa(9) CD = 46ebb9d925482cfc 144 9 1
mc2 ising(4) N = ae25dd38ec8afb5c 60 0 4
mc2 ising(4) G = 8278c6e0a2536d97 63 4 4
mc2 ising(4) U = fc3ce2264d4cffe7 63 4 1
mc2 ising(4) S = 09d027e3abe407a7 60 1 4
mc2 ising(4) CD = f01a514297e0f2a4 60 1 2
mc2 qgan(4) N = 9f08915eae644a8c 23 0 4
mc2 qgan(4) G = e51449b2b6dbc9c9 23 0 4
mc2 qgan(4) U = 0ace276ed5c380f1 23 0 1
mc2 qgan(4) S = 740025e4ca4e2945 23 0 4
mc2 qgan(4) CD = 74f6f3b15adecb4a 23 0 1
mc2 qgan(9) N = c1a3876ca7d2048d 63 0 4
mc2 qgan(9) G = a39ef1ce02fb913e 63 3 9
mc2 qgan(9) U = f7010802fe1f8ff1 63 3 1
mc2 qgan(9) S = 5375abc66751724a 63 3 9
mc2 qgan(9) CD = 01dd14a69354c9e8 63 3 1
mc2 qgan(16) N = b0a2186749a46ca1 121 0 4
mc2 qgan(16) G = 455ef29a5b1d39eb 122 5 10
mc2 qgan(16) U = ac38bb746672d747 122 5 1
mc2 qgan(16) S = 14876b0f0c1376c9 121 3 10
mc2 qgan(16) CD = 4d1a4ff3ab608317 121 3 2
mc2 qgan(25) N = 8fc60a9f1e3db66d 197 0 4
mc2 qgan(25) G = 0d3e68773fab3719 199 7 10
mc2 qgan(25) U = e1ce52160a9f064f 199 7 1
mc2 qgan(25) S = 6cbebc816b259322 197 3 10
mc2 qgan(25) CD = 2c5404d68027a814 197 3 2
mc2 xeb(4,5) N = 776f62155968f7b6 8 0 4
mc2 xeb(4,5) G = 78d75ba67a4ace4b 11 3 4
mc2 xeb(4,5) U = 5d67f398181263a7 11 3 1
mc2 xeb(4,5) S = daa61b343b98b47d 8 0 4
mc2 xeb(4,5) CD = 48c38843a2354f40 8 0 2
mc2 xeb(9,5) N = 28bfb057e9a382e4 10 0 4
mc2 xeb(9,5) G = 821ceeabd6243c0f 14 14 9
mc2 xeb(9,5) U = 493bb7aa4c2bfe03 16 22 1
mc2 xeb(9,5) S = 5a88b2c556161bc3 10 5 9
mc2 xeb(9,5) CD = ad1df91d0177d6e1 10 5 2
mc2 xeb(16,5) N = 8a94d3eef69124b8 10 0 4
mc2 xeb(16,5) G = 928009479d04e68e 24 68 10
mc2 xeb(16,5) U = 0c6d0ff4704dc24e 33 143 1
mc2 xeb(16,5) S = 6a8df5140a5e0ef6 10 8 10
mc2 xeb(16,5) CD = 285e90bf58348e6c 10 8 2
mc2 xeb(25,5) N = 441076ccaab9c4e8 10 0 4
mc2 xeb(25,5) G = 496876e5c7c0faf9 25 111 10
mc2 xeb(25,5) U = be23b3ee8412e0d6 51 416 1
mc2 xeb(25,5) S = 6e8535d3ca2c4cbf 10 11 10
mc2 xeb(25,5) CD = 519047d7a9ca3e55 10 11 2
mc2 xeb(4,10) N = 9db5bd46d965f588 16 0 4
mc2 xeb(4,10) G = d942b13044816586 21 6 4
mc2 xeb(4,10) U = fb9f8250aff0b36c 21 6 1
mc2 xeb(4,10) S = 748d77187aea4a60 16 1 4
mc2 xeb(4,10) CD = 725bfe87cb963d05 16 1 2
mc2 xeb(9,10) N = c10a3f8f60831d3e 20 0 4
mc2 xeb(9,10) G = 6d6a9534654b107b 26 25 9
mc2 xeb(9,10) U = 802a179d40ce2641 31 43 1
mc2 xeb(9,10) S = 7cda273b3c1c3dbf 20 10 9
mc2 xeb(9,10) CD = 05d2c72549c2b627 20 10 2
mc2 xeb(16,10) N = c6b2f38f56e9330f 20 0 4
mc2 xeb(16,10) G = 613d368e0231a2ee 46 140 10
mc2 xeb(16,10) U = 034fed3b774e91bc 65 299 1
mc2 xeb(16,10) S = 5ef7968409deef51 20 16 10
mc2 xeb(16,10) CD = c4432f27b6b673ad 20 16 2
mc2 xeb(25,10) N = 4362b5228af1532b 20 0 4
mc2 xeb(25,10) G = 4b82f73f3f67b7c9 51 238 10
mc2 xeb(25,10) U = 756ddd75700b7057 101 880 1
mc2 xeb(25,10) S = 1ce7c216ea6bd4f1 20 25 10
mc2 xeb(25,10) CD = 2d825b4fbbaa0098 20 25 2
mc2 xeb(4,15) N = 16d73cb86c5e80e9 23 0 4
mc2 xeb(4,15) G = 54ae7153dbc2aaf1 28 7 4
mc2 xeb(4,15) U = 7754c873c25878f5 28 7 1
mc2 xeb(4,15) S = 67431317aa90c5c1 23 2 4
mc2 xeb(4,15) CD = 0ad4d13543c83cc4 23 2 2
mc2 xeb(9,15) N = 7758ea9bb8d1857c 30 0 4
mc2 xeb(9,15) G = e176d59e1db8da92 39 35 9
mc2 xeb(9,15) U = c49872c5e65ec710 46 63 1
mc2 xeb(9,15) S = fb429407e3d7a8f2 30 15 9
mc2 xeb(9,15) CD = c5c453874121444d 30 15 2
mc2 xeb(16,15) N = 06c57ef84a939b5a 30 0 4
mc2 xeb(16,15) G = 628724f44530f008 65 206 10
mc2 xeb(16,15) U = 5dae04130e098695 93 438 1
mc2 xeb(16,15) S = 888504313b7843e8 30 27 10
mc2 xeb(16,15) CD = 17021baab2cf5a9a 30 27 2
mc2 xeb(25,15) N = 49abce26ac6983e3 30 0 4
mc2 xeb(25,15) G = 4ce9489574f63506 75 371 10
mc2 xeb(25,15) U = d3eb0a946c1b267a 151 1343 1
mc2 xeb(25,15) S = 8ae2ec9f4535d0a7 30 36 10
mc2 xeb(25,15) CD = caafb6a4a9cf776a 30 36 2
ct1 bv(4) N = fdeee90160357ebd 3 0 4
ct1 bv(4) G = 554e8f5abc49a1aa 3 0 4
ct1 bv(4) U = b10c9d72a2564e62 3 0 1
ct1 bv(4) S = 6b81c5cbe36f7bea 3 0 4
ct1 bv(4) CD = 73ce547c7857e12b 3 0 1
ct1 bv(9) N = d297dde6f80812c1 18 0 4
ct1 bv(9) G = f52d6421e23b6348 18 0 9
ct1 bv(9) U = d49d39175d387b15 18 0 1
ct1 bv(9) S = b2871b85e6b2975a 18 0 9
ct1 bv(9) CD = ac60c7670a7dd069 18 0 1
ct1 bv(16) N = fcdecaeb767e25d0 69 0 4
ct1 bv(16) G = 94c1f33430790e0c 69 12 10
ct1 bv(16) U = a585218ecd000a7f 69 34 1
ct1 bv(16) S = d50e5b53d8fed6d7 69 4 10
ct1 bv(16) CD = bff59a1ec6df8642 69 4 1
ct1 qaoa(4) N = 011ec24fe86836e2 31 0 4
ct1 qaoa(4) G = 1bd45e5d7a01aa3d 31 0 4
ct1 qaoa(4) U = a713180d2f19a415 31 0 1
ct1 qaoa(4) S = d27b1a97efc13ded 31 0 4
ct1 qaoa(4) CD = 3462ba49754ba938 31 0 1
ct1 qaoa(9) N = bba325856e750125 144 0 4
ct1 qaoa(9) G = a25feb45f703a11d 144 10 9
ct1 qaoa(9) U = aa24eab1bf5138ba 144 10 1
ct1 qaoa(9) S = 4b74dd23244199d9 144 9 9
ct1 qaoa(9) CD = 46ebb9d925482cfc 144 9 1
ct1 ising(4) N = ae25dd38ec8afb5c 60 0 4
ct1 ising(4) G = 8278c6e0a2536d97 63 4 4
ct1 ising(4) U = fc3ce2264d4cffe7 63 4 1
ct1 ising(4) S = 1f9ed8749b90860f 63 4 4
ct1 ising(4) CD = f14ee52aabd84054 63 4 1
ct1 qgan(4) N = 9f08915eae644a8c 23 0 4
ct1 qgan(4) G = e51449b2b6dbc9c9 23 0 4
ct1 qgan(4) U = 0ace276ed5c380f1 23 0 1
ct1 qgan(4) S = 740025e4ca4e2945 23 0 4
ct1 qgan(4) CD = 74f6f3b15adecb4a 23 0 1
ct1 qgan(9) N = c1a3876ca7d2048d 63 0 4
ct1 qgan(9) G = a39ef1ce02fb913e 63 3 9
ct1 qgan(9) U = f7010802fe1f8ff1 63 3 1
ct1 qgan(9) S = 5375abc66751724a 63 3 9
ct1 qgan(9) CD = 01dd14a69354c9e8 63 3 1
ct1 qgan(16) N = b0a2186749a46ca1 121 0 4
ct1 qgan(16) G = 455ef29a5b1d39eb 122 5 10
ct1 qgan(16) U = ac38bb746672d747 122 5 1
ct1 qgan(16) S = 9a6c3286ee7d96ad 122 5 10
ct1 qgan(16) CD = 1a5e2e2b41ad37dc 122 5 1
ct1 qgan(25) N = 8fc60a9f1e3db66d 197 0 4
ct1 qgan(25) G = 0d3e68773fab3719 199 7 10
ct1 qgan(25) U = e1ce52160a9f064f 199 7 1
ct1 qgan(25) S = e04ce72e0cf5a699 199 7 10
ct1 qgan(25) CD = 1ab3a681500794ce 199 7 1
ct1 xeb(4,5) N = 776f62155968f7b6 8 0 4
ct1 xeb(4,5) G = 78d75ba67a4ace4b 11 3 4
ct1 xeb(4,5) U = 5d67f398181263a7 11 3 1
ct1 xeb(4,5) S = b61e6ad3d6f4636d 11 3 4
ct1 xeb(4,5) CD = 976bf511bb87b69d 11 3 1
ct1 xeb(9,5) N = 28bfb057e9a382e4 10 0 4
ct1 xeb(9,5) G = 821ceeabd6243c0f 14 14 9
ct1 xeb(9,5) U = 493bb7aa4c2bfe03 16 22 1
ct1 xeb(9,5) S = 7976784b8e4845f9 13 9 9
ct1 xeb(9,5) CD = ee32010ea2554d28 13 9 1
ct1 xeb(16,5) N = 8a94d3eef69124b8 10 0 4
ct1 xeb(16,5) G = 928009479d04e68e 24 68 10
ct1 xeb(16,5) U = 0c6d0ff4704dc24e 33 143 1
ct1 xeb(16,5) S = 626ea1f899802036 15 18 10
ct1 xeb(16,5) CD = 3854293d48c477e2 15 18 1
ct1 xeb(25,5) N = 441076ccaab9c4e8 10 0 4
ct1 xeb(25,5) G = 496876e5c7c0faf9 25 111 10
ct1 xeb(25,5) U = be23b3ee8412e0d6 51 416 1
ct1 xeb(25,5) S = bc36e88ef54f8d85 15 32 10
ct1 xeb(25,5) CD = 20c08b7d17fa9a5c 15 32 1
ct1 xeb(4,10) N = 9db5bd46d965f588 16 0 4
ct1 xeb(4,10) G = d942b13044816586 21 6 4
ct1 xeb(4,10) U = fb9f8250aff0b36c 21 6 1
ct1 xeb(4,10) S = 3ae81a6545df9090 21 6 4
ct1 xeb(4,10) CD = 9ee7d9c62e6a0ff0 21 6 1
ct1 xeb(9,10) N = c10a3f8f60831d3e 20 0 4
ct1 xeb(9,10) G = 6d6a9534654b107b 26 25 9
ct1 xeb(9,10) U = 802a179d40ce2641 31 43 1
ct1 xeb(9,10) S = 87dd66e2e8dfea9c 24 16 9
ct1 xeb(9,10) CD = 3c933e4f8c9d494b 24 16 1
ct1 xeb(16,10) N = c6b2f38f56e9330f 20 0 4
ct1 xeb(16,10) G = 613d368e0231a2ee 46 140 10
ct1 xeb(16,10) U = 034fed3b774e91bc 65 299 1
ct1 xeb(16,10) S = 557b480ca46abed3 28 33 10
ct1 xeb(16,10) CD = 1895777e683ac507 28 33 1
ct1 xeb(25,10) N = 4362b5228af1532b 20 0 4
ct1 xeb(25,10) G = 4b82f73f3f67b7c9 51 238 10
ct1 xeb(25,10) U = 756ddd75700b7057 101 880 1
ct1 xeb(25,10) S = bb32320aa1542299 30 61 10
ct1 xeb(25,10) CD = 619ced31424a747c 30 61 1
ct1 xeb(4,15) N = 16d73cb86c5e80e9 23 0 4
ct1 xeb(4,15) G = 54ae7153dbc2aaf1 28 7 4
ct1 xeb(4,15) U = 7754c873c25878f5 28 7 1
ct1 xeb(4,15) S = 52f3a475cec91a11 28 7 4
ct1 xeb(4,15) CD = 8dca503c0f756369 28 7 1
ct1 xeb(9,15) N = 7758ea9bb8d1857c 30 0 4
ct1 xeb(9,15) G = e176d59e1db8da92 39 35 9
ct1 xeb(9,15) U = c49872c5e65ec710 46 63 1
ct1 xeb(9,15) S = 31a3f9dfa7216e9a 36 23 9
ct1 xeb(9,15) CD = a972e79e2d6bf26b 36 23 1
ct1 xeb(16,15) N = 06c57ef84a939b5a 30 0 4
ct1 xeb(16,15) G = 628724f44530f008 65 206 10
ct1 xeb(16,15) U = 5dae04130e098695 93 438 1
ct1 xeb(16,15) S = 1fc0f346e2d466f5 40 46 10
ct1 xeb(16,15) CD = b2b34991be5bb1e2 40 46 1
ct1 xeb(25,15) N = 49abce26ac6983e3 30 0 4
ct1 xeb(25,15) G = 4ce9489574f63506 75 371 10
ct1 xeb(25,15) U = d3eb0a946c1b267a 151 1343 1
ct1 xeb(25,15) S = 9e9aa278eac76bc7 45 91 10
ct1 xeb(25,15) CD = 5aefd21e87e9e21c 45 91 1
cz bv(4) N = fdeee90160357ebd 3 0 4
cz bv(4) G = 554e8f5abc49a1aa 3 0 4
cz bv(4) U = b10c9d72a2564e62 3 0 1
cz bv(4) S = 6b81c5cbe36f7bea 3 0 4
cz bv(4) CD = 73ce547c7857e12b 3 0 1
cz bv(9) N = 510f2df5eac455f6 17 0 4
cz bv(9) G = cc3cf8e5868728a3 17 0 9
cz bv(9) U = 60d8ed56119fdc8b 17 0 1
cz bv(9) S = d3bef6e7b2040479 17 0 9
cz bv(9) CD = e6bd3ec307e3c683 17 0 1
cz bv(16) N = a2476d269b8d3eea 62 0 4
cz bv(16) G = a661426eb58c6818 62 13 10
cz bv(16) U = f1e595d1688cdb61 62 37 1
cz bv(16) S = 3519427a64ba4165 62 4 10
cz bv(16) CD = c5b3677fbecbb099 62 4 1
cz qaoa(4) N = 6b356e7eb3b717f6 31 0 4
cz qaoa(4) G = 46aeeab022e3ed2d 31 0 4
cz qaoa(4) U = 78749ba0e1dbd239 31 0 1
cz qaoa(4) S = 6eca43772b149a4d 31 0 4
cz qaoa(4) CD = 171ed7dca825bd9a 31 0 1
cz qaoa(9) N = b8b9a406a8a868df 125 0 4
cz qaoa(9) G = a931e80dd21ed838 125 9 9
cz qaoa(9) U = 2f940191f8ed4374 125 9 1
cz qaoa(9) S = 49420749d4fdd9b4 125 9 9
cz qaoa(9) CD = 8085d6f3f5cb5fab 125 9 1
cz ising(4) N = a23106661302af1c 59 0 4
cz ising(4) G = 54275ad321368729 62 4 4
cz ising(4) U = a1cb1298d1c8ab55 62 4 1
cz ising(4) S = de023906209f3a2f 59 1 4
cz ising(4) CD = a2a0dc336fa1fc64 59 1 2
cz qgan(4) N = a82ad209826a494b 22 0 4
cz qgan(4) G = d96d9efbb88bfd7e 22 0 4
cz qgan(4) U = 69611478a7f51410 22 0 1
cz qgan(4) S = 746c2d744f054542 22 0 4
cz qgan(4) CD = 353825e2e64fe97b 22 0 1
cz qgan(9) N = c389900a91770690 58 0 4
cz qgan(9) G = c1c69d3475a6c5cb 58 1 9
cz qgan(9) U = 87db2a2a2f1b2bab 58 1 1
cz qgan(9) S = 4925ef53a6e3becb 58 1 9
cz qgan(9) CD = 3d4d1495157ebb5c 58 1 1
cz qgan(16) N = 4bc6d493369380ad 110 0 4
cz qgan(16) G = e3a5c4c1e662959d 111 1 10
cz qgan(16) U = 0c5702071d92dc72 111 1 1
cz qgan(16) S = b6e8db3742c14588 110 1 10
cz qgan(16) CD = e92cf1f31d939216 110 1 2
cz qgan(25) N = 169a098b1aab36e6 178 0 4
cz qgan(25) G = ff89e7b11fbad52b 179 1 10
cz qgan(25) U = 2fe96466c24e6245 179 1 1
cz qgan(25) S = 2870af6ba0c8a73f 178 1 10
cz qgan(25) CD = dde30a8624b96d30 178 1 2
cz xeb(4,5) N = 9477d6a70c5f1dcb 32 0 4
cz xeb(4,5) G = 280c08a63876e487 33 1 4
cz xeb(4,5) U = 424ec76fb02e76e7 33 1 1
cz xeb(4,5) S = 5b232c83b6bee71f 32 0 4
cz xeb(4,5) CD = f7f9226014e5d45d 32 0 2
cz xeb(9,5) N = d1e90fc9b1b9c3ec 49 0 4
cz xeb(9,5) G = 6e4998dea7d19557 56 65 9
cz xeb(9,5) U = 83ff70cee033ae6e 63 95 1
cz xeb(9,5) S = cfc0c9c9b43c3bfe 49 4 9
cz xeb(9,5) CD = 201c55e57c600ba2 49 4 2
cz xeb(16,5) N = 67360c2d634ab506 50 0 4
cz xeb(16,5) G = 1a6374846f6f5860 90 350 10
cz xeb(16,5) U = 4c26c46d663a8cee 131 650 1
cz xeb(16,5) S = 3cf47c572caccfe8 50 12 10
cz xeb(16,5) CD = 7af0131ce5c13fe2 50 12 2
cz xeb(25,5) N = ab71f22b88f25129 50 0 4
cz xeb(25,5) G = f86094917261178f 115 673 10
cz xeb(25,5) U = 53648ab465a4434e 203 1865 1
cz xeb(25,5) S = 9e1f230445b601d5 50 58 10
cz xeb(25,5) CD = a3cdfe5b2e615926 50 58 2
cz xeb(4,10) N = 4c97c36fbc3fa024 64 0 4
cz xeb(4,10) G = ae65e78f4aed243e 65 2 4
cz xeb(4,10) U = a8bfd7ecc8a06736 65 2 1
cz xeb(4,10) S = 8ec6315c1d9a060c 64 1 4
cz xeb(4,10) CD = 1f7937330fa5a0c0 64 1 2
cz xeb(9,10) N = 0aa9ce68dd476a7c 96 0 4
cz xeb(9,10) G = a7c08c61dc1a2ecb 106 118 9
cz xeb(9,10) U = 85613266b52a3071 124 188 1
cz xeb(9,10) S = 15a02334fff520c1 96 8 9
cz xeb(9,10) CD = 2cac3fcd8fb63ebf 96 8 2
cz xeb(16,10) N = 6616346f4324ed61 98 0 4
cz xeb(16,10) G = f03a9bac6b115659 176 689 10
cz xeb(16,10) U = ccc67775ee8fda9b 259 1302 1
cz xeb(16,10) S = 0758b3b03412c3fe 98 22 10
cz xeb(16,10) CD = 3891c3198f4e4a4c 98 22 2
cz xeb(25,10) N = 57cde3e6e327c7cb 98 0 4
cz xeb(25,10) G = 746c705fb34e76f2 224 1349 10
cz xeb(25,10) U = dfdbc2b4701c27be 403 3758 1
cz xeb(25,10) S = 2a0b3b2e046eefd0 98 55 10
cz xeb(25,10) CD = 4616beef1b1824eb 98 55 2
cz xeb(4,15) N = 1f3df92e21d0f70f 86 0 4
cz xeb(4,15) G = 98d3c2d4c0f0c819 87 3 4
cz xeb(4,15) U = c52864fabce2cf55 87 3 1
cz xeb(4,15) S = 3ed9466ad3de9ef3 86 2 4
cz xeb(4,15) CD = 847fc4e371b21a55 86 2 2
cz xeb(9,15) N = 2da40bd901e54bad 144 0 4
cz xeb(9,15) G = 3574cd758e603504 160 170 9
cz xeb(9,15) U = ec4609a4de549d63 186 283 1
cz xeb(9,15) S = 757165584efede07 144 13 9
cz xeb(9,15) CD = bb22a093ace5efe7 144 13 2
cz xeb(16,15) N = 54b4aaf69661d0e0 145 0 4
cz xeb(16,15) G = 2e5c0cdeee726b02 251 993 10
cz xeb(16,15) U = 61c8648f73565602 371 1872 1
cz xeb(16,15) S = d26fa96638d90621 145 45 10
cz xeb(16,15) CD = 1e08fb7e2a7cd858 145 45 2
cz xeb(25,15) N = 4143f99927c60f47 146 0 4
cz xeb(25,15) G = d8f23305773d89cf 335 2041 10
cz xeb(25,15) U = e8adc4f332287356 603 5649 1
cz xeb(25,15) S = 4a116f93d6ac0485 146 70 10
cz xeb(25,15) CD = 331db2ff2fb5f284 146 70 2
scale64 whole N = 22b573e0748f3ada 8 0 4
scale64 whole G = e7e3ce792a4e985f 30 379 10
scale64 whole U = 2f770868ae769533 113 2741 1
scale64 whole S = 3ba0361ba69faeee 8 15 10
scale64 whole CD = 95445a57845567e3 8 15 2
scale64 part N = fe89309ef25b2f87 24 0 4
scale64 part G = edb236be550e3bec 46 185 10
scale64 part U = e7b24f40730c2cd5 120 585 1
scale64 part S = b9f46de329e90ace 25 17 10
scale64 part CD = 4e727120171fc5fd 27 20 2
";

/// Full-sweep golden lines: `family config = digest compiles`.
const FULL_SWEEP: &str = "
grid default = be3b2a8bf3325927 110
grid d0 = 8b5952a7f51b8027 110
grid d2 = 3b0a0d979c1802c3 110
grid mc1 = 709b9b3eb2bc3789 110
grid mc2 = 8f5be1e1c356cc6d 110
grid mc3 = 148ba06b36e9871b 110
grid ct1 = 627a62ffb2efb51b 110
grid ct2 = 5c8c2017d5007c61 110
grid ct8 = 651c85d317d62fcf 110
grid cz = 54aa43f6698a36f0 110
grid iswap = a3d4c87d25b76581 110
grid sqiswap = 5d9c3f2fc45690a7 110
tgrid default = d295e63f1c2e90db 110
tgrid d0 = 525176f357b99813 110
tgrid d2 = 499773aad7098769 110
tgrid mc1 = 64d3ef8abc57fc0d 110
tgrid mc2 = 1567ade86d7a5e03 110
tgrid mc3 = eace0bd7004089db 110
tgrid ct1 = 4600fff076297c91 110
tgrid ct2 = 882b3b70d88956e1 110
tgrid ct8 = 97f7a85559d8bce3 110
tgrid cz = 4281e31a93b181a0 110
tgrid iswap = 6fa140fb81b407db 110
tgrid sqiswap = 2503b85565e097cf 110
linear default = 52715ff3d3f7fc1b 110
linear d0 = e9e6fc7e594b5561 110
linear d2 = a016865a6e961b16 110
linear mc1 = 6a1617b670eef16a 110
linear mc2 = 884103843e92fe41 110
linear mc3 = e596caadced02487 110
linear ct1 = 48b760438b4817e6 110
linear ct2 = b0327daf9ecfec77 110
linear ct8 = abefa83a21f59c4b 110
linear cz = 7f93a2dbcf04d868 110
linear iswap = e04b1d184a111162 110
linear sqiswap = d6ed51971a3e0dd9 110
ex1d default = a5a1a4da2983cc75 110
ex1d d0 = 448a2d90db46200e 110
ex1d d2 = 510159eb96f8bc71 110
ex1d mc1 = 8b0db20343ad2343 110
ex1d mc2 = 7a79fcf20bc0c6cd 110
ex1d mc3 = 2a44ec104dad99d9 110
ex1d ct1 = 9b589b6d23edee76 110
ex1d ct2 = c059dc3985f5fef9 110
ex1d ct8 = 945fa9717a8a093d 110
ex1d cz = 8184e169e18cd695 110
ex1d iswap = 52ef33c6989fe1ea 110
ex1d sqiswap = 684df41525f69b75 110
ex2d default = 9b9f5dfd5059cb48 110
ex2d d0 = 3295933bbb636c3e 110
ex2d mc1 = 09a2e236bc77dca0 110
ex2d mc2 = 143089ec92db511f 110
ex2d mc3 = cf36bb21820ddd4c 110
ex2d ct1 = a902b7db2382a1c2 110
ex2d ct2 = f3864032c564a01b 110
ex2d ct8 = 85b3e8cf757e6230 110
ex2d cz = a151d36a8e0e69a8 110
ex2d iswap = 2b7f575bce4248c6 110
ex2d sqiswap = 4ec2e82d0b33e4a3 110
";

/// Full-sweep scale-tier lines: `tier mode strategy = outcome`.
const FULL_SWEEP_TIERS: &str = "
scale64 whole N = 22b573e0748f3ada 8 0 4
scale64 whole G = e7e3ce792a4e985f 30 379 10
scale64 whole U = 2f770868ae769533 113 2741 1
scale64 whole S = 3ba0361ba69faeee 8 15 10
scale64 whole CD = 95445a57845567e3 8 15 2
scale64 part N = fe89309ef25b2f87 24 0 4
scale64 part G = edb236be550e3bec 46 185 10
scale64 part U = e7b24f40730c2cd5 120 585 1
scale64 part S = b9f46de329e90ace 25 17 10
scale64 part CD = 4e727120171fc5fd 27 20 2
scale64 auto N = e034bb234bf84167 23 0 4
scale64 auto G = 8880db6d3b16b1e5 47 151 9
scale64 auto U = 2848f3af35bc982b 134 280 1
scale64 auto S = cae5a6a54ac4953c 27 24 9
scale64 auto CD = a2e79e6470345d4b 30 30 3
scale256 whole N = 0701543a8c7a7c91 8 0 4
scale256 whole G = df9b7adb65b6e59f 44 2288 12
scale256 whole U = 0101f1cc34f33f81 481 51323 1
scale256 whole S = a4ed7cde959aa888 8 31 12
scale256 whole CD = 631b737abfd8f963 8 31 3
scale256 part N = 685f3a177b49dbec 24 0 4
scale256 part G = d63a5887bca031c5 84 1302 11
scale256 part U = 271ed9254b714197 504 5804 1
scale256 part S = b310131328afa4b3 25 34 11
scale256 part CD = e77451f97226921e 29 42 6
scale256 auto N = bc92ddc9b1012afc 24 0 4
scale256 auto G = 6c8945f63491d772 74 890 11
scale256 auto U = 83632fb0be61018a 522 3061 1
scale256 auto S = 39f6840f298fef3e 27 48 11
scale256 auto CD = cba2d9e697cd93d4 35 62 5
scale1024 whole N = 9c3d35b534a5ff42 8 0 4
scale1024 whole G = 9a626a3902331c87 44 8997 12
scale1024 whole U = 68671717ccec7007 1985 872801 1
scale1024 whole S = 0c696a184eb09706 8 68 12
scale1024 whole CD = e400682d1d925d3b 8 68 4
scale1024 part N = 68bd8f0a9698810f 24 0 4
scale1024 part G = 2e662de8ff314d20 101 5772 12
scale1024 part U = 9a414014a9b0e4ce 2056 33407 1
scale1024 part S = 35ae4316dbfd7614 27 107 12
scale1024 part CD = 4bff0629f2c0a855 34 150 9
scale1024 auto N = 726b30f0288efaad 24 0 4
scale1024 auto G = f9e67ac33996cd9b 109 7491 12
scale1024 auto U = d10a06196bd48f15 2018 64159 1
scale1024 auto S = bbc6602b8fe99fdc 28 96 12
scale1024 auto CD = 7420173c0fdb36a3 38 134 5
";
