//! Machine-readable benchmark records (`BENCH_compile.json`) and the one
//! sampler every bench measures with.
//!
//! [`interleaved`] times N sides of a comparison back to back inside each
//! sample, after one untimed warm-up of each, and reports every side's
//! median plus the median of per-sample ratios against side 0. Pair
//! members run within milliseconds of each other, so machine drift
//! cancels inside each ratio; the `bench_guard` same-run gates bound
//! those ratios (recorded as [`PAIRED_RATIO`] rows) rather than dividing
//! two independently drifting medians.
//!
//! Each record is one `(workload, strategy, median_ns)` measurement plus
//! a free-form `label` (`BENCH_LABEL` env var, default `current`)
//! distinguishing e.g. the `pre`/`post` halves of an optimization PR.
//!
//! The file is a JSON array with one record object per line, written and
//! read with the workspace's one codec ([`Json`]). Re-recording a
//! `(workload, strategy, label)` key replaces the old record in place, so
//! repeated bench runs converge instead of growing the file. A file that
//! exists but does not parse is an error, never an empty table: rewriting
//! it would silently drop the rows it holds.

use fastsc_telemetry::json::Json;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One benchmark measurement destined for `BENCH_compile.json`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchRecord {
    /// Workload identifier, e.g. `xeb16` or `skewed_batch`.
    pub workload: String,
    /// Strategy identifier, e.g. `ColorDynamic` or `sequential`.
    pub strategy: String,
    /// Median wall-clock nanoseconds per run (a JSON number in the file,
    /// so exact up to 2^53 ns, about 104 days).
    pub median_ns: u128,
    /// Run label (`BENCH_LABEL` env var), e.g. `pre` / `post`.
    pub label: String,
}

impl BenchRecord {
    /// Creates a record carrying the ambient [`bench_label`].
    pub fn new(workload: &str, strategy: &str, median_ns: u128) -> Self {
        BenchRecord {
            workload: workload.to_owned(),
            strategy: strategy.to_owned(),
            median_ns,
            label: bench_label(),
        }
    }

    fn key(&self) -> (&str, &str, &str) {
        (&self.workload, &self.strategy, &self.label)
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("workload", Json::str(&self.workload)),
            ("strategy", Json::str(&self.strategy)),
            ("median_ns", Json::num(self.median_ns as f64)),
            ("label", Json::str(&self.label)),
        ])
    }

    fn from_json(row: &Json) -> Option<BenchRecord> {
        let text = |key| row.get(key).and_then(Json::as_str).map(str::to_owned);
        Some(BenchRecord {
            workload: text("workload")?,
            strategy: text("strategy")?,
            median_ns: row.get("median_ns")?.as_u64()?.into(),
            label: text("label")?,
        })
    }
}

/// The label stamped on new records: `BENCH_LABEL`, default `current`.
pub fn bench_label() -> String {
    std::env::var("BENCH_LABEL").unwrap_or_else(|_| "current".to_owned())
}

/// Where records land: `BENCH_COMPILE_JSON`, default `BENCH_compile.json`
/// at the workspace root.
pub fn default_path() -> PathBuf {
    match std::env::var("BENCH_COMPILE_JSON") {
        Ok(p) => PathBuf::from(p),
        Err(_) => Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("..")
            .join("..")
            .join("BENCH_compile.json"),
    }
}

/// Strategy key of a same-run ratio row: the median over samples of one
/// side's time over side 0's, in permille (it rides the integer
/// `median_ns` field).
pub const PAIRED_RATIO: &str = "paired_ratio_permille";

/// The sample count for a bench: `smoke` under `--test` (the CI smoke
/// run), `full` otherwise.
pub fn samples(smoke: usize, full: usize) -> usize {
    if std::env::args().any(|a| a == "--test") {
        smoke
    } else {
        full
    }
}

/// What [`interleaved`] measured, one entry per side in the order given.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sampled {
    /// Median wall-clock nanoseconds of each side.
    pub median_ns: Vec<u128>,
    /// Median over samples of `side / side 0`, in permille (entry 0 is
    /// side 0 against itself).
    pub ratio_permille: Vec<u128>,
}

impl Sampled {
    /// One record per side: `strategies[i]` carries side `i`'s median.
    pub fn records<S: AsRef<str>>(&self, workload: &str, strategies: &[S]) -> Vec<BenchRecord> {
        strategies
            .iter()
            .zip(&self.median_ns)
            .map(|(strategy, &ns)| BenchRecord::new(workload, strategy.as_ref(), ns))
            .collect()
    }

    /// The [`PAIRED_RATIO`] record of `side` against side 0.
    pub fn ratio_record(&self, workload: &str, side: usize) -> BenchRecord {
        BenchRecord::new(workload, PAIRED_RATIO, self.ratio_permille[side])
    }
}

/// Runs each of `sides` once untimed, then `samples` times round-robin —
/// every sample runs all sides back to back, in order — and returns each
/// side's median wall-clock time and the median of its per-sample ratios
/// to side 0.
///
/// # Panics
///
/// Panics if `samples == 0` or `sides` is empty.
pub fn interleaved<F: FnMut()>(samples: usize, sides: &mut [F]) -> Sampled {
    assert!(samples > 0, "at least one sample is required");
    sides.iter_mut().for_each(|side| side());
    let mut times = vec![Vec::with_capacity(samples); sides.len()];
    for _ in 0..samples {
        for (side, times) in sides.iter_mut().zip(&mut times) {
            let start = Instant::now();
            side();
            times.push(start.elapsed().as_nanos());
        }
    }
    summarize(&times)
}

/// The pure summary step of [`interleaved`] over `times[side][sample]`:
/// each side's median and the median of its per-sample ratios to side 0
/// (a zero-duration side-0 sample counts as 1 ns). An even count takes
/// the upper of the two middle values.
///
/// # Panics
///
/// Panics if `times` is empty or its sides differ in sample count.
fn summarize(times: &[Vec<u128>]) -> Sampled {
    fn median(mut values: Vec<u128>) -> u128 {
        values.sort_unstable();
        values[values.len() / 2]
    }
    let base = &times[0];
    assert!(times.iter().all(|t| t.len() == base.len()), "sides differ in sample count");
    Sampled {
        median_ns: times.iter().map(|t| median(t.clone())).collect(),
        ratio_permille: times
            .iter()
            .map(|t| median(t.iter().zip(base).map(|(&t, &b)| t * 1000 / b.max(1)).collect()))
            .collect(),
    }
}

/// Merges `records` into the file at [`default_path`] and prints them.
///
/// # Panics
///
/// Panics, naming the file, when [`record_at`] fails: a bench whose rows
/// cannot land must not pass.
pub fn record(records: &[BenchRecord]) {
    let path = default_path();
    if let Err(e) = record_at(&path, records) {
        panic!("cannot record to {}: {e}", path.display());
    }
    for r in records {
        println!("{}/{}: {} ({})", r.workload, r.strategy, r.median_ns, r.label);
    }
    println!("recorded {} rows to {}", records.len(), path.display());
}

/// Merges `records` into `path`: existing records with the same
/// `(workload, strategy, label)` key are replaced, others are kept, and
/// the result is written sorted by key, one record per line.
///
/// # Errors
///
/// Whatever [`read_records`] reports, in which case the file is left
/// untouched, or the write's I/O error.
pub fn record_at(path: &Path, records: &[BenchRecord]) -> io::Result<()> {
    let mut all = read_records(path)?;
    for r in records {
        match all.iter_mut().find(|existing| existing.key() == r.key()) {
            Some(slot) => *slot = r.clone(),
            None => all.push(r.clone()),
        }
    }
    all.sort_by(|a, b| a.key().cmp(&b.key()));
    let body: Vec<String> = all.iter().map(|r| format!("  {}", r.to_json().encode())).collect();
    std::fs::write(path, format!("[\n{}\n]\n", body.join(",\n")))
}

/// Reads the records file at `path`. A missing file reads as empty.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidData`] when the file is not an array of
/// records; when it is not JSON at all, the inner error is the codec's
/// [`JsonError`](fastsc_telemetry::json::JsonError), carrying the byte
/// offset. Other read failures pass through.
pub fn read_records(path: &Path) -> io::Result<Vec<BenchRecord>> {
    let text = match std::fs::read_to_string(path) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        text => text?,
    };
    let invalid = |e: Box<dyn std::error::Error + Send + Sync>| {
        io::Error::new(io::ErrorKind::InvalidData, e)
    };
    let doc = Json::parse(&text).map_err(|e| invalid(e.into()))?;
    let rows = doc.as_array().ok_or_else(|| invalid("not an array of records".into()))?;
    rows.iter()
        .enumerate()
        .map(|(i, row)| {
            BenchRecord::from_json(row)
                .ok_or_else(|| invalid(format!("row {i} is not a record").into()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastsc_telemetry::json::JsonError;

    fn tmp_file(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("fastsc_record_{name}_{}.json", std::process::id()))
    }

    #[test]
    fn roundtrip_preserves_records() {
        let path = tmp_file("roundtrip");
        let records = vec![
            BenchRecord {
                workload: "xeb16".into(),
                strategy: "ColorDynamic".into(),
                median_ns: 123_456,
                label: "pre".into(),
            },
            BenchRecord {
                workload: "skewed_batch".into(),
                strategy: "sequential".into(),
                median_ns: 9_999_999_999,
                label: "post".into(),
            },
        ];
        record_at(&path, &records).unwrap();
        let mut read = read_records(&path).unwrap();
        read.sort_by(|a, b| a.workload.cmp(&b.workload));
        assert_eq!(read.len(), 2);
        assert_eq!(read[0].workload, "skewed_batch");
        assert_eq!(read[1].median_ns, 123_456);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rerecord_replaces_same_key() {
        let path = tmp_file("replace");
        let mk = |ns| BenchRecord {
            workload: "w".into(),
            strategy: "s".into(),
            median_ns: ns,
            label: "l".into(),
        };
        record_at(&path, &[mk(1)]).unwrap();
        record_at(&path, &[mk(2)]).unwrap();
        let read = read_records(&path).unwrap();
        assert_eq!(read.len(), 1);
        assert_eq!(read[0].median_ns, 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn merge_keeps_other_keys() {
        let path = tmp_file("merge");
        let a = BenchRecord {
            workload: "a".into(),
            strategy: "s".into(),
            median_ns: 1,
            label: "pre".into(),
        };
        let b = BenchRecord { workload: "b".into(), ..a.clone() };
        record_at(&path, &[a]).unwrap();
        record_at(&path, &[b]).unwrap();
        assert_eq!(read_records(&path).unwrap().len(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_is_valid_json_array_shape() {
        let path = tmp_file("shape");
        record_at(
            &path,
            &[BenchRecord {
                workload: "w".into(),
                strategy: "s".into(),
                median_ns: 7,
                label: "l".into(),
            }],
        )
        .unwrap();
        let text = std::fs::read_to_string(&path).expect("written");
        assert!(text.starts_with("[\n"));
        assert!(text.ends_with("\n]\n"));
        assert!(text.contains("\"median_ns\":7"));
        assert!(Json::parse(&text).is_ok());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn quotes_and_backslashes_roundtrip() {
        let path = tmp_file("escape");
        let tricky = BenchRecord {
            workload: "say \"hi\"\\now".into(),
            strategy: "s".into(),
            median_ns: 5,
            label: "pre\"post".into(),
        };
        record_at(&path, std::slice::from_ref(&tricky)).unwrap();
        // Re-recording the same key replaces, never duplicates.
        record_at(&path, std::slice::from_ref(&tricky)).unwrap();
        let read = read_records(&path).unwrap();
        assert_eq!(read, vec![tricky]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn summary_of_an_odd_count_takes_the_middle() {
        let sampled = summarize(&[vec![30, 10, 20], vec![60, 10, 30]]);
        assert_eq!(sampled.median_ns, vec![20, 30]);
        // Pair ratios 2000, 1000, 1500 ‰: their median, not 30 / 20.
        assert_eq!(sampled.ratio_permille, vec![1000, 1500]);
    }

    #[test]
    fn summary_of_an_even_count_takes_the_upper_middle() {
        let sampled = summarize(&[vec![40, 10, 30, 20], vec![40, 30, 30, 10]]);
        assert_eq!(sampled.median_ns, vec![30, 30]);
        // Pair ratios 1000, 3000, 1000, 500 ‰.
        assert_eq!(sampled.ratio_permille, vec![1000, 1000]);
    }

    #[test]
    fn summary_guards_a_zero_duration_reference() {
        let sampled = summarize(&[vec![0], vec![3]]);
        assert_eq!(sampled.median_ns, vec![0, 3]);
        assert_eq!(sampled.ratio_permille, vec![0, 3000]);
    }

    #[test]
    fn interleaved_warms_up_then_runs_every_side_per_sample() {
        let order = std::cell::RefCell::new(Vec::new());
        let mut a = || order.borrow_mut().push('a');
        let mut b = || order.borrow_mut().push('b');
        let sampled = interleaved(2, &mut [&mut a as &mut dyn FnMut(), &mut b]);
        assert_eq!(order.into_inner(), ['a', 'b', 'a', 'b', 'a', 'b']);
        assert_eq!(sampled.median_ns.len(), 2);
        assert_eq!(sampled.ratio_permille.len(), 2);
    }

    #[test]
    fn sampled_rows_name_each_side() {
        let sampled = Sampled { median_ns: vec![80, 160], ratio_permille: vec![1000, 2000] };
        let rows = sampled.records("w", &["a", "b"]);
        assert_eq!((rows[1].strategy.as_str(), rows[1].median_ns), ("b", 160));
        let ratio = sampled.ratio_record("w", 1);
        assert_eq!((ratio.strategy.as_str(), ratio.median_ns), (PAIRED_RATIO, 2000));
    }

    #[test]
    fn a_garbled_row_is_an_error_and_the_file_is_left_untouched() {
        let path = tmp_file("garbled");
        let good = r#"  {"workload": "w", "strategy": "s", "median_ns": 1, "label": "post"}"#;
        let text = format!("[\n{good},\n  {{\"workload\": \"x\", \"strategy\" 2}}\n]\n");
        std::fs::write(&path, &text).unwrap();
        let row = BenchRecord::new("w2", "s", 3);
        let err = record_at(&path, &[row]).expect_err("garbled file");
        let json = err.into_inner().and_then(|e| e.downcast::<JsonError>().ok());
        assert_eq!(json.map(|e| e.offset), text.find("2}"));
        assert_eq!(std::fs::read_to_string(&path).unwrap(), text);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_row_missing_a_field_is_an_error() {
        let path = tmp_file("missing_field");
        std::fs::write(&path, r#"[{"workload": "w", "strategy": "s", "label": "l"}]"#).unwrap();
        let err = read_records(&path).expect_err("row without median_ns");
        assert_eq!(err.to_string(), "row 0 is not a record");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_reads_empty() {
        assert!(read_records(Path::new("/nonexistent/fastsc.json")).unwrap().is_empty());
    }
}
