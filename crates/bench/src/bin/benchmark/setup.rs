//! Set-up: what `s2rdf load` does (read the N-Triples file, build every VP
//! and ExtVP table, save the store), measured stage by stage and repeated
//! for a median, plus the process-level readings (CPU seconds, peak
//! resident memory).

use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::time::Instant;

use s2rdf_columnar::TableStore;
use s2rdf_core::{BuildOptions, S2rdfStore};
use s2rdf_model::ntriples;

use crate::report::median;

/// Set-ups of a run; `setup_s` is their median.
const SETUPS: usize = 3;
/// No further set-up starts once the earlier ones took this many seconds:
/// when `fsync` is slow a single one takes 15 s and more, and the run must
/// still end in time.
const REPEAT_WITHIN_S: f64 = 6.0;

/// A table file below this size is a "small table": it fits one chunk, so
/// per-chunk and header overhead is most of it (ROADMAP item 2b).
const SMALL_TABLE_BYTES: u64 = 4096;

#[derive(Clone)]
pub struct Setup {
    /// The saved store.
    pub dir: PathBuf,
    pub triples: usize,
    /// On-CPU seconds of the three stages, median of `setups`: `setup_s`.
    pub cpu_s: f64,
    pub setups: usize,
    pub wall_s: f64,
    pub parse_s: f64,
    pub build_s: f64,
    pub save_s: f64,
    pub dict_terms: usize,
    pub tables: usize,
    pub bytes_total: u64,
    pub bytes_extvp: u64,
    pub small_table_bytes_share: f64,
    pub extvp_tuples_per_vp_tuple: f64,
}

impl Setup {
    pub fn bytes_per_triple(&self) -> f64 {
        self.bytes_total as f64 / self.triples as f64
    }
}

/// Sets the store up `SETUPS` times, each time from nothing, and keeps the
/// last; the stage times are the last one's.
pub fn set_up(nt_path: &Path, dir: PathBuf) -> Setup {
    let started = Instant::now();
    let mut cpu_s = Vec::new();
    loop {
        let setup = load_dataset(nt_path, dir.clone());
        cpu_s.push(setup.cpu_s);
        if cpu_s.len() == SETUPS || started.elapsed().as_secs_f64() > REPEAT_WITHIN_S {
            return Setup {
                cpu_s: median(&cpu_s),
                setups: cpu_s.len(),
                ..setup
            };
        }
        std::fs::remove_dir_all(&dir).expect("remove the store of an earlier set-up");
    }
}

/// One set-up into `dir`, which does not exist yet.
pub fn load_dataset(nt_path: &Path, dir: PathBuf) -> Setup {
    let cpu_before = on_cpu_seconds();
    let started = Instant::now();
    let file = std::fs::File::open(nt_path).expect("open data.nt");
    let graph = ntriples::read_graph(BufReader::new(file)).expect("data.nt parses");
    let parse_s = started.elapsed().as_secs_f64();
    let store = S2rdfStore::build(&graph, &BuildOptions::default());
    let build_s = started.elapsed().as_secs_f64() - parse_s;
    store.save(&dir).expect("save the store");
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_s = on_cpu_seconds() - cpu_before;

    let tables = TableStore::open(dir.join("tables")).expect("open the saved tables");
    let sizes: Vec<u64> = tables
        .names()
        .iter()
        .map(|name| tables.file_size(name).expect("size of a saved table"))
        .collect();
    let small: u64 = sizes.iter().filter(|&&s| s < SMALL_TABLE_BYTES).sum();
    let (_, _, bytes_extvp) = S2rdfStore::disk_sizes(&dir).expect("sizes of the saved store");
    Setup {
        triples: graph.len(),
        cpu_s,
        setups: 1,
        wall_s,
        parse_s,
        build_s,
        save_s: wall_s - parse_s - build_s,
        dict_terms: graph.dict().len(),
        tables: sizes.len(),
        bytes_total: dir_bytes(&dir),
        bytes_extvp,
        small_table_bytes_share: small as f64 / sizes.iter().sum::<u64>() as f64,
        extvp_tuples_per_vp_tuple: store.extvp_tuples() as f64 / store.vp_tuples() as f64,
        dir,
    }
}

/// Bytes of every file below `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .expect("read a store directory")
        .map(|entry| {
            let entry = entry.expect("read a store directory entry");
            let meta = entry.metadata().expect("stat a store file");
            if meta.is_dir() {
                dir_bytes(&entry.path())
            } else {
                meta.len()
            }
        })
        .sum()
}

/// Seconds this process has spent on a CPU so far, in user and in kernel
/// mode, summed over its threads (`/proc/self/task/*/schedstat`, which the
/// kernel counts to the nanosecond). The only threads of this repository
/// are the worker pool's, which live as long as the process, so none has
/// ended between two readings and is missed.
///
/// `setup_s` and the checkpoints of `update` are measured with this clock
/// and not with wall time. Saving the store is some 2000 `fsync` calls and
/// a checkpoint some 800, and in this sandbox one costs 0.3 ms or 8 ms
/// depending on the minute, which moves the wall time of the same set-up
/// from 2 s to 40 s. On-CPU time leaves the waiting out and keeps the work:
/// computing in user mode, and the kernel's share of every `write`, `rename`
/// and `fsync` the program issues.
pub fn on_cpu_seconds() -> f64 {
    let ns: u64 = std::fs::read_dir("/proc/self/task")
        .expect("the benchmark reads CPU time from /proc (Linux only)")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("schedstat")).ok())
        .filter_map(|stat| stat.split_whitespace().next()?.parse::<u64>().ok())
        .sum();
    ns as f64 / 1e9
}

/// Peak resident set size of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status")
        .expect("the benchmark reads VmHWM from /proc (Linux only)");
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}
