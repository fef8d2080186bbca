//! Checkpoint-directory re-scan tests: a [`JobStore`] opened over the
//! files a killed server left behind must resume exactly where it
//! stopped — completed cells restored from their checkpoints, unfinished
//! cells re-run — and the final NDJSON must be byte-identical to an
//! uninterrupted run, for *every* possible crash point in the checkpoint
//! file (record boundaries and a torn final line alike).

use dispersion_graphs::families::Family;
use dispersion_serve::jobs::NextRecord;
use dispersion_serve::metrics::Metrics;
use dispersion_serve::spec_json::spec_to_json;
use dispersion_serve::JobStore;
use dispersion_sim::experiment::Process;
use dispersion_sim::spec::{Budget, CellSpec, ExperimentSpec, FamilySpec, Measure};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn spec() -> ExperimentSpec {
    let mut spec = ExperimentSpec::new(42);
    for (family, n, process) in [
        (Family::Complete, 48, Process::Sequential),
        (Family::Cycle, 24, Process::Parallel),
        (Family::Star, 32, Process::Sequential),
        (Family::BinaryTree, 31, Process::Parallel),
    ] {
        spec.push(
            CellSpec::new(
                FamilySpec::explicit(family, n),
                Measure::Dispersion(process),
            )
            .budget(Budget::Trials(8)),
        );
    }
    spec
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("serve_scan_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs the job to completion in `dir` (submitting if the directory has
/// no spec yet) and returns the drained stream lines. One worker: with a
/// single job, claims then happen in cell order, so the checkpoint
/// *file* is deterministic too (the stream is in cell order at any
/// worker count; the file records completion order).
fn run_to_completion(dir: &Path) -> (Arc<JobStore>, Vec<String>) {
    let metrics = Arc::new(Metrics::new());
    let store = JobStore::open(Some(dir.to_path_buf()), 8, metrics).unwrap();
    let id = if dir.join("job-1.spec.json").exists() {
        1
    } else {
        store.submit(spec()).unwrap()
    };
    let workers = store.start_workers(1);
    let mut lines = Vec::new();
    let mut k = 0;
    loop {
        match store.next_record(id, k) {
            NextRecord::Line(line) => {
                lines.push(line);
                k += 1;
            }
            NextRecord::End => break,
            NextRecord::NotFound => panic!("job {id} missing"),
        }
    }
    store.stop();
    for w in workers {
        w.join().unwrap();
    }
    (store, lines)
}

#[test]
fn every_crash_point_resumes_to_identical_ndjson() {
    // reference: one uninterrupted run
    let ref_dir = fresh_dir("ref");
    let (_, ref_lines) = run_to_completion(&ref_dir);
    assert_eq!(ref_lines.len(), spec().len());
    let full = std::fs::read_to_string(ref_dir.join("job-1.ndjson")).unwrap();
    let spec_file = std::fs::read_to_string(ref_dir.join("job-1.spec.json")).unwrap();
    assert_eq!(spec_file, spec_to_json(&spec()));

    // crash points: empty file, each record boundary, and a torn final
    // line cut mid-record
    let mut cuts: Vec<usize> = vec![0];
    cuts.extend(
        full.bytes()
            .enumerate()
            .filter(|(_, b)| *b == b'\n')
            .map(|(i, _)| i + 1),
    );
    let mid = full.find('\n').unwrap() + full.len() / 3;
    cuts.push(mid.min(full.len() - 2));

    for (case, cut) in cuts.into_iter().enumerate() {
        let dir = fresh_dir(&format!("cut{case}"));
        std::fs::write(dir.join("job-1.spec.json"), &spec_file).unwrap();
        std::fs::write(dir.join("job-1.ndjson"), &full.as_bytes()[..cut]).unwrap();

        let whole_records = full.as_bytes()[..cut]
            .iter()
            .filter(|&&b| b == b'\n')
            .count();
        let (store, lines) = run_to_completion(&dir);
        assert_eq!(lines, ref_lines, "cut at byte {cut} diverged");
        let final_bytes = std::fs::read_to_string(dir.join("job-1.ndjson")).unwrap();
        assert_eq!(
            final_bytes, full,
            "checkpoint after resume from cut {cut} not bit-identical"
        );
        // exactly the whole records before the cut were restored, the
        // rest re-ran
        assert_eq!(
            store
                .metrics
                .cells_resumed
                .load(std::sync::atomic::Ordering::Relaxed),
            whole_records as u64,
            "cut at byte {cut}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&ref_dir);
}

/// Sharded layout: the re-scan must restore from `job-1.shard<i>.ndjson`
/// files cut at *every* pair of record boundaries (plus a torn final
/// line), re-run only the missing cells, and serve a byte-identical
/// stream. The store runs in-process workers here — the restore path is
/// what's under test, and it is shared with the live fabric.
#[test]
fn sharded_checkpoints_resume_at_every_record_boundary() {
    // reference lines (stream order = cell order)
    let ref_dir = fresh_dir("shref");
    let (_, ref_lines) = run_to_completion(&ref_dir);
    let spec_file = std::fs::read_to_string(ref_dir.join("job-1.spec.json")).unwrap();

    // shard i's checkpoint holds its owned cells (cell mod 2 == i) in
    // ascending cell order — exactly what a single worker session writes
    let owned: [Vec<&str>; 2] = [
        ref_lines.iter().step_by(2).map(String::as_str).collect(),
        ref_lines
            .iter()
            .skip(1)
            .step_by(2)
            .map(String::as_str)
            .collect(),
    ];
    let shard_file = |shard: usize, records: usize| -> String {
        owned[shard][..records]
            .iter()
            .map(|l| format!("{l}\n"))
            .collect()
    };

    for n0 in 0..=owned[0].len() {
        for n1 in 0..=owned[1].len() {
            let dir = fresh_dir(&format!("shcut{n0}_{n1}"));
            std::fs::write(dir.join("job-1.spec.json"), &spec_file).unwrap();
            std::fs::write(dir.join("job-1.shard0.ndjson"), shard_file(0, n0)).unwrap();
            let mut f1 = shard_file(1, n1);
            if n1 < owned[1].len() {
                // torn final line: must be ignored, not restored
                f1.push_str(&owned[1][n1][..owned[1][n1].len() / 2]);
            }
            std::fs::write(dir.join("job-1.shard1.ndjson"), f1).unwrap();

            let metrics = Arc::new(Metrics::new());
            let store = JobStore::open_with_shards(Some(dir.clone()), 8, metrics, 2).unwrap();
            assert_eq!(
                store
                    .metrics
                    .cells_resumed
                    .load(std::sync::atomic::Ordering::Relaxed),
                (n0 + n1) as u64,
                "cut ({n0},{n1}): wrong restore count"
            );
            // finish the missing cells with in-process workers (the
            // restore path, not the transport, is under test here)
            let workers = store.start_workers(1);
            let mut lines = Vec::new();
            let mut k = 0;
            loop {
                match store.next_record(1, k) {
                    NextRecord::Line(line) => {
                        lines.push(line);
                        k += 1;
                    }
                    NextRecord::End => break,
                    NextRecord::NotFound => panic!("job 1 missing"),
                }
            }
            assert_eq!(lines, ref_lines, "cut ({n0},{n1}) diverged");
            store.stop();
            for w in workers {
                w.join().unwrap();
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    let _ = std::fs::remove_dir_all(&ref_dir);
}

/// A corrupt *shard* checkpoint only costs its own cells a re-run — the
/// job itself stays loadable (unlike interior corruption of the k = 0
/// `job-<id>.ndjson`, which skips the whole job).
#[test]
fn corrupt_shard_checkpoint_reruns_only_its_cells() {
    let ref_dir = fresh_dir("shcorrupt_ref");
    let (_, ref_lines) = run_to_completion(&ref_dir);
    let spec_file = std::fs::read_to_string(ref_dir.join("job-1.spec.json")).unwrap();

    let dir = fresh_dir("shcorrupt");
    std::fs::write(dir.join("job-1.spec.json"), &spec_file).unwrap();
    // shard 0: interior garbage; shard 1: healthy (cells 1 and 3)
    std::fs::write(dir.join("job-1.shard0.ndjson"), "garbage\n{\"also\": bad\n").unwrap();
    let healthy: String = ref_lines
        .iter()
        .skip(1)
        .step_by(2)
        .map(|l| format!("{l}\n"))
        .collect();
    std::fs::write(dir.join("job-1.shard1.ndjson"), healthy).unwrap();

    let store =
        JobStore::open_with_shards(Some(dir.clone()), 8, Arc::new(Metrics::new()), 2).unwrap();
    assert_eq!(
        store
            .metrics
            .cells_resumed
            .load(std::sync::atomic::Ordering::Relaxed),
        2,
        "healthy shard file not restored"
    );
    let workers = store.start_workers(1);
    let mut lines = Vec::new();
    let mut k = 0;
    while let NextRecord::Line(line) = store.next_record(1, k) {
        lines.push(line);
        k += 1;
    }
    assert_eq!(lines, ref_lines, "stream after corrupt shard diverged");
    store.stop();
    for w in workers {
        w.join().unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&ref_dir);
}

#[test]
fn corrupt_interior_or_spec_skips_that_job_only() {
    let dir = fresh_dir("corrupt");
    // job 1: interior checkpoint corruption (not just a torn tail)
    std::fs::write(dir.join("job-1.spec.json"), spec_to_json(&spec())).unwrap();
    std::fs::write(dir.join("job-1.ndjson"), "garbage\n{\"also\": bad\n").unwrap();
    // job 2: unparseable spec
    std::fs::write(dir.join("job-2.spec.json"), "{not a spec").unwrap();
    // job 3: healthy
    std::fs::write(dir.join("job-3.spec.json"), spec_to_json(&spec())).unwrap();

    let store = JobStore::open(Some(dir.clone()), 8, Arc::new(Metrics::new())).unwrap();
    assert!(store.status_json(1).is_none(), "corrupt checkpoint kept");
    assert!(store.status_json(2).is_none(), "corrupt spec kept");
    let status = store.status_json(3).unwrap();
    assert!(status.contains("\"status\":\"queued\""), "{status}");
    // new ids start after the highest scanned id, even with skips
    let id = store.submit(spec()).unwrap();
    assert_eq!(id, 4);
    store.stop();
    let _ = std::fs::remove_dir_all(&dir);

    // the highest id is the skipped job: its id must not be reused, or
    // the new job would append after the stale garbage and be lost as
    // corrupt on the next restart
    let dir = fresh_dir("corrupt_last");
    std::fs::write(dir.join("job-1.spec.json"), spec_to_json(&spec())).unwrap();
    std::fs::write(dir.join("job-2.spec.json"), spec_to_json(&spec())).unwrap();
    std::fs::write(dir.join("job-2.ndjson"), "garbage\n{\"also\": bad\n").unwrap();
    let store = JobStore::open(Some(dir.clone()), 8, Arc::new(Metrics::new())).unwrap();
    assert!(store.status_json(2).is_none(), "corrupt checkpoint kept");
    assert_eq!(store.submit(spec()).unwrap(), 3);
    store.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cancelled_marker_keeps_job_inert_across_restart() {
    let dir = fresh_dir("marker");
    std::fs::write(dir.join("job-1.spec.json"), spec_to_json(&spec())).unwrap();
    std::fs::write(dir.join("job-1.cancelled"), b"").unwrap();

    let store = JobStore::open(Some(dir.clone()), 8, Arc::new(Metrics::new())).unwrap();
    let workers = store.start_workers(2);
    let status = store.status_json(1).unwrap();
    assert!(status.contains("\"status\":\"cancelled\""), "{status}");
    // its stream ends immediately and no checkpoint appears
    assert_eq!(store.next_record(1, 0), NextRecord::End);
    std::thread::sleep(std::time::Duration::from_millis(50));
    assert!(!dir.join("job-1.ndjson").exists(), "cancelled job ran");
    store.stop();
    for w in workers {
        w.join().unwrap();
    }

    // a restored tombstone does not occupy a queue slot
    let store = JobStore::open(Some(dir.clone()), 1, Arc::new(Metrics::new())).unwrap();
    assert!(store.submit(spec()).is_ok());
    store.stop();
    let _ = std::fs::remove_dir_all(&dir);
}
