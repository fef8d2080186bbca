//! Deterministic workload generation: every input the program receives
//! (spec JSON, arrival schedule) is a function of the workload name and
//! the benchmark seed, and of nothing else.

use dispersion_core::process::ProcessConfig;
use dispersion_graphs::families::Family;
use dispersion_graphs::Vertex;
use dispersion_serve::spec_json::spec_to_json;
use dispersion_sim::experiment::Process;
use dispersion_sim::rng::{splitmix64, Xoshiro256pp};
use dispersion_sim::spec::{Budget, CellSpec, ExperimentSpec, FamilySpec, Measure};
use rand::RngExt;

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["torus-fill", "table1-sweep", "serve-jobs", "serve-sharded"];

/// Side of the `torus-fill` torus (an Open Problem 1 side; one fill of
/// both trials takes a few seconds).
pub const TORUS_SIDE: usize = 160;

/// Trials per `table1-sweep` cell (two runner chunks of 8).
pub const TABLE1_TRIALS: usize = 16;

/// Offered rates of the serve ladder, in jobs per second. The middle rung
/// is where the latency figures are taken. The top rung stays below where
/// `--shards 2` starts refusing jobs on two cores: at 100 jobs/s its
/// 64-job queue filled in 2 of 10 runs, because every job's cell 0, heavy
/// cells included, goes to shard 0.
pub const LADDER: [f64; 3] = [15.0, 30.0, 60.0];

/// Index of the rung that reports `ttfr_*` and `job_*`.
pub const MIDDLE_RUNG: usize = 1;

/// Share of the ladder each rung lasts: the middle rung gets half, so its
/// latency figures rest on the most samples.
pub const RUNG_SHARE: [f64; 3] = [0.25, 0.5, 0.25];

/// Share of `--seconds` the ladder lasts; the capacity phase gets the
/// rest.
pub const LADDER_SHARE: f64 = 0.5;

/// Jobs per batch of the capacity phase. The batch is submitted with at
/// most [`CAPACITY_WINDOW`] jobs unread, so the server's queue is never
/// empty and the batch's drain time is the server's, not the schedule's.
pub const CAPACITY_BATCH: usize = 40;

/// Cells per capacity job. Many cells per job keep the connection count
/// low: every closed connection stays in `TIME_WAIT` for a minute, and
/// with tens of thousands of those on loopback a 2-vCPU host served the
/// same batch three times slower, so a connection-heavy run slows the
/// runs after it.
pub const CAPACITY_CELLS: usize = 48;

/// Jobs of the untimed batch that warms each capacity server up.
pub const CAPACITY_WARM_JOBS: usize = 10;

/// Jobs submitted but not yet read during the capacity phase (well below
/// the server's default bound of 64 live jobs).
pub const CAPACITY_WINDOW: usize = 8;

/// Capacity batches per second of the capacity phase's share of the run;
/// each batch runs on a fresh server. The job store keeps every finished
/// job and its claims scan them all, so on one long-lived server a
/// batch's drain time would depend on how many jobs came before it (on
/// a 2-vCPU host it doubled after about 3000 jobs).
pub const CAPACITY_BATCHES_PER_S: f64 = 1.2;

/// Trials per cell of the capacity phase: the light end of the mix, so
/// the server's per-cell path, not the engine, sets the drain time.
pub const CAPACITY_TRIALS: usize = 8;

/// Job latency limit for `sustained_jobs_per_s`, in seconds (applied to
/// the p99 of each rung).
pub const LATENCY_LIMIT_S: f64 = 1.0;

/// Share of serve jobs that carry one heavier torus cell.
pub const HEAVY_SHARE: f64 = 0.02;

/// Side of the heavier torus cell (about 100 ms of engine time).
pub const HEAVY_SIDE: usize = 48;

/// Distinct heavy specs per seed; heavy jobs resubmit one of them.
const HEAVY_VARIANTS: u64 = 3;

/// Share of multi-cell jobs whose stream is re-read with `Last-Record`.
pub const RESUME_SHARE: f64 = 0.25;

/// Status polls per submitted job.
pub const POLLS_PER_JOB: f64 = 0.5;

/// An RNG for one purpose of one workload: the seed and a purpose salt
/// go through SplitMix64 so nearby seeds give unrelated streams.
fn stream(seed: u64, salt: u64) -> Xoshiro256pp {
    let mut s = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    Xoshiro256pp::new(splitmix64(&mut s))
}

/// The single `torus-fill` cell: Parallel dispersion on the implicit 2-d
/// torus from its centre, two trials, default process configuration.
pub fn torus_fill_spec(seed: u64) -> ExperimentSpec {
    torus_spec(seed, TORUS_SIDE, 2)
}

/// A Parallel fill of a `side × side` implicit torus from its centre.
pub fn torus_spec(seed: u64, side: usize, trials: usize) -> ExperimentSpec {
    let centre = ((side / 2) * side + side / 2) as Vertex;
    ExperimentSpec::new(seed).cell(
        CellSpec::new(
            FamilySpec::implicit(Family::Torus2d, side * side).origin(centre),
            Measure::Dispersion(Process::Parallel),
        )
        .budget(Budget::Trials(trials))
        .config(ProcessConfig::default()),
    )
}

/// The `table1` binary's default sizes per family.
pub fn table1_sizes(family: Family) -> &'static [usize] {
    match family {
        Family::Path | Family::Cycle => &[32, 64, 128, 256],
        Family::Torus2d => &[64, 144, 256, 576],
        Family::Torus3d => &[64, 216, 512, 1000],
        Family::BinaryTree => &[63, 127, 255, 511, 1023],
        Family::Hypercube | Family::Complete | Family::RandomRegular(_) => {
            &[128, 256, 512, 1024, 2048]
        }
        Family::Star | Family::Lollipop => &[],
    }
}

/// The `table1-sweep` spec: every Table 1 family at `table1` sizes, one
/// Sequential and one Parallel(+half) cell per size, explicit CSR.
pub fn table1_spec(seed: u64) -> ExperimentSpec {
    let mut spec = ExperimentSpec::new(seed);
    for family in Family::table1() {
        for (k, &size) in table1_sizes(family).iter().enumerate() {
            let fam = FamilySpec::explicit(family, size)
                .graph_seed(seed ^ (k as u64).wrapping_mul(0x9E37));
            for measure in [
                Measure::Dispersion(Process::Sequential),
                Measure::ParallelWithHalf,
            ] {
                spec.push(
                    CellSpec::new(fam.clone(), measure).budget(Budget::Trials(TABLE1_TRIALS)),
                );
            }
        }
    }
    spec
}

/// One job of the serve open loop.
#[derive(Clone, Debug, PartialEq)]
pub struct JobPlan {
    /// Rung of the ladder the job belongs to.
    pub rung: usize,
    /// Due time, in seconds after the rung starts.
    pub due: f64,
    /// The `POST /jobs` body.
    pub spec_json: String,
    /// Number of cells (= records the stream carries).
    pub cells: usize,
    /// Whether the job carries the heavier torus cell.
    pub heavy: bool,
    /// `Some(k)`: after the full stream, re-read it with `Last-Record: k`.
    pub resume_from: Option<usize>,
}

/// A status poll of an earlier job of the same rung.
#[derive(Clone, Debug, PartialEq)]
pub struct PollPlan {
    /// Due time, in seconds after the rung starts.
    pub due: f64,
    /// Index (into [`ServePlan::jobs`]) of the job polled.
    pub job: usize,
}

/// The whole serve workload: the open loop's jobs and polls per rung,
/// and the capacity phase's batch.
#[derive(Clone, Debug, PartialEq)]
pub struct ServePlan {
    /// Length of each rung, in seconds.
    pub rung_s: Vec<f64>,
    /// Every job, rung by rung, in due order within a rung.
    pub jobs: Vec<JobPlan>,
    /// Every poll, rung by rung, in due order within a rung.
    pub polls: Vec<(usize, PollPlan)>,
    /// Batches of the capacity phase (at least three).
    pub capacity_batches: usize,
    /// One batch of the capacity phase, in submission order: small jobs
    /// only, all due at once (`due` 0, `rung` = `LADDER.len()`).
    pub capacity: Vec<JobPlan>,
}

impl ServePlan {
    /// Indices of the jobs of rung `r`.
    pub fn rung_jobs(&self, r: usize) -> Vec<usize> {
        (0..self.jobs.len())
            .filter(|&j| self.jobs[j].rung == r)
            .collect()
    }
}

/// `count` sorted arrival offsets in `[0, span)`: a Poisson process of
/// the rung's rate conditioned on its arrival count, so every seed offers
/// exactly the same number of jobs per rung.
fn arrivals(rng: &mut Xoshiro256pp, count: usize, span: f64) -> Vec<f64> {
    let mut t: Vec<f64> = (0..count).map(|_| rng.random::<f64>() * span).collect();
    t.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    t
}

/// Families and sizes of the small cells: clique, hypercube and cycle
/// at `n ≤ 256` (cycles stay small: their fill costs `Θ(n³)` steps).
const SMALL_SHAPES: [(Family, [usize; 3]); 3] = [
    (Family::Complete, [64, 128, 256]),
    (Family::Hypercube, [64, 128, 256]),
    (Family::Cycle, [16, 24, 32]),
];

/// Every small cell shape of the open loop, in a fixed order: family ×
/// size × backend × schedule × trials (8–32).
fn small_cells() -> Vec<CellSpec> {
    cell_shapes(&[0, 1, 2], &[8, 16, 24, 32])
}

/// The capacity phase's cell shapes: clique and hypercube at their
/// smallest size (a cycle fill costs `Θ(n³)` steps), both backends and
/// schedules, [`CAPACITY_TRIALS`] trials.
fn capacity_cells() -> Vec<CellSpec> {
    let mut cells = cell_shapes(&[0], &[CAPACITY_TRIALS]);
    cells.retain(|c| c.family.family != Family::Cycle);
    cells
}

/// Family × size (by index into [`SMALL_SHAPES`]) × backend × schedule ×
/// trials.
fn cell_shapes(size_idx: &[usize], trial_counts: &[usize]) -> Vec<CellSpec> {
    let mut out = Vec::new();
    for (family, sizes) in SMALL_SHAPES {
        for &size in size_idx.iter().map(|&i| &sizes[i]) {
            for implicit in [false, true] {
                for process in [Process::Sequential, Process::Parallel] {
                    for &trials in trial_counts {
                        let fam = if implicit {
                            FamilySpec::implicit(family, size)
                        } else {
                            FamilySpec::explicit(family, size)
                        };
                        out.push(
                            CellSpec::new(fam, Measure::Dispersion(process))
                                .budget(Budget::Trials(trials)),
                        );
                    }
                }
            }
        }
    }
    out
}

/// Fisher–Yates shuffle.
fn shuffle<T>(rng: &mut Xoshiro256pp, xs: &mut [T]) {
    for i in (1..xs.len()).rev() {
        xs.swap(i, rng.random_range(0..=i));
    }
}

/// `count` small job specs in a seeded order, with cell counts cycling
/// through `cells` in equal numbers and the cells cycling through
/// `shapes` from a seeded offset.
fn small_specs(
    rng: &mut Xoshiro256pp,
    count: usize,
    cells: &[usize],
    shapes: &[CellSpec],
) -> Vec<ExperimentSpec> {
    let mut sizes: Vec<usize> = (0..count).map(|i| cells[i % cells.len()]).collect();
    shuffle(rng, &mut sizes);
    let offset = rng.random_range(0..shapes.len());
    let mut cells: Vec<CellSpec> = (0..sizes.iter().sum::<usize>())
        .map(|c| shapes[(offset + c) % shapes.len()].clone())
        .collect();
    shuffle(rng, &mut cells);
    let mut cells = cells.into_iter();
    sizes
        .into_iter()
        .map(|size| {
            let mut spec = ExperimentSpec::new(rng.random::<u64>() >> 12);
            for _ in 0..size {
                spec.push(cells.next().expect("enough small cells"));
            }
            spec
        })
        .collect()
}

/// A job of `spec`, re-read with `Last-Record` if the seed says so.
fn job_plan(
    rng: &mut Xoshiro256pp,
    rung: usize,
    due: f64,
    spec: &ExperimentSpec,
    heavy: bool,
) -> JobPlan {
    let cells = spec.len();
    let resume_from =
        (cells > 1 && rng.random_bool(RESUME_SHARE)).then(|| rng.random_range(1..cells));
    JobPlan {
        rung,
        due,
        spec_json: spec_to_json(spec),
        cells,
        heavy,
        resume_from,
    }
}

/// The serve workload for `seed`, lasting about `seconds`: the open-loop
/// ladder for [`LADDER_SHARE`] of it, the capacity phase for the rest.
///
/// Each rung offers the same mix for every seed, in a seeded order: an
/// exact share of heavy jobs, small jobs with 1–4 cells in equal numbers,
/// and small cells cycling through every shape. The seed picks the order,
/// the arrival times, the job seeds and which jobs are polled or re-read.
/// The capacity batch is made the same way from the lightest shapes, with
/// no heavy jobs.
pub fn serve_plan(seed: u64, seconds: f64) -> ServePlan {
    let rung_s: Vec<f64> = RUNG_SHARE
        .iter()
        .map(|f| f * LADDER_SHARE * seconds)
        .collect();
    let mut jobs = Vec::new();
    let mut polls = Vec::new();
    let mut rng = stream(seed, 0x5E21);
    let shapes = small_cells();
    for (r, &rate) in LADDER.iter().enumerate() {
        let count = (rate * rung_s[r]).round() as usize;
        let heavy_count = (HEAVY_SHARE * count as f64).round() as usize;
        let mut heavy: Vec<bool> = (0..count).map(|i| i < heavy_count).collect();
        shuffle(&mut rng, &mut heavy);
        let mut small =
            small_specs(&mut rng, count - heavy_count, &[1, 2, 3, 4], &shapes).into_iter();
        let first = jobs.len();
        for (due, heavy) in arrivals(&mut rng, count, rung_s[r]).into_iter().zip(heavy) {
            let spec = if heavy {
                torus_spec(
                    seed.wrapping_add(rng.random_range(0..HEAVY_VARIANTS)),
                    HEAVY_SIDE,
                    8,
                )
            } else {
                small.next().expect("one spec per small job")
            };
            jobs.push(job_plan(&mut rng, r, due, &spec, heavy));
        }
        let n_polls = (POLLS_PER_JOB * count as f64).round() as usize;
        for due in arrivals(&mut rng, n_polls, rung_s[r]) {
            // poll a job of this rung that is already due
            let due_jobs = jobs[first..].iter().take_while(|j| j.due <= due).count();
            if due_jobs == 0 {
                continue;
            }
            let job = first + rng.random_range(0..due_jobs);
            polls.push((r, PollPlan { due, job }));
        }
    }
    let mut rng = stream(seed, 0xCA9A);
    let capacity = small_specs(
        &mut rng,
        CAPACITY_BATCH,
        &[CAPACITY_CELLS],
        &capacity_cells(),
    )
    .iter()
    .map(|spec| job_plan(&mut rng, LADDER.len(), 0.0, spec, false))
    .collect();
    ServePlan {
        rung_s,
        jobs,
        polls,
        capacity_batches: ((1.0 - LADDER_SHARE) * seconds * CAPACITY_BATCHES_PER_S)
            .round()
            .max(3.0) as usize,
        capacity,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_inputs() {
        assert_eq!(spec_to_json(&table1_spec(7)), spec_to_json(&table1_spec(7)));
        assert_eq!(
            spec_to_json(&torus_fill_spec(7)),
            spec_to_json(&torus_fill_spec(7))
        );
        assert_eq!(serve_plan(7, 2.0), serve_plan(7, 2.0));
    }

    #[test]
    fn different_seeds_give_different_inputs() {
        assert_ne!(spec_to_json(&table1_spec(7)), spec_to_json(&table1_spec(8)));
        assert_ne!(
            spec_to_json(&torus_fill_spec(7)),
            spec_to_json(&torus_fill_spec(8))
        );
        let (a, b) = (serve_plan(7, 2.0), serve_plan(8, 2.0));
        assert_ne!(a.jobs, b.jobs);
        assert_ne!(a.polls, b.polls);
        assert_ne!(a.capacity, b.capacity);
    }

    #[test]
    fn every_seed_offers_the_same_job_count_per_rung() {
        for seed in 0..5 {
            let plan = serve_plan(seed, 2.0);
            for (r, &rate) in LADDER.iter().enumerate() {
                let want = (rate * 2.0 * LADDER_SHARE * RUNG_SHARE[r]).round() as usize;
                assert_eq!(plan.rung_jobs(r).len(), want);
            }
        }
    }

    #[test]
    fn polls_only_target_jobs_already_due() {
        let plan = serve_plan(3, 2.0);
        for (r, p) in &plan.polls {
            assert_eq!(plan.jobs[p.job].rung, *r);
            assert!(plan.jobs[p.job].due <= p.due);
        }
    }

    #[test]
    fn capacity_batch_is_small_jobs_only() {
        let plan = serve_plan(4, 2.0);
        assert_eq!(plan.capacity.len(), CAPACITY_BATCH);
        assert!(plan.capacity.iter().all(|j| !j.heavy && j.due == 0.0));
        assert!(plan.capacity.iter().all(|j| j.cells == CAPACITY_CELLS));
    }

    #[test]
    fn generated_specs_decode() {
        let plan = serve_plan(1, 1.0);
        for j in plan.jobs.iter().chain(&plan.capacity) {
            let spec = dispersion_serve::spec_json::spec_from_json(&j.spec_json).unwrap();
            assert_eq!(spec.len(), j.cells);
        }
    }
}
