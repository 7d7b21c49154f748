//! The evaluation, written once: [`EXPERIMENTS`] has a row per figure,
//! table, ablation and battery, and the `ibflow-bench` binary is three
//! readers of it — `ibflow-bench <name>` prints one row, `list` prints
//! the names, `all` assembles the paper rows into
//! `bench_results/experiments.md` with [`render_all`].

use crate::figures::{
    bandwidth_figure, bandwidth_table, fig10_table, fig2_latency, fig2_table, fig9_table,
    nas_battery, resident_memory_sweep, resident_memory_table, table1, table2,
};
use crate::nas::NasRun;
use crate::{ablations, chaos, ckpt};
use nasbench::NasClass;
use std::sync::OnceLock;

/// What a row's [`Experiment::render`] may depend on: the three
/// environment knobs, read once by the binary, and the NAS battery that
/// Figs 9/10 and Tables 1/2 all tabulate.
pub struct Inputs {
    /// NAS class of the application rows (`IBFLOW_CLASS`).
    pub class: NasClass,
    /// Fault-plan seed of the chaos battery and the checkpoint ladder's
    /// soak leg (`IBFLOW_CHAOS_SEED`).
    pub seed: u64,
    /// Checkpoint epoch the ladder snapshots at (`IBFLOW_CKPT_EPOCH`).
    pub epoch: u64,
    battery: OnceLock<Vec<NasRun>>,
}

impl Inputs {
    /// Inputs at `class` with the default seed and snapshot epoch.
    pub fn new(class: NasClass) -> Self {
        Inputs {
            class,
            seed: chaos::DEFAULT_SEED,
            epoch: ckpt::SNAP_EPOCH,
            battery: OnceLock::new(),
        }
    }

    /// Inputs from `IBFLOW_CLASS`, `IBFLOW_CHAOS_SEED` and
    /// `IBFLOW_CKPT_EPOCH`; panics on an unrecognized value of any.
    pub fn from_env() -> Self {
        Inputs {
            seed: chaos::seed_from_env(),
            epoch: ckpt::snap_epoch_from_env(),
            ..Inputs::new(crate::nas_class_from_env())
        }
    }

    /// The NAS battery at [`Inputs::class`], run on first use and shared
    /// by every row that tabulates it.
    ///
    /// # Panics
    ///
    /// Panics if any kernel fails its distributed verification.
    pub fn nas_runs(&self) -> &[NasRun] {
        self.battery.get_or_init(|| {
            let runs = nas_battery(self.class);
            assert!(runs.iter().all(|r| r.verified), "every kernel must verify");
            runs
        })
    }
}

/// One row of the evaluation.
pub struct Experiment {
    /// Command-line name: `ibflow-bench <name>`.
    pub name: &'static str,
    /// The experiment's one title; `{class}` and `{seed}` stand for the
    /// [`Inputs`] of the run (see [`Experiment::heading`]).
    pub title: &'static str,
    /// Whether `ibflow-bench all` writes this row to `experiments.md`.
    pub paper: bool,
    /// Runs the experiment and formats its table.
    pub render: fn(&Inputs) -> String,
}

impl Experiment {
    /// The title with its placeholders filled in.
    pub fn heading(&self, inputs: &Inputs) -> String {
        self.title
            .replace("{class}", &format!("{:?}", inputs.class))
            .replace("{seed}", &format!("{:#x}", inputs.seed))
    }

    /// The row as `all` writes it: a markdown heading over the fenced
    /// table.
    pub fn section(&self, inputs: &Inputs) -> String {
        format!(
            "## {}\n\n```\n{}```\n\n",
            self.heading(inputs),
            (self.render)(inputs)
        )
    }
}

const fn paper(
    name: &'static str,
    title: &'static str,
    render: fn(&Inputs) -> String,
) -> Experiment {
    Experiment {
        name,
        title,
        paper: true,
        render,
    }
}

const fn extra(
    name: &'static str,
    title: &'static str,
    render: fn(&Inputs) -> String,
) -> Experiment {
    Experiment {
        name,
        title,
        paper: false,
        render,
    }
}

/// One bandwidth figure, tabulated.
fn bandwidth(size: usize, prepost: u32, blocking: bool) -> String {
    bandwidth_table(&bandwidth_figure(size, prepost, blocking))
}

/// Every experiment the repository runs. The paper rows come first, in
/// the order `experiments.md` carries them.
pub const EXPERIMENTS: &[Experiment] = &[
    paper(
        "fig2",
        "Figure 2 — MPI latency (us), pre-post = 100",
        |_| fig2_table(&fig2_latency()),
    ),
    paper(
        "fig3",
        "Figure 3 — bandwidth, 4 B, pre-post 100, blocking",
        |_| bandwidth(4, 100, true),
    ),
    paper(
        "fig4",
        "Figure 4 — bandwidth, 4 B, pre-post 100, non-blocking",
        |_| bandwidth(4, 100, false),
    ),
    paper(
        "fig5",
        "Figure 5 — bandwidth, 4 B, pre-post 10, blocking",
        |_| bandwidth(4, 10, true),
    ),
    paper(
        "fig6",
        "Figure 6 — bandwidth, 4 B, pre-post 10, non-blocking",
        |_| bandwidth(4, 10, false),
    ),
    paper(
        "fig7",
        "Figure 7 — bandwidth, 32 KB, pre-post 10, blocking",
        |_| bandwidth(32768, 10, true),
    ),
    paper(
        "fig8",
        "Figure 8 — bandwidth, 32 KB, pre-post 10, non-blocking",
        |_| bandwidth(32768, 10, false),
    ),
    paper(
        "fig9",
        "Figure 9 — NAS runtimes, pre-post = 100 (class {class})",
        |i| fig9_table(i.nas_runs()),
    ),
    paper(
        "fig10",
        "Figure 10 — degradation, pre-post 100 -> 1",
        |i| fig10_table(i.nas_runs()),
    ),
    paper(
        "table1",
        "Table 1 — explicit credit messages (user-level static)",
        |i| table1(i.nas_runs()),
    ),
    paper(
        "table2",
        "Table 2 — max posted buffers (user-level dynamic, start = 1)",
        |i| table2(i.nas_runs()),
    ),
    paper(
        "ckpt",
        "Checkpoint ladder — CG snapshot / restore / replace / chaos-soak",
        |i| ckpt::ckpt_table(&ckpt::ckpt_ladder(i.seed, i.epoch)),
    ),
    paper(
        "ckpt-scaling",
        "Checkpoint size vs world size — CG snapshot / resume",
        |_| ckpt::ckpt_scaling_table(&ckpt::ckpt_scaling()),
    ),
    extra(
        "resident-memory",
        "Registered vs resident receive memory per connection, SP (class {class})",
        |i| resident_memory_table(&resident_memory_sweep(i.class)),
    ),
    extra(
        "chaos",
        "Chaos battery — 3-rank ring soak under escalating fault plans (seed {seed})",
        |i| chaos::chaos_table(&chaos::chaos_battery(i.seed)),
    ),
    extra("ablation-buffer-size", "Eager buffer size sweep", |_| {
        ablations::buffer_size()
    }),
    extra(
        "ablation-credit-path",
        "Credit delivery path: optimistic messages vs RDMA mailbox (LU)",
        |i| ablations::credit_path(i.class),
    ),
    extra(
        "ablation-ecm-threshold",
        "ECM threshold sweep (LU, user-level static)",
        |i| ablations::ecm_threshold(i.class),
    ),
    extra(
        "ablation-growth-policy",
        "Dynamic growth policy sweep (LU, initial pre-post 1)",
        |i| ablations::growth_policy(i.class),
    ),
    extra(
        "ablation-on-demand",
        "On-demand vs eager connection setup (16 ranks, ring traffic)",
        |_| ablations::on_demand(16),
    ),
    extra(
        "ablation-rdma-channel",
        "RDMA eager channel vs send/recv eager protocol",
        |_| ablations::rdma_channel(),
    ),
    extra(
        "ablation-rnr-timer",
        "RNR timer sweep (LU, hardware scheme, pre-post 1)",
        |i| ablations::rnr_timer(i.class),
    ),
    extra(
        "ablation-scalability",
        "Pinned-buffer scalability: static vs dynamic",
        |_| ablations::scalability(),
    ),
];

/// The paper rows' sections, one [`ibpool`] job per row, concatenated in
/// table order: the text of `bench_results/experiments.md`, byte-identical
/// at any `IBFLOW_JOBS`. The NAS rows share one battery through
/// [`Inputs::nas_runs`]; a row's own sweep nests its own pool batch
/// (scoped threads per batch, so nesting cannot deadlock).
pub fn render_all(inputs: &Inputs) -> String {
    let jobs = EXPERIMENTS
        .iter()
        .filter(|e| e.paper)
        .map(|e| ibpool::job(format!("experiment/{}", e.name), move || e.section(inputs)))
        .collect();
    ibpool::run_batch(jobs).concat()
}
