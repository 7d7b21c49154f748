//! Determinism under parallelism, and one description per experiment:
//! every paper row of [`EXPERIMENTS`] rendered on its own must be, byte
//! for byte, the body of its section in what `ibflow-bench all`
//! assembles — at any pool width. Each simulation is a closed
//! deterministic world and [`ibpool`] returns results in submission
//! order, so the only way this test fails is a pool-ordering bug, state
//! leaking between jobs, or `all` drifting from the rows it is made of.

use ibflow_bench::experiments::{render_all, Inputs, EXPERIMENTS};
use nasbench::NasClass;

/// One test fn (not several) so the `IBFLOW_JOBS` writes can't race
/// within this test binary.
#[test]
fn every_paper_row_alone_is_its_section_of_all_at_any_job_count() {
    std::env::set_var(ibpool::JOBS_ENV, "4");
    let all = render_all(&Inputs::new(NasClass::Test));

    // Serial, and fresh inputs per row: each NAS row runs its own
    // battery, as `ibflow-bench fig9` does.
    std::env::set_var(ibpool::JOBS_ENV, "1");
    let mut rest = all.as_str();
    for e in EXPERIMENTS.iter().filter(|e| e.paper) {
        let inputs = Inputs::new(NasClass::Test);
        let want = format!(
            "## {}\n\n```\n{}```\n\n",
            e.heading(&inputs),
            (e.render)(&inputs)
        );
        assert!(
            rest.starts_with(&want),
            "`{}` alone at IBFLOW_JOBS=1 differs from its section of `all` at =4:\n\
             --- alone\n{want}\n--- all, from there\n{rest}",
            e.name
        );
        rest = &rest[want.len()..];
    }
    std::env::remove_var(ibpool::JOBS_ENV);
    assert!(
        rest.is_empty(),
        "`all` has text after its last row:\n{rest}"
    );
}
