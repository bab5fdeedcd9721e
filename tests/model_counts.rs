//! A work model is a function of its kernel and input class alone: the model
//! a one-thread run builds, expanded at p cores, asks for exactly the logical
//! sync ops a p-thread run counts.

use splash4::{
    Benchmark, BenchmarkExt as _, InputClass, SyncEnv, SyncMode, SyncProfile, WorkModel,
};
use splash4_sim::model::thread_ops;

/// Barrier waits, `GETSUB` calls, reductions, queue ops and flag sets.
type Counts = [u64; 5];

/// What `model::expand` prices at `p` cores, summed over threads and repeats.
fn expanded(work: &WorkModel, p: usize) -> Counts {
    let mut total = [0; 5];
    for phase in &work.phases {
        for tid in 0..p {
            let n = thread_ops(phase, tid, p);
            let counts = [
                phase.barriers_after,
                n.getsubs,
                n.reduces,
                n.queue_ops,
                n.flags,
            ];
            for (t, c) in total.iter_mut().zip(counts) {
                *t += phase.repeats * c;
            }
        }
    }
    total
}

fn counted(p: &SyncProfile) -> Counts {
    [
        p.barrier_waits,
        p.getsub_calls,
        p.reduce_ops,
        p.queue_ops,
        p.flag_sets,
    ]
}

#[test]
fn expanded_models_ask_for_the_runs_logical_ops() {
    let mut wrong = Vec::new();
    for b in Benchmark::all() {
        let work = b
            .run(InputClass::Test, &SyncEnv::new(SyncMode::LockFree, 1))
            .work;
        for threads in [1, 2, 4] {
            let model = expanded(&work, threads);
            for mode in SyncMode::ALL {
                let run = counted(&b.execute(InputClass::Test, mode, threads).profile);
                if run != model {
                    wrong.push(format!(
                        "{b} {mode:?} at {threads}: model {model:?}, run {run:?}"
                    ));
                }
            }
        }
    }
    assert!(
        wrong.is_empty(),
        "[barriers, getsub, reduce, queue, flags]\n{}",
        wrong.join("\n")
    );
}
