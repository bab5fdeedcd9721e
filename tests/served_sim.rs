//! Served `sim` results are pinned. A `sim` request is defined as "exactly
//! this synthetic program on this machine" (DESIGN.md §13), and its result is
//! cached under the request's content hash, so the reply a client sees — the
//! simulated time, the event count and the rendered JSON, byte for byte —
//! must not move when the program builder or the engine is made faster. The
//! constants were captured before the builder went core-at-a-time and the
//! engine stopped copying the program at load.

use splash4::{dispatch, ExperimentCtx, JobCtl, Request, RequestKind};
use splash4_sim::{engine, synthetic_program, BarrierKind, MachineParams};

/// The benchmark's cold-request size: four barrier episodes per core.
const OPS_PER_CORE: usize = 400;

/// `(cores, barrier, seed, total_ns, events, rendered reply)`.
const PINNED: [(usize, &str, u64, u64, u64, &str); 12] = [
    (
        256,
        "sense",
        7,
        2_332_113,
        102_400,
        r#"{"type":"sim","machine":"manycore-t3-like","cores":256,"ops_per_core":400,"barrier":"sense","seed":7,"events":102400,"total_ns":2332113,"fractions":{"compute":0.12176896249026158,"service":0.005984320373321586,"wait":0.7078569573149944,"sync_local":0.0012815874573570635,"barrier":0.16310817236406538}}"#,
    ),
    (
        256,
        "sense",
        0x5eed_0b5e,
        2_384_436,
        102_400,
        r#"{"type":"sim","machine":"manycore-t3-like","cores":256,"ops_per_core":400,"barrier":"sense","seed":1592593246,"events":102400,"total_ns":2384436,"fractions":{"compute":0.1191238104010107,"service":0.0058534580194205595,"wait":0.6977020208146122,"sync_local":0.0012543871564570765,"barrier":0.1760663236084995}}"#,
    ),
    (
        256,
        "tree",
        7,
        2_333_441,
        102_400,
        r#"{"type":"sim","machine":"manycore-t3-like","cores":256,"ops_per_core":400,"barrier":"tree","seed":7,"events":102400,"total_ns":2333441,"fractions":{"compute":0.12169878592943767,"service":0.005980871555050659,"wait":0.7074490129110694,"sync_local":0.0012808488668466977,"barrier":0.1635904807375955}}"#,
    ),
    (
        256,
        "tree",
        0x5eed_0b5e,
        2_385_764,
        102_400,
        r#"{"type":"sim","machine":"manycore-t3-like","cores":256,"ops_per_core":400,"barrier":"tree","seed":1592593246,"events":102400,"total_ns":2385764,"fractions":{"compute":0.11905659984160837,"service":0.005850155453908267,"wait":0.6973083720305678,"sync_local":0.0012536794216876062,"barrier":0.1765311932522279}}"#,
    ),
    (
        256,
        "condvar",
        7,
        2_381_631,
        102_400,
        r#"{"type":"sim","machine":"manycore-t3-like","cores":256,"ops_per_core":400,"barrier":"condvar","seed":7,"events":102400,"total_ns":2381631,"fractions":{"compute":0.1200485479660113,"service":0.005899770817527738,"wait":0.6208396530282936,"sync_local":0.0012634805306768727,"barrier":0.2519485476574905}}"#,
    ),
    (
        256,
        "condvar",
        0x5eed_0b5e,
        2_423_389,
        102_400,
        r#"{"type":"sim","machine":"manycore-t3-like","cores":256,"ops_per_core":400,"barrier":"condvar","seed":1592593246,"events":102400,"total_ns":2423389,"fractions":{"compute":0.11789013638883056,"service":0.005792838240590136,"wait":0.6104722958175871,"sync_local":0.0012413964299942122,"barrier":0.264603333122998}}"#,
    ),
    (
        1024,
        "sense",
        7,
        9_192_473,
        409_600,
        r#"{"type":"sim","machine":"manycore-t3-like","cores":1024,"ops_per_core":400,"barrier":"sense","seed":7,"events":409600,"total_ns":9192473,"fractions":{"compute":0.07103018086463207,"service":0.001519687705576466,"wait":0.7547469550501705,"sync_local":0.0003255524371865936,"barrier":0.17237762394243433}}"#,
    ),
    (
        1024,
        "sense",
        0x5eed_0b5e,
        9_175_674,
        409_600,
        r#"{"type":"sim","machine":"manycore-t3-like","cores":1024,"ops_per_core":400,"barrier":"sense","seed":1592593246,"events":409600,"total_ns":9175674,"fractions":{"compute":0.07115525236989685,"service":0.0015292211814845432,"wait":0.7586320654879435,"sync_local":0.00032748823960463856,"barrier":0.16835597272107045}}"#,
    ),
    (
        1024,
        "tree",
        7,
        9_194_433,
        409_600,
        r#"{"type":"sim","machine":"manycore-t3-like","cores":1024,"ops_per_core":400,"barrier":"tree","seed":7,"events":409600,"total_ns":9194433,"fractions":{"compute":0.07101485551197259,"service":0.001519359820306617,"wait":0.7545841121133512,"sync_local":0.00032548219653890975,"barrier":0.1725561903578307}}"#,
    ),
    (
        1024,
        "tree",
        0x5eed_0b5e,
        9_177_634,
        409_600,
        r#"{"type":"sim","machine":"manycore-t3-like","cores":1024,"ops_per_core":400,"barrier":"tree","seed":1592593246,"events":409600,"total_ns":9177634,"fractions":{"compute":0.07113986911052268,"service":0.001528890574743765,"wait":0.758468054632184,"sync_local":0.00032741743897694007,"barrier":0.16853576824357255}}"#,
    ),
    (
        1024,
        "condvar",
        7,
        9_351_971,
        409_600,
        r#"{"type":"sim","machine":"manycore-t3-like","cores":1024,"ops_per_core":400,"barrier":"condvar","seed":7,"events":409600,"total_ns":9351971,"fractions":{"compute":0.0704018759995443,"service":0.0015062451496487617,"wait":0.6531580842776535,"sync_local":0.0003226727291859152,"barrier":0.2746111218439674}}"#,
    ),
    (
        1024,
        "condvar",
        0x5eed_0b5e,
        9_340_762,
        409_600,
        r#"{"type":"sim","machine":"manycore-t3-like","cores":1024,"ops_per_core":400,"barrier":"condvar","seed":1592593246,"events":409600,"total_ns":9340762,"fractions":{"compute":0.07046656344340307,"service":0.0015144203388373502,"wait":0.6579856667774496,"sync_local":0.00032431858569068414,"barrier":0.2697090308546193}}"#,
    ),
];

fn request(cores: usize, barrier: &str, seed: u64) -> Request {
    Request::new(RequestKind::Sim {
        cores,
        ops_per_core: OPS_PER_CORE,
        barrier: barrier.to_string(),
        seed,
        machine: None,
    })
}

#[test]
fn served_sim_replies_are_pinned() {
    let ctx = ExperimentCtx::default();
    for (cores, barrier, seed, total_ns, events, rendered) in PINNED {
        let what = format!("cores {cores}, {barrier}, seed {seed:#x}");
        let reply = dispatch(
            &request(cores, barrier, seed),
            &ctx,
            &JobCtl::new(None, |_| {}),
        )
        .unwrap_or_else(|e| panic!("{what}: {e}"));
        assert_eq!(
            reply.get("total_ns").and_then(|j| j.as_u64()),
            Some(total_ns),
            "{what}"
        );
        assert_eq!(
            reply.get("events").and_then(|j| j.as_u64()),
            Some(events),
            "{what}"
        );
        assert_eq!(reply.to_string(), rendered, "{what}");
    }
}

#[test]
fn served_programs_run_identically_on_the_engine_and_the_reference() {
    for (cores, barrier, seed, ..) in PINNED {
        let kind = match barrier {
            "sense" => BarrierKind::Sense,
            "tree" => BarrierKind::Tree,
            _ => BarrierKind::Condvar,
        };
        let program = synthetic_program(cores, OPS_PER_CORE, kind, seed);
        let machine = MachineParams::manycore(cores);
        assert_eq!(
            engine::run(&program, &machine),
            engine::run_reference(&program, &machine),
            "cores {cores}, {barrier}, seed {seed:#x}"
        );
    }
}
