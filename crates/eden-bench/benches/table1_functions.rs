//! Regenerates **Table 1**: the network-function matrix — which functions
//! need data-plane state, data-plane computation, and application
//! semantics, and that Eden supports them out of the box.
//!
//! For each catalogue entry this harness *derives* the requirement columns
//! from the compiled function itself (no hand-maintained table): state = it
//! writes message or global state; computation = instructions beyond a bare
//! header copy; app semantics = it reads stage metadata fields. "Out of the
//! box" is demonstrated, not asserted: every function is compiled, installed
//! and executed on sample traffic in both engines.
//!
//! Run with `cargo bench -p eden-bench --bench table1_functions`.

use eden_apps::functions::catalogue;
use eden_bench::report::Table;
use eden_core::{ClassId, Enclave, EnclaveConfig, MatchSpec, TableId};
use eden_lang::{compile, HeaderField, Scope};
use netsim::{EdenMeta, Packet, SimRng, TcpHeader, Time};

fn main() {
    println!("== Table 1: network functions and their data-plane requirements ==\n");

    let mut table = Table::new(&[
        "function",
        "paper ref",
        "dp state",
        "dp compute",
        "app semantics",
        "concurrency",
        "out of the box",
    ]);

    for bundle in catalogue() {
        let schema = bundle.schema();
        let compiled = compile(bundle.name, &bundle.source, &schema).expect("catalogue compiles");

        let uses_state = !compiled.effects.msg_writes.is_empty()
            || !compiled.effects.glob_writes.is_empty()
            || !compiled.effects.arr_writes.is_empty();
        let uses_app_semantics = schema.fields().iter().any(|f| {
            f.scope == Scope::Packet
                && matches!(
                    f.header,
                    Some(
                        HeaderField::MetaMsgId
                            | HeaderField::MetaMsgType
                            | HeaderField::MetaMsgSize
                            | HeaderField::MetaTenant
                            | HeaderField::MetaKeyHash
                            | HeaderField::MetaMsgStart
                    )
                )
                && compiled.effects.pkt_reads.contains(&f.slot)
        }) || !compiled.effects.msg_writes.is_empty()
            || !compiled.effects.msg_reads.is_empty();
        let computes = compiled.program.ops().len() > 3;

        // demonstrate out-of-the-box: install and run both engines
        let works = [false, true].iter().all(|&native| {
            let mut e = Enclave::new(EnclaveConfig {
                fail_open: true,
                ..Default::default()
            });
            let f = e.install_function(if native {
                bundle.native()
            } else {
                bundle.interpreted()
            });
            e.install_rule(TableId(0), MatchSpec::Class(ClassId(1)), f)
                .expect("valid rule");
            // give every array/global sane contents
            for (i, _) in schema.arrays().iter().enumerate() {
                e.set_array(f, i, vec![1_000_000, 1, i64::MAX, 0])
                    .expect("valid global array");
            }
            for s in 0..schema.scope_len(Scope::Global) {
                e.set_global(f, s, 1).expect("valid global slot");
            }
            let mut rng = SimRng::new(1);
            let mut faults = 0;
            for i in 0..100u64 {
                let mut p = Packet::tcp(
                    1,
                    2,
                    TcpHeader {
                        src_port: 40000,
                        dst_port: 80,
                        ..Default::default()
                    },
                    500,
                );
                p.meta = Some(EdenMeta {
                    classes: vec![1],
                    msg_id: 1 + i % 3,
                    msg_type: 1,
                    msg_size: 4096,
                    tenant: 0,
                    key_hash: 7,
                    msg_start: i == 0,
                });
                let _ = e.process(&mut p, &mut rng, Time::from_nanos(i));
                faults = e.stats.faults;
            }
            faults == 0
        });

        let check = |b: bool| if b { "yes" } else { "-" }.to_string();
        table.row(&[
            bundle.name.to_string(),
            bundle.paper_ref.to_string(),
            check(uses_state),
            check(computes),
            check(uses_app_semantics),
            format!("{}", compiled.concurrency),
            check(works),
        ]);
    }
    println!("{}", table.render());
    println!("(requirement columns derived from each compiled function's effect sets;");
    println!(" 'out of the box' = compiled, installed, and executed fault-free in both engines)");
}
