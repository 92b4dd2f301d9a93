//! System-level property tests across crates.

use eden::core::{ClassId, Enclave, EnclaveConfig, MatchSpec, TableId};
use eden::netsim::{EdenMeta, Packet, SimRng, TcpHeader, Time};
use proptest::prelude::*;

fn enclave_with(bundle: &eden::apps::FunctionBundle, thresholds: Vec<i64>) -> Enclave {
    let mut e = Enclave::new(EnclaveConfig::default());
    let f = e.install_function(bundle.interpreted());
    e.install_rule(TableId(0), MatchSpec::Class(ClassId(1)), f)
        .expect("valid rule");
    e.set_array(f, 0, thresholds).expect("valid global array");
    e
}

fn tagged(msg_id: u64, payload: usize) -> Packet {
    let mut p = Packet::tcp(1, 2, TcpHeader::default(), payload);
    p.meta = Some(EdenMeta {
        classes: vec![1],
        msg_id,
        msg_size: payload as i64,
        ..Default::default()
    });
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// PIAS invariant: a message's priority never increases, regardless of
    /// the interleaving of packets from other messages.
    #[test]
    fn pias_priorities_only_demote(
        stream in proptest::collection::vec((1u64..5, 1usize..1460), 1..300),
    ) {
        let bundle = eden::apps::functions::pias();
        let mut e = enclave_with(&bundle, vec![10_240, 7, 1_048_576, 5, i64::MAX, 1]);
        let mut rng = SimRng::new(1);
        let mut last: std::collections::HashMap<u64, u8> = Default::default();
        for (i, (msg, payload)) in stream.into_iter().enumerate() {
            let mut p = tagged(msg, payload);
            e.process(&mut p, &mut rng, Time::from_nanos(i as u64));
            let prio = p.priority();
            if let Some(&prev) = last.get(&msg) {
                prop_assert!(prio <= prev, "msg {msg}: {prev} -> {prio}");
            }
            last.insert(msg, prio);
        }
        prop_assert_eq!(e.stats.faults, 0);
    }

    /// The enclave never corrupts packets it has no rule for.
    #[test]
    fn unmatched_packets_pass_untouched(
        payload in 0usize..1460,
        classes in proptest::collection::vec(2u32..100, 0..4),
    ) {
        let bundle = eden::apps::functions::pias();
        let mut e = enclave_with(&bundle, vec![i64::MAX, 7]);
        let mut rng = SimRng::new(2);
        let mut p = Packet::tcp(3, 4, TcpHeader::default(), payload);
        p.meta = Some(EdenMeta { classes, msg_id: 9, ..Default::default() });
        let before = p.clone();
        let verdict = e.process(&mut p, &mut rng, Time::ZERO);
        prop_assert_eq!(verdict, eden::transport::HookVerdict::Pass);
        prop_assert_eq!(p, before);
    }

    /// message-WCMP pinning: every packet of a message gets the label the
    /// first packet chose, under arbitrary interleavings.
    #[test]
    fn message_wcmp_is_sticky(
        stream in proptest::collection::vec(1u64..8, 1..200),
        seed in 0u64..1000,
    ) {
        let bundle = eden::apps::functions::message_wcmp();
        let mut e = enclave_with(&bundle, vec![101, 3, 102, 2, 103, 1]);
        // total weight global
        e.set_global(eden::core::FuncId(0), 0, 6).expect("valid global slot");
        let mut rng = SimRng::new(seed);
        let mut chosen: std::collections::HashMap<u64, u16> = Default::default();
        for (i, msg) in stream.into_iter().enumerate() {
            let mut p = tagged(msg, 1000);
            e.process(&mut p, &mut rng, Time::from_nanos(i as u64));
            let label = p.route_label();
            prop_assert!([101, 102, 103].contains(&label));
            if let Some(&first) = chosen.get(&msg) {
                prop_assert_eq!(label, first, "msg {} switched paths", msg);
            }
            chosen.insert(msg, label);
        }
    }

    /// Stage classification is a pure function of the fields: classifying
    /// the same message twice yields the same classes (ids differ only in
    /// msg_id, which must be fresh).
    #[test]
    fn classification_is_deterministic(key in "[a-z]{1,8}", size in 1i64..1_000_000) {
        let mut controller = eden::core::Controller::new();
        let (mut stage, _) = eden::apps::stages::memcached_stage(&mut controller);
        let fields = [
            ("msg_type", eden::core::FieldValue::Str("GET".into())),
            ("key", eden::core::FieldValue::Str(key)),
            ("msg_size", eden::core::FieldValue::Int(size)),
        ];
        let a = stage.classify(&fields);
        let b = stage.classify(&fields);
        prop_assert_eq!(&a.classes, &b.classes);
        prop_assert_eq!(a.key_hash, b.key_hash);
        prop_assert_ne!(a.msg_id, b.msg_id, "message ids must be unique");
    }
}
