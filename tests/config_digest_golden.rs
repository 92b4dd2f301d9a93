//! Pinned `config_digest` values.
//!
//! The digest crosses the wire — agents report it in every `Pong` and
//! `Stats` reply, and `DeltaPrepare.base_digest` anchors a diff on it — so
//! its value for a given configuration is part of the protocol. Every
//! constant below was captured once and must never be regenerated: a
//! failure here means mixed-version fleets would see each other as
//! diverged and resync forever.

use eden::apps::functions::catalogue;
use eden::core::{ClassId, Controller, Enclave, EnclaveConfig, EnclaveOp, MatchSpec};

/// `(bundle, digest)` for each catalogue bundle installed by ops as
/// function 0 behind one class rule in table 0.
const BUNDLE_DIGESTS: [(&str, u64); 19] = [
    ("pias", 0xad05_5dac_e309_d03b),
    ("pias-fig7", 0xaee0_80f0_0ae0_42fc),
    ("sff", 0x7da1_85e1_f2c9_ca2b),
    ("fixed-priority", 0x4477_2019_985f_1140),
    ("wcmp", 0x6a6f_1c4d_d256_c0a3),
    ("message-wcmp", 0xd4e8_d1fd_3198_7a1b),
    ("pulsar", 0x2ad6_613a_8d76_13a0),
    ("replica-select", 0x7718_48be_8ad0_4f3b),
    ("port-knock", 0xe999_a80c_9993_d541),
    ("flow-counter", 0x4d6c_ec0d_f620_5ccc),
    ("conntrack", 0xffb3_f4b4_98f7_e38f),
    ("qjump", 0xde7c_564c_643f_f60b),
    ("dist-rate-limit", 0x8da3_2c30_22df_9f7d),
    ("conn-steer", 0x43da_0330_4819_5e62),
    ("l4lb", 0x5897_62f5_7144_b4bb),
    ("conga", 0xb901_4127_fd9d_565e),
    ("ids", 0x4f62_6dfa_a0ff_fe73),
    ("stateful-firewall", 0x495b_a115_cf6e_837d),
    ("rate-limit", 0x90f5_ba73_f858_e611),
];

const MULTI_TABLE_DIGEST: u64 = 0xfb4b_fc8a_ec90_a1df;
const NATIVE_DIGEST: u64 = 0xd97b_7a1d_d27a_0509;
const EMPTY_DIGEST: u64 = 0x5b2a_969b_42d2_38a4;

fn committed(ops: &[EnclaveOp]) -> Enclave {
    let mut e = Enclave::new(EnclaveConfig::default());
    e.stage_epoch(1, ops).expect("valid ops");
    assert!(e.commit_epoch(1));
    e
}

fn install_op(name: &str) -> EnclaveOp {
    let bundle = catalogue()
        .into_iter()
        .find(|b| b.name == name)
        .expect("catalogue bundle");
    Controller::new()
        .plan_function(bundle.name, &bundle.source, &bundle.schema())
        .expect("compiles")
}

#[test]
fn fresh_enclave_digest_is_pinned() {
    assert_eq!(
        Enclave::new(EnclaveConfig::default()).config_digest(),
        EMPTY_DIGEST
    );
}

#[test]
fn catalogue_bundle_digests_are_pinned() {
    let names: Vec<&str> = catalogue().iter().map(|b| b.name).collect();
    let pinned: Vec<&str> = BUNDLE_DIGESTS.iter().map(|&(n, _)| n).collect();
    assert_eq!(names, pinned, "catalogue order changed");
    for (name, want) in BUNDLE_DIGESTS {
        let e = committed(&[
            EnclaveOp::Reset,
            install_op(name),
            EnclaveOp::InstallRule {
                table: 0,
                spec: MatchSpec::Class(ClassId(1)),
                func: 0,
            },
        ]);
        assert_eq!(e.config_digest(), want, "{name}: {:#x}", e.config_digest());
    }
}

#[test]
fn multi_table_config_with_state_writes_is_pinned() {
    let e = committed(&[
        EnclaveOp::Reset,
        install_op("pias"),
        install_op("l4lb"),
        install_op("rate-limit"),
        EnclaveOp::CreateTable,
        EnclaveOp::CreateTable,
        EnclaveOp::InstallRule {
            table: 0,
            spec: MatchSpec::Class(ClassId(1)),
            func: 0,
        },
        EnclaveOp::InstallRule {
            table: 0,
            spec: MatchSpec::AnyOf(vec![ClassId(2), ClassId(3)]),
            func: 1,
        },
        EnclaveOp::InstallRule {
            table: 1,
            spec: MatchSpec::Any,
            func: 2,
        },
        EnclaveOp::InstallRule {
            table: 2,
            spec: MatchSpec::Class(ClassId(9)),
            func: 0,
        },
        EnclaveOp::RemoveRule { table: 2, rule: 0 },
        EnclaveOp::InstallRule {
            table: 2,
            spec: MatchSpec::Class(ClassId(7)),
            func: 2,
        },
        EnclaveOp::SetArray {
            func: 0,
            array: 0,
            values: vec![10_000, 100_000, 1_000_000],
        },
        EnclaveOp::SetArray {
            func: 1,
            array: 0,
            values: vec![11, 12, 13, 14],
        },
        EnclaveOp::SetGlobal {
            func: 2,
            slot: 0,
            value: 1_000_000,
        },
        EnclaveOp::SetGlobal {
            func: 2,
            slot: 1,
            value: 64_000,
        },
    ]);
    assert_eq!(
        e.config_digest(),
        MULTI_TABLE_DIGEST,
        "{:#x}",
        e.config_digest()
    );
}

#[test]
fn natively_installed_function_digest_is_pinned() {
    let bundle = catalogue()
        .into_iter()
        .find(|b| b.name == "sff")
        .expect("catalogue bundle");
    let mut e = Enclave::new(EnclaveConfig::default());
    e.install_function(bundle.native());
    e.apply_op(EnclaveOp::InstallRule {
        table: 0,
        spec: MatchSpec::Any,
        func: 0,
    })
    .expect("valid rule");
    assert_eq!(e.config_digest(), NATIVE_DIGEST, "{:#x}", e.config_digest());
}
