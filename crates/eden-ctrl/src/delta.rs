//! Delta planning. [`ConfigModel`] and [`diff`] live in eden-core's
//! [`config`](eden_core::config) module, where the enclave validates and
//! digests with the same model the controller plans with; this module
//! re-exports them and holds the plan choice the root controller and
//! every aggregator make.

pub use eden_core::config::{diff, ConfigModel};

use crate::proto::{self, CtrlMsg};

/// One configuration version: the epoch it was pushed under and the
/// configuration itself, which also anchors diffs to later versions.
pub(crate) struct Version {
    pub epoch: u64,
    pub model: ConfigModel,
}

/// Digest of the version pushed under `epoch`, while `history` holds it.
pub(crate) fn digest_of(history: &[Version], epoch: u64) -> Option<u64> {
    history
        .iter()
        .find(|v| v.epoch == epoch)
        .map(|v| v.model.digest())
}

/// Choose the cheapest safe prepare toward the last version in `history`
/// for a host whose last report is `reported`. When the report matches a
/// history entry exactly (epoch *and* digest — the host provably holds
/// that configuration), a diff from that entry ships as a
/// digest-anchored [`CtrlMsg::DeltaPrepare`]; anything else — unknown
/// base, undiffable shapes, or a diff that is not actually smaller on
/// the wire — ships the full table. The agent's digest check backstops
/// any stale plan: a mismatch nacks and the sender falls back to the
/// full ship (`reported: None`).
pub(crate) fn plan_prepare(
    history: &[Version],
    reported: Option<(u64, u64)>,
    delta_updates: bool,
) -> CtrlMsg {
    let target = history.last().expect("history never empty");
    let full = CtrlMsg::Prepare {
        epoch: target.epoch,
        ops: target.model.to_full_ops(),
    };
    let Some((re, rd)) = reported.filter(|_| delta_updates) else {
        return full;
    };
    let Some(base) = history
        .iter()
        .find(|v| v.epoch == re && v.model.digest() == rd)
    else {
        return full;
    };
    let Some(ops) = diff(&base.model, &target.model) else {
        return full;
    };
    let planned = CtrlMsg::DeltaPrepare {
        epoch: target.epoch,
        base_digest: rd,
        ops,
    };
    if proto::encode_msg(&planned).len() < proto::encode_msg(&full).len() {
        planned
    } else {
        full
    }
}
