//! Enclave configuration as a value: the one place [`EnclaveOp`]s are
//! validated, applied, digested and diffed.
//!
//! A [`ConfigModel`] is what a sequence of ops produces on a fresh
//! enclave — rule tables, installed functions, and the last controller
//! write per global slot and array — without runtime state. The
//! [`Enclave`](crate::Enclave) stages an epoch by applying its ops to a
//! copy of its committed model; the controller and aggregators keep one
//! model per configuration version and ship [`ConfigModel::to_full_ops`]
//! or a [`diff`]. `diff` only plans when the base is a structural prefix
//! of the target (functions append-only, tables never dropped, no global
//! write to take back); otherwise the full table ships. Correctness never
//! depends on the diff being clever, only on the digest anchor rejecting
//! a stale base
//! ([`Enclave::stage_epoch_delta`](crate::Enclave::stage_epoch_delta)).

use std::collections::BTreeMap;
use std::sync::Arc;

use eden_lang::{CompiledFunction, Concurrency, Schema, Scope, StateEffects};
use eden_vm::Program;

use crate::action::{ActionImpl, InstalledFunction};
use crate::enclave::MatchSpec;
use crate::ops::{ApplyError, EnclaveOp};

/// Minimal FNV-1a, for the structural configuration digest.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100000001b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// One installed function as configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct FuncConfig {
    pub name: String,
    pub schema: Schema,
    pub concurrency: Concurrency,
    /// The verified program; `None` for a native closure.
    program: Option<Program>,
    /// Canonical encoding of `program` — what ships and what the digest
    /// covers. Empty for a native closure.
    bytecode: Vec<u8>,
}

impl FuncConfig {
    /// Decode and re-verify shipped bytecode.
    fn shipped(
        name: &str,
        bytecode: &[u8],
        schema: &Schema,
        concurrency: Concurrency,
    ) -> Result<FuncConfig, eden_vm::CodecError> {
        let program = eden_vm::decode_program(bytecode)?;
        Ok(FuncConfig {
            name: name.to_string(),
            schema: schema.clone(),
            concurrency,
            bytecode: eden_vm::encode_program(&program),
            program: Some(program),
        })
    }

    /// The configuration of a function installed directly on an enclave.
    pub(crate) fn of(f: &InstalledFunction) -> FuncConfig {
        let program = match &f.action {
            ActionImpl::Interpreted(p) => Some(p.clone()),
            ActionImpl::Native(_) => None,
        };
        FuncConfig {
            name: f.name.clone(),
            schema: f.schema.clone(),
            concurrency: f.concurrency,
            bytecode: program
                .as_ref()
                .map_or_else(Vec::new, eden_vm::encode_program),
            program,
        }
    }

    /// A fresh runtime instance, or `None` for a native closure (the
    /// model cannot rebuild Rust code).
    pub(crate) fn instantiate(&self) -> Option<InstalledFunction> {
        let compiled = CompiledFunction {
            program: self.program.clone()?,
            effects: StateEffects::default(),
            concurrency: self.concurrency,
            schema: self.schema.clone(),
        };
        Some(InstalledFunction::interpreted(&self.name, compiled))
    }

    /// The op that installs this function (native closures cannot ship;
    /// their op carries no bytecode and a receiver rejects it).
    fn to_op(&self) -> EnclaveOp {
        EnclaveOp::InstallFunction {
            name: self.name.clone(),
            bytecode: self.bytecode.clone(),
            schema: self.schema.clone(),
            concurrency: self.concurrency,
        }
    }
}

/// A pure value model of an enclave's configuration (see module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigModel {
    /// Installed functions in index order (shared between versions).
    funcs: Vec<Arc<FuncConfig>>,
    /// Match-action tables: `(spec, func index)` per rule, first match
    /// wins. An empty model still has table 0, like a fresh enclave.
    tables: Vec<Vec<(MatchSpec, usize)>>,
    /// Last value written per `(func, slot)` by `SetGlobal`.
    globals: BTreeMap<(usize, usize), i64>,
    /// Last value written per `(func, array)` by `SetArray`.
    arrays: BTreeMap<(usize, usize), Vec<i64>>,
    /// Structural digest of the above, refreshed by every apply.
    digest: u64,
}

impl Default for ConfigModel {
    fn default() -> ConfigModel {
        ConfigModel::new()
    }
}

impl ConfigModel {
    /// The configuration of a fresh enclave: one empty table, nothing
    /// else.
    pub fn new() -> ConfigModel {
        let mut m = ConfigModel {
            funcs: Vec::new(),
            tables: vec![Vec::new()],
            globals: BTreeMap::new(),
            arrays: BTreeMap::new(),
            digest: 0,
        };
        m.rehash();
        m
    }

    /// Model a known-valid op sequence applied to a fresh enclave.
    ///
    /// # Panics
    ///
    /// If `ops` fail to validate; untrusted input goes through
    /// [`apply`](Self::apply).
    pub fn from_ops(ops: &[EnclaveOp]) -> ConfigModel {
        let mut m = ConfigModel::new();
        if let Err(e) = m.apply(ops) {
            panic!("ConfigModel::from_ops: {e}");
        }
        m
    }

    /// Apply `ops` in order, each checked against the configuration the
    /// ops before it produced, with shipped programs decoded and
    /// re-verified. All-or-nothing: on error `self` is unchanged.
    pub fn apply(&mut self, ops: &[EnclaveOp]) -> Result<(), ApplyError> {
        if let [op] = ops {
            // One op checks before it mutates: no copy needed.
            return self.apply_one(0, op).map(|()| self.rehash_after(op));
        }
        let mut next = self.clone();
        for (i, op) in ops.iter().enumerate() {
            next.apply_one(i, op)?;
        }
        next.rehash();
        *self = next;
        Ok(())
    }

    fn apply_one(&mut self, i: usize, op: &EnclaveOp) -> Result<(), ApplyError> {
        let no_table = |table: usize| ApplyError::NoSuchTable { op: i, table };
        let no_func = |func: usize| ApplyError::NoSuchFunction { op: i, func };
        match op {
            EnclaveOp::Reset => *self = ConfigModel::new(),
            EnclaveOp::CreateTable => self.tables.push(Vec::new()),
            EnclaveOp::ClearTable { table } => {
                self.tables.get_mut(*table).ok_or(no_table(*table))?.clear()
            }
            EnclaveOp::InstallFunction {
                name,
                bytecode,
                schema,
                concurrency,
            } => {
                let f = FuncConfig::shipped(name, bytecode, schema, *concurrency).map_err(|e| {
                    ApplyError::BadBytecode {
                        op: i,
                        reason: format!("{e:?}"),
                    }
                })?;
                self.funcs.push(Arc::new(f));
            }
            EnclaveOp::InstallRule { table, spec, func } => {
                let t = self.tables.get_mut(*table).ok_or(no_table(*table))?;
                if *func >= self.funcs.len() {
                    return Err(no_func(*func));
                }
                t.push((spec.clone(), *func));
            }
            EnclaveOp::RemoveRule { table, rule } => {
                let t = self.tables.get_mut(*table).ok_or(no_table(*table))?;
                if *rule >= t.len() {
                    return Err(ApplyError::NoSuchRule { op: i, rule: *rule });
                }
                t.remove(*rule);
            }
            EnclaveOp::SetGlobal { func, slot, value } => {
                let f = self.funcs.get(*func).ok_or(no_func(*func))?;
                if *slot >= f.schema.scope_len(Scope::Global) {
                    return Err(ApplyError::NoSuchSlot { op: i, slot: *slot });
                }
                self.globals.insert((*func, *slot), *value);
            }
            EnclaveOp::SetArray {
                func,
                array,
                values,
            } => {
                let f = self.funcs.get(*func).ok_or(no_func(*func))?;
                if *array >= f.schema.arrays().len() {
                    return Err(ApplyError::NoSuchArray {
                        op: i,
                        array: *array,
                    });
                }
                self.arrays.insert((*func, *array), values.clone());
            }
        }
        Ok(())
    }

    /// Record a function installed directly on an enclave (native
    /// closures have no op form).
    pub(crate) fn install(&mut self, f: FuncConfig) {
        self.funcs.push(Arc::new(f));
        self.rehash();
    }

    /// Global and array values are not part of the digest.
    fn rehash_after(&mut self, op: &EnclaveOp) {
        if !matches!(op, EnclaveOp::SetGlobal { .. } | EnclaveOp::SetArray { .. }) {
            self.rehash();
        }
    }

    fn rehash(&mut self) {
        let mut h = Fnv(0xcbf29ce484222325);
        h.u64(self.tables.len() as u64);
        for t in &self.tables {
            h.u64(t.len() as u64);
            for (spec, func) in t {
                match spec {
                    MatchSpec::Any => h.u64(1),
                    MatchSpec::Class(c) => {
                        h.u64(2);
                        h.u64(u64::from(c.0));
                    }
                    MatchSpec::AnyOf(cs) => {
                        h.u64(3);
                        h.u64(cs.len() as u64);
                        for c in cs {
                            h.u64(u64::from(c.0));
                        }
                    }
                }
                h.u64(*func as u64);
            }
        }
        h.u64(self.funcs.len() as u64);
        for f in &self.funcs {
            h.bytes(f.name.as_bytes());
            h.u64(match f.concurrency {
                Concurrency::Parallel => 0,
                Concurrency::PerMessage => 1,
                Concurrency::Serialized => 2,
            });
            h.u64(f.schema.fields().len() as u64);
            for fd in f.schema.fields() {
                h.bytes(fd.name.as_bytes());
                h.u64(fd.slot as u64);
            }
            h.u64(f.schema.arrays().len() as u64);
            for a in f.schema.arrays() {
                h.bytes(a.name.as_bytes());
                h.u64(a.stride() as u64);
            }
            match f.program {
                Some(_) => h.bytes(&f.bytecode),
                None => h.bytes(b"<native>"),
            }
        }
        self.digest = h.0;
    }

    /// FNV-1a digest of the structural configuration: tables and rules
    /// (spec + function index) and installed functions (name,
    /// concurrency, schema, and bytecode for interpreted functions).
    /// Global and array values are excluded.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Installed functions in index order.
    pub fn functions(&self) -> impl Iterator<Item = &FuncConfig> {
        self.funcs.iter().map(|f| &**f)
    }

    pub(crate) fn function(&self, func: usize) -> &FuncConfig {
        &self.funcs[func]
    }

    /// Rebuild this configuration from scratch as a `Reset`-led op
    /// sequence — the full-table ship.
    pub fn to_full_ops(&self) -> Vec<EnclaveOp> {
        let mut ops = vec![EnclaveOp::Reset];
        ops.extend(self.funcs.iter().map(|f| f.to_op()));
        // Reset leaves table 0 in place; create the rest.
        for _ in 1..self.tables.len() {
            ops.push(EnclaveOp::CreateTable);
        }
        for (table, rules) in self.tables.iter().enumerate() {
            for (spec, func) in rules {
                ops.push(EnclaveOp::InstallRule {
                    table,
                    spec: spec.clone(),
                    func: *func,
                });
            }
        }
        for (&(func, slot), &value) in &self.globals {
            ops.push(EnclaveOp::SetGlobal { func, slot, value });
        }
        for (&(func, array), values) in &self.arrays {
            ops.push(EnclaveOp::SetArray {
                func,
                array,
                values: values.clone(),
            });
        }
        ops
    }

    /// Rule count across all tables (bench/telemetry).
    pub fn rule_count(&self) -> usize {
        self.tables.iter().map(Vec::len).sum()
    }
}

/// Plan the op sequence converting `base` into `target`, or `None` when
/// no safe in-place plan exists (the caller ships the full table).
///
/// A plan exists when `base` is a structural prefix of `target`:
/// functions append-only (an enclave cannot uninstall one function),
/// tables never dropped, and no `(func, slot)`/`(func, array)` write in
/// `base` that `target` lacks (a delta cannot "unwrite" state it never
/// knew the default of). Within a common table the plan is a
/// longest-common-prefix splice: pop divergent rules from the tail,
/// append the target's.
pub fn diff(base: &ConfigModel, target: &ConfigModel) -> Option<Vec<EnclaveOp>> {
    if base.funcs.len() > target.funcs.len()
        || base.funcs[..] != target.funcs[..base.funcs.len()]
        || base.tables.len() > target.tables.len()
        || base.globals.keys().any(|k| !target.globals.contains_key(k))
        || base.arrays.keys().any(|k| !target.arrays.contains_key(k))
    {
        return None;
    }
    let mut ops = Vec::new();
    // Functions first: rules and state writes below may reference the
    // appended indices.
    ops.extend(target.funcs[base.funcs.len()..].iter().map(|f| f.to_op()));
    for _ in base.tables.len()..target.tables.len() {
        ops.push(EnclaveOp::CreateTable);
    }
    for (table, want) in target.tables.iter().enumerate() {
        let have: &[(MatchSpec, usize)] = base.tables.get(table).map_or(&[], Vec::as_slice);
        let lcp = have
            .iter()
            .zip(want.iter())
            .take_while(|(a, b)| a == b)
            .count();
        // Remove the divergent tail highest-index-first so positions
        // stay valid as rules shift down.
        for rule in (lcp..have.len()).rev() {
            ops.push(EnclaveOp::RemoveRule { table, rule });
        }
        for (spec, func) in &want[lcp..] {
            ops.push(EnclaveOp::InstallRule {
                table,
                spec: spec.clone(),
                func: *func,
            });
        }
    }
    for (&(func, slot), &value) in &target.globals {
        if base.globals.get(&(func, slot)) != Some(&value) {
            ops.push(EnclaveOp::SetGlobal { func, slot, value });
        }
    }
    for (&(func, array), values) in &target.arrays {
        if base.arrays.get(&(func, array)) != Some(values) {
            ops.push(EnclaveOp::SetArray {
                func,
                array,
                values: values.clone(),
            });
        }
    }
    Some(ops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClassId, Controller, Enclave, EnclaveConfig};
    use eden_lang::{Access, HeaderField};

    fn schema() -> Schema {
        Schema::new()
            .packet_field("Priority", Access::ReadWrite, Some(HeaderField::Dot1qPcp))
            .global_field("Limit", Access::ReadOnly)
            .global_array("Table", &["Value"], Access::ReadOnly)
    }

    fn install(prio: u8) -> EnclaveOp {
        let source = format!("fun (packet, msg, _global) -> packet.Priority <- {prio}");
        Controller::new()
            .plan_function(&format!("prio{prio}"), &source, &schema())
            .expect("compiles")
    }

    fn rule(table: usize, class: u32, func: usize) -> EnclaveOp {
        EnclaveOp::InstallRule {
            table,
            spec: MatchSpec::Class(ClassId(class)),
            func,
        }
    }

    fn base_ops() -> Vec<EnclaveOp> {
        vec![
            EnclaveOp::Reset,
            install(3),
            rule(0, 1, 0),
            rule(0, 2, 0),
            rule(0, 3, 0),
        ]
    }

    /// Applying `diff(base, target)` on a real enclave at `base` lands on
    /// exactly `target`'s digest — the property the wire protocol leans on.
    fn assert_diff_converges(base_ops: &[EnclaveOp], target_ops: &[EnclaveOp]) -> Vec<EnclaveOp> {
        let base = ConfigModel::from_ops(base_ops);
        let target = ConfigModel::from_ops(target_ops);
        let plan = diff(&base, &target).expect("diffable");

        let mut via_delta = Enclave::new(EnclaveConfig::default());
        via_delta.stage_epoch(1, base_ops).unwrap();
        assert!(via_delta.commit_epoch(1));
        let anchor = via_delta.config_digest();
        via_delta.stage_epoch_delta(2, anchor, &plan).unwrap();
        assert!(via_delta.commit_epoch(2));

        let mut via_full = Enclave::new(EnclaveConfig::default());
        via_full.stage_epoch(2, target_ops).unwrap();
        assert!(via_full.commit_epoch(2));

        assert_eq!(via_delta.config_digest(), via_full.config_digest());
        assert!(via_delta.serves_single_epoch());
        plan
    }

    #[test]
    fn single_rule_append_is_one_op() {
        let mut target = base_ops();
        target.push(rule(0, 4, 0));
        let plan = assert_diff_converges(&base_ops(), &target);
        assert_eq!(plan, vec![rule(0, 4, 0)]);
    }

    #[test]
    fn mid_table_edit_splices_the_tail() {
        let mut target = base_ops();
        target[3] = rule(0, 9, 0); // replace the middle rule
        let plan = assert_diff_converges(&base_ops(), &target);
        assert_eq!(
            plan,
            vec![
                EnclaveOp::RemoveRule { table: 0, rule: 2 },
                EnclaveOp::RemoveRule { table: 0, rule: 1 },
                rule(0, 9, 0),
                rule(0, 3, 0),
            ]
        );
    }

    #[test]
    fn appended_function_and_table_diff_in_order() {
        let mut target = base_ops();
        target.push(install(5));
        target.push(EnclaveOp::CreateTable);
        target.push(rule(1, 7, 1));
        let plan = assert_diff_converges(&base_ops(), &target);
        assert!(
            matches!(plan[0], EnclaveOp::InstallFunction { .. }),
            "function must precede the rule that references it"
        );
        assert_eq!(plan[1], EnclaveOp::CreateTable);
        assert_eq!(plan[2], rule(1, 7, 1));
    }

    #[test]
    fn global_and_array_writes_diff_by_value() {
        let mut base = base_ops();
        base.push(EnclaveOp::SetGlobal {
            func: 0,
            slot: 0,
            value: 1,
        });
        let mut target = base.clone();
        target.push(EnclaveOp::SetGlobal {
            func: 0,
            slot: 0,
            value: 2,
        });
        let plan = diff(
            &ConfigModel::from_ops(&base),
            &ConfigModel::from_ops(&target),
        )
        .expect("diffable");
        assert_eq!(
            plan,
            vec![EnclaveOp::SetGlobal {
                func: 0,
                slot: 0,
                value: 2
            }]
        );
        // An unchanged write ships nothing.
        assert_eq!(
            diff(
                &ConfigModel::from_ops(&target),
                &ConfigModel::from_ops(&target)
            ),
            Some(vec![])
        );
    }

    #[test]
    fn structural_regressions_refuse_to_diff() {
        let base = ConfigModel::from_ops(&base_ops());

        // fewer functions than base
        let target = ConfigModel::from_ops(&[EnclaveOp::Reset]);
        assert_eq!(diff(&base, &target), None);

        // a different function at the same index
        let mut swapped = base_ops();
        swapped[1] = install(7);
        assert_eq!(diff(&base, &ConfigModel::from_ops(&swapped)), None);

        // a global write the target never made
        let mut with_global = base_ops();
        with_global.push(EnclaveOp::SetGlobal {
            func: 0,
            slot: 0,
            value: 5,
        });
        assert_eq!(
            diff(&ConfigModel::from_ops(&with_global), &base),
            None,
            "cannot unwrite a global"
        );
    }

    #[test]
    fn full_ops_round_trip_the_model() {
        let mut target = base_ops();
        target.push(EnclaveOp::CreateTable);
        target.push(rule(1, 7, 0));
        target.push(EnclaveOp::SetArray {
            func: 0,
            array: 0,
            values: vec![1, 2, 3],
        });
        let m = ConfigModel::from_ops(&target);
        assert_eq!(ConfigModel::from_ops(&m.to_full_ops()), m);
        assert_eq!(m.rule_count(), 4);
    }

    #[test]
    fn apply_is_all_or_nothing() {
        let mut m = ConfigModel::from_ops(&base_ops());
        let before = m.clone();
        let mut ops = vec![EnclaveOp::CreateTable, rule(1, 4, 0)];
        ops.push(EnclaveOp::RemoveRule { table: 0, rule: 9 });
        assert_eq!(
            m.apply(&ops),
            Err(ApplyError::NoSuchRule { op: 2, rule: 9 })
        );
        assert_eq!(m, before, "a failed apply changes nothing");
        assert_eq!(m.digest(), before.digest());
    }

    #[test]
    fn shipped_bytecode_is_decoded_and_verified() {
        let mut m = ConfigModel::new();
        let err = m
            .apply(&[EnclaveOp::InstallFunction {
                name: "junk".into(),
                bytecode: vec![0xFF, 0x00, 0x13],
                schema: schema(),
                concurrency: Concurrency::Parallel,
            }])
            .expect_err("garbage bytecode");
        assert!(matches!(err, ApplyError::BadBytecode { op: 0, .. }));
        assert_eq!(m, ConfigModel::new());
    }

    #[test]
    fn digest_ignores_state_writes_but_tracks_structure() {
        let mut m = ConfigModel::from_ops(&base_ops());
        let d = m.digest();
        m.apply(&[EnclaveOp::SetGlobal {
            func: 0,
            slot: 0,
            value: 9,
        }])
        .expect("valid slot");
        assert_eq!(m.digest(), d);
        m.apply(&[rule(0, 4, 0)]).expect("valid rule");
        assert_ne!(m.digest(), d);
    }
}
