//! Per-tenant fair-share accounting: one long-lived
//! [`BudgetPool`] per tenant name, shared by every query that names the
//! tenant.
//!
//! The registry is the daemon's admission-control substrate: the
//! scheduler checks a job's pool before every slice and sheds with zero
//! work once it drains or expires, so one tenant exhausting its grant
//! never slows another tenant's queries — the multi-tenant
//! generalization of [`ExecPolicy::batch_budget`]'s single anonymous
//! batch pool.
//!
//! Alongside the pool each tenant carries a scheduling **weight**
//! (default 1): the deficit round-robin dispatcher in
//! [`crate::scheduler`] refills a tenant's slice deficit by its weight,
//! so a weight-3 tenant receives three slices for every one a weight-1
//! tenant gets while both have queued work. The pool bounds *how much*
//! a tenant may compute in total; the weight shapes *how soon* it gets
//! its share when the daemon is saturated.
//!
//! [`ExecPolicy::batch_budget`]: bncg_core::ExecPolicy::batch_budget

use bncg_core::BudgetPool;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One tenant: a name, its lifetime budget pool, and its scheduling
/// weight.
#[derive(Debug)]
pub(crate) struct Tenant {
    name: String,
    pool: BudgetPool,
    weight: AtomicU64,
}

impl Tenant {
    /// The tenant's registered name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The tenant's budget pool (admission, metering, top-ups).
    #[must_use]
    pub fn pool(&self) -> &BudgetPool {
        &self.pool
    }

    /// The tenant's deficit round-robin weight (≥ 1).
    #[must_use]
    pub fn weight(&self) -> u64 {
        self.weight.load(Ordering::Relaxed)
    }

    /// Sets the weight; zero is clamped to 1 so a tenant with queued
    /// work always makes progress.
    pub(crate) fn set_weight(&self, weight: u64) {
        self.weight.store(weight.max(1), Ordering::Relaxed);
    }
}

/// A point-in-time accounting row, as [`crate::Scheduler::tenants`] returns it.
#[derive(Debug, Clone)]
pub struct TenantStats {
    /// Tenant name.
    pub name: String,
    /// Lifetime evaluations granted.
    pub granted: u64,
    /// Lifetime evaluations consumed.
    pub used: u64,
    /// Deficit round-robin weight.
    pub weight: u64,
}

/// The daemon's tenant table. Tenants materialize on first use with the
/// registry's default grant; [`TenantRegistry::grant`] funds them
/// explicitly.
#[derive(Debug)]
pub struct TenantRegistry {
    default_grant: u64,
    tenants: Mutex<HashMap<String, Arc<Tenant>>>,
}

impl TenantRegistry {
    /// A registry whose implicitly created tenants start with
    /// `default_grant` evaluations.
    #[must_use]
    pub fn new(default_grant: u64) -> Self {
        TenantRegistry {
            default_grant,
            tenants: Mutex::new(HashMap::new()),
        }
    }

    fn fresh(name: &str, grant: u64) -> Arc<Tenant> {
        Arc::new(Tenant {
            name: name.to_string(),
            pool: BudgetPool::new(grant),
            weight: AtomicU64::new(1),
        })
    }

    /// The tenant named `name`, created with the default grant if it
    /// does not exist yet.
    pub(crate) fn get_or_create(&self, name: &str) -> Arc<Tenant> {
        let mut map = self.tenants.lock().expect("no poisoning");
        Arc::clone(
            map.entry(name.to_string())
                .or_insert_with(|| Self::fresh(name, self.default_grant)),
        )
    }

    /// Funds `name` with `evals` evaluations: an unknown tenant is
    /// created with **exactly** that grant (not default + `evals`, so
    /// operators can provision tight pools below a generous default); an
    /// existing tenant is topped up. Returns the tenant's new total
    /// grant.
    pub fn grant(&self, name: &str, evals: u64) -> u64 {
        let mut map = self.tenants.lock().expect("no poisoning");
        match map.get(name) {
            Some(tenant) => tenant.pool.top_up(evals),
            None => {
                map.insert(name.to_string(), Self::fresh(name, evals));
                evals
            }
        }
    }

    /// Sets `name`'s scheduling weight (clamped to ≥ 1), creating the
    /// tenant with the default grant if needed. Returns the weight as
    /// stored.
    pub(crate) fn set_weight(&self, name: &str, weight: u64) -> u64 {
        let tenant = self.get_or_create(name);
        tenant.set_weight(weight);
        tenant.weight()
    }

    /// Accounting rows for every registered tenant, sorted by name (a
    /// deterministic order for the `stats` response).
    #[must_use]
    pub(crate) fn snapshot(&self) -> Vec<TenantStats> {
        let map = self.tenants.lock().expect("no poisoning");
        let mut rows: Vec<TenantStats> = map
            .values()
            .map(|t| TenantStats {
                name: t.name.clone(),
                granted: t.pool.granted(),
                used: t.pool.used(),
                weight: t.weight(),
            })
            .collect();
        rows.sort_by(|a, b| a.name.cmp(&b.name));
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grant_creates_exact_and_tops_up() {
        let reg = TenantRegistry::new(1000);
        assert_eq!(reg.grant("alice", 50), 50, "explicit create, no default");
        assert_eq!(reg.grant("alice", 25), 75);
        let implicit = reg.get_or_create("bob");
        assert_eq!(implicit.pool().granted(), 1000);
        assert_eq!(reg.grant("bob", 1), 1001);
        // get_or_create returns the same pool, not a fresh one.
        reg.get_or_create("alice").pool().charge(10);
        let rows = reg.snapshot();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].name, "alice");
        assert_eq!(rows[0].used, 10);
        assert_eq!(rows[0].granted, 75);
    }

    #[test]
    fn weights_default_to_one_and_clamp_at_one() {
        let reg = TenantRegistry::new(100);
        assert_eq!(reg.get_or_create("a").weight(), 1);
        assert_eq!(reg.set_weight("a", 7), 7);
        assert_eq!(reg.get_or_create("a").weight(), 7);
        assert_eq!(reg.set_weight("a", 0), 1, "zero weight clamps to 1");
        // set_weight on an unknown tenant creates it with the default
        // grant — weight and funding are orthogonal controls.
        assert_eq!(reg.set_weight("new", 3), 3);
        assert_eq!(reg.get_or_create("new").pool().granted(), 100);
        let rows = reg.snapshot();
        assert_eq!(rows.iter().find(|r| r.name == "new").unwrap().weight, 3);
    }
}
