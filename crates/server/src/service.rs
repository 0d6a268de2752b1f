//! The service protocol: the KV commands `peepul-cli` speaks and the
//! per-connection session they run in.
//!
//! Service frames share the PPL1 socket with the replication protocol.
//! The two are distinguished by the first payload byte: replication
//! requests ([`peepul_net::Request`]) tag themselves with small values,
//! service requests start at [`SERVICE_TAG_BASE`]. One port therefore
//! serves both clients (`peepul-cli`) and peers (fetch/push/anti-entropy)
//! — exactly like Git's smart protocol riding on one endpoint.
//!
//! ## Multi-tenancy
//!
//! A session optionally binds a **tenant** ([`ServiceRequest::Hello`]).
//! Every branch name a bound session mentions is resolved to the
//! namespaced branch `tenant/branch`; an unbound session addresses
//! branches verbatim (the operator view — it can see every namespace).
//! Tenant names and tenant-relative branch names may not contain `/`, so
//! namespaces cannot be escaped; the `remote/` prefix is reserved for the
//! replication layer's tracking branches and refused everywhere.

use peepul_core::wire::wire_enum;
use peepul_store::ObjectId;
use peepul_types::lww_register::LwwRegister;
use peepul_types::map::MrdtMap;

/// The service's replicated state: a multi-branch key-value map. Keys are
/// strings; each value is a last-writer-wins register of a string, so
/// concurrent puts to one key resolve deterministically by timestamp
/// (certified LWW semantics) while puts to different keys merge
/// losslessly.
pub type Kv = MrdtMap<LwwRegister<String>>;

/// First tag byte used by service frames. Everything below this is the
/// replication protocol's ([`peepul_net::Request`] currently uses 0–4);
/// the dispatcher in `peepul-server` routes on this boundary.
pub const SERVICE_TAG_BASE: u8 = 32;

/// A client command to a `peepul-server`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServiceRequest {
    /// Bind this session to a tenant namespace: every later branch name
    /// in the session resolves to `tenant/<branch>`.
    Hello {
        /// The tenant namespace (no `/`, not `remote`).
        tenant: String,
    },
    /// Read one key (commit-free, served concurrently).
    Get {
        /// The branch to read.
        branch: String,
        /// The key.
        key: String,
    },
    /// Write one key (one commit).
    Put {
        /// The branch to write. Created by forking the root branch when
        /// it does not exist yet.
        branch: String,
        /// The key.
        key: String,
        /// The value.
        value: String,
    },
    /// Dump a branch's full table (commit-free).
    Query {
        /// The branch to dump.
        branch: String,
    },
    /// Fork a new branch off an existing one.
    Fork {
        /// The existing branch.
        from: String,
        /// The branch to create.
        to: String,
    },
    /// Three-way-merge one branch into another.
    Merge {
        /// The branch receiving the merge commit.
        into: String,
        /// The branch merged in (unchanged).
        from: String,
    },
    /// List the session's visible branches (tenant-relative when bound).
    Branches,
    /// The node's status: identity, clock, connection counters and every
    /// branch head — what the smoke test compares across a fleet to
    /// assert convergence.
    Status,
    /// A Prometheus-style text exposition of every metric the node's
    /// observability registry holds — store, net and server subsystems in
    /// one snapshot. An empty exposition means observability is disabled.
    Metrics,
    /// Flush the node's trace [`EventRing`](peepul_obs::EventRing) to its
    /// configured `--trace-dump` path as JSONL, right now — the
    /// SIGUSR-style "dump your state" poke, without signals so it works
    /// identically everywhere. Fails when the server has no dump path.
    TraceDump,
}

/// A `peepul-server`'s answer to a [`ServiceRequest`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServiceResponse {
    /// The command succeeded with nothing to report.
    Ok,
    /// A [`ServiceRequest::Get`] result.
    Value {
        /// The key's value, `None` when never written.
        value: Option<String>,
    },
    /// A [`ServiceRequest::Query`] result.
    Table {
        /// `(key, value)` pairs in key order.
        entries: Vec<(String, String)>,
    },
    /// A [`ServiceRequest::Branches`] result.
    BranchList {
        /// Visible branch names, sorted.
        branches: Vec<String>,
    },
    /// A [`ServiceRequest::Status`] result.
    Status {
        /// The node's replica name.
        node: String,
        /// The node's Lamport clock.
        tick: u64,
        /// Connections being served right now.
        active_connections: u64,
        /// High-water mark of concurrently served connections.
        peak_connections: u64,
        /// Connections accepted over the node's lifetime.
        connections_accepted: u64,
        /// Request frames answered over the node's lifetime.
        frames_served: u64,
        /// Seconds since the server started.
        uptime_secs: u64,
        /// The backend's flush policy, as reported by
        /// [`StorageInfo`](peepul_store::StorageInfo): `volatile`,
        /// `none`, `per-commit`, `coalesced:<ms>ms` or `explicit`.
        flush: String,
        /// Bytes the backend holds on disk (0 for volatile backends).
        disk_bytes: u64,
        /// Segment files the backend holds (0 for volatile backends).
        segments: u64,
        /// Every branch as `(name, head commit id, head state id)` —
        /// tracking branches included, sorted by name.
        branches: Vec<(String, ObjectId, ObjectId)>,
    },
    /// A [`ServiceRequest::Metrics`] result.
    Metrics {
        /// The Prometheus-style text exposition; empty when the node's
        /// observability is disabled.
        text: String,
    },
    /// The command failed.
    Err {
        /// Human-readable failure description.
        message: String,
    },
}

wire_enum!(ServiceRequest, base = SERVICE_TAG_BASE, {
    0 => Hello(tenant: String),
    1 => Get(branch: String, key: String),
    2 => Put(branch: String, key: String, value: String),
    3 => Query(branch: String),
    4 => Fork(from: String, to: String),
    5 => Merge(into: String, from: String),
    6 => Branches,
    7 => Status,
    8 => Metrics,
    9 => TraceDump,
});

wire_enum!(ServiceResponse, base = SERVICE_TAG_BASE, {
    0 => Ok,
    1 => Value(value: Option<String>),
    2 => Table(entries: Vec<(String, String)>),
    3 => BranchList(branches: Vec<String>),
    4 => Status(
        node: String,
        tick: u64,
        active_connections: u64,
        peak_connections: u64,
        connections_accepted: u64,
        frames_served: u64,
        uptime_secs: u64,
        flush: String,
        disk_bytes: u64,
        segments: u64,
        branches: Vec<(String, ObjectId, ObjectId)>
    ),
    5 => Err(message: String),
    6 => Metrics(text: String),
});

/// The branch-name prefix reserved for the replication layer's tracking
/// branches; the service refuses to read or write under it.
pub const TRACKING_PREFIX: &str = "remote/";

/// One connection's session state: the tenant namespace it is bound to,
/// if any.
#[derive(Default, Debug)]
pub struct Session {
    /// The bound tenant, set by [`ServiceRequest::Hello`].
    pub tenant: Option<String>,
    /// The tenant's op counter
    /// (`peepul_server_tenant_ops_total{tenant="..."}`), resolved once at
    /// `Hello` so the per-request path never touches the registry.
    pub tenant_ops: Option<peepul_obs::Counter>,
}

impl Session {
    /// Validates a tenant name: non-empty, no `/` (namespaces cannot
    /// nest or escape), no control characters, not the reserved
    /// `remote`.
    pub fn validate_tenant(tenant: &str) -> Result<(), String> {
        if tenant.is_empty() {
            return Err("tenant name must not be empty".into());
        }
        if tenant.contains('/') {
            return Err(format!("tenant name must not contain '/': {tenant:?}"));
        }
        if tenant.chars().any(char::is_control) {
            return Err("tenant name must not contain control characters".into());
        }
        if tenant == "remote" {
            return Err("tenant name 'remote' is reserved for tracking branches".into());
        }
        Ok(())
    }

    /// Resolves a session-relative branch name to the store branch it
    /// addresses: `tenant/<branch>` for a bound session, `branch`
    /// verbatim otherwise. Rejects names that would cross namespaces or
    /// touch the reserved tracking prefix.
    pub fn resolve(&self, branch: &str) -> Result<String, String> {
        if branch.is_empty() {
            return Err("branch name must not be empty".into());
        }
        match &self.tenant {
            Some(tenant) => {
                if branch.contains('/') {
                    return Err(format!(
                        "tenant-relative branch names must not contain '/': {branch:?}"
                    ));
                }
                Ok(format!("{tenant}/{branch}"))
            }
            None => {
                if branch.starts_with(TRACKING_PREFIX) || branch == "remote" {
                    return Err(format!(
                        "the {TRACKING_PREFIX}* namespace is reserved for replication tracking \
                         branches: {branch:?}"
                    ));
                }
                Ok(branch.to_owned())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peepul_core::wire::Wire;

    fn oid(n: u8) -> ObjectId {
        peepul_store::content_id(&n)
    }

    #[test]
    fn service_messages_roundtrip() {
        let reqs = [
            ServiceRequest::Hello {
                tenant: "acme".into(),
            },
            ServiceRequest::Get {
                branch: "main".into(),
                key: "k".into(),
            },
            ServiceRequest::Put {
                branch: "main".into(),
                key: "k".into(),
                value: "v".into(),
            },
            ServiceRequest::Query {
                branch: "main".into(),
            },
            ServiceRequest::Fork {
                from: "main".into(),
                to: "feature".into(),
            },
            ServiceRequest::Merge {
                into: "main".into(),
                from: "feature".into(),
            },
            ServiceRequest::Branches,
            ServiceRequest::Status,
            ServiceRequest::Metrics,
            ServiceRequest::TraceDump,
        ];
        for r in reqs {
            assert_eq!(ServiceRequest::from_wire(&r.to_wire()), Some(r));
        }
        let resps = [
            ServiceResponse::Ok,
            ServiceResponse::Value {
                value: Some("v".into()),
            },
            ServiceResponse::Value { value: None },
            ServiceResponse::Table {
                entries: vec![("k".into(), "v".into())],
            },
            ServiceResponse::BranchList {
                branches: vec!["a".into(), "b".into()],
            },
            ServiceResponse::Status {
                node: "n1".into(),
                tick: 7,
                active_connections: 1,
                peak_connections: 2,
                connections_accepted: 3,
                frames_served: 4,
                uptime_secs: 5,
                flush: "coalesced:5ms".into(),
                disk_bytes: 6,
                segments: 2,
                branches: vec![("main".into(), oid(1), oid(2))],
            },
            ServiceResponse::Metrics {
                text: "peepul_store_commits_total 3\n".into(),
            },
            ServiceResponse::Err {
                message: "nope".into(),
            },
        ];
        for r in resps {
            assert_eq!(ServiceResponse::from_wire(&r.to_wire()), Some(r));
        }
    }

    #[test]
    fn service_tags_do_not_collide_with_the_sync_protocol() {
        // Replication requests tag themselves below SERVICE_TAG_BASE; a
        // service frame's first byte is always >= it. The dispatcher
        // relies on this boundary.
        let sync = peepul_net::Request::FetchRefs.to_wire();
        assert!(sync[0] < SERVICE_TAG_BASE);
        let service = ServiceRequest::Status.to_wire();
        assert!(service[0] >= SERVICE_TAG_BASE);
    }

    #[test]
    fn tenants_resolve_and_cannot_escape() {
        let unbound = Session::default();
        assert_eq!(unbound.resolve("main").unwrap(), "main");
        assert_eq!(unbound.resolve("acme/main").unwrap(), "acme/main");
        assert!(unbound.resolve("remote/x/main").is_err());
        assert!(unbound.resolve("").is_err());

        let bound = Session {
            tenant: Some("acme".into()),
            ..Session::default()
        };
        assert_eq!(bound.resolve("main").unwrap(), "acme/main");
        assert!(bound.resolve("other/main").is_err());
        assert!(bound.resolve("remote/x").is_err());

        assert!(Session::validate_tenant("acme").is_ok());
        assert!(Session::validate_tenant("").is_err());
        assert!(Session::validate_tenant("a/b").is_err());
        assert!(Session::validate_tenant("remote").is_err());
    }
}
