//! Deployment topology: which endpoints serve which shard.
//!
//! PR 8's client hard-coded one endpoint per shard. A [`Topology`] makes
//! the mapping explicit — `shard -> [replica endpoints]` — so a shard can
//! be served by a primary *and* any number of verified read replicas, and
//! the client can fail over between them without ever weakening
//! verification (every replica's slice is checked against the same
//! owner-published token).

use crate::frame::{NetError, NetResult};

/// The published `shard -> [replica endpoints]` mapping a [`crate::NetClient`]
/// scatters over. The client round-robins within a group, each client
/// from its own starting member, and prefers non-demoted endpoints on
/// refetch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Topology {
    groups: Vec<Vec<String>>,
}

impl Topology {
    /// The PR 8 shape: exactly one endpoint per shard, no replicas.
    pub fn single(endpoints: Vec<String>) -> Topology {
        Topology {
            groups: endpoints.into_iter().map(|e| vec![e]).collect(),
        }
    }

    /// A replicated deployment: `groups[i]` lists every endpoint serving
    /// shard `i`. Fails if any shard has no endpoint at all — a layout
    /// shard nobody serves can never produce a verifying response.
    pub fn replicated(groups: Vec<Vec<String>>) -> NetResult<Topology> {
        if groups.iter().any(Vec::is_empty) {
            return Err(NetError::Malformed(
                "every shard needs at least one endpoint in its replica group",
            ));
        }
        Ok(Topology { groups })
    }

    /// Number of shards the topology covers.
    pub fn shard_count(&self) -> usize {
        self.groups.len()
    }

    /// The endpoints serving shard `shard` (empty for an out-of-range id).
    pub fn replicas(&self, shard: usize) -> &[String] {
        self.groups.get(shard).map_or(&[], Vec::as_slice)
    }

    /// Largest replica group size across all shards.
    pub fn max_group(&self) -> usize {
        self.groups.iter().map(Vec::len).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_wraps_each_endpoint_in_its_own_group() {
        let t = Topology::single(vec!["a:1".into(), "b:2".into()]);
        assert_eq!(t.shard_count(), 2);
        assert_eq!(t.replicas(0), ["a:1".to_string()]);
        assert_eq!(t.replicas(1), ["b:2".to_string()]);
        assert_eq!(t.replicas(9), Vec::<String>::new().as_slice());
        assert_eq!(t.max_group(), 1);
    }

    #[test]
    fn replicated_rejects_an_unserved_shard() {
        assert!(Topology::replicated(vec![vec!["a:1".into()], vec![]]).is_err());
        let t = Topology::replicated(vec![
            vec!["a:1".into(), "b:2".into(), "c:3".into()],
            vec!["d:4".into()],
        ])
        .unwrap();
        assert_eq!(t.shard_count(), 2);
        assert_eq!(t.replicas(0).len(), 3);
        assert_eq!(t.max_group(), 3);
    }
}
