//! The batch scheduler: orders a query batch to maximize artifact reuse
//! before the service executes it.
//!
//! Within a batch, queries are grouped by **instance size** first (each
//! size is one session), then safety before liveness, then:
//!
//! * safety queries by **property** — every TM checked against the same
//!   property shares one specification artifact, so all of a property's
//!   queries run back-to-back while it is resident;
//! * liveness queries by **TM** — one compiled run graph answers all
//!   three properties, so a TM's properties run back-to-back while its
//!   graph is resident.
//!
//! The sort is stable: queries in the same group keep their request
//! order, and results are always returned in request order regardless of
//! execution order. Under a tight memory budget this grouping is what
//! turns "evict on every query" into "build each artifact once per
//! batch".

use tm_checker::ArtifactKey;

use crate::roster::{PropertyKind, QuerySpec};

impl QuerySpec {
    /// The key of the artifact this query needs: the TM's run graph for
    /// a liveness query, the property's specification for a safety
    /// query.
    pub fn artifact_key(&self) -> ArtifactKey {
        match self.property {
            PropertyKind::Safety(property) => ArtifactKey::spec(property, self.threads, self.vars),
            PropertyKind::Liveness(_) => {
                ArtifactKey::run_graph(self.tm_name(), self.threads, self.vars)
            }
        }
    }
}

/// The order the service executes `batch` in, as indices into it (see
/// the module docs for the grouping). Results are still delivered in
/// request order.
pub fn execution_order(batch: &[QuerySpec]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..batch.len()).collect();
    // Cached: the key allocates a String, and `sort_by_key` would
    // re-evaluate it on every comparison.
    order.sort_by_cached_key(|&i| {
        let q = &batch[i];
        let (kind, group) = match q.property {
            PropertyKind::Safety(_) => (0u8, q.property.code().to_owned()),
            PropertyKind::Liveness(_) => (1u8, q.tm_name()),
        };
        (q.threads, q.vars, kind, group)
    });
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::roster::{table2_batch, table3_batch};

    #[test]
    fn order_groups_by_instance_then_artifact() {
        // Interleave the two paper tables query by query: the scheduler
        // must untangle them back into artifact-contiguous runs.
        let mut batch = Vec::new();
        let (t2, t3) = (table2_batch(), table3_batch());
        for i in 0..t3.len() {
            batch.push(t3[i].clone());
            if i < t2.len() {
                batch.push(t2[i].clone());
            }
        }
        let order = execution_order(&batch);
        let keys: Vec<ArtifactKey> = order.iter().map(|&i| batch[i].artifact_key()).collect();
        // Each artifact appears in exactly one contiguous run.
        let mut seen = Vec::new();
        for key in &keys {
            match seen.last() {
                Some(last) if last == key => {}
                _ => {
                    assert!(!seen.contains(key), "artifact revisited: {key}");
                    seen.push(key.clone());
                }
            }
        }
        // 2 specs at (2,2) + 4 run graphs at (2,1).
        assert_eq!(seen.len(), 6);
        // Results-in-request-order is the caller's job; the order is a
        // permutation.
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..batch.len()).collect::<Vec<_>>());
    }

    #[test]
    fn ties_keep_request_order() {
        // Queries sharing an artifact are ties: the stable sort must not
        // reorder the three properties of one TM.
        let batch: Vec<QuerySpec> = table3_batch()
            .into_iter()
            .filter(|q| q.tm_name() == "dstm+aggressive")
            .collect();
        assert_eq!(batch.len(), 3);
        assert_eq!(execution_order(&batch), vec![0, 1, 2]);
    }
}
