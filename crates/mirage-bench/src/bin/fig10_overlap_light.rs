//! Figure 10: average overlap under **light** load, for 1-node and 8-node
//! pairs.
//!
//! Paper shape: proactive methods pay a few hours of overlap where the
//! reactive baseline pays none; the ensembles and transformer+PG introduce
//! roughly 2× the overlap of MoE+DQN — the trade-off that makes MoE+DQN
//! Mirage's default model (§6.3).

use mirage_bench::{cluster_reports, prepare_clusters, print_fig10, EIGHT_NODES, ONE_NODE};

fn main() {
    let prepared = prepare_clusters();
    let one_node = cluster_reports(&prepared, ONE_NODE);
    let eight_nodes = cluster_reports(&prepared, EIGHT_NODES);
    print_fig10(&one_node, &eight_nodes);
}
