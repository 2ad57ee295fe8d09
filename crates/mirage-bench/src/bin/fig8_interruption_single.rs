//! Figure 8: average interruption of a pair of 48-hour **single-node**
//! jobs on the three clusters, under heavy and medium load.
//!
//! Paper shapes to reproduce: under heavy load the learned methods cut the
//! reactive interruption substantially (average reductions of 44.1 % /
//! 33.7 % / 84.7 % on V100/RTX/A100 across methods); transformer+PG has
//! the lowest interruption; MoE+PG is the weakest learned method.

use mirage_bench::{cluster_reports, prepare_clusters, print_fig8, ONE_NODE};

fn main() {
    let reports = cluster_reports(&prepare_clusters(), ONE_NODE);
    print_fig8(&reports);
}
