//! §6 headline statistics: zero-interruption job fractions and
//! interruption reductions vs the reactive baseline.
//!
//! Paper claims: Mirage safeguards 23–72 % / 35–72 % / 40–60 % of jobs
//! with zero interruption (V100/RTX/A100, medium-to-heavy load) and
//! reduces average interruption by 25–53 % / 21–44 % / 77–100 % when
//! machines are heavily loaded.

use mirage_bench::{cluster_reports, prepare_clusters, print_headline, ONE_NODE};

fn main() {
    let reports = cluster_reports(&prepare_clusters(), ONE_NODE);
    print_headline(&reports);
}
