//! Golden fingerprints of the seeded generators.
//!
//! Each case pins a 64-bit FNV-1a fingerprint of a generated graph's CSR
//! layout: the offsets (prefix sums of the degrees), the packed neighbor
//! lists and the edge count. Any change to a generator's RNG draws, its
//! stopping rule or the CSR construction that moves a single neighbor shows
//! up here, so construction speedups can prove the graphs they build are
//! unchanged.
//!
//! The experiments' attributed surrogates are pinned the same way at their
//! quick-scale sizes and fixed seeds, with every attribute column folded in
//! (its name, then the bits of each value): the figures regenerate these
//! graphs on every run, so these fingerprints are what keeps them fixed.
//!
//! The `crawl`-scale case, BA(1M, 5, 1), is `#[ignore]`d because it takes
//! seconds in a debug build; run it with
//! `cargo test --release -p wnw-graph -- --ignored`.

use wnw_graph::generators::random::{
    barabasi_albert, directed_preferential_attachment, erdos_renyi, mutual_undirected,
    watts_strogatz,
};
use wnw_graph::generators::surrogate::{google_plus_like, twitter_like, yelp_like};
use wnw_graph::Graph;

const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fold(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(FNV_PRIME)
}

/// Word-wise FNV-1a over offsets, then neighbor ids, then the edge count,
/// then each attribute column in name order: its name's bytes, then
/// `f64::to_bits` of every value. A graph with no attributes is
/// fingerprinted by its CSR layout alone.
fn fingerprint(g: &Graph) -> u64 {
    let mut h = fold(FNV_OFFSET_BASIS, 0);
    let mut end = 0u64;
    for v in g.nodes() {
        end += g.degree(v) as u64;
        h = fold(h, end);
    }
    for v in g.nodes() {
        for u in g.neighbors(v) {
            h = fold(h, u64::from(u.0));
        }
    }
    h = fold(h, g.edge_count() as u64);
    let table = g.attributes();
    for name in table.names() {
        h = name.bytes().fold(h, |h, b| fold(h, u64::from(b)));
        let column = table.column(name).expect("listed column");
        h = column
            .as_slice()
            .iter()
            .fold(h, |h, x| fold(h, x.to_bits()));
    }
    h
}

/// Word-wise FNV-1a over an ordered directed edge list.
fn edge_list_fingerprint(edges: &[(u32, u32)]) -> u64 {
    edges.iter().fold(FNV_OFFSET_BASIS, |h, &(u, v)| {
        fold(fold(h, u64::from(u)), u64::from(v))
    })
}

fn check(g: &Graph, nodes: usize, edges: usize, expected: u64) {
    assert_eq!(g.node_count(), nodes);
    assert_eq!(g.edge_count(), edges);
    assert_eq!(
        fingerprint(g),
        expected,
        "fingerprint moved: got {:#018x}",
        fingerprint(g)
    );
}

#[test]
fn barabasi_albert_1000_7_seed_12() {
    check(
        &barabasi_albert(1000, 7, 12).unwrap(),
        1000,
        6972,
        0x2bbd_6354_d697_87c7,
    );
}

#[test]
fn barabasi_albert_20k_5_seed_1() {
    check(
        &barabasi_albert(20_000, 5, 1).unwrap(),
        20_000,
        99_985,
        0x5237_0806_91c2_3598,
    );
}

#[test]
fn barabasi_albert_100k_3_seed_9() {
    check(
        &barabasi_albert(100_000, 3, 9).unwrap(),
        100_000,
        299_994,
        0x3430_0c75_8701_8a75,
    );
}

#[test]
#[ignore = "crawl-scale graph; run in release with --ignored"]
fn barabasi_albert_1m_5_seed_1() {
    check(
        &barabasi_albert(1_000_000, 5, 1).unwrap(),
        1_000_000,
        4_999_985,
        0x0962_4755_076e_3952,
    );
}

#[test]
fn watts_strogatz_2000_6_seed_5() {
    check(
        &watts_strogatz(2000, 6, 0.1, 5).unwrap(),
        2000,
        6000,
        0xee2a_4fdf_4896_8795,
    );
}

#[test]
fn erdos_renyi_1500_seed_7() {
    check(
        &erdos_renyi(1500, 0.004, 7).unwrap(),
        1500,
        4530,
        0xd550_a0df_718f_0fbd,
    );
}

#[test]
fn directed_preferential_attachment_5000_4_seed_3() {
    let edges = directed_preferential_attachment(5000, 4, 0.6, 3).unwrap();
    assert_eq!(edges.len(), 31_971);
    assert_eq!(
        edge_list_fingerprint(&edges),
        0xac55_4084_552c_65a2,
        "fingerprint moved: got {:#018x}",
        edge_list_fingerprint(&edges)
    );
    check(
        &mutual_undirected(5000, &edges),
        5000,
        11_981,
        0x9726_fd78_e8f3_8372,
    );
}

#[test]
fn google_plus_like_400_seed_0x0601() {
    let ds = google_plus_like(400, 0x0601).unwrap();
    assert_eq!(ds.graph.attributes().len(), 1);
    check(&ds.graph, 400, 2772, 0x3a12_a23b_2b36_f172);
}

#[test]
fn yelp_like_500_seed_0x0702() {
    let ds = yelp_like(500, 0x0702).unwrap();
    assert_eq!(ds.graph.attributes().len(), 1);
    check(&ds.graph, 500, 3964, 0xabd3_443d_2d6f_336a);
}

#[test]
fn twitter_like_500_seed_0x0803() {
    let ds = twitter_like(500, 0x0803).unwrap();
    assert_eq!(ds.graph.attributes().len(), 2);
    check(&ds.graph, 500, 3265, 0x828f_e068_77e3_77e1);
}
