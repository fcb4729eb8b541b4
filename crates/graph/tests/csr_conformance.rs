//! The CSR layout changes storage, never topology: at three generator seeds
//! a generated graph presents exactly the degree sequence and neighbor lists
//! of a per-node-`Vec` adjacency rebuilt from its edge list.

use wnw_graph::generators::random::barabasi_albert;
use wnw_graph::NodeId;

#[test]
fn csr_conforms_to_per_node_vec_graph_at_three_seeds() {
    for seed in [0xA11CE, 0xB0B, 0xC0FFEE] {
        let graph = barabasi_albert(2_000, 3, seed).unwrap();
        let mut lists: Vec<Vec<NodeId>> = vec![Vec::new(); graph.node_count()];
        for (u, v) in graph.edges() {
            lists[u.index()].push(v);
            lists[v.index()].push(u);
        }
        for list in &mut lists {
            list.sort_unstable();
        }
        assert_eq!(
            lists.iter().map(Vec::len).sum::<usize>(),
            2 * graph.edge_count()
        );
        for v in graph.nodes() {
            let expected = &lists[v.index()];
            assert_eq!(
                graph.degree(v),
                expected.len(),
                "degree of {v:?}, seed {seed:#x}"
            );
            assert_eq!(
                graph.neighbors(v),
                &expected[..],
                "neighbors of {v:?}, seed {seed:#x}"
            );
        }
    }
}
