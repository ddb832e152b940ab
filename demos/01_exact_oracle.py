"""
Exact vertex-connectivity oracles
=================================

Everything else in this package is checked against the routines shown
here: internally vertex-disjoint path counts via unit-capacity max-flow
on the vertex-split network, global connectivity, minimum vertex cuts,
and the brute-force dense-subgraph test.
"""
from streamvc.instances import complete, cycle, hypercube, path_graph, petersen
from streamvc.oracle import (
    find_vertex_cut,
    has_k_connected_subgraph,
    is_k_connected,
    max_vertex_disjoint_paths,
    vertex_connectivity,
)

# Disjoint path counts. On a 5-cycle two vertices see exactly the two
# arcs of the cycle; in K4 the direct edge plus two detours give three.
c5 = cycle(5)
print("C5 paths(0,2)  =", max_vertex_disjoint_paths(c5, 0, 2))
print("K4 paths(0,1)  =", max_vertex_disjoint_paths(complete(4), 0, 1))

# Global connectivity of a few named graphs.
for name, g in [
    ("petersen", petersen()),
    ("hypercube(4)", hypercube(4)),
    ("path(6)", path_graph(6)),
]:
    print(f"kappa({name}) = {vertex_connectivity(g)}")

# Boolean queries short-circuit on min degree and cap their flows, so
# they stay fast even when the exact value is irrelevant.
print("petersen 3-connected:", is_k_connected(petersen(), 3))
print("petersen 4-connected:", is_k_connected(petersen(), 4))

# Minimum cuts are read off the last search of the max flow, the one back
# from the sink that found no path: of the pair's minimum separators it
# gives the one nearest the far vertex. The middle vertex of a path is
# the unique cut; a 3-connected graph returns None for k=2.
print("cut of path(3), k=2:", find_vertex_cut(path_graph(3), 2))
print("cut of K4, k=2:", find_vertex_cut(complete(4), 2))

g = petersen()
cut = find_vertex_cut(g, 4)
print("a minimum cut of petersen:", cut)

# Dense graphs always hide a highly connected subgraph: any graph on
# n >= 2k-1 vertices with (2k-3)(n-k+1)+1 edges contains a k-connected
# one. The brute-force check below confirms it for a tight example.
k5 = complete(5)
print("K5 has a 3-connected subgraph:", has_k_connected_subgraph(k5, 3))
print("path(8) has a 2-connected subgraph:", has_k_connected_subgraph(path_graph(8), 2))
