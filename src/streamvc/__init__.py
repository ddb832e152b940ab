"""streamvc: k-vertex-connectivity of dynamic edge streams.

Builds sparse connectivity certificates as unions of spanning forests
over randomly sampled vertex subsets, realized both offline and as a
single-pass linear-sketch algorithm over insertion/deletion streams,
with exact max-flow oracles for verification and an insertion-only
deterministic certifier.
"""

from .certificate import (
    CertParams,
    Certificate,
    StreamCertifier,
    build_certificate_offline,
    decide_k_connected,
    preserved_st_connectivity,
    sample_subsets,
)
from .errors import (
    InsertionOnlyViolationError,
    InvalidVertexError,
    MultiplicityOverflowError,
    NegativeMultiplicityError,
    SeedMismatchError,
    SelfLoopError,
    SpaceExceededError,
    StreamError,
    StreamFormatError,
)
from .forest import ForestExtraction, ForestSketchBank, pair_from_index, pair_index
from .graph import (
    EdgeSet,
    MultiGraph,
    UnionFind,
    UpdateEvent,
    component_partition,
    replay_stream,
)
from .insertion import InsertionCertifier
from .l0 import EMPTY, FAIL, L0Sketch, NonZeroIndex
from .oracle import (
    find_vertex_cut,
    has_k_connected_subgraph,
    is_k_connected,
    max_vertex_disjoint_paths,
    vertex_connectivity,
)

__version__ = "0.1.0"
