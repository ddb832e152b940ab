"""Property tests of the dynamic certifier over random legal streams.

Any legal reordering of a stream, and any insert/delete pair that cancels,
must leave the three cell arrays bit-identical and the certificate JSON
byte-identical. A bank whose extraction reports no sample failure must
recover the component partition of its induced final graph, which is the
partition the offline builder's exact forest spans.
"""
from itertools import combinations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from streamvc.certificate import CertParams, StreamCertifier
from streamvc.graph import UpdateEvent, component_partition, replay_stream
from streamvc.instances import legal_shuffle

N = 7
PAIRS = [(u, v) for u in range(N) for v in range(u + 1, N)]


@st.composite
def legal_streams(draw):
    """Inserts and deletes of random pairs; a delete only of a present edge."""
    ops = draw(st.lists(st.tuples(st.sampled_from(PAIRS), st.booleans()), max_size=30))
    mult: dict[tuple[int, int], int] = {}
    events = []
    for (u, v), delete in ops:
        if delete and mult.get((u, v), 0) > 0:
            mult[(u, v)] -= 1
            events.append(UpdateEvent(v, u, -1))
        else:
            mult[(u, v)] = mult.get((u, v), 0) + 1
            events.append(UpdateEvent(u, v, 1))
    return events


def certify(params, events):
    certifier = StreamCertifier(params)
    for e in events:
        certifier.update(e)
    return certifier


@settings(max_examples=25, deadline=None, database=None)
@given(
    events=legal_streams(),
    shuffle_seed=st.integers(0, 2**32 - 1),
    cancels=st.lists(st.tuples(st.sampled_from(PAIRS), st.integers(0, 60)), max_size=6),
    seed=st.integers(0, 1000),
)
def test_reordering_and_cancelling_pairs_keep_state_bit_identical(
    events, shuffle_seed, cancels, seed
):
    variant = legal_shuffle(events, shuffle_seed)
    for (u, v), at in cancels:
        at = min(at, len(variant))
        variant[at:at] = [UpdateEvent(u, v, 1), UpdateEvent(v, u, -1)]
    params = CertParams(n=N, k=2, scale_c=2, seed=seed, delta=0.05)
    a, b = certify(params, events), certify(params, variant)
    for field in ("counts", "index_sums", "fingerprints"):
        assert np.array_equal(getattr(a.store, field), getattr(b.store, field))
    assert a.finalize().to_json() == b.finalize().to_json()


@settings(max_examples=25, deadline=None, database=None)
@given(events=legal_streams(), k=st.integers(1, 3), seed=st.integers(0, 1000))
def test_failure_free_banks_recover_the_induced_partition(events, k, seed):
    certifier = certify(CertParams(n=N, k=k, scale_c=2, seed=seed, delta=0.05), events)
    final = replay_stream(events, N).support()
    for bank in certifier.banks:
        extraction = bank.extract()
        if extraction.sample_failures:
            continue
        members = set(bank.members)
        induced = [(u, v) for u, v in final.edges if u in members and v in members]
        assert extraction.forest.edges <= set(induced)
        assert component_partition(members, extraction.forest.edges) == (
            component_partition(members, induced)
        )


@st.composite
def queried_runs(draw):
    """Certifier updates (a legal stream), bank-view updates and queries, interleaved.

    A bank-view update is drawn as a bank and a pick among its own member
    pairs, resolved on replay, so that it reaches the bank's cells.
    """
    banks = CertParams(n=N, k=2, scale_c=2).num_forests
    steps = st.one_of(
        st.tuples(st.just("update"), st.sampled_from(PAIRS), st.booleans()),
        st.tuples(st.just("bank"), st.integers(0, banks - 1), st.integers(0, len(PAIRS))),
        st.tuples(st.just("query")),
    )
    mult: dict[tuple[int, int], int] = {}
    ops = []
    for step in draw(st.lists(steps, max_size=30)):
        if step[0] == "update":
            (u, v), delete = step[1:]
            if delete and mult.get((u, v), 0) > 0:
                mult[(u, v)] -= 1
                step = ("update", UpdateEvent(v, u, -1))
            else:
                mult[(u, v)] = mult.get((u, v), 0) + 1
                step = ("update", UpdateEvent(u, v, 1))
        ops.append(step)
    return ops + [("query",)]


def replay(certifier, ops):
    for op in ops:
        if op[0] == "update":
            certifier.update(op[1])
        elif op[0] == "bank":  # an insertion of one of the bank's own pairs, if it has one
            bank = certifier.banks[op[1]]
            own = list(combinations(bank.members, 2))
            if own:
                bank.update(UpdateEvent(*own[op[2] % len(own)], 1))
    return certifier


@settings(max_examples=25, deadline=None, database=None)
@given(ops=queried_runs(), seed=st.integers(0, 1000))
def test_queries_along_the_way_equal_a_fresh_certifier(ops, seed):
    params = CertParams(n=N, k=2, scale_c=2, seed=seed, delta=0.05)
    queried = StreamCertifier(params)
    for end, op in enumerate(ops, 1):
        replay(queried, [op])
        if op[0] == "query":
            fresh = replay(StreamCertifier(params), ops[:end])
            assert queried.finalize().to_json() == fresh.finalize().to_json()
