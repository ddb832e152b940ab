"""Queries along a stream agree with a fresh certifier, and re-extract only dirty banks.

StreamCertifier.finalize re-extracts only the banks an event reached
since the previous query and serves the rest from their kept
extractions. A certifier queried along the way must give the same
certificate and verdict as one built fresh at that prefix, which
extracts every bank; and each query must run exactly the banks the
events since the last one reached.
"""
import pytest

from streamvc.certificate import (
    MAX_LIVE_MULTIPLICITY,
    CertParams,
    StreamCertifier,
    decide_k_connected,
)
from streamvc.errors import (
    InvalidVertexError,
    MultiplicityOverflowError,
    NegativeMultiplicityError,
    SelfLoopError,
)
from streamvc.forest import ForestSketchBank
from streamvc.graph import UpdateEvent
from streamvc.instances import gen_random_stream

N, K = 32, 2
# (density, delete fraction, events, query every): the benchmark's
# dyn-query and dyn-churn streams
STREAMS = {"dyn-query": (0.3, 0.2, 40, 1), "dyn-churn": (0.28, 0.5, 150, 50)}


def params(seed: int) -> CertParams:
    return CertParams(n=N, k=K, scale_c=20, seed=seed, delta=0.01)


@pytest.mark.parametrize("seed", [1001, 2002, 3003])
@pytest.mark.parametrize("stream", sorted(STREAMS))
def test_queried_certifier_equals_a_fresh_one_at_every_query(stream, seed):
    density, delete_fraction, count, every = STREAMS[stream]
    events = gen_random_stream(N, density, delete_fraction, seed=seed)[:count]
    queried = StreamCertifier(params(seed))
    for end, e in enumerate(events, 1):
        queried.update(e)
        if end % every:
            continue
        fresh = StreamCertifier(params(seed))
        for earlier in events[:end]:
            fresh.update(earlier)
        got, want = queried.finalize(), fresh.finalize()
        assert got.to_json() == want.to_json(), f"query after event {end}"
        assert decide_k_connected(got) == decide_k_connected(want)


@pytest.fixture
def extracted(monkeypatch):
    """The indices of the banks extracted since the list was last cleared.

    One extract call extracts its bank and every other bank it is given.
    """
    calls: list[int] = []
    extract = ForestSketchBank.extract

    def counted(bank, *others):
        calls.extend(b.index for b in (bank, *others))
        return extract(bank, *others)

    monkeypatch.setattr(ForestSketchBank, "extract", counted)
    return calls


def reached(certifier: StreamCertifier, u: int, v: int) -> list[int]:
    """The banks holding both u and v."""
    slot = certifier.store._slot
    return [b for b in range(len(certifier.banks)) if slot[u, b] >= 0 and slot[v, b] >= 0]


def test_a_query_extracts_only_the_banks_reached_since_the_last(extracted):
    events = gen_random_stream(N, 0.3, 0.2, seed=1001)[:20]
    certifier = StreamCertifier(params(1001))
    certifier.finalize()
    assert extracted == list(range(len(certifier.banks)))  # the first query extracts every bank
    for e in events:
        extracted.clear()
        certifier.finalize()
        assert extracted == []  # no event since the last query
        certifier.update(e)
        certifier.finalize()
        assert extracted == reached(certifier, e.i, e.j)
    extracted.clear()
    for e in events[:3]:
        certifier.update(e)
    certifier.finalize()
    assert extracted == sorted(set().union(*(reached(certifier, e.i, e.j) for e in events[:3])))


def test_a_bank_view_update_marks_only_that_bank(extracted):
    certifier = StreamCertifier(params(2002))
    certifier.finalize()
    u, v = 3, 7
    hit = reached(certifier, u, v)
    missed = next(b for b in range(len(certifier.banks)) if b not in hit)
    extracted.clear()
    certifier.banks[missed].update(UpdateEvent(u, v, 1))  # a no-op: not both members
    certifier.banks[hit[0]].update(UpdateEvent(u, v, 1))
    certifier.finalize()
    assert extracted == [hit[0]]


def test_a_refused_event_marks_no_bank(extracted):
    certifier = StreamCertifier(params(3003))
    certifier.update(UpdateEvent(0, 1, 1))
    certifier.finalize()
    extracted.clear()
    refused = [
        (UpdateEvent(0, N, 1), InvalidVertexError),
        (UpdateEvent(2, 2, 1), SelfLoopError),
        (UpdateEvent(0, 2, -1), NegativeMultiplicityError),
    ]
    for e, error in refused:
        with pytest.raises(error):
            certifier.update(e)
    certifier.live_multiplicity = MAX_LIVE_MULTIPLICITY
    with pytest.raises(MultiplicityOverflowError):
        certifier.update(UpdateEvent(0, 1, 1))
    assert not certifier.store.dirty.any()
    certifier.finalize()
    assert extracted == []
