"""Differential test: ForestSketchBank.extract against the extraction loop it replaced.

reference_extract is an earlier loop, kept as it was apart from taking the
bank as an argument, calling forest's sample_cells through the module and
scanning each round's components in ascending order of their smallest
member, the order in which extract's forest keeps a round's sampled
edges; it keeps its own copy of the _merged helper it used. sample_cells is a
one-row call of l0.sample_rows, the decoder the batched extraction calls,
so a decoder patched at l0.sample_rows reaches both loops. Every round the
reference rebuilds the component map with UnionFind.find over every
member, re-sums every component from its members' blocks, re-tests every
singleton's level-0 cell and decodes every component again, and it stops
once the members form one component or a round samples nothing and fails
nothing. extract decodes every bank it is given in one batched pass per
round, starts from the live members only, retires a component once it
decodes EMPTY and stops a bank once at most one of its components that
has not decoded EMPTY is left. Both must give the same forest and failure
count on every bank, and extract runs no more rounds.
"""
import numpy as np
import pytest

from streamvc import forest as forest_mod
from streamvc import l0 as l0_mod
from streamvc.certificate import CertParams, StreamCertifier
from streamvc.forest import ForestExtraction, ForestSketchBank, pair_from_index, pair_index
from streamvc.graph import EdgeSet, UnionFind, UpdateEvent
from streamvc.instances import gen_random_stream
from streamvc.l0 import FAIL, PRIME, ROW_EMPTY, ROW_FAIL, NonZeroIndex


def _merged(cells, positions: list[int]):
    """Cell-wise sum of the members' blocks; fingerprints mod PRIME.

    The int32 index sums sum into int64 (numpy's default accumulator) and
    stay unreduced, as extraction leaves them.
    """
    counts, isums = (c[positions].sum(axis=0) for c in cells[:2])
    fps = cells[2][positions]
    while len(fps) > 1:
        # four residues below PRIME < 2^61 sum below 2^63 and fit in int64
        fps = np.add.reduceat(fps, np.arange(0, len(fps), 4), axis=0) % PRIME
    return counts, isums, fps[0]


def reference_extract(bank: ForestSketchBank) -> ForestExtraction:
    store = bank.store
    size = int(store.sizes[bank.index])
    forest = EdgeSet(store.n)
    if size <= 1:
        return ForestExtraction(forest, 0, 0)
    blocks = store.blocks(bank.index)
    slot = store._slot[:, bank.index].tolist()
    uf = UnionFind(size)
    failures = 0
    rounds_used = 0
    for r in range(store.rounds):
        comps: dict[int, list[int]] = {}
        for pos in range(size):
            comps.setdefault(uf.find(pos), []).append(pos)
        if len(comps) == 1:
            break
        rounds_used += 1
        failures_before = failures
        cells = [b[:, r] for b in blocks]
        live = ((cells[0][:, 0] != 0) | (cells[1][:, 0] != 0) | (cells[2][:, 0] != 0)).tolist()
        sampled: list[tuple[int, int]] = []
        for positions in sorted(comps.values()):  # by smallest member
            if len(positions) == 1:
                if not live[positions[0]]:
                    continue
                counts, isums, fps = (c[positions[0]] for c in cells)
            else:
                counts, isums, fps = _merged(cells, positions)
            outcome = forest_mod.sample_cells(counts, isums, fps, store.z[r], store.universe)
            if outcome is FAIL:
                failures += 1
            elif isinstance(outcome, NonZeroIndex):
                u, v = pair_from_index(outcome.index, store.n)
                if slot[u] >= 0 and slot[v] >= 0:
                    sampled.append((u, v))
                else:
                    failures += 1
        if not sampled and failures == failures_before:
            break
        for u, v in sampled:
            if uf.union(slot[u], slot[v]):
                forest.add(u, v)
    return ForestExtraction(forest, failures, rounds_used)


def assert_same_extraction(bank: ForestSketchBank, got: ForestExtraction | None = None) -> None:
    """bank.extract(), or got if given, against reference_extract."""
    got, want = got or bank.extract(), reference_extract(bank)
    assert got.forest == want.forest
    assert got.sample_failures == want.sample_failures
    assert got.rounds_used <= want.rounds_used


def random_bank(rng, n: int, seed: int) -> ForestSketchBank:
    """A bank on a random member subset of a sparse random stream, isolated members likely."""
    members = sorted(rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False).tolist())
    bank = ForestSketchBank(n, members, 0.05, seed=seed)
    for e in gen_random_stream(n, float(rng.uniform(0.02, 0.4)), 0.3, seed=seed):
        bank.update(e)
    return bank


def patch_decoder(monkeypatch, bank: ForestSketchBank, rounds: set[int], replace) -> None:
    """In the given rounds, a decode that is not EMPTY returns replace(outcome) instead.

    The patch sits on l0.sample_rows, so it reaches every bank of a
    batched extraction and every one-row decode of reference_extract.
    EMPTY stays EMPTY: the decoder reads EMPTY exactly when the level-0
    cell is zero, which a zero vector always gives.
    """
    decode = l0_mod.sample_rows
    zs = {bank.store.z[r] for r in rounds}

    def patched(read, rows, passes, z, universe):
        found, sign = decode(read, rows, passes, z, universe)
        if z in zs:
            for i in np.flatnonzero(found != ROW_EMPTY).tolist():
                if found[i] == ROW_FAIL:
                    outcome = replace(FAIL)
                else:
                    outcome = replace(NonZeroIndex(int(found[i]), int(sign[i])))
                if outcome is FAIL:
                    found[i], sign[i] = ROW_FAIL, 0
                else:
                    found[i], sign[i] = outcome.index, outcome.sign
        return found, sign

    monkeypatch.setattr(l0_mod, "sample_rows", patched)


@pytest.mark.parametrize("members", [[], [3], [0, 5], [1, 2, 6]])
def test_tiny_banks_and_isolated_members(members):
    bank = ForestSketchBank(8, members, 0.01, seed=4)
    for u, v in [(1, 2), (3, 4), (0, 7)]:
        bank.update(UpdateEvent(u, v, 1))
    assert_same_extraction(bank)


def test_random_banks():
    rng = np.random.default_rng(1201)
    for t in range(60):
        n = int(rng.integers(2, 21))
        assert_same_extraction(random_bank(rng, n, seed=t))


def test_certifier_banks():
    n = 16
    params = CertParams(n=n, k=2, scale_c=2, seed=5, delta=0.05)
    certifier = StreamCertifier(params)
    for e in gen_random_stream(n, 0.15, 0.3, seed=6):
        certifier.update(e)
    for bank in certifier.banks:
        assert_same_extraction(bank)


@pytest.mark.parametrize("rounds", [{0}, {1}, {0, 1}, {0, 2, 3}])
def test_decodes_failing_in_chosen_rounds(monkeypatch, rounds):
    rng = np.random.default_rng(1300 + len(rounds))
    for t in range(20):
        bank = random_bank(rng, int(rng.integers(8, 17)), seed=100 + t)  # >= 4 rounds
        patch_decoder(monkeypatch, bank, rounds, lambda outcome: FAIL)
        assert_same_extraction(bank)
        monkeypatch.undo()


def test_decodes_leaving_the_members_in_chosen_rounds(monkeypatch):
    # every decode of round 1 names a pair with an endpoint outside the bank
    n = 12
    bank = ForestSketchBank(n, range(n - 1), 0.05, seed=7)
    for e in gen_random_stream(n, 0.25, 0.2, seed=8):
        bank.update(e)
    outside = NonZeroIndex(pair_index(0, n - 1, n), 1)
    patch_decoder(monkeypatch, bank, {1}, lambda outcome: outside)
    assert_same_extraction(bank)
    assert bank.extract().sample_failures > 0


def test_decodes_joining_members_that_are_not_live(monkeypatch):
    # a false decode in round 0 joins the isolated members 6 and 7: the
    # pair becomes a component that both loops go on decoding
    n = 8
    bank = ForestSketchBank(n, range(n), 0.05, seed=9)
    for u, v in [(0, 1), (1, 2), (3, 4), (4, 5)]:
        bank.update(UpdateEvent(u, v, 1))
    isolated = NonZeroIndex(pair_index(6, 7, n), 1)
    patch_decoder(monkeypatch, bank, {0}, lambda outcome: isolated)
    got = bank.extract()
    assert (6, 7) in got.forest.edges
    assert_same_extraction(bank)


def test_decodes_joining_a_component_that_decoded_empty(monkeypatch):
    # rounds 0 and 1 fail every decode of {2, 3} and {4, 5}, so {0, 1}
    # forms alone and decodes EMPTY in round 1. There false decodes join
    # 2 (which reads {2, 3} with sign +1) and 3 (sign -1) to it: the sum of
    # {0, 1, 2, 3} is zero only if it starts from the sum {0, 1} was
    # retired with, so it decodes EMPTY in round 2 and no round 3 runs
    n = 6
    bank = ForestSketchBank(n, range(n), 0.05, seed=11)  # 4 rounds
    for u, v in [(0, 1), (2, 3), (4, 5)]:
        bank.update(UpdateEvent(u, v, 1))
    pairs = {pair_index(2, 3, n), pair_index(4, 5, n)}

    def fail(outcome):
        return FAIL if getattr(outcome, "index", None) in pairs else outcome

    def join(outcome):
        if getattr(outcome, "index", None) != pair_index(2, 3, n):
            return fail(outcome)
        return NonZeroIndex(pair_index(0, 2 if outcome.sign > 0 else 3, n), 1)

    patch_decoder(monkeypatch, bank, {0}, fail)
    patch_decoder(monkeypatch, bank, {1}, join)
    got = bank.extract()
    assert got.forest.edges == {(0, 1), (0, 2), (0, 3), (4, 5)}
    assert (got.sample_failures, got.rounds_used) == (6, 3)
    assert_same_extraction(bank)


def test_a_round_keeps_the_edges_of_the_components_with_the_smaller_smallest_members(
    monkeypatch,
):
    # on the 6-cycle 0-1-2-3-5-4-0, chosen decodes form {1, 2} and {4, 5} in
    # round 0 and join 0 to {4, 5} in round 1, whose union-by-rank root would
    # be 4. In round 2 the components {0, 4, 5}, {1, 2} and {3} sample a
    # 3-cycle. Scanned by smallest member, 0, 1, 3, the forest keeps the
    # first two edges, (0, 1) and (2, 3), and drops (3, 5); scanned by those
    # roots, 1, 3, 4, it would drop (0, 1)
    n = 6
    bank = ForestSketchBank(n, range(n), 0.05, seed=13)  # 4 rounds
    for u, v in [(0, 1), (1, 2), (2, 3), (3, 5), (4, 5), (0, 4)]:
        bank.update(UpdateEvent(u, v, 1))

    def by_member(choice: dict[int, tuple[int, int] | None]):
        """Replace a decode with the pair chosen for its component's decoding endpoint."""

        def replace(outcome):
            u, v = pair_from_index(outcome.index, n)
            pair = choice[u if outcome.sign > 0 else v]
            return FAIL if pair is None else NonZeroIndex(pair_index(*pair, n), 1)

        return replace

    rounds = [
        {0: None, 1: (1, 2), 2: (1, 2), 3: None, 4: (4, 5), 5: (4, 5)},
        {0: (0, 4), 1: None, 2: None, 3: None, 4: None, 5: None},
        {0: (0, 1), 4: (0, 1), 5: (0, 1), 1: (2, 3), 2: (2, 3), 3: (3, 5)},
    ]
    for r, choice in enumerate(rounds):
        patch_decoder(monkeypatch, bank, {r}, by_member(choice))
    got = bank.extract()
    assert got.forest.edges == {(1, 2), (4, 5), (0, 4), (0, 1), (2, 3)}
    assert (got.sample_failures, got.rounds_used) == (5, 3)
    assert_same_extraction(bank)


def certifier_after_a_stream(n: int) -> StreamCertifier:
    certifier = StreamCertifier(CertParams(n=n, k=2, scale_c=2, seed=n, delta=0.05))
    for e in gen_random_stream(n, 0.2, 0.3, seed=n + 1):
        certifier.update(e)
    return certifier


def assert_one_batch_equals_the_reference(certifier: StreamCertifier) -> list[ForestExtraction]:
    """One extract call over every bank of the certifier, checked bank by bank."""
    banks = certifier.banks
    banks[0].extract(*banks[1:])
    batched = [bank.extraction for bank in banks]
    for bank, got in zip(banks, batched):
        assert_same_extraction(bank, got)
        assert bank.extract() == got  # a bank alone gives what the batch gave it
    return batched


@pytest.mark.parametrize("n", [16, 32])
@pytest.mark.parametrize("rounds", [set(), {0}, {1}, {0, 2}])
def test_one_batch_over_every_bank_fails_in_chosen_rounds(monkeypatch, n, rounds):
    certifier = certifier_after_a_stream(n)
    patch_decoder(monkeypatch, certifier.banks[0], rounds, lambda outcome: FAIL)
    batched = assert_one_batch_equals_the_reference(certifier)
    assert any(len(x.forest) for x in batched)
    assert bool(rounds) == any(x.sample_failures for x in batched)


@pytest.mark.parametrize("n", [16, 32])
def test_one_batch_over_every_bank_with_decodes_outside_the_members(monkeypatch, n):
    # every decode of round 1 names another pair, often with an endpoint
    # outside its bank (a failure) and otherwise a false join
    certifier = certifier_after_a_stream(n)
    universe = certifier.store.universe

    def elsewhere(outcome):
        if outcome is FAIL:
            return outcome
        return NonZeroIndex((7 * outcome.index + 3) % universe, outcome.sign)

    patch_decoder(monkeypatch, certifier.banks[0], {1}, elsewhere)
    batched = assert_one_batch_equals_the_reference(certifier)
    assert any(x.sample_failures for x in batched)


def test_extracting_banks_of_another_store_is_refused():
    a, b = (ForestSketchBank(6, range(6), 0.05, seed=s) for s in (1, 2))
    with pytest.raises(ValueError, match="one store"):
        a.extract(b)
