"""
Linear sketches and spanning forests from a dynamic stream
==========================================================

An L0Sketch summarizes a signed vector under inserts and deletes and can
report one nonzero coordinate afterwards. Giving every vertex a sketch
of its signed incidence vector makes connected components mergeable:
summing the sketches of a component cancels its internal edges, and
whatever survives is an outgoing edge, which is exactly what a
contraction round wants to sample.
"""
from streamvc.forest import ForestSketchBank, bank_bytes, pair_index
from streamvc.graph import UpdateEvent, component_partition, replay_stream
from streamvc.instances import gen_random_stream
from streamvc.l0 import L0Sketch

# -- the sketch primitive ----------------------------------------------

sk = L0Sketch(universe=64, delta=0.01, seed=7)
print("fresh sketch samples:", sk.sample())

sk.update(17, +1)
sk.update(17, +1)
sk.update(42, +1)
sk.update(17, -1)  # deletes are just negative updates
sk.update(17, -1)
print("after 17 cancels out, only 42 remains:", sk.sample())

# Linearity means update order never matters and merges are cell-wise.
a = L0Sketch(64, 0.01, seed=9)
b = L0Sketch(64, 0.01, seed=9)
a.update(3, +1)
b.update(11, +1)
merged = a.merge(b)
print("merged supports one of {3, 11}:", merged.sample())

# -- vertex sketches cancel internal edges ------------------------------

n = 8
bank = ForestSketchBank(n, members=[0, 1, 2, 3], delta=0.01, seed=1)
for u, v in [(0, 1), (1, 2), (0, 2), (2, 3), (3, 6)]:
    bank.update(UpdateEvent(u, v, +1))

comp = bank.sketch(0, 0).merge(bank.sketch(1, 0)).merge(bank.sketch(2, 0))
out = comp.sample()
print("component {0,1,2} outgoing edge index:", out.index,
      "== id(2,3):", out.index == pair_index(2, 3, n))

# -- full extraction on a random dynamic stream --------------------------

n = 64
events = gen_random_stream(n, target_density=0.06, delete_fraction=0.25, seed=5)
bank = ForestSketchBank(n, members=range(n), delta=0.01, seed=13)
for e in events:
    bank.update(e)
extraction = bank.extract()

g = replay_stream(events, n).support()
truth = component_partition(range(n), g.edges)
got = component_partition(range(n), extraction.forest.edges)
print(f"stream: {len(events)} events, final graph has {len(g)} edges")
print(f"forest: {len(extraction.forest)} edges, "
      f"{extraction.sample_failures} sample failures, "
      f"{extraction.rounds_used} rounds")
print("component partition matches ground truth:", got == truth)
# what the bank's store allocates: its cells plus its member-slot table
print("sketch state for this bank:", bank_bytes(n, n, delta=0.01), "bytes")
